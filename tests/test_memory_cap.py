"""The address-space cap that conftest.py sets is in force and leaves room
for numpy and OpenBLAS."""

import resource
import subprocess
import sys

import pytest

from conftest import AS_CAP

SVD = """
import resource
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
u, s, vh = np.linalg.svd(a)
assert np.allclose((u * s) @ vh, a)
print(resource.getrlimit(resource.RLIMIT_AS)[0])
"""


def test_allocation_past_the_cap_fails():
    assert resource.getrlimit(resource.RLIMIT_AS)[0] <= AS_CAP
    with pytest.raises(MemoryError):
        bytearray(2 << 30)


def test_openblas_starts_under_the_cap():
    # a new interpreter inherits the cap and loads numpy and OpenBLAS under it
    proc = subprocess.run([sys.executable, "-c", SVD], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= AS_CAP
