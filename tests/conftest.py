"""Session set-up: the test process runs under a 1 GiB address-space cap.

With 2 BLAS threads the whole suite peaks at about 520 MB of address space
and 180 MB resident, so the cap is about twice that peak. A test whose
memory grows without bound then fails with MemoryError instead of taking
the machine's memory. The cap is set when this file is imported, before
any test module imports numpy, so OpenBLAS starts under it; processes the
tests start inherit it. OpenBLAS reserves about 40 MB of address space per
thread and starts one per processor, so the thread count defaults to 2
here, as it was measured: on a many-core machine those reservations alone
would pass the cap.
"""

import os
import resource

AS_CAP = 1 << 30

os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
_soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
if _soft == resource.RLIM_INFINITY or _soft > AS_CAP:
    resource.setrlimit(resource.RLIMIT_AS, (
        AS_CAP if _hard == resource.RLIM_INFINITY else min(AS_CAP, _hard), _hard))
