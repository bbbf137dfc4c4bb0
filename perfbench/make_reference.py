"""Write perfbench/reference.json: every operation's output at the reference seed.

    python3 perfbench/make_reference.py

Runs each unit of each workload's pool once and records its outputs, after
the same oracles the benchmark applies have accepted them. Regenerate it
only from a commit whose verdicts are known to be right; the benchmark
then fails any later commit whose outputs differ.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, REFERENCE_SEED, ROOT, SRC, run_ops, verify


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        workdir = ROOT / ".bench_work" / ("reference-" + name)
        try:
            pool = workload.generate(REFERENCE_SEED, workdir)
            records = run_ops(workload, pool, workdir, units=len(pool))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed = verify(workload, pool, records, None)
        if failed:
            for i, why in sorted(failed.items()):
                print("%s %s %s: %s" % (name, pool[records[i].unit]["key"],
                                        records[i].op, why), file=sys.stderr)
            return 1
        table = out["workloads"][name] = {}
        for rec in records:
            table.setdefault(pool[rec.unit]["key"], {})[rec.op] = rec.output
        print("%s: %d operations" % (name, len(records)))
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
