"""Set-up time of one workload, measured inside a fresh interpreter.

Run by run.py, never directly: `python3 -S bench/setup_child.py <workload>`.
It times from just before `import pathrw` until the workload is ready (its
spaces built and one operation of each class done and checked), so
interpreter start-up stays out. Kernel readings before and after give the
drift factor. Prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import kernel
import workloads


def main(name: str) -> int:
    readings = [kernel.read_speed() for _ in range(3)]
    t0 = time.perf_counter()
    pathrw = workloads.import_pathrw()
    w = workloads.WORKLOADS[name](pathrw)
    w.build_spaces()
    L = workloads.layers(pathrw)
    for op in w.setup_ops():
        err = w.check(op, w.run(L, op))
        if err is not None:
            print(f"set-up operation failed: {err}", file=sys.stderr)
            return 1
    t1 = time.perf_counter()
    readings += [kernel.read_speed() for _ in range(3)]
    factor = kernel.NOMINAL_READING_S / statistics.median(readings)
    print(json.dumps({"raw_s": t1 - t0, "factor": factor}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
