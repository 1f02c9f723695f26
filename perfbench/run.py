#!/usr/bin/env python3
"""Registration benchmark for embreg.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload match-40 --seed 1 --seconds 30 --trace 0

It imports embreg from ``src/`` of that checkout, registers synthetic pairs
made from ``--seed`` one at a time for ``--seconds``, checks every result,
and prints one JSON object as the last line of standard output: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The line before it records the environment.
Spans and per-pair details go to ``.bench_build/perfbench/``. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "embreg" / "__init__.py").is_file():
        print(f"error: no embreg sources under {SRC}", file=sys.stderr)
        return 2
    # One process, at most one BLAS thread per usable core; OpenBLAS reads
    # this when numpy loads it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    result, detail = bench.run(workload, args.seed, args.seconds, bool(args.trace))

    out = bench.OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **detail}, default=float))
    print(json.dumps({"environment": detail["environment"], "failed_frac": detail["failed_frac"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
