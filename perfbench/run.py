#!/usr/bin/env python3
"""The repository benchmark: three workloads, two clocks, one ledger.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead (the same loop,
alternating untraced and traced passes).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the host, toolchain and source
identity of the run.  A wrong result, a failed request or a leaked
process or shared-memory segment counts as failed without stopping the
run; the exit code is 1 when anything failed.  The benchmark builds
nothing: it imports ``repro`` from ``src/`` next to this directory and
exits 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_repro() -> bool:
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().parent == (SRC / "repro").resolve()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "serve", "multinode"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _import_repro():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    import catalogue
    from harness import SETUP_REPEATS, end_to_end, host_fingerprint, per_layer
    from multinode import Multinode
    from serving import Serve
    from sweep import Sweep

    workload = {"sweep": Sweep, "serve": Serve, "multinode": Multinode}[args.workload](
        ROOT, args.seed
    )
    setup_s = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        measured = workload.measure(args.seconds, bool(args.trace))
    finally:
        workload.teardown()

    failed = sum(not op.ok for op in measured.ops) + measured.extra_failures + workload.leaks
    if args.trace:
        values = per_layer(measured)
        names = catalogue.LAYER_NAMES
    else:
        values = end_to_end(measured, setup_s)
        names = tuple(m.name for m in catalogue.END_TO_END)
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if list(values) != list(names) or bad:
        print(f"perfbench: metrics incomplete or not finite: {bad}", file=sys.stderr)
        return 3

    for problem in workload.failures:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name in names:
        print(f"{name:34s} {values[name]:>16.6g} {catalogue.UNITS[name]}")
    context = host_fingerprint(
        ROOT,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=len(measured.ops),
        traced_ops=sum(op.traced for op in measured.ops),
        setup_s=setup_s,
        first_failures=workload.failures[:5],
    )
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(measured.ops),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": catalogue.UNITS[name]} for name in names
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
