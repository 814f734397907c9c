"""Command line of the benchmark.

    python -m benchmarks.perf run --workload micro --seed 1
    python -m benchmarks.perf trace --workload apps --seed 1
    python -m benchmarks.perf run --quick
    python -m benchmarks.perf compare PARENT_DIR CHANGE_DIR
    python -m benchmarks.perf paper --seed 1

``run`` prints every metric with its unit and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 1`` (or ``trace``) reports the per-layer metrics instead of the
end-to-end ones. Result records go to ``--results`` (default
``.perf/results``), which is what ``compare`` reads. ``paper`` regenerates
the micro figures and Fig. 16 at the registry's full sizes and prints their
error against the paper's 128-thread values (``paper_logerr``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        p = sub.add_parser(name, help=f"{name} one workload (or all, "
                                      "with --quick)")
        p.add_argument("--workload", choices=WORKLOADS)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=None,
                       help="measure in rounds for about this long, at "
                            "least one round (default: run_seconds of "
                            "BENCHMARK.json)")
        p.add_argument("--trace", type=int, choices=(0, 1),
                       default=int(name == "trace"),
                       help="1: per-layer metrics from a traced run")
        p.add_argument("--quick", action="store_true",
                       help="tiny sizes, one round of every pass, all "
                            "workloads unless --workload is given; the "
                            "records are marked quick and compare "
                            "refuses them")
        p.add_argument("--results", type=Path, default=None,
                       help="directory for result records and traces "
                            "(default .perf/results)")
    p = sub.add_parser("compare", help="compare two directories of records")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p = sub.add_parser("paper", help="full-size figures scored against "
                                     "the paper")
    p.add_argument("--seed", type=int, default=1)
    p = sub.add_parser("child", help=argparse.SUPPRESS)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kind", choices=("warm", "setup", "pass", "paper"),
                   required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--specs", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--spawned", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "child":
        from . import child
        return child.main(args)
    if args.command == "compare":
        from . import compare
        return compare.main(args.parent, args.change)

    from . import driver
    if args.command == "paper":
        try:
            return driver.paper(args.seed)
        except driver.BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
    if args.workload is None and not args.quick:
        print("--workload is required without --quick", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = args.results or driver.WORK / "results"
    seconds = args.seconds
    if seconds is None:
        seconds = driver.declared()["run_seconds"]
    try:
        return driver.run(workloads, args.seed, seconds,
                          bool(args.trace), args.quick, results)
    except driver.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
