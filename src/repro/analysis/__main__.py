"""CLI for the static analysis passes: ``python -m repro.analysis``.

Two modes:

* the default contract checks — the label-algebra law checker over every
  built-in datatype's contract suite, the label-discipline lint over the
  datatype and workload sources (plus any extra files/directories
  given), and the registry aliasing check;
* ``python -m repro.analysis modelcheck`` — the exhaustive explicit-state
  model checker over every registered label's bounded config (see
  :mod:`repro.analysis.modelcheck`).

Both honor ``--json`` for mechanical consumption (schema
``repro-analysis/1``) and share the exit-code contract:

* **0** — clean (warnings allowed);
* **1** — at least one error-severity finding;
* **2** — internal error (the analysis itself crashed; also argparse
  usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .findings import errors_in, format_findings
from .laws import DEFAULT_TRIALS, check_laws
from .lint import check_paths, check_registry

#: Default lint scope: the code that defines and uses labels.
DEFAULT_LINT_DIRS = ("datatypes", "workloads")

#: Exit-code contract, shared by both subcommands and consumed by CI.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2

JSON_SCHEMA = "repro-analysis/1"


def _package_root() -> Path:
    return Path(__file__).resolve().parent.parent


def _standard_registry():
    """A registry carrying every built-in suite's label, for alias checks."""
    from ..core.labels import LabelRegistry
    from ..datatypes.contracts import builtin_suites

    registry = LabelRegistry(num_hw_labels=8, virtualize=True)
    for suite in builtin_suites():
        label = suite.make_label()
        # Suites may share a factory (e.g. several ADD users); register
        # each distinct label name once, as a linked program would.
        if label.name not in registry:
            registry.register(label)
    return registry


def _emit(findings, json_out: bool, extra: dict = None) -> int:
    """Shared reporting tail: print findings (text or JSON) and map them
    to the exit-code contract."""
    errors = errors_in(findings)
    warnings = len(findings) - len(errors)
    if json_out:
        payload = {"schema": JSON_SCHEMA,
                   "findings": [f.to_dict() for f in findings],
                   "errors": len(errors), "warnings": warnings}
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if findings:
            print(format_findings(findings))
        print(f"repro.analysis: {len(errors)} error(s), "
              f"{warnings} warning(s)")
    return EXIT_FINDINGS if errors else EXIT_CLEAN


def _check_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="CommTM contract checks: label-algebra laws and "
                    "label-discipline lint. (See also the 'modelcheck' "
                    "subcommand.)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="extra files or directories to lint "
                             "(e.g. your workload sources)")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="random trials per law suite "
                             "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default %(default)s)")
    parser.add_argument("--skip-laws", action="store_true",
                        help="skip the law checker")
    parser.add_argument("--skip-lint", action="store_true",
                        help="skip the source lint")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output "
                             f"(schema {JSON_SCHEMA})")
    args = parser.parse_args(argv)

    findings = []
    if not args.skip_laws:
        findings.extend(check_laws(trials=args.trials, seed=args.seed))
        findings.extend(check_registry(_standard_registry()))
    if not args.skip_lint:
        root = _package_root()
        lint_paths = [root / d for d in DEFAULT_LINT_DIRS]
        lint_paths.extend(args.paths)
        findings.extend(check_paths(lint_paths))
    return _emit(findings, args.json)


def _modelcheck_main(argv) -> int:
    from .findings import Finding, WARNING
    from .modelcheck import (DEFAULT_CORES, DEFAULT_DEPTH, DEFAULT_LINES,
                             run_modelcheck)
    from .modelcheck.checker import DEFAULT_MAX_STATES

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis modelcheck",
        description="Exhaustive explicit-state model check of the MESI+U "
                    "protocol over bounded configs, for every registered "
                    "label: shared invariants, commutativity as "
                    "reachability, quiescence.")
    parser.add_argument("--cores", type=int, default=DEFAULT_CORES,
                        help="cores in the bounded config "
                             "(default %(default)s)")
    parser.add_argument("--lines", type=int, default=DEFAULT_LINES,
                        help="tracked cache lines (default %(default)s)")
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                        help="BFS depth bound in ops (default %(default)s)")
    parser.add_argument("--label", action="append", dest="labels",
                        metavar="NAME",
                        help="check only this label (repeatable; "
                             "default: all registered labels)")
    parser.add_argument("--max-states", type=int,
                        default=DEFAULT_MAX_STATES,
                        help="per-label state budget (default %(default)s)")
    parser.add_argument("--budget", type=float, default=60.0,
                        help="wall-clock budget in seconds across all "
                             "labels (default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output "
                             f"(schema {JSON_SCHEMA})")
    args = parser.parse_args(argv)

    report = run_modelcheck(label_names=args.labels, cores=args.cores,
                            lines=args.lines, depth=args.depth,
                            max_states=args.max_states,
                            time_budget=args.budget)
    findings = list(report.findings)
    suppressed = sum(r.suppressed for r in report.per_label)
    for r in report.per_label:
        if not r.exhausted:
            findings.append(Finding(
                pass_name="modelcheck", check="budget-exhausted",
                severity=WARNING, label=r.label,
                message=f"exploration of label {r.label!r} hit the "
                        f"state/time budget after {r.states} states; "
                        f"the guarantee only covers what was explored"))
    per_label = [{"label": r.label, "states": r.states,
                  "transitions": r.transitions, "exhausted": r.exhausted,
                  "elapsed_s": round(r.elapsed, 3),
                  "findings": len(r.findings), "suppressed": r.suppressed}
                 for r in report.per_label]
    if not args.json:
        for row in per_label:
            status = "exhausted" if row["exhausted"] else "BUDGET CUT"
            print(f"modelcheck: label {row['label']:<5s} "
                  f"{row['states']:6d} states {row['transitions']:7d} "
                  f"transitions  {row['elapsed_s']:6.2f}s  {status}  "
                  f"{row['findings']} finding(s)")
        print(f"modelcheck: explored {report.states} states / "
              f"{report.transitions} transitions over "
              f"{len(report.per_label)} label(s) "
              f"({args.cores} cores x {args.lines} line(s), "
              f"depth {args.depth})"
              + (f"; {suppressed} finding(s) suppressed past the "
                 f"per-check cap" if suppressed else ""))
    return _emit(findings, args.json, extra={
        "modelcheck": {"cores": args.cores, "lines": args.lines,
                       "depth": args.depth, "states": report.states,
                       "transitions": report.transitions,
                       "exhausted": report.exhausted,
                       "suppressed": suppressed,
                       "per_label": per_label}})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "modelcheck":
            return _modelcheck_main(argv[1:])
        return _check_main(argv)
    except SystemExit:
        raise  # argparse usage errors already exit 2
    except Exception:
        traceback.print_exc()
        print("repro.analysis: internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
