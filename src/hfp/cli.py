"""Benchmark CLI: validate, run, compare, and sweep problem files.

Exit codes: 0 success, 1 semantic violation, 2 parse error or unwritable
output, 3 iteration budget exhausted, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import List, Optional

from .geometry import NumericError, UsageError
from .operators import (
    certify_lipschitz,
    certify_nearly_nonexpansive,
    certify_strong_monotone,
)
from .problemfile import (
    BuiltProblem,
    ProblemFileParseError,
    ProblemFileSemanticError,
    apply_overrides,
    build_problem,
    parse_problem_file,
)
from .schedules import validate_schedule
from .solver import (
    FullPower,
    ProblemSpec,
    SolveReport,
    TraceRow,
    check_power_regularity,
    reduce_variant,
    solve,
    validate_problem,
)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4

TRACE_HEADER = ",".join(TraceRow._fields)  # a trace line is one TraceRow
CERTIFIER_SAMPLES = 200  # pairs per spot check of a declared constant


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_trace(path: str, report: SolveReport):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(TRACE_HEADER + "\n")
        handle.writelines(",".join(map(_fmt, row)) + "\n" for row in report.trace)


def _load(args, *extra: str) -> BuiltProblem:
    """The problem file of ``args``, with its overrides, then ``extra`` ones."""
    overrides = [*(args.set or []), *extra]
    if getattr(args, "max_iters", None) is not None:
        overrides.append(f"stop.max_iters={args.max_iters}")
    if getattr(args, "seed", None) is not None:
        overrides.append(f"problem.seed={args.seed}")
    raw = parse_problem_file(args.problem)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return build_problem(raw)


def _trace_path(args, built: BuiltProblem) -> str:
    return args.trace_out or built.trace_path or str(
        Path(args.problem).with_suffix(".trace.csv")
    )


def _violated(spec: ProblemSpec, violations: List[str], label: str = "violation") -> bool:
    """Print each violation of ``spec`` under ``label``; whether there were any.

    A FullPower problem without violations then has the power regularity of
    its T checked from x1, and a failure is a warning on stderr.
    """
    for violation in violations:
        print(f"{label}: {violation}")
    if not violations and isinstance(spec.mode, FullPower):
        if not check_power_regularity(spec.T, spec.schedule, [spec.x1]).passed:
            print(
                "warning: power-regularity check failed for T; the convergence "
                "guarantee does not apply",
                file=sys.stderr,
            )
    return bool(violations)


def _certifier_violations(spec: ProblemSpec) -> List[str]:
    """Spot-check declared fixture metadata with small-sample certifiers."""
    samples, seed = CERTIFIER_SAMPLES, spec.seed
    certificates = []
    for label, handle in (("T", spec.T), ("S", spec.S), ("V", spec.V), ("F", spec.F)):
        meta = handle.meta
        if meta.lipschitz is not None:
            cert = certify_lipschitz(handle, meta.lipschitz, samples, seed)
            certificates.append((f"{label} Lipschitz", cert))
        if meta.strong_monotone is not None:
            cert = certify_strong_monotone(handle, meta.strong_monotone, samples, seed)
            certificates.append((f"{label} strong monotonicity", cert))
    T = spec.T
    if T.meta.nearly_seq is not None:
        cert = certify_nearly_nonexpansive(T, T.meta.nearly_seq, 3, samples, seed)
        certificates.append(("T near-nonexpansiveness", cert))
    return [
        f"certifier failed: {label} (worst margin {cert.worst_margin:.3e})"
        for label, cert in certificates
        if not cert.passed
    ]


def cmd_validate(args) -> int:
    built = _load(args)
    violations = validate_problem(built.spec)
    try:
        violations.extend(_certifier_violations(built.spec))
    # a one-point domain has no pairs to sample, and the projection that
    # samples some other domains may not converge
    except (UsageError, NumericError) as exc:
        violations.append(f"certifiers cannot run: {exc}")
    if _violated(built.spec, violations):
        return EXIT_SEMANTIC
    print("valid")
    return EXIT_OK


def _summary(report: SolveReport, trace_path: str, quiet: bool):
    if quiet:
        return
    last = report.trace[-1] if report.trace else None
    print(f"stop reason    : {report.stop_reason}")
    print(f"iterations     : {report.iterations}")
    print(f"final x        : {report.final_x.tolist()}")
    if last is not None:
        print(f"step_norm      : {_fmt(last.step_norm)}")
        print(f"fix_residual   : {_fmt(last.fix_residual)}")
        if last.vi_residual is not None:
            print(f"vi_residual    : {_fmt(last.vi_residual)}")
        if last.dist_to_reference is not None:
            print(f"dist_to_ref    : {_fmt(last.dist_to_reference)}")
    print(f"trace          : {trace_path}")


def cmd_run(args) -> int:
    built = _load(args)
    spec, stop = built.spec, built.stop
    if _violated(spec, validate_problem(spec)):
        return EXIT_SEMANTIC
    report = solve(spec, stop, collect_timing=args.timing, check_valid=False)
    trace_path = _trace_path(args, built)
    write_trace(trace_path, report)
    _summary(report, trace_path, args.quiet)
    return EXIT_OK if report.stop_reason != "budget" else EXIT_BUDGET


def cmd_compare(args) -> int:
    # every variant is reduced from the main scheme, whatever the file's own variant
    base = _load(args, "problem.variant=full_power")

    specs = {}
    for variant in args.variants:
        try:
            specs[variant] = reduce_variant(base.spec, variant)
        except UsageError as exc:
            print(f"variant {variant!r} is not applicable: {exc}", file=sys.stderr)
            return EXIT_SEMANTIC

    trace_base = _trace_path(args, base)
    stem = trace_base[:-4] if trace_base.endswith(".csv") else trace_base

    rows = []
    for variant, spec in specs.items():
        if _violated(spec, validate_problem(spec), f"violation ({variant})"):
            return EXIT_SEMANTIC
        try:
            report = solve(spec, base.stop, check_valid=False)
        except NumericError as exc:
            print(f"numeric failure ({variant}): {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        path = f"{stem}.{variant}.csv"
        write_trace(path, report)
        last = report.trace[-1]
        rows.append(
            (
                variant,
                report.stop_reason,
                report.iterations,
                last.step_norm,
                last.fix_residual,
                "" if last.vi_residual is None else last.vi_residual,
            )
        )

    if not args.quiet:
        header = ("variant", "stop", "iters", "step_norm", "fix_residual", "vi_residual")
        widths = [
            max(len(str(header[i])), max(len(str(r[i])) for r in rows))
            for i in range(len(header))
        ]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    built = _load(args)

    if args.q_values:
        grid = [(p, q) for p in args.p_values for q in args.q_values]
    else:
        grid = [(p, p + args.q_offset) for p in args.p_values]
    # NaN compares false with everything, so it gets its own key to sort last
    grid.sort(key=lambda pq: [(math.isnan(v), v) for v in pq])

    nearly = built.spec.T.meta.nearly_seq

    lines = ["p,q,status,iterations_to_tol,final_residual"]
    admissible = 0
    # grid points differ only in a schedule each admissible one has passed, so
    # validate_problem gives the same verdict at all of them
    violations = None
    for p, q in grid:
        try:
            schedule = dataclasses.replace(built.spec.schedule, p=p, q=q)
            report = validate_schedule(schedule, nearly)
            failures = report.failures()
        except UsageError as exc:
            failures = [str(exc)]
        if failures:
            lines.append(f"{_fmt(p)},{_fmt(q)},rejected: {failures[0]},,")
            continue
        admissible += 1
        spec = dataclasses.replace(built.spec, schedule=schedule)
        if violations is None:
            violations = validate_problem(spec)
        if violations:
            lines.append(f"{_fmt(p)},{_fmt(q)},rejected: {violations[0]},,")
            continue
        try:
            result = solve(spec, built.stop, check_valid=False)
        except NumericError as exc:
            print(f"numeric failure at (p={p}, q={q}): {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        iters = "" if result.stop_reason == "budget" else str(result.iterations)
        final_res = _fmt(result.trace[-1].fix_residual) if result.trace else ""
        lines.append(f"{_fmt(p)},{_fmt(q)},ok,{iters},{final_res}")

    if admissible == 0:
        print("no admissible grid points", file=sys.stderr)
        return EXIT_SEMANTIC

    out_path = args.out or str(Path(args.problem).with_suffix(".sweep.csv"))
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    if not args.quiet:
        print(f"sweep results : {out_path}")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override a problem-file value (repeatable)",
    )
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfp-bench",
        description="Hierarchical fixed point solver benchmark front end",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a problem file")
    p_validate.add_argument("problem")
    p_validate.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")

    p_run = sub.add_parser("run", help="solve a problem file")
    p_run.add_argument("problem")
    _add_common(p_run)
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock per step (makes traces non-reproducible)",
    )

    p_compare = sub.add_parser("compare", help="solve under several variants")
    p_compare.add_argument("problem")
    p_compare.add_argument("variants", nargs="+")
    _add_common(p_compare)
    p_compare.add_argument("--trace-out", default=None)

    p_sweep = sub.add_parser("sweep", help="grid sweep over schedule exponents")
    p_sweep.add_argument("problem")
    _add_common(p_sweep)
    p_sweep.add_argument("--p-values", type=float, nargs="+", required=True)
    p_sweep.add_argument("--q-values", type=float, nargs="*", default=None)
    p_sweep.add_argument("--q-offset", type=float, default=0.4)
    p_sweep.add_argument("--out", default=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "run": cmd_run,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ProblemFileParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProblemFileSemanticError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # a failed read of the problem file is already a parse error, so this is a write
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
