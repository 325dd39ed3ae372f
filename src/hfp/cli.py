"""Benchmark CLI: validate, run, compare, and sweep problem files.

Exit codes: 0 success, 1 semantic violation, 2 parse error, 3 iteration
budget exhausted, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .geometry import NumericError
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
from .schedules import power_schedule, validate_schedule
from .solver import (
    FullPower,
    SolveReport,
    StopRule,
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
FLUSH_INTERVAL = 1000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_trace(path: str, report: SolveReport):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(TRACE_HEADER + "\n")
        for i, row in enumerate(report.trace, start=1):
            handle.write(",".join(map(_fmt, row)) + "\n")
            if i % FLUSH_INTERVAL == 0:
                handle.flush()
        handle.flush()


def _load(path: str, overrides: List[str], args=None) -> BuiltProblem:
    raw = parse_problem_file(path)
    extra = list(overrides)
    if args is not None:
        if getattr(args, "max_iters", None) is not None:
            extra.append(f"stop.max_iters={args.max_iters}")
        if getattr(args, "seed", None) is not None:
            extra.append(f"problem.seed={args.seed}")
    if extra:
        raw = apply_overrides(raw, extra)
    return build_problem(raw)


def _certifier_violations(built: BuiltProblem, samples: int = 200) -> List[str]:
    """Spot-check declared fixture metadata with small-sample certifiers."""
    spec = built.spec
    out = []
    checks = []
    for label, handle in (("T", spec.T), ("S", spec.S), ("V", spec.V), ("F", spec.F)):
        if handle.meta.lipschitz is not None:
            checks.append(
                (
                    f"{label} Lipschitz",
                    lambda h=handle: certify_lipschitz(
                        h, h.meta.lipschitz, samples, spec.seed
                    ),
                )
            )
        if handle.meta.strong_monotone is not None:
            checks.append(
                (
                    f"{label} strong monotonicity",
                    lambda h=handle: certify_strong_monotone(
                        h, h.meta.strong_monotone, samples, spec.seed
                    ),
                )
            )
    if spec.T.meta.nearly_seq is not None:
        checks.append(
            (
                "T near-nonexpansiveness",
                lambda: certify_nearly_nonexpansive(
                    spec.T, spec.T.meta.nearly_seq, 3, samples, spec.seed
                ),
            )
        )
    for label, run in checks:
        cert = run()
        if not cert.passed:
            out.append(
                f"certifier failed: {label} (worst margin {cert.worst_margin:.3e})"
            )
    return out


def cmd_validate(args) -> int:
    try:
        built = _load(args.problem, args.set or [])
    except ProblemFileParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProblemFileSemanticError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    violations = validate_problem(built.spec)
    violations.extend(_certifier_violations(built))
    if violations:
        for violation in violations:
            print(f"violation: {violation}")
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
    try:
        built = _load(args.problem, args.set or [], args)
    except ProblemFileParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProblemFileSemanticError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    spec, stop = built.spec, built.stop
    violations = validate_problem(spec)
    if violations:
        for violation in violations:
            print(f"violation: {violation}")
        return EXIT_SEMANTIC
    if isinstance(spec.mode, FullPower):
        regularity = check_power_regularity(spec.T, spec.schedule, [spec.x1])
        if not regularity.passed:
            print(
                "warning: power-regularity check failed for T; the convergence "
                "guarantee does not apply",
                file=sys.stderr,
            )
    try:
        report = solve(spec, stop, collect_timing=args.timing, check_valid=False)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    trace_path = args.trace_out or built.trace_path or str(
        Path(args.problem).with_suffix(".trace.csv")
    )
    write_trace(trace_path, report)
    _summary(report, trace_path, args.quiet)
    return EXIT_OK if report.stop_reason != "budget" else EXIT_BUDGET


def cmd_compare(args) -> int:
    try:
        built = _load(args.problem, args.set or [], args)
        base_raw = dict(built.raw)
        base_raw["problem"] = dict(base_raw["problem"])
        base_raw["problem"]["variant"] = "full_power"
        base = build_problem(base_raw)
    except ProblemFileParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProblemFileSemanticError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC

    specs = {}
    for variant in args.variants:
        try:
            specs[variant] = reduce_variant(base.spec, variant)
        except Exception as exc:
            print(f"variant {variant!r} is not applicable: {exc}", file=sys.stderr)
            return EXIT_SEMANTIC

    trace_base = args.trace_out or base.trace_path or str(
        Path(args.problem).with_suffix(".trace.csv")
    )
    stem = trace_base[:-4] if trace_base.endswith(".csv") else trace_base

    rows = []
    for variant, spec in specs.items():
        violations = validate_problem(spec)
        if violations:
            for violation in violations:
                print(f"violation ({variant}): {violation}")
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
    try:
        built = _load(args.problem, args.set or [], args)
    except ProblemFileParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProblemFileSemanticError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC

    if args.q_values:
        grid = sorted((p, q) for p in args.p_values for q in args.q_values)
    else:
        grid = sorted((p, p + args.q_offset) for p in args.p_values)

    alpha0 = float(built.raw["schedule"]["alpha0"])
    beta0 = float(built.raw["schedule"]["beta0"])
    nearly = built.spec.T.meta.nearly_seq

    lines = ["p,q,status,iterations_to_tol,final_residual"]
    admissible = 0
    for p, q in grid:
        try:
            schedule = power_schedule(alpha0, p, beta0, q)
            report = validate_schedule(schedule, nearly)
            failures = report.failures()
        except Exception as exc:
            failures = [str(exc)]
        if failures:
            lines.append(f"{_fmt(p)},{_fmt(q)},rejected: {failures[0]},,")
            continue
        admissible += 1
        raw = apply_overrides(
            built.raw, [f"schedule.p={p!r}", f"schedule.q={q!r}"]
        )
        point = build_problem(raw)
        violations = validate_problem(point.spec)
        if violations:
            lines.append(f"{_fmt(p)},{_fmt(q)},rejected: {violations[0]},,")
            continue
        try:
            result = solve(point.spec, point.stop, check_valid=False)
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
    return handlers[args.command](args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
