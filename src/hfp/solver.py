"""The modified iterative projection method and its named special cases.

One iteration, for n >= 1:

    y_n     = beta_n * S(x_n) + (1 - beta_n) * x_n
    z_n     = T^n y_n          (FullPower; Single applies T once)
    x_{n+1} = P_C[ alpha_n * rho * V(x_n) + z_n - alpha_n * mu * F(z_n) ]

The scheme converges to the unique solution of the variational inequality
<(rho*V - mu*F) x*, x - x*> <= 0 over the fixed points of T in C; with
V = 0 and F = I that solution is the minimum-norm such point.
"""
from __future__ import annotations

import dataclasses
import numbers
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Union

import numpy as np

from .geometry import (
    ConvexSet,
    Intersection,
    NumericError,
    ProblemDefinitionError,
    UsageError,
    WholeSpace,
    _norm,
)
from .fixtures import identity_map
from .operators import (
    MappingHandle, _evaluate_rows, _integer, _lip_squared_terms, _norms, _power, _powers,
    nu_constant,
)
from .schedules import Schedule, _trend_ok, _trend_probes, validate_schedule

FIX_POINT_TOL = 1e-6
POWER_BUDGET = 10**8  # nominal raw T steps, n at iteration n, one solve or step may count
_BLOCK_FLOATS = 16384  # floats that one block of solve's pending iterates may hold


@dataclass(frozen=True)
class FullPower:
    """Apply T^n at iteration n (the main scheme)."""


@dataclass(frozen=True)
class Single:
    """Apply T once per iteration (the nonexpansive-T reduction)."""


@dataclass(frozen=True)
class ProblemSpec:
    """A hierarchical fixed point problem.

    ``x1`` and ``reference`` are finite points of dimension ``C.dim``.
    ``fix_points``, when given, is an ``(m, C.dim)`` array of m >= 1 finite
    points asserted to be fixed points of T in C, over which the variational
    inequality is posed; ``validate_problem`` checks their residuals and
    ``solve`` probes the variational inequality at them.
    """

    C: ConvexSet
    T: MappingHandle
    S: MappingHandle
    V: MappingHandle
    F: MappingHandle
    rho: float
    mu: float
    schedule: Schedule
    mode: Union[FullPower, Single]
    x1: np.ndarray
    fix_points: Optional[np.ndarray] = None
    reference: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.mode, (FullPower, Single)):
            raise UsageError(f"unknown power mode {self.mode!r}")
        object.__setattr__(self, "x1", self.C._checked(self.x1))
        if self.reference is not None:
            object.__setattr__(self, "reference", self.C._checked(self.reference))
        if self.fix_points is not None:
            # row by row: the first bad row's own error; a 1-d C takes scalar rows
            rows = [self.C._checked(row) for row in self.fix_points]
            points = np.array(rows).reshape(-1, self.C.dim)
            if not len(points):
                raise UsageError("fix_points must hold at least one point")
            object.__setattr__(self, "fix_points", points)


@dataclass(frozen=True)
class StopRule:
    """A ``None`` tolerance disables that rule; the budget always applies."""

    max_iters: int = 10**5
    tol_step: Optional[float] = 1e-10
    tol_fix: Optional[float] = 1e-8
    tol_vi: Optional[float] = 1e-8

    def __post_init__(self):
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise UsageError(f"stop.max_iters = {self.max_iters} is below 1 or not an integer")
        for name in ("tol_step", "tol_fix", "tol_vi"):
            tol = getattr(self, name)  # NaN fails 0 <= tol
            if tol is not None and not (isinstance(tol, numbers.Real) and 0 <= tol < np.inf):
                raise UsageError(f"stop.{name} = {tol} is below 0 or not a finite real")


class TraceRow(NamedTuple):
    n: int
    alpha: float
    beta: float
    step_norm: float
    fix_residual: float
    vi_residual: Optional[float]
    dist_to_reference: Optional[float]
    elapsed_ns: Optional[int]


@dataclass
class Trace(Sequence):
    """A solve's trace as 8-byte columns; row i, a TraceRow, is iteration i + 1."""

    alpha: array
    beta: array
    step_norm: array
    fix_residual: array
    vi_residual: Optional[array]  # None without fix_points
    dist_to_reference: Optional[array]  # None without a reference
    elapsed_ns: Optional[array]  # None without collect_timing

    def columns(self) -> list:
        return [getattr(self, name) for name in TraceRow._fields[1:]]

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # negative indices; IndexError past the end
        return TraceRow(i + 1, *(None if c is None else c[i] for c in self.columns()))


@dataclass
class SolveReport:
    final_x: np.ndarray
    stop_reason: str  # "budget" | "step" | "fix" | "vi"
    iterations: int
    trace: Trace


def validate_problem(p: ProblemSpec) -> List[str]:
    """All detected hypothesis violations; an empty list means valid."""
    violations = []
    eta, lip, gamma = p.F.meta.strong_monotone, p.F.meta.lipschitz, p.V.meta.lipschitz
    if eta is None or lip is None:
        violations.append("F must declare both L and eta")
    elif not p.mu > 0:
        violations.append("mu must be positive")
    elif not p.mu < (bound := _lip_squared_terms(p.mu, eta, lip)[0]):
        violations.append(f"mu >= 2*eta/L^2 (mu={p.mu}, bound={bound})")
    elif not p.rho >= 0:
        violations.append("rho must be nonnegative")
    elif p.rho > 0 and gamma is None:
        violations.append("V must declare gamma when rho > 0")
    elif p.rho > 0 and not p.rho * gamma < (nu := nu_constant(p.mu, eta, lip)):
        violations.append(f"rho*gamma >= nu (rho*gamma={p.rho * gamma}, nu={nu})")

    if not p.C.contains(p.x1):
        violations.append("initial point x1 is not in C")

    lip_T = p.T.meta.lipschitz
    if p.T.meta.nearly_seq is None and (lip_T is None or lip_T > 1.0):
        violations.append(
            f"T = {p.T.name} declares neither a nearness sequence nor a Lipschitz "
            "constant <= 1, so it is not known to be nearly nonexpansive"
        )

    lip_S = p.S.meta.lipschitz
    if lip_S is None or lip_S > 1.0 or not p.S.maps_into_domain:
        violations.append(f"S = {p.S.name} is not a declared nonexpansive self-mapping")

    if not p.T.maps_into_domain:
        violations.append(f"T = {p.T.name} is not a self-mapping of C")

    # an empty C is one violation: Fix(T) is not then probed against it
    probes = [("", p.C)] if isinstance(p.C, Intersection) else []
    if p.T.meta.fix_set is not None:
        probes.append((f"Fix(T) of T = {p.T.name} does not meet C: ",
                       Intersection((p.T.meta.fix_set, p.C))))
    for prefix, K in probes:
        try:
            K.feasible_point()
        except ProblemDefinitionError as exc:
            violations.append(f"{prefix}{exc}")
            break

    try:
        failures = validate_schedule(p.schedule, p.T.meta.nearly_seq)
    except UsageError as exc:
        failures = [str(exc)]
    violations.extend(f"schedule: {msg}" for msg in failures)

    if p.fix_points is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test
            residuals = _norms(p.fix_points - _evaluate_rows(p.T, p.fix_points))
        for point, residual in zip(p.fix_points, residuals):
            if not residual <= FIX_POINT_TOL:  # a NaN residual too
                violations.append(f"declared fixed point {point.tolist()} has residual {residual:.3e}")
                break

    return violations


# once per call, not per iteration: _step turns an overflow into a NumericError
@np.errstate(over="ignore", invalid="ignore")
def step(p: ProblemSpec, n: int, x: np.ndarray):
    """One iteration; returns x_{n+1}.

    beta_n = 0 and alpha_n = 0 short-circuit their convex combinations so the
    algebraic reductions (y_n = x_n, x_{n+1} = P_C[T^n y_n]) hold bit-exactly.
    """
    if _integer(n, "iteration index") < 1:
        raise UsageError("iteration index must be a positive integer")
    alpha, beta = p.schedule.alpha(n), p.schedule.beta(n)
    return _step(p, n, p.C._checked(x), alpha, beta, n)


def _step(p, n, x, alpha, beta, raw_spent) -> np.ndarray:
    """Kernel of :func:`step`; a non-finite point to project is a NumericError.

    ``raw_spent`` is the nominal count of raw T steps, n(n+1)/2 in a solve, that
    FullPower without a closed form has through iteration n, checked against
    POWER_BUDGET; a walk that stops at a bit-exact fixed point counts in full.
    """
    if beta == 0.0:
        y = x
    else:
        y = beta * np.asarray(p.S.evaluate(x), dtype=float) + (1.0 - beta) * x
    full = isinstance(p.mode, FullPower)
    if full and raw_spent > POWER_BUDGET and p.T.meta.closed_form_power is None:
        raise NumericError(
            f"power budget exhausted: {raw_spent} raw evaluations exceed "
            f"{POWER_BUDGET}; supply a closed-form power or lower max_iters"
        )
    z = _power(p.T, n if full else 1, y)
    if alpha == 0.0:
        t = z
    else:
        t = (
            alpha * p.rho * np.asarray(p.V.evaluate(x), dtype=float)
            + z
            - alpha * p.mu * np.asarray(p.F.evaluate(z), dtype=float)
        )
    if t.shape != x.shape or not np.isfinite(t).all():
        raise NumericError(
            f"iteration {n} produced {t.tolist()}, not a finite point of R^{x.size}"
        )
    return p.C._project(t)


def vi_residual(x, p: ProblemSpec) -> float:
    """max(0, max_y <(rho*V - mu*F) x, y - x>) over the rows y of p.fix_points."""
    if p.fix_points is None:
        raise UsageError("vi_residual needs fix_points on the problem")
    return _vi_residual(p.C._checked(x), p)


def _vi_residual(x: np.ndarray, p: ProblemSpec) -> float:
    w = p.rho * np.asarray(p.V.evaluate(x), dtype=float) - p.mu * np.asarray(
        p.F.evaluate(x), dtype=float
    )
    worst = float((p.fix_points @ w).max()) - float(x.dot(w))
    return max(0.0, worst)


@np.errstate(over="ignore", invalid="ignore")  # see step
def solve(
    p: ProblemSpec,
    stop: StopRule = StopRule(),
    collect_timing: bool = False,
    check_valid: bool = True,
) -> SolveReport:
    """Run the iteration until a stop rule fires.

    Exhausting the iteration budget is an outcome (stop reason "budget"),
    not an error.  The run is deterministic for identical inputs.
    """
    if check_valid:
        violations = validate_problem(p)
        if violations:
            raise ProblemDefinitionError("; ".join(violations))

    probed = p.fix_points is not None
    # a residual that a set stop rule reads is computed per iteration; the
    # others are filled in blocks of pending iterates, through the row kernels
    vi_now = stop.tol_vi is not None and probed
    fix_now = stop.tol_fix is not None or vi_now  # the vi rule reads fix_residual too
    x = p.x1
    trace = Trace(
        *(array("d") for _ in range(4)),
        array("d") if probed else None,
        array("d") if p.reference is not None else None,
        array("q") if collect_timing else None,
    )
    # a block holds its iterates and their inner products with the fix points
    floats_per_row = x.size + (len(p.fix_points) if probed else 0)
    pending, block = [], max(1, _BLOCK_FLOATS // floats_per_row)

    def flush():
        X = np.array(pending)
        pending.clear()
        if not fix_now:
            trace.fix_residual.extend(_norms(X - _evaluate_rows(p.T, X)).tolist())
        if probed and not vi_now:
            W = p.rho * _evaluate_rows(p.V, X) - p.mu * _evaluate_rows(p.F, X)
            # the stacked matmul has the bits of fix_points @ w per row; W @ fix_points.T does not
            worst = (p.fix_points @ W[:, :, None])[..., 0].max(axis=1) - np.vecdot(X, W)
            # max(0.0, worst) to the bit, where worst is NaN or -0.0 too
            trace.vi_residual.extend(np.where(worst > 0.0, worst, 0.0).tolist())
        if p.reference is not None:
            trace.dist_to_reference.extend(_norms(X - p.reference).tolist())

    reason = "budget"
    n = 0
    for n in range(1, stop.max_iters + 1):
        t0 = time.perf_counter_ns() if collect_timing else None
        alpha, beta = p.schedule.alpha(n), p.schedule.beta(n)
        # iterations 1..n of FullPower walk n*(n+1)/2 raw steps in all
        x_next = _step(p, n, x, alpha, beta, n * (n + 1) // 2)
        step_norm = _norm(x_next - x)
        if fix_now:
            fix_res = _norm(x_next - np.asarray(p.T.evaluate(x_next), dtype=float))
            trace.fix_residual.append(fix_res)
        if vi_now:
            vi = _vi_residual(x_next, p)
            trace.vi_residual.append(vi)
        if collect_timing:
            trace.elapsed_ns.append(time.perf_counter_ns() - t0)
        trace.alpha.append(alpha)
        trace.beta.append(beta)
        trace.step_norm.append(step_norm)
        pending.append(x_next)
        if len(pending) == block:
            flush()
        x = x_next
        if stop.tol_step is not None and step_norm <= stop.tol_step:
            reason = "step"
            break
        if stop.tol_fix is not None and fix_res <= stop.tol_fix:
            reason = "fix"
            break
        # the VI is posed over Fix(T): its gap proves nothing off a fixed point
        if vi_now and vi <= stop.tol_vi and fix_res <= FIX_POINT_TOL:
            reason = "vi"
            break
    if pending:
        flush()
    return SolveReport(final_x=x, stop_reason=reason, iterations=n, trace=trace)


@dataclass
class RegularityReport:
    """Trend of ||T^n x - T^{n-1} x|| and its ratio to alpha_n per probe."""

    horizon: int
    per_probe: List[dict] = field(default_factory=list)
    passed: bool = True


def check_power_regularity(
    T: MappingHandle,
    s: Schedule,
    probes: List[np.ndarray],
    horizon: int = 10**4,
) -> RegularityReport:
    """Check the asymptotic regularity of powers required of T.

    Both ||T^n x - T^{n-1} x|| and its ratio to alpha_n must pass the schedule
    validator's trend rule at its probes n in {horizon/100, horizon/10,
    horizon}.  A raw T walks once per probe.
    """
    if not T.maps_into_domain:
        raise UsageError("power regularity needs a self-mapping of the domain")
    if _integer(horizon, "horizon") < 2:
        raise UsageError("the regularity horizon must be at least 2")
    if len(probes) == 0:
        raise UsageError("power regularity needs at least one probe point")
    ns = _trend_probes(horizon)
    for n in ns:
        if s.alpha(n) == 0.0:
            raise UsageError(f"alpha({n}) = 0 makes the ratio conditions undefined")
    report = RegularityReport(horizon=horizon)
    for x in probes:
        x = T.domain._checked(x)
        iterates = _powers(T, sorted({m for n in ns for m in (n - 1, n)}), x)
        diffs = [_norm(iterates[n] - iterates[n - 1]) for n in ns]
        ratios = [d / s.alpha(n) for d, n in zip(diffs, ns)]
        ok = _trend_ok(diffs) and _trend_ok(ratios)
        report.per_probe.append(
            {"probe": x.tolist(), "diffs": diffs, "ratios": ratios, "passed": ok}
        )
        report.passed = report.passed and ok
    return report


VARIANTS = ("full_power", "wang_xu", "ceng", "marino_xu", "sahu")


def reduce_variant(p: ProblemSpec, variant: str) -> ProblemSpec:
    """Rewrite a problem into a named classical method configuration.

    full_power: the main scheme (T^n per iteration).
    wang_xu:    apply T once per iteration.
    ceng:       wang_xu with S replaced by the identity.
    marino_xu:  ceng, additionally requiring C to be the whole space.
    sahu:       the mapping sequence T_n = T, which is wang_xu's iteration.
    """
    if variant == "full_power":
        return dataclasses.replace(p, mode=FullPower())
    if variant in ("wang_xu", "sahu"):
        return dataclasses.replace(p, mode=Single())
    if variant == "marino_xu" and not isinstance(p.C, WholeSpace):
        raise UsageError("marino_xu requires C to be the whole space")
    if variant in ("ceng", "marino_xu"):
        return dataclasses.replace(p, mode=Single(), S=identity_map(p.C))
    raise UsageError(f"unknown variant {variant!r}; choose from {VARIANTS}")
