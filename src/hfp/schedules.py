"""Parameter sequences {alpha_n}, {beta_n} and their asymptotic checks.

Divergence of the alpha series is decided symbolically for the power family
alpha_n = alpha0 * n^(-p) only; other schedules report "unknown".  The limit
conditions are checked as trends at a finite horizon, which is a documented
heuristic, not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .geometry import UsageError
from .operators import NearnessSequence, zero_sequence

TREND_TOL = 0.05


@dataclass(frozen=True)
class PowerFamily:
    """alpha_n = alpha0 * n^(-p), beta_n = beta0 * n^(-q)."""

    alpha0: float
    p: float
    beta0: float
    q: float

    def __post_init__(self):
        if not 0 < self.alpha0 <= 1:
            raise UsageError("alpha0 must lie in (0, 1]")
        if not 0 <= self.beta0 <= 1:
            raise UsageError("beta0 must lie in [0, 1]")
        if self.p <= 0 or self.q <= 0:
            raise UsageError("decay exponents must be positive")

    def alpha(self, n: int) -> float:
        return self.alpha0 * float(n) ** -self.p

    def beta(self, n: int) -> float:
        return self.beta0 * float(n) ** -self.q

    def alpha_array(self, N: int) -> np.ndarray:
        return self.alpha0 * np.arange(1, N + 1, dtype=float) ** -self.p

    def beta_array(self, N: int) -> np.ndarray:
        return self.beta0 * np.arange(1, N + 1, dtype=float) ** -self.q


@dataclass(frozen=True)
class Schedule:
    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    family: Optional[PowerFamily] = None


def power_schedule(alpha0: float, p: float, beta0: float, q: float) -> Schedule:
    family = PowerFamily(alpha0, p, beta0, q)
    return Schedule(alpha=family.alpha, beta=family.beta, family=family)


@dataclass
class ScheduleReport:
    structural_divergence: str  # "pass" | "fail" | "unknown"
    numeric_checks: Dict[str, Tuple[float, bool]]  # name -> (value at horizon, ok)
    horizon: int
    warnings: List[str] = field(default_factory=list)

    def failures(self) -> List[str]:
        out = []
        if self.structural_divergence == "fail":
            out.append("sum of alpha diverges fails (p > 1)")
        for name, (value, ok) in self.numeric_checks.items():
            if not ok:
                out.append(f"{name} trend check fails (value {value:.3g} at horizon)")
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()


def _trend_probes(horizon: int) -> List[int]:
    """Probes n = horizon/100, horizon/10, horizon, each >= 2 so that n - 1 >= 1."""
    return [max(horizon // 100, 2), max(horizon // 10, 2), horizon]


def _trend_ok(values: List[float]) -> bool:
    """A vanishing limit's values at the probes: nonincreasing, last below TREND_TOL."""
    v1, v2, v3 = values
    return v3 < TREND_TOL and v1 >= v2 >= v3


def validate_schedule(
    s: Schedule, a_seq: Optional[NearnessSequence] = None, horizon: int = 10**6
) -> ScheduleReport:
    """Check the convergence-theorem conditions on {alpha_n}, {beta_n}.

    Each limit condition is evaluated at n in {horizon/100, horizon/10,
    horizon} and passes iff the horizon value is below ``TREND_TOL`` and the
    three probes are nonincreasing; ``a_seq`` defaults to a_n = 0.
    ``beta_n > alpha_n`` at a probe emits a warning, not a failure.
    """
    if horizon < 10**3:
        raise UsageError("horizon must be at least 1000")
    a = a_seq if a_seq is not None else zero_sequence()
    probes = _trend_probes(horizon)

    alpha_vals, beta_vals = [], []
    for n in probes:
        av, bv = float(s.alpha(n)), float(s.beta(n))
        if av == 0.0:
            raise UsageError(f"alpha({n}) = 0 makes the ratio conditions undefined")
        if not 0.0 < av <= 1.0:
            raise UsageError(f"alpha({n}) = {av} is outside (0, 1]")
        if not 0.0 <= bv <= 1.0:
            raise UsageError(f"beta({n}) = {bv} is outside [0, 1]")
        alpha_vals.append(av)
        beta_vals.append(bv)

    if s.family is None:
        structural = "unknown"
    else:
        structural = "pass" if s.family.p <= 1.0 else "fail"

    checks = {
        "alpha_to_zero": alpha_vals,
        "a_over_alpha": [a(n) / av for n, av in zip(probes, alpha_vals)],
        "beta_over_alpha": [bv / av for av, bv in zip(alpha_vals, beta_vals)],
        "alpha_increment_over_alpha": [
            abs(av - float(s.alpha(n - 1))) / av for n, av in zip(probes, alpha_vals)
        ],
        "beta_increment_over_alpha": [
            abs(bv - float(s.beta(n - 1))) / av
            for n, av, bv in zip(probes, alpha_vals, beta_vals)
        ],
    }
    numeric = {
        name: (values[-1], _trend_ok(values)) for name, values in checks.items()
    }

    warnings = []
    for n, av, bv in zip(probes, alpha_vals, beta_vals):
        if bv > av:
            warnings.append(f"beta({n}) > alpha({n}); the proof assumes beta <= alpha")
            break

    return ScheduleReport(structural, numeric, horizon, warnings)


def _values(seq, N: int) -> list:
    """Materialize alpha/beta inputs: a callable on n >= 1, or an indexable
    sequence whose element i holds the value for n = i + 1."""
    if callable(seq):
        return [seq(n) for n in range(1, N + 1)]
    if isinstance(seq, np.ndarray):
        values = seq[:N].tolist()
    else:
        values = list(seq[:N])
    if len(values) < N:
        raise UsageError(f"sequence has {len(values)} entries, need {N}")
    return values


def scalar_recursion(x1, alpha, beta, N: int):
    """Iterate x_{n+1} = (1 - alpha_n) * x_n + alpha_n * beta_n exactly.

    Arithmetic is duck-typed: floats run fast, ``fractions.Fraction`` inputs
    give exact rational results.  Returns ``(x_{N+1}, trajectory)`` with the
    trajectory holding x_1 .. x_{N+1}.
    """
    if x1 < 0:
        raise UsageError("x1 must be nonnegative")
    if N < 0:
        raise UsageError("N must be nonnegative")
    avals = _values(alpha, N)
    bvals = _values(beta, N)
    x = x1
    # preallocated: growing the list by appends copies it on some reallocs
    trajectory = [x] * (N + 1)
    for n, a, b in zip(range(1, N + 1), avals, bvals):
        if not 0 <= a <= 1:
            raise UsageError(f"alpha value {a} is outside [0, 1]")
        x = (1 - a) * x + a * b
        trajectory[n] = x
    return x, trajectory
