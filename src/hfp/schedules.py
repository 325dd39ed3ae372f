"""Parameter sequences {alpha_n}, {beta_n} and the step-size conditions.

Every schedule is the power family alpha_n = alpha0 * n^(-p), beta_n =
beta0 * n^(-q), so the theorem's conditions on it are decided exactly:
alpha_n -> 0 and |alpha_n - alpha_{n-1}| / alpha_n -> 0 hold for every p > 0,
sum alpha_n = inf iff p <= 1, and both beta_n / alpha_n -> 0 and
|beta_n - beta_{n-1}| / alpha_n ~ n^(p-q-1) -> 0 hold when beta0 = 0 or
q > p.  Only a_n / alpha_n -> 0 depends on a declared nearness sequence; it
is checked as a trend at a finite horizon, a documented heuristic, not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .geometry import UsageError
from .operators import NearnessSequence, zero_sequence

TREND_TOL = 0.05
SCHEDULE_HORIZON = 10**6


@dataclass(frozen=True)
class Schedule:
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
        if not (self.p > 0 and self.q > 0):
            raise UsageError("decay exponents must be positive")

    def alpha(self, n: int) -> float:
        return self.alpha0 * float(n) ** -self.p

    def beta(self, n: int) -> float:
        return self.beta0 * float(n) ** -self.q


power_schedule = Schedule


def _trend_probes(horizon: int) -> List[int]:
    """Probes n = horizon/100, horizon/10, horizon, each >= 2 so that n - 1 >= 1."""
    return [max(horizon // 100, 2), max(horizon // 10, 2), horizon]


def _trend_ok(values: List[float]) -> bool:
    """A vanishing limit's values at the probes: nonincreasing, last below TREND_TOL."""
    v1, v2, v3 = values
    return v3 < TREND_TOL and v1 >= v2 >= v3


def validate_schedule(s: Schedule, a_seq: Optional[NearnessSequence] = None) -> List[str]:
    """The convergence-theorem conditions on {alpha_n}, {beta_n} that fail.

    The conditions on alpha and beta are decided exactly (see the module
    docstring).  a_n / alpha_n -> 0 is a trend at n in {SCHEDULE_HORIZON/100,
    SCHEDULE_HORIZON/10, SCHEDULE_HORIZON}: it passes iff the horizon value is
    below ``TREND_TOL`` and the three values are nonincreasing; ``a_seq``
    defaults to a_n = 0.  As alpha_n <= 1, it also decides a_n -> 0.
    """
    a = a_seq if a_seq is not None else zero_sequence()
    ratios = []
    for n in _trend_probes(SCHEDULE_HORIZON):
        alpha = s.alpha(n)
        if alpha == 0.0:
            raise UsageError(f"alpha({n}) = 0 makes the ratio conditions undefined")
        ratios.append(a(n) / alpha)
    failures = []
    if s.p > 1.0:
        failures.append("sum of alpha diverges fails (p > 1)")
    if not _trend_ok(ratios):
        failures.append(f"a_over_alpha trend check fails (value {ratios[-1]:.3g} at horizon)")
    if s.beta0 > 0 and not s.q > s.p:
        failures.append("beta_n / alpha_n -> 0 fails (beta0 > 0 and q <= p)")
    return failures


def _values(seq, N: int) -> np.ndarray:
    """Materialize alpha/beta inputs as an array: a callable on n >= 1, or an
    indexable sequence whose element i holds the value for n = i + 1.
    Fractions and other non-float values give an object array."""
    values = np.asarray([seq(n) for n in range(1, N + 1)] if callable(seq) else seq[:N])
    if len(values) < N:
        raise UsageError(f"sequence has {len(values)} entries, need {N}")
    return values


def scalar_recursion(x1, alpha, beta, N: int):
    """Iterate x_{n+1} = (1 - alpha_n) * x_n + alpha_n * beta_n.

    Returns ``(x_{N+1}, trajectory)``, the trajectory holding x_1 .. x_{N+1}.
    A ``fractions.Fraction`` in ``x1`` or in any value runs the sequential
    loop, exact on Fractions, and the trajectory is a list.  Otherwise the
    affine maps x -> (1 - alpha_n) x + alpha_n beta_n are composed by a
    float64 doubling scan (Blelloch 1990), equal to the loop up to rounding,
    and the trajectory is a float64 array.
    """
    if not x1 >= 0:  # False at NaN
        raise UsageError("x1 must be nonnegative")
    if N < 0:
        raise UsageError("N must be nonnegative")
    a, b = _values(alpha, N), _values(beta, N)
    inside = (a >= 0) & (a <= 1)  # False at NaN
    if not inside.all():
        raise UsageError(f"alpha value {a[inside.argmin()]} is outside [0, 1]")
    if object in (np.asarray(x1).dtype, a.dtype, b.dtype):
        trajectory = [x1] * (N + 1)  # preallocated: appends copy the list on some reallocs
        for n, an, bn in zip(range(1, N + 1), a.tolist(), b.tolist()):
            trajectory[n] = (1 - an) * trajectory[n - 1] + an * bn
        return trajectory[-1], trajectory
    trajectory = np.empty(N + 1)
    trajectory[0] = x1
    A, B = 1.0 - a, np.multiply(a, b, out=trajectory[1:])
    k = 1
    while k < N:  # (A_i, B_i): maps i-k+1 .. i composed; each pass doubles k
        B[k:] += A[k:] * B[:-k]
        A[k:] *= A[:-k]
        k *= 2
    B += A * x1
    return float(trajectory[-1]), trajectory
