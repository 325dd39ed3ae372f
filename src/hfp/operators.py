"""Evaluatable mappings with declared analytic metadata and numeric certifiers.

A certifier draws seeded random pairs from the mapping's domain and checks a
declared inequality: a Lipschitz bound, strong monotonicity or near
nonexpansiveness.  The two lemma certificates check the first two on the
composed maps mu*F - rho*V and I - lam*mu*F.  A passing certificate is
sampled evidence, not a proof; a failing one always carries a witness pair
that re-violates the inequality, or again gives a non-finite margin, on
direct evaluation.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    MEMBERSHIP_TOL,
    ConvexSet,
    NumericError,
    UsageError,
    _norm,
    _sample_rows,
)

CERT_TOL = 1e-9


@dataclass(frozen=True)
class NearnessSequence:
    """The sequence {a_n} of a nearly nonexpansive mapping.

    ``a`` maps a positive integer index to a nonnegative real; each value is
    checked when it is read.  Whether a_n -> 0 is decided where the theorem
    needs it, by ``validate_schedule``'s check that a_n / alpha_n -> 0.
    """

    a: Callable[[int], float]

    def __call__(self, n: int) -> float:
        value = float(self.a(n))
        if not (value >= 0.0 and math.isfinite(value)):
            raise UsageError(f"a({n}) = {value!r} is not a nonnegative real")
        return value


def zero_sequence() -> NearnessSequence:
    return NearnessSequence(lambda n: 0.0)


@dataclass(frozen=True)
class OperatorMeta:
    """Declared analytic constants of a mapping; certifiers validate them."""

    lipschitz: Optional[float] = None
    strong_monotone: Optional[float] = None
    nearly_seq: Optional[NearnessSequence] = None
    closed_form_power: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    fix_set: Optional[ConvexSet] = None  # Fix(T), as the catalog fixtures declare it

    def __post_init__(self):
        if self.lipschitz is not None and not self.lipschitz >= 0:  # NaN fails it too
            raise UsageError("a Lipschitz constant must be nonnegative")
        if self.strong_monotone is not None:
            if not self.strong_monotone > 0:
                raise UsageError("a strong-monotonicity modulus must be positive")
            if self.lipschitz is None:
                raise UsageError(
                    "strong monotonicity requires a declared Lipschitz constant"
                )
            if self.strong_monotone > self.lipschitz + 1e-12:
                raise UsageError(
                    "modulus exceeds Lipschitz constant (Cauchy-Schwarz forbids it)"
                )


@dataclass(frozen=True)
class MappingHandle:
    """An evaluatable mapping on a convex domain with declared metadata.

    ``evaluate`` must be a deterministic function of its argument's bits: a
    raw walk of :func:`_powers` stops at a bit-exact fixed point, and the
    powers it gives for several n may then be one array object.
    ``rows(n, X)``, when given, is T^n x for each row x of ``X``, to the bits
    of :func:`_power`; it is asked for n > 1 only with a closed-form power.
    Certifiers use it in place of a per-row ``evaluate``.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    domain: ConvexSet
    maps_into_domain: bool
    meta: OperatorMeta = OperatorMeta()
    rows: Optional[Callable[[int, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class Certificate:
    passed: bool
    worst_margin: float
    witness: Optional[tuple]  # ((x coords), (y coords)) at the worst margin
    samples_used: int
    seed: int
    witness_power: Optional[int] = None


def _integer(value, what: str):
    """``value``, if it is an integer; ``what`` names it in the UsageError."""
    if not isinstance(value, numbers.Integral):
        raise UsageError(f"{what} = {value!r} is not an integer")
    return value


def power(T: MappingHandle, n: int, x: np.ndarray) -> np.ndarray:
    """n-th iterate T^n x, via the closed form when the fixture ships one."""
    if _integer(n, "power index") < 1:
        raise UsageError("power index must be a positive integer")
    return _power(T, n, T.domain._checked(x))


def _power(T: MappingHandle, n: int, x: np.ndarray) -> np.ndarray:
    """Kernel of :func:`power`: the closed form, or else a raw walk of :func:`_powers`."""
    cf = T.meta.closed_form_power
    if cf is not None:
        return np.asarray(cf(n, x), dtype=float)
    return _powers(T, (n,), x)[n]


def _powers(T: MappingHandle, ns, x: np.ndarray) -> dict:
    """{n: T^n x} for ascending positive ``ns``: one closed-form call each, or
    one raw walk to max(ns) that tests each iterate of a self-mapping for
    membership.  A non-finite one fails the test without a numpy warning, on
    an ``Intersection`` too, whose ``_distance`` is then NaN at once.

    The walk stops at an iterate with the bytes of the one before it: T fixes
    it to the bit, so it is T^n x for every n still wanted, as one object."""
    if T.meta.closed_form_power is not None:
        return {n: _power(T, n, x) for n in ns}
    kept, wanted = {}, set(ns)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge iterate overflows, inf * 0
        for k in range(1, max(ns) + 1):
            previous, x = x.tobytes(), np.asarray(T.evaluate(x), dtype=float)
            if T.maps_into_domain and not T.domain._distance(x) <= MEMBERSHIP_TOL:
                raise NumericError(f"iterate of {T.name} left its domain at power step {k}")
            if k in wanted:
                kept[k] = x
            if x.tobytes() == previous:  # not ==, which would take -0.0 for +0.0
                return {n: kept.get(n, x) for n in ns}
    return kept


def _sample_pairs(domain: ConvexSet, samples: int, seed: int):
    """``samples`` seeded pairs of distinct points, as two ``(samples, dim)``
    arrays whose rows are the pairs; each y gets 64 tries to differ from x.

    One pass draws the rows x1, y1, x2, y2, ...; when a pair coincides, the
    loop reads on through that stream, so the pairs are still its own."""
    if _integer(samples, "samples") < 2:
        raise UsageError("need at least two samples")
    rng = np.random.default_rng(seed)
    Z = _sample_rows(domain, rng, 2 * samples)
    X, Y = Z[0::2], Z[1::2]
    if (_norms(X - Y) > 0.0).all():
        return X, Y

    def stream():
        yield from Z
        while True:
            yield from _sample_rows(domain, rng, 64)
    rows = stream()
    X, Y = np.empty((2, samples, domain.dim))
    for i in range(samples):
        x = X[i] = next(rows)
        for _ in range(64):
            y = Y[i] = next(rows)
            if _norm(x - y) > 0.0:
                break
        else:
            raise UsageError("degenerate domain: cannot sample two distinct points")
    return X, Y


def _rows(f: Callable, Z: np.ndarray, shape: Optional[tuple] = None) -> np.ndarray:
    """``f`` applied to each row of ``Z``, stacked; each result has ``shape``,
    by default that of a row of ``Z``."""
    item = np.dtype((float, shape or Z.shape[1:]))
    return np.fromiter(map(f, Z), dtype=item, count=len(Z))


def _evaluate_rows(M: MappingHandle, X: np.ndarray) -> np.ndarray:
    """``M.evaluate`` of each row of ``X``, through ``M.rows`` when it has one."""
    return _rows(M.evaluate, X) if M.rows is None else M.rows(1, X)


def _row_map(name: str, domain: ConvexSet, g: Callable) -> MappingHandle:
    """The mapping whose row kernel is ``g``, as a lemma certificate composes it."""
    return MappingHandle(name, lambda x: g(x[None])[0], domain, False, rows=lambda n, X: g(X))


def _norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bit-identical to a per-row ``norm``."""
    return np.sqrt(np.vecdot(D, D))


def _certify(margins: np.ndarray, X: np.ndarray, Y: np.ndarray, seed: int) -> Certificate:
    """The certificate of per-pair margins, shape ``(samples,)`` or
    ``(samples, n_max)``.

    The worst margin is the first non-finite one, which always fails, or else
    the first maximum in row-major order.  Its row is the witness pair and,
    for a 2-d array, its column + 1 the witness power.
    """
    flat = margins.ravel()
    bad = ~np.isfinite(flat)
    i = int(np.argmax(bad)) if bad.any() else int(np.argmax(flat))
    worst = float(flat[i])
    row, col = divmod(i, flat.size // len(X))
    witness = (tuple(X[row].tolist()), tuple(Y[row].tolist()))
    power = col + 1 if margins.ndim == 2 else None
    passed = math.isfinite(worst) and worst <= CERT_TOL
    return Certificate(passed, worst, witness, len(X), seed, power)


def certify_lipschitz(
    M: MappingHandle, claimed: float, samples: int = 10**4, seed: int = 0
) -> Certificate:
    """Check ||Mx - My|| <= claimed * ||x - y|| on seeded pairs.

    ``worst_margin`` is the largest observed violation
    ``||Mx - My|| - claimed * ||x - y||``; the certificate passes when it
    stays at or below 1e-9.
    """
    if claimed < 0:
        raise UsageError("claimed Lipschitz constant must be nonnegative")
    X, Y = _sample_pairs(M.domain, samples, seed)
    D = _evaluate_rows(M, X) - _evaluate_rows(M, Y)
    return _certify(_norms(D) - claimed * _norms(X - Y), X, Y, seed)


def certify_strong_monotone(
    F: MappingHandle, claimed: float, samples: int = 10**4, seed: int = 0
) -> Certificate:
    """Check <Fx - Fy, x - y> >= claimed * ||x - y||^2 on seeded pairs."""
    if claimed <= 0:
        raise UsageError("claimed modulus must be positive")
    X, Y = _sample_pairs(F.domain, samples, seed)
    D = X - Y
    gaps = np.vecdot(_evaluate_rows(F, X) - _evaluate_rows(F, Y), D)
    return _certify(claimed * np.vecdot(D, D) - gaps, X, Y, seed)


def certify_nearly_nonexpansive(
    T: MappingHandle,
    seq: NearnessSequence,
    n_max: int,
    samples: int = 10**4,
    seed: int = 0,
) -> Certificate:
    """Check ||T^n x - T^n y|| <= ||x - y|| + a_n for n = 1..n_max."""
    if not T.maps_into_domain:
        raise UsageError("near-nonexpansiveness needs a self-mapping of the domain")
    if _integer(n_max, "n_max") < 1:
        raise UsageError("n_max must be at least 1")
    X, Y = _sample_pairs(T.domain, samples, seed)
    ns = range(1, n_max + 1)

    def powers(Z):  # (samples, n_max, dim): T^n z for each row z and n = 1..n_max
        if T.rows is not None and T.meta.closed_form_power is not None:
            return np.stack([T.rows(n, Z) for n in ns], axis=1)
        return _rows(lambda z: list(_powers(T, ns, z).values()), Z, (n_max, Z.shape[1]))

    D = powers(X) - powers(Y)
    margins = _norms(D) - _norms(X - Y)[:, None] - np.array([seq(n) for n in ns])
    return _certify(margins, X, Y, seed)


def certify_combined_monotone(
    F: MappingHandle,
    V: MappingHandle,
    rho: float,
    mu: float,
    samples: int = 10**4,
    seed: int = 0,
) -> Certificate:
    """Check that mu*F - rho*V is (mu*eta - rho*gamma)-strongly monotone."""
    eta = F.meta.strong_monotone
    gamma = V.meta.lipschitz
    if eta is None or F.meta.lipschitz is None:
        raise UsageError("F must declare Lipschitz and strong-monotonicity constants")
    if gamma is None:
        raise UsageError("V must declare a Lipschitz constant")
    if not 0 <= rho * gamma < mu * eta:
        raise UsageError("need 0 <= rho*gamma < mu*eta for a positive modulus")
    G = _row_map(f"{mu}*{F.name} - {rho}*{V.name}", F.domain,
                 lambda X: mu * _evaluate_rows(F, X) - rho * _evaluate_rows(V, X))
    return certify_strong_monotone(G, mu * eta - rho * gamma, samples, seed)


def _lip_squared_terms(mu: float, eta: float, lip: float) -> tuple:
    """(2*eta/L^2, mu*L^2) for L = ``lip`` > 0.  Where ``lip**2`` overflows
    or underflows to 0, they are 2*(eta/L)/L and mu*L*L, which cannot raise;
    elsewhere ``lip**2`` keeps their bits, which ``lip*lip`` does not always."""
    try:
        return 2 * eta / lip**2, mu * lip**2
    except (OverflowError, ZeroDivisionError):
        return 2 * (eta / lip) / lip, mu * lip * lip


def nu_constant(mu: float, eta: float, lip: float) -> float:
    """The contraction modulus nu = 1 - sqrt(1 - mu*(2*eta - mu*L^2))."""
    if eta <= 0 or lip <= 0:
        raise UsageError("eta and L must be positive")
    bound, mu_lip_squared = _lip_squared_terms(mu, eta, lip)
    if not 0 < mu < bound:
        raise UsageError(f"mu must lie in (0, {bound}), got {mu}")
    radicand = 1.0 - mu * (2.0 * eta - mu_lip_squared)
    # roundoff can push the radicand a hair below zero at mu = eta / L^2
    radicand = max(radicand, 0.0)
    return 1.0 - math.sqrt(radicand)


def certify_yamada_contraction(
    F: MappingHandle,
    lam: float,
    mu: float,
    samples: int = 10**4,
    seed: int = 0,
) -> Certificate:
    """Check ||Gx - Gy|| <= (1 - lam*nu) * ||x - y|| for G = I - lam*mu*F."""
    eta = F.meta.strong_monotone
    lip = F.meta.lipschitz
    if eta is None or lip is None:
        raise UsageError("F must declare Lipschitz and strong-monotonicity constants")
    if not 0 < lam < 1:
        raise UsageError("lambda must lie strictly inside (0, 1)")
    G = _row_map(f"I - {lam * mu}*{F.name}", F.domain, lambda X: X - lam * mu * _evaluate_rows(F, X))
    return certify_lipschitz(G, 1.0 - lam * nu_constant(mu, eta, lip), samples, seed)
