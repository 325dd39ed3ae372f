"""Evaluatable mappings with declared analytic metadata and numeric certifiers.

A certifier draws seeded random pairs from the mapping's domain and checks a
declared inequality (Lipschitz bound, strong monotonicity, near
nonexpansiveness, combined-operator monotonicity, contraction factor).  A
passing certificate is sampled evidence, not a proof; a failing one always
carries a witness pair that re-violates the inequality, or again gives a
non-finite margin, on direct evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    MEMBERSHIP_TOL,
    ConvexSet,
    NumericError,
    UsageError,
    _norm,
    sample,
)

CERT_TOL = 1e-9

# probe indices for "a_n -> 0" checks on a nearness sequence
_TAIL_PROBES = (10**6, 2 * 10**6, 10**7)


@dataclass(frozen=True)
class NearnessSequence:
    """The sequence {a_n} of a nearly nonexpansive mapping.

    ``a`` maps a positive integer index to a nonnegative real.  Construction
    probes the declared decay: values below 1e-6 from index 1e6 on, and
    nonincreasing on the geometric grid 4^k, k = 0..12.
    """

    a: Callable[[int], float]

    def __post_init__(self):
        previous = None
        for n in [4**k for k in range(13)]:
            value = float(self.a(n))
            if not (value >= 0.0 and math.isfinite(value)):
                raise UsageError(f"a({n}) = {value!r} is not a nonnegative real")
            if previous is not None and value > previous:
                raise UsageError(
                    f"nearness sequence increases between probes ending at n={n}"
                )
            previous = value
        for n in _TAIL_PROBES:
            if float(self.a(n)) >= 1e-6:
                raise UsageError(f"a({n}) has not decayed below 1e-6")

    def __call__(self, n: int) -> float:
        return float(self.a(n))


def zero_sequence() -> NearnessSequence:
    return NearnessSequence(lambda n: 0.0)


@dataclass(frozen=True)
class OperatorMeta:
    """Declared analytic constants of a mapping; certifiers validate them."""

    lipschitz: Optional[float] = None
    strong_monotone: Optional[float] = None
    nearly_seq: Optional[NearnessSequence] = None
    closed_form_power: Optional[Callable[[int, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.lipschitz is not None and self.lipschitz < 0:
            raise UsageError("a Lipschitz constant must be nonnegative")
        if self.strong_monotone is not None:
            if self.strong_monotone <= 0:
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
    """An evaluatable mapping on a convex domain with declared metadata."""

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    domain: ConvexSet
    maps_into_domain: bool
    meta: OperatorMeta = OperatorMeta()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)


@dataclass(frozen=True)
class Certificate:
    passed: bool
    worst_margin: float
    witness: Optional[tuple]  # ((x coords), (y coords)) at the worst margin
    samples_used: int
    seed: int
    witness_power: Optional[int] = None


def power(T: MappingHandle, n: int, x: np.ndarray) -> np.ndarray:
    """n-th iterate T^n x, via the closed form when the fixture ships one."""
    if n < 1:
        raise UsageError("power index must be a positive integer")
    return _power(T, n, T.domain._checked(x))


def _power(T: MappingHandle, n: int, x: np.ndarray, start: int = 0) -> np.ndarray:
    """Kernel of :func:`power`.  Raw iterates of a self-mapping are tested
    for membership after every step; a non-finite one fails the test.  Its
    error counts steps from ``start + 1``, for a walk resumed at T^start x."""
    cf = T.meta.closed_form_power
    if cf is not None:
        return np.asarray(cf(n, x), dtype=float)
    y = x
    for k in range(start + 1, start + n + 1):
        y = np.asarray(T.evaluate(y), dtype=float)
        if T.maps_into_domain and not T.domain._distance(y) <= MEMBERSHIP_TOL:
            raise NumericError(
                f"iterate of {T.name} left its domain at power step {k}"
            )
    return y


def _powers(T: MappingHandle, ns, x: np.ndarray) -> dict:
    """{n: T^n x} for ascending positive ``ns``: one closed-form call each, or
    one raw walk to max(ns) that matches separate :func:`_power` calls."""
    if T.meta.closed_form_power is not None:
        return {n: _power(T, n, x) for n in ns}
    kept, done = {}, 0
    for n in ns:
        x = kept[n] = _power(T, n - done, x, done)
        done = n
    return kept


def _sample_pairs(domain: ConvexSet, samples: int, seed: int):
    """``samples`` seeded pairs of distinct points, as two ``(samples, dim)``
    arrays whose rows are the pairs; each y gets 64 tries to differ from x."""
    if samples < 2:
        raise UsageError("need at least two samples")
    rng = np.random.default_rng(seed)
    X, Y = np.empty((2, samples, domain.dim))
    for i in range(samples):
        x = X[i] = sample(domain, rng)
        for _ in range(64):
            y = Y[i] = sample(domain, rng)
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
    D = _rows(M.evaluate, X) - _rows(M.evaluate, Y)
    return _certify(_norms(D) - claimed * _norms(X - Y), X, Y, seed)


def certify_strong_monotone(
    F: MappingHandle, claimed: float, samples: int = 10**4, seed: int = 0
) -> Certificate:
    """Check <Fx - Fy, x - y> >= claimed * ||x - y||^2 on seeded pairs."""
    if claimed <= 0:
        raise UsageError("claimed modulus must be positive")
    X, Y = _sample_pairs(F.domain, samples, seed)
    D = X - Y
    gaps = np.vecdot(_rows(F.evaluate, X) - _rows(F.evaluate, Y), D)
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
    if n_max < 1:
        raise UsageError("n_max must be at least 1")
    X, Y = _sample_pairs(T.domain, samples, seed)
    ns = range(1, n_max + 1)

    def powers(Z):  # (samples, n_max, dim): T^n z for each row z and n = 1..n_max
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
    modulus = mu * eta - rho * gamma
    X, Y = _sample_pairs(F.domain, samples, seed)
    D = X - Y

    def g(Z):
        return mu * _rows(F.evaluate, Z) - rho * _rows(V.evaluate, Z)

    margins = modulus * np.vecdot(D, D) - np.vecdot(g(X) - g(Y), D)
    return _certify(margins, X, Y, seed)


def nu_constant(mu: float, eta: float, lip: float) -> float:
    """The contraction modulus nu = 1 - sqrt(1 - mu*(2*eta - mu*L^2))."""
    if eta <= 0 or lip <= 0:
        raise UsageError("eta and L must be positive")
    if not 0 < mu < 2 * eta / lip**2:
        raise UsageError(f"mu must lie in (0, {2 * eta / lip**2}), got {mu}")
    radicand = 1.0 - mu * (2.0 * eta - mu * lip**2)
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
    factor = 1.0 - lam * nu_constant(mu, eta, lip)
    X, Y = _sample_pairs(F.domain, samples, seed)
    GX = X - lam * mu * _rows(F.evaluate, X)
    GY = Y - lam * mu * _rows(F.evaluate, Y)
    return _certify(_norms(GX - GY) - factor * _norms(X - Y), X, Y, seed)
