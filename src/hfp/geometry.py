"""Finite-dimensional vectors and exact metric projections onto closed convex sets.

The ambient space is R^d with the standard inner product.  Every set in the
catalog supports an exact (closed-form) projection except ``Intersection``,
which runs Dykstra's alternating projection algorithm to the tolerance
``DYKSTRA_TOL``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MEMBERSHIP_TOL = 1e-9
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_CYCLES = 10**5
FEASIBILITY_TOL = 1e-6  # membership slack of the intersection feasibility probe
SAMPLING_RADIUS = 10.0


class UsageError(ValueError):
    """A caller violated an operation's precondition."""


class ProblemDefinitionError(ValueError):
    """A problem ingredient is geometrically or analytically invalid."""


class NumericError(RuntimeError):
    """A numeric procedure failed to reach its tolerance."""


class DykstraError(NumericError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last cycle change {residual:.3e})")
        self.residual = residual


def vector(coords) -> np.ndarray:
    """Validate and return a finite 1-d float array."""
    v = np.asarray(coords, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size == 0:
        raise UsageError("a vector must be a nonempty 1-d array of reals")
    if not np.all(np.isfinite(v)):
        raise UsageError("vector coordinates must be finite")
    return v


def inner(a, b) -> float:
    """Standard Euclidean inner product."""
    a = vector(a)
    b = vector(b)
    if a.shape != b.shape:
        raise UsageError(f"dimension mismatch: {a.size} vs {b.size}")
    return float(np.dot(a, b))


def norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def _norm(v: np.ndarray) -> float:
    """Kernel of :func:`norm` for a 1-d float array, bit-identical to it."""
    return math.sqrt(float(v.dot(v)))


class ConvexSet:
    """Base for the closed convex set catalog.  Subclasses are immutable.

    The kernels ``_project`` and ``_distance`` take a finite ``(dim,)`` float
    array on trust; ``project``, ``contains`` and :func:`distance` check it.
    """

    dim: int

    def _checked(self, x) -> np.ndarray:
        x = vector(x)
        if x.size != self.dim:
            raise UsageError(
                f"point dimension {x.size} does not match set dimension {self.dim}"
            )
        return x

    def project(self, x) -> np.ndarray:
        return self._project(self._checked(x))

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _distance(self, x: np.ndarray) -> float:
        return _norm(x - self._project(x))

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return distance(self, x) <= tol


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ProblemDefinitionError("dimension must be positive")

    def _project(self, x):
        return x.copy()


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", vector(self.center))
        if not self.radius > 0:
            raise ProblemDefinitionError("ball radius must be positive")

    @property
    def dim(self):
        return self.center.size

    def _project(self, x):
        d = x - self.center
        r = _norm(d)
        if r <= self.radius:
            return x.copy()
        return self.center + d * (self.radius / r)


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", vector(self.lower))
        object.__setattr__(self, "upper", vector(self.upper))
        if self.lower.shape != self.upper.shape:
            raise ProblemDefinitionError("box bounds must share a dimension")
        if np.any(self.lower > self.upper):
            raise ProblemDefinitionError("box requires lower <= upper componentwise")
        with np.errstate(over="ignore"):  # sampling scales by upper - lower
            if not np.isfinite(self.upper - self.lower).all():
                raise ProblemDefinitionError("box is too wide: upper - lower overflows")

    @property
    def dim(self):
        return self.lower.size

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class _Flat(ConvexSet):
    """Base of Halfspace and AffineHyperplane; <normal, normal> is computed once."""

    normal: np.ndarray
    offset: float
    _noun = "flat"  # names the set in the nonzero-normal error

    def __post_init__(self):
        object.__setattr__(self, "normal", vector(self.normal))
        if np.linalg.norm(self.normal) == 0.0:
            raise ProblemDefinitionError(f"{self._noun} normal must be nonzero")
        object.__setattr__(self, "_aa", float(np.dot(self.normal, self.normal)))

    @property
    def dim(self):
        return self.normal.size

    def _onto_plane(self, x, gap: float):
        """Projection onto the hyperplane of ``x``, where gap = <normal, x> - offset."""
        return x - (gap / self._aa) * self.normal


class Halfspace(_Flat):
    """The set {x : <normal, x> <= offset}."""

    _noun = "halfspace"

    def _project(self, x):
        slack = float(self.normal.dot(x)) - self.offset
        if slack <= 0.0:
            return x.copy()
        return self._onto_plane(x, slack)


class AffineHyperplane(_Flat):
    """The set {x : <normal, x> = offset}."""

    _noun = "hyperplane"

    def _project(self, x):
        return self._onto_plane(x, float(self.normal.dot(x)) - self.offset)


@dataclass(frozen=True, eq=False)
class Intersection(ConvexSet):
    """Intersection of catalog sets, projected via Dykstra's algorithm.

    Nonemptiness is caller-asserted; :meth:`feasible_point` probes it.
    """

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ProblemDefinitionError("intersection needs at least one member set")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ProblemDefinitionError("intersection members must share a dimension")

    @property
    def dim(self):
        return self.members[0].dim

    def _project(self, x):
        cur = x.copy()
        increments = [np.zeros_like(x) for _ in self.members]
        for _ in range(DYKSTRA_MAX_CYCLES):
            prev = cur
            for i, member in enumerate(self.members):
                shifted = cur + increments[i]
                cur = member._project(shifted)
                increments[i] = shifted - cur
            change = _norm(cur - prev)
            if change <= DYKSTRA_TOL:
                return cur
        raise DykstraError(
            f"Dykstra did not converge within {DYKSTRA_MAX_CYCLES} cycles", change
        )

    def feasible_point(self) -> np.ndarray:
        """Probe nonemptiness: project the origin and check joint membership."""
        origin = np.zeros(self.dim)
        try:
            candidate = self.project(origin)
        except DykstraError as exc:
            raise ProblemDefinitionError(
                f"intersection feasibility probe failed: {exc}"
            ) from exc
        for member in self.members:
            if not member.contains(candidate, tol=FEASIBILITY_TOL):
                raise ProblemDefinitionError(
                    "intersection feasibility probe failed: probe point is not "
                    "within every member set"
                )
        return candidate


def project(convex_set: ConvexSet, x) -> np.ndarray:
    """The unique nearest point of ``convex_set`` to ``x``."""
    return convex_set.project(x)


def distance(convex_set: ConvexSet, x) -> float:
    """Distance from ``x`` to its projection onto ``convex_set``."""
    return convex_set._distance(convex_set._checked(x))


def _ball_draw(dim: int, rng: np.random.Generator, radius: float) -> np.ndarray:
    direction = rng.standard_normal(dim)
    length = _norm(direction)
    if length == 0.0:
        direction = np.ones(dim)
        length = _norm(direction)
    return direction / length * radius * rng.random() ** (1.0 / dim)


def sample(convex_set: ConvexSet, rng: np.random.Generator) -> np.ndarray:
    """Seeded sample inside a set.

    Boxes and balls are sampled uniformly.  Unbounded variants (and
    intersections) draw from the radius-10 ball about the origin and project
    onto the set, so sampling stays bounded and reproducible.
    """
    if isinstance(convex_set, Box):
        # rng.uniform(lower, upper), draw for draw, without its per-call checks
        lower = convex_set.lower
        return lower + (convex_set.upper - lower) * rng.random(convex_set.dim)
    if isinstance(convex_set, Ball):
        return convex_set.center + _ball_draw(convex_set.dim, rng, convex_set.radius)
    raw = _ball_draw(convex_set.dim, rng, SAMPLING_RADIUS)
    return convex_set._project(raw)


def sample_ambient(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded sample from the radius-10 ball about the origin (not projected)."""
    return _ball_draw(dim, rng, SAMPLING_RADIUS)
