"""Shipped test mappings with honest declared metadata.

Every fixture's declared constants are validated by the certifiers in the
test suite.  ``sahu_step`` is discontinuous (hence not demicontinuous); it is
kept as an experimental fixture because its fixed-point set is a singleton
and convergence toward it is empirically checkable.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import AffineHyperplane, Ball, Box, ConvexSet, ProblemDefinitionError, vector
from .operators import MappingHandle, NearnessSequence, OperatorMeta, zero_sequence


def identity_map(domain: ConvexSet) -> MappingHandle:
    return MappingHandle(
        name="identity",
        evaluate=lambda x: np.asarray(x, dtype=float).copy(),
        domain=domain,
        maps_into_domain=True,
        meta=OperatorMeta(
            lipschitz=1.0,
            strong_monotone=1.0,
            nearly_seq=zero_sequence(),
            closed_form_power=lambda n, x: np.asarray(x, dtype=float).copy(),
        ),
    )


def zero_map(domain: ConvexSet) -> MappingHandle:
    return MappingHandle(
        name="zero",
        evaluate=lambda x: np.zeros(domain.dim),
        domain=domain,
        maps_into_domain=domain.contains(np.zeros(domain.dim)),
        meta=OperatorMeta(lipschitz=0.0),
    )


def constant_map(domain: ConvexSet, value) -> MappingHandle:
    c = vector(value)
    return MappingHandle(
        name="constant",
        evaluate=lambda x: c.copy(),
        domain=domain,
        maps_into_domain=domain.contains(c),
        meta=OperatorMeta(lipschitz=0.0, closed_form_power=lambda n, x: c.copy()),
    )


def contraction(domain: ConvexSet, k: float) -> MappingHandle:
    """x -> k*x; for 0 < k < 1 a contraction fixing the origin."""
    if not 0 <= k:
        raise ProblemDefinitionError("scaling factor must be nonnegative")
    return MappingHandle(
        name=f"contraction({k})",
        evaluate=lambda x: k * np.asarray(x, dtype=float),
        domain=domain,
        # for k < 1, k^n x -> 0, so k*x maps a closed convex C into itself
        # exactly when 0 is in C (then k*x = k*x + (1-k)*0 stays in C)
        maps_into_domain=k == 1.0 or (k < 1.0 and domain.contains(np.zeros(domain.dim))),
        meta=OperatorMeta(
            lipschitz=k,
            strong_monotone=k if k > 0 else None,
            closed_form_power=lambda n, x: k**n * np.asarray(x, dtype=float),
        ),
    )


def _matrix_map(name, domain, M, maps_into_domain, power=None, **meta) -> MappingHandle:
    """x -> M x, whose closed form is T^n x = power(n) @ x, by default M^n x."""
    if power is None:
        power = lambda n: np.linalg.matrix_power(M, n)
    return MappingHandle(
        name=name,
        evaluate=lambda x: M @ np.asarray(x, dtype=float),
        domain=domain,
        maps_into_domain=maps_into_domain,
        meta=OperatorMeta(
            closed_form_power=lambda n, x: power(n) @ np.asarray(x, dtype=float),
            **meta,
        ),
    )


def linear_map(domain: ConvexSet, matrix) -> MappingHandle:
    """F x = A x for symmetric A; eta/L are the extreme eigenvalues."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != domain.dim:
        raise ProblemDefinitionError("matrix must be square and match the domain")
    if not np.allclose(A, A.T):
        raise ProblemDefinitionError("linear fixture requires a symmetric matrix")
    eigs = np.linalg.eigvalsh(A)
    smallest, largest = float(eigs[0]), float(eigs[-1])
    if largest <= 0:
        raise ProblemDefinitionError("linear fixture requires a positive top eigenvalue")
    strong = smallest if smallest > 0 else None
    lip = max(abs(smallest), largest)
    return _matrix_map("linear", domain, A, False, lipschitz=lip, strong_monotone=strong)


def proj_affine(domain: ConvexSet, normal, offset: float) -> MappingHandle:
    """T = metric projection onto the hyperplane <normal, x> = offset.

    Idempotent and nonexpansive; its fixed-point set is the hyperplane.
    """
    a = vector(normal)
    if a.size != domain.dim:
        raise ProblemDefinitionError("hyperplane normal must match the domain")
    plane = AffineHyperplane(a, offset)

    def evaluate(x):
        return plane._project(np.asarray(x, dtype=float))

    return MappingHandle(
        name="proj_affine",
        evaluate=evaluate,
        domain=domain,
        maps_into_domain=True,
        meta=OperatorMeta(
            lipschitz=1.0,
            nearly_seq=zero_sequence(),
            closed_form_power=lambda n, x: evaluate(x),
        ),
    )


def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation(domain: ConvexSet, theta: float) -> MappingHandle:
    """Planar rotation about the origin: an isometry with Fix = {0}.

    Negative fixture: for theta != 0 the chord ||T^n x - T^{n-1} x|| is a
    nonzero constant, so the power-regularity requirement fails.
    """
    if domain.dim != 2:
        raise ProblemDefinitionError("rotation is a planar fixture (dim 2)")
    return _matrix_map(
        f"rotation({theta})", domain, _rotation_matrix(theta), True,
        # R(n*theta) itself: matrix_power(R, n) differs from it in the last place
        power=lambda n: _rotation_matrix(n * theta),
        lipschitz=1.0, nearly_seq=zero_sequence(),
    )


def averaged_rotation(domain: ConvexSet, lam: float, theta: float) -> MappingHandle:
    """T = (1-lam)I + lam*R_theta: a linear contraction-like average.

    Spectral radius below 1 for lam in (0,1) and theta != 0, so powers decay
    geometrically and the power-regularity requirement holds.
    """
    if domain.dim != 2:
        raise ProblemDefinitionError("averaged_rotation is a planar fixture (dim 2)")
    if not 0 < lam < 1:
        raise ProblemDefinitionError("averaging weight must lie in (0, 1)")
    M = (1.0 - lam) * np.eye(2) + lam * _rotation_matrix(theta)
    operator_norm = abs(complex(1.0 - lam + lam * math.cos(theta), lam * math.sin(theta)))
    return _matrix_map(
        f"averaged_rotation({lam},{theta})", domain, M, True,
        lipschitz=operator_norm, nearly_seq=zero_sequence(),
    )


def sahu_step() -> MappingHandle:
    """Step map on [0,1]: x -> 0.5 on [0, 0.5], x -> 0 on (0.5, 1].

    Discontinuous, nearly nonexpansive with a_1 = 0.5 and a_n = 0 after,
    Fix(T) = {0.5}, and T^n is constant 0.5 for n >= 2.
    """
    domain = Box(np.array([0.0]), np.array([1.0]))

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.array([0.5]) if x[0] <= 0.5 else np.array([0.0])

    def closed_form(n, x):
        return evaluate(x) if n == 1 else np.array([0.5])

    return MappingHandle(
        name="sahu_step",
        evaluate=evaluate,
        domain=domain,
        maps_into_domain=True,
        meta=OperatorMeta(
            nearly_seq=sahu_sequence(0.5),
            closed_form_power=closed_form,
        ),
    )


def sahu_sequence(a1: float) -> NearnessSequence:
    """Nearness sequence (a1, 0, 0, ...) used by the step-map fixture."""
    return NearnessSequence(lambda n: a1 if n == 1 else 0.0)


def default_test_domain() -> ConvexSet:
    return Ball(np.zeros(2), 10.0)
