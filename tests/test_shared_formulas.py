"""The projection and closed-form power formulas that several kernels share,
pinned bit for bit against plain references.

Each formula is written once in ``hfp`` (the hyperplane step in the flat
sets, ``M @ x`` and its powers in the matrix fixtures), so any kernel that
reuses it, such as a later row-at-a-time kernel, must keep these answers to
the last bit.
"""
import math

import numpy as np
import pytest

from hfp.fixtures import averaged_rotation, linear_map, proj_affine, rotation
from hfp.geometry import AffineHyperplane, Halfspace, WholeSpace


def plane_step(a, b, x):
    """x - ((a.x - b) / (a.a)) * a, the reference hyperplane projection."""
    return x - ((float(np.dot(a, x)) - b) / float(np.dot(a, a))) * a


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def flat_cases(seed):
    """Seeded (normal, offset, points) with points on both sides of the plane,
    on it, and inside the halfspace."""
    rng = np.random.default_rng(seed)
    for d in (1, 2, 3, 5):
        for _ in range(10):
            a = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
            b = float(rng.uniform(-5.0, 5.0))
            X = rng.standard_normal((20, d)) * 6.0
            on_plane = [plane_step(a, b, x) for x in X[:5]]
            yield a, b, [*X, *on_plane]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_sets_and_proj_affine_match_the_reference(seed):
    inside = 0
    for a, b, points in flat_cases(seed):
        half, plane = Halfspace(a, b), AffineHyperplane(a, b)
        T = proj_affine(WholeSpace(a.size), a, b)
        for x in points:
            expected = plane_step(a, b, x)
            assert np.array_equal(plane._project(x), expected)
            assert np.array_equal(plane.project(x), expected)
            assert np.array_equal(T.evaluate(x), expected)
            assert np.array_equal(T.meta.closed_form_power(3, x), expected)
            if float(np.dot(a, x)) - b <= 0.0:
                inside += 1
                assert np.array_equal(half._project(x), x)
            else:
                assert np.array_equal(half._project(x), expected)
    assert inside > 100  # points inside the halfspace were drawn too


def test_flat_sets_keep_their_public_face():
    half = Halfspace(np.array([1.0, 0.0]), 2.0)
    assert repr(half) == "Halfspace(normal=array([1., 0.]), offset=2.0)"
    assert repr(AffineHyperplane([0.0, 1.0], 1.0)).startswith("AffineHyperplane(normal=")
    assert half.dim == 2 and half.offset == 2.0


def power_points(seed, n_points=5):
    return np.random.default_rng(seed).standard_normal((n_points, 2)) * 3.0


@pytest.mark.parametrize("seed", [0, 1])
def test_matrix_fixtures_match_matrix_power(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((2, 2))
    A = B @ B.T + 0.1 * np.eye(2)
    lam, theta = 0.3, 0.7
    M = (1.0 - lam) * np.eye(2) + lam * rot(theta)
    C = WholeSpace(2)
    for handle, matrix in ((linear_map(C, A), A), (averaged_rotation(C, lam, theta), M)):
        for x in power_points(seed):
            assert np.array_equal(handle.evaluate(x), matrix @ x)
            for n in range(1, 41):
                expected = np.linalg.matrix_power(matrix, n) @ x
                assert np.array_equal(handle.meta.closed_form_power(n, x), expected)


@pytest.mark.parametrize("theta", [math.pi / 4, 0.3])
def test_rotation_closed_form_is_the_exact_rotation(theta):
    T = rotation(WholeSpace(2), theta)
    for x in power_points(7):
        assert np.array_equal(T.evaluate(x), rot(theta) @ x)
        for n in range(1, 201):
            assert np.array_equal(T.meta.closed_form_power(n, x), rot(n * theta) @ x)
