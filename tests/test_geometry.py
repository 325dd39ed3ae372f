import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfp import geometry
from hfp.geometry import (
    AffineHyperplane,
    Ball,
    Box,
    DykstraError,
    Halfspace,
    Intersection,
    ProblemDefinitionError,
    UsageError,
    WholeSpace,
    distance,
    norm,
    project,
    sample,
    vector,
)
from conftest import SET_KINDS, random_set


class TestVector:
    def test_nonfinite_rejected(self):
        with pytest.raises(UsageError):
            vector([1.0, float("nan")])
        with pytest.raises(UsageError):
            vector([float("inf")])


class TestClosedForms:
    def test_ball_radial_scaling(self):
        ball = Ball(np.zeros(2), 1.0)
        assert np.allclose(project(ball, (2, 0)), (1, 0))

    def test_box_clamp(self):
        box = Box(np.zeros(2), np.ones(2))
        assert np.allclose(project(box, (2, -1)), (1, 0))

    def test_hyperplane_symmetry(self):
        line = AffineHyperplane(np.array([1.0, 1.0]), 2.0)
        assert np.allclose(project(line, (0, 0)), (1, 1))

    def test_halfspace(self):
        hs = Halfspace(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(project(hs, (3, 2)), (1, 2))
        assert np.allclose(project(hs, (0, 2)), (0, 2))

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_point_in_set_is_fixed(self, kind):
        rng = np.random.default_rng(7)
        s = random_set(kind, rng)
        p = sample(s, rng)
        tol = 1e-9 if kind == "intersection" else 1e-12
        assert norm(project(s, p) - p) <= tol

    def test_distance_examples(self):
        assert distance(Ball(np.zeros(2), 1.0), (2, 0)) == pytest.approx(1.0)
        assert distance(Box(np.zeros(2), np.ones(2)), (0.5, 0.5)) == 0.0
        line = AffineHyperplane(np.array([1.0, 1.0]), 2.0)
        assert distance(line, (0, 0)) == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("kind", SET_KINDS)
def test_projection_characterization_and_nonexpansiveness(kind):
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = random_set(kind, rng)
        x = sample(WholeSpace(s.dim), rng)
        x2 = sample(WholeSpace(s.dim), rng)
        y = sample(s, rng)
        px = project(s, x)
        px2 = project(s, x2)
        assert float(np.dot(x - px, y - px)) <= 1e-9
        assert norm(px - px2) <= norm(x - x2) + 1e-12
        # idempotence
        cap = 1e-9 if kind == "intersection" else 1e-12
        assert norm(project(s, px) - px) <= cap


@settings(max_examples=100, deadline=None)
@given(
    coords=st.lists(st.floats(-100, 100), min_size=2, max_size=2),
    radius=st.floats(0.1, 50),
)
def test_ball_projection_is_in_ball(coords, radius):
    ball = Ball(np.zeros(2), radius)
    p = project(ball, coords)
    assert norm(p) <= radius + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_hyperplane_projection_lands_on_plane(coords):
    plane = AffineHyperplane(np.array([1.0, -2.0, 0.5]), 3.0)
    p = project(plane, coords)
    assert float(np.dot(plane.normal, p)) == pytest.approx(3.0, abs=1e-6)


class TestDykstra:
    def test_agreement_with_single_set(self):
        # the ball's own projection already satisfies the halfspace
        inter = Intersection((Ball(np.zeros(2), 1.0), Halfspace(np.array([1.0, 0.0]), 2.0)))
        got = project(inter, (3, 0))
        assert np.allclose(got, (1, 0), atol=1e-9)

    def test_agreement_other_order(self):
        inter = Intersection((Halfspace(np.array([1.0, 0.0]), 1.0), Ball(np.zeros(2), 5.0)))
        got = project(inter, (3, 0))
        assert np.allclose(got, (1, 0), atol=1e-9)

    def test_binding_pair(self):
        # both constraints active: quarter-plane style intersection
        inter = Intersection(
            (
                Halfspace(np.array([1.0, 0.0]), 0.0),
                Halfspace(np.array([0.0, 1.0]), 0.0),
            )
        )
        got = project(inter, (2, 3))
        assert np.allclose(got, (0, 0), atol=1e-8)

    def test_infeasible_probe(self):
        inter = Intersection(
            (Ball(np.zeros(1), 1.0), Halfspace(np.array([-1.0]), -3.0))
        )
        with pytest.raises(ProblemDefinitionError):
            inter.feasible_point()

    def test_feasible_probe(self):
        inter = Intersection(
            (Ball(np.zeros(2), 2.0), Halfspace(np.array([1.0, 0.0]), 1.0))
        )
        p = inter.feasible_point()
        for member in inter.members:
            assert member.contains(p, tol=1e-6)

    def test_nested_intersections_are_flattened(self):
        # one Dykstra loop over catalog sets, in order: the same bits as the flat set
        rng = np.random.default_rng(7)
        ball, half = Ball(np.zeros(7), 10.0), Halfspace(rng.standard_normal(7), 1.0)
        box = Box(np.full(7, -4.0), np.full(7, 4.0))
        flat = Intersection((ball, half, box))
        nested = Intersection((Intersection((ball, half)), box))
        assert nested.members == (ball, half, box)
        assert Intersection((Intersection((Intersection((ball,)), half)), box)).members == (
            ball, half, box,
        )
        for _ in range(20):
            x = rng.standard_normal(7) * 8.0
            assert np.array_equal(nested._project(x), flat._project(x))
            assert nested._distance(x) == flat._distance(x)

    def test_nonfinite_point_stops_at_the_first_cycle(self):
        inter = Intersection((Ball(np.zeros(2), 1.0), Halfspace(np.array([1.0, 0.0]), 0.5)))
        with pytest.raises(DykstraError, match="Dykstra met a non-finite point"):
            inter._project(np.array([np.nan, 0.0]))

    def test_cycle_cap(self, monkeypatch):
        monkeypatch.setattr(geometry, "DYKSTRA_TOL", 1e-30)
        monkeypatch.setattr(geometry, "DYKSTRA_MAX_CYCLES", 3)
        inter = Intersection(
            (Ball(np.zeros(2), 1.0), Halfspace(np.array([1.0, 0.0]), 0.5))
        )
        with pytest.raises(DykstraError):
            project(inter, (5, 5))


class TestConstruction:
    def test_bad_box(self):
        with pytest.raises(ProblemDefinitionError):
            Box(np.ones(2), np.zeros(2))

    def test_bad_radius(self):
        with pytest.raises(ProblemDefinitionError):
            Ball(np.zeros(2), 0.0)

    def test_zero_normal(self):
        with pytest.raises(ProblemDefinitionError):
            Halfspace(np.zeros(3), 1.0)
        with pytest.raises(ProblemDefinitionError):
            AffineHyperplane(np.zeros(3), 1.0)

    def test_box_too_wide_to_sample(self):
        with pytest.raises(ProblemDefinitionError):
            Box(np.full(2, -1e308), np.full(2, 1e308))

    def test_mixed_dims(self):
        with pytest.raises(ProblemDefinitionError):
            Intersection((Ball(np.zeros(2), 1.0), Ball(np.zeros(3), 1.0)))

    def test_project_dim_mismatch(self):
        with pytest.raises(UsageError):
            project(Ball(np.zeros(2), 1.0), (1, 2, 3))

    def test_wholespace_identity(self):
        ws = WholeSpace(3)
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(project(ws, x), x)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_box_sample_is_rng_uniform_draw_for_draw(dim):
    rng = np.random.default_rng(dim)
    for seed in range(200):
        box = random_set("box", rng, dim)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert np.array_equal(sample(box, ours), theirs.uniform(box.lower, box.upper))
        assert ours.random() == theirs.random()  # the streams stay in step


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WholeSpace(0), "dimension must be positive"),
        (lambda: Box(np.zeros(2), np.ones(3)), "box bounds must share a dimension"),
        (lambda: Intersection(()), "intersection needs at least one member set"),
    ],
    ids=["wholespace_dim_0", "box_bound_lengths", "empty_intersection"],
)
def test_set_rejects_a_bad_definition(build, message):
    with pytest.raises(ProblemDefinitionError, match=f"^{message}$"):
        build()
