"""Checked public entry points against the unchecked kernels behind them.

The kernels (``_project``, ``_distance``, ``_norm``, ``_power``) skip input
validation, so they must compute exactly what the checked entry points
compute: bit for bit, on seeded inputs.  ``solve`` runs on kernels only; its
rows must equal a replay through the public ``step``, ``norm`` and
``vi_residual``.
"""
import dataclasses

import numpy as np
import pytest

from hfp.fixtures import contraction, identity_map, sahu_step, zero_map
from hfp.geometry import (
    MEMBERSHIP_TOL,
    AffineHyperplane,
    Ball,
    Box,
    Halfspace,
    Intersection,
    NumericError,
    UsageError,
    _norm,
    distance,
    norm,
    project,
)
from hfp.operators import MappingHandle, _power, power
from hfp.schedules import power_schedule
from hfp.solver import (
    FullPower,
    ProblemSpec,
    TraceRow,
    solve,
    step,
    vi_residual,
)
from conftest import SET_KINDS, budget_stop, random_set


@pytest.mark.parametrize("kind", SET_KINDS)
def test_set_entry_points_match_kernels(kind):
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_set(kind, rng)
        for _ in range(10):
            x = rng.standard_normal(s.dim) * 6.0
            p = project(s, x)
            assert np.array_equal(p, s._project(x.copy()))
            # the distance is ||x - P x|| to the last bit, by every route
            gap = float(np.linalg.norm(x - p))
            assert distance(s, x) == s._distance(x.copy()) == gap
            assert s.contains(x) == (gap <= MEMBERSHIP_TOL)
            assert s.contains(p) and s._distance(p) <= MEMBERSHIP_TOL


@pytest.mark.parametrize("kind", SET_KINDS)
def test_set_entry_points_reject_bad_input(kind):
    s = random_set(kind, np.random.default_rng(5), dim=2)
    for bad in ([np.nan, 0.0], [0.0, np.inf], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        for call in (s.project, s.contains, lambda x: distance(s, x)):
            with pytest.raises(UsageError):
                call(bad)


def test_norm_kernel_is_bit_identical():
    rng = np.random.default_rng(2)
    for dim in (1, 2, 3, 7, 64):
        for _ in range(200):
            v = rng.standard_normal(dim) * 10.0 ** rng.integers(-150, 150)
            assert _norm(v) == norm(v) == float(np.linalg.norm(v))


def test_power_kernel_matches_and_power_checks_input():
    C = Ball(np.zeros(2), 10.0)
    T = contraction(C, 0.5)
    raw = dataclasses.replace(T, meta=dataclasses.replace(T.meta, closed_form_power=None))
    x = np.array([3.0, -4.0])
    for handle in (T, raw):
        for n in (1, 2, 7):
            assert np.array_equal(power(handle, n, x), _power(handle, n, x))
        for bad in ([np.nan, 1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(UsageError):
                power(handle, 2, bad)
        with pytest.raises(UsageError):
            power(handle, 0, x)


def test_raw_power_rejects_a_nonfinite_iterate():
    # on an intersection, Dykstra's first cycle is NaN and decides at once; an
    # inf iterate meets inf * 0 in a projection, which must not warn instead.
    # A nested intersection is flattened, so it decides at once too.
    ball = Ball(np.zeros(3), 10.0)
    half = Halfspace(np.array([1.0, 0.0, 0.0]), 1.0)
    plane = AffineHyperplane(np.array([1.0, 1.0, 0.0]), 0.0)
    nested = _intersections(np.random.default_rng(3), 3)[2]
    for domain in (ball, half, plane, Intersection((ball, half)), nested):
        for value in (np.nan, np.inf):
            blowup = MappingHandle("blowup", lambda x: np.full(3, value), domain, True)
            with pytest.raises(NumericError, match="left its domain at power step 1"):
                power(blowup, 3, np.zeros(3))


def _intersections(rng, d):
    """2- and 3-member intersections about a common point, one nested."""
    center = rng.uniform(-3, 3, d)
    ball = Ball(center, rng.uniform(1.0, 4.0))
    normal = rng.standard_normal(d) + 1e-3
    half = Halfspace(normal, float(np.dot(normal, center)) + rng.uniform(0.0, 2.0))
    box = Box(center - rng.uniform(0.5, 3.0, d), center + rng.uniform(0.5, 3.0, d))
    tilt = rng.standard_normal(d) + 1e-3
    plane = AffineHyperplane(tilt, float(np.dot(tilt, center)))
    return [
        Intersection((ball, half)),
        Intersection((half, box, ball)),
        Intersection((Intersection((ball, half)), box)),
        Intersection((box, plane, ball)),
    ]


def test_intersection_distance_equals_the_projection_gap(monkeypatch):
    project_kernel = Intersection._project
    outer_calls = []

    def counted(self, x):
        outer_calls.append(self)
        return project_kernel(self, x)

    monkeypatch.setattr(Intersection, "_project", counted)
    rng = np.random.default_rng(17)
    settled = fell_back = 0
    for d in (1, 2, 3, 5):
        for _ in range(5):
            for s in _intersections(rng, d):
                x = rng.standard_normal(d) * 8.0
                p = project_kernel(s, x)
                away = x - p if _norm(x - p) > 0.0 else rng.standard_normal(d)
                away = away / _norm(away)
                points = [x, p, project_kernel(s, rng.standard_normal(d))]
                points += [p + eps * away for eps in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9)]
                for y in points:
                    outer_calls.clear()
                    assert s._distance(y) == _norm(y - project_kernel(s, y))
                    if any(c is s for c in outer_calls):
                        fell_back += 1
                    else:
                        settled += 1
    assert settled > 0 and fell_back > 0


def test_raw_walk_on_an_intersection_runs_no_dykstra_projection(monkeypatch):
    # dykstra_power's shape: ball meets halfspace <e, x> >= t0 at a corner, and
    # T shrinks the coordinate along a, orthogonal to both normals, so T maps C
    # into C; walks start at P_C outputs, which sit about 1e-11 outside the ball
    rng = np.random.default_rng(5)
    a, e, f = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
    corner = 0.7 * (e + f)
    normal = (f - 0.5 * e) / _norm(f - 0.5 * e)
    C = Intersection((Ball(corner - 3.0 * normal, 3.0), Halfspace(-e, -0.7)))
    T = MappingHandle("shrink", lambda x: x - 0.08 * float(np.dot(a, x)) * a, C, True)
    starts = [C._project(rng.standard_normal(3) * 4.0) for _ in range(6)]
    expected = []
    for y in starts:
        for _ in range(150):
            y = T.evaluate(y)
            assert _norm(y - C._project(y)) <= MEMBERSHIP_TOL  # the old guard passes
        expected.append(y)
    guard_projections = []
    project_kernel = Intersection._project
    monkeypatch.setattr(
        Intersection, "_project", lambda s, x: guard_projections.append(1) or project_kernel(s, x)
    )
    for y, want in zip(starts, expected):
        assert np.array_equal(_power(T, 150, y), want)
    assert guard_projections == []


def _spec(C, T, x1, fix_point, reference=None):
    return ProblemSpec(
        C=C,
        T=T,
        S=identity_map(C),
        V=zero_map(C),
        F=identity_map(C),
        rho=0.0,
        mu=1.0,
        schedule=power_schedule(1.0, 0.7, 1.0, 1.0),
        mode=FullPower(),
        x1=np.asarray(x1, dtype=float),
        fix_points=[fix_point],
        reference=reference,
    )


def _raw_power_intersection():
    """T = 0.5 x with no closed form on a Dykstra intersection that holds 0."""
    C = Intersection(
        (Ball(np.array([0.5, 0.0]), 2.0), Halfspace(np.array([1.0, 1.0]), 1.0))
    )
    T = contraction(C, 0.5)
    T = dataclasses.replace(T, meta=dataclasses.replace(T.meta, closed_form_power=None))
    # S and V are not the identity and zero, so beta_n and alpha_n both matter
    return dataclasses.replace(
        _spec(C, T, [1.5, -1.0], [0.0, 0.0]),
        S=contraction(C, 0.8),
        V=contraction(C, 0.5),
        rho=0.5,
    )


def _sahu():
    C = Box(np.zeros(1), np.ones(1))
    return _spec(C, sahu_step(), [0.8], [0.5], reference=np.array([0.5]))


def _replay(p, report):
    x = p.x1
    for row in report.trace:
        n = row.n
        x_next = step(p, n, x)
        expected = TraceRow(
            n,
            float(p.schedule.alpha(n)),
            float(p.schedule.beta(n)),
            norm(x_next - x),
            norm(x_next - p.T.evaluate(x_next)),
            vi_residual(x_next, p) if p.fix_points is not None else None,
            norm(x_next - p.reference) if p.reference is not None else None,
            None,
        )
        assert row == expected
        x = x_next
    assert np.array_equal(x, report.final_x)


@pytest.mark.parametrize(
    "make, iters",
    [("minnorm", 3000), (_sahu, 3000), (_raw_power_intersection, 40)],
    ids=["minnorm", "sahu_step", "raw_power_intersection"],
)
def test_solve_rows_equal_a_checked_replay(make, iters, request):
    p = request.getfixturevalue("minnorm_problem") if make == "minnorm" else make()
    report = solve(p, budget_stop(iters))
    assert report.iterations == iters
    _replay(p, report)
