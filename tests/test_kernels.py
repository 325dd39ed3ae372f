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
    Singleton,
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
    C = Ball(np.zeros(2), 10.0)
    blowup = MappingHandle("nan", lambda x: np.full(2, np.nan), C, True)
    with pytest.raises(NumericError, match="left its domain at power step 1"):
        power(blowup, 3, np.zeros(2))


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
        fix_set=Singleton(np.asarray(fix_point, dtype=float)),
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
            vi_residual(x_next, p) if p.fix_set is not None else None,
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
