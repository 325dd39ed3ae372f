import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hfp.fixtures import (
    averaged_rotation,
    constant_map,
    contraction,
    identity_map,
    proj_affine,
    rotation,
    sahu_step,
    zero_map,
)
from hfp.geometry import (
    AffineHyperplane,
    Ball,
    Box,
    Halfspace,
    Intersection,
    NumericError,
    ProblemDefinitionError,
    UsageError,
    WholeSpace,
    norm,
    sample,
)
from hfp.operators import MappingHandle, OperatorMeta
from hfp.schedules import power_schedule
from hfp import solver
from hfp.solver import (
    FullPower,
    ProblemSpec,
    Single,
    StopRule,
    Trace,
    TraceRow,
    check_power_regularity,
    reduce_variant,
    solve,
    step,
    validate_problem,
    vi_residual,
)
from conftest import budget_stop


def make_spec(**overrides):
    C = Ball(np.zeros(2), 10.0)
    base = dict(
        C=C,
        T=proj_affine(C, np.array([1.0, 1.0]), 2.0),
        S=identity_map(C),
        V=zero_map(C),
        F=identity_map(C),
        rho=0.0,
        mu=1.0,
        schedule=power_schedule(1.0, 0.5, 1.0, 0.9),
        mode=FullPower(),
        x1=np.array([3.0, 4.0]),
    )
    base.update(overrides)
    return ProblemSpec(**base)


class TestValidateProblem:
    def test_valid(self):
        C = Ball(np.zeros(2), 10.0)
        spec = make_spec(V=contraction(C, 1.0), rho=0.5)
        assert validate_problem(spec) == []

    def test_mu_bound(self):
        spec = make_spec(mu=3.0)
        assert any("mu >= 2*eta/L^2" in v for v in validate_problem(spec))

    def test_rho_gamma_bound(self):
        C = Ball(np.zeros(2), 10.0)
        spec = make_spec(V=contraction(C, 1.0), rho=2.0)
        assert any("rho*gamma >= nu" in v for v in validate_problem(spec))

    def test_nan_rho_is_a_violation(self):
        spec = make_spec(rho=float("nan"))
        assert "rho must be nonnegative" in validate_problem(spec)

    @pytest.mark.parametrize(
        "overrides, violation",
        [
            (dict(mu=0.0), "mu must be positive"),
            (dict(mu=-1.0), "mu must be positive"),
            # sahu_step declares no Lipschitz constant
            (dict(V=sahu_step(), rho=0.5), "V must declare gamma when rho > 0"),
        ],
        ids=["mu_zero", "mu_negative", "v_without_gamma"],
    )
    def test_coefficient_violations(self, overrides, violation):
        assert violation in validate_problem(make_spec(**overrides))

    @pytest.mark.parametrize("mode", [None, "full_power", FullPower])
    def test_unknown_mode_rejected_when_built(self, mode):
        with pytest.raises(UsageError, match="unknown power mode"):
            make_spec(mode=mode)

    def test_x1_outside(self):
        spec = make_spec(x1=np.array([20.0, 0.0]))
        assert any("x1" in v for v in validate_problem(spec))

    def test_bad_schedule(self):
        spec = make_spec(schedule=power_schedule(1.0, 2.0, 1.0, 2.5))
        assert any("schedule" in v for v in validate_problem(spec))

    def test_bogus_fixed_point(self):
        # T projects onto x + y = 2: (1, 1) is fixed, and the first bad point is named
        spec = make_spec(fix_points=[[1.0, 1.0], [5.0, 5.0], [6.0, 6.0]])
        assert validate_problem(spec) == ["declared fixed point [5.0, 5.0] has residual 5.657e+00"]

    def test_a_nan_residual_is_a_violation(self):
        # a NaN residual is not <= FIX_POINT_TOL, so it fails the check
        C = Ball(np.zeros(2), 10.0)
        T = MappingHandle("nan", lambda x: np.full(2, np.nan), C, True, OperatorMeta(lipschitz=1.0))
        spec = make_spec(T=T, fix_points=[[1.0, 1.0]])
        assert validate_problem(spec) == ["declared fixed point [1.0, 1.0] has residual nan"]

    def test_missing_f_metadata(self):
        C = Ball(np.zeros(2), 10.0)
        spec = make_spec(F=rotation(C, 0.3))
        assert any("declare" in v for v in validate_problem(spec))

    @pytest.mark.parametrize("mode", [FullPower(), Single()])
    def test_t_must_be_nearly_nonexpansive(self, mode):
        C = WholeSpace(2)
        expanding = make_spec(C=C, T=contraction(C, 3.0), mode=mode)
        assert any("nearness sequence" in v for v in validate_problem(expanding))
        # L <= 1 without a sequence, or a sequence without L, is enough
        for T in (contraction(C, 0.5), proj_affine(C, np.array([1.0, 1.0]), 2.0)):
            assert validate_problem(make_spec(C=C, T=T, mode=mode)) == []

    @pytest.mark.parametrize("mode", [FullPower(), Single()])
    def test_s_must_be_a_nonexpansive_self_mapping(self, mode):
        C = Ball(np.zeros(2), 10.0)
        for S in (contraction(C, 3.0), constant_map(C, [100.0, 100.0])):
            violations = validate_problem(make_spec(S=S, mode=mode))
            assert f"S = {S.name} is not a declared nonexpansive self-mapping" in violations
        for S in (contraction(C, 0.8), constant_map(C, [1.0, 1.0]), zero_map(C), rotation(C, 0.3)):
            assert validate_problem(make_spec(S=S, mode=mode)) == []

    def test_contraction_needs_the_origin_in_c(self):
        C = Ball(np.array([5.0, 5.0]), 1.0)
        spec = make_spec(
            C=C, T=contraction(C, 0.5), S=identity_map(C), V=zero_map(C), F=identity_map(C),
            x1=np.array([5.0, 5.0]),
        )
        assert "T = contraction(0.5) is not a self-mapping of C" in validate_problem(spec)

    @pytest.mark.parametrize("mode", [FullPower(), Single()])
    def test_t_must_be_a_self_mapping_in_every_mode(self, mode):
        # on C = [2, 3] sahu_step is 0 everywhere, outside C
        C = Box(np.array([2.0]), np.array([3.0]))
        spec = make_spec(
            C=C, T=sahu_step(C), S=identity_map(C), V=zero_map(C), F=identity_map(C),
            x1=[2.5], mode=mode,
        )
        assert "T = sahu_step is not a self-mapping of C" in validate_problem(spec)


class TestStep:
    def test_zero_beta_collapses_y(self):
        # S is wild but beta = 0, so y_n = x_n bit-exactly
        C = Ball(np.zeros(2), 10.0)
        wild = contraction(C, 0.123)
        a = make_spec(S=wild, schedule=power_schedule(1.0, 0.5, 0.0, 0.9))
        b = make_spec(schedule=power_schedule(1.0, 0.5, 0.0, 0.9))
        x = np.array([2.0, -1.0])
        assert np.array_equal(step(a, 2, x), step(b, 2, x))

    def test_zero_alpha_projects_power(self):
        from hfp.operators import power

        spec = make_spec(schedule=power_schedule(1.0, 1000.0, 1.0, 0.9))
        assert spec.schedule.alpha(3) == 0.0  # underflow
        x = np.array([2.0, -1.0])
        expected = spec.C.project(power(spec.T, 3, x))
        assert np.array_equal(step(spec, 3, x), expected)

    def test_coefficient_wipeout(self):
        # alpha_1 = 1, V = 0, F = I: t_1 = x1 - x1 = 0
        C = WholeSpace(2)
        spec = make_spec(
            C=C,
            T=identity_map(C),
            S=identity_map(C),
            V=zero_map(C),
            F=identity_map(C),
            x1=np.array([3.0, 4.0]),
            schedule=power_schedule(1.0, 0.5, 0.0, 0.9),
        )
        assert np.array_equal(step(spec, 1, spec.x1), np.zeros(2))

    def test_single_mode_tests_a_raw_step_for_membership(self):
        # T claims to map C into itself, but its one step leaves the unit ball
        C = Ball(np.zeros(2), 1.0)
        T = MappingHandle("shift", lambda x: x + 5.0, C, maps_into_domain=True)
        spec = make_spec(
            C=C, T=T, S=identity_map(C), V=zero_map(C), F=identity_map(C),
            x1=np.zeros(2), mode=Single(),
        )
        with pytest.raises(NumericError, match="^iterate of shift left its domain at power step 1$"):
            step(spec, 1, spec.x1)


class TestSolve:
    def test_minnorm_converges(self, minnorm_problem):
        report = solve(minnorm_problem, budget_stop(20000))
        assert norm(report.final_x - np.array([1.0, 1.0])) <= 2e-2
        assert report.stop_reason == "budget"

    def test_averaged_rotation_minnorm(self):
        C = Ball(np.zeros(2), 10.0)
        spec = make_spec(
            T=averaged_rotation(C, 0.5, math.pi / 4),
            x1=np.array([4.0, 1.0]),
            fix_points=[np.zeros(2)],
        )
        report = solve(spec, budget_stop(10000))
        assert norm(report.final_x) <= 1e-2

    def test_sahu_step_converges(self):
        spec = ProblemSpec(
            C=Box(np.zeros(1), np.ones(1)),
            T=sahu_step(),
            S=identity_map(Box(np.zeros(1), np.ones(1))),
            V=zero_map(Box(np.zeros(1), np.ones(1))),
            F=identity_map(Box(np.zeros(1), np.ones(1))),
            rho=0.0,
            mu=1.0,
            schedule=power_schedule(1.0, 0.7, 1.0, 1.0),
            mode=FullPower(),
            x1=np.array([0.8]),
            fix_points=[[0.5]],
        )
        report = solve(spec, budget_stop(20000))
        assert abs(report.final_x[0] - 0.5) <= 1e-3

    def test_deterministic(self, minnorm_problem):
        a = solve(minnorm_problem, budget_stop(500))
        b = solve(minnorm_problem, budget_stop(500))
        assert a.trace == b.trace
        assert np.array_equal(a.final_x, b.final_x)

    def test_iterates_stay_feasible(self, minnorm_problem):
        x = minnorm_problem.x1
        for n in range(1, 200):
            x = step(minnorm_problem, n, x)
            assert minnorm_problem.C.contains(x)

    def test_step_norm_trend(self, minnorm_problem):
        report = solve(minnorm_problem, budget_stop(10**4))
        assert report.trace[-1].step_norm < report.trace[99].step_norm

    def test_invalid_problem_raises(self):
        spec = make_spec(mu=3.0)
        with pytest.raises(ProblemDefinitionError):
            solve(spec)

    def test_stop_on_fix_residual(self, minnorm_problem):
        report = solve(
            minnorm_problem,
            StopRule(max_iters=10**5, tol_step=None, tol_fix=1e-2, tol_vi=None),
        )
        assert report.stop_reason == "fix"
        assert report.trace[-1].fix_residual <= 1e-2

    def test_power_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(solver, "POWER_BUDGET", 100)
        spec = make_spec()
        bare_T = dataclasses.replace(
            spec.T, meta=dataclasses.replace(spec.T.meta, closed_form_power=None)
        )
        spec = dataclasses.replace(spec, T=bare_T)
        # iterations 1..14 walk 1 + 2 + ... + 14 = 105 raw steps
        with pytest.raises(NumericError, match="power budget exhausted: 105 raw evaluations exceed 100;"):
            solve(spec, budget_stop(50))
        # one step at n walks n raw steps
        step(spec, 100, spec.x1)
        with pytest.raises(NumericError, match="power budget exhausted: 101 raw evaluations exceed 100;"):
            step(spec, 101, spec.x1)

    def test_power_budget_counts_nominal_steps(self, monkeypatch):
        # a raw identity settles at its first step, yet iteration n still
        # counts n steps: the budget runs out at iteration 14, as above
        monkeypatch.setattr(solver, "POWER_BUDGET", 100)
        C = Ball(np.zeros(2), 10.0)
        calls = []

        def evaluate(x):
            calls.append(x)
            return np.asarray(x, dtype=float).copy()
        ident = identity_map(C)
        raw = dataclasses.replace(ident, evaluate=evaluate, rows=None,
                                  meta=dataclasses.replace(ident.meta, closed_form_power=None))
        spec = make_spec(T=raw)
        with pytest.raises(NumericError, match="power budget exhausted: 105 raw evaluations exceed 100;"):
            solve(spec, budget_stop(50))
        assert len(calls) == 13  # one raw step for each of iterations 1..13
        with pytest.raises(NumericError, match="power budget exhausted: 101 raw evaluations exceed 100;"):
            step(spec, 101, spec.x1)

    def test_zero_t_has_a_closed_form_power(self):
        # T = zero used to walk n raw steps and exhaust the power budget at once
        C = Ball(np.zeros(2), 10.0)
        x = step(make_spec(T=zero_map(C)), 10**9, np.array([3.0, 4.0]))
        assert x.tolist() == [0.0, 0.0]
        assert not np.signbit(x).any()

    def test_nonfinite_iterate_raises_numeric_error(self):
        # with no numpy warning: pytest turns warnings into errors
        # a valid problem whose first step overflows: V x1 = 10 * 1e308
        C = WholeSpace(2)
        spec = make_spec(
            C=C,
            T=contraction(C, 1.0),
            V=contraction(C, 10.0),
            rho=0.01,
            mode=Single(),
            fix_points=None,
            schedule=power_schedule(0.5, 0.5, 1.0, 0.9),
            x1=np.array([1e308, 1e308]),
        )
        assert validate_problem(spec) == []
        with pytest.raises(NumericError, match="not a finite point"):
            solve(spec, budget_stop(10**4))
        with pytest.raises(NumericError, match="iteration 1 produced"):
            step(spec, 1, spec.x1)

    def test_vi_stop_needs_an_approximate_fixed_point(self):
        # the README quickstart: alpha_1 = 1 gives x_2 = P_C[z - z] = 0, where
        # rho V = mu F and the VI gap is 0, but T does not fix 0
        spec = make_spec(fix_points=[[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        report = solve(spec, StopRule(max_iters=200))
        first = report.trace[0]
        assert (first.vi_residual, first.fix_residual) == (0.0, math.sqrt(2.0))
        assert report.stop_reason == "budget"

    def test_vi_stop_at_a_fixed_point(self):
        # T = I fixes every point, and x_2 = P_C(rho b) solves the VI
        C = Ball(np.zeros(2), 10.0)
        spec = make_spec(
            T=identity_map(C), V=constant_map(C, [1.0, 2.0]), rho=0.5,
            fix_points=[[0.0, 0.0], [3.0, -1.0], [-2.0, 4.0]],
        )
        report = solve(spec, StopRule(tol_step=None, tol_fix=None))
        assert (report.stop_reason, report.iterations) == ("vi", 1)
        assert report.final_x.tolist() == [0.5, 1.0]

    def test_empty_intersection_is_a_violation(self):
        C = Intersection((Ball(np.zeros(2), 1.0), Halfspace(np.array([1.0, 0.0]), -5.0)))
        violations = validate_problem(make_spec(C=C, T=identity_map(C), x1=np.zeros(2)))
        assert "intersection feasibility probe failed: probe point is not within every " \
            "member set" in violations
        # Fix(T) = C, whose own probe failed, is not probed against C again
        assert sum("feasibility probe failed" in v for v in violations) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iters", 0),
            ("max_iters", -3),
            ("max_iters", 2.5),
            ("tol_step", math.nan),
            ("tol_step", -1.0),
            ("tol_fix", math.inf),
            ("tol_vi", "1e-8"),
        ],
    )
    def test_stop_rule_checks_its_fields(self, field, value):
        # a budget below 1 used to return x1 with an empty trace, and a NaN or
        # negative tolerance never fired
        with pytest.raises(UsageError, match=rf"^stop\.{field} = {value} is below"):
            StopRule(**{field: value})

    def test_step_checks_its_input(self, minnorm_problem):
        for bad in ([np.nan, 1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(UsageError):
                step(minnorm_problem, 1, bad)
        with pytest.raises(UsageError):
            step(minnorm_problem, 0, minnorm_problem.x1)


class TestTrace:
    def test_rows_are_the_columns(self, minnorm_problem):
        trace = solve(minnorm_problem, budget_stop(50), collect_timing=True).trace
        assert isinstance(trace, Trace) and len(trace) == 50
        rows = list(trace)
        assert [row.n for row in rows] == list(range(1, 51))
        for i, row in enumerate(rows):
            assert isinstance(row, TraceRow)
            assert row == trace[i] == trace[i - 50]
            assert row[1:] == tuple(column[i] for column in trace.columns())
            assert type(row.elapsed_ns) is int and row.elapsed_ns >= 0
        assert trace[-1].n == 50

    def test_index_errors_and_slices(self, minnorm_problem):
        trace = solve(minnorm_problem, budget_stop(12)).trace
        rows = list(trace)
        for i in (12, 100, -13):
            with pytest.raises(IndexError):
                trace[i]
        for cut in (slice(None), slice(3, 7), slice(-4, None), slice(None, None, -2), slice(20, 30)):
            assert trace[cut] == rows[cut]

    def test_absent_columns_are_none(self):
        trace = solve(make_spec(), budget_stop(5)).trace
        assert trace.vi_residual is trace.dist_to_reference is trace.elapsed_ns is None
        assert trace[-1].vi_residual is trace[-1].dist_to_reference is trace[-1].elapsed_ns is None

    def test_equality_is_as_strict_as_rows(self, minnorm_problem):
        a = solve(minnorm_problem, budget_stop(30)).trace
        other_value = copy.deepcopy(a)
        other_value.fix_residual[17] = math.nextafter(a.fix_residual[17], math.inf)
        others = [
            other_value,
            solve(minnorm_problem, budget_stop(29)).trace,
            solve(dataclasses.replace(minnorm_problem, reference=None), budget_stop(30)).trace,
            solve(minnorm_problem, budget_stop(30), collect_timing=True).trace,
        ]
        assert a == copy.deepcopy(a) and list(a) == list(copy.deepcopy(a))
        for b in others:
            assert a != b and list(a) != list(b)

    def test_memory_per_row(self, minnorm_problem):
        rows = 20000
        tracemalloc.start()
        try:
            report = solve(minnorm_problem, budget_stop(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.trace) == rows
        # six float64 columns take 48 bytes a row; a list of TraceRows took 272
        assert peak / rows <= 64


class TestViResidual:
    def test_singleton_at_solution(self):
        spec = make_spec(fix_points=[[1.0, 1.0]])
        # probing only the solution point itself gives zero by construction
        assert vi_residual(np.array([1.0, 1.0]), spec) == 0.0

    def test_affine_solution_zero(self, minnorm_problem):
        assert vi_residual(np.array([1.0, 1.0]), minnorm_problem) <= 1e-9

    def test_nonoptimal_fixed_point_positive(self, minnorm_problem):
        assert vi_residual(np.array([2.0, 0.0]), minnorm_problem) > 0.1

    def test_requires_fix_set(self):
        spec = make_spec()
        with pytest.raises(UsageError):
            vi_residual(np.array([1.0, 1.0]), spec)

    def test_sampled_points_probes(self):
        spec = make_spec(fix_points=(np.array([1.0, 1.0]), np.array([2.0, 0.0])))
        assert np.array_equal(spec.fix_points, [[1.0, 1.0], [2.0, 0.0]])
        # w = -x: at (1, 1) both probes give <w, y - x> = 0; at (0, 1), (2, 0) gives 1
        assert vi_residual(np.array([1.0, 1.0]), spec) == 0.0
        assert vi_residual(np.array([0.0, 1.0]), spec) == 1.0

    def test_convex_subset_probes_on_set(self):
        line = AffineHyperplane(np.array([1.0, 1.0]), 2.0)
        rng = np.random.default_rng(3)
        spec = make_spec(fix_points=[sample(line, rng) for _ in range(16)])
        assert spec.fix_points.shape == (16, 2)
        for p in spec.fix_points:
            assert line.contains(p)
        assert vi_residual(np.array([1.0, 1.0]), spec) <= 1e-9

    BAD_FIX_POINTS = [
        ([[1.0, 1.0, 0.0]], "point dimension 3 does not match set dimension 2"),
        ([[1.0, 1.0], [1.0]], "point dimension 1 does not match set dimension 2"),
        ([[np.nan, 1.0]], "vector coordinates must be finite"),
        ([], "fix_points must hold at least one point"),
        (np.empty((0, 2)), "fix_points must hold at least one point"),
        (np.array([[1.0, 1.0], [1.0, np.inf]]), "vector coordinates must be finite"),
        ([[[1.0, 1.0]]], "a vector must be a nonempty 1-d array of reals"),
        ([[]], "a vector must be a nonempty 1-d array of reals"),
        ([1.0, 1.0], "point dimension 1 does not match set dimension 2"),
    ]

    @pytest.mark.parametrize(
        "points, message", BAD_FIX_POINTS, ids=[f"points{i}" for i in range(len(BAD_FIX_POINTS))]
    )
    def test_bad_fix_points_are_rejected_when_built(self, points, message):
        # a point of the wrong dimension used to fail later, as a numpy
        # ValueError in validate_problem or in solve's matmul; the messages
        # are those of the row-by-row check the array pass falls back to
        with pytest.raises(UsageError, match=f"^{message}$"):
            make_spec(fix_points=points)

    def test_rebuilt_spec_copies_its_fix_points(self):
        spec = make_spec(fix_points=np.ones((32, 2)), reference=[1.0, 1.0])
        copy = dataclasses.replace(spec, mode=Single())
        assert copy.fix_points is not spec.fix_points
        assert np.array_equal(copy.fix_points, spec.fix_points)

    def test_scalar_fix_points_of_a_line(self):
        line = Box(np.zeros(1), np.ones(1))
        spec = make_spec(
            C=line, T=sahu_step(), S=identity_map(line), V=zero_map(line),
            F=identity_map(line), x1=[0.8], fix_points=np.array([0.5, 0.25]),
        )
        assert np.array_equal(spec.fix_points, [[0.5], [0.25]])

    @pytest.mark.parametrize("field", ["x1", "reference"])
    def test_wrong_dimension_point_is_rejected_when_built(self, field):
        # a 1-d reference used to be broadcast into dist_to_reference, and a
        # 3-d x1 to fail later, in validate_problem or in solve's matmul
        with pytest.raises(UsageError, match="point dimension"):
            make_spec(**{field: [1.0] if field == "reference" else [1.0, 1.0, 0.0]})


class TestPowerRegularity:
    def test_projection_passes(self):
        C = Ball(np.zeros(2), 10.0)
        T = proj_affine(C, np.array([1.0, 1.0]), 2.0)
        report = check_power_regularity(T, power_schedule(1.0, 0.5, 1.0, 0.9), [np.array([3.0, 4.0])])
        assert report.passed
        assert report.per_probe[0]["diffs"] == [0.0, 0.0, 0.0]

    def test_rotation_fails(self):
        C = Ball(np.zeros(2), 10.0)
        T = rotation(C, math.pi / 4)
        report = check_power_regularity(T, power_schedule(1.0, 0.5, 1.0, 0.9), [np.array([1.0, 0.0])])
        assert not report.passed
        # the chord is the constant 2 sin(pi/8)
        assert report.per_probe[0]["diffs"][0] == pytest.approx(2 * math.sin(math.pi / 8))

    def test_averaged_rotation_passes(self):
        C = Ball(np.zeros(2), 10.0)
        T = averaged_rotation(C, 0.5, math.pi / 4)
        report = check_power_regularity(T, power_schedule(1.0, 0.5, 1.0, 0.9), [np.array([1.0, 0.0])])
        assert report.passed

    @staticmethod
    def counted(T, calls, raw):
        """T with its evaluate (raw) or closed-form power calls counted."""

        def count(fn):
            def wrapper(*args):
                calls.append(args[0] if raw else args)
                return fn(*args)

            return wrapper

        if raw:
            meta = dataclasses.replace(T.meta, closed_form_power=None)
            return dataclasses.replace(T, evaluate=count(T.evaluate), meta=meta)
        meta = dataclasses.replace(T.meta, closed_form_power=count(T.meta.closed_form_power))
        return dataclasses.replace(T, meta=meta)

    @pytest.mark.parametrize("raw", [True, False])
    @pytest.mark.parametrize("horizon", [2, 150, 1000])
    def test_matches_powers_from_scratch(self, raw, horizon):
        from hfp.operators import power

        C = Ball(np.zeros(2), 10.0)
        T = averaged_rotation(C, 0.3, 0.7)
        schedule = power_schedule(1.0, 0.5, 1.0, 0.9)
        probes = [np.array([1.0, 0.0]), np.array([-3.0, 2.5])]
        calls = []
        report = check_power_regularity(self.counted(T, calls, raw), schedule, probes, horizon)
        ns = [max(horizon // 100, 2), max(horizon // 10, 2), horizon]
        # one raw walk to the horizon per probe, or one closed-form call per index
        assert len(calls) == len(probes) * (horizon if raw else len({m for n in ns for m in (n - 1, n)}))
        reference = T if not raw else self.counted(T, [], raw)
        for probe, row in zip(probes, report.per_probe):
            diffs = [norm(power(reference, n, probe) - power(reference, n - 1, probe)) for n in ns]
            assert row["diffs"] == diffs  # bit for bit
            assert row["ratios"] == [d / float(schedule.alpha(n)) for d, n in zip(diffs, ns)]

    def test_raw_walk_names_the_escape_step(self):
        escape = MappingHandle(
            name="escape",
            evaluate=lambda x: x + 0.25,
            domain=Box(np.zeros(1), np.ones(1)),
            maps_into_domain=True,
        )
        with pytest.raises(NumericError, match="power step 5"):
            check_power_regularity(escape, power_schedule(1.0, 0.5, 1.0, 0.9), [np.zeros(1)], 100)

    def test_non_self_mapping_rejected(self):
        C = Ball(np.array([5.0, 5.0]), 1.0)
        with pytest.raises(UsageError, match="^power regularity needs a self-mapping of the domain$"):
            check_power_regularity(contraction(C, 0.5), power_schedule(1.0, 0.5, 1.0, 0.9), [C.center])

    def test_underflowed_alpha_is_a_usage_error(self):
        # alpha_100 = 5e-324 / 10 underflows to 0; d / alpha_n used to raise ZeroDivisionError
        T = rotation(Ball(np.zeros(2), 10.0), 0.5)
        with pytest.raises(UsageError, match=r"^alpha\(100\) = 0 makes the ratio conditions undefined$"):
            check_power_regularity(T, power_schedule(5e-324, 0.5, 0.0, 1.0), [[1.0, 0.0]])

    def test_no_probes_rejected(self):
        # an empty probe list used to pass without checking anything
        T = proj_affine(Ball(np.zeros(2), 10.0), np.array([1.0, 1.0]), 2.0)
        with pytest.raises(UsageError, match="at least one probe"):
            check_power_regularity(T, power_schedule(1.0, 0.5, 1.0, 0.9), [])

    def test_short_horizon_rejected(self):
        T = proj_affine(Ball(np.zeros(2), 10.0), np.array([1.0, 1.0]), 2.0)
        with pytest.raises(UsageError):
            check_power_regularity(T, power_schedule(1.0, 0.5, 1.0, 0.9), [np.zeros(2)], 1)


class TestReduceVariant:
    def test_marino_xu_needs_wholespace(self):
        spec = make_spec()
        with pytest.raises(UsageError):
            reduce_variant(spec, "marino_xu")

    def test_unknown_variant(self):
        with pytest.raises(UsageError):
            reduce_variant(make_spec(), "nope")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wang_xu_equals_ceng_with_zero_beta(self, seed):
        rng = np.random.default_rng(seed)
        C = Ball(np.zeros(2), 10.0)
        base = make_spec(
            T=averaged_rotation(C, 0.5, math.pi / 4),
            S=contraction(C, 0.8),
            schedule=power_schedule(1.0, 0.5, 0.0, 0.9),
            x1=sample(C, rng),
        )
        a = solve(reduce_variant(base, "wang_xu"), budget_stop(100))
        b = solve(reduce_variant(base, "ceng"), budget_stop(100))
        assert a.trace == b.trace

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_power_equals_single_for_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        base = make_spec(x1=sample(Ball(np.zeros(2), 10.0), rng))
        a = solve(reduce_variant(base, "full_power"), budget_stop(100))
        b = solve(reduce_variant(base, "wang_xu"), budget_stop(100))
        assert a.trace == b.trace

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_constant_sequence_equals_single(self, seed):
        rng = np.random.default_rng(seed)
        C = Ball(np.zeros(2), 10.0)
        base = make_spec(
            T=averaged_rotation(C, 0.5, math.pi / 4), x1=sample(C, rng)
        )
        a = solve(reduce_variant(base, "sahu"), budget_stop(100))
        b = solve(reduce_variant(base, "wang_xu"), budget_stop(100))
        assert a.trace == b.trace

    def test_reduce_is_metadata_only(self):
        spec = make_spec()
        reduced = reduce_variant(spec, "wang_xu")
        assert isinstance(reduced.mode, Single)
        assert reduced.T is spec.T
