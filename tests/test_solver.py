import dataclasses
import math

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
    NumericError,
    ProblemDefinitionError,
    UsageError,
    WholeSpace,
    norm,
    sample,
)
from hfp.operators import MappingHandle
from hfp.schedules import power_schedule
from hfp import solver
from hfp.solver import (
    FullPower,
    ProblemSpec,
    Single,
    StopRule,
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
        spec = make_spec(fix_points=[[5.0, 5.0]])
        assert any("residual" in v for v in validate_problem(spec))

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
        assert any("FullPower mode needs T^n" in v for v in validate_problem(spec))


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_iterate_raises_numeric_error(self):
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

    def test_step_checks_its_input(self, minnorm_problem):
        for bad in ([np.nan, 1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(UsageError):
                step(minnorm_problem, 1, bad)
        with pytest.raises(UsageError):
            step(minnorm_problem, 0, minnorm_problem.x1)


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

    @pytest.mark.parametrize(
        "points", [[[1.0, 1.0, 0.0]], [[1.0, 1.0], [1.0]], [[np.nan, 1.0]], [], np.empty((0, 2))]
    )
    def test_bad_fix_points_are_rejected_when_built(self, points):
        # a point of the wrong dimension used to fail later, as a numpy
        # ValueError in validate_problem or in solve's matmul
        with pytest.raises(UsageError):
            make_spec(fix_points=points)

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
