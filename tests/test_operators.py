import dataclasses
import math
import re

import numpy as np
import pytest

from hfp.fixtures import (
    averaged_rotation,
    constant_map,
    contraction,
    identity_map,
    linear_map,
    proj_affine,
    rotation,
    sahu_sequence,
    sahu_step,
    zero_map,
)
from hfp import problemfile
from hfp.geometry import (
    Ball, Box, NumericError, ProblemDefinitionError, UsageError, WholeSpace, _sample_rows, norm,
)
from hfp.operators import (
    MappingHandle,
    NearnessSequence,
    OperatorMeta,
    certify_combined_monotone,
    certify_lipschitz,
    certify_nearly_nonexpansive,
    certify_strong_monotone,
    certify_yamada_contraction,
    nu_constant,
    power,
    zero_sequence,
)
from hfp.schedules import Schedule, scalar_recursion, validate_schedule
from hfp.solver import (
    FIX_POINT_TOL, FullPower, ProblemSpec, check_power_regularity, step, validate_problem,
)
from conftest import catalog_handles

DOMAIN = Ball(np.zeros(2), 10.0)
SCHEDULE = Schedule(1.0, 0.5, 1.0, 0.9)


def _spec(T: MappingHandle) -> ProblemSpec:
    """A valid problem on DOMAIN but for its T."""
    return ProblemSpec(
        C=DOMAIN, T=T, S=identity_map(DOMAIN), V=zero_map(DOMAIN), F=identity_map(DOMAIN),
        rho=0.0, mu=1.0, schedule=SCHEDULE, mode=FullPower(), x1=np.zeros(2),
    )


class TestNearnessSequence:
    def test_zero_sequence_ok(self):
        seq = zero_sequence()
        assert seq(1) == 0.0

    def test_step_sequence_ok(self):
        seq = sahu_sequence(0.5)
        assert seq(1) == 0.5
        assert seq(2) == 0.0

    # a_n -> 0 is decided by validate_schedule's a_n / alpha_n -> 0, which
    # implies it as alpha_n <= 1; construction probes nothing
    def test_nondecaying_rejected(self):
        failures = validate_schedule(SCHEDULE, NearnessSequence(lambda n: 1.0))
        assert failures == ["a_over_alpha trend check fails (value 1e+03 at horizon)"]

    def test_increasing_rejected(self):
        failures = validate_schedule(SCHEDULE, NearnessSequence(lambda n: 1e-9 * n))
        assert [f.split(" (")[0] for f in failures] == ["a_over_alpha trend check fails"]

    def test_negative_rejected(self):
        seq = NearnessSequence(lambda n: -1.0 / n)
        with pytest.raises(UsageError, match=r"^a\(1\) = -1.0 is not a nonnegative real$"):
            seq(1)
        with pytest.raises(UsageError, match=r"^a\(10000\) = -0.0001 is not"):
            validate_schedule(SCHEDULE, seq)
        T = dataclasses.replace(identity_map(DOMAIN), meta=OperatorMeta(nearly_seq=seq))
        violations = validate_problem(_spec(T))
        assert violations == ["schedule: a(10000) = -0.0001 is not a nonnegative real"]

    @pytest.mark.parametrize(
        "a",
        [lambda n: 10.0 / n, lambda n: 1.0 / n, lambda n: 0.1 / n, lambda n: n**-0.9,
         lambda n: (1 + (-1) ** n) / n],
        ids=["10/n", "1/n", "0.1/n", "n^-0.9", "(1+(-1)^n)/n"],
    )
    def test_decaying_sequences_pass_at_half_and_fail_at_one(self, a):
        # at p = 1, a_n / alpha_n does not vanish
        seq = NearnessSequence(a)
        assert validate_schedule(SCHEDULE, seq) == []
        failures = validate_schedule(dataclasses.replace(SCHEDULE, p=1.0, q=1.1), seq)
        assert [f.split(" (")[0] for f in failures] == ["a_over_alpha trend check fails"]

    def test_a_small_constant_is_rejected_by_the_schedule(self):
        failures = validate_schedule(SCHEDULE, NearnessSequence(lambda n: 1e-7))
        assert [f.split(" (")[0] for f in failures] == ["a_over_alpha trend check fails"]

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_a_bad_value_is_an_error_where_it_is_read(self, bad):
        # bad only at n = 10^4, the first index validate_schedule reads
        seq = NearnessSequence(lambda n: bad if n == 10**4 else 1.0 / n)
        assert seq(4**5) == 1.0 / 4**5
        with pytest.raises(UsageError, match=rf"^a\(10000\) = {bad!r} is not a nonnegative real$"):
            validate_schedule(SCHEDULE, seq)
        T = dataclasses.replace(identity_map(DOMAIN), meta=OperatorMeta(nearly_seq=seq))
        assert validate_problem(_spec(T)) == [
            f"schedule: a(10000) = {bad!r} is not a nonnegative real"
        ]


class TestPower:
    def test_projection_idempotent(self):
        T = proj_affine(DOMAIN, np.array([1.0, 1.0]), 2.0)
        x = np.array([3.0, -1.0])
        once = T.evaluate(x)
        for n in (1, 2, 5):
            assert np.allclose(power(T, n, x), once)

    def test_quarter_turns(self):
        T = rotation(DOMAIN, math.pi / 2)
        assert np.allclose(power(T, 4, np.array([1.0, 0.0])), (1, 0))

    def test_sahu_hand_trace(self):
        # 0.8 -> 0 -> 0.5 -> 0.5
        T = sahu_step()
        assert power(T, 3, np.array([0.8]))[0] == 0.5
        bare = dataclasses.replace(T, meta=dataclasses.replace(T.meta, closed_form_power=None))
        assert power(bare, 3, np.array([0.8]))[0] == 0.5

    def test_power_one_is_evaluate(self):
        T = averaged_rotation(DOMAIN, 0.5, 0.3)
        x = np.array([1.0, 2.0])
        assert np.allclose(power(T, 1, x), T.evaluate(x), atol=1e-12)

    def test_bad_index(self):
        with pytest.raises(UsageError):
            power(identity_map(DOMAIN), 0, np.zeros(2))

    def test_domain_escape_names_step(self):
        escape = MappingHandle(
            name="escape",
            evaluate=lambda x: x + 1.0,
            domain=Box(np.zeros(1), np.ones(1)),
            maps_into_domain=True,
        )
        with pytest.raises(NumericError, match="step 2"):
            power(escape, 5, np.array([0.0]))


class TestCertifyLipschitz:
    def test_identity_passes(self):
        cert = certify_lipschitz(identity_map(DOMAIN), 1.0, samples=500)
        assert cert.passed

    def test_doubling_fails_with_witness(self):
        double = contraction(DOMAIN, 2.0)
        cert = certify_lipschitz(double, 1.0, samples=500)
        assert not cert.passed
        x, y = (np.array(v) for v in cert.witness)
        gap = norm(double.evaluate(x) - double.evaluate(y))
        assert gap > 1.0 * norm(x - y) + 1e-9

    def test_rotation_isometry(self):
        cert = certify_lipschitz(rotation(DOMAIN, 0.9), 1.0, samples=500)
        assert cert.passed
        assert cert.worst_margin <= 1e-12


class TestCertifyStrongMonotone:
    def test_identity_equality_case(self):
        cert = certify_strong_monotone(identity_map(DOMAIN), 1.0, samples=500)
        assert cert.passed
        assert abs(cert.worst_margin) <= 1e-9

    def test_doubling(self):
        cert = certify_strong_monotone(contraction(DOMAIN, 2.0), 2.0, samples=500)
        assert cert.passed

    def test_quarter_rotation_fails_any_modulus(self):
        # <Rx - Ry, x - y> = 0 for a quarter turn
        cert = certify_strong_monotone(rotation(DOMAIN, math.pi / 2), 0.1, samples=500)
        assert not cert.passed


class TestCertifyNearlyNonexpansive:
    def test_projection_zero_sequence(self):
        T = proj_affine(DOMAIN, np.array([1.0, 1.0]), 2.0)
        cert = certify_nearly_nonexpansive(T, zero_sequence(), 5, samples=300)
        assert cert.passed

    def test_sahu_passes_with_half(self):
        cert = certify_nearly_nonexpansive(sahu_step(), sahu_sequence(0.5), 4, samples=2000)
        assert cert.passed

    def test_sahu_fails_with_fifth(self):
        T = sahu_step()
        cert = certify_nearly_nonexpansive(T, sahu_sequence(0.2), 1, samples=2000)
        assert not cert.passed
        x, y = (np.array(v) for v in cert.witness)
        # the witness pair straddles the jump at 0.5 and re-violates directly
        assert min(x[0], y[0]) <= 0.5 < max(x[0], y[0])
        gap = norm(T.evaluate(x) - T.evaluate(y))
        assert gap > norm(x - y) + 0.2 + 1e-9
        assert cert.witness_power == 1


class TestCertifyCombined:
    def test_identity_zero(self):
        cert = certify_combined_monotone(
            identity_map(DOMAIN), zero_map(DOMAIN), rho=0.0, mu=1.0, samples=500
        )
        assert cert.passed
        assert abs(cert.worst_margin) <= 1e-9

    def test_identity_pair_exact_modulus(self):
        # (mu*F - rho*V)x = 0.5*x exactly
        cert = certify_combined_monotone(
            identity_map(DOMAIN), identity_map(DOMAIN), rho=0.5, mu=1.0, samples=500
        )
        assert cert.passed

    def test_precondition_gate(self):
        with pytest.raises(UsageError):
            certify_combined_monotone(
                identity_map(DOMAIN), identity_map(DOMAIN), rho=1.0, mu=1.0
            )

    def test_missing_metadata(self):
        with pytest.raises(UsageError):
            certify_combined_monotone(
                rotation(DOMAIN, 0.1), zero_map(DOMAIN), rho=0.0, mu=1.0
            )


class TestNuConstant:
    def test_unit_case(self):
        assert nu_constant(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_half_case(self):
        assert nu_constant(0.5, 1.0, 1.0) == pytest.approx(0.5)

    def test_small_mu_limit(self):
        assert 0 < nu_constant(1e-8, 1.0, 1.0) < 1e-6

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            nu_constant(3.0, 1.0, 1.0)
        with pytest.raises(UsageError):
            nu_constant(0.0, 1.0, 1.0)

    def test_extreme_constants(self):
        # L^2 = 1e400 overflows and (1e-300)^2 underflows to 0; each used to
        # raise a bare OverflowError or ZeroDivisionError
        with pytest.raises(UsageError, match=r"^mu must lie in \(0, 2e-200\), got 1.0$"):
            nu_constant(1.0, 1e200, 1e200)
        assert nu_constant(1e-201, 1e200, 1e200) == pytest.approx(0.1)
        assert nu_constant(1.0, 1e-300, 1e-300) == 0.0


class TestCertifyYamada:
    def test_identity(self):
        cert = certify_yamada_contraction(identity_map(DOMAIN), 0.5, 1.0, samples=500)
        assert cert.passed

    def test_lambda_gate(self):
        with pytest.raises(UsageError):
            certify_yamada_contraction(identity_map(DOMAIN), 1.0, 1.0)

    def test_doubling_map(self):
        # G = (1 - 0.8*lam) * I and nu = 0.8
        F = contraction(DOMAIN, 2.0)
        assert nu_constant(0.4, 2.0, 2.0) == pytest.approx(0.8)
        cert = certify_yamada_contraction(F, 0.5, 0.4, samples=500)
        assert cert.passed


FIXTURES = {
    "identity": identity_map(DOMAIN),
    "zero": zero_map(DOMAIN),
    "constant": constant_map(DOMAIN, np.array([1.0, -2.0])),
    "contraction": contraction(DOMAIN, 0.5),
    "linear_diag_1_2": linear_map(DOMAIN, np.diag([1.0, 2.0])),
    "proj_affine": proj_affine(DOMAIN, np.array([1.0, 1.0]), 2.0),
    "rotation": rotation(DOMAIN, math.pi / 4),
    "averaged_rotation": averaged_rotation(DOMAIN, 0.5, math.pi / 4),
    "sahu_step": sahu_step(),
}


def _handles_by_fixture():
    """``catalog_handles()``, grouped by the problem-file fixture each one is."""
    groups = {}
    for key, handle in catalog_handles():
        groups.setdefault(key.partition(" on ")[0], []).append((key, handle))
    return groups


CATALOG_HANDLES = _handles_by_fixture()


def test_self_certification_covers_every_problem_file_fixture():
    assert set(CATALOG_HANDLES) == set(problemfile._FIXTURES)


@pytest.mark.parametrize("name", sorted(CATALOG_HANDLES))
def test_fixture_metadata_self_certifies(name):
    """The declared constants of a fixture, on every catalog domain kind, at
    10^4 pairs: the one place the catalog's constants are certified."""
    for key, handle in CATALOG_HANDLES[name]:
        meta = handle.meta
        if meta.lipschitz is not None:
            assert certify_lipschitz(handle, meta.lipschitz, 10**4).passed, key
        if meta.strong_monotone is not None:
            assert certify_strong_monotone(handle, meta.strong_monotone, 10**4).passed, key
        if meta.nearly_seq is not None and handle.maps_into_domain:
            assert certify_nearly_nonexpansive(handle, meta.nearly_seq, 5, 10**4).passed, key


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(FIXTURES) if FIXTURES[n].meta.closed_form_power is not None],
)
def test_closed_form_power_matches_repeated_evaluation(name):
    handle = FIXTURES[name]
    bare = dataclasses.replace(
        handle, meta=dataclasses.replace(handle.meta, closed_form_power=None)
    )
    rng = np.random.default_rng(3)
    from hfp.geometry import sample

    for _ in range(100):
        x = sample(handle.domain, rng)
        for n in (1, 2, 3, 7, 16, 33, 64):
            assert norm(power(handle, n, x) - power(bare, n, x)) <= 1e-9


def test_certificates_bit_identical_across_runs():
    handle = FIXTURES["averaged_rotation"]
    a = certify_lipschitz(handle, handle.meta.lipschitz, samples=1000, seed=42)
    b = certify_lipschitz(handle, handle.meta.lipschitz, samples=1000, seed=42)
    assert a == b


def test_proj_affine_normal_must_match_the_domain():
    with pytest.raises(ProblemDefinitionError, match="match the domain"):
        proj_affine(DOMAIN, np.array([1.0, 1.0, 1.0]), 2.0)


def test_meta_validation():
    with pytest.raises(UsageError):
        OperatorMeta(strong_monotone=1.0)  # missing Lipschitz constant
    with pytest.raises(UsageError):
        OperatorMeta(lipschitz=1.0, strong_monotone=2.0)  # eta > L


@pytest.mark.parametrize(
    "domain, holds_origin",
    [
        (Ball(np.zeros(2), 10.0), True),
        (Ball(np.array([5.0, 5.0]), 1.0), False),
        (Box(np.zeros(2), np.ones(2)), True),
        (Box(np.array([-1.0, 2.0]), np.array([1.0, 3.0])), False),
    ],
)
def test_self_mapping_decided_from_the_domain(domain, holds_origin):
    """k*x for k < 1, and the zero map, send C into C exactly when 0 is in C."""
    assert zero_map(domain).maps_into_domain == holds_origin
    for k in (0.0, 0.5):
        assert contraction(domain, k).maps_into_domain == holds_origin
    assert contraction(domain, 1.0).maps_into_domain  # the identity
    assert not contraction(domain, 1.5).maps_into_domain


@pytest.mark.parametrize(
    "domain, holds",
    [
        (Box(np.zeros(1), np.ones(1)), True),
        (Box(np.array([0.2]), np.array([0.5])), True),
        (WholeSpace(1), True),
        (Box(np.array([2.0]), np.array([3.0])), False),  # T sends all of C to 0
        (Box(np.array([0.6]), np.array([1.0])), False),
        (Box(np.ones(1), np.ones(1)), False),
    ],
)
def test_sahu_step_self_mapping_decided_from_the_domain(domain, holds):
    """C holds 0.5 if it meets (-inf, 0.5], and 0 if it meets (0.5, inf)."""
    T = sahu_step(domain)
    assert T.domain is domain and T.maps_into_domain == holds


PLANE = Box(np.zeros(1), np.ones(1))  # a 1-d domain, for the planar fixtures


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: contraction(DOMAIN, -0.5), "scaling factor must be nonnegative"),
        (lambda: linear_map(DOMAIN, [[1, 0, 0], [0, 1, 0]]),
         "matrix must be square and match the domain"),
        (lambda: linear_map(DOMAIN, [[1, 1], [0, 1]]), "linear fixture requires a symmetric matrix"),
        (lambda: linear_map(DOMAIN, [[-1, 0], [0, -2]]),
         "linear fixture requires a positive top eigenvalue"),
        (lambda: rotation(PLANE, 0.3), "rotation is a planar fixture (dim 2)"),
        (lambda: averaged_rotation(PLANE, 0.5, 0.3), "averaged_rotation is a planar fixture (dim 2)"),
        (lambda: averaged_rotation(DOMAIN, 1.0, 0.3), "averaging weight must lie in (0, 1)"),
        (lambda: averaged_rotation(DOMAIN, 0.0, 0.3), "averaging weight must lie in (0, 1)"),
        (lambda: rotation(DOMAIN, math.nan), "rotation angle must be finite, not nan"),
        (lambda: rotation(DOMAIN, math.inf), "rotation angle must be finite, not inf"),
        (lambda: averaged_rotation(DOMAIN, 0.5, math.nan), "rotation angle must be finite, not nan"),
        (lambda: averaged_rotation(DOMAIN, 0.5, -math.inf), "rotation angle must be finite, not -inf"),
    ],
    ids=["negative_k", "non_square", "non_symmetric", "no_positive_eigenvalue",
         "rotation_dim", "averaged_rotation_dim", "lam_one", "lam_zero", "rotation_nan",
         "rotation_inf", "averaged_rotation_nan", "averaged_rotation_inf"],
)
def test_fixture_rejects_bad_parameters(build, message):
    with pytest.raises(ProblemDefinitionError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: OperatorMeta(lipschitz=-1.0), "a Lipschitz constant must be nonnegative"),
        (lambda: OperatorMeta(lipschitz=1.0, strong_monotone=0.0),
         "a strong-monotonicity modulus must be positive"),
        (lambda: OperatorMeta(lipschitz=math.nan), "a Lipschitz constant must be nonnegative"),
        (lambda: OperatorMeta(lipschitz=2.0, strong_monotone=math.nan),
         "a strong-monotonicity modulus must be positive"),
        (lambda: certify_lipschitz(identity_map(DOMAIN), -1.0),
         "claimed Lipschitz constant must be nonnegative"),
        (lambda: certify_strong_monotone(identity_map(DOMAIN), 0.0), "claimed modulus must be positive"),
        (lambda: certify_nearly_nonexpansive(identity_map(DOMAIN), zero_sequence(), 0),
         "n_max must be at least 1"),
        (lambda: certify_nearly_nonexpansive(linear_map(DOMAIN, np.diag([2.0, 3.0])), zero_sequence(), 1),
         "near-nonexpansiveness needs a self-mapping of the domain"),
        (lambda: certify_combined_monotone(identity_map(DOMAIN), sahu_step(), 0.0, 1.0),
         "V must declare a Lipschitz constant"),
        (lambda: nu_constant(1.0, 0.0, 1.0), "eta and L must be positive"),
        (lambda: nu_constant(1.0, 1.0, 0.0), "eta and L must be positive"),
        (lambda: certify_yamada_contraction(rotation(DOMAIN, 0.3), 0.5, 1.0),
         "F must declare Lipschitz and strong-monotonicity constants"),
    ],
    ids=["negative_lipschitz", "zero_modulus", "nan_lipschitz", "nan_modulus", "claimed_lipschitz",
         "claimed_modulus", "n_max", "nearly_not_self_mapping", "combined_v_without_gamma", "nu_eta",
         "nu_lipschitz", "yamada_f_without_constants"],
)
def test_operator_rejects_bad_arguments(call, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call()


# each catalog fixture but linear, with the parameters to build it on a
# domain of dimension 1 or 2; theta = 0, k = 1 and theta = 2*pi fix every point
FIX_SET_CASES = [
    ("identity", ()), ("zero", ()), ("constant", (np.array([0.5, -3.0]),)),
    ("contraction", (0.0,)), ("contraction", (0.5,)), ("contraction", (1.0,)),
    ("contraction", (2.0,)), ("proj_affine", (np.array([1.0, 2.0]), 3.0)),
    ("rotation", (0.0,)), ("rotation", (0.7,)), ("rotation", (2 * math.pi,)),
    ("rotation", (-4 * math.pi,)), ("averaged_rotation", (0.5, 0.0)),
    ("averaged_rotation", (0.5, 0.7)), ("averaged_rotation", (0.3, 2 * math.pi)),
    ("sahu_step", ()),
]
FIX_SET_DOMAINS = {
    "centred_ball": lambda d: Ball(np.zeros(d), 5.0),
    "off_centre_ball": lambda d: Ball(np.full(d, 3.0), 1.0),
    "box": lambda d: Box(np.full(d, -1.0), np.full(d, 2.0)),
    "wholespace": WholeSpace,
}


def test_fix_set_cases_cover_the_catalog():
    assert {name for name, _ in FIX_SET_CASES} == set(problemfile._FIXTURES) - {"linear"}
    assert linear_map(DOMAIN, np.eye(2)).meta.fix_set is None


@pytest.mark.parametrize("domain", sorted(FIX_SET_DOMAINS))
@pytest.mark.parametrize("name, args", FIX_SET_CASES)
def test_declared_fix_set_is_fixed(name, args, domain):
    C = FIX_SET_DOMAINS[domain](1 if name == "sahu_step" else 2)
    T = problemfile._FIXTURES[name][1](C, *args)
    fix_set = T.meta.fix_set
    assert fix_set.dim == C.dim
    for y in _sample_rows(fix_set, np.random.default_rng(5), 64):
        assert norm(T.evaluate(y) - y) <= FIX_POINT_TOL


RAW_HALF = dataclasses.replace(contraction(DOMAIN, 0.5), meta=OperatorMeta(lipschitz=0.5))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: power(contraction(DOMAIN, 0.5), 2.5, np.ones(2)), "power index = 2.5"),
        (lambda: power(RAW_HALF, 2.5, np.ones(2)), "power index = 2.5"),
        (lambda: step(_spec(RAW_HALF), 2.5, np.ones(2)), "iteration index = 2.5"),
        (lambda: check_power_regularity(RAW_HALF, SCHEDULE, [np.ones(2)], horizon=1000.5),
         "horizon = 1000.5"),
        (lambda: certify_lipschitz(RAW_HALF, 0.5, samples=10.5), "samples = 10.5"),
        (lambda: certify_nearly_nonexpansive(RAW_HALF, zero_sequence(), n_max=2.5), "n_max = 2.5"),
        (lambda: scalar_recursion(1.0, [0.5] * 3, [0.1] * 3, 2.5), "N = 2.5"),
    ],
    ids=["power", "raw_power", "step", "horizon", "samples", "n_max", "N"],
)
def test_integer_parameters_must_be_integers(call, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)} is not an integer$"):
        call()
