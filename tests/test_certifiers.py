"""The certifiers against plain per-pair reference loops, and their NaN handling.

The reference loops below draw one pair at a time, evaluate it and keep the
first strictly larger margin, exactly as the certifiers did before they
computed all margins of a call as arrays.  The certificates must agree bit
for bit: ``passed``, ``repr(worst_margin)``, ``witness`` and
``witness_power``.
"""
import dataclasses
import math

import numpy as np
import pytest

from hfp.fixtures import (
    averaged_rotation,
    contraction,
    identity_map,
    linear_map,
    rotation,
    sahu_sequence,
    sahu_step,
    zero_map,
)
from hfp.geometry import (
    SAMPLING_RADIUS,
    Ball,
    Box,
    UsageError,
)
from hfp.operators import (
    CERT_TOL,
    Certificate,
    MappingHandle,
    OperatorMeta,
    _sample_pairs,
    certify_combined_monotone,
    certify_lipschitz,
    certify_nearly_nonexpansive,
    certify_strong_monotone,
    certify_yamada_contraction,
    nu_constant,
    power,
    zero_sequence,
)
from conftest import random_set

KINDS = ("ball", "box", "halfspace", "hyperplane", "intersection")
SEEDS = (0, 1, 2)
SAMPLES = 300


# ---------------------------------------------------------------- reference


def ref_sample(convex_set, rng):
    if isinstance(convex_set, Box):
        return rng.uniform(convex_set.lower, convex_set.upper)

    def ball_draw(dim, radius):
        direction = rng.standard_normal(dim)
        length = np.linalg.norm(direction)
        if length == 0.0:
            direction = np.ones(dim)
            length = np.linalg.norm(direction)
        return direction / length * radius * rng.random() ** (1.0 / dim)

    if isinstance(convex_set, Ball):
        return convex_set.center + ball_draw(convex_set.dim, convex_set.radius)
    return convex_set.project(ball_draw(convex_set.dim, SAMPLING_RADIUS))


def ref_pair(domain, rng):
    x = ref_sample(domain, rng)
    for _ in range(64):
        y = ref_sample(domain, rng)
        if np.linalg.norm(x - y) > 0.0:
            return x, y
    raise UsageError("degenerate domain: cannot sample two distinct points")


def as_witness(x, y):
    return (tuple(float(v) for v in x), tuple(float(v) for v in y))


def ref_loop(domain, samples, seed, margins_of):
    """``margins_of(x, y)`` lists a pair's margins, one per power n."""
    rng = np.random.default_rng(seed)
    worst, witness, witness_power = -math.inf, None, None
    for _ in range(samples):
        x, y = ref_pair(domain, rng)
        for n, margin in enumerate(margins_of(x, y), start=1):
            if margin > worst:
                worst, witness, witness_power = margin, as_witness(x, y), n
    return worst, witness, witness_power


def ref_certificate(domain, samples, seed, margins_of, powers=False):
    worst, witness, witness_power = ref_loop(domain, samples, seed, margins_of)
    return Certificate(
        worst <= CERT_TOL, worst, witness, samples, seed, witness_power if powers else None
    )


def norm(v):
    return float(np.linalg.norm(v))


def ref_lipschitz(M, claimed, samples, seed):
    def margins(x, y):
        return [norm(np.asarray(M.evaluate(x)) - np.asarray(M.evaluate(y))) - claimed * norm(x - y)]

    return ref_certificate(M.domain, samples, seed, margins)


def ref_strong_monotone(F, claimed, samples, seed):
    def margins(x, y):
        d = x - y
        gap = float(np.dot(np.asarray(F.evaluate(x)) - np.asarray(F.evaluate(y)), d))
        return [claimed * float(np.dot(d, d)) - gap]

    return ref_certificate(F.domain, samples, seed, margins)


def ref_nearly_nonexpansive(T, seq, n_max, samples, seed):
    def margins(x, y):
        base = norm(x - y)
        return [norm(power(T, n, x) - power(T, n, y)) - base - seq(n) for n in range(1, n_max + 1)]

    return ref_certificate(T.domain, samples, seed, margins, powers=True)


def ref_combined_monotone(F, V, rho, mu, samples, seed):
    modulus = mu * F.meta.strong_monotone - rho * V.meta.lipschitz

    def margins(x, y):
        d = x - y
        gx = mu * np.asarray(F.evaluate(x)) - rho * np.asarray(V.evaluate(x))
        gy = mu * np.asarray(F.evaluate(y)) - rho * np.asarray(V.evaluate(y))
        return [modulus * float(np.dot(d, d)) - float(np.dot(gx - gy, d))]

    return ref_certificate(F.domain, samples, seed, margins)


def ref_yamada_contraction(F, lam, mu, samples, seed):
    factor = 1.0 - lam * nu_constant(mu, F.meta.strong_monotone, F.meta.lipschitz)

    def margins(x, y):
        gx = x - lam * mu * np.asarray(F.evaluate(x))
        gy = y - lam * mu * np.asarray(F.evaluate(y))
        return [norm(gx - gy) - factor * norm(x - y)]

    return ref_certificate(F.domain, samples, seed, margins)


# -------------------------------------------------------------------- cases


def projection_onto(C, stretch):
    """x -> P_C(c + stretch * (x - c)) about a point c of C: a raw self-mapping
    of C that is nonexpansive for stretch <= 1 and expands near c otherwise."""
    c = C.project(np.zeros(C.dim))
    return MappingHandle(
        name=f"stretched_projection({stretch})",
        evaluate=lambda x: C.project(c + stretch * (np.asarray(x) - c)),
        domain=C,
        maps_into_domain=True,
        meta=OperatorMeta(lipschitz=stretch),
    )


def overstated(F, L):
    """F declared with eta = L' = 2L, twice its true constants."""
    return dataclasses.replace(F, meta=OperatorMeta(lipschitz=2 * L, strong_monotone=2 * L))


def certifier_cases(kind, seed):
    """(name, honest, certifier call, reference call) on one random domain."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    dim = (1, 2, 5)[seed]
    if kind == "hyperplane":
        dim = max(dim, 2)  # a hyperplane of R^1 is a point
    C = random_set(kind, rng, dim)
    diag = rng.uniform(0.5, 3.0, dim)
    eta, L = float(diag.min()), float(diag.max())
    F = linear_map(C, np.diag(diag))
    V = contraction(C, 0.5)
    n = SAMPLES // 3 if kind == "intersection" else SAMPLES  # Dykstra is slow
    s = int(rng.integers(0, 2**31 - 1))
    cases = [
        ("lipschitz", True, certify_lipschitz, ref_lipschitz, (F, L)),
        ("lipschitz", False, certify_lipschitz, ref_lipschitz, (F, 0.5 * eta)),
        ("strong_monotone", True, certify_strong_monotone, ref_strong_monotone, (F, eta)),
        ("strong_monotone", False, certify_strong_monotone, ref_strong_monotone, (F, 1.5 * L)),
        ("nearly_nonexpansive", True, certify_nearly_nonexpansive, ref_nearly_nonexpansive,
         (projection_onto(C, 1.0), zero_sequence(), 3)),
        ("nearly_nonexpansive", False, certify_nearly_nonexpansive, ref_nearly_nonexpansive,
         (projection_onto(C, 2.0), zero_sequence(), 3)),
        ("nearly_nonexpansive", True, certify_nearly_nonexpansive, ref_nearly_nonexpansive,
         (identity_map(C), zero_sequence(), 2)),
        ("combined_monotone", True, certify_combined_monotone, ref_combined_monotone,
         (F, V, 0.5 * (eta / L**2) * eta / 0.5, eta / L**2)),
        ("combined_monotone", False, certify_combined_monotone, ref_combined_monotone,
         (overstated(F, L), V, 0.5, 0.5 / L)),
        ("yamada_contraction", True, certify_yamada_contraction, ref_yamada_contraction,
         (F, 0.5, eta / L**2)),
        ("yamada_contraction", False, certify_yamada_contraction, ref_yamada_contraction,
         (overstated(F, L), 0.5, 0.5 / L)),
    ]
    return [(name, honest, new, ref, args + (n, s)) for name, honest, new, ref, args in cases]


def fixture_cases():
    """The closed-form power fixtures of the hypotheses benchmark."""
    ball = Ball(np.zeros(2), 10.0)
    return [
        ("sahu", True, (sahu_step(), sahu_sequence(0.5), 3)),
        ("sahu", False, (sahu_step(), sahu_sequence(0.2), 3)),
        ("rotation", True, (rotation(ball, 0.7), zero_sequence(), 4)),
        ("averaged_rotation", True, (averaged_rotation(ball, 0.5, 0.3), zero_sequence(), 4)),
    ]


def assert_same(cert, ref):
    assert cert == ref
    assert repr(cert.worst_margin) == repr(ref.worst_margin)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_certificates_match_the_per_pair_loop(kind, seed):
    for name, honest, certify, reference, args in certifier_cases(kind, seed):
        ref = reference(*args)
        assert_same(certify(*args), ref)
        if not honest:
            assert not ref.passed, name


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_fixtures_match_the_per_pair_loop(seed):
    for name, honest, args in fixture_cases():
        ref = ref_nearly_nonexpansive(*args, SAMPLES, seed)
        assert_same(certify_nearly_nonexpansive(*args, SAMPLES, seed), ref)
        assert ref.passed == honest, name


def every_certifier(handle, samples=SAMPLES, seed=0):
    """All five certifiers on one handle whose metadata they need."""
    meta = handle.meta
    return {
        "lipschitz": lambda: certify_lipschitz(handle, meta.lipschitz, samples, seed),
        "strong_monotone": lambda: certify_strong_monotone(
            handle, meta.strong_monotone, samples, seed
        ),
        "nearly_nonexpansive": lambda: certify_nearly_nonexpansive(
            handle, zero_sequence(), 2, samples, seed
        ),
        "combined_monotone": lambda: certify_combined_monotone(
            handle, zero_map(handle.domain), 0.0, 1.0, samples, seed
        ),
        "yamada_contraction": lambda: certify_yamada_contraction(handle, 0.5, 1.0, samples, seed),
    }


def test_degenerate_domain_is_a_usage_error():
    point = Box(np.ones(2), np.ones(2))
    for name, run in every_certifier(identity_map(point)).items():
        with pytest.raises(UsageError, match="degenerate domain"):
            run()


def test_too_few_samples_is_a_usage_error():
    for samples in (1, 0, -3):
        for name, run in every_certifier(identity_map(Ball(np.zeros(2), 1.0)), samples).items():
            with pytest.raises(UsageError, match="at least two samples"):
                run()


def nan_after(threshold, domain=None):
    """The identity, except NaN wherever x_0 >= threshold; nearly
    nonexpansive through a closed form, so no raw membership test sees it."""
    domain = domain or Ball(np.zeros(2), 10.0)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, np.nan) if x[0] >= threshold else x.copy()

    return MappingHandle(
        name=f"nan_after({threshold})",
        evaluate=evaluate,
        domain=domain,
        maps_into_domain=True,
        meta=OperatorMeta(
            lipschitz=1.0, strong_monotone=1.0, closed_form_power=lambda n, x: evaluate(x)
        ),
    )


@pytest.mark.parametrize("threshold", [-math.inf, 0.0])
def test_nonfinite_margin_fails_with_the_first_such_pair(threshold):
    # threshold -inf: every value is NaN, which used to pass with witness None
    handle = nan_after(threshold)
    X, Y = _sample_pairs(handle.domain, SAMPLES, 0)
    first = int(np.argmax((X[:, 0] >= threshold) | (Y[:, 0] >= threshold)))
    for name, run in every_certifier(handle).items():
        cert = run()
        assert not cert.passed, name
        assert math.isnan(cert.worst_margin), name
        assert cert.witness == as_witness(X[first], Y[first]), name
        if name == "nearly_nonexpansive":
            assert cert.witness_power == 1

