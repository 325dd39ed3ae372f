import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfp.geometry import UsageError
from hfp.operators import NearnessSequence
from hfp.schedules import (
    Schedule,
    power_schedule,
    scalar_recursion,
    validate_schedule,
)


def _power_arrays(fam, n):
    """alpha_1 .. alpha_n and beta_1 .. beta_n of a power family, as arrays."""
    ns = np.arange(1, n + 1, dtype=float)
    return fam.alpha0 * ns**-fam.p, fam.beta0 * ns**-fam.q


class TestPowerFamily:
    def test_closed_form_matches_callables(self):
        s = power_schedule(0.8, 0.5, 0.6, 0.9)
        for n in (1, 10, 1000):
            assert s.alpha(n) == pytest.approx(0.8 * n**-0.5, abs=1e-12)
            assert s.beta(n) == pytest.approx(0.6 * n**-0.9, abs=1e-12)

    def test_bad_parameters(self):
        with pytest.raises(UsageError):
            Schedule(0.0, 0.5, 1.0, 0.9)
        with pytest.raises(UsageError):
            Schedule(1.0, -0.5, 1.0, 0.9)
        with pytest.raises(UsageError):
            Schedule(1.0, 0.5, 1.5, 0.9)

    @pytest.mark.parametrize("p, q", [(math.nan, 0.9), (0.5, math.nan)])
    def test_nan_exponent_rejected(self, p, q):
        # a NaN exponent used to pass the "<= 0" test and reach the validator
        with pytest.raises(UsageError, match="decay exponents must be positive"):
            Schedule(1.0, p, 1.0, q)


class TestValidateSchedule:
    def test_default_schedule_passes(self):
        assert validate_schedule(power_schedule(1.0, 0.5, 1.0, 0.9)) == []

    def test_summable_alpha_rejected(self):
        failures = validate_schedule(power_schedule(1.0, 2.0, 1.0, 2.5))
        assert failures == ["sum of alpha diverges fails (p > 1)"]

    def test_beta_equal_alpha_rejected(self):
        failures = validate_schedule(power_schedule(1.0, 0.5, 1.0, 0.5))
        assert failures == ["beta_n / alpha_n -> 0 fails (beta0 > 0 and q <= p)"]

    def test_every_condition_reported_once(self):
        flat = NearnessSequence(lambda n: 1e-7)
        failures = validate_schedule(power_schedule(1.0, 1.5, 1.0, 1.2), flat)
        assert [f.split(" fails")[0] for f in failures] == [
            "sum of alpha diverges",
            "a_over_alpha trend check",
            "beta_n / alpha_n -> 0",
        ]

    def test_nearness_ratio_checked(self):
        slow = NearnessSequence(lambda n: 0.1 / n)
        assert validate_schedule(power_schedule(1.0, 0.5, 1.0, 0.9), slow) == []

    def test_nearness_ratio_failure_names_its_value(self):
        # a_n / alpha_n = 1e-7 * 10^6 at the horizon: the one trend left
        flat = NearnessSequence(lambda n: 1e-7)
        assert validate_schedule(power_schedule(1.0, 1.0, 1.0, 2.0), flat) == [
            "a_over_alpha trend check fails (value 0.1 at horizon)"
        ]

    @pytest.mark.parametrize("p, q", [(0.2, 0.6), (0.5, 0.55)])
    def test_slow_valid_schedules_pass(self, p, q):
        # n^-0.2 -> 0 and n^-0.05 -> 0, though slowly; finite-horizon trend
        # checks of alpha_n and beta_n / alpha_n used to reject both
        assert validate_schedule(Schedule(1.0, p, 1.0, q)) == []

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        alpha0=st.floats(1e-6, 1.0),
        p=st.floats(0.0, 3.0, exclude_min=True),
        beta0=st.floats(0.0, 1.0),
        q=st.floats(0.0, 3.0, exclude_min=True),
    )
    def test_exact_rule(self, alpha0, p, beta0, q):
        exact = p <= 1 and (beta0 == 0 or q > p)
        assert (validate_schedule(Schedule(alpha0, p, beta0, q)) == []) == exact

    def test_alpha_zero_is_usage_error(self):
        s = power_schedule(1.0, 1000.0, 1.0, 0.9)
        assert s.alpha(10**4) == 0.0  # underflow
        with pytest.raises(UsageError, match="alpha\\(10000\\) = 0"):
            validate_schedule(s)


class TestScalarRecursion:
    def test_full_step(self):
        final, traj = scalar_recursion(1.0, lambda n: 1.0, lambda n: 0.0, 1)
        assert final == 0.0
        assert traj.tolist() == [1.0, 0.0]

    def test_telescoping_exact_with_fractions(self):
        final, _ = scalar_recursion(
            Fraction(1), lambda n: Fraction(1, n + 1), lambda n: Fraction(0), 999
        )
        assert final == Fraction(1, 1000)

    @pytest.mark.parametrize("x1", [Fraction(1), 1.0])
    def test_fraction_values_stay_exact(self, x1):
        # a Fraction in x1 or in the values keeps the sequential loop
        alpha = [Fraction(1, n + 1) for n in range(1, 10)]
        final, traj = scalar_recursion(x1, alpha, [Fraction(1, 2)] * 9, 9)
        assert isinstance(traj, list) and len(traj) == 10
        if isinstance(x1, Fraction):
            assert final == Fraction(1, 2) + Fraction(1, 2) / 10
            assert all(isinstance(x, Fraction) for x in traj)
        else:
            assert final == pytest.approx(0.55, rel=1e-15)

    def test_telescoping_float_close(self):
        final, _ = scalar_recursion(1.0, lambda n: 1.0 / (n + 1), lambda n: 0.0, 999)
        assert final == pytest.approx(1e-3, rel=1e-12)

    def test_constant_beta_limit(self):
        final, _ = scalar_recursion(5.0, lambda n: 1.0 / n, lambda n: 0.3, 10**5)
        assert abs(final - 0.3) <= 1e-4

    def test_array_inputs(self):
        fam = Schedule(1.0, 0.5, 0.0, 0.9)
        final, traj = scalar_recursion(2.0, *_power_arrays(fam, 100), 100)
        ref, _ = scalar_recursion(2.0, fam.alpha, fam.beta, 100)
        assert final == ref
        assert len(traj) == 101

    def test_alpha_out_of_range(self):
        with pytest.raises(UsageError, match=r"^alpha value 2.0 is outside \[0, 1\]$"):
            scalar_recursion(1.0, lambda n: 2.0, lambda n: 0.0, 3)

    @pytest.mark.parametrize(
        "bad, text", [(2.0, "2.0"), (math.nan, "nan"), (-0.5, "-0.5"), (Fraction(3, 2), "3/2")]
    )
    @pytest.mark.parametrize("as_array", [False, True])
    def test_first_bad_alpha_is_named(self, bad, text, as_array):
        alpha = [0.5, bad, 7.0]
        if as_array:
            alpha = np.array(alpha, dtype=object if isinstance(bad, Fraction) else float)
        with pytest.raises(UsageError, match=rf"^alpha value {text} is outside \[0, 1\]$"):
            scalar_recursion(1.0, alpha, lambda n: 0.0, 3)

    def test_short_sequence_rejected(self):
        with pytest.raises(UsageError):
            scalar_recursion(1.0, [0.5, 0.5], [0.0, 0.0], 5)

    @pytest.mark.parametrize("x1", [math.nan, -1.0])
    def test_bad_x1_rejected(self, x1):
        # a NaN x1 used to pass the "< 0" test and give a NaN trajectory
        with pytest.raises(UsageError, match="x1 must be nonnegative"):
            scalar_recursion(x1, [0.5] * 3, [1.0] * 3, 3)

    def test_negative_n_rejected(self):
        with pytest.raises(UsageError, match="^N must be nonnegative$"):
            scalar_recursion(1.0, [0.5], [0.5], -1)


@settings(max_examples=50, deadline=None)
@given(
    x1=st.floats(0, 10),
    seed=st.integers(0, 2**16),
)
def test_monotone_tail_with_zero_beta(x1, seed):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.0, 200)
    final, traj = scalar_recursion(x1, alphas, np.zeros(200), 200)
    assert all(a >= b for a, b in zip(traj, traj[1:]))
    assert final >= 0.0


def _sequential(x1, alphas, betas):
    """The loop the float scan replaces, as a reference."""
    x, out = x1, [x1]
    for a, b in zip(alphas.tolist(), betas.tolist()):
        x = (1 - a) * x + a * b
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("seed", range(4))
def test_scan_matches_sequential_loop(seed):
    # the doubling scan reassociates products and sums; rounding is the only
    # allowed difference, so 1e-12 relative is far above float64's 1e-16 steps
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0)
    fam = Schedule(rng.uniform(0.5, 1.0), p, rng.uniform(0.0, 1.0), p + rng.uniform(0.4, 1.0))
    n, x1 = 10**5, rng.uniform(0, 10)
    alphas, betas = _power_arrays(fam, n)
    final, traj = scalar_recursion(x1, alphas, betas, n)
    ref = _sequential(x1, alphas, betas)
    assert traj.dtype == np.float64 and traj.shape == (n + 1,)
    assert np.all(np.abs(traj - ref) <= 1e-12 * np.abs(ref))
    assert final == traj[-1]


def test_scan_matches_sequential_loop_at_every_short_length():
    # lengths 2^m + 1 need the last doubling pass, at offset 2^m
    rng = np.random.default_rng(11)
    for n in range(70):
        alphas, betas, x1 = rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0, 10)
        final, traj = scalar_recursion(x1, alphas, betas, n)
        ref = _sequential(x1, alphas, betas)
        assert np.allclose(traj, ref, rtol=1e-12, atol=0.0), n
        assert final == traj[-1]


def test_random_power_schedules_drive_recursion_down():
    # smaller-scale version of the acceptance run (N = 10^4 here)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.uniform(0.1, 1.0)
        fam = Schedule(rng.uniform(0.5, 1.0), p, rng.uniform(0.0, 1.0), p + rng.uniform(0.6, 1.0))
        n = 10**4
        final, _ = scalar_recursion(rng.uniform(0, 10), *_power_arrays(fam, n), n)
        assert final < 0.2
