"""End-to-end gate: one test per advertised guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also enforces its runtime budget.
"""
import math
import shutil
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hfp import cli
from hfp.fixtures import (
    averaged_rotation,
    contraction,
    identity_map,
    linear_map,
    proj_affine,
    rotation,
    sahu_sequence,
    sahu_step,
    zero_map,
)
from hfp.geometry import Ball, WholeSpace, norm, project, sample
from hfp.operators import (
    certify_combined_monotone,
    certify_nearly_nonexpansive,
    certify_yamada_contraction,
)
from hfp.problemfile import build_problem, parse_problem_file
from hfp.schedules import Schedule, power_schedule, scalar_recursion, validate_schedule
from hfp.solver import (
    check_power_regularity,
    reduce_variant,
    solve,
    validate_problem,
)
from conftest import SET_KINDS, budget_stop, random_set

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
DOMAIN = Ball(np.zeros(2), 10.0)


def report(criterion: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}{tail}")
    assert ok, f"{criterion}{tail}"


@pytest.fixture(scope="module")
def minnorm_run():
    """Criterion 4/6 share one solve of the min-norm benchmark problem."""
    built = build_problem(parse_problem_file(str(PROBLEMS_DIR / "minnorm.cfg")))
    t0 = time.perf_counter()
    result = solve(built.spec, built.stop)
    return result, time.perf_counter() - t0


def test_01_projection_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_char, worst_nonexp = 0.0, 0.0
    per_kind = 1000 // len(SET_KINDS) + 1
    n = 0
    for kind in SET_KINDS:
        for _ in range(per_kind):
            s = random_set(kind, rng)
            x = sample(WholeSpace(s.dim), rng)
            x2 = sample(WholeSpace(s.dim), rng)
            y = sample(s, rng)
            px, px2 = project(s, x), project(s, x2)
            worst_char = max(worst_char, float(np.dot(x - px, y - px)))
            worst_nonexp = max(worst_nonexp, norm(px - px2) - norm(x - x2))
            n += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 01 projection law",
        n >= 1000 and worst_char <= 1e-9 and worst_nonexp <= 1e-12 and elapsed < 5,
        f"{n} triples, char {worst_char:.2e}, nonexp {worst_nonexp:.2e}, {elapsed:.2f}s",
    )


def test_02_lemma_certificates():
    t0 = time.perf_counter()
    f_cases = [
        (identity_map(DOMAIN), 1.0),  # eta = L = 1, mu < 2
        (linear_map(DOMAIN, np.diag([1.0, 2.0])), 0.4),  # eta = 1, L = 2, mu < 0.5
    ]
    v_cases = [zero_map(DOMAIN), contraction(DOMAIN, 0.5)]
    ok = True
    for F, mu in f_cases:
        for V in v_cases:
            gamma = V.meta.lipschitz or 0.0
            rho = 0.0 if gamma == 0.0 else 0.25 * mu / gamma  # keeps rho*gamma < mu*eta
            combined = certify_combined_monotone(F, V, rho=rho, mu=mu, samples=10**4)
            yamada = certify_yamada_contraction(F, 0.5, mu, samples=10**4)
            ok = ok and combined.passed and yamada.passed
    elapsed = time.perf_counter() - t0
    report(
        "criterion 02 lemma certificates",
        ok and elapsed < 10,
        f"4 fixture combos x 10^4 pairs, {elapsed:.2f}s",
    )


def test_03_scalar_recursion():
    t0 = time.perf_counter()
    exact, _ = scalar_recursion(
        Fraction(1), lambda n: Fraction(1, n + 1), lambda n: Fraction(0), 999
    )
    exact_ok = exact == Fraction(1, 1000)

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(0.1, 1.0)
        fam = Schedule(
            rng.uniform(0.5, 1.0), p, rng.uniform(0.0, 1.0), p + rng.uniform(0.4, 1.0)
        )
        n = 10**6
        ns = np.arange(1, n + 1, dtype=float)
        final, _ = scalar_recursion(
            rng.uniform(0, 10), fam.alpha0 * ns**-fam.p, fam.beta0 * ns**-fam.q, n
        )
        worst = max(worst, final)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 03 scalar recursion",
        exact_ok and worst < 1e-2 and elapsed < 30,
        f"exact 1/1000: {exact_ok}, worst of 50 schedules {worst:.2e}, {elapsed:.2f}s",
    )


def test_04_min_norm_convergence(minnorm_run):
    result, elapsed = minnorm_run
    err = norm(result.final_x - np.array([1.0, 1.0]))
    report(
        "criterion 04 min-norm convergence",
        err <= 1e-2 and result.iterations <= 10**5 and elapsed < 60,
        f"error {err:.2e} after {result.iterations} iters, {elapsed:.2f}s",
    )


def test_05_nearly_nonexpansive_fixture():
    built = build_problem(parse_problem_file(str(PROBLEMS_DIR / "sahu_step.cfg")))
    t0 = time.perf_counter()
    result = solve(built.spec, built.stop)
    elapsed = time.perf_counter() - t0
    err = abs(result.final_x[0] - 0.5)
    report(
        "criterion 05 nearly nonexpansive fixture",
        err <= 1e-3 and result.iterations <= 10**5 and elapsed < 60,
        f"error {err:.2e} after {result.iterations} iters, {elapsed:.2f}s",
    )


def test_06_vi_residual_decay(minnorm_run):
    result, _ = minnorm_run
    by_n = {row.n: row.vi_residual for row in result.trace}
    early, late, final = by_n[10**2], by_n[10**4], result.trace[-1].vi_residual
    report(
        "criterion 06 vi residual decay",
        late <= 0.1 * early and final <= 1e-4,
        f"vi(1e2)={early:.2e}, vi(1e4)={late:.2e}, final={final:.2e}",
    )


def test_07_reduction_equivalences():
    import dataclasses

    C = Ball(np.zeros(2), 10.0)
    ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        x1 = sample(C, rng)
        base = dict(
            C=C,
            S=identity_map(C),
            V=zero_map(C),
            F=identity_map(C),
            rho=0.0,
            mu=1.0,
            x1=x1,
        )
        from hfp.solver import FullPower, ProblemSpec

        # (a) beta == 0 makes S irrelevant: wang_xu == ceng
        a = ProblemSpec(
            T=averaged_rotation(C, 0.5, math.pi / 4),
            schedule=power_schedule(1.0, 0.5, 0.0, 0.9),
            mode=FullPower(),
            **{**base, "S": contraction(C, 0.8)},
        )
        ok = ok and (
            solve(reduce_variant(a, "wang_xu"), budget_stop(100)).trace
            == solve(reduce_variant(a, "ceng"), budget_stop(100)).trace
        )
        # (b) idempotent T: T^n == T, FullPower == Single
        b = ProblemSpec(
            T=proj_affine(C, np.array([1.0, 1.0]), 2.0),
            schedule=power_schedule(1.0, 0.5, 1.0, 0.9),
            mode=FullPower(),
            **base,
        )
        ok = ok and (
            solve(reduce_variant(b, "full_power"), budget_stop(100)).trace
            == solve(reduce_variant(b, "wang_xu"), budget_stop(100)).trace
        )
        # (c) constant mapping sequence T_n = T == applying T once
        c = dataclasses.replace(b, T=averaged_rotation(C, 0.5, math.pi / 4))
        ok = ok and (
            solve(reduce_variant(c, "sahu"), budget_stop(100)).trace
            == solve(reduce_variant(c, "wang_xu"), budget_stop(100)).trace
        )
    report(
        "criterion 07 reduction equivalences",
        ok,
        "3 identities x 100 iterations x seeds {0,1,2}, bit-exact traces",
    )


def test_08_negative_controls():
    from hfp.solver import FullPower, ProblemSpec

    C = Ball(np.zeros(2), 10.0)

    def spec(**kw):
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
        base.update(kw)
        return ProblemSpec(**base)

    checks = {
        "mu bound": any("mu" in v for v in validate_problem(spec(mu=3.0))),
        "rho*gamma bound": any(
            "rho*gamma" in v
            for v in validate_problem(spec(V=contraction(C, 1.0), rho=2.0))
        ),
        "summable alpha": bool(validate_schedule(power_schedule(1.0, 2.0, 1.0, 2.5))),
        "beta equals alpha": bool(validate_schedule(power_schedule(1.0, 0.5, 1.0, 0.5))),
        "rotation fails regularity": not check_power_regularity(
            rotation(C, math.pi / 4), power_schedule(1.0, 0.5, 1.0, 0.9), [np.array([1.0, 0.0])]
        ).passed,
        "projection passes regularity": check_power_regularity(
            proj_affine(C, np.array([1.0, 1.0]), 2.0),
            power_schedule(1.0, 0.5, 1.0, 0.9),
            [np.array([3.0, 4.0])],
        ).passed,
        "averaged rotation passes regularity": check_power_regularity(
            averaged_rotation(C, 0.5, math.pi / 4),
            power_schedule(1.0, 0.5, 1.0, 0.9),
            [np.array([1.0, 0.0])],
        ).passed,
    }
    bad = [name for name, ok in checks.items() if not ok]
    report("criterion 08 negative controls", not bad, "failed: " + ", ".join(bad) if bad else "7 controls")


def test_09_certifier_soundness():
    T = sahu_step()
    good = certify_nearly_nonexpansive(T, sahu_sequence(0.5), 4, samples=2000)
    bad = certify_nearly_nonexpansive(T, sahu_sequence(0.2), 1, samples=2000)
    reverified = False
    if bad.witness is not None:
        x, y = (np.array(v) for v in bad.witness)
        gap = norm(T.evaluate(x) - T.evaluate(y))
        reverified = gap > norm(x - y) + 0.2
    report(
        "criterion 09 certifier soundness",
        good.passed and not bad.passed and reverified,
        "a1=0.5 passes, a1=0.2 fails with re-verified witness",
    )


def test_10_cli_determinism(tmp_path):
    cfg = tmp_path / "minnorm.cfg"
    shutil.copy(PROBLEMS_DIR / "minnorm.cfg", cfg)

    runs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        cli.main(
            ["run", str(cfg), "--max-iters", "500", "--trace-out", str(out), "--quiet"]
        )
        runs.append(out.read_bytes())

    sweeps = []
    for name in ("sweep1.csv", "sweep2.csv"):
        out = tmp_path / name
        cli.main(
            [
                "sweep",
                str(cfg),
                "--p-values",
                "0.5",
                "0.8",
                "--max-iters",
                "300",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        sweeps.append(out.read_bytes())

    report(
        "criterion 10 cli determinism",
        runs[0] == runs[1] and sweeps[0] == sweeps[1] and len(runs[0]) > 0,
        "run and sweep outputs byte-identical across repeat invocations",
    )


def test_11_quadratic_minimisation(tmp_path):
    """quadmin.cfg: min (1/2) mu <D x, x> - rho <b, x> over H = {x1 + x2 = 2},
    with T = P_H, S = I, V = b = (1, 1), rho = 1, F = D = diag(2, 1),
    mu = 1/4, C = R^2 and alpha_n = n^-1/2.

    The VI over H asks b - mu D x* to be normal to H, so 1 - x1/2 = 1 - x2/4
    and x* = (2/3, 4/3), where b - mu D x* = (2/3, 2/3).  T^n = P_H, so with
    p_n = P_H x_n the iteration reads x_{n+1} = p_n + alpha_n (b - mu D p_n).
    On H, D scales the direction (1, -1) by 3/2, hence
    p_{n+1} - x* = (1 - 1.5 mu alpha_n)(p_n - x*), and the product over n
    reaches about 2e-82 by n = 62,737.  From then on, to rounding,
    x_{n+1} = x* + alpha_n (2/3, 2/3), so step n moves by
    (alpha_{n-1} - alpha_n) |(2/3, 2/3)| and ``step`` (tol 3e-8) first fires at
    the first n where that is <= 3e-8.  The error left there is
    alpha_N 2 sqrt(2) / 3, about 3.8e-3: a step stop says nothing of accuracy.

    T = P_H is idempotent and S = I, so every variant runs the same iteration;
    C = R^2 lets marino_xu apply too.
    """
    built = build_problem(parse_problem_file(str(PROBLEMS_DIR / "quadmin.cfg")))
    t0 = time.perf_counter()
    result = solve(built.spec, built.stop)
    elapsed = time.perf_counter() - t0

    x_star, w = np.array([2 / 3, 4 / 3]), np.array([2 / 3, 2 / 3])
    moved = lambda n: ((n - 1) ** -0.5 - n**-0.5) * norm(w)  # noqa: E731
    hand_n = next(n for n in range(2, 10**5) if moved(n) <= 3e-8)
    error = norm(result.final_x - (x_star + hand_n**-0.5 * w))

    variants = ("full_power", "wang_xu", "ceng", "marino_xu", "sahu")
    argv = ["compare", str(PROBLEMS_DIR / "quadmin.cfg"), *variants, "--max-iters", "2000"]
    code = cli.main([*argv, "--trace-out", str(tmp_path / "q.csv"), "--quiet"])
    traces = {(tmp_path / f"q.{v}.csv").read_bytes() for v in variants}

    report(
        "criterion 11 quadratic minimisation",
        result.stop_reason == "step"
        and result.iterations == hand_n == 62737
        and error <= 1e-12
        and elapsed < 30
        and code == cli.EXIT_OK
        and len(traces) == 1,
        f"stop {result.stop_reason} at {result.iterations} (hand {hand_n}), "
        f"|x - formula| {error:.1e}, {elapsed:.2f}s, {len(traces)} distinct compare trace(s)",
    )
