"""The three workloads: what one round runs and how its answers are checked.

Each workload has ``setup`` (what a user does before the first measured
operation: import, load, validate), ``prepare_checks`` (the independent
reference values, kept out of set-up time) and ``round``.  A round runs the
same operations every time; an operation that raises or exits with an
unexpected code counts as failed, and a wrong answer is reported in
``wrong``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from hfp import cli, fixtures, geometry, operators, problemfile, schedules, solver

import checks
from checks import WrongAnswer, expect
from clock import Clock
from inputs import Sizes, dykstra_inputs, hypotheses_inputs, minnorm_inputs

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
MINNORM_CFG = str(PROBLEMS / "minnorm.cfg")
SAHU_CFG = str(PROBLEMS / "sahu_step.cfg")
SHIPPED = [MINNORM_CFG, str(PROBLEMS / "rotation_fullpower.cfg"), SAHU_CFG]
# each raw power step of dykstra_power runs a Dykstra projection, so its
# set-up checks regularity at 10^3 instead of the library default of 10^4
DYKSTRA_REGULARITY_HORIZON = 10**3
# alpha_n = ALPHA0 n^-1/2 on dykstra_power: alpha_1 < 1 keeps x_2 off the corner
DYKSTRA_ALPHA0 = 0.5


@dataclasses.dataclass
class Round:
    """Times are in reference seconds (see ``clock.py``)."""

    run_s: float = 0.0  # the round's user operations
    solve_s: float = 0.0  # inside solver.solve
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: list = dataclasses.field(default_factory=list)


class SolveClock:
    """Times the ``solve`` calls the CLI makes, with one timer per call."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.seconds = 0.0
        self.iterations = 0

    def _timed(self, *args, **kwargs):
        t0 = self.clock.now()
        report = self._solve(*args, **kwargs)
        self.seconds += self.clock.now() - t0
        self.iterations += report.iterations
        return report

    def __enter__(self):
        self._solve = cli.solve
        cli.solve = self._timed
        return self

    def __exit__(self, *exc):
        cli.solve = self._solve
        return False


@dataclasses.dataclass
class CliCall:
    rc: int
    out: str
    seconds: float
    solve_seconds: float
    iterations: int


def run_cli(argv, clock: Clock = Clock()) -> CliCall:
    """``hfp-bench`` in-process, timed in reference seconds."""
    out = io.StringIO()
    mark = clock.mark()
    with SolveClock(clock) as solves, contextlib.redirect_stdout(out):
        t0 = clock.now()
        rc = cli.main([str(a) for a in argv])
        seconds = clock.now() - t0
    scale = clock.scale(mark)
    return CliCall(rc, out.getvalue(), seconds * scale, solves.seconds * scale, solves.iterations)


class Operation:
    """One operation: failures are counted, wrong answers listed, in ``rnd``
    (a :class:`Round`, or anything else with ``attempted``, ``failed`` and
    ``wrong``)."""

    def __init__(self, rnd, what: str):
        self.rnd = rnd
        self.what = what

    def __enter__(self):
        self.rnd.attempted += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            return False
        if issubclass(exc_type, WrongAnswer):
            self.rnd.wrong.append(f"{self.what}: {exc}")
        elif issubclass(exc_type, Exception):
            self.rnd.failed += 1
            print(f"operation failed: {self.what}: {exc_type.__name__}: {exc}", file=sys.stderr)
        else:
            return False
        return True


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.clock = Clock()  # run.py swaps in a calibrating Sampler

    def setup(self):
        raise NotImplementedError

    def prepare_checks(self):
        pass

    def round(self, tracer=None) -> Round:
        raise NotImplementedError


class Minnorm(Workload):
    """``hfp-bench run problems/minnorm.cfg``: one long closed-form solve."""

    name = "minnorm"

    def setup(self):
        self.inputs = minnorm_inputs(self.seed)
        self.argv_set = [
            "--seed", self.inputs.problem_seed,
            "--set", f"stop.tol_step={self.sizes.minnorm_tol_step!r}",
        ]
        raw = problemfile.parse_problem_file(MINNORM_CFG)
        raw = problemfile.apply_overrides(raw, [
            f"problem.seed={self.inputs.problem_seed}",
            f"stop.tol_step={self.sizes.minnorm_tol_step!r}",
        ])
        built = problemfile.build_problem(raw)
        violations = solver.validate_problem(built.spec)
        expect(not violations, f"minnorm.cfg is reported invalid: {violations}")
        regularity = solver.check_power_regularity(built.spec.T, built.spec.schedule, [built.spec.x1])
        expect(regularity.passed, "minnorm.cfg fails the power-regularity check")
        self.limit = built.stop.max_iters

    def prepare_checks(self):
        self.derivation = checks.MinnormDerivation(MINNORM_CFG)
        self.trace_path = os.path.join(self.workdir, "minnorm.trace.csv")
        self.first_digest = None

    def round(self, tracer=None) -> Round:
        rnd = Round()
        with Operation(rnd, "run minnorm.cfg"):
            call = run_cli(["run", MINNORM_CFG, "--trace-out", self.trace_path, *self.argv_set], self.clock)
            if call.rc != cli.EXIT_OK:
                raise RuntimeError(f"hfp-bench run exited with {call.rc}")
            rnd.run_s, rnd.solve_s, rnd.iterations = call.seconds, call.solve_seconds, call.iterations
            count, digest = checks.check_minnorm_trace(
                self.derivation, self.trace_path, self.sizes.minnorm_tol_step, self.limit
            )
            if self.first_digest is None:
                self.first_digest = digest
            expect(digest == self.first_digest, "two runs with the same seed wrote different traces")
            expect(count == rnd.iterations, f"trace has {count} rows for {rnd.iterations} iterations")
            checks.check_minnorm_final(self.derivation, checks.parse_final_x(call.out), count)
        return rnd


class DykstraPower(Workload):
    """Library ``solve`` in FullPower mode with a raw T over a Dykstra intersection."""

    name = "dykstra_power"

    def make_spec(self, tracer=None):
        inp = self.inputs
        C = geometry.Intersection((geometry.Ball(inp.center, inp.radius), geometry.Halfspace(-inp.e, -inp.t0)))
        a, lam = inp.a, inp.lam

        def averaged_projection(x):
            x = np.asarray(x, dtype=float)
            return x - lam * float(np.dot(a, x)) * a

        seen = []

        def zero_observer(x):
            seen.append(np.array(x, dtype=float))
            return np.zeros(3)

        T = operators.MappingHandle(
            name="averaged_projection",
            evaluate=averaged_projection,
            domain=C,
            maps_into_domain=True,
            meta=operators.OperatorMeta(lipschitz=1.0, nearly_seq=operators.NearnessSequence(lambda n: 0.0)),
        )
        V = operators.MappingHandle(
            name="zero_observer", evaluate=zero_observer, domain=C, maps_into_domain=False,
            meta=operators.OperatorMeta(lipschitz=0.0),
        )
        if tracer is not None:
            T, V = tracer.traced_handle(T), tracer.traced_handle(V)
        spec = solver.ProblemSpec(
            C=C, T=T, S=fixtures.identity_map(C), V=V, F=fixtures.identity_map(C),
            rho=0.0, mu=1.0, schedule=schedules.power_schedule(DYKSTRA_ALPHA0, 0.5, 1.0, 0.9),
            mode=solver.FullPower(), x1=inp.x1, seed=self.seed,
        )
        return spec, seen

    def setup(self):
        self.inputs = dykstra_inputs(self.seed)
        spec, _ = self.make_spec()
        violations = solver.validate_problem(spec)
        expect(not violations, f"dykstra_power problem is reported invalid: {violations}")
        regularity = solver.check_power_regularity(
            spec.T, spec.schedule, [spec.x1], horizon=DYKSTRA_REGULARITY_HORIZON
        )
        expect(regularity.passed, f"T fails the power-regularity check: {regularity.per_probe}")
        self.stop = solver.StopRule(max_iters=self.sizes.dykstra_iters, tol_step=None, tol_fix=None, tol_vi=None)

    def prepare_checks(self):
        self.alpha = DYKSTRA_ALPHA0 * np.arange(1, self.sizes.dykstra_iters + 1, dtype=float) ** -0.5
        self.x_star = self.inputs.min_norm_point
        found = checks.scipy_min_norm_point(self.inputs)  # None without scipy: the KKT point alone is the reference
        if found is not None:
            expect(
                np.linalg.norm(found - self.x_star) <= 1e-6,
                f"scipy's minimum-norm point {found} disagrees with t0*(e + f) = {self.x_star}",
            )
        self.first_final = None

    def round(self, tracer=None) -> Round:
        rnd = Round()
        with Operation(rnd, "solve dykstra_power"):
            spec, seen = self.make_spec(tracer)
            mark, t0 = self.clock.mark(), self.clock.now()
            report = solver.solve(spec, self.stop)
            rnd.run_s = rnd.solve_s = (self.clock.now() - t0) * self.clock.scale(mark)
            rnd.iterations = report.iterations
            expect(
                report.stop_reason == "budget" and report.iterations == self.stop.max_iters,
                f"stopped by {report.stop_reason} after {report.iterations} iterations",
            )
            checks.check_dykstra(self.inputs, self.alpha, np.array(seen), report.final_x, self.x_star)
            if self.first_final is None:
                self.first_final = report.final_x.copy()
            expect(np.array_equal(report.final_x, self.first_final), "two identical solves disagree")
        return rnd


class Hypotheses(Workload):
    """Certifiers, CLI validate/sweep/compare, power regularity, scalar recursion."""

    name = "hypotheses"

    def setup(self):
        self.inputs = hypotheses_inputs(self.seed)
        for path in SHIPPED:
            raw = problemfile.apply_overrides(
                problemfile.parse_problem_file(path), [f"problem.seed={self.inputs.problem_seed}"]
            )
            violations = solver.validate_problem(problemfile.build_problem(raw).spec)
            expect(not violations, f"{path} is reported invalid: {violations}")

    def prepare_checks(self):
        self.derivation = checks.MinnormDerivation(MINNORM_CFG)
        self.sweep_path = os.path.join(self.workdir, "sweep.csv")
        self.compare_stem = os.path.join(self.workdir, "compare")

    # one timed call; the round's run_s is the sum over its operations
    def _timed(self, rnd: Round, fn, *args):
        mark, t0 = self.clock.mark(), self.clock.now()
        result = fn(*args)
        rnd.run_s += (self.clock.now() - t0) * self.clock.scale(mark)
        return result

    def _certifiers(self, rnd: Round):
        inp, n = self.inputs, self.sizes.cert_samples
        seeds = iter(inp.cert_seeds)
        ball = geometry.Ball(np.zeros(2), 10.0)

        A = np.diag(inp.lip_diag)
        M = fixtures.linear_map(geometry.Halfspace(inp.lip_normal, inp.lip_offset), A)
        L = max(inp.lip_diag)
        for claimed, honest in ((L, True), (0.5 * L, False)):
            with Operation(rnd, f"certify_lipschitz honest={honest}"):
                cert = self._timed(rnd, operators.certify_lipschitz, M, claimed, n, next(seeds))
                checks.check_certificate(cert, honest, checks.lipschitz_margin(A, claimed), "lipschitz")

        A = np.diag(inp.sm_diag)
        M = fixtures.linear_map(geometry.AffineHyperplane(inp.sm_normal, inp.sm_offset), A)
        t = np.array([-inp.sm_normal[1], inp.sm_normal[0]])
        along = float(t @ A @ t)  # every sampled difference is parallel to t
        for claimed, honest in ((min(inp.sm_diag), True), (1.25 * along, False)):
            with Operation(rnd, f"certify_strong_monotone honest={honest}"):
                cert = self._timed(rnd, operators.certify_strong_monotone, M, claimed, n, next(seeds))
                checks.check_certificate(cert, honest, checks.strong_monotone_margin(A, claimed), "strong monotone")

        T = fixtures.sahu_step()
        for a1, honest in ((0.5, True), (inp.false_a1, False)):
            with Operation(rnd, f"certify_nearly_nonexpansive honest={honest}"):
                cert = self._timed(
                    rnd, operators.certify_nearly_nonexpansive,
                    T, fixtures.sahu_sequence(a1), self.sizes.cert_n_max, n, next(seeds),
                )
                checks.check_certificate(
                    cert, honest, checks.nearly_nonexpansive_margin(a1, cert.witness_power), "near-nonexpansiveness"
                )

        A = np.diag(inp.cm_diag)
        eta, L = min(inp.cm_diag), max(inp.cm_diag)
        F = fixtures.linear_map(ball, A)
        V = fixtures.contraction(ball, inp.cm_k)
        mu = eta / L**2
        rho = 0.5 * mu * eta / inp.cm_k
        overstated = dataclasses.replace(
            F, meta=operators.OperatorMeta(lipschitz=L, strong_monotone=0.5 * (eta + L))
        )
        for handle, declared, honest in ((F, eta, True), (overstated, 0.5 * (eta + L), False)):
            with Operation(rnd, f"certify_combined_monotone honest={honest}"):
                cert = self._timed(rnd, operators.certify_combined_monotone, handle, V, rho, mu, n, next(seeds))
                modulus = mu * declared - rho * inp.cm_k
                checks.check_certificate(
                    cert, honest, checks.combined_monotone_margin(A, inp.cm_k, rho, mu, modulus), "combined monotone"
                )
        lam = inp.yamada_lam
        for handle, declared, honest in ((F, eta, True), (overstated, 0.5 * (eta + L), False)):
            with Operation(rnd, f"certify_yamada_contraction honest={honest}"):
                cert = self._timed(rnd, operators.certify_yamada_contraction, handle, lam, mu, n, next(seeds))
                factor = checks.yamada_factor(lam, mu, declared, L)
                checks.check_certificate(cert, honest, checks.yamada_margin(A, lam, mu, factor), "yamada contraction")

    def _run_cli(self, rnd: Round, argv) -> tuple:
        call = run_cli(argv, self.clock)
        rnd.run_s += call.seconds
        rnd.solve_s += call.solve_seconds
        rnd.iterations += call.iterations
        return call.rc, call.out

    def _cli(self, rnd: Round):
        inp, m = self.inputs, self.sizes.cli_max_iters
        seed_args = ["--set", f"problem.seed={inp.problem_seed}"]
        for path in SHIPPED:
            with Operation(rnd, f"validate {Path(path).name}"):
                rc, out = self._run_cli(rnd, ["validate", path, *seed_args])
                expect(rc == cli.EXIT_OK and out == "valid\n", f"validate exited {rc}: {out!r}")

        ps = [*inp.sweep_p, inp.sweep_p_rejected]
        with Operation(rnd, "sweep minnorm.cfg"):
            rc, out = self._run_cli(rnd, [
                "sweep", MINNORM_CFG, "--p-values", *[repr(p) for p in ps], "--q-offset", "0.4",
                "--max-iters", m, "--seed", inp.problem_seed, "--out", self.sweep_path, "--quiet",
            ])
            expect(rc == cli.EXIT_OK, f"sweep exited {rc}")
            with open(self.sweep_path, encoding="utf-8") as handle:
                checks.check_sweep(self.derivation, handle.read(), inp.sweep_p, inp.sweep_p_rejected, 0.4, m)

        # T = P_H is idempotent and S = I, so every variant runs the same iteration
        self._compare(rnd, MINNORM_CFG, ("full_power", "wang_xu", "ceng", "sahu"), ("full_power", "wang_xu", "ceng", "sahu"))
        # the constant mapping sequence T_n = T applies T once, exactly like wang_xu
        self._compare(rnd, SAHU_CFG, ("full_power", "wang_xu", "sahu"), ("wang_xu", "sahu"))

    def _compare(self, rnd: Round, path: str, variants, equal):
        m, name = self.sizes.cli_max_iters, Path(path).stem
        stem = f"{self.compare_stem}.{name}"
        with Operation(rnd, f"compare {name}"):
            rc, out = self._run_cli(rnd, [
                "compare", path, *variants, "--max-iters", m,
                "--seed", self.inputs.problem_seed, "--trace-out", f"{stem}.csv",
            ])
            expect(rc == cli.EXIT_OK, f"compare exited {rc}")
            table = checks.parse_compare_table(out)
            expect(sorted(table) == sorted(variants), f"compare rows {sorted(table)}")
            traces = {}
            for v in equal:
                with open(f"{stem}.{v}.csv", "rb") as handle:
                    traces[v] = handle.read()
            checks.check_compare_equal(table, traces, equal)
            if path == MINNORM_CFG:
                checks.check_minnorm_compare_row(self.derivation, table["full_power"], m)

    def _regularity(self, rnd: Round):
        inp = self.inputs
        ball = geometry.Ball(np.zeros(2), 10.0)
        schedule = schedules.power_schedule(1.0, 0.5, 1.0, 0.9)
        horizon = 10**4  # the library default, which ``run`` uses
        probes = [np.array(p) for p in inp.regularity_probes]

        def rot(theta):
            c, s = math.cos(theta), math.sin(theta)
            return np.array([[c, -s], [s, c]])

        M = (1.0 - inp.avg_lam) * np.eye(2) + inp.avg_lam * rot(inp.avg_theta)
        a, off = inp.plane_normal, inp.plane_offset
        cases = (
            ("averaged_rotation", fixtures.averaged_rotation(ball, inp.avg_lam, inp.avg_theta),
             lambda n, x: checks.matrix_power(M, n) @ x, True),
            ("rotation", fixtures.rotation(ball, inp.rot_theta), lambda n, x: rot(n * inp.rot_theta) @ x, False),
            ("proj_affine", fixtures.proj_affine(ball, a, off),
             lambda n, x: x if n == 0 else x - (float(a @ x) - off) / float(a @ a) * a, True),
        )
        for what, T, hand_power, passes in cases:
            with Operation(rnd, f"check_power_regularity {what}"):
                report = self._timed(rnd, solver.check_power_regularity, T, schedule, probes, horizon)
                checks.check_regularity(report, hand_power, horizon, passes, what)

    def _recursion(self, rnd: Round):
        inp = self.inputs
        n = self.sizes.recursion_float_n
        alpha = 1.0 / np.arange(2, n + 2, dtype=float)
        beta = np.full(n, inp.rec_b)
        with Operation(rnd, "scalar_recursion float"):
            x, _ = self._timed(rnd, schedules.scalar_recursion, inp.rec_x1, alpha, beta, n)
            checks.check_float_recursion(x, inp.rec_x1, inp.rec_b, n)
        n = self.sizes.recursion_fraction_n
        with Operation(rnd, "scalar_recursion Fraction"):
            x, _ = self._timed(
                rnd, schedules.scalar_recursion, Fraction(1), lambda k: Fraction(1, k + 1), lambda k: Fraction(0), n
            )
            checks.check_fraction_recursion(x, n)

    def round(self, tracer=None) -> Round:
        rnd = Round()
        self._certifiers(rnd)
        self._cli(rnd)
        self._regularity(rnd)
        self._recursion(rnd)
        return rnd


WORKLOADS = {w.name: w for w in (Minnorm, DykstraPower, Hypotheses)}
