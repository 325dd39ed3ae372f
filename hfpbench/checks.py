"""Answer checks that do not trust `hfp`.

Every expected value here is derived by hand, recomputed with the
benchmark's own numpy, or found by ``scipy.optimize``; nothing is compared
with saved output.  A check raises :class:`WrongAnswer` with the first
discrepancy it finds.
"""
from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps
# x_{n+1} = z - alpha*z with z = P_H(y) rounds a few times per iteration;
# 16 ulps of 1 bounds the error of each column derived from it
ULPS = 16 * EPS
MEMBER_TOL = 1e-9  # Dykstra stops at a cycle change of 1e-10
FINAL_TOL = 1e-8  # dykstra_power's x_{N+1} against x*: Dykstra's tolerance, with room
TRACE_BLOCK = 8192  # trace rows parsed at once


class WrongAnswer(Exception):
    """An output of `hfp` disagrees with the independent computation."""


def expect(ok: bool, message: str):
    if not ok:
        raise WrongAnswer(message)


# ---------------------------------------------------------------- minnorm


class MinnormDerivation:
    """Closed form of the shipped min-norm problem.

    T = P_H onto H = {x1 + x2 = 2}, S = F = I, V = 0, rho = 0, mu = 1,
    x_1 = (3, 4).  With alpha_1 = 1 the first step lands on the origin, and
    from then on y_n = x_n is symmetric, so T^n y_n = (1, 1) and
    x_{n+1} = (1 - alpha_n) (1, 1).  Hence step_norm_n = sqrt(2) *
    (alpha_{n-1} - alpha_n) for n >= 2, and fix_residual_n =
    dist_to_reference_n = sqrt(2) * alpha_n.
    """

    def __init__(self, cfg_path: str):
        raw = configparser.ConfigParser(interpolation=None)
        raw.optionxform = str
        raw.read(cfg_path, encoding="utf-8")
        expected = {
            ("problem", "x1"): "3 4",
            ("problem", "reference"): "1 1",
            ("problem", "rho"): "0.0",
            ("problem", "mu"): "1.0",
            ("T", "fixture"): "proj_affine",
            ("T", "normal"): "1 1",
            ("T", "offset"): "2",
            ("S", "fixture"): "identity",
            ("V", "fixture"): "zero",
            ("F", "fixture"): "identity",
            ("schedule", "alpha0"): "1.0",
            ("set", "kind"): "ball",
        }
        for (section, key), value in expected.items():
            expect(
                raw.get(section, key, fallback=None) == value,
                f"{cfg_path}: [{section}] {key} is no longer {value!r}; "
                "the hand derivation does not apply",
            )
        self.p = float(raw["schedule"]["p"])
        self.q = float(raw["schedule"]["q"])
        self.beta0 = float(raw["schedule"]["beta0"])

    def alpha(self, n: np.ndarray, p: float | None = None) -> np.ndarray:
        return np.asarray(n, dtype=float) ** -(self.p if p is None else p)

    def step_norm(self, n: np.ndarray, p: float | None = None) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        out = math.sqrt(2.0) * (self.alpha(np.maximum(n - 1, 1), p) - self.alpha(n, p))
        return np.where(n == 1, 5.0, out)  # ||0 - (3, 4)||

    def residual(self, n: np.ndarray, p: float | None = None) -> np.ndarray:
        return math.sqrt(2.0) * self.alpha(n, p)

    def stop_iteration(self, tol: float, limit: int) -> int:
        n = np.arange(1, limit + 1)
        hits = np.nonzero(self.step_norm(n) <= tol)[0]
        expect(hits.size > 0, f"tol_step {tol} never fires within {limit} iterations")
        return int(hits[0]) + 1


TRACE_HEADER = "n,alpha,beta,step_norm,fix_residual,vi_residual,dist_to_reference,elapsed_ns"


def check_minnorm_trace(d: MinnormDerivation, path: str, tol_step: float, limit: int) -> tuple:
    """Check every column of a ``run`` trace whose ``elapsed_ns`` is empty.

    The file is read in blocks of ``TRACE_BLOCK`` rows, so the check holds
    little memory and never sets the peak that ``peak_rss_mb`` reports.
    Returns the row count and the sha256 of the file.
    """
    digest = hashlib.sha256()
    count = 0
    with open(path, "rb") as handle:
        header = handle.readline()
        digest.update(header)
        expect(header == (TRACE_HEADER + "\n").encode(), f"unexpected trace header {header!r}")
        while True:
            lines = list(itertools.islice(handle, TRACE_BLOCK))
            if not lines:
                break
            for i, line in enumerate(lines, start=count + 1):
                digest.update(line)
                expect(line.count(b",") == 7 and line.endswith(b",\n"), f"malformed trace row {i}")
            block = np.loadtxt([line.decode() for line in lines], delimiter=",", usecols=range(7), ndmin=2)
            _check_minnorm_block(d, block, count)
            count += len(lines)
    expect(count > 0, "trace has no rows")
    expected_stop = d.stop_iteration(tol_step, limit)
    near_tol = abs(float(d.step_norm(expected_stop)) - tol_step) <= ULPS
    expect(
        count == expected_stop or (near_tol and abs(count - expected_stop) <= 1),
        f"tol_step fired at n={count}, the hand derivation says n={expected_stop}",
    )
    return count, digest.hexdigest()


def _check_minnorm_block(d: MinnormDerivation, t: np.ndarray, before: int):
    """Rows ``before + 1`` .. of a trace against the hand derivation."""
    n = np.arange(before + 1, before + t.shape[0] + 1, dtype=float)
    expect(np.array_equal(t[:, 0], n), "trace rows are not numbered 1..N")
    expect(np.allclose(t[:, 1], d.alpha(n), rtol=4 * EPS, atol=0), "alpha column is off")
    expect(
        np.allclose(t[:, 2], d.beta0 * n**-d.q, rtol=4 * EPS, atol=0), "beta column is off"
    )
    expect(np.allclose(t[:, 3], d.step_norm(n), rtol=0, atol=ULPS), "step_norm column is off")
    expect(
        np.allclose(t[:, 4], d.residual(n), rtol=0, atol=ULPS), "fix_residual column is off"
    )
    # -2 alpha (1 - alpha) <= 0 at every probe, so the clamp gives exactly 0
    expect(np.all(t[:, 5] == 0.0), "vi_residual column is not exactly 0")
    expect(
        np.allclose(t[:, 6], d.residual(n), rtol=0, atol=ULPS),
        "dist_to_reference column is off",
    )


def parse_final_x(stdout: str) -> np.ndarray:
    for line in stdout.splitlines():
        if line.startswith("final x"):
            body = line.split(":", 1)[1].strip().strip("[]")
            return np.array([float(v) for v in body.split(",")])
    raise WrongAnswer("run printed no final iterate")


def check_minnorm_final(d: MinnormDerivation, final_x: np.ndarray, iterations: int):
    expected = (1.0 - d.alpha(iterations)) * np.ones(2)
    expect(
        final_x.shape == (2,) and np.allclose(final_x, expected, rtol=0, atol=ULPS),
        f"final iterate {final_x.tolist()} is not (1 - alpha_N)(1, 1) = {expected.tolist()}",
    )


def check_sweep(d: MinnormDerivation, text: str, p_values, p_rejected: float, q_offset: float, max_iters: int):
    """Admissible rows run to the budget with fix_residual sqrt(2) alpha_M;
    the row with p > 1 is rejected for a summable alpha series."""
    lines = text.rstrip("\n").split("\n")
    expect(lines[0] == "p,q,status,iterations_to_tol,final_residual", "sweep header")
    rows = [line.split(",") for line in lines[1:]]
    grid = sorted([(p, p + q_offset) for p in p_values] + [(p_rejected, p_rejected + q_offset)])
    expect(len(rows) == len(grid), f"sweep wrote {len(rows)} rows for {len(grid)} points")
    for (p, q), row in zip(grid, rows):
        expect(float(row[0]) == p and float(row[1]) == q, f"sweep row order at p={p}")
        if p > 1.0:
            expect(
                row[2].startswith("rejected:") and "p > 1" in row[2],
                f"p={p} > 1 has a summable alpha series but the sweep says {row[2]!r}",
            )
            continue
        expect(row[2] == "ok" and row[3] == "", f"p={p}: expected a budget stop, got {row}")
        hand = float(d.residual(max_iters, p))
        expect(abs(float(row[4]) - hand) <= ULPS, f"p={p}: final residual {row[4]} != {hand!r}")


def parse_compare_table(stdout: str) -> dict:
    lines = [line.split() for line in stdout.strip().splitlines()]
    expect(lines and lines[0][:3] == ["variant", "stop", "iters"], "compare table header")
    return {row[0]: row[1:] for row in lines[1:]}


def check_compare_equal(table: dict, traces: dict, variants):
    """Variants that the problem makes equal give bit-identical rows and traces."""
    first = variants[0]
    for v in variants[1:]:
        expect(table[v] == table[first], f"compare rows differ: {first} {table[first]} vs {v} {table[v]}")
        expect(traces[v] == traces[first], f"compare traces of {first} and {v} differ")


def check_minnorm_compare_row(d: MinnormDerivation, row, max_iters: int):
    stop, iters, step_norm, fix_residual = row[0], int(row[1]), float(row[2]), float(row[3])
    expect(stop == "budget" and iters == max_iters, f"compare row {row} is not a budget stop")
    expect(abs(step_norm - float(d.step_norm(max_iters))) <= ULPS, "compare step_norm is off")
    expect(abs(fix_residual - float(d.residual(max_iters))) <= ULPS, "compare fix_residual is off")


# ----------------------------------------------------------- dykstra_power


def scipy_min_norm_point(inp):
    """argmin ||x|| over Fix(T) ∩ C, found by SLSQP in a child process (see
    ``reference.py``), not by `hfp`; ``None`` if scipy is not installed."""
    problem = {"a": inp.a.tolist(), "e": inp.e.tolist(), "t0": inp.t0,
               "center": inp.center.tolist(), "radius": inp.radius}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        input=json.dumps(problem), capture_output=True, text=True, timeout=120,
    )
    expect(proc.returncode == 0, f"scipy could not find the minimum-norm point: {proc.stderr.strip()[-300:]}")
    point = json.loads(proc.stdout)
    return None if point is None else np.array(point)


def check_dykstra(inp, alpha: np.ndarray, iterates: np.ndarray, final_x: np.ndarray, x_star: np.ndarray):
    """``iterates`` holds x_1 .. x_N as seen by V; ``final_x`` is x_{N+1}.

    With S = F = I and V = 0, x_{n+1} = P_C[(1 - alpha_n) T^n x_n], and T^n
    scales the distance <a, x> to Fix(T) = H by (1 - lam)^n.  C is symmetric
    about H, so P_C never makes |<a, x>| larger.  Hence
    |<a, x_{n+1}>| <= (1 - alpha_n) (1 - lam)^n |<a, x_n>|.  Once that is
    below rounding, x_n is on the segment [0, x*], which P_C maps onto
    x* = P_C(0); only Dykstra's tolerance remains, far below alpha_N |x*|.
    """
    points = np.vstack([iterates, final_x])
    expect(points.shape == (alpha.size + 1, 3), f"saw {points.shape[0]} iterates, expected {alpha.size + 1}")
    in_ball = np.linalg.norm(points - inp.center, axis=1) <= inp.radius + MEMBER_TOL
    in_half = points @ inp.e >= inp.t0 - MEMBER_TOL
    expect(bool(np.all(in_ball)), f"iterate {int(np.argmin(in_ball)) + 1} leaves the ball")
    expect(bool(np.all(in_half)), f"iterate {int(np.argmin(in_half)) + 1} leaves the halfspace")
    u = np.abs(points @ inp.a)
    n = np.arange(1, alpha.size + 1, dtype=float)
    shrunk = u[1:] <= (1.0 - alpha) * (1.0 - inp.lam) ** n * u[:-1] + MEMBER_TOL
    expect(
        bool(np.all(shrunk)),
        f"iterate {int(np.argmin(shrunk)) + 2} is farther from Fix(T) than T^n and P_C allow",
    )
    err = float(np.linalg.norm(final_x - x_star))
    expect(err <= FINAL_TOL, f"final iterate is {err:.3e} from the minimum-norm point, allowed {FINAL_TOL:.0e}")


# -------------------------------------------------------------- hypotheses


def _pair(cert):
    expect(cert.witness is not None, "certificate carries no witness pair")
    x, y = (np.array(v, dtype=float) for v in cert.witness)
    return x, y


def check_certificate(cert, should_pass: bool, margin_fn, what: str):
    """An honest declaration passes; a false one fails, and its witness
    re-violates the inequality by the reported margin when re-evaluated
    with ``margin_fn(x, y)``, which is independent of `hfp`."""
    expect(cert.passed == should_pass, f"{what}: passed={cert.passed}, expected {should_pass}")
    x, y = _pair(cert)
    margin = margin_fn(x, y)
    expect(
        abs(margin - cert.worst_margin) <= 1e-9 * max(1.0, abs(margin)),
        f"{what}: witness margin re-evaluates to {margin!r}, certificate says {cert.worst_margin!r}",
    )
    if not should_pass:
        expect(margin > 1e-9, f"{what}: witness does not violate the inequality ({margin!r})")


def lipschitz_margin(A: np.ndarray, claimed: float):
    return lambda x, y: float(np.linalg.norm(A @ (x - y)) - claimed * np.linalg.norm(x - y))


def strong_monotone_margin(A: np.ndarray, claimed: float):
    def margin(x, y):
        d = x - y
        return float(claimed * np.dot(d, d) - np.dot(A @ d, d))

    return margin


def step_map(x: float) -> float:
    return 0.5 if x <= 0.5 else 0.0


def nearly_nonexpansive_margin(a1: float, power: int):
    """sahu_step: T^n x = 0.5 for n >= 2, and a_n = 0 after a_1."""

    def margin(x, y):
        tx = step_map(x[0]) if power == 1 else 0.5
        ty = step_map(y[0]) if power == 1 else 0.5
        return abs(tx - ty) - abs(x[0] - y[0]) - (a1 if power == 1 else 0.0)

    return margin


def combined_monotone_margin(A: np.ndarray, k: float, rho: float, mu: float, modulus: float):
    def margin(x, y):
        d = x - y
        g = mu * (A @ d) - rho * k * d
        return float(modulus * np.dot(d, d) - np.dot(g, d))

    return margin


def yamada_factor(lam: float, mu: float, eta: float, lip: float) -> float:
    return 1.0 - lam * (1.0 - math.sqrt(max(1.0 - mu * (2.0 * eta - mu * lip**2), 0.0)))


def yamada_margin(A: np.ndarray, lam: float, mu: float, factor: float):
    G = np.eye(A.shape[0]) - lam * mu * A

    def margin(x, y):
        return float(np.linalg.norm(G @ (x - y)) - factor * np.linalg.norm(x - y))

    return margin


def matrix_power(M: np.ndarray, n: int) -> np.ndarray:
    """Repeated squaring, kept apart from the fixtures' own powers."""
    result = np.eye(M.shape[0])
    base = M.copy()
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result


def check_regularity(report, M_power, horizon: int, should_pass: bool, what: str):
    """Recompute ||T^n x - T^{n-1} x|| at the three probe indices."""
    expect(report.passed == should_pass, f"{what}: passed={report.passed}, expected {should_pass}")
    ns = [max(horizon // 100, 2), max(horizon // 10, 2), horizon]
    for entry in report.per_probe:
        x = np.array(entry["probe"])
        hand = [float(np.linalg.norm(M_power(n, x) - M_power(n - 1, x))) for n in ns]
        expect(
            np.allclose(entry["diffs"], hand, rtol=1e-9, atol=1e-12),
            f"{what}: diffs {entry['diffs']} != recomputed {hand}",
        )
        if not should_pass:
            expect(
                not entry["passed"] and hand[-1] >= 0.05,
                f"{what}: chord {hand[-1]!r} at the horizon does not violate the 0.05 trend",
            )


def check_float_recursion(x_final: float, x1: float, b: float, n: int):
    """alpha_n = 1/(n+1), beta_n = b: x_{N+1} = b + (x1 - b)/(N+1)."""
    expected = b + (x1 - b) / (n + 1)
    expect(
        abs(x_final - expected) <= 1e-9 * max(abs(x1), abs(b)),
        f"float recursion gave {x_final!r}, closed form {expected!r}",
    )


def check_fraction_recursion(x_final, n: int):
    expect(x_final == Fraction(1, n + 1), f"Fraction recursion gave {x_final}, expected 1/{n + 1}")
