"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest hfpbench -q

Every workload runs to its end untraced and traced, and every answer check
rejects a deliberately wrong answer.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from checks import WrongAnswer  # noqa: E402
from inputs import TINY, dykstra_inputs  # noqa: E402
from spans import Summary, Tracer  # noqa: E402
from workloads import WORKLOADS, MINNORM_CFG, run_cli  # noqa: E402

from hfp import fixtures, geometry, operators, schedules, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def ready(name, tmp_path, seed=5):
    workload = WORKLOADS[name](seed, TINY, str(tmp_path))
    workload.setup()
    workload.prepare_checks()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_to_its_end(name, tmp_path):
    workload = ready(name, tmp_path)
    for _ in range(2):  # the second round also compares against the first
        rnd = workload.round()
        assert rnd.attempted > 0 and rnd.failed == 0 and rnd.wrong == []
        assert rnd.iterations > 0 and rnd.solve_s > 0 and rnd.run_s > 0
    with Tracer() as tracer:
        rnd = workload.round(tracer)
    assert rnd.failed == 0 and rnd.wrong == []
    metrics = Summary(tracer, 1).metrics()
    assert metrics["solver.iterations"][0] == rnd.iterations
    assert geometry.ConvexSet.project.__name__ == "project"  # patches are undone
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_pct"}
    assert set(metrics) == expected


def test_every_workload_is_listed():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


# ---------------------------------------------------------------- minnorm


@pytest.fixture(scope="module")
def minnorm_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("minnorm") / "t.csv"
    call = run_cli([
        "run", MINNORM_CFG, "--trace-out", path, "--set", f"stop.tol_step={TINY.minnorm_tol_step!r}",
    ])
    assert call.rc == 0
    return path.read_text(), checks.parse_final_x(call.out)


def check_text(text, tmp_path):
    path = tmp_path / "edited.csv"
    path.write_text(text)
    d = checks.MinnormDerivation(MINNORM_CFG)
    return checks.check_minnorm_trace(d, str(path), TINY.minnorm_tol_step, 10**5)[0]


def test_minnorm_check_accepts_the_real_trace(minnorm_run, tmp_path):
    text, final = minnorm_run
    count = check_text(text, tmp_path)
    checks.check_minnorm_final(checks.MinnormDerivation(MINNORM_CFG), final, count)


def test_minnorm_check_reads_the_trace_in_blocks(minnorm_run, tmp_path, monkeypatch):
    text, _ = minnorm_run
    monkeypatch.setattr(checks, "TRACE_BLOCK", 7)
    assert check_text(text, tmp_path) == len(text.split("\n")) - 2
    lines = text.split("\n")
    lines[9] = _edit_row(lines[9], 0, 3, "0.25")  # row 9 is in the second block
    with pytest.raises(WrongAnswer):
        check_text("\n".join(lines), tmp_path)


def _edit_row(text, row, column, value):
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("column", [1, 2, 3, 4, 6])
def test_minnorm_check_rejects_a_perturbed_column(minnorm_run, tmp_path, column):
    text, _ = minnorm_run
    old = float(text.split("\n")[-2].split(",")[column])
    with pytest.raises(WrongAnswer):
        check_text(_edit_row(text, -2, column, repr(old * (1 + 1e-9))), tmp_path)


def test_minnorm_check_rejects_a_nonzero_vi_a_late_stop_and_a_bad_row(minnorm_run, tmp_path):
    text, _ = minnorm_run
    with pytest.raises(WrongAnswer):
        check_text(_edit_row(text, 3, 5, "1e-300"), tmp_path)
    lines = text.split("\n")
    n = int(lines[-2].split(",")[0])
    extra = _edit_row(lines[-2], 0, 0, str(n + 1))
    with pytest.raises(WrongAnswer):
        check_text(text + extra + "\n", tmp_path)
    with pytest.raises(WrongAnswer, match="malformed"):
        check_text(text + extra + "1\n", tmp_path)


def test_minnorm_check_rejects_a_perturbed_final_iterate(minnorm_run):
    text, final = minnorm_run
    d = checks.MinnormDerivation(MINNORM_CFG)
    count = len(text.split("\n")) - 2
    with pytest.raises(WrongAnswer):
        checks.check_minnorm_final(d, final + np.array([1e-12, 0.0]), count)


def test_sweep_and_compare_checks_reject_wrong_rows():
    d = checks.MinnormDerivation(MINNORM_CFG)
    m, p = 40, 0.5
    good_residual = repr(float(d.residual(m, p)))
    header = "p,q,status,iterations_to_tol,final_residual\n"
    rejected = "1.2,1.6,rejected: sum of alpha diverges fails (p > 1),,\n"
    checks.check_sweep(d, header + f"0.5,0.9,ok,,{good_residual}\n" + rejected, [p], 1.2, 0.4, m)
    with pytest.raises(WrongAnswer):
        checks.check_sweep(d, header + f"0.5,0.9,ok,,{float(good_residual) * 1.001!r}\n" + rejected, [p], 1.2, 0.4, m)
    with pytest.raises(WrongAnswer):
        checks.check_sweep(d, header + f"0.5,0.9,ok,,{good_residual}\n1.2,1.6,ok,,0.1\n", [p], 1.2, 0.4, m)
    table = {"full_power": ["budget", "40", "1e-3", "0.1", "0.0"], "wang_xu": ["budget", "40", "1e-3", "0.2", "0.0"]}
    with pytest.raises(WrongAnswer):
        checks.check_compare_equal(table, {"full_power": b"x", "wang_xu": b"x"}, ["full_power", "wang_xu"])
    table["wang_xu"] = table["full_power"]
    with pytest.raises(WrongAnswer):
        checks.check_compare_equal(table, {"full_power": b"x", "wang_xu": b"y"}, ["full_power", "wang_xu"])
    with pytest.raises(WrongAnswer):
        checks.check_minnorm_compare_row(d, table["full_power"], m)


# ----------------------------------------------------------- dykstra_power


@pytest.fixture(scope="module")
def dykstra_solve(tmp_path_factory):
    workload = ready("dykstra_power", tmp_path_factory.mktemp("dykstra"))
    spec, seen = workload.make_spec()
    report = solver.solve(spec, workload.stop)
    return workload, np.array(seen), report.final_x


def test_dykstra_check_accepts_the_real_solve(dykstra_solve):
    w, seen, final = dykstra_solve
    checks.check_dykstra(w.inputs, w.alpha, seen, final, w.x_star)


def test_dykstra_check_rejects_a_perturbed_final_iterate(dykstra_solve):
    w, seen, final = dykstra_solve
    inward = w.inputs.e - (w.x_star - w.inputs.center) / w.inputs.radius  # stays in both members
    with pytest.raises(WrongAnswer, match="minimum-norm point"):
        checks.check_dykstra(w.inputs, w.alpha, seen, final + 1e-6 * inward, w.x_star)


def test_dykstra_check_rejects_an_iterate_off_the_contraction(dykstra_solve):
    w, seen, final = dykstra_solve
    moved = seen.copy()
    moved[-1] = moved[-1] + 1e-6 * w.inputs.a  # farther from Fix(T), still in C
    with pytest.raises(WrongAnswer, match="farther from Fix"):
        checks.check_dykstra(w.inputs, w.alpha, moved, final, w.x_star)


def test_dykstra_check_rejects_an_iterate_outside_a_member(dykstra_solve):
    w, seen, final = dykstra_solve
    moved = seen.copy()
    moved[-1] = moved[-1] - 1e-6 * w.inputs.e  # on the corner, so across the halfspace boundary
    with pytest.raises(WrongAnswer, match="halfspace"):
        checks.check_dykstra(w.inputs, w.alpha, moved, final, w.x_star)


def test_dykstra_p_c_step_runs_many_cycles(dykstra_solve):
    w, seen, _ = dykstra_solve
    spec, _ = w.make_spec()
    with Tracer() as tracer:
        geometry.project(spec.C, (1.0 - w.alpha[-1]) * seen[-1])
    assert Summary(tracer, 1).metrics()["geometry.dykstra_cycles_per_project"][0] >= 5


def test_dykstra_inputs_give_the_scipy_minimum_norm_point():
    for seed in range(20):
        inp = dykstra_inputs(seed)
        found = reference.min_norm_point(inp.a, inp.e, inp.t0, inp.center, inp.radius)
        assert np.linalg.norm(found - inp.min_norm_point) <= 1e-6
    assert np.linalg.norm(checks.scipy_min_norm_point(inp) - inp.min_norm_point) <= 1e-6  # in a child process


# -------------------------------------------------------------- hypotheses


def test_certificate_check_rejects_a_wrong_witness_or_verdict():
    ball = geometry.Ball(np.zeros(2), 10.0)
    A = np.diag([2.5, 0.5])
    M = fixtures.linear_map(ball, A)
    bad = operators.certify_lipschitz(M, 1.0, 200, 3)
    checks.check_certificate(bad, False, checks.lipschitz_margin(A, 1.0), "lipschitz")
    honest_pair = ((0.0, 1.0), (0.0, 1.5))  # along the 0.5 eigenvector: no violation
    with pytest.raises(WrongAnswer):
        checks.check_certificate(
            dataclasses.replace(bad, witness=honest_pair), False, checks.lipschitz_margin(A, 1.0), "lipschitz"
        )
    good = operators.certify_lipschitz(M, 2.5, 200, 3)
    with pytest.raises(WrongAnswer):
        checks.check_certificate(good, False, checks.lipschitz_margin(A, 2.5), "lipschitz")
    with pytest.raises(WrongAnswer):
        checks.check_certificate(
            dataclasses.replace(good, worst_margin=good.worst_margin + 1e-3), True,
            checks.lipschitz_margin(A, 2.5), "lipschitz",
        )


def test_regularity_check_rejects_wrong_diffs():
    ball = geometry.Ball(np.zeros(2), 10.0)
    theta = 0.8
    T = fixtures.rotation(ball, theta)
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    report = solver.check_power_regularity(
        T, schedules.power_schedule(1.0, 0.5, 1.0, 0.9), [np.array([2.0, 0.0])], 10**4
    )
    power = lambda n, x: checks.matrix_power(R, n) @ x  # noqa: E731
    checks.check_regularity(report, power, 10**4, False, "rotation")
    with pytest.raises(WrongAnswer):
        checks.check_regularity(report, power, 10**4, True, "rotation")
    report.per_probe[0]["diffs"] = [d * 1.01 for d in report.per_probe[0]["diffs"]]
    with pytest.raises(WrongAnswer):
        checks.check_regularity(report, power, 10**4, False, "rotation")


def test_recursion_checks_reject_wrong_values():
    checks.check_float_recursion(1.5 + 1.5 / 1001, 3.0, 1.5, 1000)
    with pytest.raises(WrongAnswer):
        checks.check_float_recursion(1.5 + 1.5 / 1000, 3.0, 1.5, 1000)
    checks.check_fraction_recursion(Fraction(1, 1000), 999)
    with pytest.raises(WrongAnswer):
        checks.check_fraction_recursion(Fraction(1, 999), 999)


# --------------------------------------------------------------- run.py


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, group):
    proc = _run(
        ["hfpbench/run.py", "--workload", "dykstra_power", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == {(m["name"], m["unit"]) for m in SPEC[group]}


def test_run_reports_counts_when_every_round_fails(tmp_path):
    class Broken(WORKLOADS["dykstra_power"]):
        def make_spec(self, tracer=None):
            raise RuntimeError("broken on purpose")

    workload = ready("dykstra_power", tmp_path)
    workload.__class__ = Broken
    tally = run.Tally()
    metrics = run.untraced(workload, 0.2, tally)
    assert set(metrics) == {"peak_rss_mb"}
    assert tally.attempted >= 1 and tally.failed == tally.attempted


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "hfpbench", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = _run(["hfpbench/run.py", "--workload", "minnorm", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
