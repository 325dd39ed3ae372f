import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfp import cli, problemfile
from hfp.fixtures import identity_map, zero_map
from hfp.geometry import Ball, Halfspace, Intersection
from hfp.operators import MappingHandle, OperatorMeta, zero_sequence
from hfp.schedules import power_schedule
from hfp.solver import FullPower, ProblemSpec, solve
from conftest import budget_stop, child_env

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"

# T = 3x has no fixed point but 0 and is not a self-mapping of R^2
EXPANDING = """\
[problem]
dimension = 2
rho = 0.0
mu = 1.0
variant = full_power
x1 = 1 1

[set]
kind = wholespace

[T]
fixture = contraction
k = 3

[S]
fixture = identity

[V]
fixture = zero

[F]
fixture = identity

[schedule]
alpha0 = 0.5
p = 0.5
beta0 = 1.0
q = 0.9
"""


# T = x is nonexpansive and rho*gamma = 0.1 < nu = 1, so every hypothesis holds,
# but V x1 = 10 * 1e308 overflows in the first iteration
OVERFLOWING = (
    EXPANDING.replace("rho = 0.0", "rho = 0.01")
    .replace("x1 = 1 1", "x1 = 1e308 1e308")
    .replace("k = 3", "k = 1")
    .replace("[V]\nfixture = zero", "[V]\nfixture = contraction\nk = 10")
)

# T = 0.5x on a ball that misses the origin: T^n x -> 0 leaves C
OFF_CENTER = (
    EXPANDING.replace("kind = wholespace", "kind = ball\ncenter = 5 5\nradius = 1")
    .replace("x1 = 1 1", "x1 = 5 5")
    .replace("k = 3", "k = 0.5")
    .replace("alpha0 = 0.5", "alpha0 = 1.0")
)


@pytest.fixture
def minnorm(tmp_path):
    dst = tmp_path / "minnorm.cfg"
    shutil.copy(PROBLEMS_DIR / "minnorm.cfg", dst)
    return str(dst)


@pytest.fixture
def expanding(tmp_path):
    dst = tmp_path / "expanding.cfg"
    dst.write_text(EXPANDING)
    return str(dst)


def hfp_bench(*argv, cwd):
    """``hfp-bench`` in a fresh interpreter, in development mode with warnings
    as errors, so an unclosed file fails too: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "hfp.cli", *map(str, argv)],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stdout, proc.stderr


class TestValidate:
    def test_valid_file(self, minnorm, capsys):
        assert cli.main(["validate", minnorm]) == cli.EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_hypothesis_violation_named(self, minnorm, capsys):
        code = cli.main(["validate", minnorm, "--set", "problem.mu=3"])
        assert code == cli.EXIT_SEMANTIC
        assert "mu >= 2*eta/L^2" in capsys.readouterr().out

    def test_unknown_override_key(self, minnorm, capsys):
        code = cli.main(["validate", minnorm, "--set", "problem.muu=3"])
        assert code == cli.EXIT_PARSE
        assert "muu" in capsys.readouterr().err

    def test_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("definitely not a problem file\n")
        assert cli.main(["validate", str(bad)]) == cli.EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.cfg")]) == cli.EXIT_PARSE

    def test_semantic_build_failure(self, minnorm, capsys):
        code = cli.main(["validate", minnorm, "--set", "set.radius=-1"])
        assert code == cli.EXIT_SEMANTIC
        assert "invalid problem" in capsys.readouterr().err

    def test_power_regularity_warning(self, capsys):
        # validate runs the same check as run, and stdout stays "valid"
        code = cli.main(["validate", str(PROBLEMS_DIR / "rotation_fullpower.cfg")])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert out == "valid\n"
        assert "warning: power-regularity check failed for T" in err

    def test_schedule_violation_reported(self, minnorm, capsys):
        # q = p makes beta_n/alpha_n constant, violating the ratio condition
        code = cli.main(["validate", minnorm, "--set", "schedule.q=0.5"])
        assert code == cli.EXIT_SEMANTIC
        assert "schedule" in capsys.readouterr().out


class TestRun:
    def test_budget_exit(self, minnorm, tmp_path, capsys):
        trace = tmp_path / "out.csv"
        code = cli.main(
            ["run", minnorm, "--max-iters", "200", "--trace-out", str(trace), "--quiet"]
        )
        assert code == cli.EXIT_BUDGET
        lines = trace.read_text().splitlines()
        assert lines[0] == cli.TRACE_HEADER
        assert len(lines) == 201

    def test_summary_printed(self, minnorm, tmp_path, capsys):
        trace = tmp_path / "out.csv"
        cli.main(["run", minnorm, "--max-iters", "50", "--trace-out", str(trace)])
        out = capsys.readouterr().out
        assert "stop reason" in out
        assert "budget" in out

    def test_trace_byte_identical(self, minnorm, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            cli.main(
                ["run", minnorm, "--max-iters", "300", "--trace-out", str(path), "--quiet"]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_trace_paths_resolve_as_documented(self, tmp_path, monkeypatch):
        # a relative [output] trace is taken from the working directory; the
        # default trace goes next to the problem file
        problems, cwd = tmp_path / "problems", tmp_path / "cwd"
        problems.mkdir()
        cwd.mkdir()
        text = (PROBLEMS_DIR / "minnorm.cfg").read_text()
        assert "[output]\ntrace = minnorm.trace.csv\n" in text
        (problems / "minnorm.cfg").write_text(text)
        (problems / "bare.cfg").write_text(text.replace("[output]\ntrace = minnorm.trace.csv\n", ""))
        monkeypatch.chdir(cwd)
        for name in ("minnorm.cfg", "bare.cfg"):
            assert cli.main(["run", str(problems / name), "--max-iters", "5", "--quiet"]) == cli.EXIT_BUDGET
        assert sorted(p.name for p in cwd.iterdir()) == ["minnorm.trace.csv"]
        assert sorted(p.name for p in problems.iterdir()) == ["bare.cfg", "bare.trace.csv", "minnorm.cfg"]

    def test_timing_column_off_by_default(self, minnorm, tmp_path):
        trace = tmp_path / "t.csv"
        cli.main(["run", minnorm, "--max-iters", "5", "--trace-out", str(trace), "--quiet"])
        for line in trace.read_text().splitlines()[1:]:
            assert line.endswith(",")

    def test_timing_column_opt_in(self, minnorm, tmp_path):
        trace = tmp_path / "t.csv"
        cli.main(
            ["run", minnorm, "--max-iters", "5", "--trace-out", str(trace), "--timing", "--quiet"]
        )
        for line in trace.read_text().splitlines()[1:]:
            assert not line.endswith(",")
            assert int(line.rsplit(",", 1)[1]) > 0

    def test_power_regularity_warning(self, tmp_path, capsys):
        dst = tmp_path / "rotation.cfg"
        shutil.copy(PROBLEMS_DIR / "rotation_fullpower.cfg", dst)
        code = cli.main(
            ["run", str(dst), "--max-iters", "20", "--trace-out", str(tmp_path / "r.csv"), "--quiet"]
        )
        assert code == cli.EXIT_BUDGET
        assert "power-regularity" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_parse_error(self, minnorm, capsys, value):
        # a NaN tolerance used to turn its rule off, and inf stopped at once
        code = cli.main(["run", minnorm, "--set", f"stop.tol_step={value}", "--quiet"])
        assert code == cli.EXIT_PARSE
        assert "is not a finite real number or 'none'" in capsys.readouterr().err

    def test_negative_tolerance_is_invalid(self, minnorm, capsys):
        code = cli.main(["run", minnorm, "--set", "stop.tol_fix=-1", "--quiet"])
        assert code == cli.EXIT_SEMANTIC
        assert "invalid problem: stop.tol_fix = -1.0 is below 0" in capsys.readouterr().err

    def test_semantic_violation_blocks_run(self, minnorm, capsys):
        code = cli.main(["run", minnorm, "--set", "problem.x1=20 0"])
        assert code == cli.EXIT_SEMANTIC
        assert "x1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "value, code, stream",
        [("abc", cli.EXIT_PARSE, "parse error"), ("-5", cli.EXIT_SEMANTIC, "max_iters")],
    )
    def test_bad_iteration_budget(self, minnorm, tmp_path, value, code, stream):
        rc, _, err = hfp_bench("run", minnorm, "--set", f"stop.max_iters={value}", cwd=tmp_path)
        assert rc == code
        assert stream in err
        assert not (tmp_path / "minnorm.trace.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_full_power_needs_a_self_mapping(self, expanding, tmp_path, command):
        rc, out, _ = hfp_bench(command, expanding, cwd=tmp_path)
        assert rc == cli.EXIT_SEMANTIC
        assert "violation: T = contraction(3.0) is not a self-mapping of C" in out

    def test_nonfinite_iterate_is_a_numeric_failure(self, tmp_path):
        overflowing = tmp_path / "overflowing.cfg"
        overflowing.write_text(OVERFLOWING)
        assert hfp_bench("validate", overflowing, cwd=tmp_path)[0] == cli.EXIT_OK
        rc, _, err = hfp_bench("run", overflowing, cwd=tmp_path)
        assert rc == cli.EXIT_NUMERIC
        assert "numeric failure: iteration 1 produced [inf, inf]" in err

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]])
    def test_overflow_gives_no_numpy_warning(self, tmp_path, flags):
        # numpy's overflow warning must neither precede the message nor,
        # under -W error, replace it with a traceback
        overflowing = tmp_path / "overflowing.cfg"
        overflowing.write_text(OVERFLOWING)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hfp.cli", "run", str(overflowing)],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == cli.EXIT_NUMERIC
        assert proc.stderr == (
            "numeric failure: iteration 1 produced [inf, inf], not a finite point of R^2\n"
        )

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["compare", "{overflowing}", "full_power", "wang_xu"],
             "numeric failure (full_power): iteration 1 produced [inf, inf]"),
            (["sweep", "{overflowing}", "--p-values", "0.5"],
             "numeric failure at (p=0.5, q=0.9): iteration 1 produced [inf, inf]"),
        ],
    )
    def test_compare_and_sweep_report_a_numeric_failure(self, tmp_path, capsys, argv, text):
        overflowing = tmp_path / "overflowing.cfg"
        overflowing.write_text(OVERFLOWING)
        argv = [a.format(overflowing=overflowing) for a in argv]
        assert cli.main([*argv, "--max-iters", "5"]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(text)
        assert list(tmp_path.iterdir()) == [overflowing]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_t_must_be_nearly_nonexpansive(self, expanding, tmp_path, command):
        # T = 3x declares L = 3 and no nearness sequence; wang_xu applies T once
        rc, out, _ = hfp_bench(
            command, expanding, "--set", "problem.variant=wang_xu", cwd=tmp_path
        )
        assert rc == cli.EXIT_SEMANTIC
        assert "violation: T = contraction(3.0) declares neither" in out
        assert not (tmp_path / "expanding.trace.csv").exists()


def _row_by_row(report) -> bytes:
    """The trace CSV as the per-row writer formatted it, one field at a time."""

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, int):
            return str(value)
        return repr(float(value))

    rows = (",".join(map(fmt, row)) + "\n" for row in report.trace)
    return (cli.TRACE_HEADER + "\n" + "".join(rows)).encode()


class TestWriteTrace:
    BLOCK = 7

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize(
        "fix_points, reference, timing",
        [(False, False, False), (True, False, False), (False, True, False), (True, True, True)],
    )
    def test_blocks_match_the_row_writer(
        self, minnorm_problem, tmp_path, monkeypatch, rows, fix_points, reference, timing
    ):
        monkeypatch.setattr(cli, "TRACE_BLOCK", self.BLOCK)
        spec = dataclasses.replace(
            minnorm_problem,
            fix_points=minnorm_problem.fix_points if fix_points else None,
            reference=minnorm_problem.reference if reference else None,
        )
        report = solve(spec, budget_stop(rows), collect_timing=timing)
        path = tmp_path / "t.csv"
        cli.write_trace(str(path), report)
        assert path.read_bytes() == _row_by_row(report)
        assert len(path.read_bytes().splitlines()) == rows + 1

    def test_full_blocks(self, minnorm_problem, tmp_path):
        report = solve(minnorm_problem, budget_stop(2 * cli.TRACE_BLOCK + 3))
        path = tmp_path / "t.csv"
        cli.write_trace(str(path), report)
        assert path.read_bytes() == _row_by_row(report)

    def test_raw_power_solve_is_silent(self, tmp_path, capfd):
        # T averages toward the plane x2 = 0, which keeps C = ball ∩ {x1 >= 0.5};
        # T has no closed-form power, so every raw step tests membership by Dykstra
        C = Intersection((Ball(np.zeros(3), 2.0), Halfspace(np.array([-1.0, 0.0, 0.0]), -0.5)))
        T = MappingHandle(
            name="averaged_projection",
            evaluate=lambda x: np.asarray(x, dtype=float) * np.array([1.0, 0.5, 1.0]),
            domain=C,
            maps_into_domain=True,
            meta=OperatorMeta(lipschitz=1.0, nearly_seq=zero_sequence()),
        )
        spec = ProblemSpec(
            C=C, T=T, S=identity_map(C), V=zero_map(C), F=identity_map(C),
            rho=0.0, mu=1.0, schedule=power_schedule(0.5, 0.5, 1.0, 0.9),
            mode=FullPower(), x1=np.array([1.0, 1.0, 0.5]),
        )
        report = solve(spec, budget_stop(60))
        cli.write_trace(str(tmp_path / "t.csv"), report)
        assert report.iterations == 60
        assert capfd.readouterr() == ("", "")


class TestCompare:
    def test_compare_reports_a_variant_violation(self, minnorm, capsys):
        argv = ["compare", minnorm, "full_power", "wang_xu", "--set", "problem.mu=3"]
        assert cli.main(argv) == cli.EXIT_SEMANTIC
        out = capsys.readouterr().out
        assert out == "violation (full_power): mu >= 2*eta/L^2 (mu=3.0, bound=2.0)\n"

    def test_equivalent_variants_bit_identical(self, minnorm, tmp_path, capsys):
        # S = identity and T idempotent, so all three coincide exactly
        base = tmp_path / "cmp.csv"
        code = cli.main(
            [
                "compare",
                minnorm,
                "full_power",
                "wang_xu",
                "ceng",
                "--max-iters",
                "100",
                "--trace-out",
                str(base),
            ]
        )
        assert code == cli.EXIT_OK
        traces = [
            (tmp_path / f"cmp.{v}.csv").read_bytes()
            for v in ("full_power", "wang_xu", "ceng")
        ]
        assert traces[0] == traces[1] == traces[2]
        out = capsys.readouterr().out
        assert "variant" in out and "wang_xu" in out

    @pytest.mark.parametrize("variant, warned", [("full_power", True), ("wang_xu", False)])
    def test_power_regularity_warning(self, tmp_path, capsys, variant, warned):
        argv = ["compare", str(PROBLEMS_DIR / "rotation_fullpower.cfg"), variant, "--max-iters", "20"]
        code = cli.main([*argv, "--trace-out", str(tmp_path / "r.csv"), "--quiet"])
        assert code == cli.EXIT_OK
        assert ("power-regularity" in capsys.readouterr().err) == warned

    def test_inapplicable_variant(self, minnorm, capsys):
        code = cli.main(["compare", minnorm, "marino_xu", "--max-iters", "10"])
        assert code == cli.EXIT_SEMANTIC
        assert "marino_xu" in capsys.readouterr().err

    def test_unknown_variant(self, minnorm, capsys):
        code = cli.main(["compare", minnorm, "fancy", "--max-iters", "10"])
        assert code == cli.EXIT_SEMANTIC

    def test_zero_iteration_budget(self, minnorm, tmp_path):
        rc, _, err = hfp_bench(
            "compare", minnorm, "full_power", "wang_xu", "--max-iters", "0", cwd=tmp_path
        )
        assert rc == cli.EXIT_SEMANTIC
        assert "max_iters" in err


    def test_file_variant_need_not_apply(self, minnorm, tmp_path):
        # marino_xu needs C = R^2, but compare reduces from full_power itself
        text = Path(minnorm).read_text().replace("variant = full_power", "variant = marino_xu")
        Path(minnorm).write_text(text)
        code = cli.main(
            ["compare", minnorm, "full_power", "ceng", "--max-iters", "10", "--quiet",
             "--trace-out", str(tmp_path / "cmp.csv")]
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "cmp.ceng.csv").exists()


class TestBadValues:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "name, overrides, code, text",
        [
            # T declares its own Fix(T), so [fix_set] and each of its keys are gone
            ("minnorm", ["fix_set.kind=singleton"], cli.EXIT_PARSE, "unknown section [fix_set]"),
            ("minnorm", ["fix_set.n_probes=32"], cli.EXIT_PARSE, "unknown section [fix_set]"),
            ("minnorm", ["fix_set.set_kind=hyperplane"], cli.EXIT_PARSE, "unknown section [fix_set]"),
            ("sahu_step", ["fix_set.point=0.5"], cli.EXIT_PARSE, "unknown section [fix_set]"),
            ("quadmin", ["fix_set.points=1 1"], cli.EXIT_PARSE, "unknown section [fix_set]"),
            ("minnorm", ["problem.reference=1 1 1"], cli.EXIT_SEMANTIC, "reference dimension 3"),
            ("minnorm", ["T.normal=1 1 1"], cli.EXIT_SEMANTIC, "normal must match the domain"),
            ("minnorm", ["problem.rho=nan"], cli.EXIT_PARSE, "'rho'"),
            ("minnorm", ["T.offset=nan"], cli.EXIT_PARSE, "'offset'"),
            ("minnorm", ["problem.x1=inf 0"], cli.EXIT_PARSE, "'x1'"),
            ("minnorm", ["problem.seed=-1"], cli.EXIT_SEMANTIC, "seed = -1 is below 0"),
        ],
    )
    def test_exit_code(self, command, name, overrides, code, text, tmp_path, capsys):
        argv = [command, str(PROBLEMS_DIR / f"{name}.cfg")]
        for item in overrides:
            argv += ["--set", item]
        if command == "run":
            argv += ["--max-iters", "3", "--trace-out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == code
        assert text in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_fix_t_must_meet_c(self, command, tmp_path, capsys):
        # the plane x + y = 100 misses the radius-10 ball; with a [fix_set] moved
        # along with T, this was valid and ran to (7.07, 7.07), off the plane
        argv = [command, str(PROBLEMS_DIR / "minnorm.cfg"), "--set", "T.offset=100"]
        if command == "run":
            argv += ["--trace-out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == cli.EXIT_SEMANTIC
        assert capsys.readouterr().out == (
            "violation: Fix(T) of T = proj_affine does not meet C: intersection feasibility "
            "probe failed: probe point is not within every member set\n"
        )
        assert not (tmp_path / "t.csv").exists()

    def test_one_point_domain_cannot_be_certified(self, capsys):
        argv = ["validate", str(PROBLEMS_DIR / "sahu_step.cfg")]
        argv += ["--set", "set.lower=1", "--set", "problem.x1=1"]
        assert cli.main(argv) == cli.EXIT_SEMANTIC
        assert "violation: certifiers cannot run: degenerate domain" in capsys.readouterr().out


class TestSelfMappings:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "overrides, name",
        [
            (["S.fixture=contraction", "S.k=3"], "contraction(3.0)"),
            (["S.fixture=constant", "S.value=100 100"], "constant"),
        ],
    )
    def test_s_must_be_a_nonexpansive_self_mapping(
        self, minnorm, tmp_path, capsys, command, overrides, name
    ):
        argv = [command, minnorm]
        for item in overrides:
            argv += ["--set", item]
        if command == "run":
            argv += ["--trace-out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == cli.EXIT_SEMANTIC
        out = capsys.readouterr().out
        assert f"violation: S = {name} is not a declared nonexpansive self-mapping" in out
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_contraction_needs_the_origin_in_c(self, tmp_path, command):
        cfg = tmp_path / "off_center.cfg"
        cfg.write_text(OFF_CENTER)
        rc, out, _ = hfp_bench(command, cfg, cwd=tmp_path)
        assert rc == cli.EXIT_SEMANTIC
        assert "violation: T = contraction(0.5) is not a self-mapping of C" in out
        assert not (tmp_path / "off_center.trace.csv").exists()

    @staticmethod
    def sahu_off_its_domain(tmp_path, capsys, command, *overrides):
        """``command`` on sahu_step.cfg moved to C = [2, 3], where T is 0
        everywhere, outside C, and Fix(T) = {0.5} misses C; returns the exit
        code and stdout."""
        text = (PROBLEMS_DIR / "sahu_step.cfg").read_text()
        text = text.replace("lower = 0\nupper = 1", "lower = 2\nupper = 3")
        cfg = tmp_path / "sahu.cfg"
        cfg.write_text(text)
        argv = [command, str(cfg), "--set", "problem.x1=2.5", "--set", "problem.reference=2.5"]
        for item in overrides:
            argv += ["--set", item]
        budget = ["--max-iters", "5"] if command == "run" else []  # validate takes no budget
        rc = cli.main([*argv, *budget])
        assert list(tmp_path.iterdir()) == [cfg]  # no trace
        out = capsys.readouterr().out
        assert "violation: Fix(T) of T = sahu_step does not meet C" in out
        return rc, out

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_sahu_step_takes_the_problem_domain(self, tmp_path, capsys, command):
        rc, out = self.sahu_off_its_domain(tmp_path, capsys, command)
        assert rc == cli.EXIT_SEMANTIC
        assert "violation: T = sahu_step is not a self-mapping of C" in out

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_single_mode_needs_a_self_mapping_too(self, tmp_path, capsys, command):
        # run used to solve it and stop at x = 2.0, fix_residual 2.0 (exit 3)
        rc, out = self.sahu_off_its_domain(tmp_path, capsys, command, "problem.variant=wang_xu")
        assert rc == cli.EXIT_SEMANTIC
        assert "violation: T = sahu_step is not a self-mapping of C" in out


class TestSweep:
    def test_sweep_rejects_a_point_that_fails_the_problem(self, minnorm, tmp_path):
        # p = 1.5 fails the schedule; p = 0.5 passes it and fails validate_problem
        out = tmp_path / "sweep.csv"
        argv = ["sweep", minnorm, "--p-values", "0.5", "1.5", "--set", "problem.mu=3"]
        assert cli.main([*argv, "--out", str(out), "--quiet"]) == cli.EXIT_OK
        assert out.read_text().splitlines()[1] == (
            "0.5,0.9,rejected: mu >= 2*eta/L^2 (mu=3.0, bound=2.0),,"
        )

    def test_sweep_names_its_output_unless_quiet(self, minnorm, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", minnorm, "--p-values", "0.5", "--max-iters", "10", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == f"sweep results : {out}\n"

    def test_grid_with_rejection(self, minnorm, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                minnorm,
                "--p-values",
                "0.5",
                "0.7",
                "1.5",
                "--q-offset",
                "0.4",
                "--max-iters",
                "200",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p,q,status,iterations_to_tol,final_residual"
        ok = [l for l in lines[1:] if ",ok," in l]
        rejected = [l for l in lines[1:] if ",rejected" in l]
        assert len(ok) == 2
        assert len(rejected) == 1
        assert rejected[0].startswith("1.5,")

    def test_exact_schedule_rule_grid(self, minnorm, tmp_path):
        # p = 0.2 and (0.5, 0.6) used to fail finite-horizon trend checks
        out = tmp_path / "sweep.csv"
        args = ["--p-values", "0.2", "0.5", "0.9", "--q-values", "0.3", "0.6", "1.2"]
        code = cli.main(["sweep", minnorm, *args, "--max-iters", "200", "--out", str(out), "--quiet"])
        assert code == cli.EXIT_OK
        beta = "rejected: beta_n / alpha_n -> 0 fails (beta0 > 0 and q <= p)"
        rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
        assert rows == [
            ["0.2", "0.3", "ok"],
            ["0.2", "0.6", "ok"],
            ["0.2", "1.2", "ok"],
            ["0.5", "0.3", beta],
            ["0.5", "0.6", "ok"],
            ["0.5", "1.2", "ok"],
            ["0.9", "0.3", beta],
            ["0.9", "0.6", beta],
            ["0.9", "1.2", "ok"],
        ]

    def test_repeat_byte_identical(self, minnorm, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            cli.main(
                [
                    "sweep",
                    minnorm,
                    "--p-values",
                    "0.5",
                    "0.8",
                    "--max-iters",
                    "150",
                    "--out",
                    str(path),
                    "--quiet",
                ]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_all_inadmissible(self, minnorm, tmp_path, capsys):
        code = cli.main(
            [
                "sweep",
                minnorm,
                "--p-values",
                "1.5",
                "2.0",
                "--out",
                str(tmp_path / "s.csv"),
                "--quiet",
            ]
        )
        assert code == cli.EXIT_SEMANTIC
        assert "no admissible" in capsys.readouterr().err

    def test_explicit_q_grid(self, minnorm, tmp_path):
        out = tmp_path / "s.csv"
        code = cli.main(
            [
                "sweep",
                minnorm,
                "--p-values",
                "0.5",
                "--q-values",
                "0.9",
                "1.0",
                "--max-iters",
                "100",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_nan_exponent_row(self, minnorm, tmp_path):
        # a NaN exponent used to reach the validator, which rejected the row
        # with "alpha(10000) = nan is outside (0, 1]"
        out = tmp_path / "s.csv"
        argv = ["sweep", minnorm, "--p-values", "nan", "0.5", "--max-iters", "100"]
        code = cli.main([*argv, "--out", str(out), "--quiet"])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert "nan,nan,rejected: decay exponents must be positive,," in lines
        assert len(lines) == 3

    def test_nan_exponent_sorts_last(self, minnorm, tmp_path):
        # sorted() on tuples left a NaN row where it was given
        out = tmp_path / "s.csv"
        argv = ["sweep", minnorm, "--p-values", "0.5", "nan", "0.3", "--max-iters", "50"]
        assert cli.main([*argv, "--out", str(out), "--quiet"]) == cli.EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.3", "0.5", "nan"]


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
@pytest.mark.parametrize("where", ["missing/out.csv", "d.csv"])
def test_unwritable_output_path(minnorm, tmp_path, command, where):
    """An output path in a missing directory, or naming a directory, is exit 2."""
    # compare writes d.wang_xu.csv for --trace-out d.csv
    for name in ("d.csv", "d.wang_xu.csv"):
        (tmp_path / name).mkdir()
    extra = {
        "run": ["--trace-out", where],
        "compare": ["wang_xu", "--trace-out", where],
        "sweep": ["--p-values", "0.5", "--out", where],
    }[command]
    rc, _, err = hfp_bench(command, minnorm, *extra, "--max-iters", "5", cwd=tmp_path)
    assert rc == cli.EXIT_PARSE
    assert err.startswith("cannot write ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command, flags", [("run", ["--trace-out"]), ("sweep", ["--p-values", "0.5", "--out"])])
def test_failed_write_names_its_path(minnorm, capsys, command, flags):
    # open succeeds and the write or its flush fails; that OSError has no
    # file name of its own, so this used to print "cannot write None: ..."
    assert cli.main([command, minnorm, "--max-iters", "5", *flags, "/dev/full"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith("cannot write /dev/full: [Errno 28] ")


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["validate", "{minnorm}"], cli.EXIT_OK, "out", "valid"),
        (["validate", "{minnorm}", "--set", "problem.mu=3"], cli.EXIT_SEMANTIC, "out", "violation:"),
        (["validate", "{minnorm}", "--set", "set.radius=-1"], cli.EXIT_SEMANTIC, "err", "invalid problem:"),
        (["run", "{minnorm}", "--set", "problem.muu=3"], cli.EXIT_PARSE, "err", "parse error:"),
        (["compare", "{minnorm}", "wang_xu", "--set", "stop.max_iters=x"], cli.EXIT_PARSE, "err", "parse error:"),
        (["sweep", "{minnorm}", "--p-values", "0.5", "--set", "set.radius=-1"], cli.EXIT_SEMANTIC, "err", "invalid problem:"),
        (["run", "{minnorm}", "--max-iters", "5"], cli.EXIT_BUDGET, "out", "stop reason    : budget"),
        (["run", "{overflowing}"], cli.EXIT_NUMERIC, "err", "numeric failure:"),
    ],
)
def test_exit_codes_without_traceback(minnorm, tmp_path, argv, code, stream, text):
    """Every documented exit code, in a fresh interpreter, with no traceback."""
    overflowing = tmp_path / "overflowing.cfg"
    overflowing.write_text(OVERFLOWING)
    argv = [a.format(minnorm=minnorm, overflowing=overflowing) for a in argv]
    rc, out, err = hfp_bench(*argv, cwd=tmp_path)
    assert rc == code
    assert text in {"out": out, "err": err}[stream]


# C is the intersection of the unit balls about 0 and (2, 0), which touch only
# at (1, 0); from most points Dykstra's projection onto C is too slow to finish.
# T = (1, 0), so Fix(T) = {(1, 0)} meets C at once.
TANGENT = (
    EXPANDING.replace("x1 = 1 1", "x1 = 1 0")
    .replace("kind = wholespace", "kind = intersection\nmembers = a b")
    .replace("fixture = contraction\nk = 3", "fixture = constant\nvalue = 1 0")
    + "\n[set.a]\nkind = ball\ncenter = 0 0\nradius = 1\n"
    + "\n[set.b]\nkind = ball\ncenter = 2 0\nradius = 1\n"
)


@pytest.mark.parametrize(
    "command, v_section, stream, text",
    [
        # building V = 0 1 tests whether (0, 1) lies in C
        ("validate", "fixture = constant\nvalue = 0 1", "err", "invalid problem: Dykstra did not converge"),
        ("run", "fixture = constant\nvalue = 0 1", "err", "invalid problem: Dykstra did not converge"),
        # (0, 0) projects at once, but the certifiers' sample points do not
        ("validate", "fixture = zero", "out", "violation: certifiers cannot run: Dykstra did not converge"),
    ],
)
def test_unconverged_projection_on_tangent_balls(tmp_path, command, v_section, stream, text):
    """A projection onto C that does not converge makes the problem invalid
    (exit 1), in a fresh interpreter, with no traceback."""
    problem = tmp_path / "tangent.cfg"
    problem.write_text(TANGENT.replace("[V]\nfixture = zero", f"[V]\n{v_section}"))
    rc, out, err = hfp_bench(command, problem, cwd=tmp_path)
    assert rc == cli.EXIT_SEMANTIC
    assert text in {"out": out, "err": err}[stream]


def _owners(fields, chain=()):
    """Each catalog entry key of ``fields``, mapped to the selections that
    declare it: one tuple of (selector, entry, entry fields) per owning entry."""
    owners = {}
    for selector, read, *_ in fields:
        if isinstance(read, dict):
            for entry, (entry_fields, _) in read.items():
                here = (*chain, (selector, entry, entry_fields))
                for key, *_ in entry_fields:
                    owners.setdefault(key, []).append(here)
                for key, chains in _owners(entry_fields, here).items():
                    owners.setdefault(key, []).extend(chains)
    return owners


OWNERS = {
    f"{section}.{key}": chains
    for section, fields in problemfile._SECTIONS.items()
    for key, chains in _owners(fields).items()
}


SHIPPED = ("minnorm", "sahu_step", "rotation_fullpower")
# every catalog entry's keys, each section's selector and the optional
# [problem] keys
TABLE_KEYS = sorted(
    [*OWNERS, "set.kind", *(f"{m}.fixture" for m in "TSVF")]
    + [f"problem.{key}" for key in ("seed", "reference")]
)
SHIPPED_RAW = {
    name: problemfile.parse_problem_file(str(PROBLEMS_DIR / f"{name}.cfg")) for name in SHIPPED
}
# the keys each shipped file sets, so that half the draws change a value in place
FILE_KEYS = {
    name: sorted(
        f"{section}.{key}"
        for section, pairs in raw.items()
        for key in pairs
        if section != "output" and key != "variant"
    )
    for name, raw in SHIPPED_RAW.items()
}
# wrong-length vectors, non-numbers, 0, negatives, nan, inf and small ints; no
# large ints, since dimension = 10**7 would build vectors of 10**7 reals
FUZZ_VALUES = ["0", "1", "2", "3", "-1", "-2", "0.5", "nan", "inf", "-inf", "x", ""]
FUZZ_VALUES += ["0 0", "1 1", "1 0", "0 1 2", "1; 2", "0.5; x", "none"]
CATALOG_NAMES = sorted({*problemfile._SET_KINDS, *problemfile._FIXTURES})


def _readers(fields):
    """(key, reader) of each field, and of each field of every catalog entry."""
    for key, read, *_ in fields:
        yield key, read
        if isinstance(read, dict):
            for entry_fields, _ in read.values():
                yield from _readers(entry_fields)


READERS = {
    f"{section}.{key}": read
    for section, fields in problemfile._SECTIONS.items()
    for key, read in _readers(fields)
}


def reader_values(read, dimension):
    """Text that ``read`` accepts: a name of its catalog, a finite real, a
    small positive int, or vectors of length ``dimension``."""
    if isinstance(read, dict):
        return st.sampled_from(sorted(read))
    real = st.integers(-8, 8).map(lambda i: repr(i / 4))
    vector = st.lists(real, min_size=dimension, max_size=dimension).map(" ".join)
    return {
        problemfile._REAL: real,
        # a negative tolerance is a semantic error
        problemfile._TOL: st.integers(0, 8).map(lambda i: repr(i / 4)),
        problemfile._INT: st.integers(1, 5).map(str),
        problemfile._VECTOR: vector,
    }[read]


@st.composite
def fuzz_argv(draw):
    name = draw(st.sampled_from(SHIPPED))
    dimension = int(SHIPPED_RAW[name]["problem"]["dimension"])
    argv = [draw(st.sampled_from(["validate", "run"])), str(PROBLEMS_DIR / f"{name}.cfg")]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            key = draw(st.sampled_from(FILE_KEYS[name]))
        else:
            # a table key comes with an entry that owns it, selected and given
            # valid values for its other keys; keys the file's own entry sets
            # may still be unknown there
            key = draw(st.sampled_from(TABLE_KEYS))
            section, own = key.split(".")
            for selector, entry, fields in draw(st.sampled_from(OWNERS.get(key, [()]))):
                argv += ["--set", f"{section}.{selector}={entry}"]
                for other, read, *default in fields:
                    if not default and not isinstance(read, dict) and other != own:
                        value = draw(reader_values(read, dimension))
                        argv += ["--set", f"{section}.{other}={value}"]
        read = READERS[key]
        alphabet = CATALOG_NAMES if isinstance(read, dict) else FUZZ_VALUES
        # half valid for the key's own reader, half from the alphabet
        value = draw(st.one_of(reader_values(read, dimension), st.sampled_from(alphabet)))
        argv += ["--set", f"{key}={value}"]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=fuzz_argv())
def test_fuzzed_overrides_end_with_an_exit_code(argv):
    """Any ``--set`` values on a shipped problem end in a documented exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "run":
            argv = [*argv, "--max-iters", "3", "--quiet", "--trace-out", os.path.join(tmp, "t.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    assert rc in (0, 1, 2, 3, 4)


SWEEP_P_VALUES = ["0.5", "1.5", "0", "-1", "nan", "inf"]
VARIANTS = ["full_power", "wang_xu", "ceng", "sahu"]


@st.composite
def fuzz_compare_sweep_argv(draw):
    """The overrides of ``fuzz_argv``, given to ``compare`` or ``sweep``."""
    _, problem, *overrides = draw(fuzz_argv())
    if draw(st.booleans()):
        return ["compare", problem, *VARIANTS, *overrides]
    p_values = draw(st.lists(st.sampled_from(SWEEP_P_VALUES), min_size=1, max_size=3))
    return ["sweep", problem, *overrides, "--p-values", *p_values]


@settings(
    max_examples=600, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=fuzz_compare_sweep_argv())
def test_fuzzed_compare_and_sweep_end_with_an_exit_code(argv, tmp_path):
    """``compare`` and ``sweep`` with any ``--set`` values, and any sweep
    exponents, end in a documented exit code; each example overwrites the
    same output files."""
    flag, name = ("--trace-out", "t.csv") if argv[0] == "compare" else ("--out", "s.csv")
    argv = [*argv, flag, str(tmp_path / name), "--max-iters", "3", "--quiet"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3, 4)
