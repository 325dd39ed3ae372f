import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hfp import cli
from conftest import child_env

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
    """``hfp-bench`` in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "hfp.cli", *map(str, argv)],
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
        assert "violation: FullPower mode needs T^n" in out

    def test_nonfinite_iterate_is_a_numeric_failure(self, expanding, tmp_path):
        rc, _, err = hfp_bench(
            "run", expanding, "--set", "problem.variant=wang_xu", cwd=tmp_path
        )
        assert rc == cli.EXIT_NUMERIC
        assert "numeric failure:" in err


class TestCompare:
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


class TestSweep:
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
