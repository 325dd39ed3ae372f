"""The CLI outputs of the shipped problems, pinned by digest.

Each command runs in-process in a fresh working directory that holds a copy
of the problem file, so every output path is relative.  Its exit code and the
sha256 of its stdout, its stderr and each file it writes must match
``shipped_outputs.json``.  After a change that is meant to alter an output,
rewrite the manifest with

    PYTHONPATH=src python tests/test_shipped_outputs.py

and say in CHANGES which entries moved and why.
"""
import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from hfp import cli

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
MANIFEST = Path(__file__).resolve().parent / "shipped_outputs.json"
PROBLEMS = sorted(path.name for path in PROBLEMS_DIR.glob("*.cfg"))
COMMANDS = {
    "validate": ["validate", "{problem}"],
    "run": ["run", "{problem}", "--seed", "7", "--max-iters", "3000"],
    # the shipped problems set tol_fix = tol_vi = none; these runs compute them per iteration
    "run_stops": ["run", "{problem}", "--seed", "7", "--max-iters", "3000",
                  "--set", "stop.tol_fix=1e-8", "--set", "stop.tol_vi=1e-8"],
    "compare": ["compare", "{problem}", "full_power", "wang_xu", "ceng", "sahu", "--max-iters", "2000"],
    "sweep": ["sweep", "{problem}", "--p-values", "0.3", "0.5", "0.7", "1.5", "--max-iters", "2000"],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(problem: str, command: str) -> dict:
    """Exit code and digests of one command on one shipped problem."""
    with tempfile.TemporaryDirectory() as workdir:
        shutil.copy(PROBLEMS_DIR / problem, workdir)
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([a.format(problem=problem) for a in COMMANDS[command]])
        finally:
            os.chdir(cwd)
        files = {
            path.name: _digest(path.read_bytes())
            for path in sorted(Path(workdir).iterdir())
            if path.name != problem
        }
    return {
        "exit": code,
        "stdout": _digest(out.getvalue().encode()),
        "stderr": _digest(err.getvalue().encode()),
        "files": files,
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("problem", PROBLEMS)
def test_shipped_outputs_match_the_manifest(problem, command):
    assert outputs(problem, command) == json.loads(MANIFEST.read_text())[problem][command]


if __name__ == "__main__":
    manifest = {p: {c: outputs(p, c) for c in sorted(COMMANDS)} for p in PROBLEMS}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
