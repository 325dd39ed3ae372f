import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hfp import fixtures, problemfile
from hfp.geometry import AffineHyperplane, Ball, Intersection, WholeSpace, sample
from hfp.problemfile import (
    DEFAULT_N_PROBES,
    ProblemFileParseError,
    ProblemFileSemanticError,
    apply_overrides,
    build_problem,
    parse_problem_file,
    parse_problem_text,
    serialize,
)
from hfp.solver import FullPower, ProblemSpec, Single, StopRule
from conftest import child_env

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"

MINIMAL = """\
[problem]
dimension = 2
rho = 0.0
mu = 1.0
variant = full_power
x1 = 3 4

[set]
kind = ball
center = 0 0
radius = 10

[T]
fixture = proj_affine
normal = 1 1
offset = 2

[S]
fixture = identity

[V]
fixture = zero

[F]
fixture = identity

[schedule]
alpha0 = 1.0
p = 0.5
beta0 = 1.0
q = 0.9
"""


def with_lines(*extra):
    return MINIMAL + "\n" + "\n".join(extra) + "\n"


class TestParsing:
    def test_minimal_parses(self):
        raw = parse_problem_text(MINIMAL)
        assert raw["problem"]["dimension"] == "2"
        assert raw["T"]["fixture"] == "proj_affine"

    def test_round_trip_identity(self):
        raw = parse_problem_text(MINIMAL)
        assert parse_problem_text(serialize(raw)) == raw
        # a second round trip is bit-stable
        assert serialize(parse_problem_text(serialize(raw))) == serialize(raw)

    def test_shipped_files_round_trip(self):
        for name in ("minnorm", "sahu_step", "rotation_fullpower"):
            raw = parse_problem_file(str(PROBLEMS_DIR / f"{name}.cfg"))
            assert parse_problem_text(serialize(raw)) == raw

    def test_garbage_rejected(self):
        with pytest.raises(ProblemFileParseError):
            parse_problem_text("this is not a config\n")

    def test_missing_file(self):
        with pytest.raises(ProblemFileParseError):
            parse_problem_file("/nonexistent/path.cfg")

    def test_missing_section(self):
        text = MINIMAL.replace("[schedule]", "[schedul]")
        with pytest.raises(ProblemFileParseError, match=r"\[schedule\]"):
            parse_problem_text(text)

    def test_unknown_key(self):
        with pytest.raises(ProblemFileParseError, match="wobble"):
            parse_problem_text(MINIMAL + "\n[stop]\nwobble = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ProblemFileParseError, match=r"\[extras\]"):
            parse_problem_text(MINIMAL + "\n[extras]\nfoo = 1\n")

    def test_unknown_fixture(self):
        text = MINIMAL.replace("fixture = zero", "fixture = mystery")
        with pytest.raises(ProblemFileParseError, match="mystery"):
            parse_problem_text(text)

    def test_unknown_variant(self):
        text = MINIMAL.replace("variant = full_power", "variant = newton")
        with pytest.raises(ProblemFileParseError, match="newton"):
            parse_problem_text(text)

    def test_fixture_key_mismatch(self):
        # rotation does not take a contraction factor
        text = MINIMAL.replace(
            "fixture = identity\n\n[V]", "fixture = rotation\nk = 0.5\n\n[V]", 1
        )
        with pytest.raises(ProblemFileParseError):
            parse_problem_text(text)

    def test_intersection_needs_member_sections(self):
        text = MINIMAL.replace(
            "kind = ball\ncenter = 0 0\nradius = 10",
            "kind = intersection\nmembers = a b",
        )
        with pytest.raises(ProblemFileParseError, match=r"set\.a"):
            parse_problem_text(text)

    @pytest.mark.parametrize("hash_seed", ["3", "4", "5"])
    def test_missing_member_named_in_declaration_order(self, hash_seed):
        # string hashing must not decide which missing member is reported
        text = MINIMAL.replace(
            "kind = ball\ncenter = 0 0\nradius = 10",
            "kind = intersection\nmembers = a b",
        )
        script = (
            "import sys\n"
            "from hfp.problemfile import ProblemFileParseError, parse_problem_text\n"
            "try:\n"
            "    parse_problem_text(sys.stdin.read())\n"
            "except ProblemFileParseError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=text,
            env=child_env(PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == "missing member section [set.a]\n"

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe[problem]\n")
        with pytest.raises(ProblemFileParseError, match="cannot read"):
            parse_problem_file(str(path))


class TestOverrides:
    def test_simple_override(self):
        raw = parse_problem_text(MINIMAL)
        updated = apply_overrides(raw, ["problem.mu=0.5", "schedule.p=0.7"])
        assert updated["problem"]["mu"] == "0.5"
        assert updated["schedule"]["p"] == "0.7"
        assert raw["problem"]["mu"] == "1.0"  # original untouched

    def test_unknown_target_rejected(self):
        raw = parse_problem_text(MINIMAL)
        with pytest.raises(ProblemFileParseError):
            apply_overrides(raw, ["problem.muu=0.5"])
        with pytest.raises(ProblemFileParseError):
            apply_overrides(raw, ["bogus.mu=0.5"])

    def test_malformed_override(self):
        raw = parse_problem_text(MINIMAL)
        with pytest.raises(ProblemFileParseError):
            apply_overrides(raw, ["problem.mu"])
        with pytest.raises(ProblemFileParseError):
            apply_overrides(raw, ["mu=0.5"])


class TestBuild:
    def test_minimal_builds(self):
        built = build_problem(parse_problem_text(MINIMAL))
        assert isinstance(built.spec.C, Ball)
        assert isinstance(built.spec.mode, FullPower)
        assert built.spec.rho == 0.0
        assert np.array_equal(built.spec.x1, [3.0, 4.0])
        assert built.trace_path is None
        assert built.stop.max_iters == 10**5

    def test_variant_reduction_applied(self):
        text = MINIMAL.replace("variant = full_power", "variant = ceng")
        built = build_problem(parse_problem_text(text))
        assert isinstance(built.spec.mode, Single)
        assert built.spec.S.name == "identity"

    def test_fix_set_kinds(self):
        singleton = build_problem(
            parse_problem_text(with_lines("[fix_set]", "kind = singleton", "point = 1 1"))
        )
        assert np.array_equal(singleton.spec.fix_points, [[1.0, 1.0]])

        subset = build_problem(
            parse_problem_text(
                with_lines(
                    "[fix_set]",
                    "kind = convex_subset",
                    "set_kind = hyperplane",
                    "normal = 1 1",
                    "offset = 2",
                    "n_probes = 8",
                )
            )
        )
        assert subset.spec.fix_points.shape == (8, 2)
        line = AffineHyperplane(np.array([1.0, 1.0]), 2.0)
        assert all(line.contains(point) for point in subset.spec.fix_points)

        sampled = build_problem(
            parse_problem_text(
                with_lines("[fix_set]", "kind = sampled", "points = 1 1; 2 0")
            )
        )
        assert np.array_equal(sampled.spec.fix_points, [[1.0, 1.0], [2.0, 0.0]])

    def test_stop_tolerances_accept_none(self):
        built = build_problem(
            parse_problem_text(
                with_lines("[stop]", "max_iters = 50", "tol_step = none", "tol_vi = 1e-6")
            )
        )
        assert built.stop.max_iters == 50
        assert built.stop.tol_step is None
        assert built.stop.tol_vi == 1e-6

    def test_intersection_set(self):
        text = MINIMAL.replace(
            "kind = ball\ncenter = 0 0\nradius = 10",
            "kind = intersection\nmembers = a b",
        ) + (
            "\n[set.a]\nkind = ball\ncenter = 0 0\nradius = 10\n"
            "\n[set.b]\nkind = halfspace\nnormal = 1 0\noffset = 5\n"
        )
        built = build_problem(parse_problem_text(text))
        assert isinstance(built.spec.C, Intersection)
        assert len(built.spec.C.members) == 2

    def test_nonnumeric_value(self):
        raw = parse_problem_text(MINIMAL)
        raw["problem"]["mu"] = "lots"
        with pytest.raises(ProblemFileParseError, match="mu"):
            build_problem(raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("problem", "rho", "nan"),
            ("problem", "mu", "inf"),
            ("problem", "x1", "3 nan"),
            ("T", "offset", "-inf"),
            ("set", "radius", "inf"),
        ],
    )
    def test_nonfinite_value_is_a_parse_error(self, section, key, value):
        raw = parse_problem_text(MINIMAL)
        raw[section][key] = value
        with pytest.raises(ProblemFileParseError, match=key):
            build_problem(raw)

    @pytest.mark.parametrize(
        "lines, error, match",
        [
            (["kind = sampled", "points = 0.5; x"], ProblemFileParseError, "points"),
            (["kind = sampled", "points = 1 1; 2"], ProblemFileSemanticError, "dimension 1"),
            (["kind = singleton", "point = 1 1 1"], ProblemFileSemanticError, "dimension 3"),
            (["kind = singleton", "point = inf 1"], ProblemFileParseError, "point"),
            (
                ["kind = convex_subset", "set_kind = hyperplane", "normal = 1 1 1", "offset = 2"],
                ProblemFileSemanticError,
                "fix_set dimension 3",
            ),
            (
                ["kind = convex_subset", "set_kind = ball", "center = 0 0", "radius = 1",
                 "n_probes = abc"],
                ProblemFileParseError,
                "n_probes",
            ),
            (
                ["kind = convex_subset", "set_kind = ball", "center = 0 0", "radius = 1",
                 "n_probes = 0"],
                ProblemFileSemanticError,
                "n_probes = 0 is below 1",
            ),
        ],
    )
    def test_bad_fix_set_values(self, lines, error, match):
        raw = parse_problem_text(with_lines("[fix_set]", *lines))
        with pytest.raises(error, match=match):
            build_problem(raw)

    def test_reference_dimension_mismatch(self):
        raw = parse_problem_text(MINIMAL.replace("x1 = 3 4", "x1 = 3 4\nreference = 1 1 1"))
        with pytest.raises(ProblemFileSemanticError, match="reference dimension 3"):
            build_problem(raw)

    def test_negative_seed(self):
        raw = parse_problem_text(MINIMAL.replace("x1 = 3 4", "x1 = 3 4\nseed = -1"))
        with pytest.raises(ProblemFileSemanticError, match="seed"):
            build_problem(raw)

    def test_wholespace_member_and_fix_set(self):
        text = MINIMAL.replace(
            "kind = ball\ncenter = 0 0\nradius = 10",
            "kind = intersection\nmembers = a b",
        ) + (
            "\n[set.a]\nkind = ball\ncenter = 0 0\nradius = 10\n"
            "\n[set.b]\nkind = wholespace\n"
            "\n[fix_set]\nkind = convex_subset\nset_kind = wholespace\n"
        )
        spec = build_problem(parse_problem_text(text)).spec
        assert spec.C.members[1] == WholeSpace(2)
        # the problem seed (0) draws the probes, in the order sample gives them
        rng = np.random.default_rng(0)
        expected = [sample(WholeSpace(2), rng) for _ in range(DEFAULT_N_PROBES)]
        assert np.array_equal(spec.fix_points, expected)

    def test_fixture_factory_looked_up_when_built(self, monkeypatch):
        # the traced benchmark wraps the factories by patching hfp.fixtures
        calls = []
        real = fixtures.contraction
        monkeypatch.setattr(fixtures, "contraction", lambda *a: calls.append(a) or real(*a))
        text = MINIMAL.replace("[V]\nfixture = zero", "[V]\nfixture = contraction\nk = 0.5")
        spec = build_problem(parse_problem_text(text)).spec
        assert len(calls) == 1 and spec.V.name == "contraction(0.5)"

    def test_x1_dimension_mismatch(self):
        raw = parse_problem_text(MINIMAL.replace("x1 = 3 4", "x1 = 3 4 5"))
        with pytest.raises(ProblemFileSemanticError, match="x1"):
            build_problem(raw)

    def test_sahu_step_needs_dim_one(self):
        text = MINIMAL.replace(
            "fixture = proj_affine\nnormal = 1 1\noffset = 2", "fixture = sahu_step"
        )
        with pytest.raises(ProblemFileSemanticError, match="dimension 1"):
            build_problem(parse_problem_text(text))

    def test_marino_xu_needs_wholespace(self):
        text = MINIMAL.replace("variant = full_power", "variant = marino_xu")
        with pytest.raises(ProblemFileSemanticError, match="whole space"):
            build_problem(parse_problem_text(text))

    def test_bad_geometry_is_semantic(self):
        raw = parse_problem_text(MINIMAL)
        raw["set"]["radius"] = "-1"
        with pytest.raises(ProblemFileSemanticError):
            build_problem(raw)

    def test_shipped_files_build(self):
        for name in ("minnorm", "sahu_step", "rotation_fullpower"):
            built = build_problem(parse_problem_file(str(PROBLEMS_DIR / f"{name}.cfg")))
            assert built.spec.C.contains(built.spec.x1)


def test_defaults_come_from_their_owners():
    text = with_lines("[fix_set]", "kind = convex_subset", "set_kind = wholespace")
    built = build_problem(parse_problem_text(text))
    assert built.stop == StopRule() == StopRule(100000, 1e-10, 1e-8, 1e-8)
    assert built.spec.seed == ProblemSpec.seed == 0
    assert built.spec.fix_points.shape == (DEFAULT_N_PROBES, 2) == (32, 2)
    assert built.spec.reference is None and built.trace_path is None


def _documented_names(fields):
    """Every key of ``fields``, and every entry name and key of the catalogs
    they select."""
    for key, read, *_ in fields:
        yield key
        if isinstance(read, dict):
            for name, (entry_fields, _) in read.items():
                yield name
                yield from _documented_names(entry_fields)


def test_readme_documents_every_problem_file_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    docs = readme[readme.index("### Problem files"):readme.index("### Fixture caveat")]
    names = {
        name
        for fields in (*problemfile._SECTIONS.values(), problemfile._INTERSECTION)
        for name in _documented_names(fields)
    }
    missing = sorted(f"`{name}`" for name in names if f"`{name}`" not in docs)
    missing += [f"`[{s}]`" for s in problemfile._SECTIONS if f"`[{s}]`" not in docs]
    assert not missing, f"README's problem-file section does not document {missing}"
