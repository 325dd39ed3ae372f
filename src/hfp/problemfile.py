"""Strict, line-oriented problem files for the benchmark CLI.

The format is INI-style: flat sections of ``key = value`` pairs.  Unknown
sections or keys are rejected, and parse -> serialize -> parse is an
identity on the raw key/value content (no expression language, bit-exact
diffs).
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import fixtures
from .geometry import (
    AffineHyperplane,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Intersection,
    ProblemDefinitionError,
    UsageError,
    WholeSpace,
)
from .operators import MappingHandle
from .schedules import power_schedule
from .solver import (
    ConvexSubset,
    FullPower,
    ProblemSpec,
    SampledPoints,
    Singleton,
    StopRule,
    VARIANTS,
    reduce_variant,
)

RawConfig = Dict[str, Dict[str, str]]


class ProblemFileParseError(Exception):
    """Malformed file or schema violation (CLI exit code 2)."""


class ProblemFileSemanticError(Exception):
    """Well-formed file describing an invalid problem (CLI exit code 1)."""


_SET_KIND_KEYS = {
    "wholespace": set(),
    "ball": {"center", "radius"},
    "box": {"lower", "upper"},
    "halfspace": {"normal", "offset"},
    "hyperplane": {"normal", "offset"},
}

_FIXTURE_KEYS = {
    "identity": set(),
    "zero": set(),
    "constant": {"value"},
    "contraction": {"k"},
    "linear": {"diag"},
    "proj_affine": {"normal", "offset"},
    "rotation": {"theta"},
    "averaged_rotation": {"lam", "theta"},
    "sahu_step": set(),
}

_REQUIRED_SECTIONS = ("problem", "set", "T", "S", "V", "F", "schedule")
_OPTIONAL_SECTIONS = ("fix_set", "stop", "output")

_PROBLEM_KEYS = {"dimension", "rho", "mu", "variant", "x1"}
_PROBLEM_OPT_KEYS = {"seed", "reference"}
_SCHEDULE_KEYS = {"alpha0", "p", "beta0", "q"}
_STOP_KEYS = {"max_iters", "tol_step", "tol_fix", "tol_vi"}
_OUTPUT_KEYS = {"trace"}


def parse_problem_file(path: str) -> RawConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ProblemFileParseError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ProblemFileParseError(str(exc)) from exc
    raw = {name: dict(parser[name]) for name in parser.sections()}
    validate_raw(raw)
    return raw


def parse_problem_text(text: str) -> RawConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_file(io.StringIO(text), source="<config>")
    except configparser.Error as exc:
        raise ProblemFileParseError(str(exc)) from exc
    raw = {name: dict(parser[name]) for name in parser.sections()}
    validate_raw(raw)
    return raw


def serialize(raw: RawConfig) -> str:
    lines = []
    for section, pairs in raw.items():
        lines.append(f"[{section}]")
        for key, value in pairs.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(raw: RawConfig, overrides: List[str]) -> RawConfig:
    """Apply repeated ``section.key=value`` assignments, then re-validate."""
    updated = {section: dict(pairs) for section, pairs in raw.items()}
    for item in overrides:
        if "=" not in item:
            raise ProblemFileParseError(f"override {item!r} is not section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ProblemFileParseError(f"override {item!r} is not section.key=value")
        section, key = target.rsplit(".", 1)
        section, key, value = section.strip(), key.strip(), value.strip()
        updated.setdefault(section, {})[key] = value
    validate_raw(updated)
    return updated


def _check_keys(section: str, pairs: Dict[str, str], required: set, optional: set = frozenset()):
    for key in pairs:
        if key not in required and key not in optional:
            raise ProblemFileParseError(f"unknown key {key!r} in section [{section}]")
    for key in required:
        if key not in pairs:
            raise ProblemFileParseError(f"missing key {key!r} in section [{section}]")


def _check_set_section(name: str, pairs: Dict[str, str], allow_intersection: bool):
    if "kind" not in pairs:
        raise ProblemFileParseError(f"missing key 'kind' in section [{name}]")
    kind = pairs["kind"]
    if kind == "intersection":
        if not allow_intersection:
            raise ProblemFileParseError(
                f"nested intersection is not supported (section [{name}])"
            )
        _check_keys(name, pairs, {"kind", "members"})
        return
    if kind not in _SET_KIND_KEYS:
        raise ProblemFileParseError(f"unknown set kind {kind!r} in section [{name}]")
    _check_keys(name, pairs, {"kind"} | _SET_KIND_KEYS[kind])


def _check_mapping_section(name: str, pairs: Dict[str, str]):
    if "fixture" not in pairs:
        raise ProblemFileParseError(f"missing key 'fixture' in section [{name}]")
    fixture = pairs["fixture"]
    if fixture not in _FIXTURE_KEYS:
        raise ProblemFileParseError(
            f"unknown fixture {fixture!r} in section [{name}]"
        )
    _check_keys(name, pairs, {"fixture"} | _FIXTURE_KEYS[fixture])


def validate_raw(raw: RawConfig):
    for section in _REQUIRED_SECTIONS:
        if section not in raw:
            raise ProblemFileParseError(f"missing section [{section}]")

    member_sections = []
    if raw["set"].get("kind") == "intersection":
        members = raw["set"].get("members", "").split()
        if not members:
            raise ProblemFileParseError("intersection needs a 'members' list")
        # declaration order, so the first missing member is the one named
        member_sections = list(dict.fromkeys(f"set.{token}" for token in members))
        for name in member_sections:
            if name not in raw:
                raise ProblemFileParseError(f"missing member section [{name}]")

    for section in raw:
        if (
            section not in _REQUIRED_SECTIONS
            and section not in _OPTIONAL_SECTIONS
            and section not in member_sections
        ):
            raise ProblemFileParseError(f"unknown section [{section}]")

    _check_keys("problem", raw["problem"], _PROBLEM_KEYS, _PROBLEM_OPT_KEYS)
    if raw["problem"]["variant"] not in VARIANTS:
        raise ProblemFileParseError(
            f"unknown variant {raw['problem']['variant']!r}; choose from {VARIANTS}"
        )
    _check_set_section("set", raw["set"], allow_intersection=True)
    for name in member_sections:
        _check_set_section(name, raw[name], allow_intersection=False)
    for name in ("T", "S", "V", "F"):
        _check_mapping_section(name, raw[name])
    _check_keys("schedule", raw["schedule"], _SCHEDULE_KEYS)
    if "fix_set" in raw:
        _check_fix_set_section(raw["fix_set"])
    if "stop" in raw:
        _check_keys("stop", raw["stop"], set(), _STOP_KEYS)
    if "output" in raw:
        _check_keys("output", raw["output"], set(), _OUTPUT_KEYS)


def _check_fix_set_section(pairs: Dict[str, str]):
    if "kind" not in pairs:
        raise ProblemFileParseError("missing key 'kind' in section [fix_set]")
    kind = pairs["kind"]
    if kind == "singleton":
        _check_keys("fix_set", pairs, {"kind", "point"})
    elif kind == "convex_subset":
        if "set_kind" not in pairs:
            raise ProblemFileParseError("missing key 'set_kind' in section [fix_set]")
        set_kind = pairs["set_kind"]
        if set_kind not in _SET_KIND_KEYS or set_kind == "wholespace":
            raise ProblemFileParseError(
                f"unsupported fix_set set_kind {set_kind!r}"
            )
        _check_keys(
            "fix_set",
            pairs,
            {"kind", "set_kind"} | _SET_KIND_KEYS[set_kind],
            {"n_probes"},
        )
    elif kind == "sampled":
        _check_keys("fix_set", pairs, {"kind", "points"})
    else:
        raise ProblemFileParseError(f"unknown fix_set kind {kind!r}")


def _float(section: str, pairs: Dict[str, str], key: str) -> float:
    try:
        return float(pairs[key])
    except ValueError as exc:
        raise ProblemFileParseError(
            f"key {key!r} in [{section}] is not a real number: {pairs[key]!r}"
        ) from exc


def _int(section: str, pairs: Dict[str, str], key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError as exc:
        raise ProblemFileParseError(
            f"key {key!r} in [{section}] is not an integer: {pairs[key]!r}"
        ) from exc


def _vec(section: str, pairs: Dict[str, str], key: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in pairs[key].split()], dtype=float)
    except ValueError as exc:
        raise ProblemFileParseError(
            f"key {key!r} in [{section}] is not a vector: {pairs[key]!r}"
        ) from exc


def _build_simple_set(section: str, pairs: Dict[str, str]) -> ConvexSet:
    kind = pairs["kind"]
    if kind == "wholespace":
        raise ProblemFileParseError(
            f"wholespace needs no parameters but cannot infer dimension in [{section}]"
        )
    if kind == "ball":
        return Ball(_vec(section, pairs, "center"), _float(section, pairs, "radius"))
    if kind == "box":
        return Box(_vec(section, pairs, "lower"), _vec(section, pairs, "upper"))
    if kind == "halfspace":
        return Halfspace(_vec(section, pairs, "normal"), _float(section, pairs, "offset"))
    if kind == "hyperplane":
        return AffineHyperplane(
            _vec(section, pairs, "normal"), _float(section, pairs, "offset")
        )
    raise ProblemFileParseError(f"unknown set kind {kind!r}")


def _build_set(raw: RawConfig, dimension: int) -> ConvexSet:
    pairs = raw["set"]
    kind = pairs["kind"]
    if kind == "wholespace":
        return WholeSpace(dimension)
    if kind == "intersection":
        members = tuple(
            _build_simple_set(f"set.{token}", raw[f"set.{token}"])
            for token in pairs["members"].split()
        )
        return Intersection(members)
    return _build_simple_set("set", pairs)


def _build_mapping(
    section: str, pairs: Dict[str, str], domain: ConvexSet
) -> MappingHandle:
    fixture = pairs["fixture"]
    if fixture == "identity":
        return fixtures.identity_map(domain)
    if fixture == "zero":
        return fixtures.zero_map(domain)
    if fixture == "constant":
        return fixtures.constant_map(domain, _vec(section, pairs, "value"))
    if fixture == "contraction":
        return fixtures.contraction(domain, _float(section, pairs, "k"))
    if fixture == "linear":
        return fixtures.linear_map(domain, np.diag(_vec(section, pairs, "diag")))
    if fixture == "proj_affine":
        return fixtures.proj_affine(
            domain, _vec(section, pairs, "normal"), _float(section, pairs, "offset")
        )
    if fixture == "rotation":
        return fixtures.rotation(domain, _float(section, pairs, "theta"))
    if fixture == "averaged_rotation":
        return fixtures.averaged_rotation(
            domain, _float(section, pairs, "lam"), _float(section, pairs, "theta")
        )
    if fixture == "sahu_step":
        if domain.dim != 1:
            raise ProblemFileSemanticError("sahu_step requires dimension 1")
        return fixtures.sahu_step()
    raise ProblemFileParseError(f"unknown fixture {fixture!r}")


def _build_fix_set(pairs: Dict[str, str]):
    kind = pairs["kind"]
    if kind == "singleton":
        return Singleton(_vec("fix_set", pairs, "point"))
    if kind == "sampled":
        points = tuple(
            np.array([float(tok) for tok in chunk.split()], dtype=float)
            for chunk in pairs["points"].split(";")
            if chunk.strip()
        )
        if not points:
            raise ProblemFileParseError("fix_set 'points' list is empty")
        return SampledPoints(points)
    subset_pairs = dict(pairs)
    subset_pairs["kind"] = pairs["set_kind"]
    subset = _build_simple_set("fix_set", subset_pairs)
    n_probes = int(pairs.get("n_probes", 32))
    return ConvexSubset(subset, n_probes)


def _build_stop(pairs: Dict[str, str]) -> StopRule:
    defaults = StopRule()

    def tol(key, default):
        if key not in pairs:
            return default
        value = pairs[key]
        if value.lower() == "none":
            return None
        try:
            return float(value)
        except ValueError as exc:
            raise ProblemFileParseError(
                f"key {key!r} in [stop] is not a real number or 'none'"
            ) from exc

    max_iters = defaults.max_iters
    if "max_iters" in pairs:
        max_iters = _int("stop", pairs, "max_iters")
        if max_iters < 1:
            raise ProblemFileSemanticError(f"stop.max_iters = {max_iters} is below 1")
    return StopRule(
        max_iters=max_iters,
        tol_step=tol("tol_step", defaults.tol_step),
        tol_fix=tol("tol_fix", defaults.tol_fix),
        tol_vi=tol("tol_vi", defaults.tol_vi),
    )


@dataclass
class BuiltProblem:
    spec: ProblemSpec
    stop: StopRule
    trace_path: Optional[str]
    variant: str
    raw: RawConfig


def build_problem(raw: RawConfig) -> BuiltProblem:
    """Turn a validated raw config into solver objects.

    Schema/type problems raise :class:`ProblemFileParseError`; geometric or
    analytic inconsistencies raise :class:`ProblemFileSemanticError`.
    """
    prob = raw["problem"]
    dimension = _int("problem", prob, "dimension")
    if dimension < 1:
        raise ProblemFileSemanticError("dimension must be positive")
    try:
        C = _build_set(raw, dimension)
        if C.dim != dimension:
            raise ProblemFileSemanticError(
                f"set dimension {C.dim} does not match declared dimension {dimension}"
            )
        T = _build_mapping("T", raw["T"], C)
        S = _build_mapping("S", raw["S"], C)
        V = _build_mapping("V", raw["V"], C)
        F = _build_mapping("F", raw["F"], C)
        schedule = power_schedule(
            _float("schedule", raw["schedule"], "alpha0"),
            _float("schedule", raw["schedule"], "p"),
            _float("schedule", raw["schedule"], "beta0"),
            _float("schedule", raw["schedule"], "q"),
        )
        x1 = _vec("problem", prob, "x1")
        if x1.size != dimension:
            raise ProblemFileSemanticError("x1 dimension does not match the problem")
        reference = _vec("problem", prob, "reference") if "reference" in prob else None
        fix_set = _build_fix_set(raw["fix_set"]) if "fix_set" in raw else None
        base = ProblemSpec(
            C=C,
            T=T,
            S=S,
            V=V,
            F=F,
            rho=_float("problem", prob, "rho"),
            mu=_float("problem", prob, "mu"),
            schedule=schedule,
            mode=FullPower(),
            x1=x1,
            fix_set=fix_set,
            reference=reference,
            seed=_int("problem", prob, "seed") if "seed" in prob else 0,
        )
        spec = reduce_variant(base, prob["variant"])
    except (ProblemDefinitionError, UsageError) as exc:
        raise ProblemFileSemanticError(str(exc)) from exc
    stop = _build_stop(raw.get("stop", {}))
    trace_path = raw.get("output", {}).get("trace")
    return BuiltProblem(spec, stop, trace_path, prob["variant"], raw)
