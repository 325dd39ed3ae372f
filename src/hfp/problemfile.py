"""Strict, line-oriented problem files for the benchmark CLI.

The format is INI-style: flat sections of ``key = value`` pairs.  Unknown
sections or keys are rejected, and parse -> serialize -> parse is an
identity on the raw key/value content (no expression language, bit-exact
diffs).
"""
from __future__ import annotations

import configparser
import io
import math
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
from .schedules import power_schedule
from .solver import (
    DEFAULT_N_PROBES,
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


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _reals(text: str) -> np.ndarray:
    return np.array([_real(token) for token in text.split()], dtype=float)


def _read(section: str, pairs: Dict[str, str], key: str, convert, what: str):
    try:
        return convert(pairs[key])
    except ValueError as exc:
        raise ProblemFileParseError(
            f"key {key!r} in [{section}] is not {what}: {pairs[key]!r}"
        ) from exc


def _float(section: str, pairs: Dict[str, str], key: str) -> float:
    return _read(section, pairs, key, _real, "a finite real number")


def _int(section: str, pairs: Dict[str, str], key: str) -> int:
    return _read(section, pairs, key, int, "an integer")


def _vec(section: str, pairs: Dict[str, str], key: str) -> np.ndarray:
    return _read(section, pairs, key, _reals, "a vector of finite reals")


def _vecs(section: str, pairs: Dict[str, str], key: str) -> List[np.ndarray]:
    """A ``;``-separated list of vectors; empty items are skipped."""

    def convert(text):
        return [_reals(item) for item in text.split(";") if item.strip()]

    return _read(section, pairs, key, convert, "a list of vectors of finite reals")


def _check_dim(what: str, size: int, dimension: int):
    if size != dimension:
        raise ProblemFileSemanticError(
            f"{what} dimension {size} does not match declared dimension {dimension}"
        )


# A catalog maps a name to (fields, build).  A field is (key, reader), or
# (key, reader, default) for an optional key; a field whose reader is itself a
# catalog names one of its entries, whose keys then sit in the same section.
# ``build(context, *values)`` gets the fields' values in order; the context is
# the declared dimension, or the domain C for a mapping.

_SET_KINDS = {
    "wholespace": ((), WholeSpace),
    "ball": ((("center", _vec), ("radius", _float)), lambda _, c, r: Ball(c, r)),
    "box": ((("lower", _vec), ("upper", _vec)), lambda _, lower, upper: Box(lower, upper)),
    "halfspace": ((("normal", _vec), ("offset", _float)), lambda _, a, b: Halfspace(a, b)),
    "hyperplane": (
        (("normal", _vec), ("offset", _float)),
        lambda _, a, b: AffineHyperplane(a, b),
    ),
}


def _sahu_step(domain: ConvexSet):
    if domain.dim != 1:
        raise ProblemFileSemanticError("sahu_step requires dimension 1")
    return fixtures.sahu_step()


# Builders look their factory up in ``fixtures`` when called, so a factory
# patched there (as the traced benchmark does) is the one that runs.
_FIXTURES = {
    "identity": ((), lambda C: fixtures.identity_map(C)),
    "zero": ((), lambda C: fixtures.zero_map(C)),
    "constant": ((("value", _vec),), lambda C, value: fixtures.constant_map(C, value)),
    "contraction": ((("k", _float),), lambda C, k: fixtures.contraction(C, k)),
    "linear": ((("diag", _vec),), lambda C, diag: fixtures.linear_map(C, np.diag(diag))),
    "proj_affine": (
        (("normal", _vec), ("offset", _float)),
        lambda C, a, b: fixtures.proj_affine(C, a, b),
    ),
    "rotation": ((("theta", _float),), lambda C, theta: fixtures.rotation(C, theta)),
    "averaged_rotation": (
        (("lam", _float), ("theta", _float)),
        lambda C, lam, theta: fixtures.averaged_rotation(C, lam, theta),
    ),
    "sahu_step": ((), _sahu_step),
}


def _singleton(dimension: int, point: np.ndarray) -> Singleton:
    _check_dim("fix_set point", point.size, dimension)
    return Singleton(point)


def _sampled(dimension: int, points: List[np.ndarray]) -> SampledPoints:
    if not points:
        raise ProblemFileParseError("fix_set 'points' list is empty")
    for point in points:
        _check_dim("fix_set point", point.size, dimension)
    return SampledPoints(points)


def _convex_subset(dimension: int, subset: ConvexSet, n_probes: int) -> ConvexSubset:
    _check_dim("fix_set", subset.dim, dimension)
    if n_probes < 1:
        raise ProblemFileSemanticError(f"fix_set.n_probes = {n_probes} is below 1")
    return ConvexSubset(subset, n_probes)


_FIX_SETS = {
    "singleton": ((("point", _vec),), _singleton),
    "convex_subset": (
        (("set_kind", _SET_KINDS), ("n_probes", _int, DEFAULT_N_PROBES)),
        _convex_subset,
    ),
    "sampled": ((("points", _vecs),), _sampled),
}

_REQUIRED_SECTIONS = ("problem", "set", "T", "S", "V", "F", "schedule")
_OPTIONAL_SECTIONS = ("fix_set", "stop", "output")

_PROBLEM_KEYS = ("dimension", "rho", "mu", "variant", "x1")
_PROBLEM_OPT_KEYS = ("seed", "reference")
_SCHEDULE_KEYS = ("alpha0", "p", "beta0", "q")  # power_schedule's argument order
_STOP_KEYS = ("max_iters", "tol_step", "tol_fix", "tol_vi")
_OUTPUT_KEYS = ("trace",)


def parse_problem_file(path: str) -> RawConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _parse(handle, path)
    except (OSError, UnicodeError) as exc:
        raise ProblemFileParseError(f"cannot read {path}: {exc}") from exc


def parse_problem_text(text: str) -> RawConfig:
    return _parse(io.StringIO(text), "<config>")


def _parse(handle, source: str) -> RawConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_file(handle, source=source)
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


def _check_keys(section: str, pairs: Dict[str, str], required, optional=()):
    for key in pairs:
        if key not in required and key not in optional:
            raise ProblemFileParseError(f"unknown key {key!r} in section [{section}]")
    for key in required:
        if key not in pairs:
            raise ProblemFileParseError(f"missing key {key!r} in section [{section}]")


def _entry(section: str, pairs: Dict[str, str], selector: str, catalog: dict):
    """The (fields, build) entry of ``catalog`` that ``pairs[selector]`` names."""
    if selector not in pairs:
        raise ProblemFileParseError(f"missing key {selector!r} in section [{section}]")
    name = pairs[selector]
    if name not in catalog:
        raise ProblemFileParseError(f"unknown {selector} {name!r} in section [{section}]")
    return catalog[name]


def _entry_keys(section: str, pairs: Dict[str, str], selector: str, catalog: dict):
    """The required and the optional keys of the entry ``pairs[selector]`` names."""
    fields, _ = _entry(section, pairs, selector, catalog)
    required, optional = [selector], []
    for key, read, *default in fields:
        if isinstance(read, dict):
            nested_required, nested_optional = _entry_keys(section, pairs, key, read)
            required += nested_required
            optional += nested_optional
        else:
            (optional if default else required).append(key)
    return required, optional


def _check_entry(section: str, pairs: Dict[str, str], selector: str, catalog: dict):
    _check_keys(section, pairs, *_entry_keys(section, pairs, selector, catalog))


def _build_entry(
    section: str, pairs: Dict[str, str], selector: str, catalog: dict, context
):
    fields, build = _entry(section, pairs, selector, catalog)
    values = []
    for key, read, *default in fields:
        if isinstance(read, dict):
            values.append(_build_entry(section, pairs, key, read, context))
        elif key in pairs:
            values.append(read(section, pairs, key))
        else:
            values.append(default[0])
    return build(context, *values)


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
    if member_sections:
        _check_keys("set", raw["set"], ("kind", "members"))
    else:
        _check_entry("set", raw["set"], "kind", _SET_KINDS)
    for name in member_sections:
        _check_entry(name, raw[name], "kind", _SET_KINDS)
    for name in ("T", "S", "V", "F"):
        _check_entry(name, raw[name], "fixture", _FIXTURES)
    _check_keys("schedule", raw["schedule"], _SCHEDULE_KEYS)
    if "fix_set" in raw:
        _check_entry("fix_set", raw["fix_set"], "kind", _FIX_SETS)
    for section, keys in (("stop", _STOP_KEYS), ("output", _OUTPUT_KEYS)):
        _check_keys(section, raw.get(section, {}), (), keys)


def _build_set(raw: RawConfig, section: str, dimension: int) -> ConvexSet:
    pairs = raw[section]
    if pairs["kind"] == "intersection":
        members = pairs["members"].split()
        return Intersection(tuple(_build_set(raw, f"set.{m}", dimension) for m in members))
    built = _build_entry(section, pairs, "kind", _SET_KINDS, dimension)
    _check_dim(section, built.dim, dimension)
    return built


def _tol(section: str, pairs: Dict[str, str], key: str) -> Optional[float]:
    """A stop tolerance; ``none`` disables its rule."""

    def convert(text):
        return None if text.lower() == "none" else float(text)

    return _read(section, pairs, key, convert, "a real number or 'none'")


def _build_stop(pairs: Dict[str, str]) -> StopRule:
    max_iters = StopRule.max_iters
    if "max_iters" in pairs:
        max_iters = _int("stop", pairs, "max_iters")
        if max_iters < 1:
            raise ProblemFileSemanticError(f"stop.max_iters = {max_iters} is below 1")
    tolerances = {key: _tol("stop", pairs, key) for key in _STOP_KEYS[1:] if key in pairs}
    return StopRule(max_iters, **tolerances)


@dataclass
class BuiltProblem:
    spec: ProblemSpec
    stop: StopRule
    trace_path: Optional[str]


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
        C = _build_set(raw, "set", dimension)
        T, S, V, F = (_build_entry(m, raw[m], "fixture", _FIXTURES, C) for m in "TSVF")
        schedule = power_schedule(
            *(_float("schedule", raw["schedule"], key) for key in _SCHEDULE_KEYS)
        )
        x1 = _vec("problem", prob, "x1")
        _check_dim("x1", x1.size, dimension)
        reference = None
        if "reference" in prob:
            reference = _vec("problem", prob, "reference")
            _check_dim("reference", reference.size, dimension)
        seed = _int("problem", prob, "seed") if "seed" in prob else 0
        if seed < 0:
            raise ProblemFileSemanticError(f"problem.seed = {seed} is below 0")
        fix_set = None
        if "fix_set" in raw:
            fix_set = _build_entry("fix_set", raw["fix_set"], "kind", _FIX_SETS, dimension)
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
            seed=seed,
        )
        spec = reduce_variant(base, prob["variant"])
    except (ProblemDefinitionError, UsageError) as exc:
        raise ProblemFileSemanticError(str(exc)) from exc
    stop = _build_stop(raw.get("stop", {}))
    return BuiltProblem(spec, stop, raw.get("output", {}).get("trace"))
