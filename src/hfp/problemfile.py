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
    NumericError,
    ProblemDefinitionError,
    UsageError,
    WholeSpace,
    sample,
)
from .schedules import Schedule
from .solver import FullPower, ProblemSpec, StopRule, VARIANTS, reduce_variant

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


# A reader is (convert, what): ``convert`` turns a value's text into the value or
# raises ValueError, and ``what`` names the expected form in the parse error.
_REAL = (_real, "a finite real number")
_INT = (int, "an integer")
_VECTOR = (_reals, "a vector of finite reals")
_VECTORS = (  # ``;``-separated; empty items are skipped
    lambda text: [_reals(item) for item in text.split(";") if item.strip()],
    "a list of vectors of finite reals",
)
_TOL = (  # a stop tolerance; ``none`` disables its rule
    lambda text: None if text.lower() == "none" else _real(text),
    "a finite real number or 'none'",
)
_TEXT = (str, "text")


def _check_dim(what: str, size: int, dimension: int):
    if size != dimension:
        raise ProblemFileSemanticError(
            f"{what} dimension {size} does not match declared dimension {dimension}"
        )


# A catalog maps a name to (fields, build).  A field is (key, reader), or
# (key, reader, default) for an optional key; a field whose reader is itself a
# catalog names one of its entries, whose keys then sit in the same section.
# ``build(context, *values)`` gets the fields' values in order; the context is
# the pair (declared dimension, problem seed) for a set or fix set, or the
# domain C for a mapping.

_SET_KINDS = {
    "wholespace": ((), lambda space: WholeSpace(space[0])),
    "ball": ((("center", _VECTOR), ("radius", _REAL)), lambda _, c, r: Ball(c, r)),
    "box": ((("lower", _VECTOR), ("upper", _VECTOR)), lambda _, lower, upper: Box(lower, upper)),
    "halfspace": ((("normal", _VECTOR), ("offset", _REAL)), lambda _, a, b: Halfspace(a, b)),
    "hyperplane": (
        (("normal", _VECTOR), ("offset", _REAL)),
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
    "constant": ((("value", _VECTOR),), lambda C, value: fixtures.constant_map(C, value)),
    "contraction": ((("k", _REAL),), lambda C, k: fixtures.contraction(C, k)),
    "linear": ((("diag", _VECTOR),), lambda C, diag: fixtures.linear_map(C, np.diag(diag))),
    "proj_affine": (
        (("normal", _VECTOR), ("offset", _REAL)),
        lambda C, a, b: fixtures.proj_affine(C, a, b),
    ),
    "rotation": ((("theta", _REAL),), lambda C, theta: fixtures.rotation(C, theta)),
    "averaged_rotation": (
        (("lam", _REAL), ("theta", _REAL)),
        lambda C, lam, theta: fixtures.averaged_rotation(C, lam, theta),
    ),
    "sahu_step": ((), _sahu_step),
}


DEFAULT_N_PROBES = 32  # convex_subset points when the file gives no n_probes


# Each fix-set builder returns the points that probe Fix(T).
def _singleton(space, point: np.ndarray) -> List[np.ndarray]:
    return _sampled(space, [point])


def _sampled(space, points: List[np.ndarray]) -> List[np.ndarray]:
    if not points:
        raise ProblemFileParseError("fix_set 'points' list is empty")
    for point in points:
        _check_dim("fix_set point", point.size, space[0])
    return points


def _convex_subset(space, subset: ConvexSet, n_probes: int) -> List[np.ndarray]:
    dimension, seed = space
    _check_dim("fix_set", subset.dim, dimension)
    if n_probes < 1:
        raise ProblemFileSemanticError(f"fix_set.n_probes = {n_probes} is below 1")
    rng = np.random.default_rng(seed)
    return [sample(subset, rng) for _ in range(n_probes)]


_FIX_SETS = {
    "singleton": ((("point", _VECTOR),), _singleton),
    "convex_subset": (
        (("set_kind", _SET_KINDS), ("n_probes", _INT, DEFAULT_N_PROBES)),
        _convex_subset,
    ),
    "sampled": ((("points", _VECTORS),), _sampled),
}

# Each fixed section is a tuple of fields, as a catalog entry is; the walks
# below read the sections, and report their faults, in this order.
_SECTIONS = {
    "problem": (
        ("dimension", _INT), ("rho", _REAL), ("mu", _REAL), ("variant", _TEXT), ("x1", _VECTOR),
        ("seed", _INT, ProblemSpec.seed), ("reference", _VECTOR, None),
    ),
    "set": (("kind", _SET_KINDS),),
    **{mapping: (("fixture", _FIXTURES),) for mapping in "TSVF"},
    # Schedule's field order
    "schedule": (("alpha0", _REAL), ("p", _REAL), ("beta0", _REAL), ("q", _REAL)),
    "fix_set": (("kind", _FIX_SETS),),
    "stop": (
        ("max_iters", _INT, StopRule.max_iters),
        ("tol_step", _TOL, StopRule.tol_step),
        ("tol_fix", _TOL, StopRule.tol_fix),
        ("tol_vi", _TOL, StopRule.tol_vi),
    ),
    "output": (("trace", _TEXT, None),),
}
_OPTIONAL_SECTIONS = ("fix_set", "stop", "output")
_REQUIRED_SECTIONS = tuple(s for s in _SECTIONS if s not in _OPTIONAL_SECTIONS)
# ``[set]`` when it is an intersection; each member is a ``[set.<name>]``
# section with the fields of ``[set]``
_INTERSECTION = (("kind", _TEXT), ("members", _TEXT))


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


def _entry(section: str, pairs: Dict[str, str], selector: str, catalog: dict):
    """The (fields, build) entry of ``catalog`` that ``pairs[selector]`` names."""
    if selector not in pairs:
        raise ProblemFileParseError(f"missing key {selector!r} in section [{section}]")
    name = pairs[selector]
    if name not in catalog:
        raise ProblemFileParseError(f"unknown {selector} {name!r} in section [{section}]")
    return catalog[name]


def _declared(section: str, pairs: Dict[str, str], fields) -> Dict[str, bool]:
    """Each key of ``fields``, mapped to whether it is required; a catalog
    field adds the keys of the entry it selects."""
    declared = {}
    for key, read, *default in fields:
        declared[key] = not default
        if isinstance(read, dict):
            declared.update(_declared(section, pairs, _entry(section, pairs, key, read)[0]))
    return declared


def _check_keys(section: str, pairs: Dict[str, str], fields):
    declared = _declared(section, pairs, fields)
    for key in pairs:
        if key not in declared:
            raise ProblemFileParseError(f"unknown key {key!r} in section [{section}]")
    for key, required in declared.items():
        if required and key not in pairs:
            raise ProblemFileParseError(f"missing key {key!r} in section [{section}]")


def _values(section: str, pairs: Dict[str, str], fields, context) -> list:
    """The value of each field in order: read, defaulted, or for a catalog
    field the entry it selects, built on ``context``."""
    values = []
    for key, read, *default in fields:
        if isinstance(read, dict):
            entry_fields, build = read[pairs[key]]
            values.append(build(context, *_values(section, pairs, entry_fields, context)))
        elif key in pairs:
            values.append(_read(section, pairs, key, *read))
        else:
            values.append(default[0])
    return values


def validate_raw(raw: RawConfig):
    for section in _REQUIRED_SECTIONS:
        if section not in raw:
            raise ProblemFileParseError(f"missing section [{section}]")

    sections = dict(_SECTIONS)
    if raw["set"].get("kind") == "intersection":
        members = raw["set"].get("members", "").split()
        if not members:
            raise ProblemFileParseError("intersection needs a 'members' list")
        sections["set"] = _INTERSECTION
        # declaration order, so the first missing member is the one named
        for name in dict.fromkeys(f"set.{token}" for token in members):
            if name not in raw:
                raise ProblemFileParseError(f"missing member section [{name}]")
            sections[name] = _SECTIONS["set"]

    for section in raw:
        if section not in sections:
            raise ProblemFileParseError(f"unknown section [{section}]")
    for section, fields in sections.items():
        if section in raw:
            _check_keys(section, raw[section], fields)
    if raw["problem"]["variant"] not in VARIANTS:
        raise ProblemFileParseError(
            f"unknown variant {raw['problem']['variant']!r}; choose from {VARIANTS}"
        )


def _build_set(raw: RawConfig, section: str, space) -> ConvexSet:
    pairs = raw[section]
    if pairs["kind"] == "intersection":
        members = pairs["members"].split()
        return Intersection(tuple(_build_set(raw, f"set.{m}", space) for m in members))
    (built,) = _values(section, pairs, _SECTIONS["set"], space)
    _check_dim(section, built.dim, space[0])
    return built


@dataclass
class BuiltProblem:
    spec: ProblemSpec
    stop: StopRule
    trace_path: Optional[str]


def build_problem(raw: RawConfig) -> BuiltProblem:
    """Turn a validated raw config into solver objects.

    Schema/type problems raise :class:`ProblemFileParseError`; geometric or
    analytic inconsistencies, and a domain whose projection fails while the
    problem is built, raise :class:`ProblemFileSemanticError`.
    """

    def values(section: str, context=None) -> list:
        return _values(section, raw.get(section, {}), _SECTIONS[section], context)

    dimension, rho, mu, variant, x1, seed, reference = values("problem")
    if dimension < 1:
        raise ProblemFileSemanticError("dimension must be positive")
    space = (dimension, seed)
    try:
        C = _build_set(raw, "set", space)
        T, S, V, F = (values(m, C)[0] for m in "TSVF")
        schedule = Schedule(*values("schedule"))
        _check_dim("x1", x1.size, dimension)
        if reference is not None:
            _check_dim("reference", reference.size, dimension)
        if seed < 0:
            raise ProblemFileSemanticError(f"problem.seed = {seed} is below 0")
        fix_points = values("fix_set", space)[0] if "fix_set" in raw else None
        base = ProblemSpec(
            C=C, T=T, S=S, V=V, F=F, rho=rho, mu=mu, schedule=schedule, mode=FullPower(),
            x1=x1, fix_points=fix_points, reference=reference, seed=seed,
        )
        spec = reduce_variant(base, variant)
    except (ProblemDefinitionError, UsageError, NumericError) as exc:
        raise ProblemFileSemanticError(str(exc)) from exc
    max_iters, *tolerances = values("stop")
    if max_iters < 1:
        raise ProblemFileSemanticError(f"stop.max_iters = {max_iters} is below 1")
    for (key, *_), tol in zip(_SECTIONS["stop"][1:], tolerances):
        if tol is not None and tol < 0:
            raise ProblemFileSemanticError(f"stop.{key} = {tol} is below 0")
    return BuiltProblem(spec, StopRule(max_iters, *tolerances), *values("output"))
