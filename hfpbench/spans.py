"""Spans and counters around calls into `hfp`, for the traced run.

The tracer replaces public functions of the `hfp` modules (in every module
namespace that imported them) with wrappers that record a span: name id,
start and end in ns, parent span and a unit count such as samples or rows.
Spans stay in one flat in-memory array and are written out once, at the end.
Calls too frequent to time are counted instead: ``vector``, and member
projections inside a Dykstra projection, whose cycles become the units of
its span.  ``restore`` undoes every patch.
"""
from __future__ import annotations

import dataclasses
import json
import os
import time
from array import array
from collections import Counter
from fractions import Fraction

import numpy as np

from hfp import cli, fixtures, geometry, operators, problemfile, schedules, solver

FIELDS = 5  # name id, start ns, end ns, parent span, units

SET_KINDS = {
    geometry.WholeSpace: "wholespace",
    geometry.Ball: "ball",
    geometry.Box: "box",
    geometry.Halfspace: "halfspace",
    geometry.AffineHyperplane: "hyperplane",
    geometry.Intersection: "intersection",
}

FIXTURE_FACTORIES = (
    "identity_map",
    "zero_map",
    "constant_map",
    "contraction",
    "linear_map",
    "proj_affine",
    "rotation",
    "averaged_rotation",
    "sahu_step",
)

CERTIFIERS = {
    "certify_lipschitz": "lipschitz",
    "certify_strong_monotone": "strong_monotone",
    "certify_nearly_nonexpansive": "nearly_nonexpansive",
    "certify_combined_monotone": "combined_monotone",
    "certify_yamada_contraction": "yamada_contraction",
}

MODULES = (geometry, fixtures, operators, schedules, solver, problemfile, cli)


def _namespaces(name: str):
    """Every `hfp` module namespace that holds ``name``, the defining one first."""
    return [m for m in MODULES if name in vars(m)]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list = []
        self._member_calls = 0
        self._dykstra_depth = 0

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.spans) // FIELDS
        self.spans.extend((nid, time.perf_counter_ns(), 0, self._stack[-1], 0))
        self._stack.append(index)
        return index

    def _close(self, index: int, units: int = 0):
        self.spans[index * FIELDS + 2] = time.perf_counter_ns()
        self.spans[index * FIELDS + 4] = units
        self._stack.pop()

    def spanned(self, fn, name, units=None):
        """Wrap ``fn`` in a span; ``units(args, kwargs, result)`` sets its unit count."""
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(nid)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                tracer._close(index, units(args, kwargs, result) if units and done else 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_handle(self, handle):
        """The same mapping with its ``evaluate`` calls recorded."""
        return dataclasses.replace(
            handle, evaluate=self.spanned(handle.evaluate, "fixtures.evaluate")
        )

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, name: str, make):
        spaces = _namespaces(name)
        wrapper = make(getattr(spaces[0], name))
        for module in spaces:
            self._patch(module, name, wrapper)

    def install(self):
        counts = self.counts
        tracer = self

        def counted(fn):
            def wrapper(*args, **kwargs):
                counts["vector"] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._patch_everywhere("vector", counted)
        self._patch(geometry.ConvexSet, "contains", self.spanned(geometry.ConvexSet.contains, "geometry.contains"))

        kind_ids = {cls: self._id(f"geometry.project.{kind}") for cls, kind in SET_KINDS.items()}
        project = geometry.ConvexSet.project

        def traced_project(self_set, x):
            cls = type(self_set)
            index = tracer._open(kind_ids[cls])
            if cls is not geometry.Intersection:
                try:
                    return project(self_set, x)
                finally:
                    tracer._close(index)
            tracer._dykstra_depth += 1
            before = tracer._member_calls
            try:
                return project(self_set, x)
            finally:
                tracer._dykstra_depth -= 1
                tracer._close(index, (tracer._member_calls - before) // len(self_set.members))

        self._patch(geometry.ConvexSet, "project", traced_project)

        for cls in SET_KINDS:
            if cls is geometry.Intersection:
                continue
            kernel = cls._project

            def member_project(self_set, x, _kernel=kernel):
                if tracer._dykstra_depth:
                    tracer._member_calls += 1
                return _kernel(self_set, x)

            self._patch(cls, "_project", member_project)

        for name in FIXTURE_FACTORIES:
            self._patch_everywhere(name, self._traced_factory)

        self._patch_everywhere("power", lambda fn: self.spanned(fn, "operators.power"))
        for name, kind in CERTIFIERS.items():
            self._patch_everywhere(
                name,
                lambda fn, kind=kind: self.spanned(
                    fn, f"operators.certify.{kind}", lambda a, k, r: r.samples_used
                ),
            )

        self._patch_everywhere("validate_schedule", lambda fn: self.spanned(fn, "schedules.validate_schedule"))
        self._patch_everywhere("scalar_recursion", self._traced_recursion)

        self._patch_everywhere(
            "solve", lambda fn: self.spanned(fn, "solver.solve", lambda a, k, r: r.iterations)
        )
        for name in ("step", "vi_residual", "validate_problem", "check_power_regularity"):
            self._patch_everywhere(name, lambda fn, name=name: self.spanned(fn, f"solver.{name}"))

        self._patch_everywhere("parse_problem_file", lambda fn: self.spanned(fn, "problemfile.parse"))
        self._patch_everywhere("apply_overrides", lambda fn: self.spanned(fn, "problemfile.overrides"))
        self._patch_everywhere("build_problem", lambda fn: self.spanned(fn, "problemfile.build"))

        def trace_rows(args, kwargs, result):
            counts["trace_bytes"] += os.path.getsize(args[0])
            return len(args[1].trace)

        self._patch_everywhere("write_trace", lambda fn: self.spanned(fn, "cli.write_trace", trace_rows))
        self._patch_everywhere("main", self._traced_main)

    def _traced_factory(self, factory):
        def wrapper(*args, **kwargs):
            return self.traced_handle(factory(*args, **kwargs))

        return wrapper

    def _traced_main(self, fn):
        def wrapper(argv):
            index = self._open(self._id(f"cli.{argv[0]}"))
            try:
                return fn(argv)
            finally:
                self._close(index, _cli_points(argv))

        return wrapper

    def _traced_recursion(self, fn):
        ids = {True: self._id("schedules.recursion.fraction"), False: self._id("schedules.recursion.float")}

        def wrapper(x1, alpha, beta, N):
            index = self._open(ids[isinstance(x1, Fraction)])
            try:
                return fn(x1, alpha, beta, N)
            finally:
                self._close(index, N)

        return wrapper

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -------------------------------------------------------------- output

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)

    def dump(self, path: str):
        """Write the spans as .npy plus a .json sidecar with names and counts."""
        np.save(path + ".npy", self.table())
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "units"],
                       "names": self.names, "counts": dict(self.counts)}, handle)


def _cli_points(argv) -> int:
    """Grid points of a ``sweep`` or variants of a ``compare`` call."""
    if argv[0] == "compare":
        return sum(1 for tok in argv[2:] if tok in solver.VARIANTS)
    if argv[0] != "sweep":
        return 0
    values = argv[argv.index("--p-values") + 1 :]
    return next((i for i, tok in enumerate(values) if tok.startswith("--")), len(values))


class Summary:
    """Per-layer metrics from a span table."""

    def __init__(self, tracer: Tracer, rounds: int):
        t = tracer.table()
        self.counts = tracer.counts
        self.rounds = max(rounds, 1)
        names = np.array(tracer.names, dtype=object)
        self.name = names[t[:, 0]] if len(t) else np.array([], dtype=object)
        self.dur = (t[:, 2] - t[:, 1]).astype(float)
        self.parent = t[:, 3]
        self.units = t[:, 4]
        solves = self.name == "solver.solve"
        self.iterations = int(self.units[solves].sum())

    def _mask(self, name: str) -> np.ndarray:
        return self.name == name

    def mean_us(self, name: str, mask=None) -> float:
        m = self._mask(name) if mask is None else self._mask(name) & mask
        return float(self.dur[m].mean() / 1e3) if m.any() else 0.0

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def per_iter(self, value: float) -> float:
        return value / self.iterations if self.iterations else 0.0

    def rate(self, *names: str) -> float:
        m = np.isin(self.name, names)
        seconds = self.dur[m].sum() / 1e9
        return float(self.units[m].sum() / seconds) if seconds > 0 else 0.0

    def metrics(self) -> dict:
        out = {}
        # projections the method asks for; those inside a membership test are
        # timed by geometry.contains_us instead
        needed = ~np.isin(self.parent, np.nonzero(self._mask("geometry.contains"))[0])
        for kind in ("ball", "intersection", "box", "halfspace", "hyperplane"):
            out[f"geometry.project_us.{kind}"] = (self.mean_us(f"geometry.project.{kind}", needed), "us")
        projections = sum(self.count(f"geometry.project.{k}") for k in SET_KINDS.values())
        out["geometry.projections_per_iter"] = (self.per_iter(projections), "count")
        dykstra = self._mask("geometry.project.intersection") & needed
        out["geometry.dykstra_cycles_per_project"] = (
            float(self.units[dykstra].mean()) if dykstra.any() else 0.0, "count")
        out["geometry.contains_us"] = (self.mean_us("geometry.contains"), "us")
        out["geometry.contains_calls_per_iter"] = (self.per_iter(self.count("geometry.contains")), "count")
        out["geometry.vector_calls_per_iter"] = (self.per_iter(self.counts["vector"]), "count")

        out["fixtures.evaluate_us"] = (self.mean_us("fixtures.evaluate"), "us")
        out["fixtures.evaluate_calls_per_iter"] = (self.per_iter(self.count("fixtures.evaluate")), "count")

        out["operators.power_us"] = (self.mean_us("operators.power"), "us")
        power_index = np.nonzero(self._mask("operators.power"))[0]
        raw = self._mask("fixtures.evaluate") & np.isin(self.parent, power_index)
        out["operators.raw_steps_per_iter"] = (self.per_iter(int(raw.sum())), "count")
        for kind in CERTIFIERS.values():
            out[f"operators.certify_pairs_per_s.{kind}"] = (self.rate(f"operators.certify.{kind}"), "1/s")

        out["schedules.recursion_steps_per_s.float"] = (self.rate("schedules.recursion.float"), "1/s")
        out["schedules.recursion_steps_per_s.fraction"] = (self.rate("schedules.recursion.fraction"), "1/s")
        out["schedules.validate_schedule_ms"] = (self.mean_us("schedules.validate_schedule") / 1e3, "ms")
        out["schedules.validate_schedule_calls_per_round"] = (
            self.count("schedules.validate_schedule") / self.rounds, "count")

        out["solver.step_us"] = (self.mean_us("solver.step"), "us")
        out["solver.vi_residual_us"] = (self.mean_us("solver.vi_residual"), "us")
        solve_index = np.nonzero(self._mask("solver.solve"))[0]
        solve_time = self.dur[solve_index].sum()
        child_time = self.dur[np.isin(self.parent, solve_index)].sum()
        out["solver.solve_self_share"] = (
            float((solve_time - child_time) / solve_time) if solve_time else 0.0, "share")
        out["solver.iterations"] = (self.iterations / self.rounds, "count")
        out["solver.validate_problem_ms"] = (self.mean_us("solver.validate_problem") / 1e3, "ms")
        out["solver.power_regularity_ms"] = (self.mean_us("solver.check_power_regularity") / 1e3, "ms")

        load = self._mask("problemfile.parse") | self._mask("problemfile.overrides") | self._mask("problemfile.build")
        builds = self.count("problemfile.build")
        out["problemfile.parse_build_ms"] = (float(self.dur[load].sum() / 1e6 / builds) if builds else 0.0, "ms")

        out["cli.write_trace_rows_per_s"] = (self.rate("cli.write_trace"), "1/s")
        out["cli.trace_bytes"] = (self.counts["trace_bytes"] / self.rounds, "B")
        out["cli.sweep_points_per_s"] = (self.rate("cli.sweep", "cli.compare"), "1/s")
        out["trace.spans_per_round"] = (len(self.dur) / self.rounds, "count")
        return out
