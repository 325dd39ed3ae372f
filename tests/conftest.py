import os
from pathlib import Path

import numpy as np
import pytest

from hfp.geometry import (
    AffineHyperplane,
    Ball,
    Box,
    Halfspace,
    Intersection,
    WholeSpace,
    sample,
)
from hfp.fixtures import identity_map, proj_affine, zero_map
from hfp.schedules import power_schedule
from hfp.solver import FullPower, ProblemSpec, StopRule

SET_KINDS = ("wholespace", "ball", "box", "halfspace", "hyperplane", "intersection")
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """Environment for a child interpreter that imports hfp from this checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def random_set(kind, rng, dim=None):
    """Seeded random instance of a convex-set catalog variant."""
    d = dim if dim is not None else int(rng.integers(1, 5))
    if kind == "wholespace":
        return WholeSpace(d)
    if kind == "ball":
        return Ball(rng.uniform(-5, 5, d), rng.uniform(0.5, 5.0))
    if kind == "box":
        a = rng.uniform(-5, 5, d)
        b = rng.uniform(-5, 5, d)
        return Box(np.minimum(a, b), np.maximum(a, b))
    if kind == "halfspace":
        return Halfspace(rng.standard_normal(d) + 1e-3, rng.uniform(-3, 3))
    if kind == "hyperplane":
        return AffineHyperplane(rng.standard_normal(d) + 1e-3, rng.uniform(-3, 3))
    if kind == "intersection":
        center = rng.uniform(-3, 3, d)
        radius = rng.uniform(1.0, 4.0)
        normal = rng.standard_normal(d) + 1e-3
        # offset chosen so the ball center stays feasible
        offset = float(np.dot(normal, center)) + rng.uniform(0.0, 2.0)
        return Intersection((Ball(center, radius), Halfspace(normal, offset)))
    raise ValueError(kind)


def budget_stop(n):
    return StopRule(max_iters=n, tol_step=None, tol_fix=None, tol_vi=None)


@pytest.fixture
def minnorm_problem():
    """C = Ball(0,10), T = projection onto x1+x2=2, V = 0, F = I; 32 seeded
    probes on that line, as a problem file with seed 0 draws them from T's Fix(T)."""
    C = Ball(np.zeros(2), 10.0)
    line = AffineHyperplane(np.array([1.0, 1.0]), 2.0)
    rng = np.random.default_rng(0)
    return ProblemSpec(
        C=C,
        T=proj_affine(C, np.array([1.0, 1.0]), 2.0),
        S=identity_map(C),
        V=zero_map(C),
        F=identity_map(C),
        rho=0.0,
        mu=1.0,
        schedule=power_schedule(1.0, 0.5, 1.0, 0.9),
        mode=FullPower(),
        x1=np.array([3.0, 4.0]),
        fix_points=[sample(line, rng) for _ in range(32)],
        reference=np.array([1.0, 1.0]),
    )
