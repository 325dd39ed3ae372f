"""Seeded inputs for the three workloads.

Everything `hfp` receives is generated here from the workload seed: the
problem seed of the fix-set probes, the intersection geometry of
``dykstra_power``, the certifier pair seeds and fixture parameters, the sweep
grid and the recursion start values.  The amount of work does not depend on
the seed, only the values do, so runs with different seeds are comparable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """How much work one round does.  ``FULL`` is the benchmark; tests use ``TINY``."""

    minnorm_tol_step: float  # the shipped minnorm.cfg value keeps 82,208 iterations
    dykstra_iters: int  # iteration n costs n raw T steps, so a solve costs ~N^2/2
    cert_samples: int
    cert_n_max: int
    cli_max_iters: int  # sweep and compare budget
    recursion_float_n: int
    recursion_fraction_n: int  # x_{N+1} = 1/(N+1) exactly


FULL = Sizes(
    minnorm_tol_step=3e-8,
    dykstra_iters=300,
    cert_samples=10**4,
    cert_n_max=3,
    cli_max_iters=2000,
    recursion_float_n=10**6,
    recursion_fraction_n=999,
)

TINY = Sizes(
    minnorm_tol_step=1e-3,
    dykstra_iters=30,
    cert_samples=200,
    cert_n_max=2,
    cli_max_iters=40,
    recursion_float_n=10**3,
    recursion_fraction_n=99,
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


@dataclass(frozen=True)
class MinnormInputs:
    problem_seed: int  # draws the 32 fix-set probes on the line x1 + x2 = 2


def minnorm_inputs(seed: int) -> MinnormInputs:
    return MinnormInputs(problem_seed=_seed_int(_rng(seed, 1)))


# angle between the outward normals of the two members at the corner x*;
# it sets Dykstra's rate there, so the cycle count does not depend on the seed
CORNER_ANGLE = math.radians(120.0)


@dataclass(frozen=True)
class DykstraInputs:
    """T = (1 - lam) I + lam P_H with H = {x : <a, x> = 0} in R^3, on
    C = Ball(q, radius) ∩ {x : <e, x> >= t0}, where (a, e, f) is an
    orthonormal frame and q lies in H.

    T maps C into C: P_H is nonexpansive about q ∈ H and keeps <e, x>.  So
    ``power`` checks membership after every raw step.  The corner
    x* = t0 (e + f) lies on both boundaries and in H.  There -x* =
    -s e + m (x* - q) / radius with s, m > 0, so x* = P_C(0).  It is the
    minimum-norm point of C and of Fix(T) ∩ C = H ∩ C.  The P_C step of the
    solver lands on that corner, where both members are active and Dykstra
    needs many cycles.
    """

    a: np.ndarray
    e: np.ndarray
    f: np.ndarray
    t0: float
    lam: float
    center: np.ndarray
    radius: float
    x1: np.ndarray

    @property
    def min_norm_point(self) -> np.ndarray:
        return self.t0 * (self.e + self.f)


def dykstra_inputs(seed: int) -> DykstraInputs:
    rng = _rng(seed, 2)
    a, e, f = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
    t0 = float(rng.uniform(0.5, 1.0))
    corner = t0 * (e + f)
    turn = math.pi - CORNER_ANGLE  # outward ball normal, measured from e
    normal = math.cos(turn) * e - math.sin(turn) * f
    radius = 3.0
    center = corner - radius * normal
    # lam keeps ||T^n x - T^{n-1} x|| far above rounding at n = horizon/10,
    # so the power-regularity trend is decided by the map, not by noise
    lam = float(rng.uniform(0.05, 0.1))
    # x1: the midpoint of two points of C, moved along a while it stays in the ball
    mid = 0.5 * (corner + center + radius * e)
    room = math.sqrt(radius**2 - float(np.sum((mid - center) ** 2)))
    x1 = mid + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.8) * room * a
    return DykstraInputs(a=a, e=e, f=f, t0=t0, lam=lam, center=center, radius=radius, x1=x1)


@dataclass(frozen=True)
class HypothesesInputs:
    problem_seed: int
    cert_seeds: tuple  # one pair seed per certifier call
    # certify_lipschitz: linear map diag(diag_lip) on a halfspace domain
    lip_diag: tuple
    lip_normal: np.ndarray
    lip_offset: float
    # certify_strong_monotone: linear map on a hyperplane domain
    sm_diag: tuple
    sm_normal: np.ndarray
    sm_offset: float
    # certify_nearly_nonexpansive: sahu_step with an understated a_1
    false_a1: float
    # certify_combined_monotone / certify_yamada_contraction on a ball
    cm_diag: tuple
    cm_k: float
    yamada_lam: float
    # sweep grid: admissible exponents and one with a summable alpha series
    sweep_p: tuple
    sweep_p_rejected: float
    # check_power_regularity
    avg_lam: float
    avg_theta: float
    rot_theta: float
    plane_normal: np.ndarray
    plane_offset: float
    regularity_probes: tuple
    # scalar_recursion with alpha_n = 1/(n+1), beta_n = b
    rec_x1: float
    rec_b: float


def _diag(rng) -> tuple:
    # eta < L/2 makes the overstated moduli below fail on many directions
    return (float(rng.uniform(2.0, 3.0)), float(rng.uniform(0.3, 0.8)))


def hypotheses_inputs(seed: int) -> HypothesesInputs:
    rng = _rng(seed, 3)
    probes = []
    for _ in range(2):
        probes.append(_unit(rng.uniform(0.0, 2.0 * math.pi)) * rng.uniform(1.0, 5.0))
    p_values = np.sort(rng.uniform(0.3, 0.9, size=4))
    return HypothesesInputs(
        problem_seed=_seed_int(rng),
        cert_seeds=tuple(_seed_int(rng) for _ in range(10)),
        lip_diag=_diag(rng),
        lip_normal=_unit(rng.uniform(0.0, 2.0 * math.pi)),
        lip_offset=float(rng.uniform(-1.0, 1.0)),
        sm_diag=_diag(rng),
        sm_normal=_unit(rng.uniform(0.0, 2.0 * math.pi)),
        sm_offset=float(rng.uniform(-1.0, 1.0)),
        false_a1=float(rng.uniform(0.1, 0.3)),
        cm_diag=_diag(rng),
        cm_k=float(rng.uniform(0.2, 0.8)),
        yamada_lam=float(rng.uniform(0.3, 0.7)),
        sweep_p=tuple(round(float(p), 4) for p in p_values),
        sweep_p_rejected=round(float(rng.uniform(1.1, 1.5)), 4),
        avg_lam=float(rng.uniform(0.4, 0.6)),
        avg_theta=float(rng.uniform(0.5, 1.2)),
        rot_theta=float(rng.uniform(0.3, 1.2)),
        plane_normal=_unit(rng.uniform(0.0, 2.0 * math.pi)),
        plane_offset=float(rng.uniform(-2.0, 2.0)),
        regularity_probes=tuple(probes),
        rec_x1=float(rng.uniform(0.0, 10.0)),
        rec_b=float(rng.uniform(0.1, 5.0)),
    )
