"""Solver library and benchmark CLI for hierarchical fixed point problems
of nearly nonexpansive mappings."""

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
    distance,
    inner,
    norm,
    project,
    vector,
)
from .fixtures import (
    averaged_rotation,
    constant_map,
    contraction,
    identity_map,
    linear_map,
    proj_affine,
    rotation,
    sahu_sequence,
    sahu_step,
    zero_map,
)
from .operators import (
    Certificate,
    MappingHandle,
    NearnessSequence,
    OperatorMeta,
    certify_combined_monotone,
    certify_lipschitz,
    certify_nearly_nonexpansive,
    certify_strong_monotone,
    certify_yamada_contraction,
    nu_constant,
    power,
)
from .schedules import (
    PowerFamily,
    Schedule,
    ScheduleReport,
    power_schedule,
    scalar_recursion,
    validate_schedule,
)
from .solver import (
    FullPower,
    ProblemSpec,
    Single,
    SolveReport,
    StopRule,
    check_power_regularity,
    reduce_variant,
    solve,
    step,
    validate_problem,
    vi_residual,
)

__version__ = "0.1.0"
