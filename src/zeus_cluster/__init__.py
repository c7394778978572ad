"""Relaxed lexicographic multi-objective clustering (Zeus pipeline)."""

from .graph import GraphInstance, load_instance, validate_metric
from .makeshifts import (
    MakeshiftOptions,
    balanced_kcenter,
    makeshift_fairness_ab,
    makeshift_kcenter,
    makeshift_kmedian,
    makeshift_rs,
    makeshift_rs_gamma,
    makeshift_tf,
)
from .objectives import (
    Clustering,
    ObjectiveSpec,
    PairStructure,
    SlackVector,
    evaluate,
)
from .synth import generate_instance
from .zeus import ProblemSpec, zeus_run

__version__ = "0.1.0"

__all__ = [
    "GraphInstance",
    "load_instance",
    "validate_metric",
    "Clustering",
    "ObjectiveSpec",
    "PairStructure",
    "SlackVector",
    "evaluate",
    "MakeshiftOptions",
    "makeshift_kcenter",
    "makeshift_kmedian",
    "makeshift_rs",
    "makeshift_rs_gamma",
    "makeshift_fairness_ab",
    "makeshift_tf",
    "balanced_kcenter",
    "generate_instance",
    "ProblemSpec",
    "zeus_run",
    "__version__",
]
