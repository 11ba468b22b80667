"""Solvers for the one-dimensional two-beam annihilation duel.

Side A fires particles rightward at speeds a_1..a_m, side B leftward at
b_1..b_n; when opposite particles meet, the speed-u one survives against
the speed-v one with probability u/(u+v), and side A wins once every B
particle is annihilated.

The package computes P(A wins) by several independent routes and checks
them against each other:

* exact suffix recurrence (`recurrence`), the reference for everything;
* exact residue sums of the duel's rational generating function, for
  simple poles, higher-order poles via a power-sum recurrence, single-speed
  closed forms, and the small-perturbation approximation (`residues`), all
  reached by route name through `solve`;
* reproducible Monte Carlo play-out (`montecarlo`) and hypercube-volume
  sampling (`volume`), the stochastic corroboration;
* matching/beating verdicts, matching curves, and intransitivity
  witnesses between groups (`relations`).

Everything deterministic is exact rational arithmetic; floats appear only
in the two stochastic estimators.  The `skirmish` console script fronts
all of it.

`montecarlo` and `volume` load on first use of one of their names (PEP
562), so the exact commands start without them.
"""

from .model import (
    GroupedInstance,
    Instance,
    InvalidInstance,
    decimal_str,
    group,
    parse_instance,
    parse_speed,
)
from .recurrence import p_a_wins_recursive
from .relations import (
    CycleWitness,
    RelationVerdict,
    matching_curve,
    matching_curve_grid,
    relate,
    verify_cycle,
)
from .residues import (
    ROUTES,
    MethodReport,
    closed_form_report,
    default_epsilon,
    p_a_wins_distinct,
    p_a_wins_epsilon,
    p_a_wins_series,
    p_two_speeds,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CycleWitness",
    "GroupedInstance",
    "Instance",
    "InvalidInstance",
    "MethodReport",
    "POLICIES",
    "ROUTES",
    "RelationVerdict",
    "SimConfig",
    "SimReport",
    "VolumeEstimate",
    "closed_form_report",
    "decimal_str",
    "default_epsilon",
    "estimate_volume",
    "group",
    "matching_curve",
    "matching_curve_grid",
    "p_a_wins_distinct",
    "p_a_wins_epsilon",
    "p_a_wins_recursive",
    "p_a_wins_series",
    "p_two_speeds",
    "parse_instance",
    "parse_speed",
    "relate",
    "simulate",
    "solve",
    "verify_cycle",
    "__version__",
]


def __getattr__(name: str):
    if name in ("POLICIES", "SimConfig", "SimReport", "simulate"):
        from . import montecarlo as module
    elif name in ("VolumeEstimate", "estimate_volume"):
        from . import volume as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
