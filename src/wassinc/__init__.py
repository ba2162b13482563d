"""Particle-discretized continuity equations and inclusions on Wasserstein
space, with exact optimal-transport distances and certified stability
bounds."""

from .measure import ParticleCloud, TransportPlan, moment, tail_norm, wasserstein, wasserstein_cost
from .dynamics import (
    NonlocalField,
    RateFunctions,
    Trajectory,
    ball_grid,
    dcc_estimate,
    dsup_probe,
    integrate,
)
from .inclusion import (
    ControlledFamily,
    ControlSignal,
    inclusion_residual,
    peano_solve,
    refinement_study,
    signal_field,
)
from .filippov import FilippovCertificate, compute_bound, filippov_track, mismatch
from .relax import ChatteringControl, aumann_realize, convexify, relax_approximate
from .verify import BoundReport, verify
from .config import ScenarioConfig, load_config, parse_config, sample_initial
from .runner import run_scenario

__all__ = [
    "ParticleCloud",
    "TransportPlan",
    "moment",
    "tail_norm",
    "wasserstein",
    "wasserstein_cost",
    "NonlocalField",
    "RateFunctions",
    "Trajectory",
    "ball_grid",
    "dcc_estimate",
    "dsup_probe",
    "integrate",
    "ControlledFamily",
    "ControlSignal",
    "inclusion_residual",
    "peano_solve",
    "refinement_study",
    "signal_field",
    "FilippovCertificate",
    "compute_bound",
    "filippov_track",
    "mismatch",
    "ChatteringControl",
    "aumann_realize",
    "convexify",
    "relax_approximate",
    "BoundReport",
    "verify",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "sample_initial",
    "run_scenario",
]
