"""Particle-discretized continuity equations and inclusions on Wasserstein
space, with exact optimal-transport distances and certified stability
bounds."""

from .measure import ParticleCloud, moment, tail_norm, wasserstein_cost
from .dynamics import (
    ControlledFamily,
    RateFunctions,
    Trajectory,
    ball_grid,
    integrate,
)
from .inclusion import (
    ControlSignal,
    inclusion_residual,
    peano_solve,
    refinement_study,
    signal_field,
)
from .filippov import FilippovCertificate, compute_bound, filippov_track
from .relax import ChatteringControl, aumann_realize, convexify, relax_approximate
from .bounds import BoundReport
from .verify import verify
from .config import ScenarioConfig, load_config, parse_config, sample_initial
from .runner import run_scenario

__all__ = [
    "ParticleCloud",
    "moment",
    "tail_norm",
    "wasserstein_cost",
    "ControlledFamily",
    "RateFunctions",
    "Trajectory",
    "ball_grid",
    "integrate",
    "ControlSignal",
    "inclusion_residual",
    "peano_solve",
    "refinement_study",
    "signal_field",
    "FilippovCertificate",
    "compute_bound",
    "filippov_track",
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
