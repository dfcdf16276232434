"""bohmlab: intrinsic quantum dynamics from Bohmian trajectories and weak
values, plus a simulated von Neumann measurement chain that estimates the
same quantities operationally through post-selection.
"""

from . import bohm, errors, intrinsics, measure, qgrid, weakval
from .qgrid import (Evolution, Grid1D, PotentialModel, PropagatorConfig,
                    WaveFunction, build_hamiltonian, evolve_store,
                    evolve_stream, expectation, momentum_operator,
                    position_operator, propagate, window_weights)

__version__ = "0.1.0"

__all__ = [
    "bohm", "errors", "intrinsics", "measure", "qgrid", "weakval",
    "Grid1D", "WaveFunction", "PotentialModel", "PropagatorConfig",
    "Evolution", "build_hamiltonian", "propagate", "evolve_store",
    "evolve_stream", "expectation", "position_operator", "momentum_operator",
    "window_weights",
]
