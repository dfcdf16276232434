"""bohmlab: intrinsic quantum dynamics from Bohmian trajectories and weak
values, plus a simulated von Neumann measurement chain that estimates the
same quantities operationally through post-selection.
"""

import os as _os
import sys as _sys

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it: load it on
# one thread, so no idle worker spins through the run's CPU time, unless the
# caller set the variable or imported numpy first.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
