"""Three roads to the dwell time.

How long does a packet spend inside a window in front of a low barrier?
The trajectory ensemble, the density quadrature, and the equilibrium
average of the dwell-operator weak value must all agree; the pointwise
per-trajectory comparison against the weak value at the starting position
is reported as a distribution.  All three estimators share one stored
split-operator history, made with the window's weights: the density
quadrature integrates the window masses its frame loop measured, and the
dwell operator reuses its forward frames and sweeps back with the step the
Evolution records, at -dt.
"""

import numpy as np

from bohmlab import Grid1D, PotentialModel, PropagatorConfig, WaveFunction, \
    evolve_store, window_weights
from bohmlab.bohm import integrate_trajectories, read_at, \
    sample_initial_positions
from bohmlab.intrinsics import (dwell_time_density, dwell_time_ensemble,
                                per_trajectory_dwell_times)
from bohmlab.weakval import dwell_operator_field, weak_average

grid = Grid1D(-40.0, 40.0, 512)
pot = PotentialModel("barrier", height=1.0, left=2.0, right=3.0)
psi = WaveFunction.gaussian(grid, center=-10.0, width=1.0, momentum=5.0)
region, horizon = (-2.0, 2.0), 5.0

cfg = PropagatorConfig(0.0025, steps_per_output=8)
ev = evolve_store(psi, pot, cfg, horizon,
                  window=window_weights(grid, *region))
starts = sample_initial_positions(psi, 2000, seed=4)

taus = per_trajectory_dwell_times(integrate_trajectories(ev, starts),
                                  ev.times, region)
t_traj, stderr = dwell_time_ensemble(taus)
t_density = dwell_time_density(ev, horizon)

field = dwell_operator_field(ev, horizon, cfg)
t_wv = weak_average(psi, field)

print(f"window {region}, barrier height 1.0 on [2, 3], packet speed 5")
print(f"  trajectory ensemble : {t_traj:.5f} +- {stderr:.5f}")
print(f"  density quadrature  : {t_density:.5f}")
print(f"  weak-value average  : {t_wv:.5f}")

wv_at_start = read_at(psi, np.nan_to_num(field), starts)
disc = np.abs(taus - wv_at_start)
print("\nper-trajectory |tau_i - wv_D(x_i(0))|:")
print(f"  mean {disc.mean():.4f}, median {np.median(disc):.4f}, "
      f"90% {np.quantile(disc, 0.9):.4f}, max {disc.max():.4f}")
print("(the pointwise identity is approximate; only the averages coincide)")
