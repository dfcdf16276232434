"""Bohmian trajectories of a spreading packet.

Ten thousand starting positions are drawn from |psi|^2, integrated along
the guidance equation, and checked against the two defining properties:
the ensemble histogram keeps tracking |psi(x,t)|^2 (equivariance), and
trajectories never cross.  For a free Gaussian the trajectories also obey
the exact scaling law x(t) = x(0) * sigma(t)/sigma0.
"""

import numpy as np

from bohmlab import Grid1D, PotentialModel, PropagatorConfig, WaveFunction, \
    evolve_store
from bohmlab.bohm import (equivariance_l1, integrate_trajectories,
                          sample_initial_positions)

grid = Grid1D(-30.0, 30.0, 512)
psi0 = WaveFunction.gaussian(grid, width=1.0)
ev = evolve_store(psi0, PotentialModel("free"),
                  PropagatorConfig(0.005, steps_per_output=40), 2.0)

starts = sample_initial_positions(psi0, 10_000, seed=1)
paths = integrate_trajectories(ev, starts)

print("equivariance (L1 distance between trajectory histogram and |psi|^2):")
for frame in range(0, len(ev.times), 2):
    l1 = equivariance_l1(ev.psi(frame), paths[frame])
    print(f"  t = {ev.times[frame]:4.1f}   L1 = {l1:.4f}")

ordered = paths[:, np.argsort(starts)]
print("non-crossing:", bool(np.all(np.diff(ordered, axis=1) > 0)))

probe = np.array([-2.0, -1.0, 0.5, 1.5])
ref = integrate_trajectories(ev, probe)
scale = np.sqrt(1.0 + (ev.times[-1] / 2.0) ** 2)
print("scaling law x(T) = x(0) * sigma(T)/sigma0 at T = 2:")
for x0, xt in zip(probe, ref[-1]):
    print(f"  x0 = {x0:5.2f}   x(T) = {xt:8.5f}   expected {x0 * scale:8.5f}")
