"""Per-experiment quantum work.

Work is the difference of local-energy weak values at the endpoints of
each Bohmian trajectory.  For a uniformly driven packet the ensemble mean
reproduces the change of <H(t)>; for a stationary state the distribution
collapses to a point mass at zero, matching the two-point-measurement
benchmark.  The stationary state is a dense eigenvector of H, propagated
by the split-operator step at dt = 0.001, under which it stays stationary
to O(dt^2): the work spread is about 1e-7.
"""

import numpy as np

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     build_hamiltonian, evolve_store, expectation)
from bohmlab.bohm import integrate_trajectories, sample_initial_positions
from bohmlab.intrinsics import work_distribution, work_records

grid = Grid1D(-30.0, 30.0, 512)

# sinusoidally driven Gaussian: V = -q E(t) x with E(t) = 0.4 sin(0.8 t)
pot = PotentialModel("drive", profile=lambda t: 0.4 * np.sin(0.8 * t))
psi = WaveFunction.gaussian(grid, width=1.5)
t2 = 1.5
ev = evolve_store(psi, pot, PropagatorConfig(0.002, steps_per_output=25), t2)
starts = sample_initial_positions(psi, 10_000, seed=2)
dist = work_distribution(work_records(
    ev, starts, integrate_trajectories(ev, starts)[-1]))
delta_h = expectation(build_hamiltonian(grid, pot, t=t2), ev.final) \
    - expectation(build_hamiltonian(grid, pot, t=0.0), psi)

print("driven Gaussian, E(t) = 0.4 sin(0.8 t), T = 1.5, N = 10^4")
print(f"  <W>      = {dist.mean:+.6f} +- {dist.std / np.sqrt(dist.count):.6f}")
print(f"  delta<H> = {delta_h:+.6f}")
print(f"  bins = {len(dist.probabilities)}, all probabilities >= 0:",
      bool(np.all(dist.probabilities >= 0)))

# stationary state: every experiment does zero work
hpot = PotentialModel("harmonic", omega=1.0)
h = build_hamiltonian(grid, hpot)
eig = WaveFunction(grid, h.eigenvectors()[:, 0])
ev2 = evolve_store(eig, hpot, PropagatorConfig(
    0.001, steps_per_output=100), 1.0)
starts2 = sample_initial_positions(eig, 1000, seed=3)
dist2 = work_distribution(work_records(
    ev2, starts2, integrate_trajectories(ev2, starts2)[-1]))
print("\nharmonic ground state:")
print(f"  <W> = {dist2.mean:+.2e}, std = {dist2.std:.2e}  (point mass at 0)")
