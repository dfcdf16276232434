"""Weak values at position post-selection.

The real part of the momentum weak value divided by the mass is the
Bohmian velocity, and the real part of the Hamiltonian weak value (the
local energy) splits exactly into quantum potential + kinetic + external
potential.  Both identities are shown pointwise on a moving packet.
"""

import numpy as np

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     momentum_operator, propagate)
from bohmlab.bohm import grid_velocity, quantum_potential, read_at
from bohmlab.weakval import aav_weak_value, grid_weak_value, local_energy, \
    weak_average

grid = Grid1D(-30.0, 30.0, 512)
pot = PotentialModel("harmonic", omega=0.5)
psi0 = WaveFunction.gaussian(grid, center=3.0, momentum=-1.0)
psi = propagate(psi0, pot, PropagatorConfig(0.002), 0.8)

xs = np.linspace(-1.0, 3.0, 9)
p = momentum_operator(grid)
v_grid, q_grid = grid_velocity(psi), quantum_potential(psi)
print("momentum weak value vs Bohmian velocity (m = 1):")
print(f"{'x':>6} {'Re p_w':>10} {'v_Bohm':>10} {'Im p_w':>10}")
for x in xs:
    wv = aav_weak_value(p, psi, x)
    print(f"{x:6.2f} {wv.real:10.6f} {read_at(psi, v_grid, x):10.6f} "
          f"{wv.imag:10.6f}")

print("\nlocal energy = Q + v^2/2 + V:")
print(f"{'x':>6} {'E_loc':>10} {'Q':>10} {'v^2/2':>10} {'V':>10} {'residual':>10}")
for x in xs:
    e = local_energy(psi, pot, x)
    q = read_at(psi, q_grid, x)
    kin = 0.5 * read_at(psi, v_grid, x) ** 2
    v = float(pot.values(x))
    print(f"{x:6.2f} {e:10.6f} {q:10.6f} {kin:10.6f} {v:10.6f} "
          f"{e - q - kin - v:10.2e}")

p_w = grid_weak_value(p.apply(psi.amplitudes), psi.amplitudes)
print("\nensemble average of Re p_w (exact quadrature):",
      f"{weak_average(psi, p_w):.6f}")
