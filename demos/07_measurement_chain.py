"""The full measurement chain: weak premeasurement, post-selection, and
the operational weak value.

First on a random 3-level system: the one-time mean never depends on the
ancilla width, the two-time correlation does (contextuality), and the
correlation converges to the apparatus-free limit as sigma^-2.  Then on a
grid scenario (momentum weakly measured, free flight, position
post-selection) the post-selected estimator reproduces the AAV weak value
-- which is the Bohmian velocity times the mass.
"""

import numpy as np

from bohmlab import Grid1D, PotentialModel, WaveFunction, momentum_operator, \
    position_operator
from bohmlab.measure import (AncillaModel, TwoTimeSystem,
                             ideal_weak_correlation, one_time_mean,
                             operational_weak_value, two_time_correlation,
                             two_time_joint)
from bohmlab.qgrid import evolution_operator
from bohmlab.weakval import aav_weak_value

rng = np.random.default_rng(0)


def herm(n=3):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


psi, s_op, g_op = rng.normal(size=3), herm(), herm()
lam_u, vec = np.linalg.eigh(herm())  # random unitary U = exp(iH)
system = TwoTimeSystem.from_matrices(psi, s_op, g_op,
                                     (vec * np.exp(1j * lam_u)) @ vec.conj().T)
lam = 0.5
print("random 3-level system, coupling = 0.5")
print(f"{'sigma':>8} {'one-time mean':>15} {'two-time corr':>15}")
for width in (0.1, 1.0, 10.0):
    anc = AncillaModel.gaussian(lam, width, np.abs(system.s_values).max())
    print(f"{width:8.2f} {one_time_mean(system, anc):15.8f} "
          f"{two_time_correlation(two_time_joint(system, anc)):15.8f}")
print("-> the mean is apparatus-independent; the correlation is not")

ideal = ideal_weak_correlation(system, lam)
print(f"\napparatus-free limit: {ideal:.8f}; convergence in sigma:")
for width in (2.0, 4.0, 8.0, 16.0):
    anc = AncillaModel.gaussian(lam, width, np.abs(system.s_values).max())
    err = abs(two_time_correlation(two_time_joint(system, anc)) - ideal)
    print(f"  sigma = {width:5.1f}   error = {err:.3e}")

# grid scenario: weak momentum, free evolution, position post-selection
grid = Grid1D(-40.0, 40.0, 128)
psi = WaveFunction.gaussian(grid, center=-5.0, width=2.5, momentum=1.0)
u = evolution_operator(grid, PotentialModel("free"), 2.0)
gsys = TwoTimeSystem.from_wavefunction(psi, momentum_operator(grid),
                                       position_operator(grid), u)
psi2 = WaveFunction(grid, u @ psi.amplitudes, time=2.0)
lam = 0.05
anc = AncillaModel.gaussian(lam, 10 * lam * np.abs(gsys.s_values).max(),
                            np.abs(gsys.s_values).max(), n_min=2048)
g_index = int(np.argmax(psi2.density()))
x_post = grid.x[g_index]
aav = float(np.real(aav_weak_value(momentum_operator(grid), psi2, x_post)))
exact = operational_weak_value(gsys, anc, g_index, mode="exact")
mc = operational_weak_value(gsys, anc, g_index, mode="monte_carlo",
                            n_experiments=100_000, seed=7)
print(f"\nmomentum weak value at x = {x_post:.3f} after free flight:")
print(f"  AAV / Bohmian velocity : {aav:.6f}")
print(f"  operational (exact)    : {exact.value:.6f}")
print(f"  operational (MC, 10^5) : {mc.value:.6f} +- {mc.stderr:.6f} "
      f"({mc.n_selected} post-selected)")
