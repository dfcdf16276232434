"""Ramo-Shockley current of an oscillating charge and its spectrum.

A displaced packet in a harmonic trap sloshes at the trap frequency; the
induced current I = (q/L) v per experiment, q the charge of the evolution's
potential, is autocorrelated over the ensemble and cosine-transformed into
a power spectral density, which peaks at +-omega.  The frames stream from
the propagator into the velocity field and the currents from the RK4
integration into the autocorrelation, one frame at a time, so neither the
wavefunction record nor a (frames x trajectories) record is held.
"""

import numpy as np

from bohmlab import Grid1D, PotentialModel, PropagatorConfig, WaveFunction, \
    evolve_stream
from bohmlab.bohm import sample_initial_positions
from bohmlab.intrinsics import ensemble_currents, psd

omega = 1.0
grid = Grid1D(-30.0, 30.0, 512)
pot = PotentialModel("harmonic", omega=omega)
psi = WaveFunction.gaussian(grid, center=3.0)

ev = evolve_stream(psi, pot, PropagatorConfig(0.005, steps_per_output=10),
                   8 * np.pi)  # four periods
currents, truncated = ensemble_currents(
    ev, sample_initial_positions(psi, 400, seed=6), length=60.0)

result = psd(currents, float(ev.frame_dt), tau_max=4 * np.pi, window="hann")
mid = len(result.omega) // 2
print(f"trajectories frozen at the edge: {int(truncated.sum())}")
print(f"PSD is even: max asymmetry = "
      f"{np.max(np.abs(result.values - result.values[::-1])):.2e}")
peak = result.omega[mid + int(np.argmax(result.values[mid:]))]
print(f"positive-frequency peak at omega = {peak:.4f} (trap omega = {omega})")
print("\nPSD around the peak:")
for k in range(mid + 4, mid + 12):
    print(f"  omega = {result.omega[k]:7.4f}   S = {result.values[k]:.3e}")
