"""Weak values at position post-selection.

The weak value of an operator S with pre-selected state psi and
post-selected position x is the complex ratio (S psi)(x) / psi(x).  Its
real part reproduces the matching Bohmian quantity (velocity, local
energy, dwell time) wherever one is defined; the imaginary part is
computed and returned but never used by the intrinsic-property pipelines.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NodeError
from .qgrid import (Evolution, PotentialModel, PropagatorConfig,
                    SpectralOperator, WaveFunction, _make_stepper,
                    build_hamiltonian, check_horizon, node_mask,
                    window_weights)
from .bohm import _periodic_spline, nodes_at


def _ratio_at(psi: WaveFunction, numerator: np.ndarray, x):
    """Interpolated (num/psi)(x) with node detection on the denominator."""
    xq = np.asarray(x, dtype=float)
    if np.any(nodes_at(psi, xq)):
        raise NodeError("post-selection at a wavefunction node is impossible")
    num_q = _periodic_spline(psi.grid, numerator)(xq)
    den_q = _periodic_spline(psi.grid, psi.amplitudes)(xq)
    val = num_q / den_q
    return val if np.ndim(x) else complex(val)


def grid_weak_value(numerator: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """numerator / psi at every grid point, NaN at the nodes of psi."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wv = numerator / amplitudes
    wv[node_mask(amplitudes)] = np.nan
    return wv


def aav_weak_value(op: SpectralOperator, psi: WaveFunction, x):
    """Complex weak value (S psi)(x) / psi(x); x may be a scalar or array."""
    return _ratio_at(psi, op.apply(psi.amplitudes), x)


def local_energy(psi: WaveFunction, potential: PotentialModel, x,
                 mass: float = 1.0, hbar: float = 1.0):
    """Re[(H psi)(x)/psi(x)] = Q + m v^2/2 + V at non-node points."""
    h = build_hamiltonian(psi.grid, potential, psi.time, mass, hbar)
    val = _ratio_at(psi, h.apply(psi.amplitudes), x)
    return np.real(val) if np.ndim(x) else float(np.real(val))


def weak_average_quadrature(op: SpectralOperator, psi: WaveFunction) -> float:
    """Exact-quadrature ensemble average: integral of |psi|^2 Re[wv] dx.

    Since |psi|^2 * Re[(S psi)/psi] = Re[conj(psi) (S psi)], the integrand
    is finite at nodes and the quadrature reduces to Re<psi|S|psi>.
    """
    integrand = np.real(np.conj(psi.amplitudes) * op.apply(psi.amplitudes))
    return float(np.sum(integrand) * psi.grid.dx)


def dwell_operator_state(evolution: Evolution, region: tuple[float, float],
                         horizon: float, cfg: PropagatorConfig) -> np.ndarray:
    """Apply the dwell operator D = integral_0^T U^dag(t) A U(t) dt to psi0.

    psi0 is the evolution's first frame and A multiplies by the
    window_weights of `region`.  The forward frames are the evolution's own
    up to times[0] + horizon, and the time quadrature is trapezoid at their
    spacing.  cfg must be the propagator the evolution was built with: the
    backward sweep runs its stepper with -dt, the exact inverse of the
    forward step for both methods (Strang splitting: S(-dt) = S(dt)^-1), so
    D is Hermitian and <psi0|D|psi0> equals the density quadrature on the
    same frames.
    """
    potential, grid = evolution.potential, evolution.grid
    if potential.time_dependent:
        raise ConfigurationError(
            "dwell operator requires a time-independent potential")
    w = window_weights(grid, *region)
    i_t = evolution.index_of(evolution.times[0] + horizon)
    if i_t == 0:
        raise ConfigurationError(f"dwell operator needs horizon > 0, got {horizon}")
    frames, spo = evolution.frames, cfg.steps_per_output
    dt = horizon / (i_t * spo)  # bit-equal to evolve_store's step
    dt_out = dt * spo
    back = _make_stepper(grid, potential, -dt, cfg.method, evolution.mass,
                         evolution.hbar)

    check_horizon(np.abs(frames[i_t]) ** 2 @ w * grid.dx, region, horizon)

    weights = np.full(i_t + 1, dt_out)
    weights[0] = weights[-1] = 0.5 * dt_out
    chi = weights[-1] * (w * frames[i_t])
    for j in range(i_t - 1, -1, -1):
        for _ in range(spo):
            chi = back.step(chi, 0.0)
        chi = chi + weights[j] * (w * frames[j])
    return chi


def dwell_operator_field(evolution: Evolution, region: tuple[float, float],
                         horizon: float, cfg: PropagatorConfig) -> np.ndarray:
    """Dwell-operator weak value at every non-node grid point (NaN at nodes)."""
    d_psi = dwell_operator_state(evolution, region, horizon, cfg)
    return np.real(grid_weak_value(d_psi, evolution.frames[0]))
