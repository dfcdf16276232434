"""Weak values at position post-selection.

The weak value of an operator S with pre-selected state psi and
post-selected position x is the complex ratio (S psi)(x) / psi(x).  Its
real part reproduces the matching Bohmian quantity (velocity, local
energy, dwell time) wherever one is defined; the imaginary part is
computed and returned but never used by the intrinsic-property pipelines.
"""

from __future__ import annotations

import numpy as np

from .errors import (ConfigurationError, EmptyEnsembleError, HorizonError,
                     NodeError)
from .qgrid import (Evolution, PotentialModel, PropagatorConfig, SpectralOperator,
                    WaveFunction, NODE_THRESHOLD_REL, _make_stepper,
                    build_hamiltonian, window_operator)
from .bohm import _periodic_spline


def _ratio_at(psi: WaveFunction, numerator: np.ndarray, x):
    """Interpolated (num/psi)(x) with node detection on the denominator."""
    xq = np.asarray(x, dtype=float)
    dens = psi.density()
    dens_q = _periodic_spline(psi.grid, dens)(xq)
    if np.any(dens_q < NODE_THRESHOLD_REL * dens.max()):
        raise NodeError("post-selection at a wavefunction node is impossible")
    num_q = _periodic_spline(psi.grid, numerator)(xq)
    den_q = _periodic_spline(psi.grid, psi.amplitudes)(xq)
    val = num_q / den_q
    return val if np.ndim(x) else complex(val)


def aav_weak_value(op: SpectralOperator, psi: WaveFunction, x):
    """Complex weak value (S psi)(x) / psi(x); x may be a scalar or array."""
    return _ratio_at(psi, op.apply(psi.amplitudes), x)


def local_energy(psi: WaveFunction, potential: PotentialModel, x,
                 mass: float = 1.0, hbar: float = 1.0):
    """Re[(H psi)(x)/psi(x)] = Q + m v^2/2 + V at non-node points."""
    h = build_hamiltonian(psi.grid, potential, psi.time, mass, hbar)
    val = _ratio_at(psi, h.apply(psi.amplitudes), x)
    return np.real(val) if np.ndim(x) else float(np.real(val))


def ensemble_weak_average(op: SpectralOperator, psi: WaveFunction,
                          positions: np.ndarray):
    """Mean of Re[weak value] over equilibrium-sampled positions.

    Returns (mean, standard error).  Node positions are excluded; if every
    position sits on a node the ensemble is empty and an error is raised.
    """
    positions = np.asarray(positions, dtype=float)
    dens = psi.density()
    dens_q = _periodic_spline(psi.grid, dens)(positions)
    ok = dens_q >= NODE_THRESHOLD_REL * dens.max()
    if not ok.any():
        raise EmptyEnsembleError("all sampled positions sit on nodes")
    vals = np.real(aav_weak_value(op, psi, positions[ok]))
    n = vals.size
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return float(np.mean(vals)), stderr


def weak_average_quadrature(op: SpectralOperator, psi: WaveFunction) -> float:
    """Exact-quadrature ensemble average: integral of |psi|^2 Re[wv] dx.

    Since |psi|^2 * Re[(S psi)/psi] = Re[conj(psi) (S psi)], the integrand
    is finite at nodes and the quadrature reduces to Re<psi|S|psi>.
    """
    integrand = np.real(np.conj(psi.amplitudes) * op.apply(psi.amplitudes))
    return float(np.sum(integrand) * psi.grid.dx)


def dwell_operator_state(psi0: WaveFunction, region: tuple[float, float],
                         horizon: float, cfg: PropagatorConfig,
                         potential: PotentialModel | None = None,
                         mass: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Apply the dwell operator D = integral_0^T U^dag(t) A U(t) dt to psi0.

    A is the window projector on `region`.  Time quadrature is trapezoid at
    the output spacing; the backward sweep reuses the adjoint (= inverse)
    Crank-Nicolson step, so forward and backward propagation cancel exactly
    and only the quadrature error remains.
    """
    if potential is None:
        potential = PotentialModel("free")
    if potential.time_dependent:
        raise ConfigurationError(
            "dwell operator requires a time-independent potential")
    grid = psi0.grid
    a, b = region
    window = window_operator(grid, a, b)
    spo = cfg.steps_per_output
    n_frames = max(1, int(round(horizon / (cfg.dt * spo))))
    dt = horizon / (n_frames * spo)
    dt_out = dt * spo
    stepper = _make_stepper(grid, potential, dt, "crank-nicolson", mass, hbar)
    back = _make_stepper(grid, potential, -dt, "crank-nicolson", mass, hbar)

    frames = np.empty((n_frames + 1, grid.n), dtype=complex)
    frames[0] = psi0.amplitudes
    amp = psi0.amplitudes
    t = psi0.time
    for j in range(1, n_frames + 1):
        for _ in range(spo):
            amp = stepper.step(amp, t)
            t += dt
        frames[j] = amp

    mass_in = np.sum(np.abs(window.apply(frames[-1])) ** 2) * grid.dx
    if mass_in > 1e-4:
        raise HorizonError(
            f"probability mass {mass_in:.2e} still inside {region} at T={horizon}")

    weights = np.full(n_frames + 1, dt_out)
    weights[0] = weights[-1] = 0.5 * dt_out
    chi = weights[-1] * window.apply(frames[-1])
    for j in range(n_frames - 1, -1, -1):
        for _ in range(spo):
            chi = back.step(chi, 0.0)
        chi = chi + weights[j] * window.apply(frames[j])
    return chi


def dwell_operator_weak_value(psi0: WaveFunction, x, region: tuple[float, float],
                              horizon: float, cfg: PropagatorConfig,
                              potential: PotentialModel | None = None,
                              mass: float = 1.0, hbar: float = 1.0):
    """Re[ <x|D|psi0> / <x|psi0> ] for scalar or array post-selection x."""
    d_psi = dwell_operator_state(psi0, region, horizon, cfg, potential, mass, hbar)
    val = _ratio_at(psi0, d_psi, x)
    return np.real(val) if np.ndim(x) else float(np.real(val))


def dwell_operator_field(psi0: WaveFunction, region: tuple[float, float],
                         horizon: float, cfg: PropagatorConfig,
                         potential: PotentialModel | None = None,
                         mass: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Dwell-operator weak value at every non-node grid point (NaN at nodes)."""
    d_psi = dwell_operator_state(psi0, region, horizon, cfg, potential, mass, hbar)
    dens = psi0.density()
    mask = dens < NODE_THRESHOLD_REL * dens.max()
    with np.errstate(divide="ignore", invalid="ignore"):
        wv = np.real(d_psi / psi0.amplitudes)
    wv[mask] = np.nan
    return wv
