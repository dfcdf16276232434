"""Weak values at position post-selection.

The weak value of an operator S with pre-selected state psi and
post-selected position x is the complex ratio (S psi)(x) / psi(x).  Its
real part reproduces the matching Bohmian quantity (velocity, local
energy, dwell time: dwell_operator_field pointwise, dwell_weak_value its
average with no backward sweep); the imaginary part is never used.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .qgrid import (Evolution, PotentialModel, PropagatorConfig,
                    SpectralOperator, Stepper, WaveFunction, build_hamiltonian,
                    horizon_frame, node_mask)
from .bohm import read_at


def grid_weak_value(numerator: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """numerator / psi at every grid point, NaN at the nodes of psi."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wv = numerator / amplitudes
    wv[node_mask(amplitudes)] = np.nan
    return wv


def aav_weak_value(op: SpectralOperator, psi: WaveFunction, x):
    """Complex weak value (S psi)(x) / psi(x), numerator and psi read at x
    (a scalar or array) by one bohm.read_at."""
    num, amp = read_at(psi, np.stack([op.apply(psi.amplitudes), psi.amplitudes]),
                       x)
    return num / amp


def local_energy(psi: WaveFunction, potential: PotentialModel, x,
                 mass: float = 1.0, hbar: float = 1.0):
    """Re[(H psi)(x)/psi(x)] = Q + m v^2/2 + V at non-node points."""
    h = build_hamiltonian(psi.grid, potential, psi.time, mass, hbar)
    return np.real(aav_weak_value(h, psi, x))


def weak_average(psi: WaveFunction, wv: np.ndarray) -> float:
    """Equilibrium average of a grid weak value: sum |psi|^2 Re[wv] dx over
    the points where wv is finite (grid_weak_value leaves NaN at nodes)."""
    ok = np.isfinite(wv)
    return float(np.sum(psi.density()[ok] * np.real(wv[ok])) * psi.grid.dx)


def dwell_weak_value(evolution: Evolution) -> float:
    """weak_average(psi0, Re[(D psi0)/psi0]) for the window the frames were
    made with and T the evolution's duration, with no backward step: that
    is Re<phi0|D psi0> (phi0 = psi0 zeroed at its nodes), and as U^dag =
    U^-1, the trapezoid of Re<U phi0|A|U psi0>, the window_overlaps.  The
    horizon is judged at the last frame, as qgrid.horizon_frame does."""
    horizon_frame(evolution, evolution.times[-1] - evolution.times[0])
    return float(np.trapezoid(evolution.window_overlaps, evolution.times))


def dwell_operator_state(evolution: Evolution, horizon: float) -> np.ndarray:
    """Apply the dwell operator D = integral_0^T U^dag(t) A U(t) dt to psi0.

    psi0 is the evolution's initial state and A multiplies by the window
    weights w the evolution was made with.  The forward frames are the
    evolution's record up to times[0] + horizon (qgrid.horizon_frame makes
    the horizon check), read only at the k columns where w is nonzero; the
    sweep adds each frame's w psi_j at those columns only.  The time
    quadrature is trapezoid at the frames' spacing.  The backward sweep
    takes round(frame_dt / dt) Strang steps a frame with -evolution.dt,
    from the horizon frame's time down, and the step of -dt from t + dt
    undoes the forward step of dt from t, for a driven potential too.  So
    D is Hermitian and <psi0|D|psi0> equals the density quadrature on the
    same frames.
    """
    grid = evolution.grid
    i_t = horizon_frame(evolution, horizon)
    if i_t == 0:
        raise ConfigurationError(f"dwell operator needs horizon > 0, got {horizon}")
    idx = np.flatnonzero(evolution.window)
    w, cols = evolution.window[idx], evolution.frames[:i_t + 1, idx]
    spo = round(evolution.frame_dt / evolution.dt)
    dt = evolution.dt
    back = Stepper(grid, evolution.potential, -dt, evolution.mass,
                   evolution.hbar)
    weights = np.full(i_t + 1, dt * spo)
    weights[[0, -1]] *= 0.5
    chi = np.zeros(grid.n, dtype=complex)
    chi[idx] = weights[-1] * (w * cols[-1])
    t = evolution.times[i_t]
    for j in range(i_t - 1, -1, -1):
        for _ in range(spo):
            chi = back.step(chi, t)
            t -= dt
        chi[idx] += weights[j] * (w * cols[j])
    return chi


def dwell_operator_field(evolution: Evolution, horizon: float,
                         cfg: PropagatorConfig) -> np.ndarray:
    """Dwell-operator weak value at every non-node grid point (NaN at nodes).

    cfg is not read; it stays only because perfbench/tracer.py binds it
    (ROADMAP item 1).
    """
    d_psi = dwell_operator_state(evolution, horizon)
    return np.real(grid_weak_value(d_psi, evolution.initial.amplitudes))
