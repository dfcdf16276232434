"""Intrinsic dynamical properties built from trajectories and weak values:
per-experiment work and its distribution, Ramo-Shockley current with its
power spectral density, and dwell times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, EmptyEnsembleError, HorizonError,
                     LagError)
from .qgrid import HORIZON_MASS_TOL, Evolution, PotentialModel
from .bohm import TrajectoryEnsemble, nodes_at, quantum_potential
from .weakval import local_energy


# ---------------------------------------------------------------------------
# Quantum work
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkRecord:
    experiment_id: int
    e_initial: float
    e_final: float
    work: float
    flagged: bool  # node at an endpoint; excluded from distributions


@dataclass(frozen=True)
class WorkDistribution:
    bin_edges: np.ndarray
    probabilities: np.ndarray
    count: int
    mean: float        # unbinned
    std: float         # unbinned
    flagged_count: int


def work_records(evolution: Evolution, potential: PotentialModel,
                 ensemble: TrajectoryEnsemble, t1: float, t2: float) -> list[WorkRecord]:
    """Per-experiment work from local-energy weak values at the two endpoints."""
    i1, i2 = evolution.index_of(t1), evolution.index_of(t2)
    psi1, psi2 = evolution.psi(i1), evolution.psi(i2)
    x1 = ensemble.positions[i1]
    x2 = ensemble.positions[i2]
    bad = nodes_at(psi1, x1) | nodes_at(psi2, x2)
    e1 = np.full(ensemble.count, np.nan)
    e2 = np.full(ensemble.count, np.nan)
    if (~bad).any():
        e1[~bad] = local_energy(psi1, potential, x1[~bad],
                                evolution.mass, evolution.hbar)
        e2[~bad] = local_energy(psi2, potential, x2[~bad],
                                evolution.mass, evolution.hbar)
    return [WorkRecord(i, float(e1[i]), float(e2[i]), float(e2[i] - e1[i]),
                       flagged=bool(bad[i]))
            for i in range(ensemble.count)]


def work_distribution(records: list[WorkRecord]) -> WorkDistribution:
    """Normalized histogram (Freedman-Diaconis bins) plus unbinned moments."""
    works = np.array([r.work for r in records if not r.flagged])
    n_flagged = sum(r.flagged for r in records)
    if works.size == 0:
        raise EmptyEnsembleError(
            f"no unflagged work records ({n_flagged} flagged)")
    if np.ptp(works) == 0.0:
        w = works[0]
        edges = np.array([w - 0.5, w + 0.5])
        probs = np.array([1.0])
    else:
        edges = np.histogram_bin_edges(works, bins="fd")
        hist, edges = np.histogram(works, bins=edges)
        probs = hist / works.size
    std = float(np.std(works, ddof=1)) if works.size > 1 else 0.0
    return WorkDistribution(edges, probs, int(works.size),
                            float(np.mean(works)), std, n_flagged)


def power_balance_residual(evolution: Evolution, potential: PotentialModel,
                           positions: np.ndarray, t: float) -> float:
    """Residual of dE/dt = q v E_field + dQ/dt along one trajectory.

    positions holds the trajectory at every stored frame, one column of
    TrajectoryEnsemble.positions.  E = m v^2/2 + Q is the unperturbed energy
    it carries; all time derivatives are centered finite differences at the
    frame spacing, so the residual decays at 2nd order in the output step.
    An endpoint on a node raises NodeError, from quantum_potential.
    """
    i = evolution.index_of(t)
    if i == 0 or i == len(evolution.times) - 1:
        raise ConfigurationError("residual needs one stored frame on each side")
    m, hbar = evolution.mass, evolution.hbar
    dt = evolution.frame_dt
    vel = evolution.velocity

    def energy(j, x):
        v = vel(x, float(evolution.times[j]))
        q = quantum_potential(evolution.psi(j), x, m, hbar)
        return 0.5 * m * v ** 2 + q

    x_m, x_0, x_p = (float(positions[j]) for j in (i - 1, i, i + 1))
    de_dt = (energy(i + 1, x_p) - energy(i - 1, x_m)) / (2.0 * dt)
    dq_dt = (quantum_potential(evolution.psi(i + 1), x_0, m, hbar)
             - quantum_potential(evolution.psi(i - 1), x_0, m, hbar)) / (2.0 * dt)
    v0 = vel(x_0, t)
    drive = potential.charge * v0 * float(potential.field(x_0, t))
    return float(de_dt - drive - dq_dt)


# ---------------------------------------------------------------------------
# Ramo-Shockley current and its power spectral density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurrentConfig:
    length: float  # device length L
    charge: float = 1.0

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigurationError(f"device length must be > 0, got {self.length}")


def ensemble_currents(evolution: Evolution, ensemble: TrajectoryEnsemble,
                      cfg: CurrentConfig) -> np.ndarray:
    """Current record I^i(t) for every experiment; shape (nt, N).

    Consumes ensemble.positions: row j is overwritten by frame j's currents
    once the field has been evaluated at it, and the record returned is that
    same array.
    """
    out = ensemble.positions
    for j, t in enumerate(evolution.times):
        out[j] = evolution.velocity(out[j], float(t))
    out *= cfg.charge / cfg.length
    return out


_ACF_CHUNK = 512  # records per FFT batch in autocorrelation


@dataclass(frozen=True)
class PSDResult:
    omega: np.ndarray
    values: np.ndarray
    lags: np.ndarray
    autocorrelation: np.ndarray


def autocorrelation(currents: np.ndarray, dt: float, tau_max: float) -> tuple:
    """Ensemble- and time-averaged biased autocorrelation on lags |tau| <= tau_max.

    Wiener-Khinchin: each record is zero-padded to at least 2 nt - 1 samples,
    so the inverse transform of the summed power spectra is the linear (not
    circular) lag sum.  Records are transformed in column chunks to bound the
    complex temporaries.
    """
    currents = np.atleast_2d(np.asarray(currents, dtype=float).T).T  # (nt, N)
    nt, n_traj = currents.shape
    m_max = int(round(tau_max / dt))
    if m_max > nt - 1:
        raise LagError(
            f"lag horizon {tau_max} exceeds record length {(nt - 1) * dt}")
    n_fft = 1 << (2 * nt - 2).bit_length()
    power = np.zeros(n_fft // 2 + 1)
    for start in range(0, n_traj, _ACF_CHUNK):
        spec = np.fft.rfft(currents[:, start:start + _ACF_CHUNK], n=n_fft, axis=0)
        power += np.sum(spec.real ** 2 + spec.imag ** 2, axis=1)
    # biased estimator: divide by the full record length regardless of overlap
    c = np.fft.irfft(power, n_fft)[:m_max + 1] / (nt * n_traj)
    lags = dt * np.arange(-m_max, m_max + 1)
    c_full = np.concatenate([c[:0:-1], c])
    return lags, c_full


def psd(currents: np.ndarray, dt: float, tau_max: float,
        window: str | None = None) -> PSDResult:
    """Wiener-Khinchin PSD: cosine transform of the symmetric autocorrelation.

    Trapezoid weights in the lag quadrature make PSD(0) equal the lag
    integral of C(tau) exactly; evenness in omega is automatic for the
    cosine transform of a real, even correlation.
    """
    lags, c = autocorrelation(currents, dt, tau_max)
    if window == "hann":
        c = c * np.hanning(len(c))
    elif window is not None:
        raise ConfigurationError(f"unknown window {window!r}")
    m_max = (len(lags) - 1) // 2
    weights = np.full_like(c, dt)
    weights[0] = weights[-1] = 0.5 * dt
    omega = np.pi / tau_max * np.arange(-m_max, m_max + 1) if m_max else np.zeros(1)
    values = np.cos(np.outer(omega, lags)) @ (weights * c)
    return PSDResult(omega, values, lags, c)


# ---------------------------------------------------------------------------
# Dwell times
# ---------------------------------------------------------------------------

_DWELL_CHUNK = 512  # trajectories per vectorised dwell-time batch


def _dwell_times(positions: np.ndarray, times: np.ndarray,
                 region: tuple[float, float]) -> np.ndarray:
    """Time each column of positions (nt, N) spends inside [a, b].

    Linear sub-step crossing refinement.  Per batch of trajectories the
    per-step contributions form an (N, nt - 1) C-contiguous array summed
    along its last axis, so each trajectory gets the same pairwise sum as
    a single column would.
    """
    a, b = region
    if not b > a:
        raise ConfigurationError(f"region needs b > a, got [{a}, {b}]")
    positions = np.asarray(positions, dtype=float)
    dt = np.diff(np.asarray(times, dtype=float))
    taus = np.empty(positions.shape[1])
    for start in range(0, len(taus), _DWELL_CHUNK):
        pos = np.ascontiguousarray(positions[:, start:start + _DWELL_CHUNK].T)
        x0, x1 = pos[:, :-1], pos[:, 1:]
        lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
        span = hi - lo
        overlap = np.minimum(hi, b, out=hi)
        overlap -= np.maximum(lo, a, out=lo)
        np.clip(overlap, 0.0, None, out=overlap)
        frac = ((x0 >= a) & (x0 <= b)).astype(float)
        np.divide(overlap, span, out=frac, where=span > 0)
        frac *= dt
        taus[start:start + _DWELL_CHUNK] = frac.sum(axis=-1)
    return taus


def dwell_time_ensemble(taus: np.ndarray) -> tuple[float, float]:
    """Mean of the per-trajectory dwell times taus and its standard error."""
    stderr = float(np.std(taus, ddof=1) / np.sqrt(len(taus))) if len(taus) > 1 \
        else float("inf")
    return float(np.mean(taus)), stderr


def per_trajectory_dwell_times(ensemble: TrajectoryEnsemble,
                               region: tuple[float, float]) -> np.ndarray:
    """Dwell time of every trajectory in the ensemble, shape (N,)."""
    a, b = region
    final = ensemble.positions[-1]
    stuck = np.count_nonzero((final > a) & (final < b))
    if stuck:
        raise HorizonError(
            f"{stuck} of {ensemble.count} trajectories still inside {region} "
            "at the final time")
    return _dwell_times(ensemble.positions, ensemble.times, region)


def _region_mass(psi_frames: np.ndarray, grid, region) -> np.ndarray:
    """integral_a^b |psi|^2 dx per frame, cell-centred cumulative convention."""
    a, b = region
    dens = np.abs(psi_frames) ** 2
    x = np.concatenate([grid.x - 0.5 * grid.dx, [grid.x[-1] + 0.5 * grid.dx]])
    cum = np.concatenate([np.zeros((dens.shape[0], 1)),
                          np.cumsum(dens, axis=1) * grid.dx], axis=1)
    ca = np.array([np.interp(a, x, row) for row in cum])
    cb = np.array([np.interp(b, x, row) for row in cum])
    return cb - ca


def dwell_time_density(evolution: Evolution, region: tuple[float, float],
                       horizon: float) -> float:
    """Dwell time from the density: time integral of the in-region mass."""
    i_t = evolution.index_of(evolution.times[0] + horizon)
    mass = _region_mass(evolution.frames[:i_t + 1], evolution.grid, region)
    if mass[-1] > HORIZON_MASS_TOL:
        raise HorizonError(
            f"probability mass {mass[-1]:.2e} still inside {region} at T={horizon}")
    return float(np.trapezoid(mass, evolution.times[:i_t + 1]))
