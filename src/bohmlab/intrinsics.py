"""Intrinsic dynamical properties built from trajectories and weak values:
per-experiment work and its distribution, Ramo-Shockley current with its
power spectral density, and dwell times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EmptyEnsembleError, LagError
from .qgrid import Evolution, PotentialModel, check_horizon, window_weights
from .bohm import TrajectoryEnsemble, nodes_at, quantum_potential, read_at
from .weakval import local_energy


# Cells per temporary in this module's blocked reductions.  A temporary that
# grew with the record would, once freed, raise glibc's mmap threshold and
# the task's peak RSS with it.
_BLOCK_CELLS = 8192
_GRAM_FRAMES = 32  # frames per Gram-matrix block in autocorrelation


# ---------------------------------------------------------------------------
# Quantum work
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkDistribution:
    bin_edges: np.ndarray
    probabilities: np.ndarray
    count: int
    mean: float        # unbinned
    std: float         # unbinned
    flagged_count: int


def work_records(evolution: Evolution, potential: PotentialModel,
                 ensemble: TrajectoryEnsemble, t1: float, t2: float) -> np.ndarray:
    """Local-energy weak values at the two endpoints, shape (N, 2).

    Row i holds experiment i's (e_initial, e_final); its work is their
    difference.  A row is NaN, and the record flagged, where an endpoint
    sits on a node; flagged records are excluded from distributions.
    """
    i1, i2 = evolution.index_of(t1), evolution.index_of(t2)
    psi1, psi2 = evolution.psi(i1), evolution.psi(i2)
    x1 = ensemble.positions[i1]
    x2 = ensemble.positions[i2]
    bad = nodes_at(psi1, x1) | nodes_at(psi2, x2)
    energies = np.full((ensemble.count, 2), np.nan)
    if (~bad).any():
        energies[~bad, 0] = local_energy(psi1, potential, x1[~bad],
                                         evolution.mass, evolution.hbar)
        energies[~bad, 1] = local_energy(psi2, potential, x2[~bad],
                                         evolution.mass, evolution.hbar)
    return energies


def work_distribution(records: np.ndarray) -> WorkDistribution:
    """Normalized histogram (Freedman-Diaconis bins) plus unbinned moments
    of the work of the unflagged rows of work_records."""
    flagged = np.isnan(records).any(axis=1)
    works = records[~flagged, 1] - records[~flagged, 0]
    n_flagged = int(np.count_nonzero(flagged))
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
    An endpoint on a node raises NodeError, from bohm.read_at.
    """
    i = evolution.index_of(t)
    if i == 0 or i == len(evolution.times) - 1:
        raise ConfigurationError("residual needs one stored frame on each side")
    m, hbar = evolution.mass, evolution.hbar
    dt = evolution.frame_dt
    vel = evolution.velocity

    def q_at(j, x):
        psi = evolution.psi(j)
        return read_at(psi, quantum_potential(psi, m, hbar), x)

    def energy(j, x):
        v = vel(x, float(evolution.times[j]))
        return 0.5 * m * v ** 2 + q_at(j, x)

    x_m, x_0, x_p = (float(positions[j]) for j in (i - 1, i, i + 1))
    de_dt = (energy(i + 1, x_p) - energy(i - 1, x_m)) / (2.0 * dt)
    dq_dt = (q_at(i + 1, x_0) - q_at(i - 1, x_0)) / (2.0 * dt)
    v0 = vel(x_0, t)
    drive = potential.charge * v0 * float(potential.field(x_0, t))
    return float(de_dt - drive - dq_dt)


# ---------------------------------------------------------------------------
# Ramo-Shockley current and its power spectral density
# ---------------------------------------------------------------------------

def ensemble_currents(evolution: Evolution, ensemble: TrajectoryEnsemble,
                      length: float, charge: float = 1.0) -> np.ndarray:
    """Current record I^i(t) = (charge/length) v for every experiment;
    shape (nt, N), with length the device length L.

    Consumes ensemble.positions: row j is overwritten by frame j's currents
    once the field has been evaluated at it, and the record returned is that
    same array.
    """
    if length <= 0:
        raise ConfigurationError(f"device length must be > 0, got {length}")
    out = ensemble.positions
    for j, t in enumerate(evolution.times):
        out[j] = evolution.velocity(out[j], float(t))
    out *= charge / length
    return out


@dataclass(frozen=True)
class PSDResult:
    omega: np.ndarray
    values: np.ndarray
    lags: np.ndarray
    autocorrelation: np.ndarray


def autocorrelation(currents: np.ndarray, dt: float, tau_max: float) -> tuple:
    """Ensemble- and time-averaged biased autocorrelation on lags |tau| <= tau_max.

    C(m dt) = sum_i I[i] . I[i + m] / (nt N) for the (nt, N) record I, read
    off a band of its Gram matrix: block g = I[a:a+B] @ I[a:a+B+m_max].T
    holds on row r, from column r on, the products of frame a + r with the
    m_max frames after it.  With B = _GRAM_FRAMES the one temporary is g,
    about B (B + m_max) cells whatever nt or N.
    """
    currents = np.atleast_2d(np.asarray(currents, dtype=float).T).T  # (nt, N)
    nt, n_traj = currents.shape
    m_max = int(round(tau_max / dt))
    if m_max > nt - 1:
        raise LagError(
            f"lag horizon {tau_max} exceeds record length {(nt - 1) * dt}")
    width = _GRAM_FRAMES + m_max
    cells = np.zeros(_GRAM_FRAMES * (width + 1))
    gram = cells[:-_GRAM_FRAMES].reshape(_GRAM_FRAMES, width)
    # the same cells in rows one longer: band[r, k] is gram[r, r + k]
    band = cells.reshape(_GRAM_FRAMES, width + 1)[:, :m_max + 1]
    c = np.zeros(m_max + 1)
    for a in range(0, nt, _GRAM_FRAMES):
        rows, cols = currents[a:a + _GRAM_FRAMES], currents[a:a + width]
        gram[:, len(cols):] = 0.0  # lags past the record's end
        np.matmul(rows, cols.T, out=gram[:len(rows), :len(cols)])
        c += band.sum(axis=0)
    # biased estimator: divide by the full record length regardless of overlap
    c /= nt * n_traj
    return dt * np.arange(-m_max, m_max + 1), np.concatenate([c[:0:-1], c])


def psd(currents: np.ndarray, dt: float, tau_max: float,
        window: str | None = None) -> PSDResult:
    """Wiener-Khinchin PSD: cosine transform of the symmetric autocorrelation.

    Trapezoid weights in the lag quadrature make PSD(0) equal the lag
    integral of C(tau); omega >= 0 is evaluated in blocks of _BLOCK_CELLS
    cosines and mirrored, so the PSD is even by construction.
    """
    lags, c = autocorrelation(currents, dt, tau_max)
    if window == "hann":
        c = c * np.hanning(len(c))
    elif window is not None:
        raise ConfigurationError(f"unknown window {window!r}")
    m_max = (len(lags) - 1) // 2
    weights = dt * c  # trapezoid weights times C
    weights[[0, -1]] *= 0.5
    omega = np.pi / tau_max * np.arange(-m_max, m_max + 1) if m_max else np.zeros(1)
    step = max(1, _BLOCK_CELLS // len(lags))
    half = np.concatenate([np.cos(np.outer(omega[s:s + step], lags)) @ weights
                           for s in range(m_max, len(omega), step)])
    return PSDResult(omega, np.concatenate([half[:0:-1], half]), lags, c)


# ---------------------------------------------------------------------------
# Dwell times
# ---------------------------------------------------------------------------

def per_trajectory_dwell_times(ensemble: TrajectoryEnsemble,
                               region: tuple[float, float]) -> np.ndarray:
    """Time each trajectory of the ensemble spends inside [a, b], shape (N,).

    Linear sub-step crossing refinement.  Per batch of about _BLOCK_CELLS
    record cells the per-step contributions form a (batch, nt - 1)
    C-contiguous array summed along its last axis, so each trajectory gets
    the same pairwise sum whatever the batch size.  A trajectory still
    inside at the final time counts its time up to then; whether the
    horizon is long enough is judged on |psi|^2 by dwell_time_density.
    """
    a, b = region
    if not b > a:
        raise ConfigurationError(f"region needs b > a, got [{a}, {b}]")
    positions = ensemble.positions
    dt = np.diff(ensemble.times)
    taus = np.empty(positions.shape[1])
    batch = max(1, _BLOCK_CELLS // len(ensemble.times))
    for start in range(0, len(taus), batch):
        pos = np.ascontiguousarray(positions[:, start:start + batch].T)
        x0, x1 = pos[:, :-1], pos[:, 1:]
        lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
        span = hi - lo
        overlap = np.minimum(hi, b, out=hi)
        overlap -= np.maximum(lo, a, out=lo)
        np.clip(overlap, 0.0, None, out=overlap)
        frac = ((x0 >= a) & (x0 <= b)).astype(float)
        np.divide(overlap, span, out=frac, where=span > 0)
        frac *= dt
        taus[start:start + batch] = frac.sum(axis=-1)
    return taus


def dwell_time_ensemble(taus: np.ndarray) -> tuple[float, float]:
    """Mean of the per-trajectory dwell times taus and its standard error."""
    stderr = float(np.std(taus, ddof=1) / np.sqrt(len(taus))) if len(taus) > 1 \
        else float("inf")
    return float(np.mean(taus)), stderr


def dwell_time_density(evolution: Evolution, region: tuple[float, float],
                       horizon: float) -> float:
    """Dwell time from the density: time integral of the in-region mass
    sum(w |psi|^2) dx, with w the window_weights of the region."""
    i_t = evolution.index_of(evolution.times[0] + horizon)
    w = window_weights(evolution.grid, *region)
    frames = evolution.frames[:i_t + 1]
    step = max(1, _BLOCK_CELLS // evolution.grid.n)
    mass = evolution.grid.dx * np.concatenate(
        [np.abs(frames[s:s + step]) ** 2 @ w for s in range(0, len(frames), step)])
    check_horizon(mass[-1], region, horizon)
    return float(np.trapezoid(mass, evolution.times[:i_t + 1]))
