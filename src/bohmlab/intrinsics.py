"""Intrinsic dynamical properties built from trajectories and weak values:
per-experiment work and its distribution, Ramo-Shockley current with its
power spectral density, and dwell times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EmptyEnsembleError, LagError, NodeError
from .qgrid import Evolution, horizon_frame
from .bohm import (VelocityField, nodes_at, quantum_potential, read_at,
                   rk4_frames)
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


def work_records(evolution: Evolution, x_start: np.ndarray,
                 x_final: np.ndarray) -> np.ndarray:
    """Local-energy weak values under the evolution's potential, (N, 2):
    evolution.initial's at positions x_start, evolution.final's at x_final.

    Row i holds experiment i's (e_initial, e_final); its work is their
    difference.  A row is NaN, and the record flagged, where an endpoint
    sits on a node; flagged records are excluded from distributions.  Each
    endpoint is read with the one node check of its read_at; only when that
    finds a node are the endpoints' node masks made.
    """
    ends = [(evolution.initial, x_start), (evolution.final, x_final)]
    potential, m, hbar = evolution.potential, evolution.mass, evolution.hbar
    energies = np.empty((len(x_start), 2))
    try:
        for col, (psi, x) in enumerate(ends):
            energies[:, col] = local_energy(psi, potential, x, m, hbar)
    except NodeError:
        bad = nodes_at(*ends[0]) | nodes_at(*ends[1])
        energies[:] = np.nan
        for col, (psi, x) in enumerate(ends):
            energies[~bad, col] = local_energy(psi, potential, x[~bad], m, hbar)
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


def power_balance_residual(evolution: Evolution, positions: np.ndarray,
                           t: float) -> float:
    """Residual of dE/dt = q v E_field + dQ/dt along one trajectory, with q
    and E_field those of the evolution's potential.

    positions holds the trajectory at every stored frame, one column of
    integrate_trajectories' record.  E = m v^2/2 + Q is the unperturbed energy
    it carries; all time derivatives are centered finite differences at the
    frame spacing, so the residual decays at 2nd order in the output step.
    An endpoint on a node raises NodeError, from bohm.read_at.
    """
    i = evolution.index_of(t)
    if i == 0 or i == len(evolution.times) - 1:
        raise ConfigurationError("residual needs one stored frame on each side")
    potential, m, hbar = evolution.potential, evolution.mass, evolution.hbar
    dt = evolution.frame_dt
    vel = VelocityField(evolution)

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

def ensemble_currents(evolution: Evolution, starts: np.ndarray,
                      length: float) -> tuple:
    """Current rows I^i(t_j) = (q/length) v(x_j, t_j) of the trajectories
    from starts, with q the charge of the evolution's potential and length
    the device length L, streamed from RK4.

    Returns (rows, truncated).  rows yields one (N,) array per output frame,
    each RK4's own k1 of that frame scaled and 0 where a trajectory has
    frozen at the edge, so the (nt, N) record is never held.  truncated,
    the (N,) mask of the frozen trajectories, is final once rows is
    exhausted.
    """
    if length <= 0:
        raise ConfigurationError(f"device length must be > 0, got {length}")
    scale = evolution.potential.charge / length
    truncated = np.zeros(np.size(starts), dtype=bool)

    def rows():
        for _, k1, frozen in rk4_frames(evolution, starts):
            truncated[:] = frozen
            current = np.multiply(k1, scale)
            current[frozen] = 0.0
            yield current

    return rows(), truncated


@dataclass(frozen=True)
class PSDResult:
    omega: np.ndarray
    values: np.ndarray
    lags: np.ndarray
    autocorrelation: np.ndarray


def _shift_out_block(buf: np.ndarray, filled: int) -> int:
    """Drop buf's first B rows, moving rows B..filled-1 to the front in
    B-row chunks that do not overlap (so numpy copies no source first);
    returns the rows left."""
    left = max(filled - _GRAM_FRAMES, 0)
    for s in range(0, left, _GRAM_FRAMES):
        n = min(_GRAM_FRAMES, left - s)
        buf[s:s + n] = buf[s + _GRAM_FRAMES:s + _GRAM_FRAMES + n]
    return left


def _stream_windows(rows, width: int):
    """Windows I[a:a + width], a = 0, B, 2B, ..., of the record whose rows
    the iterable rows yields, each filled into one (width, N) buffer.

    Until the first window is full the buffer grows with the rows it has
    been given, doubling in place from B rows, so a width the record
    cannot fill is never allocated."""
    buf, filled = None, 0
    for row in rows:
        if buf is None:
            buf = np.empty((min(width, _GRAM_FRAMES), np.size(row)))
        if filled == len(buf) < width:
            # no view of buf exists before the first window is yielded
            buf.resize((min(2 * filled, width), buf.shape[1]), refcheck=False)
        if filled == width:
            yield buf
            filled = _shift_out_block(buf, filled)
        buf[filled] = row
        filled += 1
    while filled:
        yield buf[:filled]
        filled = _shift_out_block(buf, filled)


def check_lags(tau_max: float, dt: float, nt: int) -> None:
    """Raise LagError unless lags up to tau_max fit a record of nt frames at
    spacing dt."""
    if int(round(tau_max / dt)) > nt - 1:
        raise LagError(
            f"lag horizon {tau_max} exceeds record length {(nt - 1) * dt}")


def autocorrelation(currents, dt: float, tau_max: float) -> tuple:
    """Ensemble- and time-averaged biased autocorrelation on lags |tau| <= tau_max.

    C(m dt) = sum_i I[i] . I[i + m] / (nt N) for the (nt, N) record I, read
    off a band of its Gram matrix: block g = I[a:a+B] @ I[a:a+B+m_max].T
    holds on row r, from column r on, the products of frame a + r with the
    m_max frames after it.  With B = _GRAM_FRAMES the one temporary is g,
    about B (B + m_max) cells whatever nt or N.

    currents is any iterable of the record's rows: the record itself (1-D
    for N = 1), a list, or ensemble_currents' stream.  Its windows
    I[a:a+B+m_max] are filled, in order, into one (B + m_max, N) buffer.
    The first window comes once the input has given B + m_max rows or
    ended; only then is the record checked against the lag horizon and
    are the Gram cells made, so a horizon longer than the record raises
    LagError, however large, before any buffer of its size exists.
    """
    m_max = int(round(tau_max / dt))
    width = _GRAM_FRAMES + m_max
    windows = _stream_windows(currents, width)
    first = next(windows, ())
    # a first window short of width is the whole record
    check_lags(tau_max, dt, len(first))
    cells = np.zeros(_GRAM_FRAMES * (width + 1))
    gram = cells[:-_GRAM_FRAMES].reshape(_GRAM_FRAMES, width)
    # the same cells in rows one longer: band[r, k] is gram[r, r + k]
    band = cells.reshape(_GRAM_FRAMES, width + 1)[:, :m_max + 1]
    c = np.zeros(m_max + 1)
    for i, cols in enumerate(itertools.chain([first], windows)):
        rows = cols[:_GRAM_FRAMES]  # cols starts at frame a = i B
        gram[:, len(cols):] = 0.0  # lags past the record's end
        np.matmul(rows, cols.T, out=gram[:len(rows), :len(cols)])
        c += band.sum(axis=0)
        nt, n_traj = i * _GRAM_FRAMES + len(cols), cols.shape[1]
    # biased estimator: divide by the full record length regardless of overlap
    c /= nt * n_traj
    return dt * np.arange(-m_max, m_max + 1), np.concatenate([c[:0:-1], c])


def psd(currents, dt: float, tau_max: float,
        window: str | None = None) -> PSDResult:
    """Wiener-Khinchin PSD: cosine transform of the symmetric autocorrelation
    of currents, a record or a stream of its rows (see autocorrelation).

    Trapezoid weights in the lag quadrature make PSD(0) equal the lag
    integral of C(tau); omega >= 0 is evaluated in blocks of _BLOCK_CELLS
    cosines and mirrored, so the PSD is even by construction.  A tau_max
    that rounds to no lag raises LagError, and a window other than None or
    "hann" ConfigurationError, before currents is read.
    """
    m_max = int(round(tau_max / dt))
    if m_max < 1:
        raise LagError(f"lag horizon {tau_max} rounds to no lag at dt = {dt}")
    if window not in (None, "hann"):
        raise ConfigurationError(f"unknown window {window!r}")
    lags, c = autocorrelation(currents, dt, tau_max)
    if window == "hann":
        c = c * np.hanning(len(c))
    weights = dt * c  # trapezoid weights times C
    weights[[0, -1]] *= 0.5
    omega = np.pi / tau_max * np.arange(-m_max, m_max + 1)
    step = max(1, _BLOCK_CELLS // len(lags))
    half = np.concatenate([np.cos(np.outer(omega[s:s + step], lags)) @ weights
                           for s in range(m_max, len(omega), step)])
    return PSDResult(omega, np.concatenate([half[:0:-1], half]), lags, c)


# ---------------------------------------------------------------------------
# Dwell times
# ---------------------------------------------------------------------------

def _step_times(x0, x1, region, dt):
    """In-region time of each step x0 -> x1 (arrays of one shape) of
    duration dt (broadcast against them), with linear sub-step crossing
    refinement."""
    a, b = region
    lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
    span = hi - lo
    overlap = np.minimum(hi, b, out=hi)
    overlap -= np.maximum(lo, a, out=lo)
    np.clip(overlap, 0.0, None, out=overlap)
    frac = ((x0 >= a) & (x0 <= b)).astype(float)
    np.divide(overlap, span, out=frac, where=span > 0)
    frac *= dt
    return frac


def per_trajectory_dwell_times(positions, times: np.ndarray,
                               region: tuple[float, float]) -> np.ndarray:
    """Time each trajectory spends inside [a, b], shape (N,).

    positions is the (nt, N) position record at times, or any iterable of
    its rows, such as rk4_frames' x as RK4 yields it.  One loop takes the
    rows in order and adds each step's time to the trajectory's sum, so no
    temporary grows with nt, and a trajectory's sum has the same bits
    whatever N and whether its rows came streamed or stored.  A
    trajectory still inside at the final time counts its time up to then;
    whether the horizon is long enough is judged on |psi|^2 by
    dwell_time_density.
    """
    a, b = region
    if not b > a:
        raise ConfigurationError(f"region needs b > a, got [{a}, {b}]")
    rows = iter(positions)
    x0 = next(rows)
    taus = np.zeros(np.shape(x0))
    for x1, dt in zip(rows, np.diff(times)):
        taus += _step_times(x0, x1, region, dt)
        x0 = x1
    return taus


def dwell_time_ensemble(taus: np.ndarray) -> tuple[float, float | None]:
    """Mean of the per-trajectory dwell times taus and its standard error,
    None (null in JSON, which has no infinity) for fewer than two taus."""
    stderr = float(np.std(taus, ddof=1) / np.sqrt(len(taus))) if len(taus) > 1 \
        else None
    return float(np.mean(taus)), stderr


def dwell_time_density(evolution: Evolution, horizon: float) -> float:
    """Dwell time from the density: the trapezoid up to times[0] + horizon
    of the window masses sum(w |psi|^2) dx, which the frame loop measured
    as it made each frame with the evolution's window weights w, so no
    frame is read here; a stream serves once it has handed over its last
    frame."""
    i_t = horizon_frame(evolution, horizon)
    return float(np.trapezoid(evolution.window_masses[:i_t + 1],
                              evolution.times[:i_t + 1]))
