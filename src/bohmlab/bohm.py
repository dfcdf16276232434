"""Bohmian velocity field, quantum potential, equilibrium sampling and
trajectory integration.

Trajectories are integrated in a two-pass scheme: the wavefunction history
is stored first (qgrid.evolve_store), then the guidance equation
dx/dt = v(x, t) is integrated with RK4.  Every consumer of one stored
history reads the same VelocityField (Evolution.velocity), built once, a
block of frames at a time: each frame's grid velocity with node points
clamped to the nearest non-node value, and the knot slopes of its periodic
cubic spline from an FFT solve.  Between grid points the velocity is that
spline, evaluated by index arithmetic in the cubic Hermite basis; between
frames it is linear in t.  VelocityField.coefficients(t) gives the Hermite
table of one time, so RK4 builds it once per distinct stage time and
evaluates every stage at that time from it.  Clamping keeps the integrator
off the singular field at nodes; equilibrium-sampled trajectories visit
nodes with probability ~0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NodeError
from .qgrid import (NODE_THRESHOLD_REL, Evolution, Grid1D, WaveFunction,
                    node_mask)

# Frames per VelocityField build block: enough to amortise the per-call
# cost of the FFTs, few enough that the build's complex temporaries stay
# at 256 KB at n = 2048.  32-frame blocks saved about 5 ms of a 2048-point,
# 251-frame build but raised the run's peak RSS by 1.6 MB.
BUILD_BLOCK_FRAMES = 8


def _clamp_nodes(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Overwrite masked entries, in place, with the nearest unmasked value.

    Distance is by grid index (not periodic); a tie takes the left value.
    """
    if not mask.any():
        return values
    if mask.all():
        raise NodeError("every grid point is a node")
    n = len(values)
    idx = np.arange(n)
    left = np.maximum.accumulate(np.where(mask, -1, idx))
    right = np.minimum.accumulate(np.where(mask, n, idx)[::-1])[::-1]
    use_left = (left >= 0) & ((right == n) | (idx - left <= right - idx))
    nearest = np.where(use_left, left, right)
    values[mask] = values[nearest[mask]]
    return values


def _spectral_derivative(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    return np.fft.ifft(1j * grid.k * np.fft.fft(values))


def _spline_slopes(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """Knot slopes s of the periodic cubic spline through values on the grid.

    Solves the circulant system s[i-1] + 4 s[i] + s[i+1] = 3 (y[i+1] - y[i-1]) / dx
    by FFT, so the interpolant equals CubicSpline(bc_type="periodic").
    """
    if np.iscomplexobj(values):
        return (_spline_slopes(grid, values.real)
                + 1j * _spline_slopes(grid, values.imag))
    theta = 2.0 * np.pi * np.fft.rfftfreq(grid.n)
    gain = 3j * np.sin(theta) / (grid.dx * (2.0 + np.cos(theta)))
    return np.fft.irfft(gain * np.fft.rfft(values), grid.n)


def _hermite_coefficients(values: np.ndarray, slopes: np.ndarray,
                          dx: float) -> np.ndarray:
    """(n, 4) coefficients of the cubic Hermite piece on each cell [x_i, x_i+1].

    Row i holds c0..c3 of y = c0 + c1 t + c2 t^2 + c3 t^3 with t = (x - x_i)/dx;
    the last cell wraps to the first knot.
    """
    n = len(values)
    c = np.empty((n, 4), dtype=np.result_type(values, slopes))
    c[:, 0] = values
    a = c[:, 1]
    np.multiply(slopes, dx, out=a)
    d = np.empty_like(a)
    np.subtract(values[1:], values[:-1], out=d[:-1])
    d[-1] = values[0] - values[-1]
    b = np.empty_like(a)
    b[:-1] = a[1:]
    b[-1] = a[0]
    c[:, 2] = 3.0 * d - 2.0 * a - b
    c[:, 3] = a + b - 2.0 * d
    return c


def _hermite_eval(coef: np.ndarray, grid: Grid1D, x):
    """Evaluate per-cell coefficients at x, wrapping periodically."""
    u = np.asarray(x, dtype=float) - grid.x_min
    u /= grid.dx
    cell = np.floor(u)
    u -= cell
    c = coef.take(cell.astype(np.intp), axis=0, mode="wrap")
    out = c[..., 3] * u
    out += c[..., 2]
    out *= u
    out += c[..., 1]
    out *= u
    out += c[..., 0]
    return out


def _periodic_spline(grid: Grid1D, values: np.ndarray):
    """Periodic cubic spline through real or complex values on the grid.

    The returned callable takes scalar or array positions, wrapping them
    periodically; it equals CubicSpline(bc_type="periodic") up to rounding.
    """
    coef = _hermite_coefficients(values, _spline_slopes(grid, values), grid.dx)
    return lambda x: _hermite_eval(coef, grid, x)


def nodes_at(psi: WaveFunction, x) -> np.ndarray:
    """True where the periodic-spline density at positions x marks a node."""
    dens = psi.density()
    return np.asarray(_periodic_spline(psi.grid, dens)(x)) \
        < NODE_THRESHOLD_REL * dens.max()


def _grid_velocities(grid: Grid1D, amp: np.ndarray, mass: float,
                     hbar: float) -> np.ndarray:
    """grid_velocity of each row of amp, a (..., n) array of amplitudes."""
    mask = node_mask(amp)
    dpsi = _spectral_derivative(grid, amp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = hbar / mass * np.imag(dpsi / amp)
    v[mask] = 0.0
    rows, masks = np.atleast_2d(v), np.atleast_2d(mask)  # views into v, mask
    for r in np.flatnonzero(masks.any(axis=-1)):
        _clamp_nodes(rows[r], masks[r])
    return v


def grid_velocity(psi: WaveFunction, mass: float = 1.0,
                  hbar: float = 1.0) -> np.ndarray:
    """Bohmian velocity v = (hbar/m) Im[psi'/psi] at the grid points."""
    return _grid_velocities(psi.grid, psi.amplitudes, mass, hbar)


def velocity_field(psi: WaveFunction, x, mass: float = 1.0, hbar: float = 1.0):
    """Velocity at arbitrary positions (cubic interpolation between grid points).

    Raises NodeError when |psi(x)|^2 is below the node threshold at any x.
    """
    xq = np.asarray(x, dtype=float)
    if not np.all(psi.grid.contains(xq)):
        raise ConfigurationError("query position outside the grid domain")
    if np.any(nodes_at(psi, xq)):
        raise NodeError("velocity requested at a wavefunction node")
    v = _periodic_spline(psi.grid, grid_velocity(psi, mass, hbar))(xq)
    return v if np.ndim(x) else float(v)


def quantum_potential(psi: WaveFunction, x=None, mass: float = 1.0,
                      hbar: float = 1.0):
    """Q = -(hbar^2/2m) R''/R with spectral second derivative of R = |psi|.

    Q on the grid when x is None; at positions x it raises NodeError when
    |psi(x)|^2 is below the node threshold at any of them.
    """
    r = np.abs(psi.amplitudes)
    mask = node_mask(psi.amplitudes)
    d2r = np.fft.ifft(-psi.grid.k ** 2 * np.fft.fft(r)).real
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -hbar ** 2 / (2.0 * mass) * d2r / r
    q[mask] = 0.0
    q = _clamp_nodes(q, mask)
    if x is None:
        return q
    xq = np.asarray(x, dtype=float)
    if np.any(nodes_at(psi, xq)):
        raise NodeError("quantum potential requested at a wavefunction node")
    qv = _periodic_spline(psi.grid, q)(xq)
    return qv if np.ndim(x) else float(qv)


def sample_initial_positions(psi: WaveFunction, n: int, seed: int) -> np.ndarray:
    """Draw n positions from |psi|^2 by inverse CDF, linear inside each cell."""
    if n < 1:
        raise ConfigurationError("need n >= 1 samples")
    dens = psi.density()
    p = dens / dens.sum()
    cdf = np.concatenate([[0.0], np.cumsum(p)])
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    cells = np.searchsorted(cdf, u, side="right") - 1
    cells = np.clip(cells, 0, psi.grid.n - 1)
    frac = (u - cdf[cells]) / np.maximum(p[cells], 1e-300)
    # cells are centred on the grid points; wrap keeps samples in-domain
    g = psi.grid
    xs = g.x[cells] + (np.clip(frac, 0.0, 1.0) - 0.5) * g.dx
    return g.x_min + (xs - g.x_min) % (g.x_max - g.x_min)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """N trajectories on a shared time axis; positions has shape (nt, N).

    intrinsics.ensemble_currents consumes positions, writing the currents
    over them.
    """

    times: np.ndarray
    positions: np.ndarray
    truncated: np.ndarray  # (N,) bool

    @property
    def count(self) -> int:
        return self.positions.shape[1]


class VelocityField:
    """Guidance velocity over a stored evolution: periodic cubic in x, linear in t.

    Holds the clamped grid velocity of every frame and the knot slopes of
    its periodic spline, as two (nt, n) arrays, each row equal bit for bit
    to grid_velocity of that frame and its _spline_slopes.  They are filled
    BUILD_BLOCK_FRAMES frames at a time.  Nothing changes after
    construction.  Build it through Evolution.velocity, which keeps one
    per evolution.
    """

    def __init__(self, evolution: Evolution):
        self.grid = evolution.grid
        self.times = evolution.times
        self.frame_dt = evolution.frame_dt
        nt, n = evolution.frames.shape
        self.values = np.empty((nt, n))
        self.slopes = np.empty((nt, n))
        for lo in range(0, nt, BUILD_BLOCK_FRAMES):
            rows = slice(lo, lo + BUILD_BLOCK_FRAMES)
            self.values[rows] = _grid_velocities(self.grid, evolution.frames[rows],
                                                 evolution.mass, evolution.hbar)
            self.slopes[rows] = _spline_slopes(self.grid, self.values[rows])

    def coefficients(self, t: float) -> np.ndarray:
        """(n, 4) Hermite table of the field at time t, for _hermite_eval."""
        pos = (t - self.times[0]) / self.frame_dt
        lo = min(max(math.floor(pos), 0), len(self.times) - 2)
        w = min(max(float(pos - lo), 0.0), 1.0)
        values, slopes = self.values[lo], self.slopes[lo]
        if w != 0.0:
            # the spline is linear in its knot values, so blending the two
            # frames' knots equals blending their interpolants
            values = (1.0 - w) * values + w * self.values[lo + 1]
            slopes = (1.0 - w) * slopes + w * self.slopes[lo + 1]
        return _hermite_coefficients(values, slopes, self.grid.dx)

    def __call__(self, x, t: float):
        return _hermite_eval(self.coefficients(t), self.grid, x)


def integrate_trajectories(evolution: Evolution, starts: np.ndarray,
                           substeps: int = 1) -> TrajectoryEnsemble:
    """RK4 integration of the guidance equation for all starting points.

    All trajectories advance together, vectorised over the ensemble, on the
    stored evolution.  One substep per frame is enough: the trajectory error
    is the field's linear blend between frames (propagator.steps_per_output
    sets it), not RK4's.  Each substep builds the field's Hermite table once
    per stage time: k2 and k3 share the t + h/2 table, and the t + h table
    of k4 is the next substep's k1 table.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    grid = evolution.grid
    if not np.all(grid.contains(starts)):
        raise ConfigurationError("some starting positions are outside the domain")
    vel = evolution.velocity
    times = evolution.times
    nt = len(times)
    h = evolution.frame_dt / substeps
    pos = np.empty((nt, len(starts)))
    pos[0] = starts
    trunc = np.zeros(len(starts), dtype=bool)
    x = starts.copy()
    for j in range(nt - 1):
        t = times[j]
        c_start = vel.coefficients(t)
        for _ in range(substeps):
            c_half = vel.coefficients(t + 0.5 * h)
            c_end = vel.coefficients(t + h)
            k1 = _hermite_eval(c_start, grid, x)
            k2 = _hermite_eval(c_half, grid, x + 0.5 * h * k1)
            k3 = _hermite_eval(c_half, grid, x + 0.5 * h * k2)
            k4 = _hermite_eval(c_end, grid, x + h * k3)
            x_new = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            out = ~grid.contains(x_new)
            trunc |= out
            x = np.where(out, x, x_new)  # freeze trajectories that leave
            t += h
            c_start = c_end
        pos[j + 1] = x
    return TrajectoryEnsemble(times, pos, trunc)


def equivariance_l1(evolution: Evolution, ensemble: TrajectoryEnsemble,
                    frame: int) -> float:
    """L1 distance between a 25-bin trajectory histogram and |psi|^2 at a frame."""
    psi = evolution.psi(frame)
    dens = psi.density()
    dx = evolution.grid.dx
    mass_cdf = np.cumsum(dens) * dx
    lo = evolution.grid.x[np.searchsorted(mass_cdf, 5e-4)]
    hi = evolution.grid.x[min(np.searchsorted(mass_cdf, 1 - 5e-4),
                              evolution.grid.n - 1)]
    edges = np.linspace(lo, hi, 26)
    hist, _ = np.histogram(ensemble.positions[frame], bins=edges)
    emp = hist / ensemble.count
    # reference probability per bin from the grid density; cells are
    # centred on the grid points, matching the equilibrium sampler
    cum = np.concatenate([[0.0], np.cumsum(dens) * dx])
    xe = np.concatenate([evolution.grid.x - 0.5 * dx,
                         [evolution.grid.x[-1] + 0.5 * dx]])
    ref = np.diff(np.interp(edges, xe, cum))
    # include the mass falling outside the binned range on the empirical side
    out_mass = 1.0 - emp.sum() - (1.0 - ref.sum())
    return float(np.sum(np.abs(emp - ref)) + abs(out_mass))
