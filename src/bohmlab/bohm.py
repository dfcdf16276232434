"""Bohmian velocity field, quantum potential, read_at (the one reader of
grid values at particle positions), equilibrium sampling and trajectory
integration.

Trajectories are integrated in a two-pass scheme: the wavefunction history
comes first, a qgrid.Evolution that hands its frames over in order
(qgrid.evolve_stream propagates them as they are asked for, in a forked
worker that runs ahead on another core; qgrid.evolve_store collects them
all first), then the guidance equation dx/dt = v(x, t) is integrated
with RK4.  Each rk4_frames pass builds the one VelocityField it reads.
The field builds a block of frames at a time, on first use: each frame's
grid velocity with node points clamped to the nearest non-node value, and
the knot slopes of its periodic cubic spline from an FFT solve.  It keeps
two blocks, so its memory does not grow with the run.  Between grid points
the velocity is that spline, evaluated by index arithmetic in the cubic
Hermite basis; between frames it is linear in t.
VelocityField.coefficients(t) gives the Hermite table of one time, so RK4
builds it once per distinct stage time and evaluates every stage at that
time from it.  Clamping keeps the integrator off the singular field
at nodes; equilibrium-sampled trajectories visit nodes with probability ~0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NodeError
from .qgrid import (NODE_THRESHOLD_REL, Evolution, Grid1D, WaveFunction,
                    node_mask)

# Frames per VelocityField build block: enough to amortise the per-call
# cost of the FFTs, few enough that the build's complex temporaries stay
# at 256 KB at n = 2048.  The field keeps two blocks, 0.5 MB at n = 2048,
# and an evolution pulls one block of frames at a time.  32-frame
# blocks saved about 5 ms of a 2048-point, 251-frame build but raised the
# run's peak RSS by 1.6 MB.
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


def read_at(psi: WaveFunction, values: np.ndarray, x):
    """Grid values (real or complex) read at positions x through the
    periodic spline: the one reader of a local value at a particle position.

    values of shape (k, n) are k grid functions, read behind one domain and
    node check into a list of k results.  Raises ConfigurationError when any
    x is outside the grid domain and NodeError when |psi(x)|^2 is below the
    node threshold at any x.  A scalar x gives numpy scalars.
    """
    xq = np.asarray(x, dtype=float)
    if not np.all(psi.grid.contains(xq)):
        raise ConfigurationError("query position outside the grid domain")
    if np.any(nodes_at(psi, xq)):
        raise NodeError("local value requested at a wavefunction node")
    if np.ndim(values) == 2:
        return [_periodic_spline(psi.grid, row)(xq)[()] for row in values]
    return _periodic_spline(psi.grid, values)(xq)[()]


def quantum_potential(psi: WaveFunction, mass: float = 1.0,
                      hbar: float = 1.0) -> np.ndarray:
    """Q = -(hbar^2/2m) R''/R on the grid, node points clamped to the
    nearest non-node value.  R''/R = Re[psi''/psi] + Im[psi'/psi]^2 from
    spectral derivatives of psi: a spectral R'' of R = |psi| would ring at
    every node of psi, however far out in the tails."""
    amp = psi.amplitudes
    mask = node_mask(amp)
    d1 = _spectral_derivative(psi.grid, amp)
    d2 = _spectral_derivative(psi.grid, d1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = -hbar ** 2 / (2.0 * mass) * (np.real(d2 / amp)
                                         + np.imag(d1 / amp) ** 2)
    q[mask] = 0.0
    return _clamp_nodes(q, mask)


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


class VelocityField:
    """Guidance velocity over an evolution: periodic cubic in x, linear in t.

    frame(j) gives frame j's clamped grid velocity and the knot slopes of
    its periodic spline, each equal bit for bit to grid_velocity of that
    frame and its _spline_slopes.  They are built BUILD_BLOCK_FRAMES frames
    at a time, on first use, from evolution.frame_block, and the field
    keeps only the block last built and the one before it: RK4 reads frames
    j and j + 1 with j increasing, so its memory does not grow with the
    frame count.  A read further back builds its block again, from the
    evolution's record if it has one (evolve_store); a stream raises
    FrameAccessError.  The evolution holds no
    reference to its field, so the two make no reference cycle.
    """

    def __init__(self, evolution: Evolution):
        self.grid = evolution.grid
        self.times = evolution.times
        self.frame_dt = evolution.frame_dt
        self._evolution = evolution
        self._blocks = {}  # block index -> (values, slopes), at most two

    def frame(self, j: int) -> tuple:
        """(values, slopes) of frame j: two read-only (n,) arrays."""
        b, row = divmod(j, BUILD_BLOCK_FRAMES)
        if b not in self._blocks:
            ev = self._evolution
            lo = b * BUILD_BLOCK_FRAMES
            values = _grid_velocities(
                self.grid, ev.frame_block(lo, lo + BUILD_BLOCK_FRAMES),
                ev.mass, ev.hbar)
            slopes = _spline_slopes(self.grid, values)
            values.flags.writeable = slopes.flags.writeable = False
            self._blocks = {k: v for k, v in self._blocks.items() if k == b - 1}
            self._blocks[b] = values, slopes
        values, slopes = self._blocks[b]
        return values[row], slopes[row]

    def coefficients(self, t: float) -> np.ndarray:
        """(n, 4) Hermite table of the field at time t, for _hermite_eval."""
        pos = (t - self.times[0]) / self.frame_dt
        lo = min(max(math.floor(pos), 0), len(self.times) - 2)
        w = min(max(float(pos - lo), 0.0), 1.0)
        values, slopes = self.frame(lo)
        if w != 0.0:
            # the spline is linear in its knot values, so blending the two
            # frames' knots equals blending their interpolants
            values_1, slopes_1 = self.frame(lo + 1)
            values = (1.0 - w) * values + w * values_1
            slopes = (1.0 - w) * slopes + w * slopes_1
        return _hermite_coefficients(values, slopes, self.grid.dx)

    def __call__(self, x, t: float):
        return _hermite_eval(self.coefficients(t), self.grid, x)


def rk4_frames(evolution: Evolution, starts: np.ndarray):
    """RK4 integration of the guidance equation for all starting points,
    yielding (x, k1, frozen) at every output frame: the one RK4 loop.

    All trajectories advance together, vectorised over the ensemble, over
    the evolution's frames in order, one RK4 step per frame: the trajectory
    error is the field's linear blend between frames
    (propagator.steps_per_output sets it), not RK4's.  Each step builds the
    field's Hermite table once per stage time; k2 and k3 share the t + h/2
    table.

    At frame j, x holds the positions, k1 = v(x, t_j) is the field there
    (the first stage of the step that leaves the frame, if one does), and
    frozen marks the trajectories that have left the domain by then; they
    stay at their last position inside it.  The three arrays are read-only,
    because the step after the yield still reads them.  The VelocityField
    is this pass's own, so a dropped pass releases it and its evolution.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    grid = evolution.grid
    if not np.all(grid.contains(starts)):
        raise ConfigurationError("some starting positions are outside the domain")
    vel = VelocityField(evolution)
    times = evolution.times
    h = evolution.frame_dt
    x = starts.copy()
    frozen = np.zeros(len(starts), dtype=bool)
    for j, t in enumerate(times):
        k1 = _hermite_eval(vel.coefficients(t), grid, x)
        for a in (x, k1, frozen):
            a.flags.writeable = False
        yield x, k1, frozen
        if j == len(times) - 1:
            return
        c_half = vel.coefficients(t + 0.5 * h)
        k2 = _hermite_eval(c_half, grid, x + 0.5 * h * k1)
        k3 = _hermite_eval(c_half, grid, x + 0.5 * h * k2)
        k4 = _hermite_eval(vel.coefficients(t + h), grid, x + h * k3)
        x_new = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out = ~grid.contains(x_new)
        frozen = frozen | out
        x = np.where(frozen, x, x_new)  # a frozen trajectory stays put


def integrate_trajectories(evolution: Evolution,
                           starts: np.ndarray) -> np.ndarray:
    """The (nt, N) position record of rk4_frames, for the criteria and
    demos that check whole paths; no task holds it."""
    pos = np.empty((len(evolution.times), np.size(starts)))
    for j, (x, _, _) in enumerate(rk4_frames(evolution, starts)):
        pos[j] = x
    return pos


def equivariance_l1(psi: WaveFunction, x: np.ndarray) -> float:
    """L1 distance between a 25-bin histogram of positions x and |psi|^2."""
    grid = psi.grid
    # the mass up to the right edge of each cell; cells are centred on the
    # grid points, matching the equilibrium sampler
    cum = np.concatenate([[0.0], np.cumsum(psi.density()) * grid.dx])
    lo = grid.x[np.searchsorted(cum[1:], 5e-4)]
    hi = grid.x[min(np.searchsorted(cum[1:], 1 - 5e-4), grid.n - 1)]
    edges = np.linspace(lo, hi, 26)
    hist, _ = np.histogram(x, bins=edges)
    emp = hist / len(x)
    # reference probability per bin from the grid density
    xe = np.concatenate([grid.x - 0.5 * grid.dx, [grid.x[-1] + 0.5 * grid.dx]])
    ref = np.diff(np.interp(edges, xe, cum))
    # include the mass falling outside the binned range on the empirical side
    out_mass = 1.0 - emp.sum() - (1.0 - ref.sum())
    return float(np.sum(np.abs(emp - ref)) + abs(out_mass))
