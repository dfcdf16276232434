"""1D spatial grid, wavefunctions, Hamiltonians and unitary propagation.

Conventions used throughout the package:

* natural units hbar = m = q = 1 by default, every constant is an argument;
* uniform periodic grid, x_j = x_min + j*dx, j = 0..n-1 (x_max excluded);
* the state is stored as plain amplitude samples psi(x_j), normalized so
  that sum |psi|^2 dx = 1;
* spectral (FFT) derivatives, so smooth states are resolved to machine
  precision as long as the packet stays away from the domain edges;
* one propagator, the split-operator (Strang) FFT step, for any potential;
  the dense exp(-i H t / hbar) of a time-independent H (n <= DENSE_EIG_LIMIT)
  is evolution_operator, for the dense measurement chain;
* a grid point or position is a node when |psi|^2 there falls below
  NODE_THRESHOLD_REL times the maximum of |psi|^2 on the grid.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, DimensionError, FrameAccessError,
                     HorizonError, StepSizeError)

NODE_THRESHOLD_REL = 1e-12  # |psi|^2 below this fraction of its max is a node
DENSE_EIG_LIMIT = 2048
NORM_DRIFT_TOL = 1e-6  # largest |norm - 1| a propagation may accumulate
HORIZON_MASS_TOL = 1e-4  # largest region mass left at a dwell-time horizon


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic spatial grid on [x_min, x_max)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ConfigurationError(f"grid needs n >= 16, got n={self.n}")
        if not self.x_max > self.x_min:
            raise ConfigurationError(
                f"grid needs x_max > x_min, got [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def x(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n)
        x.flags.writeable = False
        return x

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers in FFT order."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        k.flags.writeable = False
        return k

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def contains(self, x) -> np.ndarray:
        return (np.asarray(x) >= self.x_min) & (np.asarray(x) < self.x_max)


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a grid at one instant. Treated as immutable."""

    grid: Grid1D
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n,):
            raise DimensionError(
                f"amplitudes shape {amp.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(amp)):
            raise ConfigurationError("wavefunction amplitudes must be finite")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx))

    def normalize(self) -> "WaveFunction":
        return replace(self, amplitudes=self.amplitudes / self.norm())

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    # -- common initial states -------------------------------------------

    @staticmethod
    def gaussian(grid: Grid1D, center: float = 0.0, width: float = 1.0,
                 momentum: float = 0.0, hbar: float = 1.0) -> "WaveFunction":
        """Normalized Gaussian packet with position spread `width` (= sigma_0)."""
        if width <= 0:
            raise ConfigurationError(f"gaussian width must be > 0, got {width}")
        x = grid.x
        amp = np.exp(-((x - center) ** 2) / (4.0 * width ** 2)
                     + 1j * momentum * x / hbar)
        return WaveFunction(grid, amp).normalize()


def _drive_profile(amplitude, profile):
    if profile is not None:
        return profile
    return lambda t: amplitude


@dataclass(frozen=True)
class PotentialModel:
    """Scalar potential V(x, t).

    kinds:
      free                     V = 0
      barrier(height, left, right)
      harmonic(omega)          V = m omega^2 x^2 / 2
      drive(amplitude|profile) V = -q E(t) x, uniform time-dependent field
    """

    kind: str = "free"
    height: float = 0.0
    left: float = 0.0
    right: float = 0.0
    omega: float = 0.0
    amplitude: float = 0.0
    profile: Callable[[float], float] | None = None
    mass: float = 1.0
    charge: float = 1.0

    KINDS = ("free", "barrier", "harmonic", "drive")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        if self.kind == "barrier" and not self.right > self.left:
            raise ConfigurationError("barrier needs right > left")
        if self.kind == "harmonic" and self.omega <= 0:
            raise ConfigurationError("harmonic potential needs omega > 0")

    @property
    def time_dependent(self) -> bool:
        return self.kind == "drive"

    def values(self, x, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "barrier":
            return np.where((x >= self.left) & (x <= self.right), self.height, 0.0)
        if self.kind == "harmonic":
            return 0.5 * self.mass * self.omega ** 2 * x ** 2
        # drive
        e_t = _drive_profile(self.amplitude, self.profile)(t)
        return -self.charge * e_t * x

    def field(self, x, t: float = 0.0) -> np.ndarray:
        """Effective electric field E = -(1/q) dV/dx (zero inside a flat barrier)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "harmonic":
            return -self.mass * self.omega ** 2 * x / self.charge
        if self.kind == "drive":
            e_t = _drive_profile(self.amplitude, self.profile)(t)
            return np.full_like(x, e_t)
        return np.zeros_like(x)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _fft_matrix_apply(grid: Grid1D, kernel: np.ndarray) -> np.ndarray:
    """Dense matrix of ifft(kernel * fft(.)) on the grid."""
    eye = np.eye(grid.n, dtype=complex)
    return np.fft.ifft(kernel[:, None] * np.fft.fft(eye, axis=0), axis=0)


class SpectralOperator:
    """An observable on the grid: direct application rule + eigen decomposition.

    Eigenvectors are columns, orthonormal under the dx-weighted inner
    product sum(conj(u) v) dx.  Position and momentum operators have
    analytic eigenbases: eigenvalues are given and `eigenvectors` is a
    zero-argument builder run on the first eigenvectors() call.  The
    Hamiltonian is diagonalized densely on demand from its dense_builder.
    Every n x n array is built only for n <= DENSE_EIG_LIMIT.
    """

    def __init__(self, label: str, grid: Grid1D, apply_fn, eigenvalues=None,
                 eigenvectors=None, dense_builder=None):
        self.label = label
        self.grid = grid
        self._apply = apply_fn
        self._eigvals = eigenvalues
        self._eigvecs = eigenvectors
        self._dense_builder = dense_builder

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(values, dtype=complex))

    def _check_dense_size(self):
        if self.grid.n > DENSE_EIG_LIMIT:
            raise ConfigurationError(
                f"dense {self.label} arrays limited to n <= {DENSE_EIG_LIMIT}, "
                f"got n = {self.grid.n}")

    def _ensure_eigs(self):
        if self._eigvals is None:
            self._eigvals, vecs = np.linalg.eigh(self.dense())
            self._eigvecs = vecs / np.sqrt(self.grid.dx)

    def eigenvalues(self) -> np.ndarray:
        self._ensure_eigs()
        return self._eigvals

    def eigenvectors(self) -> np.ndarray:
        self._ensure_eigs()
        if callable(self._eigvecs):
            self._check_dense_size()
            self._eigvecs = self._eigvecs()
        return self._eigvecs

    def dense(self) -> np.ndarray:
        self._check_dense_size()
        m = self._dense_builder()
        return 0.5 * (m + m.conj().T)  # kill roundoff asymmetry

    def coefficients(self, psi: "WaveFunction | np.ndarray") -> np.ndarray:
        values = psi.amplitudes if isinstance(psi, WaveFunction) else np.asarray(psi)
        return self.eigenvectors().conj().T @ values * self.grid.dx


def position_operator(grid: Grid1D) -> SpectralOperator:
    x = grid.x
    return SpectralOperator("position", grid, lambda v: x * v,
                            eigenvalues=x.copy(),
                            eigenvectors=lambda: np.eye(grid.n) / np.sqrt(grid.dx))


def momentum_operator(grid: Grid1D, hbar: float = 1.0) -> SpectralOperator:
    hk = hbar * grid.k

    def apply(v):
        return np.fft.ifft(hk * np.fft.fft(v))

    def eigenvectors():
        return np.exp(1j * np.outer(grid.x, grid.k)) / np.sqrt(grid.length)

    return SpectralOperator("momentum", grid, apply,
                            eigenvalues=hk.copy(), eigenvectors=eigenvectors)


def window_weights(grid: Grid1D, a: float, b: float) -> np.ndarray:
    """Read-only (n,) weights of the spatial window [a, b].

    Each grid point carries the cell [x - dx/2, x + dx/2]; cells cut by a
    window edge get the fractional overlap as their weight, so
    sum(w |psi|^2) dx is the exact region mass instead of a cell-quantized
    one.  Multiplying by w applies the window projector A of the dwell
    operator.
    """
    if not b > a:
        raise ConfigurationError(f"window needs b > a, got [{a}, {b}]")
    lo, hi = grid.x - 0.5 * grid.dx, grid.x + 0.5 * grid.dx
    w = np.clip((np.minimum(hi, b) - np.maximum(lo, a)) / grid.dx, 0.0, 1.0)
    w.flags.writeable = False
    return w


def horizon_frame(evolution: "Evolution", horizon: float) -> int:
    """The index of the frame at times[0] + horizon, the last one the dwell
    readers of an evolution made with a window integrate.  Raises
    FrameAccessError without a window or, on a stream, before its last
    frame (the window masses come with it), and HorizonError if more than
    HORIZON_MASS_TOL of |psi|^2 is still inside the window at that frame."""
    if evolution.window is None:
        raise FrameAccessError("this evolution was made without a window")
    i_t = evolution.index_of(evolution.times[0] + horizon)
    mass = evolution.window_masses[i_t]
    if np.isnan(mass):
        raise FrameAccessError("window masses asked before the last frame")
    if mass > HORIZON_MASS_TOL:
        raise HorizonError(f"probability mass {mass:.2e} still inside the "
                           f"window at T={horizon}")
    return i_t


def build_hamiltonian(grid: Grid1D, potential: PotentialModel, t: float = 0.0,
                      mass: float = 1.0, hbar: float = 1.0) -> SpectralOperator:
    """H = -(hbar^2/2m) d^2/dx^2 + V(x, t) with spectral kinetic term."""
    if potential.kind == "barrier":
        pts = np.count_nonzero((grid.x >= potential.left) & (grid.x <= potential.right))
        if pts < 4:
            raise ConfigurationError(
                f"grid too coarse: only {pts} points across the barrier "
                f"[{potential.left}, {potential.right}]")
    v = potential.values(grid.x, t)
    if not np.all(np.isfinite(v)):
        raise ConfigurationError("potential is not finite on the grid")
    kin = hbar ** 2 * grid.k ** 2 / (2.0 * mass)

    def apply(vec):
        return np.fft.ifft(kin * np.fft.fft(vec)) + v * vec

    def dense_builder():
        return _fft_matrix_apply(grid, kin.astype(complex)) + np.diag(v)

    return SpectralOperator("hamiltonian", grid, apply, dense_builder=dense_builder)


def evolution_operator(grid: Grid1D, potential: PotentialModel, duration: float,
                       mass: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Dense U = exp(-i H duration / hbar) acting on amplitude samples.

    Exact (to the dense eigendecomposition) for time-independent H; the
    drive kind is rejected since its Hamiltonian does not commute with
    itself across times.
    """
    if potential.time_dependent:
        raise ConfigurationError(
            "evolution_operator requires a time-independent potential")
    h = build_hamiltonian(grid, potential, mass=mass, hbar=hbar)
    e, v = h.eigenvalues(), h.eigenvectors()
    phases = np.exp(-1j * e * duration / hbar)
    return (v * phases) @ v.conj().T * grid.dx


def expectation(op: SpectralOperator, psi: WaveFunction) -> float:
    """Real expectation value <psi|op|psi>; raises if the residue is not tiny."""
    if psi.grid != op.grid:
        raise DimensionError("operator and state live on different grids")
    val = complex(np.vdot(psi.amplitudes, op.apply(psi.amplitudes)) * op.grid.dx)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ConfigurationError(
            f"expectation value has imaginary residue {val.imag:.3e}")
    return val.real


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

def node_mask(amplitudes: np.ndarray) -> np.ndarray:
    """True at the grid points where the state is a node.

    Works per row: for a (..., n) array of amplitudes, each row is judged
    against its own maximum density, exactly as it would be alone.
    """
    dens = np.abs(amplitudes) ** 2
    return dens < NODE_THRESHOLD_REL * dens.max(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    steps_per_output: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if self.steps_per_output < 1:
            raise ConfigurationError("steps_per_output must be >= 1")


class Stepper:
    """The split-operator (Strang) step of dt from t, for any potential:
    exp(-i V(t + dt) dt / 2 hbar) exp(-i T dt / hbar) exp(-i V(t) dt / 2 hbar).
    dt may be < 0, and the step of -dt from t + dt undoes the step of dt
    from t."""

    def __init__(self, grid, potential, dt, mass, hbar):
        self.grid = grid
        self.potential = potential
        self.dt = dt
        self.hbar = hbar
        self._kin_phase = np.exp(-1j * hbar * grid.k ** 2 * dt / (2.0 * mass))
        # a static potential's half-step phase is the same at every t
        self._static_v = None
        if not potential.time_dependent:
            self._static_v = self._half_v(0.0)

    def _half_v(self, t):
        if self._static_v is not None:
            return self._static_v
        v = self.potential.values(self.grid.x, t)
        return np.exp(-0.5j * v * self.dt / self.hbar)

    def step(self, amp, t):
        amp = self._half_v(t) * amp
        amp = np.fft.ifft(self._kin_phase * np.fft.fft(amp))
        return self._half_v(t + self.dt) * amp


def _step_count(duration, dt):
    steps = max(1, int(round(abs(duration) / dt)))
    return steps, np.sign(duration) * abs(duration) / steps


def propagate(psi: WaveFunction, potential: PotentialModel, cfg: PropagatorConfig,
              duration: float, mass: float = 1.0, hbar: float = 1.0) -> WaveFunction:
    """Advance psi by `duration` (may be negative: reverse evolution)."""
    if duration == 0.0:
        return psi
    steps, dt = _step_count(duration, cfg.dt)
    stepper = Stepper(psi.grid, potential, dt, mass, hbar)
    # the frame loop's one frame, after all the steps
    *_, amp = _frame_loop(psi, stepper, replace(cfg, steps_per_output=steps),
                          1, dt)
    return WaveFunction(psi.grid, amp, psi.time + duration)


def _check_norm_drift(amp, grid, cfg):
    drift = abs(np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx) - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise StepSizeError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:g}; "
                            f"dt={cfg.dt} is too large")


class Evolution:
    """A wavefunction history on uniformly spaced output frames.

    frames is an iterable that yields the (n,) frames in order, or their
    (nt, n) complex record (evolve_store).  The evolution hands its frames
    over once, in order, through frame_block: an iterable's are pulled
    through a _FrameStream, which on Linux runs it in a worker forked on
    the first pull, ahead of the reader, and are not kept; a record's are
    handed over already.  Only a record serves frames, psi(j) and a read
    behind the stream; a stream raises FrameAccessError.  close(),
    dropping the evolution or pulling the last frame stops and reaps the
    worker.  initial and final are the states at times[0] and times[-1],
    final once the last frame is handed over.  Made with a window's (n,)
    weights (see _frame_loop), it holds them as window, and each frame's
    window mass and overlap as the (nt,) window_masses and
    window_overlaps: given whole with a record, NaN on a stream until its
    last frame's pull.
    """

    _final = None   # psi at times[-1], once the last frame is handed over
    _record = None  # the (nt, n) frames, of an evolution made from them
    _next = 0       # the frame a stream hands over next
    window = None
    window_masses = None
    window_overlaps = None

    def __init__(self, grid: Grid1D, times: np.ndarray, frames,
                 potential: PotentialModel, dt: float,
                 mass: float = 1.0, hbar: float = 1.0,
                 initial: WaveFunction | None = None, window=None):
        self.grid = grid
        self.times = times              # (nt,)
        self.potential = potential
        self.dt = dt                    # the propagator step taken
        self.mass = mass
        self.hbar = hbar
        if isinstance(frames, np.ndarray):  # every frame handed over
            self._record, frames = frames, ()
            initial, self._final = self.psi(0), self.psi(-1)
        self._frames = _FrameStream(frames)
        self.initial = initial
        if window is not None:
            self.window = window
            self.window_masses, self.window_overlaps = np.full(
                (2, len(times)), np.nan)

    @property
    def frames(self) -> np.ndarray:
        """The (nt, n) complex record of an evolution made from one."""
        if self._record is None:
            raise FrameAccessError("this evolution holds no frame record")
        return self._record

    @property
    def frame_dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def psi(self, index: int) -> WaveFunction:
        return WaveFunction(self.grid, self.frames[index], float(self.times[index]))

    @property
    def final(self) -> WaveFunction:
        """psi at times[-1]."""
        if self._final is None:
            raise FrameAccessError("final state asked before the last frame")
        return self._final

    def frame_block(self, lo: int, hi: int) -> np.ndarray:
        """Frames lo..hi-1 (hi capped at nt) as one (rows, n) complex array.

        A record's frames come from it, as a view.  Otherwise the rows are
        pulled from the stream, and lo must be the first frame not yet
        handed over.  An exception that stopped the propagation is raised
        by the pull of the frame it stopped.
        """
        hi = min(hi, len(self.times))
        if self._record is not None:
            return self._record[lo:hi]
        if lo != self._next:
            raise FrameAccessError(
                f"evolution read out of order: frame {lo} asked, "
                f"frame {self._next} is next")
        block = np.empty((hi - lo, self.grid.n), dtype=complex)
        self._frames.readinto(block)
        self._next = hi
        if hi == len(self.times):
            if self.window is not None:  # its rows follow the last frame
                for row in (self.window_masses, self.window_overlaps):
                    self._frames.readinto(row[None])
            self._frames.close()
            self._final = WaveFunction(self.grid, block[-1].copy(),
                                       float(self.times[-1]))
        return block

    def close(self) -> None:
        """Stop the propagation: a worker, if one runs, is killed and
        reaped, and a later pull raises FrameAccessError."""
        self._frames.close()

    def index_of(self, t: float) -> int:
        idx = int(round((t - self.times[0]) / self.frame_dt))
        if idx < 0 or idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise ConfigurationError(f"time {t} is not a stored frame")
        return idx


def _frame_loop(psi, stepper, cfg, n_frames, dt, window=None):
    """The one propagation loop over output frames: yields psi's amplitudes,
    then the amplitudes after each cfg.steps_per_output Strang steps of dt,
    each checked for norm drift.  Given a window's (n,) weights w, phi =
    psi zeroed at its node_mask rides as a second row of each step (a
    batched FFT keeps each row's bits), and two more rows follow the last
    frame, read off each frame's window columns as it is made: the window
    masses sum w |psi|^2 dx and the overlaps Re sum w conj(phi) psi dx."""
    rows, t = psi.amplitudes[None], psi.time  # psi is row 0
    if window is not None:
        idx = np.flatnonzero(window)
        w = window[idx]
        sums = np.empty((2, n_frames + 1))
        rows = np.stack([rows[0], np.where(node_mask(rows[0]), 0, rows[0])])
    for frame in range(n_frames + 1):
        if frame:
            for _ in range(cfg.steps_per_output):
                rows = stepper.step(rows, t)
                t += dt
            _check_norm_drift(rows[0], psi.grid, cfg)
        if window is not None:
            # [psi, phi] at the window's columns, C-ordered: each row then
            # sums pairwise, with the bits of that row alone
            cols = rows.take(idx, axis=1)
            sums[:, frame] = np.sum(w * (cols.conj() * cols[0]).real, axis=1)
        yield rows[0]
    if window is not None:
        yield from sums * psi.grid.dx


# The frame pipe's size: 32 frames ahead of the reader at n = 2048.  With
# Linux's default 64 KiB the worker waited on the reader and gained nothing.
_PIPE_BYTES = 1 << 20


def _write_all(fd, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _run_worker(frames, fd, err, readers) -> None:
    """The body of a forked frame worker, which never returns: each row of
    frames, as raw complex bytes, down fd, or the pickled exception that
    stopped it down err once fd is closed.  It closes the reader's ends
    first, so the reader's exit breaks its pipes."""
    status = 0
    try:
        for reader in readers:
            os.close(reader)
        for amp in frames:
            _write_all(fd, amp)
    except BaseException as exc:
        status = 1
        with contextlib.suppress(BaseException):
            os.close(fd)  # the reader meets the end of the frames first
            _write_all(err, pickle.dumps(exc))
    finally:
        os._exit(status)


def _stop_worker(owner, pid, *fds):
    """Close the reader's pipes, kill worker pid if it still runs and reap
    it; returns its wait status (None if it was reaped elsewhere).  Does
    nothing in any process but owner, such as a later worker that was
    forked with the stream in its memory."""
    if os.getpid() != owner:
        return None
    for fd in fds:
        os.close(fd)
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    with contextlib.suppress(ChildProcessError):
        return os.waitpid(pid, 0)[1]
    return None


class _FrameStream:
    """The rows of an iterable of frames, read in order into blocks.

    The first read, where os.fork exists and this is the process's only
    thread (forking a threaded process is unsafe), forks a worker that runs
    the iterable and writes each frame's raw bytes into a pipe enlarged to
    _PIPE_BYTES where Linux allows, so the propagation runs on another
    core, ahead of the reader, and its frames arrive with the same bits.
    Elsewhere the iterable runs here, a frame per row read.  The
    exception that stops a worker is pickled down a second pipe and raised
    by the read that reaches its frame; a worker that ends without sending
    one raises OSError naming its exit code.  Either way the stream is
    closed then, so a later read raises FrameAccessError.  The worker leaves through
    os._exit; close(), or the stream's collection, kills it if it still
    runs and reaps it.
    """

    _frames = None  # the iterable, until the first read
    _rows = None    # its iterator, run in this process
    _fd = None      # the worker's frame pipe
    _err = None     # and its exception pipe
    _stop = None    # stops the worker (a weakref.finalize), until it ends
    pid = None      # the worker's process id, once forked

    def __init__(self, frames):
        self._frames = frames

    def readinto(self, block: np.ndarray) -> None:
        """Fill the rows of block, a C-contiguous (rows, n) complex array,
        with the next frames."""
        if self._frames is not None:
            self._start()
        if self._rows is not None:
            try:
                for row in block:
                    row[:] = next(self._rows)
            except BaseException:  # the iterable is spent: no later read
                self.close()
                raise
            return
        if self._stop is None or not self._stop.alive:
            raise FrameAccessError("the frame stream is closed")
        view = memoryview(block).cast("B")
        while view:
            got = os.readv(self._fd, [view])
            if not got:
                self._raise_worker_error()
            view = view[got:]

    def _start(self) -> None:
        frames, self._frames = self._frames, None
        self._rows = iter(frames)
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return
        import fcntl
        fd, w = os.pipe()
        err, err_w = os.pipe()
        with contextlib.suppress(AttributeError, OSError):  # Linux only
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        try:
            pid = os.fork()
        except OSError:  # no process to spare: propagate here
            pid = None
        if pid == 0:
            _run_worker(frames, w, err_w, (fd, err))
        os.close(w)
        os.close(err_w)
        if pid is None:
            os.close(fd)
            os.close(err)
            return
        self._rows = None
        self._fd, self._err, self.pid = fd, err, pid
        self._stop = weakref.finalize(self, _stop_worker, os.getpid(), pid,
                                      fd, err)

    def _raise_worker_error(self):
        """The frames ended early: raise the worker's exception, or OSError
        naming its exit code if it sent none."""
        record = b"".join(iter(lambda: os.read(self._err, 1 << 16), b""))
        status = self._stop()
        if record:
            raise pickle.loads(record)
        code = "unknown" if status is None else os.waitstatus_to_exitcode(status)
        raise OSError(f"the frame worker exited with code {code} before its "
                      "last frame")

    def close(self) -> None:
        self._frames = self._rows = None
        if self._stop is not None:
            self._stop()


def _frame_plan(psi, potential, cfg, duration, mass, hbar, window=None):
    """(times, dt, the frame loop) of an evolution of psi over duration.

    The step is duration over a whole number of frames times
    steps_per_output.
    """
    if duration <= 0:
        raise ConfigurationError("an evolution needs duration > 0")
    total_steps, _ = _step_count(duration, cfg.dt)
    spo = cfg.steps_per_output
    n_frames = int(np.ceil(total_steps / spo))
    dt = duration / (n_frames * spo)  # exact multiple of steps_per_output
    stepper = Stepper(psi.grid, potential, dt, mass, hbar)
    times = psi.time + dt * spo * np.arange(n_frames + 1)
    return times, dt, _frame_loop(psi, stepper, cfg, n_frames, dt, window)


def evolve_stream(psi: WaveFunction, potential: PotentialModel,
                  cfg: PropagatorConfig, duration: float,
                  mass: float = 1.0, hbar: float = 1.0,
                  window: np.ndarray | None = None) -> Evolution:
    """An Evolution of a frame every cfg.steps_per_output steps,
    propagated from the first pull on, in a forked worker where one can
    run (see _FrameStream), so it holds O(n) memory whatever the duration,
    besides a window's two (nt,) rows.  Nothing is propagated, and no
    worker forked, before that pull.  Given a window's weights, its
    window_masses and window_overlaps are NaN until the last frame's
    pull."""
    times, dt, frames = _frame_plan(psi, potential, cfg, duration, mass,
                                    hbar, window)
    return Evolution(psi.grid, times, frames, potential, dt, mass, hbar,
                     initial=psi, window=window)


def evolve_store(psi: WaveFunction, potential: PotentialModel,
                 cfg: PropagatorConfig, duration: float,
                 mass: float = 1.0, hbar: float = 1.0,
                 window: np.ndarray | None = None) -> Evolution:
    """The Evolution of evolve_stream's frames, all handed over: they are
    collected in order in this process (nothing runs beside it to
    overlap) into one (nt, n) complex record, for the readers of frames
    out of order or more than once."""
    times, dt, frames = _frame_plan(psi, potential, cfg, duration, mass,
                                    hbar, window)
    record = np.empty((len(times), psi.grid.n), dtype=complex)
    for row, amp in zip(record, frames):
        row[:] = amp
    ev = Evolution(psi.grid, times, record, potential, dt, mass, hbar,
                   window=window)
    if window is not None:  # its rows follow the last frame
        ev.window_masses, ev.window_overlaps = frames
    return ev
