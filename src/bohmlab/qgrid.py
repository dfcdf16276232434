"""1D spatial grid, wavefunctions, Hamiltonians and unitary propagation.

Conventions used throughout the package:

* natural units hbar = m = q = 1 by default, every constant is an argument;
* uniform periodic grid, x_j = x_min + j*dx, j = 0..n-1 (x_max excluded);
* the state is stored as plain amplitude samples psi(x_j), normalized so
  that sum |psi|^2 dx = 1;
* spectral (FFT) derivatives, so smooth states are resolved to machine
  precision as long as the packet stays away from the domain edges;
* two propagators: the split-operator (Strang) FFT step for any potential,
  and the exact step exp(-i H dt / hbar) in the dense eigenbasis of a
  time-independent H (n <= DENSE_EIG_LIMIT), which keeps eigenstates
  stationary;
* a grid point or position is a node when |psi|^2 there falls below
  NODE_THRESHOLD_REL times the maximum of |psi|^2 on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DimensionError, StepSizeError

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
    product sum(conj(u) v) dx.  Position, momentum and window operators have
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


def window_operator(grid: Grid1D, a: float, b: float) -> SpectralOperator:
    """(Quasi-)projector onto the spatial window [a, b].

    Each grid point carries the cell [x - dx/2, x + dx/2]; cells cut by a
    window edge get the fractional overlap as their weight, so <window>
    reproduces the exact region mass instead of a cell-quantized one.
    """
    if not b > a:
        raise ConfigurationError(f"window needs b > a, got [{a}, {b}]")
    lo, hi = grid.x - 0.5 * grid.dx, grid.x + 0.5 * grid.dx
    ind = np.clip((np.minimum(hi, b) - np.maximum(lo, a)) / grid.dx, 0.0, 1.0)
    return SpectralOperator("window", grid, lambda v: ind * v,
                            eigenvalues=ind.copy(),
                            eigenvectors=lambda: np.eye(grid.n) / np.sqrt(grid.dx))


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
    method: str = "split-operator"  # or "exact"
    steps_per_output: int = 10

    METHODS = ("split-operator", "exact")

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if self.method not in self.METHODS:
            raise ConfigurationError(f"unknown propagation method {self.method!r}"
                                     f" (valid: {', '.join(self.METHODS)})")
        if self.steps_per_output < 1:
            raise ConfigurationError("steps_per_output must be >= 1")


class _SplitOperatorStepper:
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


class _ExactStepper:
    """One dense step U = exp(-i H dt / hbar) from the eigenbasis of a static H.

    evolution_operator rejects time-dependent potentials and grids above
    DENSE_EIG_LIMIT before any n x n allocation.
    """

    def __init__(self, grid, potential, dt, mass, hbar):
        self._u = evolution_operator(grid, potential, dt, mass=mass, hbar=hbar)

    def step(self, amp, t):
        return self._u @ amp


def _make_stepper(grid, potential, dt, method, mass, hbar):
    cls = _SplitOperatorStepper if method == "split-operator" else _ExactStepper
    return cls(grid, potential, dt, mass, hbar)


def _step_count(duration, dt):
    steps = max(1, int(round(abs(duration) / dt)))
    return steps, np.sign(duration) * abs(duration) / steps


def propagate(psi: WaveFunction, potential: PotentialModel, cfg: PropagatorConfig,
              duration: float, mass: float = 1.0, hbar: float = 1.0) -> WaveFunction:
    """Advance psi by `duration` (may be negative: reverse evolution)."""
    if duration == 0.0:
        return psi
    steps, dt = _step_count(duration, cfg.dt)
    stepper = _make_stepper(psi.grid, potential, dt, cfg.method, mass, hbar)
    amp = psi.amplitudes
    t = psi.time
    for _ in range(steps):
        amp = stepper.step(amp, t)
        t += dt
    out = WaveFunction(psi.grid, amp, psi.time + duration)
    _check_norm_drift(out.amplitudes, psi.grid, cfg)
    return out


def _check_norm_drift(amp, grid, cfg):
    drift = abs(np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx) - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise StepSizeError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:g}; "
                            f"dt={cfg.dt} is too large")


@dataclass
class Evolution:
    """A stored wavefunction history on uniformly spaced output frames."""

    grid: Grid1D
    times: np.ndarray          # (nt,)
    frames: np.ndarray         # (nt, n) complex
    potential: PotentialModel
    mass: float = 1.0
    hbar: float = 1.0

    @property
    def frame_dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def psi(self, index: int) -> WaveFunction:
        return WaveFunction(self.grid, self.frames[index], float(self.times[index]))

    @cached_property
    def velocity(self):
        """The Bohmian guidance field of this history (bohm.VelocityField).

        Built on first use and shared by every later consumer.
        """
        from .bohm import VelocityField  # bohm builds on this module
        return VelocityField(self)

    def index_of(self, t: float) -> int:
        idx = int(round((t - self.times[0]) / self.frame_dt))
        if idx < 0 or idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise ConfigurationError(f"time {t} is not a stored frame")
        return idx


def evolve_store(psi: WaveFunction, potential: PotentialModel,
                 cfg: PropagatorConfig, duration: float,
                 mass: float = 1.0, hbar: float = 1.0) -> Evolution:
    """Propagate and record a frame every cfg.steps_per_output steps."""
    if duration <= 0:
        raise ConfigurationError("evolve_store needs duration > 0")
    total_steps, _ = _step_count(duration, cfg.dt)
    spo = cfg.steps_per_output
    n_frames = int(np.ceil(total_steps / spo))
    dt = duration / (n_frames * spo)  # exact multiple of steps_per_output
    stepper = _make_stepper(psi.grid, potential, dt, cfg.method, mass, hbar)
    frames = np.empty((n_frames + 1, psi.grid.n), dtype=complex)
    times = psi.time + dt * spo * np.arange(n_frames + 1)
    frames[0] = psi.amplitudes
    amp = psi.amplitudes
    t = psi.time
    for frame in range(1, n_frames + 1):
        for _ in range(spo):
            amp = stepper.step(amp, t)
            t += dt
        _check_norm_drift(amp, psi.grid, cfg)
        frames[frame] = amp
    return Evolution(psi.grid, times, frames, potential, mass, hbar)
