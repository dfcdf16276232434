"""Von Neumann system-ancilla-pointer measurement chain.

The chain is: a weak premeasurement of S at t1 entangles a Gaussian
ancilla with the system; reading out the ancilla position collapses the
system; the system then evolves unitarily to t2 where a second, projective
measurement of G is performed.  Because the ancilla-pointer coupling is
strong (unit coupling), the pointer only convolves the ancilla readout
with a delta function, so the pointer layer is not represented explicitly
and the readout acts on the ancilla directly.

Everything is expressed in the eigenbasis of the weakly measured operator:
a state is a coefficient vector c_i over eigenvalues s_i, and the combined
"evolve then re-express in the G basis" map is the matrix
C[j, i] = <g_j| U |s_i>.  Both small discrete systems (explicit matrices)
and grid wavefunctions reduce to this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BasisCoverageError, ConfigurationError, GridRangeError,
                     InsufficientStatisticsError)
from .qgrid import SpectralOperator, WaveFunction


# ---------------------------------------------------------------------------
# Ancilla
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AncillaModel:
    """Real Gaussian ancilla profile a(y) with coupling lambda.

    a(y) = (1/(pi sigma^2))^{1/4} exp(-y^2 / (2 sigma^2)); the shifted
    profile a(y - coupling * s) encodes a premeasurement outcome s.
    """

    coupling: float
    width: float
    y_grid: np.ndarray

    def __post_init__(self):
        if self.coupling <= 0 or self.width <= 0:
            raise ConfigurationError("ancilla needs coupling > 0 and width > 0")
        y = np.ascontiguousarray(self.y_grid, dtype=float)
        y.flags.writeable = False
        object.__setattr__(self, "y_grid", y)

    @classmethod
    def gaussian(cls, coupling: float, width: float, s_max: float,
                 n_min: int = 1024) -> "AncillaModel":
        """Outcome grid spanning +-(coupling*s_max + 8*width), >= n_min points.

        The spacing is at most width/8, so narrow ancillas stay resolved; a
        grid that needs more than 2^17 points raises GridRangeError.
        """
        half = coupling * abs(s_max) + 8.0 * width
        n = max(n_min, int(np.ceil(2.0 * half / (width / 8.0))) + 1)
        if n > 1 << 17:
            raise GridRangeError(f"ancilla grid needs {n} points for spacing "
                                 f"<= width/8, more than {1 << 17}")
        y = np.linspace(-half, half, n)
        return cls(coupling, width, y)

    def profile(self, y) -> np.ndarray:
        s2 = self.width ** 2
        return (1.0 / (np.pi * s2)) ** 0.25 * np.exp(-np.asarray(y) ** 2 / (2 * s2))

    def profile_derivative(self, y) -> np.ndarray:
        return -np.asarray(y) / self.width ** 2 * self.profile(y)

    def shifted(self, s_values) -> np.ndarray:
        """Matrix a(y - lambda s_i): shape (n_y, n_s)."""
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        return self.profile(self.y_grid[:, None] - self.coupling * s[None, :])

    def tail_mass_outside(self, s_values) -> float:
        """Largest |a|^2 mass beyond the grid edge over the shifted components."""
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        lo, hi = float(self.y_grid[0]), float(self.y_grid[-1])
        w = self.width  # |a|^2 is N(center, w^2 / 2): a tail is erfc(d / w) / 2
        return max(0.5 * (math.erfc((hi - m) / w) + math.erfc((m - lo) / w))
                   for m in (self.coupling * s).tolist())


def ancilla_moment_checks(ancilla: AncillaModel,
                          s_pair: tuple[float, float] | None = None,
                          tol: float = 1e-6) -> dict:
    """Quadrature check of the moment identities the weak limit relies on.

    integral y a a' dy = -1/2, integral y a' a' dy = 0, integral y a a dy = 0,
    plus normalization; optionally the first moment of a shifted overlap
    a(y - l s_i) a(y - l s_j), whose first-order value is l (s_i + s_j)/2 and
    whose exact Gaussian value carries the overlap factor
    exp(-l^2 (s_i - s_j)^2 / (4 sigma^2)).
    """
    y = ancilla.y_grid
    a = ancilla.profile(y)
    da = ancilla.profile_derivative(y)
    report = {
        "norm": float(np.trapezoid(a * a, y)),
        "y_a_da": float(np.trapezoid(y * a * da, y)),
        "y_da_da": float(np.trapezoid(y * da * da, y)),
        "y_a_a": float(np.trapezoid(y * a * a, y)),
    }
    report["deviations"] = {
        "norm": abs(report["norm"] - 1.0),
        "y_a_da": abs(report["y_a_da"] + 0.5),
        "y_da_da": abs(report["y_da_da"]),
        "y_a_a": abs(report["y_a_a"]),
    }
    if s_pair is not None:
        si, sj = s_pair
        lam, sig = ancilla.coupling, ancilla.width
        ai = ancilla.profile(y - lam * si)
        aj = ancilla.profile(y - lam * sj)
        numeric = float(np.trapezoid(y * ai * aj, y))
        first_order = lam * 0.5 * (si + sj)
        exact = first_order * np.exp(-lam ** 2 * (si - sj) ** 2 / (4 * sig ** 2))
        report["shifted_overlap"] = {
            "numeric": numeric, "first_order": first_order, "exact": float(exact)}
    worst = max(report["deviations"].values())
    if worst > tol:
        raise GridRangeError(
            f"ancilla moment deviation {worst:.2e} > {tol:.0e}: "
            "outcome grid too coarse or too narrow")
    return report


# ---------------------------------------------------------------------------
# System description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoTimeSystem:
    """Pre-selected state plus the S (t1, weak) and G (t2, projective) bases.

    coeffs are the components of psi(t1) in the S eigenbasis; transform is
    C[j, i] = <g_j| U |s_i> with U the evolution from t1 to t2.
    """

    s_values: np.ndarray
    coeffs: np.ndarray
    g_values: np.ndarray
    transform: np.ndarray
    retained_weight: float = 1.0

    def __post_init__(self):
        total = float(np.sum(np.abs(self.coeffs) ** 2))
        if abs(total - 1.0) > 1e-8:
            raise ConfigurationError(
                f"coefficient norm {total} is not 1 within 1e-8")

    @classmethod
    def from_matrices(cls, psi: np.ndarray, s_matrix: np.ndarray,
                      g_matrix: np.ndarray, u_matrix: np.ndarray) -> "TwoTimeSystem":
        """Small discrete system from explicit Hermitian S, G and unitary U."""
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        s_vals, s_vecs = np.linalg.eigh(s_matrix)
        g_vals, g_vecs = np.linalg.eigh(g_matrix)
        coeffs = s_vecs.conj().T @ psi
        transform = g_vecs.conj().T @ u_matrix @ s_vecs
        return cls(s_vals, coeffs, g_vals, transform)

    @classmethod
    def from_wavefunction(cls, psi: WaveFunction, s_op: SpectralOperator,
                          g_op: SpectralOperator, u_matrix: np.ndarray,
                          truncation: float = 1e-12) -> "TwoTimeSystem":
        """Grid system; the S basis is truncated to the dominant coefficients."""
        c_full = s_op.coefficients(psi)
        weight = np.abs(c_full) ** 2
        order = np.argsort(weight)[::-1]
        cum = np.cumsum(weight[order])
        keep_n = int(np.searchsorted(cum, cum[-1] * (1.0 - truncation))) + 1
        kept = np.sort(order[:keep_n])
        retained = float(weight[kept].sum())
        if retained < 1.0 - 1e-8:
            raise BasisCoverageError(
                f"truncated S basis retains only {retained} of the state weight")
        s_vecs = s_op.eigenvectors()[:, kept]
        g_vecs = g_op.eigenvectors()
        coeffs = c_full[kept]
        coeffs = coeffs / np.linalg.norm(coeffs)
        transform = g_vecs.conj().T @ (u_matrix @ s_vecs) * psi.grid.dx
        return cls(s_op.eigenvalues()[kept], coeffs, g_op.eigenvalues(),
                   transform, retained)

    @property
    def s_spread(self) -> float:
        return float(np.ptp(self.s_values))


# ---------------------------------------------------------------------------
# Two-time statistics (exact quadrature)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointOutcomeDistribution:
    """P(y_w, y_k) with a projective (delta-ancilla) second measurement.

    The second outcome is discrete, y_w = coupling * g_j, so the
    distribution is a density in y_k per second outcome j.
    """

    yk_grid: np.ndarray
    g_values: np.ndarray
    coupling: float
    density: np.ndarray  # (n_g, n_yk), >= 0

    @property
    def yw_values(self) -> np.ndarray:
        return self.coupling * self.g_values

    def second_outcome_probabilities(self) -> np.ndarray:
        return np.trapezoid(self.density, self.yk_grid, axis=1)


def _check_tail(system: TwoTimeSystem, ancilla: AncillaModel):
    if ancilla.tail_mass_outside(system.s_values) > 1e-6:
        raise GridRangeError("outcome grid too narrow: > 1e-6 mass outside")


def two_time_joint(system: TwoTimeSystem, ancilla: AncillaModel) -> JointOutcomeDistribution:
    """Exact quadrature joint distribution: no Monte Carlo on this path."""
    _check_tail(system, ancilla)
    shifted = ancilla.shifted(system.s_values)            # (n_y, n_s)
    weighted = system.transform * system.coeffs[None, :]  # (n_g, n_s)
    amp = shifted @ weighted.T                            # (n_y, n_g)
    return JointOutcomeDistribution(ancilla.y_grid.copy(), system.g_values.copy(),
                                    ancilla.coupling, (np.abs(amp) ** 2).T)


def two_time_correlation(joint: JointOutcomeDistribution) -> float:
    """<y(t2) y(t1)> = sum_j (l g_j) integral y_k P_j(y_k) dy_k."""
    first_moments = np.trapezoid(joint.yk_grid[None, :] * joint.density,
                             joint.yk_grid, axis=1)
    return float(np.sum(joint.yw_values * first_moments))


def one_time_mean(system: TwoTimeSystem, ancilla: AncillaModel) -> float:
    """Mean readout integral y P(y) dy, with P(y) = sum_i |c_i|^2 a(y - l s_i)^2."""
    _check_tail(system, ancilla)
    y = ancilla.y_grid
    p = ancilla.shifted(system.s_values) ** 2 @ np.abs(system.coeffs) ** 2
    return float(np.trapezoid(y * p, y))


def ideal_weak_correlation(system: TwoTimeSystem, coupling: float) -> float:
    """Asymptotic (no ancilla) limit l^2 Re <psi| U^dag G U S |psi>."""
    c = system.coeffs
    g_of_s = system.transform.conj().T @ (system.g_values[:, None] * system.transform)
    val = np.vdot(c, g_of_s @ (system.s_values * c))
    return float(coupling ** 2 * np.real(val))


def perturbation_decomposition(system: TwoTimeSystem, ancilla: AncillaModel,
                               y_k: float, y_w: float) -> dict:
    """Magnitudes of the four weak-limit Taylor terms of the collapsed state.

    Term ordering: [U, U S (first order in l), G U (first order in l),
    G U S (second order)].  The crossover outcome where the zeroth- and
    second-order coefficients match for a Gaussian ancilla is y = sigma^2/l.
    """
    lam = ancilla.coupling
    a_k, a_w = float(ancilla.profile(y_k)), float(ancilla.profile(y_w))
    da_k = float(ancilla.profile_derivative(y_k))
    da_w = float(ancilla.profile_derivative(y_w))
    c = system.coeffs
    s, g = system.s_values, system.g_values
    t_mat = system.transform
    u_psi = t_mat @ c                       # in the g basis
    us_psi = t_mat @ (s * c)
    gu_psi = g * u_psi
    gus_psi = g * us_psi
    mags = {
        "unperturbed": abs(a_w * a_k) * float(np.linalg.norm(u_psi)),
        "weak_s": lam * abs(a_w * da_k) * float(np.linalg.norm(us_psi)),
        "weak_g": lam * abs(da_w * a_k) * float(np.linalg.norm(gu_psi)),
        "weak_sg": lam ** 2 * abs(da_w * da_k) * float(np.linalg.norm(gus_psi)),
    }
    ratio = mags["unperturbed"] / mags["weak_sg"] if mags["weak_sg"] else np.inf
    return {"magnitudes": mags, "first_to_fourth_ratio": ratio,
            "crossover_outcome": ancilla.width ** 2 / lam}


# ---------------------------------------------------------------------------
# Operational weak-value estimator
# ---------------------------------------------------------------------------

# Monte Carlo rows per block: the (rows, n_s) and (rows, n_g) work arrays stay
# about 1 MB each, inside a 2 MB per-core L2, whatever n_experiments and
# MC_CHUNK are.  The logged call at measure-mc size (n_s = n_g = 128, 2e5
# experiments, real products, medians of 5 on a 2-core Xeon) took 0.489 s at
# 256 rows, 0.413 s at 512, 0.410 s at 768, 0.418 s at 1024, 0.563 s at 2048
# and 0.557 s at 4096; with one complex product per 4096-row block, 0.581 s.
MC_BLOCK_ROWS = 1024
# Experiments drawn per Monte Carlo chunk; the RNG stream depends on it.
MC_CHUNK = 200_000


@dataclass(frozen=True)
class OperationalEstimate:
    value: float
    stderr: float
    n_selected: int = 0
    post_selection_probability: float = 1.0


def _g_probabilities(prof: np.ndarray, w_re: np.ndarray,
                     w_im: np.ndarray) -> np.ndarray:
    """Normalized G-outcome probabilities of a block of collapsed states.

    prof is the real profile block P = a(y - l s), shape (rows, n_s), and
    w_re, w_im are the parts of W = c[:, None] * C^T.  The G amplitudes
    (P o c) C^T equal P W, so |P W|^2 = (P W_re)^2 + (P W_im)^2 takes two
    real products; it matches the complex product's |.|^2 to rounding.
    """
    pg = prof @ w_re
    pg *= pg
    im = prof @ w_im
    im *= im
    pg += im
    pg /= pg.sum(axis=1, keepdims=True)
    return pg


def operational_weak_value(system: TwoTimeSystem, ancilla: AncillaModel,
                           g_index: int, mode: str = "exact",
                           n_experiments: int = 0, seed: int = 0,
                           log_callback=None) -> OperationalEstimate:
    """Post-selected estimator (1/l) E[y_k | y_g = l g_a].

    exact mode integrates the quadrature joint distribution; monte_carlo
    runs n_experiments sampled measurement chains and post-selects the
    experiments whose projective G outcome is the target eigenvalue
    (discrete outcomes select the exact index; for a position-valued G the
    eigenvalues are grid cells, so the bin is one grid cell wide).
    Each chunk of MC_CHUNK experiments draws its choices, normal deviates
    and uniforms in that order, then runs the chain over blocks of about
    MC_BLOCK_ROWS rows.  The ancilla profile of a block is real, so the G
    probabilities come from two real products with W = c[:, None] * C^T,
    built once per call (see _g_probabilities), and the weight, the norm of
    the collapsed state profile * c, from sqrt(profile^2 @ |c|^2).
    log_callback(first_index, y_k, outcome, hit, weight) is called per block.
    """
    if mode == "exact":
        joint = two_time_joint(system, ancilla)
        p_row = joint.density[g_index]
        den = np.trapezoid(p_row, joint.yk_grid)
        if den <= 0:
            raise InsufficientStatisticsError(
                f"post-selection probability is zero for outcome index {g_index}")
        num = np.trapezoid(joint.yk_grid * p_row, joint.yk_grid)
        return OperationalEstimate(float(num / den / ancilla.coupling), 0.0,
                                   post_selection_probability=float(den))
    if mode != "monte_carlo":
        raise ConfigurationError(f"unknown estimator mode {mode!r}")
    if n_experiments < 1:
        raise ConfigurationError("monte_carlo mode needs n_experiments >= 1")

    rng = np.random.default_rng(seed)
    lam, sig = ancilla.coupling, ancilla.width
    s, c = system.s_values, system.coeffs
    abs_c2 = np.abs(c) ** 2
    probs = abs_c2 / abs_c2.sum()
    w = c[:, None] * system.transform.T                   # (n_s, n_g)
    w_re, w_im = np.ascontiguousarray(w.real), np.ascontiguousarray(w.imag)
    lam_s = lam * s[None, :]
    selected_y = []
    done = 0
    while done < n_experiments:
        m = min(MC_CHUNK, n_experiments - done)
        comp = rng.choice(len(s), size=m, p=probs)
        y_k = lam * s[comp] + rng.normal(0.0, sig / np.sqrt(2.0), size=m)
        u = rng.random(m)
        # Near-equal blocks, so none is a single row: numpy sends a one-row
        # product to gemv, whose rounding differs from gemm's.
        n_blocks = -(-m // MC_BLOCK_ROWS)
        blocks = [(m * b // n_blocks, m * (b + 1) // n_blocks)
                  for b in range(n_blocks)]
        outcome = np.empty(m, dtype=int)
        weight = np.empty(m)
        for lo, hi in blocks:
            prof = ancilla.profile(y_k[lo:hi, None] - lam_s)  # (rows, n_s)
            pg = _g_probabilities(prof, w_re, w_im)            # (rows, n_g)
            outcome[lo:hi] = (np.cumsum(pg, axis=1) < u[lo:hi, None]).sum(axis=1)
            if log_callback is not None:
                weight[lo:hi] = np.sqrt((prof * prof) @ abs_c2)
        hit = outcome == g_index
        # Logged after the products: BLAS worker threads spin-wait between
        # calls, so a log write between two products would keep them busy.
        if log_callback is not None:
            for lo, hi in blocks:
                log_callback(done + lo, y_k[lo:hi], outcome[lo:hi],
                             hit[lo:hi], weight[lo:hi])
        selected_y.append(y_k[hit])
        done += m
    y_sel = np.concatenate(selected_y)
    n_sel = y_sel.size
    p_post = n_sel / n_experiments
    if n_sel < 10:
        raise InsufficientStatisticsError(
            f"only {n_sel} post-selected experiments "
            f"(probability ~ {p_post:.3e}); need at least 10")
    value = float(np.mean(y_sel) / lam)
    stderr = float(np.std(y_sel, ddof=1) / np.sqrt(n_sel) / lam)
    return OperationalEstimate(value, stderr, int(n_sel), float(p_post))
