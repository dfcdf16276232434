import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import erf

from bohmlab import Grid1D, PotentialModel, WaveFunction, measure, \
    momentum_operator, position_operator
from bohmlab.errors import (BasisCoverageError, ConfigurationError,
                            GridRangeError, InsufficientStatisticsError)
from bohmlab.measure import (MC_BLOCK_ROWS, AncillaModel, TwoTimeSystem,
                             _g_probabilities, ancilla_moment_checks,
                             ideal_weak_correlation, one_time_mean,
                             operational_weak_value,
                             perturbation_decomposition, two_time_joint,
                             two_time_correlation)
from bohmlab.qgrid import build_hamiltonian, evolution_operator
from bohmlab.validation import _discrete_system
from bohmlab.weakval import local_energy


def random_system(seed=0, dim=3):
    """Discrete system with random Hermitian S, G and a random unitary U."""
    rng = np.random.default_rng(seed)

    def herm():
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return 0.5 * (m + m.conj().T)

    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u = expm(1j * herm())
    return TwoTimeSystem.from_matrices(psi, herm(), herm(), u)


@pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
def test_validation_unitary_matches_expm(seed):
    # the validation suite's eigh-built unitary against scipy's expm, with its
    # draws replayed in their order: psi, S, G, then the generator
    rng = np.random.default_rng(seed)

    def herm():
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return 0.5 * (m + m.conj().T)

    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    s_op, g_op = herm(), herm()
    want = TwoTimeSystem.from_matrices(psi, s_op, g_op, expm(1j * herm()))
    got = _discrete_system(seed=seed)
    assert np.max(np.abs(got.transform - want.transform)) < 1e-12
    assert np.array_equal(got.coeffs, want.coeffs)
    t = got.transform
    assert np.max(np.abs(t.conj().T @ t - np.eye(3))) < 1e-12


def erf_tail_oracle(ancilla, s_values):
    """The tail mass as 1 - erf, as bohmlab computed it with scipy."""
    centers = ancilla.coupling * np.atleast_1d(np.asarray(s_values, dtype=float))
    sd = ancilla.width / np.sqrt(2.0)
    lo, hi = ancilla.y_grid[0], ancilla.y_grid[-1]
    upper = 0.5 * (1.0 - erf((hi - centers) / (np.sqrt(2) * sd)))
    lower = 0.5 * (1.0 - erf((centers - lo) / (np.sqrt(2) * sd)))
    return upper + lower


def correlation_oracle(system, ancilla):
    """Closed-form two-time correlation from exact Gaussian overlap moments.

    integral y a(y - l s_i) a(y - l s_j) dy
        = l (s_i + s_j)/2 * exp(-l^2 (s_i - s_j)^2 / (4 sigma^2))
    """
    lam, sig = ancilla.coupling, ancilla.width
    s, g, c, t = (system.s_values, system.g_values, system.coeffs,
                  system.transform)
    moment = (lam * 0.5 * (s[:, None] + s[None, :])
              * np.exp(-lam ** 2 * (s[:, None] - s[None, :]) ** 2
                       / (4 * sig ** 2)))
    total = 0.0
    for j in range(len(g)):
        w = t[j] * c                    # amplitudes c_i C_ji
        total += lam * g[j] * np.real(w.conj() @ moment @ w)
    return float(total)


def grid_system(n):
    """Momentum-S, position-G system of a moving packet on an n-point grid."""
    grid = Grid1D(-40.0, 40.0, n)
    psi = WaveFunction.gaussian(grid, width=2.0, momentum=1.0)
    u = evolution_operator(grid, PotentialModel("free"), 1.0)
    system = TwoTimeSystem.from_wavefunction(
        psi, momentum_operator(grid), position_operator(grid), u)
    anc = AncillaModel.gaussian(0.05, 1.0, np.abs(system.s_values).max())
    g_index = int(np.argmax(two_time_joint(system, anc)
                            .second_outcome_probabilities()))
    return system, anc, g_index


def unblocked_monte_carlo(system, ancilla, g_index, n_experiments, seed,
                          chunk, log_callback):
    """Oracle: the Monte Carlo loop over whole chunks, as it was before the
    chain ran in row blocks, with one complex G product per chunk; returns
    (value, stderr, n_selected).  With chunk=4096 each chunk is one of the
    complex 4096-row blocks the chain ran before its G products were real.
    The weight is the chain's sqrt(profile^2 @ |c|^2), so every logged column
    must match bit for bit."""
    rng = np.random.default_rng(seed)
    lam, sig = ancilla.coupling, ancilla.width
    s, c = system.s_values, system.coeffs
    abs_c2 = np.abs(c) ** 2
    probs = abs_c2 / abs_c2.sum()
    selected_y = []
    done = 0
    while done < n_experiments:
        m = min(chunk, n_experiments - done)
        comp = rng.choice(len(s), size=m, p=probs)
        y_k = lam * s[comp] + rng.normal(0.0, sig / np.sqrt(2.0), size=m)
        prof = ancilla.profile(y_k[:, None] - lam * s[None, :])
        evolved = (prof * c[None, :]) @ system.transform.T
        pg = np.abs(evolved) ** 2
        pg /= pg.sum(axis=1, keepdims=True)
        u = rng.random(m)
        outcome = (np.cumsum(pg, axis=1) < u[:, None]).sum(axis=1)
        hit = outcome == g_index
        log_callback(done, y_k, outcome, hit, np.sqrt((prof * prof) @ abs_c2))
        selected_y.append(y_k[hit])
        done += m
    y_sel = np.concatenate(selected_y)
    return (float(np.mean(y_sel) / lam),
            float(np.std(y_sel, ddof=1) / np.sqrt(y_sel.size) / lam),
            int(y_sel.size))


class ExperimentRecorder:
    """log_callback that keeps every (y_k, outcome, hit, weight) in order."""

    def __init__(self):
        self.parts = []

    def __call__(self, first, y_k, outcome, hit, weight):
        assert first == sum(len(p[0]) for p in self.parts)
        self.parts.append((y_k.copy(), outcome.copy(), hit.copy(), weight.copy()))

    def columns(self):
        return [np.concatenate(col) for col in zip(*self.parts)]


class TestAncilla:
    def test_normalized(self):
        anc = AncillaModel.gaussian(coupling=1.0, width=0.5, s_max=2.0)
        a = anc.profile(anc.y_grid)
        assert np.trapezoid(a * a, anc.y_grid) == pytest.approx(1.0, abs=1e-10)

    def test_moment_identities(self):
        anc = AncillaModel.gaussian(coupling=1.0, width=0.7, s_max=3.0)
        report = ancilla_moment_checks(anc, s_pair=(1.0, -2.0), tol=1e-8)
        assert max(report["deviations"].values()) < 1e-8
        so = report["shifted_overlap"]
        assert so["numeric"] == pytest.approx(so["exact"], abs=1e-8)

    def test_coarse_grid_rejected(self):
        anc = AncillaModel(1.0, 0.05, np.linspace(-3, 3, 32))
        with pytest.raises(GridRangeError):
            ancilla_moment_checks(anc)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AncillaModel.gaussian(coupling=-1.0, width=0.5, s_max=1.0)

    def test_unresolvable_grid_raises(self):
        # spacing width/8 over +-(2000 + 8 width) needs 3,200,129 points; a
        # grid capped at 2^17 would integrate the profile to 0.34
        with pytest.raises(GridRangeError, match="3200129 points"):
            AncillaModel.gaussian(coupling=1.0, width=0.01, s_max=2000.0)

    def test_point_limit_is_inclusive(self):
        # half-width 8191.9375 needs exactly 2^17 points at width 1
        anc = AncillaModel.gaussian(coupling=1.0, width=1.0, s_max=8183.9375)
        assert len(anc.y_grid) == 1 << 17
        with pytest.raises(GridRangeError, match="131073 points"):
            AncillaModel.gaussian(coupling=1.0, width=1.0, s_max=8184.0)

    def test_tail_mass(self):
        anc = AncillaModel.gaussian(coupling=1.0, width=0.5, s_max=2.0)
        assert anc.tail_mass_outside([2.0, -2.0]) < 1e-12
        assert anc.tail_mass_outside([100.0]) > 0.9

    def test_tail_mass_matches_erf_oracle(self):
        # the grid spans +-6; centres inside it, at and past its edge, and far
        # beyond, including the stretch where the 1e-6 gate flips
        anc = AncillaModel.gaussian(coupling=1.0, width=0.5, s_max=2.0)
        centers = np.concatenate([np.linspace(-12.0, 12.0, 4801),
                                  [-1e6, -100.0, 100.0, 1e6]])
        want = erf_tail_oracle(anc, centers)
        got = np.array([anc.tail_mass_outside([c]) for c in centers])
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.array_equal(got > 1e-6, want > 1e-6)
        assert (got > 1e-6).any() and (got <= 1e-6).any()
        assert anc.tail_mass_outside(centers) == pytest.approx(want.max(),
                                                               abs=1e-12)

    def test_tail_mass_below_erf_resolution(self):
        # 1 - erf(12) is exactly 0 in double precision; erfc keeps the tail
        anc = AncillaModel.gaussian(coupling=1.0, width=0.5, s_max=2.0)
        assert erf_tail_oracle(anc, [0.0])[0] == 0.0
        tail = anc.tail_mass_outside([0.0])
        assert tail > 0.0
        assert tail == pytest.approx(math.erfc(anc.y_grid[-1] / anc.width),
                                     rel=1e-14)

    @pytest.mark.parametrize("margin", [0.5, 1.5])
    def test_narrow_grid_rejected_by_exact_paths(self, margin):
        # the outermost centre sits `margin` inside the edge: a tail of
        # erfc(margin / 0.5) / 2 > 1e-6; at margin 2.0 it is 7.7e-9
        system = random_system(seed=5)
        edge = float(np.abs(system.s_values).max())
        wide = AncillaModel(1.0, 0.5, np.linspace(-edge - 2.0, edge + 2.0, 2048))
        one_time_mean(system, wide)
        two_time_joint(system, wide)
        anc = AncillaModel(1.0, 0.5, np.linspace(-edge - margin, edge + margin,
                                                 2048))
        with pytest.raises(GridRangeError):
            one_time_mean(system, anc)
        with pytest.raises(GridRangeError):
            two_time_joint(system, anc)


class TestPremeasurement:
    S_VALUES = np.array([-1.0, 0.5, 2.0])
    COEFFS = np.sqrt(np.array([0.5, 0.3, 0.2])) * np.exp(1j * np.array([0.0, 1.0, -0.4]))
    # the one-time mean reads only the S side of the system
    SYSTEM = TwoTimeSystem(S_VALUES, COEFFS, S_VALUES, np.eye(3, dtype=complex))

    @pytest.mark.parametrize("width", [0.03, 0.3, 3.0])
    def test_mean_is_coupling_times_expectation(self, width):
        # apparatus independence of the one-time mean
        lam = 0.8
        anc = AncillaModel.gaussian(lam, width, 2.0)
        expected = lam * float(np.abs(self.COEFFS) ** 2 @ self.S_VALUES)
        assert one_time_mean(self.SYSTEM, anc) == pytest.approx(expected,
                                                                abs=1e-8)

    def test_unnormalized_coeffs_rejected(self):
        s_values = np.array([0.0, 1.0])
        with pytest.raises(ConfigurationError):
            TwoTimeSystem(s_values, np.array([1.0, 1.0], dtype=complex),
                          s_values, np.eye(2, dtype=complex))

    def test_narrow_grid_rejected(self):
        anc = AncillaModel(1.0, 0.5, np.linspace(-0.5, 0.5, 2048))
        with pytest.raises(GridRangeError):
            one_time_mean(self.SYSTEM, anc)


class TestTwoTimeStatistics:
    def test_joint_normalized(self):
        system = random_system(seed=1)
        anc = AncillaModel.gaussian(0.5, 1.0, np.abs(system.s_values).max())
        joint = two_time_joint(system, anc)
        assert joint.second_outcome_probabilities().sum() == \
            pytest.approx(1.0, abs=1e-9)
        assert np.all(joint.density >= 0)

    def test_second_outcome_probabilities_born_rule(self):
        # integrating out the readout restores Born probabilities distorted
        # only by the premeasurement; in the wide-ancilla limit they are
        # the undisturbed |<g_j|U|psi>|^2
        system = random_system(seed=2)
        anc = AncillaModel.gaussian(0.1, 20.0, np.abs(system.s_values).max())
        joint = two_time_joint(system, anc)
        undisturbed = np.abs(system.transform @ system.coeffs) ** 2
        assert np.allclose(joint.second_outcome_probabilities(), undisturbed,
                           atol=1e-4)

    def test_correlation_matches_gaussian_oracle(self):
        system = random_system(seed=3)
        for width in (0.3, 1.0, 5.0):
            anc = AncillaModel.gaussian(0.7, width,
                                        np.abs(system.s_values).max())
            assert two_time_correlation(two_time_joint(system, anc)) == \
                pytest.approx(correlation_oracle(system, anc), abs=1e-9)

    def test_wide_ancilla_reaches_ideal_weak_limit(self):
        system = random_system(seed=4)
        lam = 0.5
        anc = AncillaModel.gaussian(lam, 50.0, np.abs(system.s_values).max())
        corr = two_time_correlation(two_time_joint(system, anc))
        ideal = ideal_weak_correlation(system, lam)
        assert corr == pytest.approx(ideal, abs=2e-4 * max(1.0, abs(ideal)))

    def test_eigenstate_factorization(self):
        # pre-selecting an S eigenstate: correlation = l^2 s_k <G(t2)>
        # no matter how strong the premeasurement is
        base = random_system(seed=5)
        k = 1
        coeffs = np.zeros(3, dtype=complex)
        coeffs[k] = 1.0
        system = TwoTimeSystem(base.s_values, coeffs, base.g_values,
                               base.transform)
        lam = 0.7
        expected = lam ** 2 * system.s_values[k] * float(
            np.abs(system.transform[:, k]) ** 2 @ system.g_values)
        for width in (0.05, 0.5, 5.0):
            anc = AncillaModel.gaussian(lam, width,
                                        np.abs(system.s_values).max())
            corr = two_time_correlation(two_time_joint(system, anc))
            assert corr == pytest.approx(expected, abs=1e-8)

    def test_one_time_mean_apparatus_independent(self):
        system = random_system(seed=6)
        lam = 0.7
        expected = lam * float(np.abs(system.coeffs) ** 2 @ system.s_values)
        for width in (0.05, 0.5, 5.0):
            anc = AncillaModel.gaussian(lam, width,
                                        np.abs(system.s_values).max())
            assert one_time_mean(system, anc) == pytest.approx(expected,
                                                               abs=1e-8)


class TestPerturbationDecomposition:
    def test_crossover_ratio(self):
        system = random_system(seed=7)
        lam, width = 0.2, 1.0
        anc = AncillaModel.gaussian(lam, width, np.abs(system.s_values).max())
        y_star = width ** 2 / lam
        out = perturbation_decomposition(system, anc, y_star, y_star)
        assert out["crossover_outcome"] == pytest.approx(y_star)
        assert 0.25 < out["first_to_fourth_ratio"] < 4.0

    def test_small_outcome_ordering(self):
        # near y = 0 the unperturbed term dominates all corrections
        system = random_system(seed=8)
        anc = AncillaModel.gaussian(0.2, 1.0, np.abs(system.s_values).max())
        out = perturbation_decomposition(system, anc, 0.1, 0.1)
        m = out["magnitudes"]
        assert m["unperturbed"] > m["weak_s"]
        assert m["unperturbed"] > m["weak_g"]
        assert m["unperturbed"] > m["weak_sg"]


class TestOperationalEstimator:
    def test_monte_carlo_matches_exact(self):
        system = random_system(seed=9)
        anc = AncillaModel.gaussian(0.5, 2.0, np.abs(system.s_values).max())
        exact = operational_weak_value(system, anc, g_index=0, mode="exact")
        mc = operational_weak_value(system, anc, g_index=0,
                                    mode="monte_carlo",
                                    n_experiments=200_000, seed=31)
        assert abs(mc.value - exact.value) < 4 * mc.stderr
        assert mc.n_selected > 1000

    def test_monte_carlo_reproducible(self):
        system = random_system(seed=9)
        anc = AncillaModel.gaussian(0.5, 2.0, np.abs(system.s_values).max())
        a = operational_weak_value(system, anc, 1, "monte_carlo",
                                   n_experiments=20_000, seed=5)
        b = operational_weak_value(system, anc, 1, "monte_carlo",
                                   n_experiments=20_000, seed=5)
        assert a.value == b.value and a.n_selected == b.n_selected

    @pytest.mark.parametrize("chunk, n_experiments", [
        (2 * MC_BLOCK_ROWS + 1000, 2 * (2 * MC_BLOCK_ROWS + 1000) + 5000),
        (1000, 2 * MC_BLOCK_ROWS + 77),
        (3 * MC_BLOCK_ROWS, MC_BLOCK_ROWS + 1),
    ], ids=["blocks-within-chunks", "chunks-below-block", "one-row-over"])
    def test_blocked_chain_matches_unblocked(self, chunk, n_experiments,
                                             monkeypatch):
        monkeypatch.setattr(measure, "MC_CHUNK", chunk)
        system, anc, g_index = grid_system(64)
        want = ExperimentRecorder()
        oracle = unblocked_monte_carlo(system, anc, g_index, n_experiments,
                                       seed=17, chunk=chunk, log_callback=want)
        got = ExperimentRecorder()
        est = operational_weak_value(system, anc, g_index, "monte_carlo",
                                     n_experiments=n_experiments, seed=17,
                                     log_callback=got)
        assert (est.value, est.stderr, est.n_selected) == oracle
        assert len(got.parts) >= n_experiments // MC_BLOCK_ROWS
        # a one-row block would go through gemv instead of gemm
        assert min(len(part[0]) for part in got.parts) > 1
        for mine, theirs in zip(got.columns(), want.columns()):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("kind", ["grid", "discrete"])
    def test_weight_is_norm_of_collapsed_state(self, kind):
        # the logged weight, from the real product, against the norm of the
        # complex collapsed state profile * c
        if kind == "grid":
            system, anc, g_index = grid_system(64)
        else:
            system, g_index = random_system(seed=9), 0
            anc = AncillaModel.gaussian(0.5, 2.0, np.abs(system.s_values).max())
        got = ExperimentRecorder()
        operational_weak_value(system, anc, g_index, "monte_carlo",
                               n_experiments=5000, seed=23, log_callback=got)
        y_k, _, _, weight = got.columns()
        collapsed = anc.profile(y_k[:, None] - anc.coupling
                                * system.s_values[None, :]) * system.coeffs
        want = np.linalg.norm(collapsed, axis=1)
        assert np.all(np.abs(weight - want) <= 1e-14 * want)

    def test_monte_carlo_memory_bounded_by_block(self):
        # one (2e5, 128) complex array alone would take 410 MB
        system, anc, g_index = grid_system(128)
        assert len(system.g_values) == 128
        tracemalloc.start()
        try:
            est = operational_weak_value(system, anc, g_index, "monte_carlo",
                                         n_experiments=200_000, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_selected > 0
        assert peak < 64e6

    def test_monte_carlo_peak_below_16mb(self):
        # 1024-row blocks with real G products; 4096-row complex blocks
        # peaked at 27.7 MB here
        system, anc, g_index = grid_system(128)
        tracemalloc.start()
        try:
            operational_weak_value(system, anc, g_index, "monte_carlo",
                                   n_experiments=200_000, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("seed", [3, 19, 41])
    @pytest.mark.parametrize("kind", ["grid", "discrete"])
    def test_real_products_match_complex_blocks(self, kind, seed, monkeypatch):
        monkeypatch.setattr(measure, "MC_CHUNK", 4096)
        if kind == "grid":
            system, anc, g_index = grid_system(128)
        else:
            system, g_index = random_system(seed=9), 0
            anc = AncillaModel.gaussian(0.5, 2.0, np.abs(system.s_values).max())
        want = ExperimentRecorder()
        oracle = unblocked_monte_carlo(system, anc, g_index, 50_000, seed,
                                       chunk=4096, log_callback=want)
        got = ExperimentRecorder()
        est = operational_weak_value(system, anc, g_index, "monte_carlo",
                                     n_experiments=50_000, seed=seed,
                                     log_callback=got)
        assert (est.value, est.stderr, est.n_selected) == oracle
        for mine, theirs in zip(got.columns(), want.columns()):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    @settings(max_examples=40)
    @given(n_s=st.integers(2, 64), n_g=st.integers(2, 128),
           rows=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1),
           coupling=st.floats(0.01, 2.0), width=st.floats(0.2, 3.0))
    def test_g_probabilities_match_complex_product(self, n_s, n_g, rows, seed,
                                                   coupling, width):
        rng = np.random.default_rng(seed)
        n = max(n_s, n_g)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        transform = q[:n_g, :n_s]
        c = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
        c /= np.linalg.norm(c)
        s = rng.normal(scale=3.0, size=n_s)
        anc = AncillaModel.gaussian(coupling, width, np.abs(s).max())
        y = coupling * s[rng.integers(n_s, size=rows)] + \
            rng.normal(scale=width, size=rows)
        prof = anc.profile(y[:, None] - coupling * s[None, :])
        w = c[:, None] * transform.T
        pg = _g_probabilities(prof, np.ascontiguousarray(w.real),
                              np.ascontiguousarray(w.imag))
        want = np.abs((prof * c[None, :]) @ transform.T) ** 2
        want /= want.sum(axis=1, keepdims=True)
        # relative to each row's largest probability: an entry that is a
        # near-cancelling sum keeps only the rounding of its terms
        assert np.all(np.abs(pg - want)
                      <= 1e-13 * want.max(axis=1, keepdims=True))

    def test_impossible_postselection(self):
        # S eigenstate, U = identity: orthogonal G outcomes never occur
        s_vals = np.array([-1.0, 0.0, 1.0])
        system = TwoTimeSystem(s_vals, np.array([1.0, 0.0, 0.0], dtype=complex),
                               s_vals, np.eye(3, dtype=complex))
        anc = AncillaModel.gaussian(0.5, 0.01, 1.0)
        with pytest.raises(InsufficientStatisticsError):
            operational_weak_value(system, anc, g_index=2, mode="exact")
        with pytest.raises(InsufficientStatisticsError):
            operational_weak_value(system, anc, g_index=2, mode="monte_carlo",
                                   n_experiments=1000, seed=1)

    def test_unknown_mode(self):
        system = random_system(seed=9)
        anc = AncillaModel.gaussian(0.5, 2.0, np.abs(system.s_values).max())
        with pytest.raises(ConfigurationError):
            operational_weak_value(system, anc, 0, mode="bayesian")


POTENTIALS = {
    "free": PotentialModel("free"),
    "harmonic": PotentialModel("harmonic", omega=0.3),
    "barrier": PotentialModel("barrier", height=1.0, left=1.0, right=6.0),
}


class TestChainReachesWeakValues:
    """The post-selected chain reads the two-time weak value of x, p and H
    at a position outcome, the paper's local values through the apparatus.

    With A_i = C[g, i] c_i, the exact estimator is sum A_i* A_j
    (s_i + s_j)/2 f_ij / sum A_i* A_j f_ij with the Gaussian overlaps
    f_ij = exp(-l^2 (s_i - s_j)^2 / (4 sigma^2)), and at f = 1 it is the
    weak value Re(sum A s / sum A).  Since 0 <= 1 - f_ij <= q / 4 with
    q = (l s_spread / sigma)^2, the two differ by at most
    q R (max|s| + |weak value|) while q R <= 1, where
    R = (sum |A_i|)^2 / |sum A_i|^2 >= 1 measures the interference at g.
    The ancilla width is set so that q R = 1e-4; the S basis truncation
    (1e-12 of the weight) moves the value by far less than that bound.
    """

    @settings(max_examples=20)
    @given(s_name=st.sampled_from(["position", "momentum", "hamiltonian"]),
           kind=st.sampled_from(sorted(POTENTIALS)),
           n=st.integers(64, 256), center=st.floats(-4.0, 4.0),
           width=st.floats(1.5, 3.0), momentum=st.floats(-1.5, 1.5),
           duration=st.floats(0.5, 2.0))
    def test_exact_chain_reaches_two_time_weak_value(
            self, s_name, kind, n, center, width, momentum, duration):
        grid = Grid1D(-30.0, 30.0, n)
        pot = POTENTIALS[kind]
        psi = WaveFunction.gaussian(grid, center, width, momentum)
        u = evolution_operator(grid, pot, duration)
        s_op = {"position": position_operator(grid),
                "momentum": momentum_operator(grid),
                "hamiltonian": build_hamiltonian(grid, pot)}[s_name]
        system = TwoTimeSystem.from_wavefunction(
            psi, s_op, position_operator(grid), u)
        psi2 = u @ psi.amplitudes
        g_index = int(np.argmax(np.abs(psi2)))
        weak = float(np.real((u @ s_op.apply(psi.amplitudes))[g_index]
                             / psi2[g_index]))
        amps = system.transform[g_index] * system.coeffs
        r = np.abs(amps).sum() ** 2 / abs(amps.sum()) ** 2
        q = 1e-4 / r
        lam, s_max = 0.05, float(np.abs(system.s_values).max())
        anc = AncillaModel.gaussian(lam, lam * system.s_spread / np.sqrt(q),
                                    s_max)

        chain = operational_weak_value(system, anc, g_index, mode="exact").value

        bound = q * r * (s_max + abs(weak))
        assert abs(chain - weak) <= bound
        if s_name == "hamiltonian":  # H commutes with U: E_loc at t2
            e_loc = local_energy(WaveFunction(grid, psi2, time=duration), pot,
                                 grid.x[g_index])
            assert abs(chain - e_loc) <= bound


class TestGridSystems:
    def test_from_wavefunction_joint_normalized(self):
        grid = Grid1D(-20.0, 20.0, 128)
        psi = WaveFunction.gaussian(grid, width=2.0, momentum=1.0)
        u = evolution_operator(grid, PotentialModel("free"), 0.5)
        system = TwoTimeSystem.from_wavefunction(
            psi, momentum_operator(grid), position_operator(grid), u)
        assert system.retained_weight == pytest.approx(1.0, abs=1e-8)
        anc = AncillaModel.gaussian(0.05, 5.0,
                                    np.abs(system.s_values).max(), n_min=512)
        joint = two_time_joint(system, anc)
        assert joint.second_outcome_probabilities().sum() == \
            pytest.approx(1.0, abs=1e-8)

    def test_aggressive_truncation_rejected(self, monkeypatch):
        grid = Grid1D(-20.0, 20.0, 128)
        psi = WaveFunction.gaussian(grid, width=2.0, momentum=1.0)
        u = evolution_operator(grid, PotentialModel("free"), 0.5)
        monkeypatch.setattr(measure, "S_BASIS_TRUNCATION", 0.05)
        with pytest.raises(BasisCoverageError):
            TwoTimeSystem.from_wavefunction(
                psi, momentum_operator(grid), position_operator(grid), u)
