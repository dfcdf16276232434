import tracemalloc

import numpy as np
import pytest

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     build_hamiltonian, evolve_store, expectation,
                     momentum_operator, polar_decompose, position_operator,
                     propagate, window_operator)
from bohmlab.errors import ConfigurationError, DimensionError
from bohmlab.qgrid import DENSE_EIG_LIMIT, evolution_operator


@pytest.fixture
def grid():
    return Grid1D(-20.0, 20.0, 256)


def free_gaussian_width(sigma0, t, hbar=1.0, mass=1.0):
    return sigma0 * np.sqrt(1.0 + (hbar * t / (2 * mass * sigma0 ** 2)) ** 2)


class TestGrid:
    def test_spacing(self, grid):
        assert grid.dx == pytest.approx(40.0 / 256)
        assert len(grid.x) == 256

    def test_too_coarse(self):
        with pytest.raises(ConfigurationError):
            Grid1D(0.0, 1.0, 8)

    def test_inverted(self):
        with pytest.raises(ConfigurationError):
            Grid1D(1.0, -1.0, 64)


class TestHamiltonian:
    def test_free_lowest_eigenvalue_zero(self, grid):
        h = build_hamiltonian(grid, PotentialModel("free"))
        assert abs(h.eigenvalues()[0]) < 1e-12

    def test_harmonic_spectrum(self, grid):
        h = build_hamiltonian(grid, PotentialModel("harmonic", omega=1.0))
        expected = np.arange(6) + 0.5
        assert np.allclose(h.eigenvalues()[:6], expected, atol=1e-4)

    def test_barrier_far_from_packet(self, grid):
        pot = PotentialModel("barrier", height=5.0, left=10.0, right=12.0)
        psi = WaveFunction.gaussian(grid, center=-10.0, width=1.0)
        h_bar = build_hamiltonian(grid, pot)
        h_free = build_hamiltonian(grid, PotentialModel("free"))
        assert expectation(h_bar, psi) == pytest.approx(
            expectation(h_free, psi), abs=1e-8)

    def test_barrier_too_coarse(self):
        g = Grid1D(-20.0, 20.0, 64)
        pot = PotentialModel("barrier", height=5.0, left=0.0, right=1.0)
        with pytest.raises(ConfigurationError):
            build_hamiltonian(g, pot)

    def test_hermiticity_on_random_vectors(self, grid):
        h = build_hamiltonian(grid, PotentialModel("harmonic", omega=0.7))
        rng = np.random.default_rng(3)
        for _ in range(3):
            phi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
            psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
            lhs = np.vdot(phi, h.apply(psi)) * grid.dx
            rhs = np.conj(np.vdot(psi, h.apply(phi)) * grid.dx)
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_spectral_consistency(self, grid):
        h = build_hamiltonian(grid, PotentialModel("harmonic", omega=1.0))
        rng = np.random.default_rng(7)
        v = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        direct = h.apply(v)
        via_eigs = h.synthesize(h.eigenvalues() * h.coefficients(v))
        assert np.allclose(direct, via_eigs, atol=1e-8 * np.abs(direct).max())

    def test_eigenvector_orthonormality(self, grid):
        h = build_hamiltonian(grid, PotentialModel("harmonic", omega=1.0))
        vecs = h.eigenvectors()
        gram = vecs.conj().T @ vecs * grid.dx
        assert np.allclose(gram, np.eye(grid.n), atol=1e-8)


class TestExpectation:
    def test_eigenstate(self, grid):
        h = build_hamiltonian(grid, PotentialModel("harmonic", omega=1.0))
        psi = WaveFunction(grid, h.eigenvectors()[:, 3])
        assert expectation(h, psi) == pytest.approx(h.eigenvalues()[3], abs=1e-10)

    def test_momentum_on_plane_wave(self, grid):
        k = grid.k[5]
        psi = WaveFunction.plane_wave(grid, k)
        p = momentum_operator(grid)
        assert expectation(p, psi) == pytest.approx(k, abs=1e-10)

    def test_free_gaussian_energy(self, grid):
        # sympy oracle: <T> = hbar^2/(8 m sigma0^2) for psi ~ exp(-x^2/(4 s^2))
        sigma0 = 1.3
        psi = WaveFunction.gaussian(grid, width=sigma0)
        h = build_hamiltonian(grid, PotentialModel("free"))
        assert expectation(h, psi) == pytest.approx(1 / (8 * sigma0 ** 2), abs=1e-10)

    def test_grid_mismatch(self, grid):
        other = Grid1D(-10.0, 10.0, 256)
        psi = WaveFunction.gaussian(other)
        p = momentum_operator(grid)
        with pytest.raises(DimensionError):
            expectation(p, psi)


class TestPropagation:
    def test_free_gaussian_width(self, grid):
        sigma0, t = 1.0, 2.0
        psi = WaveFunction.gaussian(grid, width=sigma0)
        out = propagate(psi, PotentialModel("free"), PropagatorConfig(0.002), t)
        width = np.sqrt(np.sum(grid.x ** 2 * out.density()) * grid.dx)
        assert width == pytest.approx(free_gaussian_width(sigma0, t), abs=1e-4)

    def test_stationary_state(self, grid):
        # dense-H eigenvectors are exact eigenvectors of the exact step
        h = build_hamiltonian(grid, PotentialModel("harmonic", omega=1.0))
        psi = WaveFunction(grid, h.eigenvectors()[:, 2])
        out = propagate(psi, PotentialModel("harmonic", omega=1.0),
                        PropagatorConfig(0.01, method="exact"), 1.0)
        assert np.allclose(out.density(), psi.density(), atol=1e-10)

    def test_zero_duration_identity(self, grid):
        psi = WaveFunction.gaussian(grid)
        out = propagate(psi, PotentialModel("free"), PropagatorConfig(0.01), 0.0)
        assert out is psi

    def test_unitarity_per_step(self, grid):
        psi = WaveFunction.gaussian(grid, momentum=2.0)
        pot = PotentialModel("harmonic", omega=1.0)
        ev = evolve_store(psi, pot, PropagatorConfig(0.005, steps_per_output=20), 1.0)
        for i in range(len(ev.times)):
            assert abs(ev.psi(i).norm() - 1.0) < 1e-10

    @pytest.mark.parametrize("method", ["split-operator", "exact"])
    def test_energy_conservation(self, grid, method):
        # the exact step commutes with a static H, conserving <H> exactly;
        # the split-operator drift stays within tolerance at this dt.
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction.gaussian(grid, center=1.0)
        h = build_hamiltonian(grid, pot)
        e0 = expectation(h, psi)
        dt = 0.0005 if method == "split-operator" else 0.01
        tol = 1e-7 if method == "split-operator" else 1e-10
        out = propagate(psi, pot, PropagatorConfig(dt, method=method), 1.0)
        assert expectation(h, out) == pytest.approx(e0, abs=tol)

    @pytest.mark.parametrize("method", PropagatorConfig.METHODS)
    def test_time_reversal(self, grid, method):
        # both steps are exactly inverted by the same step with -dt
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction.gaussian(grid, center=2.0, momentum=1.0)
        cfg = PropagatorConfig(0.01, method=method)
        there = propagate(psi, pot, cfg, 1.0)
        back = propagate(there, pot, cfg, -1.0)
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-8)

    def test_exact_rejects_drive(self, grid):
        psi = WaveFunction.gaussian(grid)
        with pytest.raises(ConfigurationError):
            propagate(psi, PotentialModel("drive", amplitude=0.3),
                      PropagatorConfig(0.01, method="exact"), 0.1)

    def test_exact_size_guard_before_dense_allocation(self):
        n = DENSE_EIG_LIMIT + 1
        psi = WaveFunction.gaussian(Grid1D(-20.0, 20.0, n))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="limited to n <="):
                propagate(psi, PotentialModel("free"),
                          PropagatorConfig(0.01, method="exact"), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8  # less than one real n x n array

    def test_driven_potential(self, grid):
        pot = PotentialModel("drive", amplitude=0.3)
        psi = WaveFunction.gaussian(grid)
        out = propagate(psi, pot, PropagatorConfig(0.002), 1.0)
        # constant force f = q E0 displaces the packet by f t^2 / 2m
        mean_x = np.sum(grid.x * out.density()) * grid.dx
        assert mean_x == pytest.approx(0.15, abs=1e-5)

    def test_evolution_operator_matches_propagate(self, grid):
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction.gaussian(grid, center=1.0)
        u = evolution_operator(grid, pot, 0.7)
        direct = propagate(psi, pot,
                           PropagatorConfig(0.001, method="exact"), 0.7)
        assert np.allclose(u @ psi.amplitudes, direct.amplitudes, atol=1e-5)


class TestPolarDecomposition:
    def test_plane_wave(self, grid):
        k = grid.k[4]
        psi = WaveFunction.plane_wave(grid, k)
        r, s, mask = polar_decompose(psi)
        assert not mask.any()
        assert np.allclose(r, r[0])
        slope = np.diff(s) / grid.dx
        assert np.allclose(slope, k, atol=1e-8)

    def test_real_gaussian_zero_phase(self, grid):
        psi = WaveFunction.gaussian(grid)
        _, s, mask = polar_decompose(psi)
        assert np.allclose(s[~mask], 0.0, atol=1e-12)

    def test_node_flagging_and_reconstruction(self, grid):
        a = WaveFunction.gaussian(grid, center=-3.0).amplitudes
        b = WaveFunction.gaussian(grid, center=3.0).amplitudes
        psi = WaveFunction(grid, a - b).normalize()
        r, s, mask = polar_decompose(psi)
        assert mask.any()  # odd superposition has a node at the center
        recon = r * np.exp(1j * s)
        assert np.allclose(recon[~mask], psi.amplitudes[~mask], atol=1e-10)


class TestWindowOperator:
    def test_weights_are_indicator_away_from_edges(self, grid):
        w = window_operator(grid, -1.0, 1.0)
        weights = w.eigenvalues()
        inside = (grid.x > -1 + grid.dx) & (grid.x < 1 - grid.dx)
        outside = (grid.x < -1 - grid.dx) | (grid.x > 1 + grid.dx)
        assert np.all(weights[inside] == 1.0)
        assert np.all(weights[outside] == 0.0)
        assert np.all((weights >= 0) & (weights <= 1))

    def test_expectation_is_region_mass(self, grid):
        # fractional edge cells: <window> matches the erf integral to O(dx^2)
        from scipy.special import erf
        sigma = 1.3
        w = window_operator(grid, -1.0, 1.0)
        psi = WaveFunction.gaussian(grid, width=sigma)
        exact = float(erf(1.0 / (np.sqrt(2) * sigma)))
        assert expectation(w, psi) == pytest.approx(exact, abs=1e-4)
