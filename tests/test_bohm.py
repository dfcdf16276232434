import json
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     bohm, evolve_store)
from bohmlab.bohm import (_clamp_nodes, _periodic_spline, equivariance_l1,
                          grid_velocity, integrate_trajectories,
                          quantum_potential, sample_initial_positions,
                          velocity_field)
from bohmlab.errors import ConfigurationError, NodeError
from bohmlab.harness import parse_config, run


@pytest.fixture
def grid():
    return Grid1D(-25.0, 25.0, 512)


def spread(sigma0, t):
    return sigma0 * np.sqrt(1.0 + (t / (2 * sigma0 ** 2)) ** 2)


class TestVelocity:
    def test_plane_wave(self, grid):
        k = grid.k[6]
        psi = WaveFunction.plane_wave(grid, k)
        assert np.allclose(grid_velocity(psi), k, atol=1e-9)

    def test_real_state_is_static(self, grid):
        # only meaningful where density is appreciable; the deep tails are
        # dominated by FFT round-off amplified by the small denominator
        psi = WaveFunction.gaussian(grid, width=2.0)
        body = psi.density() > 1e-8
        assert np.allclose(grid_velocity(psi)[body], 0.0, atol=1e-8)

    def test_spreading_gaussian_profile(self, grid):
        # v(x,t) = x sigma'(t)/sigma(t) for the free Gaussian
        sigma0, t = 1.0, 1.5
        psi0 = WaveFunction.gaussian(grid, width=sigma0)
        ev = evolve_store(psi0, PotentialModel("free"),
                          PropagatorConfig(0.005, steps_per_output=30), t)
        psi = ev.psi(len(ev.times) - 1)
        st = spread(sigma0, t)
        rate = t / (4 * sigma0 ** 4) / (1 + (t / (2 * sigma0 ** 2)) ** 2)
        xs = np.array([-2.0, -0.5, 0.7, 1.8])
        assert np.allclose(velocity_field(psi, xs), xs * rate, atol=1e-5)
        assert st == pytest.approx(spread(sigma0, t))  # sanity on the oracle

    def test_mass_scaling(self, grid):
        psi = WaveFunction.gaussian(grid, momentum=1.0)
        assert np.allclose(grid_velocity(psi, mass=2.0),
                           0.5 * grid_velocity(psi), atol=1e-12)

    def test_node_raise_and_clamp(self, grid):
        a = WaveFunction.gaussian(grid, center=-3.0).amplitudes
        b = WaveFunction.gaussian(grid, center=3.0).amplitudes
        psi = WaveFunction(grid, a - b).normalize()
        with pytest.raises(NodeError):
            velocity_field(psi, 0.0)
        assert np.isfinite(velocity_field(psi, 0.0, on_node="clamp"))

    def test_outside_domain(self, grid):
        psi = WaveFunction.gaussian(grid)
        with pytest.raises(ConfigurationError):
            velocity_field(psi, 100.0)

    def test_decaying_tail_is_silent(self):
        # the tails underflow to exact zeros; the masked division must not warn
        wide = Grid1D(-60.0, 60.0, 2048)
        psi = WaveFunction.gaussian(wide, center=-3.0, width=1.0, momentum=1.0)
        assert np.any(psi.amplitudes == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = grid_velocity(psi)
        assert np.all(np.isfinite(v))


def _scipy_periodic(grid, values):
    x = np.append(grid.x, grid.x_max)
    y = np.append(values, values[0])
    if np.iscomplexobj(values):
        re = CubicSpline(x, y.real, bc_type="periodic")
        im = CubicSpline(x, y.imag, bc_type="periodic")
        return lambda q: re(q) + 1j * im(q)
    return CubicSpline(x, y, bc_type="periodic")


class TestPeriodicSpline:
    @pytest.fixture
    def values(self, grid):
        rng = np.random.default_rng(3)
        psi = WaveFunction.gaussian(grid, center=2.0, width=3.0, momentum=1.5)
        return {"real": np.cumsum(rng.normal(size=grid.n)),
                "complex": psi.amplitudes}

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_scipy_periodic(self, grid, values, kind):
        y = values[kind]
        rng = np.random.default_rng(4)
        xq = np.concatenate([
            rng.uniform(grid.x_min, grid.x_max, 500), grid.x,
            [grid.x_min, grid.x_max, grid.x_max + 3.7, grid.x_min - 5.2,
             grid.x_max + 2 * grid.length + 0.1]])
        got = _periodic_spline(grid, y)(xq)
        want = _scipy_periodic(grid, y)(xq)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("x", [0.3, -25.0, 25.0, 31.0])
    def test_scalar_query(self, grid, values, kind, x):
        y = values[kind]
        got = _periodic_spline(grid, y)(x)
        assert np.ndim(got) == 0
        assert got == pytest.approx(_scipy_periodic(grid, y)(x),
                                    abs=1e-12 * np.max(np.abs(y)))

    def test_interpolates_knots(self, grid, values):
        y = values["real"]
        assert np.allclose(_periodic_spline(grid, y)(grid.x), y,
                           rtol=0, atol=1e-13 * np.max(np.abs(y)))


def _argmin_clamp(values, mask):
    """Nearest-unmasked clamp by an n x n_good distance matrix (reference)."""
    if not mask.any():
        return values
    if mask.all():
        raise NodeError("every grid point is a node")
    idx = np.arange(len(values))
    good = idx[~mask]
    nearest = good[np.argmin(np.abs(idx[:, None] - good[None, :]), axis=1)]
    out = values.copy()
    out[mask] = values[nearest[mask]]
    return out


class TestClampNodes:
    @pytest.mark.parametrize("pattern", [
        "..x..",      # single interior node
        ".xx.",       # tie between the two neighbours
        "xxx..x.",    # leading run
        "..x.xxxx",   # trailing run
        "x.x.x.x.",   # alternating
        "xx.xx",      # one survivor
        ".....",      # nothing to clamp
    ])
    def test_matches_argmin(self, pattern):
        mask = np.array([c == "x" for c in pattern])
        values = np.arange(1.0, len(mask) + 1)
        assert np.array_equal(_clamp_nodes(values.copy(), mask),
                              _argmin_clamp(values, mask))

    def test_random_masks(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            mask = rng.random(n) < rng.random()
            if mask.all():
                continue
            values = rng.normal(size=n)
            assert np.array_equal(_clamp_nodes(values.copy(), mask),
                                  _argmin_clamp(values, mask))

    def test_all_nodes_raise(self):
        with pytest.raises(NodeError):
            _clamp_nodes(np.zeros(8), np.ones(8, dtype=bool))


class TestQuantumPotential:
    def test_gaussian_center(self, grid):
        # Q(0) = hbar^2/(4 m sigma^2) for psi ~ exp(-x^2/(4 sigma^2))
        sigma = 1.4
        psi = WaveFunction.gaussian(grid, width=sigma)
        assert quantum_potential(psi, 0.0) == pytest.approx(
            1 / (4 * sigma ** 2), abs=1e-9)

    def test_gaussian_profile(self, grid):
        sigma = 1.0
        psi = WaveFunction.gaussian(grid, width=sigma)
        xs = np.linspace(-3, 3, 11)
        expected = 1 / (4 * sigma ** 2) - xs ** 2 / (8 * sigma ** 4)
        assert np.allclose(quantum_potential(psi, xs), expected, atol=1e-7)

    def test_plane_wave_zero(self, grid):
        psi = WaveFunction.plane_wave(grid, grid.k[3])
        assert np.allclose(quantum_potential(psi), 0.0, atol=1e-9)

    def test_mean_q_equals_kinetic_for_real_state(self, grid):
        # <Q> over |psi|^2 equals <p^2>/2m when the phase is flat
        sigma = 1.2
        psi = WaveFunction.gaussian(grid, width=sigma)
        mean_q = np.sum(psi.density() * quantum_potential(psi)) * grid.dx
        assert mean_q == pytest.approx(1 / (8 * sigma ** 2), abs=1e-9)


class TestSampling:
    def test_reproducible(self, grid):
        psi = WaveFunction.gaussian(grid)
        a = sample_initial_positions(psi, 100, seed=42)
        b = sample_initial_positions(psi, 100, seed=42)
        assert np.array_equal(a, b)

    def test_moments(self, grid):
        sigma = 1.5
        psi = WaveFunction.gaussian(grid, center=2.0, width=sigma)
        xs = sample_initial_positions(psi, 200_000, seed=1)
        assert xs.mean() == pytest.approx(2.0, abs=0.02)
        assert xs.std() == pytest.approx(sigma, abs=0.02)

    def test_bimodal_weights(self, grid):
        a = WaveFunction.gaussian(grid, center=-6.0).amplitudes
        b = WaveFunction.gaussian(grid, center=6.0).amplitudes
        psi = WaveFunction(grid, np.sqrt(0.75) * a + np.sqrt(0.25) * b)
        psi = psi.normalize()
        xs = sample_initial_positions(psi, 100_000, seed=2)
        assert np.mean(xs < 0) == pytest.approx(0.75, abs=0.01)


class TestTrajectories:
    @pytest.fixture
    def free_evolution(self, grid):
        psi = WaveFunction.gaussian(grid, width=1.0)
        return evolve_store(psi, PotentialModel("free"),
                            PropagatorConfig(0.005, steps_per_output=20), 2.0)

    def test_free_gaussian_scaling_law(self, free_evolution):
        # exact solution x(t) = x0 sigma(t)/sigma0
        starts = np.array([-1.5, -0.5, 0.5, 1.0, 2.0])
        ens = integrate_trajectories(free_evolution, starts, substeps=4)
        expected = starts[None, :] * spread(1.0, ens.times)[:, None]
        assert np.max(np.abs(ens.positions - expected)) < 1e-3

    def test_non_crossing(self, free_evolution):
        starts = np.linspace(-2.5, 2.5, 40)
        ens = integrate_trajectories(free_evolution, starts)
        assert np.all(np.diff(ens.positions, axis=1) > 0)

    def test_equivariance(self, free_evolution):
        psi0 = free_evolution.psi(0)
        starts = sample_initial_positions(psi0, 10_000, seed=7)
        ens = integrate_trajectories(free_evolution, starts)
        last = len(free_evolution.times) - 1
        assert equivariance_l1(free_evolution, ens, last) < 0.05

    def test_threaded_matches_serial(self, free_evolution):
        starts = np.linspace(-2, 2, 17)
        serial = integrate_trajectories(free_evolution, starts, threads=1)
        threaded = integrate_trajectories(free_evolution, starts, threads=4)
        assert np.array_equal(serial.positions, threaded.positions)

    def test_psd_task_builds_field_once(self, tmp_path, monkeypatch):
        builds = []

        class CountingField(bohm.VelocityField):
            def __init__(self, evolution):
                builds.append(evolution)
                super().__init__(evolution)

        monkeypatch.setattr(bohm, "VelocityField", CountingField)
        cfg = parse_config(json.dumps({
            "grid": {"n": 128, "x_min": -20.0, "x_max": 20.0},
            "ensemble": {"n": 25, "seed": 7},
            "propagator": {"dt": 0.01, "steps_per_output": 10},
            "task": {"name": "psd", "duration": 1.0, "tau_max": 0.3}}))
        run(cfg, out_dir=str(tmp_path))
        assert len(builds) == 1

    def test_start_outside_domain(self, free_evolution):
        with pytest.raises(ConfigurationError):
            integrate_trajectories(free_evolution, np.array([40.0]))

    def test_stationary_state_trajectories_static(self, grid):
        # in an energy eigenstate the velocity field vanishes
        from bohmlab import build_hamiltonian
        pot = PotentialModel("harmonic", omega=1.0)
        h = build_hamiltonian(grid, pot)
        psi = WaveFunction(grid, h.eigenvectors()[:, 0])
        ev = evolve_store(psi, pot, PropagatorConfig(
            0.01, method="exact", steps_per_output=10), 1.0)
        starts = np.array([-1.0, 0.3, 0.9])
        ens = integrate_trajectories(ev, starts)
        assert np.max(np.abs(ens.positions - starts[None, :])) < 1e-6
