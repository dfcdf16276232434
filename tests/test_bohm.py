import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     bohm, evolve_store)
from bohmlab.bohm import (_clamp_nodes, _hermite_coefficients, _hermite_eval,
                          _periodic_spline, _spectral_derivative,
                          _spline_slopes, equivariance_l1,
                          grid_velocity, integrate_trajectories,
                          quantum_potential, sample_initial_positions,
                          velocity_field)
from bohmlab.errors import ConfigurationError, NodeError
from bohmlab.harness import parse_config, run
from bohmlab.qgrid import Evolution, node_mask


@pytest.fixture
def grid():
    return Grid1D(-25.0, 25.0, 512)


def spread(sigma0, t):
    return sigma0 * np.sqrt(1.0 + (t / (2 * sigma0 ** 2)) ** 2)


class TestVelocity:
    def test_plane_wave(self, grid):
        k = grid.k[6]
        psi = WaveFunction(grid, np.exp(1j * k * grid.x)).normalize()
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
        assert np.all(np.isfinite(grid_velocity(psi)))

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

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_wraps_outside_domain_bit_equal(self, grid, values, kind):
        # dx = 50/512 and the offsets are sixteenths of a cell, so every
        # shifted position and its cell fraction are exact: the images one
        # period left of x_min, from x_max on, and two periods right must
        # evaluate bit for bit as their originals
        y = values[kind]
        coef = _hermite_coefficients(y, _spline_slopes(grid, y), grid.dx)
        cells = np.arange(grid.n)
        inside = grid.x_min + grid.dx * (cells + cells % 16 / 16)
        want = _hermite_eval(coef, grid, inside)
        for shift in (-grid.length, grid.length, 2 * grid.length):
            assert np.array_equal(_hermite_eval(coef, grid, inside + shift), want)


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
        k = grid.k[3]
        psi = WaveFunction(grid, np.exp(1j * k * grid.x)).normalize()
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


def _two_gaussian_frames(grid, nt, c1, c2, w1, w2, k, boost, node):
    """nt frames of a two-Gaussian superposition, boosted by boost and
    rescaled per frame, so that every frame has its own maximum.

    With node, the second packet cancels the first at the grid point nearest
    the midpoint of the centres, so every frame has an interior node there.
    """
    x = grid.x
    g1 = np.exp(-((x - c1) ** 2) / (4.0 * w1 ** 2) + 1j * k * x)
    g2 = np.exp(-((x - c2) ** 2) / (4.0 * w2 ** 2) - 1j * k * x)
    m = int(np.argmin(np.abs(x - 0.5 * (c1 + c2))))
    amp = g1 - g1[m] / g2[m] * g2 if node else g1 + 0.5 * g2
    j = np.arange(nt)[:, None]
    return amp[None, :] * (1.0 + 0.5 * j) * np.exp(1j * boost * j * x)


class TestVelocityFieldBuild:
    """The block build gives each frame's row of a frame-by-frame build."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(64, 512), nt=st.integers(2, 70),
           c1=st.floats(-8.0, -1.0), c2=st.floats(1.0, 8.0),
           w1=st.floats(0.3, 2.0), w2=st.floats(0.3, 2.0),
           k=st.floats(-2.0, 2.0), boost=st.floats(-0.2, 0.2),
           mass=st.floats(0.5, 3.0), node=st.booleans())
    def test_rows_match_single_frame_build(self, n, nt, c1, c2, w1, w2, k,
                                           boost, mass, node):
        grid = Grid1D(-20.0, 20.0, n)
        frames = _two_gaussian_frames(grid, nt, c1, c2, w1, w2, k, boost, node)
        ev = Evolution(grid, 0.1 * np.arange(nt), frames,
                       PotentialModel("free"), mass=mass)
        field = bohm.VelocityField(ev)
        masks = node_mask(frames)
        for j in range(nt):
            v = grid_velocity(ev.psi(j), mass)
            assert np.array_equal(field.values[j], v)
            assert np.array_equal(field.slopes[j], _spline_slopes(grid, v))
            assert np.array_equal(masks[j], node_mask(frames[j]))
            # the unclamped velocity; node entries are overwritten by the clamp
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                raw = 1.0 / mass * np.imag(_spectral_derivative(grid, frames[j])
                                           / frames[j])
            assert np.array_equal(v, _argmin_clamp(raw, masks[j]))
        if node:
            assert masks[:, n // 4:3 * n // 4].any(axis=1).all()


def _reference_velocity(vel, x, t):
    """The field at (x, t): blend the two frames' knots, then build and
    evaluate one Hermite table (the evaluation before tables were shared)."""
    pos = (t - vel.times[0]) / vel.frame_dt
    lo = int(np.clip(np.floor(pos), 0, len(vel.times) - 2))
    w = float(np.clip(pos - lo, 0.0, 1.0))
    values, slopes = vel.values[lo], vel.slopes[lo]
    if w != 0.0:
        values = (1.0 - w) * values + w * vel.values[lo + 1]
        slopes = (1.0 - w) * slopes + w * vel.slopes[lo + 1]
    return _hermite_eval(_hermite_coefficients(values, slopes, vel.grid.dx),
                         vel.grid, x)


def _reference_rk4(evolution, starts, substeps):
    """RK4 with four independent field evaluations per substep."""
    grid, times, vel = evolution.grid, evolution.times, evolution.velocity
    h = evolution.frame_dt / substeps
    pos = np.empty((len(times), len(starts)))
    pos[0] = starts
    trunc = np.zeros(len(starts), dtype=bool)
    x = starts.copy()
    for j in range(len(times) - 1):
        t = times[j]
        for _ in range(substeps):
            k1 = _reference_velocity(vel, x, t)
            k2 = _reference_velocity(vel, x + 0.5 * h * k1, t + 0.5 * h)
            k3 = _reference_velocity(vel, x + 0.5 * h * k2, t + 0.5 * h)
            k4 = _reference_velocity(vel, x + h * k3, t + h)
            x_new = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            out = ~grid.contains(x_new)
            trunc |= out
            x = np.where(out, x, x_new)
            t += h
        pos[j + 1] = x
    return pos, trunc


@pytest.fixture(scope="module")
def leaving_evolution():
    # a fast packet near the right edge: part of the ensemble leaves
    grid = Grid1D(-10.0, 10.0, 256)
    psi = WaveFunction.gaussian(grid, center=5.0, width=1.0, momentum=6.0)
    return evolve_store(psi, PotentialModel("free"),
                        PropagatorConfig(0.005, steps_per_output=10), 0.6)


@pytest.fixture(scope="module")
def node_evolution():
    # an odd superposition: a node at x = 0 in the initial state
    grid = Grid1D(-25.0, 25.0, 512)
    a = WaveFunction.gaussian(grid, center=-3.0).amplitudes
    b = WaveFunction.gaussian(grid, center=3.0).amplitudes
    psi = WaveFunction(grid, a - b).normalize()
    return evolve_store(psi, PotentialModel("harmonic", omega=0.5),
                        PropagatorConfig(0.005, steps_per_output=10), 0.5)


class TestRk4Stages:
    @pytest.mark.parametrize("substeps", [1, 3])
    def test_leaving_trajectories_bit_identical(self, leaving_evolution,
                                                substeps):
        ev = leaving_evolution
        starts = sample_initial_positions(ev.psi(0), 300, seed=5)
        ens = integrate_trajectories(ev, starts, substeps=substeps)
        pos, trunc = _reference_rk4(ev, starts, substeps)
        assert 0 < np.count_nonzero(trunc) < len(starts)
        assert np.array_equal(ens.positions, pos)
        assert np.array_equal(ens.truncated, trunc)

    @pytest.mark.parametrize("substeps", [1, 3])
    def test_node_state_bit_identical(self, node_evolution, substeps):
        ev = node_evolution
        grid = ev.grid
        assert node_mask(ev.frames[0])[grid.n // 2]
        starts = np.concatenate([
            sample_initial_positions(ev.psi(0), 300, seed=6),
            [-1e-3, 1e-3, grid.x[grid.n // 2 + 1]]])
        ens = integrate_trajectories(ev, starts, substeps=substeps)
        pos, trunc = _reference_rk4(ev, starts, substeps)
        assert np.array_equal(ens.positions, pos)
        assert np.array_equal(ens.truncated, trunc)

    @pytest.mark.parametrize("substeps", [1, 2, 4])
    def test_hermite_builds_bounded(self, leaving_evolution, monkeypatch,
                                    substeps):
        ev = leaving_evolution
        ev.velocity  # the field build itself builds no Hermite table
        builds = []
        build = bohm._hermite_coefficients

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(bohm, "_hermite_coefficients", counting)
        integrate_trajectories(ev, np.linspace(3.0, 7.0, 11), substeps=substeps)
        nt = len(ev.times)
        assert len(builds) <= (nt - 1) * (2 * substeps + 1)


class TestTrajectories:
    @pytest.fixture
    def free_evolution(self, grid):
        psi = WaveFunction.gaussian(grid, width=1.0)
        return evolve_store(psi, PotentialModel("free"),
                            PropagatorConfig(0.005, steps_per_output=20), 2.0)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(sigma0=st.floats(0.5, 2.0),
           units=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=8),
           substeps=st.sampled_from([1, 2, 4]))
    def test_free_gaussian_scaling_law(self, sigma0, units, substeps):
        # exact solution x(t) = x0 sigma(t)/sigma0.  The error is the
        # linear-in-t frame blend's, second order in the frame spacing over
        # the spreading time 2 sigma0^2: measured over sigma0 in [0.5, 2] and
        # starts within 2.5 sigma0, error/sigma(t) <= 0.235 (dt_f/2 sigma0^2)^2
        psi = WaveFunction.gaussian(Grid1D(-25.0, 25.0, 512), width=sigma0)
        ev = evolve_store(psi, PotentialModel("free"),
                          PropagatorConfig(0.005, steps_per_output=20), 2.0)
        starts = sigma0 * np.array(units)
        ens = integrate_trajectories(ev, starts, substeps=substeps)
        sigma = spread(sigma0, ens.times)[:, None]
        err = np.abs(ens.positions - starts[None, :] * sigma / sigma0) / sigma
        assert np.max(err) < 0.3 * (ev.frame_dt / (2 * sigma0 ** 2)) ** 2

    @pytest.fixture(scope="class")
    def coherent_evolution(self):
        # sigma = 1 is the ground-state width at omega = 0.5: a coherent state
        grid = Grid1D(-20.0, 20.0, 256)
        psi = WaveFunction.gaussian(grid, center=-3.0, width=1.0, momentum=1.0)
        return evolve_store(psi, PotentialModel("harmonic", omega=0.5),
                            PropagatorConfig(0.0025, steps_per_output=8), 5.0)

    @pytest.mark.parametrize("substeps", [1, 2, 4])
    def test_coherent_state_translates_rigidly(self, coherent_evolution,
                                               substeps):
        # exact law x(t) = x0 + X(t) - X(0), X(t) = -3 cos(t/2) + 2 sin(t/2)
        ev = coherent_evolution
        starts = sample_initial_positions(ev.psi(0), 500, seed=3)
        ens = integrate_trajectories(ev, starts, substeps=substeps)
        centre = -3.0 * np.cos(ens.times / 2) + 2.0 * np.sin(ens.times / 2)
        expected = starts[None, :] + (centre - centre[0])[:, None]
        assert np.max(np.abs(ens.positions - expected)) < 1e-4

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
