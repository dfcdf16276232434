import tracemalloc

import numpy as np
import pytest

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     build_hamiltonian, evolve_store, expectation)
from bohmlab.bohm import (TrajectoryEnsemble, integrate_trajectories,
                          sample_initial_positions)
from bohmlab.errors import (ConfigurationError, HorizonError, LagError,
                            NodeError)
from bohmlab.intrinsics import (CurrentConfig, autocorrelation,
                                dwell_time_density, dwell_time_ensemble,
                                ensemble_currents, per_trajectory_dwell_times,
                                power_balance_residual, psd, work_distribution,
                                work_records)


@pytest.fixture
def grid():
    return Grid1D(-30.0, 30.0, 512)


class TestWork:
    def test_eigenstate_point_mass(self, grid):
        # stationary state: local energy is flat, every experiment does zero work
        pot = PotentialModel("harmonic", omega=1.0)
        h = build_hamiltonian(grid, pot)
        psi = WaveFunction(grid, h.eigenvectors()[:, 0])
        ev = evolve_store(psi, pot, PropagatorConfig(
            0.01, method="exact", steps_per_output=10), 1.0)
        starts = sample_initial_positions(psi, 200, seed=3)
        ens = integrate_trajectories(ev, starts)
        recs = work_records(ev, pot, ens, 0.0, 1.0)
        dist = work_distribution(recs)
        assert dist.flagged_count == 0
        assert abs(dist.mean) < 1e-6
        assert dist.std < 1e-6
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_driven_mean_work_matches_energy_gain(self, grid):
        # <W> over the equilibrium ensemble equals the change of <H(t)>
        pot = PotentialModel("drive", amplitude=0.4)
        psi = WaveFunction.gaussian(grid, width=1.5)
        cfg = PropagatorConfig(0.002, steps_per_output=25)
        ev = evolve_store(psi, pot, cfg, 1.5)
        starts = sample_initial_positions(psi, 3000, seed=9)
        ens = integrate_trajectories(ev, starts)
        recs = work_records(ev, pot, ens, 0.0, 1.5)
        dist = work_distribution(recs)
        h1 = build_hamiltonian(grid, pot, t=0.0)
        h2 = build_hamiltonian(grid, pot, t=1.5)
        delta = expectation(h2, ev.psi(len(ev.times) - 1)) - expectation(h1, psi)
        stderr = dist.std / np.sqrt(dist.count)
        assert abs(dist.mean - delta) < 3 * stderr

    def test_distribution_normalized(self, grid):
        pot = PotentialModel("free")
        psi = WaveFunction.gaussian(grid, momentum=1.0)
        ev = evolve_store(psi, pot, PropagatorConfig(0.005, steps_per_output=20), 1.0)
        starts = sample_initial_positions(psi, 500, seed=4)
        ens = integrate_trajectories(ev, starts)
        dist = work_distribution(work_records(ev, pot, ens, 0.0, 1.0))
        assert dist.probabilities.sum() == pytest.approx(1.0)
        assert len(dist.bin_edges) == len(dist.probabilities) + 1


class TestPowerBalance:
    def residual_at_spacing(self, grid, steps_per_output):
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction.gaussian(grid, center=2.0)
        cfg = PropagatorConfig(0.002, steps_per_output=steps_per_output)
        ev = evolve_store(psi, pot, cfg, 1.0)
        starts = np.array([1.0])
        ens = integrate_trajectories(ev, starts, substeps=4)
        t_mid = ev.times[len(ev.times) // 2]
        return power_balance_residual(ev, pot, ens.positions[:, 0], float(t_mid))

    def test_second_order_decay(self, grid):
        r_coarse = self.residual_at_spacing(grid, 50)   # frame dt = 0.1
        r_fine = self.residual_at_spacing(grid, 25)     # frame dt = 0.05
        assert abs(r_coarse / r_fine) == pytest.approx(4.0, abs=0.5)

    def test_needs_interior_frame(self, grid):
        pot = PotentialModel("free")
        psi = WaveFunction.gaussian(grid)
        ev = evolve_store(psi, pot, PropagatorConfig(0.01, steps_per_output=10), 0.5)
        ens = integrate_trajectories(ev, np.array([0.5]))
        with pytest.raises(ConfigurationError):
            power_balance_residual(ev, pot, ens.positions[:, 0], 0.0)

    def test_trajectory_on_node_raises(self):
        # x = 0 is a grid point and the node of the first excited state,
        # which the exact propagator keeps stationary
        grid = Grid1D(-10.0, 10.0, 128)
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction(grid, build_hamiltonian(grid, pot).eigenvectors()[:, 1])
        ev = evolve_store(psi, pot, PropagatorConfig(
            0.01, method="exact", steps_per_output=10), 0.5)
        t_mid = float(ev.times[len(ev.times) // 2])
        with pytest.raises(NodeError):
            power_balance_residual(ev, pot, np.zeros(len(ev.times)), t_mid)


def _direct_autocorrelation(currents, m_max):
    """Biased lag sum, one lag at a time (reference for the FFT estimator)."""
    nt = currents.shape[0]
    c = np.array([np.mean(np.sum(currents[:nt - m] * currents[m:], axis=0) / nt)
                  for m in range(m_max + 1)])
    return np.concatenate([c[:0:-1], c])


class TestCurrentAndPsd:
    def test_uniform_packet_current(self, grid):
        # narrow-band packet: v ~ hbar k0/m everywhere in the core
        k0 = 2.0
        psi = WaveFunction.gaussian(grid, width=3.0, momentum=k0)
        ev = evolve_store(psi, PotentialModel("free"),
                          PropagatorConfig(0.01, steps_per_output=10), 0.5)
        starts = sample_initial_positions(psi, 50, seed=5)
        ens = integrate_trajectories(ev, starts)
        cur = ensemble_currents(ev, ens, CurrentConfig(length=60.0, charge=1.0))
        assert cur.shape == ens.positions.shape
        assert np.allclose(cur, k0 / 60.0, rtol=0.05)

    def test_currents_scaled_in_place(self, grid):
        psi = WaveFunction.gaussian(grid, width=3.0, momentum=2.0)
        # 401 frames, so the record outweighs the per-frame temporaries
        ev = evolve_store(psi, PotentialModel("free"),
                          PropagatorConfig(0.01, steps_per_output=1), 4.0)
        ens = integrate_trajectories(ev, sample_initial_positions(psi, 500, seed=5))
        vel = ev.velocity  # built lazily: outside the traced call
        raw = np.array([vel(ens.positions[j], float(t))
                        for j, t in enumerate(ev.times)])
        cfg = CurrentConfig(length=7.3, charge=1.6)
        tracemalloc.start()
        try:
            cur = ensemble_currents(ev, ens, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the record is written over the positions, so the call allocates
        # only per-frame temporaries
        assert np.shares_memory(cur, ens.positions)
        assert np.array_equal(cur, cfg.charge / cfg.length * raw)
        assert peak < 0.05 * cur.nbytes

    def test_autocorrelation_constant_signal(self):
        # biased estimator: C(m dt) = c^2 (nt - m)/nt for a constant record
        nt, c0, dt = 100, 1.3, 0.1
        currents = np.full((nt, 4), c0)
        lags, c = autocorrelation(currents, dt, tau_max=2.0)
        m = np.abs(np.round(lags / dt)).astype(int)
        assert np.allclose(c, c0 ** 2 * (nt - m) / nt, atol=1e-12)

    @pytest.mark.parametrize("shape", [(251, 1100), (40, 3), (7, 1)])
    def test_autocorrelation_matches_direct_lag_sum(self, shape):
        nt, _ = shape
        rng = np.random.default_rng(nt)
        currents = rng.normal(loc=0.2, size=shape)
        dt = 0.02
        lags, c = autocorrelation(currents, dt, tau_max=(nt - 1) * dt)
        want = _direct_autocorrelation(currents, nt - 1)
        zero_lag = want[nt - 1]
        assert np.allclose(lags, dt * np.arange(-(nt - 1), nt))
        assert np.max(np.abs(c - want)) < 1e-13 * zero_lag

    def test_lag_horizon_too_long(self):
        with pytest.raises(LagError):
            autocorrelation(np.ones((10, 2)), 0.1, tau_max=5.0)

    def test_psd_even_and_zero_frequency_identity(self):
        rng = np.random.default_rng(8)
        currents = rng.normal(size=(400, 6))
        res = psd(currents, dt=0.05, tau_max=5.0)
        assert np.allclose(res.values, res.values[::-1], atol=1e-12)
        weights = np.full(len(res.lags), 0.05)
        weights[0] = weights[-1] = 0.025
        assert res.values[len(res.omega) // 2] == pytest.approx(
            float(weights @ res.autocorrelation), abs=1e-12)

    def test_psd_peaks_of_cosine(self):
        dt, omega0 = 0.02, 4.0
        t = dt * np.arange(2000)
        currents = np.cos(omega0 * t)[:, None]
        res = psd(currents, dt, tau_max=10.0, window="hann")
        peak = np.abs(res.omega[np.argmax(res.values)])
        assert peak == pytest.approx(omega0, abs=np.pi / 10.0 + 1e-12)

    def test_unknown_window(self):
        with pytest.raises(ConfigurationError):
            psd(np.ones((50, 1)), 0.1, 2.0, window="blackman")


def single_dwell_time(x, region, times):
    """Dwell time of one trajectory x(times), as a one-column ensemble."""
    ens = TrajectoryEnsemble(times, np.asarray(x, dtype=float)[:, None],
                             np.zeros(1, dtype=bool))
    return float(per_trajectory_dwell_times(ens, region)[0])


class TestDwellTime:
    def test_linear_crossing_exact(self):
        # x(t) = -5 + 2t crosses [-1, 1] during t in [2, 3]; the linear
        # refinement makes the answer exact even on a coarse time grid
        t = np.linspace(0.0, 5.0, 11)
        x = -5.0 + 2.0 * t
        assert single_dwell_time(x, (-1.0, 1.0), t) == pytest.approx(1.0)

    def test_never_enters(self):
        t = np.linspace(0.0, 1.0, 5)
        assert single_dwell_time(np.full(5, 3.0), (-1.0, 1.0), t) == 0.0

    def test_still_inside_raises(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(HorizonError):
            single_dwell_time(np.zeros(5), (-1.0, 1.0), t)

    def test_bad_region(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            single_dwell_time(np.full(5, 3.0), (1.0, -1.0), t)

    def test_trajectory_mean_matches_density_formula(self, grid):
        psi = WaveFunction.gaussian(grid, center=-8.0, width=1.0, momentum=5.0)
        pot = PotentialModel("free")
        cfg = PropagatorConfig(0.004, steps_per_output=5)
        horizon = 4.0
        ev = evolve_store(psi, pot, cfg, horizon)
        region = (-2.0, 2.0)
        t_density = dwell_time_density(ev, region, horizon)
        starts = sample_initial_positions(psi, 400, seed=21)
        ens = integrate_trajectories(ev, starts)
        t_traj, stderr = dwell_time_ensemble(
            per_trajectory_dwell_times(ens, region))
        assert abs(t_traj - t_density) < max(3 * stderr, 0.02 * t_density)
