import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     bohm, build_hamiltonian, evolve_store, evolve_stream,
                     expectation, intrinsics, momentum_operator)
from bohmlab.bohm import integrate_trajectories, sample_initial_positions
from bohmlab.errors import ConfigurationError, LagError, NodeError
from bohmlab.intrinsics import (autocorrelation,
                                dwell_time_density, dwell_time_ensemble,
                                ensemble_currents, per_trajectory_dwell_times,
                                power_balance_residual, psd, work_distribution,
                                work_records)
from bohmlab.qgrid import window_weights


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
            0.001, steps_per_output=100), 1.0)
        starts = sample_initial_positions(psi, 200, seed=3)
        recs = work_records(ev, starts, integrate_trajectories(ev, starts)[-1])
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
        recs = work_records(ev, starts, integrate_trajectories(ev, starts)[-1])
        dist = work_distribution(recs)
        h1 = build_hamiltonian(grid, pot, t=0.0)
        h2 = build_hamiltonian(grid, pot, t=1.5)
        delta = expectation(h2, ev.final) - expectation(h1, psi)
        stderr = dist.std / np.sqrt(dist.count)
        assert abs(dist.mean - delta) < 3 * stderr

    def test_node_endpoint_is_flagged(self, grid):
        # the first excited state has a node at 0, where a trajectory rests;
        # the split-operator step keeps it stationary to O(dt^2), so dt is
        # small enough for a mean work within 1e-10 of 0
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction(grid, build_hamiltonian(grid, pot).eigenvectors()[:, 1])
        ev = evolve_store(psi, pot, PropagatorConfig(
            5e-5, steps_per_output=2000), 0.5)
        starts = np.array([-1.0, 0.0, 1.3])
        records = work_records(ev, starts, integrate_trajectories(ev, starts)[-1])
        assert records.shape == (3, 2)
        assert np.isnan(records[1]).all() and np.isfinite(records[[0, 2]]).all()
        dist = work_distribution(records)
        assert (dist.count, dist.flagged_count) == (2, 1)
        assert dist.mean == pytest.approx(0.0, abs=1e-10)

    def test_one_density_spline_per_endpoint(self, grid, monkeypatch):
        # read_at's node check is the only one when no endpoint sits on a
        # node: two density splines per call, where there were six
        pot = PotentialModel("drive", amplitude=0.4)
        psi = WaveFunction.gaussian(grid, width=1.5)
        ev = evolve_store(psi, pot, PropagatorConfig(0.005, steps_per_output=20),
                          1.0)
        starts = sample_initial_positions(psi, 300, seed=4)
        final = integrate_trajectories(ev, starts)[-1]
        want = work_records(ev, starts, final)
        calls = []
        nodes_at = bohm.nodes_at

        def spy(psi, x):
            calls.append(len(x))
            return nodes_at(psi, x)

        monkeypatch.setattr(bohm, "nodes_at", spy)
        monkeypatch.setattr(intrinsics, "nodes_at", spy)
        got = work_records(ev, starts, final)
        assert calls == [300, 300]
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)

    def test_distribution_normalized(self, grid):
        pot = PotentialModel("free")
        psi = WaveFunction.gaussian(grid, momentum=1.0)
        ev = evolve_store(psi, pot, PropagatorConfig(0.005, steps_per_output=20), 1.0)
        starts = sample_initial_positions(psi, 500, seed=4)
        dist = work_distribution(work_records(
            ev, starts, integrate_trajectories(ev, starts)[-1]))
        assert dist.probabilities.sum() == pytest.approx(1.0)
        assert len(dist.bin_edges) == len(dist.probabilities) + 1


class TestPowerBalance:
    def residual_at_spacing(self, grid, steps_per_output):
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction.gaussian(grid, center=2.0)
        cfg = PropagatorConfig(0.002, steps_per_output=steps_per_output)
        ev = evolve_store(psi, pot, cfg, 1.0)
        path = integrate_trajectories(ev, np.array([1.0]))[:, 0]
        t_mid = ev.times[len(ev.times) // 2]
        return power_balance_residual(ev, path, float(t_mid))

    def test_second_order_decay(self, grid):
        r_coarse = self.residual_at_spacing(grid, 50)   # frame dt = 0.1
        r_fine = self.residual_at_spacing(grid, 25)     # frame dt = 0.05
        assert abs(r_coarse / r_fine) == pytest.approx(4.0, abs=0.5)

    def test_needs_interior_frame(self, grid):
        pot = PotentialModel("free")
        psi = WaveFunction.gaussian(grid)
        ev = evolve_store(psi, pot, PropagatorConfig(0.01, steps_per_output=10), 0.5)
        path = integrate_trajectories(ev, np.array([0.5]))[:, 0]
        with pytest.raises(ConfigurationError):
            power_balance_residual(ev, path, 0.0)

    def test_trajectory_on_node_raises(self):
        # x = 0 is a grid point and the node of the first excited state,
        # which the split-operator step keeps a node: it keeps the state odd
        grid = Grid1D(-10.0, 10.0, 128)
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction(grid, build_hamiltonian(grid, pot).eigenvectors()[:, 1])
        ev = evolve_store(psi, pot, PropagatorConfig(
            0.01, steps_per_output=10), 0.5)
        t_mid = float(ev.times[len(ev.times) // 2])
        with pytest.raises(NodeError):
            power_balance_residual(ev, np.zeros(len(ev.times)), t_mid)


def _direct_autocorrelation(currents, m_max):
    """Biased lag sum, one lag at a time (reference for the banded Gram
    estimator)."""
    nt = currents.shape[0]
    c = np.array([np.mean(np.sum(currents[:nt - m] * currents[m:], axis=0) / nt)
                  for m in range(m_max + 1)])
    return np.concatenate([c[:0:-1], c])


_B = intrinsics._GRAM_FRAMES  # frames per Gram block of autocorrelation


class TestCurrentAndPsd:
    def test_uniform_packet_current(self, grid):
        # narrow-band packet: v ~ hbar k0/m everywhere in the core
        k0 = 2.0
        psi = WaveFunction.gaussian(grid, width=3.0, momentum=k0)
        ev = evolve_store(psi, PotentialModel("free"),
                          PropagatorConfig(0.01, steps_per_output=10), 0.5)
        starts = sample_initial_positions(psi, 50, seed=5)
        rows, _ = ensemble_currents(ev, starts, 60.0)
        cur = np.array(list(rows))
        assert cur.shape == (len(ev.times), len(starts))
        assert np.allclose(cur, k0 / 60.0, rtol=0.05)

    @staticmethod
    def _streamed_currents(grid, duration):
        """(each streamed current row equals (q/L) v at the collected
        record's positions, truncated equals the record's, traced peak of
        the stream) on a stored evolution of duration / 0.01 + 1 frames."""
        psi = WaveFunction.gaussian(grid, width=3.0, momentum=2.0)
        ev = evolve_store(psi, PotentialModel("free", charge=1.6),
                          PropagatorConfig(0.01, steps_per_output=1), duration)
        starts = sample_initial_positions(psi, 500, seed=5)
        paths = integrate_trajectories(ev, starts)
        *_, (_, _, frozen) = bohm.rk4_frames(ev, starts)
        vel = bohm.VelocityField(ev)
        raw = np.array([vel(paths[j], float(t))
                        for j, t in enumerate(ev.times)])
        length, charge = 7.3, 1.6
        want = charge / length * raw
        same = 0
        tracemalloc.start()
        try:
            rows, truncated = ensemble_currents(ev, starts, length)
            for j, row in enumerate(rows):
                same += np.array_equal(row, want[j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (same == len(ev.times),
                np.array_equal(truncated, frozen), peak)

    def test_currents_stream_scaled_k1(self, grid):
        # each frame's current is RK4's own k1 at the collected record's
        # positions, streamed: the call never holds the record, and its
        # peak (the field's two blocks, one RK4 step's temporaries) does not
        # grow from 801 to 1601 frames
        same, truncated_same, peak = self._streamed_currents(grid, 8.0)
        assert same and truncated_same
        *_, peak_long = self._streamed_currents(grid, 16.0)
        assert peak_long <= peak + 4096

    def test_frozen_trajectory_carries_no_current(self):
        # a k = 5 packet on [-10, 10]: by t = 1.6 some of 200 trajectories
        # have reached the edge.  From the frame each froze on, its current
        # is 0; every other current is RK4's own k1 of the frame, scaled
        grid = Grid1D(-10.0, 10.0, 256)
        psi = WaveFunction.gaussian(grid, momentum=5.0)
        ev = evolve_store(psi, PotentialModel("free", charge=1.6),
                          PropagatorConfig(0.005, steps_per_output=10), 1.6)
        starts = sample_initial_positions(psi, 200, seed=3)
        rows, truncated = ensemble_currents(ev, starts, 20.0)
        zeroed = 0
        for row, (_, k1, frozen) in zip(rows, bohm.rk4_frames(ev, starts)):
            assert np.array_equal(row[~frozen], 1.6 / 20.0 * k1[~frozen])
            assert np.all(row[frozen] == 0.0)
            zeroed += np.count_nonzero(k1[frozen])
        assert 0 < truncated.sum() < 200
        assert np.array_equal(truncated, frozen)
        assert zeroed > 0  # a frozen trajectory's field is not 0 there

    @pytest.mark.parametrize("length", [0.0, -60.0])
    def test_nonpositive_length_rejected(self, grid, length, monkeypatch):
        psi = WaveFunction.gaussian(grid, width=3.0, momentum=2.0)
        ev = evolve_store(psi, PotentialModel("free"),
                          PropagatorConfig(0.01, steps_per_output=10), 0.5)

        def refuse(*args, **kwargs):
            raise AssertionError("RK4 started")

        monkeypatch.setattr(intrinsics, "rk4_frames", refuse)
        # raised by the call itself, before the stream takes any RK4 step
        with pytest.raises(ConfigurationError, match="device length"):
            ensemble_currents(ev, sample_initial_positions(psi, 20, seed=5),
                              length)

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

    @pytest.mark.parametrize("nt, m_max", [
        (nt, m) for nt in (_B - 1, _B, _B + 1, 2 * _B + 1)
        for m in sorted({0, 1, _B, nt - 1}) if m <= nt - 1])
    def test_banded_sum_across_block_boundaries(self, nt, m_max):
        rng = np.random.default_rng(nt + m_max)
        currents = rng.normal(loc=0.2, size=(nt, 5))
        want = _direct_autocorrelation(currents, m_max)
        for record in (currents, np.asfortranarray(currents)):
            lags, c = autocorrelation(record, 0.5, tau_max=0.5 * m_max)
            assert len(lags) == 2 * m_max + 1
            assert np.max(np.abs(c - want)) < 1e-13 * want[m_max]

    def test_one_dimensional_record(self):
        rng = np.random.default_rng(2)
        record = rng.normal(size=2 * _B + 1)
        _, c = autocorrelation(record, 0.1, tau_max=4.0)
        want = _direct_autocorrelation(record[:, None], 40)
        assert np.max(np.abs(c - want)) < 1e-13 * want[40]

    @pytest.mark.parametrize("nt", [1001, 4001])
    def test_autocorrelation_memory_independent_of_record_length(self, nt):
        # the only temporary is one Gram block of B (B + m_max) cells; the
        # 4001-frame record alone is 8 MB
        currents = np.random.default_rng(4).normal(size=(nt, 256))
        tracemalloc.start()
        try:
            autocorrelation(currents, 0.01, tau_max=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @settings(max_examples=40)
    @given(nt=st.integers(1, 3 * _B + 2), n_traj=st.integers(1, 40),
           lag_frac=st.floats(0.0, 1.0), one_d=st.booleans())
    @example(nt=_B - 1, n_traj=3, lag_frac=0.0, one_d=False)
    @example(nt=_B, n_traj=3, lag_frac=1.0, one_d=False)
    @example(nt=_B + 1, n_traj=5, lag_frac=0.0, one_d=False)
    @example(nt=_B + 1, n_traj=5, lag_frac=1.0, one_d=False)
    @example(nt=2 * _B + 1, n_traj=7, lag_frac=0.0, one_d=False)
    @example(nt=2 * _B + 1, n_traj=7, lag_frac=1.0, one_d=False)
    @example(nt=2 * _B + 1, n_traj=1, lag_frac=0.5, one_d=True)
    @example(nt=_B - 1, n_traj=1, lag_frac=1.0, one_d=True)
    def test_stream_matches_array_bit_for_bit(self, nt, n_traj, lag_frac,
                                              one_d):
        m_max = int(round(lag_frac * (nt - 1)))
        rng = np.random.default_rng([nt, n_traj, m_max])
        record = rng.normal(loc=0.2, size=nt if one_d else (nt, n_traj))
        lags, c = autocorrelation(record, 0.5, tau_max=0.5 * m_max)
        s_lags, s_c = autocorrelation(iter(record), 0.5, tau_max=0.5 * m_max)
        assert np.array_equal(s_lags, lags)
        assert np.array_equal(s_c, c)

    @pytest.mark.parametrize("nt", [1001, 4001])
    def test_psd_of_a_stream_holds_one_window(self, nt):
        # a stream goes through one (B + m_max, N) buffer: 0.5 MB here,
        # where the 4001-frame record is 8 MB
        n_traj, m_max = 256, 200
        record = np.random.default_rng(4).normal(size=(nt, n_traj))
        tracemalloc.start()
        try:
            res = psd((row for row in record), 0.01, tau_max=0.01 * m_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.lags) == 2 * m_max + 1
        assert peak < (_B + m_max) * n_traj * 8 + 1e6

    def test_psd_memory_bounded_at_long_lags(self):
        # m_max = 1000: a whole cosine matrix would be 2001^2 cells, 32 MB
        currents = np.random.default_rng(6).normal(size=(1201, 8))
        tracemalloc.start()
        try:
            res = psd(currents, 0.01, tau_max=10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.lags) == 2001
        assert peak < 2e6
        assert np.array_equal(res.values, res.values[::-1])

    def test_lag_horizon_too_long(self):
        # a stream of rows is judged once it ends, an empty one too
        for record in (np.ones((10, 2)), iter(np.ones((10, 2)))):
            with pytest.raises(LagError):
                autocorrelation(record, 0.1, tau_max=5.0)
        with pytest.raises(LagError):
            autocorrelation(iter([]), 0.1, tau_max=0.0)

    def test_oversized_lag_horizon_allocates_nothing_of_its_size(self):
        # tau_max = 1e11 asks for a (32 + 10^12)-row window: the buffer only
        # grows with the rows the input gives, and the Gram cells wait for
        # the lag check, so both inputs raise LagError, not MemoryError
        for record in (iter(np.ones((10, 2))), np.ones((10, 2))):
            tracemalloc.start()
            try:
                with pytest.raises(LagError, match="lag horizon"):
                    autocorrelation(record, 0.1, tau_max=1e11)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e5

    def test_mean_current_is_charge_over_length_times_mean_velocity(self, grid):
        # the paper's third example: averaged over the equilibrium ensemble,
        # the Bohmian current (q/L) v(x_i, t) is (q/L) <p>/m at every frame,
        # within its standard error.  A chirped Gaussian in a harmonic well
        # has a velocity field linear in x with nonzero slope, so every
        # frame's error is a sampling error and not rounding.
        pot = PotentialModel("harmonic", omega=0.5, charge=1.6)
        gauss = WaveFunction.gaussian(grid, center=-3.0, width=0.7, momentum=1.0)
        psi = WaveFunction(grid, gauss.amplitudes * np.exp(0.1j * grid.x ** 2))
        cfg = PropagatorConfig(0.005, steps_per_output=4)
        record = evolve_store(psi, pot, cfg, 5.0)
        p = momentum_operator(grid)
        want = [1.6 / 7.3 * expectation(p, record.psi(j))
                for j in range(len(record.times))]
        rows, truncated = ensemble_currents(
            evolve_stream(psi, pot, cfg, 5.0),
            sample_initial_positions(psi, 2000, seed=7), 7.3)
        z = [(row.mean() - mean) / (row.std(ddof=1) / np.sqrt(row.size))
             for row, mean in zip(rows, want, strict=True)]
        assert not truncated.any()
        assert np.max(np.abs(z)) < 1.0

    @settings(max_examples=10)
    @given(center=st.floats(-4.0, 0.0), width=st.floats(0.7, 1.5),
           momentum=st.floats(0.5, 2.0), chirp=st.floats(0.05, 0.3),
           kind=st.sampled_from(PotentialModel.KINDS),
           strength=st.floats(0.2, 1.0),
           charge=st.sampled_from([-1.6, 0.4, 2.5]),
           mass=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_mean_current_is_charge_over_length_times_mean_momentum(
            self, center, width, momentum, chirp, kind, strength, charge, mass,
            seed):
        # the paper's third example over random packets, potentials, charges
        # and masses: each frame's N = 2000 currents are independent draws
        # of (q/L) v(X, t) with X ~ |psi|^2 (equivariance; one RK4 step per
        # frame errs far below the standard error), whose mean is
        # (q/L) <p>/m.  A chirped packet has no node, so v has a finite
        # variance and each frame's z is standard normal to O(N^-1/2).  A
        # union bound over 21 frames and 10 examples: P(any |z| > 5) <=
        # 210 * 5.7e-7 = 1.2e-4.  Leaving the charge out of the current
        # (charge != 1) moves z by |1 - q| <p>/(m sd) * sqrt(N), far past 5
        grid = Grid1D(-20.0, 20.0, 256)
        gauss = WaveFunction.gaussian(grid, center, width, momentum)
        psi = WaveFunction(grid, gauss.amplitudes
                           * np.exp(1j * chirp * (grid.x - center) ** 2))
        params = {"free": {}, "barrier": {"height": 3 * strength, "left": 1.0,
                                          "right": 4.0},
                  "harmonic": {"omega": strength},
                  "drive": {"amplitude": strength}}[kind]
        pot = PotentialModel(kind, mass=mass, charge=charge, **params)
        ev = evolve_store(psi, pot, PropagatorConfig(0.005, steps_per_output=10),
                          1.0, mass)
        p = momentum_operator(grid)
        length = 7.3
        rows, truncated = ensemble_currents(
            ev, sample_initial_positions(psi, 2000, seed=seed), length)
        z = [(row.mean() - charge / length * expectation(p, ev.psi(j)) / mass)
             / (row.std(ddof=1) / np.sqrt(row.size))
             for j, row in enumerate(rows)]
        assert len(z) == 21 and not truncated.any()
        assert np.max(np.abs(z)) <= 5.0

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

    def test_unknown_window_raises_before_currents_are_read(self):
        # on a task's stream each row is propagation and RK4: a window
        # psd cannot apply stops it before the first row
        def refused():
            raise AssertionError("a current row was read")
            yield

        with pytest.raises(ConfigurationError, match="unknown window"):
            psd(refused(), 0.05, 1.0, window="hamming")


def single_dwell_time(x, region, times):
    """Dwell time of one trajectory x(times), as a one-column record."""
    record = np.asarray(x, dtype=float)[:, None]
    return float(per_trajectory_dwell_times(record, times, region)[0])


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

    def test_stuck_trajectory_counts_its_time_to_the_end(self):
        # still inside at the final time: no error, the time up to then
        t = np.linspace(0.0, 1.0, 5)
        assert single_dwell_time(np.zeros(5), (-1.0, 1.0), t) == 1.0
        assert single_dwell_time(-3.0 + 2.5 * t, (-1.0, 1.0), t) == \
            pytest.approx(0.2)

    def test_bad_region(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            single_dwell_time(np.full(5, 3.0), (1.0, -1.0), t)

    def test_record_memory_bounded_and_bits_independent_of_width(self):
        # a 16 MB record goes through the loop row by row, so no temporary
        # grows with nt; a trajectory's sum has the same bits whatever
        # columns stand beside it, down to a single trajectory
        nt, n_traj = 1001, 2000
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 5.0, nt)
        positions = np.cumsum(rng.normal(scale=0.1, size=(nt, n_traj)), axis=0)
        tracemalloc.start()
        try:
            taus = per_trajectory_dwell_times(positions, times, (-1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < positions.nbytes / 16
        edges = np.cumsum([0, 1, 1, 2, 5, 31, 960, 1000])
        parts = [per_trajectory_dwell_times(positions[:, lo:hi], times,
                                            (-1.0, 1.0))
                 for lo, hi in zip(edges[:-1], edges[1:])]
        assert np.array_equal(taus, np.concatenate(parts))
        assert 0.0 < taus.mean() < 5.0

    def test_trajectory_mean_matches_density_formula(self, grid):
        psi = WaveFunction.gaussian(grid, center=-8.0, width=1.0, momentum=5.0)
        pot = PotentialModel("free")
        cfg = PropagatorConfig(0.004, steps_per_output=5)
        horizon = 4.0
        region = (-2.0, 2.0)
        ev = evolve_store(psi, pot, cfg, horizon,
                          window=window_weights(grid, *region))
        t_density = dwell_time_density(ev, horizon)
        starts = sample_initial_positions(psi, 400, seed=21)
        paths = integrate_trajectories(ev, starts)
        t_traj, stderr = dwell_time_ensemble(
            per_trajectory_dwell_times(paths, ev.times, region))
        assert abs(t_traj - t_density) < max(3 * stderr, 0.02 * t_density)


def cumulative_region_mass(psi_frames, grid, region):
    """Oracle: integral_a^b |psi|^2 dx per frame, by linear interpolation
    of the cell-edge cumulative mass (the former intrinsics convention)."""
    a, b = region
    dens = np.abs(psi_frames) ** 2
    x = np.concatenate([grid.x - 0.5 * grid.dx, [grid.x[-1] + 0.5 * grid.dx]])
    cum = np.concatenate([np.zeros((dens.shape[0], 1)),
                          np.cumsum(dens, axis=1) * grid.dx], axis=1)
    ca = np.array([np.interp(a, x, row) for row in cum])
    cb = np.array([np.interp(b, x, row) for row in cum])
    return cb - ca


class TestDensityRegionMass:
    GRID = Grid1D(-10.0, 10.0, 128)

    def frame_mass(self, amplitudes, region):
        """The window mass of one frame, which dwell_time_density
        integrates: the first of an evolution's, made with the window."""
        ev = evolve_store(WaveFunction(self.GRID, amplitudes),
                          PotentialModel("free"), PropagatorConfig(0.01), 0.01,
                          window=window_weights(self.GRID, *region))
        return ev.window_masses[0]

    @settings(max_examples=60)
    @given(a=st.floats(-11.0, 11.0), cells=st.floats(0.05, 40.0),
           center=st.floats(-9.0, 9.0), width=st.floats(0.3, 4.0),
           k=st.floats(-3.0, 3.0))
    @example(a=-2.3, cells=13.7, center=0.0, width=1.0, k=1.0)   # mid-cell cuts
    @example(a=-10.9, cells=9.0, center=-8.0, width=2.0, k=0.0)  # overhangs x_min
    @example(a=9.5, cells=6.0, center=8.0, width=2.0, k=0.0)     # overhangs x_max
    @example(a=0.31, cells=0.4, center=0.0, width=0.5, k=2.0)    # inside one cell
    def test_matches_cumulative_interpolation(self, a, cells, center, width, k):
        amp = WaveFunction.gaussian(self.GRID, center=center, width=width,
                                    momentum=k).amplitudes
        region = (a, a + cells * self.GRID.dx)
        oracle = cumulative_region_mass(amp[None, :], self.GRID, region)[0]
        assert abs(self.frame_mass(amp, region) - oracle) <= 1e-14
