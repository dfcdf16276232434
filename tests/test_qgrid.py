import contextlib
import gc
import os
import signal
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     build_hamiltonian, evolve_store, evolve_stream, expectation,
                     bohm, qgrid,
                     momentum_operator, position_operator, propagate,
                     window_weights)
from bohmlab.errors import (ConfigurationError, DimensionError,
                            FrameAccessError, StepSizeError)
from bohmlab.qgrid import DENSE_EIG_LIMIT, evolution_operator


@pytest.fixture
def grid():
    return Grid1D(-20.0, 20.0, 256)


# the evolve_store scenario of the streamed-frame tests: 51 frames
STREAM_ARGS = (WaveFunction.gaussian(Grid1D(-20.0, 20.0, 256), momentum=2.0),
               PotentialModel("harmonic", omega=1.0),
               PropagatorConfig(0.005, steps_per_output=4), 1.0)


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


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
        via_eigs = h.eigenvectors() @ (h.eigenvalues() * h.coefficients(v))
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
        psi = WaveFunction(grid, np.exp(1j * k * grid.x)).normalize()
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
        # an eigenvector of the Strang step's own dense matrix (rows of
        # step(identity) are its columns), the one nearest the second
        # excited state of H, stays stationary over 100 steps
        pot = PotentialModel("harmonic", omega=1.0)
        stepper = qgrid.Stepper(grid, pot, 0.01, 1.0, 1.0)
        _, vecs = np.linalg.eig(stepper.step(np.eye(grid.n, dtype=complex),
                                             0.0).T)
        target = build_hamiltonian(grid, pot).eigenvectors()[:, 2]
        near = np.argmax(np.abs(vecs.conj().T @ target))
        psi = WaveFunction(grid, vecs[:, near]).normalize()
        out = propagate(psi, pot, PropagatorConfig(0.01), 1.0)
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

    def test_evolution_records_its_step(self):
        # the history says how it was made, so later consumers need no cfg
        grid = Grid1D(-10.0, 10.0, 64)
        ev = evolve_store(WaveFunction.gaussian(grid),
                          PotentialModel("harmonic", omega=1.0),
                          PropagatorConfig(0.01, steps_per_output=5), 0.5)
        assert ev.dt == 0.01

    def test_stream_pulls_the_stored_frames_in_order(self, monkeypatch,
                                                      forks):
        # evolve_store collects the one frame loop in this process; a
        # streamed evolution forks nothing and takes no step before its
        # first pull (the frame-k failure is TestFrameWorker's)
        steps = []
        step = qgrid.Stepper.step

        def counting(stepper, amp, t):
            steps.append(t)
            return step(stepper, amp, t)

        monkeypatch.setattr(qgrid.Stepper, "step", counting)
        stored = evolve_store(*STREAM_ARGS)
        assert forks == [] and len(steps) == 4 * (len(stored.times) - 1)
        del steps[:]
        streamed = evolve_stream(*STREAM_ARGS)
        assert forks == [] and steps == []
        head = streamed.frame_block(0, 5)
        tail = streamed.frame_block(5, 1000)  # capped at the last frame
        assert np.array_equal(np.concatenate([head, tail]), stored.frames)
        assert np.array_equal(streamed.times, stored.times)
        assert streamed.dt == stored.dt
        assert len(forks) == 1 and steps == []  # every step in the worker
        assert_reaped(forks[0])
        evolve_stream(*STREAM_ARGS).close()  # never pulled: nothing forked
        assert len(forks) == 1

    def test_a_stream_keeps_no_frame(self):
        # a stream hands each frame over once and keeps none: frames,
        # psi(j) and a read behind it raise, before and after its last
        # frame, where a record serves them; a window's horizon frame is
        # found only once the last frame, which brings the window masses,
        # is handed over
        stored = evolve_store(*STREAM_ARGS)
        streamed = evolve_stream(*STREAM_ARGS)
        streamed.frame_block(0, 20)
        with pytest.raises(FrameAccessError, match="out of order"):
            streamed.frame_block(5, 10)
        assert np.array_equal(streamed.frame_block(20, 1000), stored.frames[20:])
        for refused in (lambda: streamed.frames, lambda: streamed.psi(3)):
            with pytest.raises(FrameAccessError, match="no frame record"):
                refused()
        assert np.array_equal(stored.frame_block(5, 10), stored.frames[5:10])
        assert np.array_equal(stored.psi(3).amplitudes, stored.frames[3])
        window = evolve_stream(*STREAM_ARGS, window=window_weights(
            stored.grid, -12.0, -10.0))  # the packet never reaches it
        window.frame_block(0, 20)
        with pytest.raises(FrameAccessError, match="before the last frame"):
            qgrid.horizon_frame(window, 0.2)
        window.frame_block(20, 1000)
        assert qgrid.horizon_frame(window, 0.2) == 10  # 0.2 / (4 * 0.005)

    def test_energy_conservation(self, grid):
        # the split-operator drift of <H> stays within tolerance at this dt
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction.gaussian(grid, center=1.0)
        h = build_hamiltonian(grid, pot)
        e0 = expectation(h, psi)
        out = propagate(psi, pot, PropagatorConfig(0.0005), 1.0)
        assert expectation(h, out) == pytest.approx(e0, abs=1e-7)

    def test_time_reversal(self, grid):
        # the Strang step is exactly inverted by the same step with -dt
        pot = PotentialModel("harmonic", omega=1.0)
        psi = WaveFunction.gaussian(grid, center=2.0, momentum=1.0)
        cfg = PropagatorConfig(0.01)
        there = propagate(psi, pot, cfg, 1.0)
        back = propagate(there, pot, cfg, -1.0)
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-8)

    @settings(max_examples=25)
    @given(n=st.integers(16, 512), half=st.floats(5.0, 40.0),
           kind=st.sampled_from(["free", "barrier", "harmonic", "drive"]),
           strength=st.floats(0.1, 5.0), dt=st.floats(1e-4, 0.05),
           duration=st.floats(0.01, 1.0), center=st.floats(-0.3, 0.3),
           momentum=st.floats(-3.0, 3.0))
    def test_strang_reversible_and_unitary(self, n, half, kind, strength, dt,
                                           duration, center, momentum):
        # over random grids, potentials and steps: stepping +duration and
        # then -duration returns psi, and every step keeps the norm
        grid = Grid1D(-half, half, n)
        pot = PotentialModel(kind, height=strength, left=-0.1 * half,
                             right=0.1 * half, omega=strength,
                             amplitude=strength)
        psi = WaveFunction.gaussian(grid, center=center * half,
                                    width=0.1 * half, momentum=momentum)
        cfg = PropagatorConfig(dt)
        there = propagate(psi, pot, cfg, duration)
        back = propagate(there, pot, cfg, -duration)
        assert there.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(back.amplitudes, psi.amplitudes, rtol=0.0,
                           atol=1e-10 * np.abs(psi.amplitudes).max())

    @pytest.mark.parametrize("duration", [1.0, 0.7, 0.0123])
    @pytest.mark.parametrize("pot", [
        PotentialModel("harmonic", omega=1.0),
        PotentialModel("drive", profile=lambda t: 0.5 * np.cos(3.0 * t))],
        ids=["harmonic", "drive"])
    def test_propagate_is_the_last_stored_frame(self, grid, pot, duration):
        # propagate runs the frame loop with one frame of all its steps
        psi = WaveFunction.gaussian(grid, center=1.0, momentum=1.0)
        cfg = PropagatorConfig(0.005)
        spo = round(duration / cfg.dt)
        ev = evolve_store(psi, pot, PropagatorConfig(cfg.dt, spo), duration)
        assert np.array_equal(propagate(psi, pot, cfg, duration).amplitudes,
                              ev.frames[-1])

    def test_exact_rejects_drive(self, grid):
        with pytest.raises(ConfigurationError, match="time-independent"):
            evolution_operator(grid, PotentialModel("drive", amplitude=0.3), 0.1)

    def test_exact_size_guard_before_dense_allocation(self):
        n = DENSE_EIG_LIMIT + 1
        grid = Grid1D(-20.0, 20.0, n)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="limited to n <="):
                evolution_operator(grid, PotentialModel("free"), 0.1)
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
        direct = propagate(psi, pot, PropagatorConfig(0.001), 0.7)
        assert np.allclose(u @ psi.amplitudes, direct.amplitudes, atol=1e-5)


def traced_peak(fn):
    """Run fn() under tracemalloc; return (result, peak bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDenseGuards:
    N = 2 * DENSE_EIG_LIMIT
    BIG = Grid1D(-40.0, 40.0, N)
    ANALYTIC = {
        "position": position_operator,
        "momentum": momentum_operator,
    }

    def raises_small(self, fn):
        """fn() raises the size guard's error with less than an eighth of a
        real n x n array allocated."""
        def call():
            with pytest.raises(ConfigurationError, match="limited to n <="):
                fn()
        assert traced_peak(call)[1] < self.N * self.N

    @pytest.mark.parametrize("kind", sorted(ANALYTIC))
    def test_analytic_eigenbasis_is_lazy_and_guarded(self, kind):
        op, peak = traced_peak(lambda: self.ANALYTIC[kind](self.BIG))
        assert peak < self.N * self.N
        assert len(op.eigenvalues()) == self.N
        self.raises_small(op.eigenvectors)

    @pytest.mark.parametrize("kind", sorted(ANALYTIC))
    def test_analytic_eigenbasis_orthonormal(self, grid, kind):
        op = self.ANALYTIC[kind](grid)
        vecs = op.eigenvectors()
        assert op.eigenvectors() is vecs
        gram = vecs.conj().T @ vecs * grid.dx
        assert np.allclose(gram, np.eye(grid.n), atol=1e-10)
        v = WaveFunction.gaussian(grid, center=1.0, momentum=0.7).amplitudes
        assert np.allclose(vecs @ (op.eigenvalues() * op.coefficients(v)),
                           op.apply(v), atol=1e-10)

    def test_window_weights_are_one_read_only_array(self):
        w, peak = traced_peak(lambda: window_weights(self.BIG, -1.0, 1.0))
        assert w.shape == (self.N,) and not w.flags.writeable
        assert peak < self.N * self.N

    def test_window_weights_are_the_position_spectrum(self, grid):
        # A = sum_j w_j |x_j><x_j|: the weights are A's eigenvalues in the
        # position eigenbasis, and multiplying by them applies A
        w = window_weights(grid, -1.0, 1.0)
        x = position_operator(grid)
        v = WaveFunction.gaussian(grid, center=1.0, momentum=0.7).amplitudes
        assert np.allclose(x.eigenvectors() @ (w * x.coefficients(v)), w * v,
                           atol=1e-10)

    def test_dense_raises_before_allocating(self):
        h = build_hamiltonian(self.BIG, PotentialModel("harmonic", omega=1.0))
        self.raises_small(h.dense)
        self.raises_small(h.eigenvalues)

    def test_dwell_operator_allocates_no_dense_array(self):
        from bohmlab.weakval import dwell_operator_state
        psi0 = WaveFunction.gaussian(self.BIG, center=-8.0, momentum=5.0)
        cfg = PropagatorConfig(0.005, steps_per_output=20)
        d_psi, peak = traced_peak(lambda: dwell_operator_state(
            evolve_store(psi0, PotentialModel("free"), cfg, 4.0,
                         window=window_weights(self.BIG, -2.0, 2.0)), 4.0))
        assert np.all(np.isfinite(d_psi))
        assert peak < self.N * self.N


class TestWindowOperator:
    """The window operator A multiplies by window_weights."""

    def test_weights_are_indicator_away_from_edges(self, grid):
        weights = window_weights(grid, -1.0, 1.0)
        inside = (grid.x > -1 + grid.dx) & (grid.x < 1 - grid.dx)
        outside = (grid.x < -1 - grid.dx) | (grid.x > 1 + grid.dx)
        assert np.all(weights[inside] == 1.0)
        assert np.all(weights[outside] == 0.0)
        assert np.all((weights >= 0) & (weights <= 1))

    def test_expectation_is_region_mass(self, grid):
        # fractional edge cells: <A> matches the erf integral to O(dx^2)
        from scipy.special import erf
        sigma = 1.3
        w = window_weights(grid, -1.0, 1.0)
        psi = WaveFunction.gaussian(grid, width=sigma)
        exact = float(erf(1.0 / (np.sqrt(2) * sigma)))
        assert psi.density() @ w * grid.dx == pytest.approx(exact, abs=1e-4)

    def test_bad_window(self, grid):
        with pytest.raises(ConfigurationError):
            window_weights(grid, 1.0, -1.0)


class TestFrameWorker:
    """A streamed evolution propagates in a worker forked on its first
    pull, ahead of the reader, and hands over the frames in process bits."""

    @pytest.mark.parametrize("where", ["worker", "second-thread",
                                       "fork-fails"])
    def test_streamed_frames_are_the_stored_bits(self, monkeypatch, forks,
                                                 where):
        # a second thread makes a fork unsafe, and a failed fork leaves no
        # worker: either way the loop runs in process
        if where == "fork-fails":
            def refuse():
                raise BlockingIOError("no process to spare")
            monkeypatch.setattr(os, "fork", refuse)
        stored = evolve_store(*STREAM_ARGS)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if where == "second-thread":
            thread.start()
        try:
            open_fds = len(os.listdir("/proc/self/fd"))
            streamed = evolve_stream(*STREAM_ARGS)
            blocks = [streamed.frame_block(lo, lo + 8)
                      for lo in range(0, len(stored.times), 8)]
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert np.array_equal(np.concatenate(blocks), stored.frames)
        assert len(forks) == (where == "worker")
        assert (streamed._frames.pid is None) == (where != "worker")
        assert len(os.listdir("/proc/self/fd")) == open_fds  # pipes closed

    @pytest.mark.parametrize("where", ["worker", "in-process"])
    @settings(max_examples=15)
    @given(n=st.integers(16, 300), half=st.floats(5.0, 40.0),
           spo=st.integers(1, 8), n_frames=st.integers(1, 30),
           amplitude=st.floats(-2.0, 2.0), frequency=st.floats(0.0, 5.0),
           block=st.integers(1, 12))
    def test_streamed_frames_equal_stored_frames(self, where, n, half, spo,
                                                 n_frames, amplitude,
                                                 frequency, block):
        # over random grids, steps per frame and drives E(t) = a cos(f t),
        # read in random blocks: the streamed frames, final state, window
        # masses and window overlaps are the stored record's bits, from a
        # forked worker or from this process (where no fork is to be had);
        # the window rows are NaN until the last frame is pulled
        grid = Grid1D(-half, half, n)
        pot = PotentialModel(
            "drive", profile=lambda t: amplitude * np.cos(frequency * t))
        psi = WaveFunction.gaussian(grid, width=0.1 * half, momentum=1.0)
        args = (psi, pot, PropagatorConfig(0.01, spo), 0.01 * spo * n_frames)
        window = window_weights(grid, -0.3 * half, 0.2 * half)
        stored = evolve_store(*args, window=window)
        no_fork = mock.patch.object(os, "fork", side_effect=BlockingIOError)
        with no_fork if where == "in-process" else contextlib.nullcontext():
            streamed = evolve_stream(*args, window=window)
            with pytest.raises(FrameAccessError, match="final state"):
                streamed.final
            blocks = []
            for lo in range(0, len(stored.times), block):
                assert np.isnan(streamed.window_masses).all()
                assert np.isnan(streamed.window_overlaps).all()
                blocks.append(streamed.frame_block(lo, lo + block))
        assert (streamed._frames.pid is None) == (where == "in-process")
        assert np.array_equal(np.concatenate(blocks), stored.frames)
        assert np.array_equal(streamed.window_masses, stored.window_masses)
        assert np.array_equal(streamed.window_overlaps,
                              stored.window_overlaps)
        assert np.array_equal(evolve_store(*args).frames, stored.frames)
        assert np.array_equal(streamed.final.amplitudes, stored.frames[-1])
        assert streamed.final.time == stored.final.time == stored.times[-1]

    def test_norm_failure_raises_when_its_frame_is_pulled(self, monkeypatch):
        # the worker runs ahead and fails at frame k; the reader gets frames
        # 0..k-1 first, then the worker's StepSizeError with frame k
        k = 7
        stored = evolve_store(*STREAM_ARGS)
        checks = []

        def failing(amp, grid, cfg):
            checks.append(None)  # counted in the worker's memory
            if len(checks) == k:
                raise StepSizeError(f"norm check failed at frame {k}")

        monkeypatch.setattr(qgrid, "_check_norm_drift", failing)
        streamed = evolve_stream(*STREAM_ARGS)
        frames = [streamed.frame_block(0, 1)]
        pid = streamed._frames.pid
        # the worker has ended, not yet reaped, before frame 1 is pulled
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        frames += [streamed.frame_block(j, j + 1) for j in range(1, k)]
        assert np.array_equal(np.concatenate(frames), stored.frames[:k])
        with pytest.raises(StepSizeError, match=f"at frame {k}"):
            streamed.frame_block(k, k + 1)
        assert checks == []
        assert_reaped(pid)
        with pytest.raises(FrameAccessError, match="closed"):
            streamed.frame_block(k, k + 1)

    @pytest.mark.parametrize("where", ["worker", "in-process"])
    def test_pull_after_a_failed_propagation_raises(self, monkeypatch,
                                                   where):
        # the pull that meets the failure raises it and closes the stream,
        # so a later pull raises FrameAccessError on both paths; in process
        # the spent iterator raised a bare StopIteration
        def failing(amp, grid, cfg):
            raise StepSizeError("norm check failed")

        monkeypatch.setattr(qgrid, "_check_norm_drift", failing)
        if where == "in-process":
            monkeypatch.setattr(os, "fork",
                                mock.Mock(side_effect=BlockingIOError))
        streamed = evolve_stream(*STREAM_ARGS)
        with pytest.raises(StepSizeError, match="norm check failed"):
            streamed.frame_block(0, 4)
        assert (streamed._frames.pid is None) == (where == "in-process")
        with pytest.raises(FrameAccessError, match="closed"):
            streamed.frame_block(0, 4)

    def test_killed_worker_raises_oserror(self):
        # 101 frames of 16 KiB overfill the 1 MiB pipe: the worker is
        # still running when it is killed, and the frames run out short
        psi = WaveFunction.gaussian(Grid1D(-20.0, 20.0, 1024), momentum=2.0)
        streamed = evolve_stream(psi, PotentialModel("free"),
                                 PropagatorConfig(0.002, steps_per_output=1),
                                 0.2)
        streamed.frame_block(0, 1)
        pid = streamed._frames.pid
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(OSError, match=f"code -{signal.SIGKILL:d}"):
            streamed.frame_block(1, len(streamed.times))
        assert_reaped(pid)

    def test_dropped_half_read_stream_reaps_its_worker(self, forks):
        # an RK4 pass holds its own velocity field and nothing holds the
        # pass, so with the cyclic collector off, dropping a pass and its
        # evolution 8 frames into 51 still stops and reaps the worker at once
        gc.disable()
        try:
            streamed = evolve_stream(*STREAM_ARGS)
            frames = bohm.rk4_frames(streamed, np.linspace(-1.0, 1.0, 5))
            for _ in range(8):
                next(frames)
            assert len(forks) == 1
            del streamed, frames
            assert_reaped(forks[0])
        finally:
            gc.enable()
