from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     build_hamiltonian, evolve_store, expectation,
                     momentum_operator, position_operator, propagate, qgrid)
from bohmlab.bohm import grid_velocity, quantum_potential, read_at
from bohmlab.errors import FrameAccessError, HorizonError, NodeError
from bohmlab.intrinsics import dwell_time_density
from bohmlab.qgrid import node_mask, window_weights
from bohmlab.weakval import (aav_weak_value, dwell_operator_field,
                             dwell_operator_state, dwell_weak_value,
                             grid_weak_value, local_energy, weak_average)


@pytest.fixture
def grid():
    return Grid1D(-30.0, 30.0, 512)


# hypothesis draws of a 2-3 packet superposition on a random grid, evolved
# under one of the four potentials, for the paper's pointwise identities
RANDOM_STATES = dict(
    n=st.integers(64, 512),
    packets=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.6, 2.0),
                               st.floats(-2.5, 2.5), st.floats(0.2, 1.0)),
                     min_size=2, max_size=3),
    kind=st.sampled_from(PotentialModel.KINDS),
    strength=st.floats(0.2, 1.0), duration=st.floats(0.0, 1.0),
    mass=st.floats(0.5, 2.0), hbar=st.floats(0.5, 2.0))


def random_state(n, packets, kind, strength, duration, mass, hbar):
    """(psi, potential) of one RANDOM_STATES draw."""
    grid = Grid1D(-20.0, 20.0, n)
    amp = sum(np.sqrt(w) * WaveFunction.gaussian(grid, c, s, k, hbar)
              .amplitudes for c, s, k, w in packets)
    params = {"free": {}, "barrier": {"height": 3 * strength, "left": 1.0,
                                      "right": 4.0},
              "harmonic": {"omega": strength},
              "drive": {"amplitude": strength}}[kind]
    pot = PotentialModel(kind, mass=mass, **params)
    psi = propagate(WaveFunction(grid, amp).normalize(), pot,
                    PropagatorConfig(0.005), duration, mass, hbar)
    return psi, pot


class TestWeakValue:
    def test_momentum_on_gaussian(self, grid):
        # (p psi)(x)/psi(x) = hbar k0 + i hbar x / (2 sigma^2), exactly
        k0, sigma = 2.0, 1.3
        psi = WaveFunction.gaussian(grid, width=sigma, momentum=k0)
        p = momentum_operator(grid)
        xs = np.array([-1.5, 0.0, 0.8, 2.1])
        wv = aav_weak_value(p, psi, xs)
        assert np.allclose(wv.real, k0, atol=1e-8)
        assert np.allclose(wv.imag, xs / (2 * sigma ** 2), atol=1e-8)

    def test_position_weak_value_is_postselection(self, grid):
        psi = WaveFunction.gaussian(grid, center=1.0)
        xop = position_operator(grid)
        for x in (-0.7, 0.4, 2.2):
            wv = aav_weak_value(xop, psi, x)
            assert wv == pytest.approx(x, abs=5e-6)
            # numpy's complex division, not Python's, for a scalar x too
            assert isinstance(wv, np.complex128)

    def test_momentum_weak_value_matches_bohm_velocity(self, grid):
        # Re[p_w]/m is the guidance velocity, by construction of both
        psi0 = WaveFunction.gaussian(grid, width=1.0, momentum=1.0)
        from bohmlab import propagate
        psi = propagate(psi0, PotentialModel("free"), PropagatorConfig(0.005), 1.0)
        p = momentum_operator(grid)
        xs = np.array([-0.5, 1.0, 2.5])
        assert np.allclose(np.real(aav_weak_value(p, psi, xs)),
                           read_at(psi, grid_velocity(psi), xs), atol=1e-7)

    @settings(max_examples=30)
    @given(**RANDOM_STATES)
    def test_momentum_weak_value_is_mass_times_bohm_velocity(
            self, n, packets, kind, strength, duration, mass, hbar):
        # the paper's momentum identity Re[(p psi)/psi] = m v_Bohm on random
        # grids and superpositions evolved under each potential; p psi comes
        # from p's eigenbasis, not from the FFT derivative of the velocity
        psi, _ = random_state(n, packets, kind, strength, duration, mass, hbar)
        grid = psi.grid
        p = momentum_operator(grid, hbar)
        p_psi = p.eigenvectors() @ (p.eigenvalues() * p.coefficients(psi))
        dens = psi.density()
        away = dens >= 1e-6 * dens.max()  # away from nodes
        m_v = mass * grid_velocity(psi, mass, hbar)[away]
        wv = np.real(p_psi[away] / psi.amplitudes[away])
        assert np.max(np.abs(wv - m_v)) <= 1e-8 * max(1.0, np.max(np.abs(m_v)))

    def test_node_postselection_rejected(self, grid):
        a = WaveFunction.gaussian(grid, center=-3.0).amplitudes
        b = WaveFunction.gaussian(grid, center=3.0).amplitudes
        psi = WaveFunction(grid, a - b).normalize()
        with pytest.raises(NodeError):
            aav_weak_value(momentum_operator(grid), psi, 0.0)


class TestLocalEnergy:
    def test_plane_wave(self, grid):
        k = grid.k[8]
        psi = WaveFunction(grid, np.exp(1j * k * grid.x)).normalize()
        e = local_energy(psi, PotentialModel("free"), 0.0)
        assert e == pytest.approx(k ** 2 / 2, abs=1e-9)

    def test_eigenstate_is_flat(self, grid):
        pot = PotentialModel("harmonic", omega=1.0)
        h = build_hamiltonian(grid, pot)
        psi = WaveFunction(grid, h.eigenvectors()[:, 1])
        xs = np.array([-1.8, -0.3, 0.6, 1.4])  # avoid the node at x = 0
        assert np.allclose(local_energy(psi, pot, xs), 1.5, atol=1e-6)

    def test_decomposition(self, grid):
        # local energy = Q + m v^2/2 + V pointwise
        pot = PotentialModel("harmonic", omega=0.5)
        psi = WaveFunction.gaussian(grid, center=2.0, momentum=1.0)
        xs = np.array([-1.0, 0.5, 2.0, 3.5])
        le = local_energy(psi, pot, xs)
        q = read_at(psi, quantum_potential(psi), xs)
        v = read_at(psi, grid_velocity(psi), xs)
        assert np.allclose(le, q + 0.5 * v ** 2 + pot.values(xs), atol=2e-5)

    @settings(max_examples=30)
    @given(**RANDOM_STATES)
    def test_local_energy_is_q_plus_kinetic_plus_potential(
            self, n, packets, kind, strength, duration, mass, hbar):
        # the paper's energy identity Re[(H psi)/psi] = Q + m v^2/2 + V on
        # random grids and superpositions evolved under each potential.  H psi
        # is the Hamiltonian's, Q and v are bohm's; both sides are exact for
        # the band-limited psi, so what is left is rounding: eps = 2.2e-16
        # over FFTs of log2(n) <= 9 stages, divided by |psi| >= 1e-3 max|psi|
        # away from nodes, times hbar^2/2m <= 4 and k^2 <= 1e2 on the
        # packets' band, about 1e-9; a Q taken from R = |psi| instead rings
        # at every node, and misses by O(1) of the scale
        psi, pot = random_state(n, packets, kind, strength, duration, mass,
                                hbar)
        grid = psi.grid
        h = build_hamiltonian(grid, pot, psi.time, mass, hbar)
        dens = psi.density()
        away = dens >= 1e-6 * dens.max()  # away from nodes
        le = np.real(h.apply(psi.amplitudes)[away] / psi.amplitudes[away])
        rhs = (quantum_potential(psi, mass, hbar)
               + 0.5 * mass * grid_velocity(psi, mass, hbar) ** 2
               + pot.values(grid.x, psi.time))[away]
        assert np.max(np.abs(le - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(le)))


class TestEnsembleAverage:
    def test_quadrature_is_expectation(self, grid):
        k0 = 1.7
        p = momentum_operator(grid)
        psi = WaveFunction.gaussian(grid, momentum=k0)
        wv = grid_weak_value(p.apply(psi.amplitudes), psi.amplitudes)
        assert weak_average(psi, wv) == pytest.approx(k0, abs=1e-10)

    @pytest.mark.parametrize("name", ["position", "momentum", "hamiltonian"])
    def test_weak_average_is_expectation_across_a_node(self, grid, name):
        # integral |psi|^2 Re[(S psi)/psi] dx = <S>, with the NaN weak value
        # at the node left out of the sum
        def packet(center, k):
            return WaveFunction.gaussian(grid, center=center, momentum=k).amplitudes

        amp = packet(-3.0, 1.0) - packet(3.0, 1.0) + 0.5 * packet(10.0, -1.0)
        psi = WaveFunction(grid, amp).normalize()
        assert node_mask(psi.amplitudes)[np.argmin(np.abs(grid.x))]  # x = 0
        op = {"position": position_operator(grid),
              "momentum": momentum_operator(grid),
              "hamiltonian": build_hamiltonian(
                  grid, PotentialModel("harmonic", omega=0.5))}[name]
        wv = grid_weak_value(op.apply(psi.amplitudes), psi.amplitudes)
        assert np.isnan(wv).any()
        assert weak_average(psi, wv) == pytest.approx(expectation(op, psi),
                                                      rel=1e-10, abs=1e-12)

    @settings(max_examples=30)
    @given(**RANDOM_STATES,
           name=st.sampled_from(["position", "momentum", "hamiltonian"]))
    def test_weak_average_is_expectation_on_random_states(
            self, n, packets, kind, strength, duration, mass, hbar, name):
        # integral |psi|^2 Re[(S psi)/psi] dx = <psi|S|psi> on random grids
        # and superpositions, with H under the draw's potential at psi's time
        psi, pot = random_state(n, packets, kind, strength, duration, mass, hbar)
        grid = psi.grid
        op = {"position": lambda: position_operator(grid),
              "momentum": lambda: momentum_operator(grid, hbar),
              "hamiltonian": lambda: build_hamiltonian(
                  grid, pot, psi.time, mass, hbar)}[name]()
        s_psi = op.apply(psi.amplitudes)
        scale = np.sum(np.abs(psi.amplitudes * s_psi)) * grid.dx
        assert weak_average(psi, grid_weak_value(s_psi, psi.amplitudes)) \
            == pytest.approx(expectation(op, psi), rel=1e-10, abs=1e-12 * scale)


class TestDwellOperator:
    CFG = PropagatorConfig(0.005, steps_per_output=4)

    def make_packet(self, grid):
        return WaveFunction.gaussian(grid, center=-8.0, width=1.0, momentum=5.0)

    def evolve(self, psi0, cfg=CFG, potential=PotentialModel("free"),
               region=(-2.0, 2.0)):
        return evolve_store(psi0, potential, cfg, 4.0,
                            window=window_weights(psi0.grid, *region))

    def test_quadrature_matches_density_formula(self, grid):
        # <psi0|D|psi0> = integral_0^T dt integral_a^b |psi(x,t)|^2 dx
        psi0 = self.make_packet(grid)
        horizon = 4.0
        ev = self.evolve(psi0)
        d_psi = dwell_operator_state(ev, horizon)
        quad = float(np.real(np.vdot(psi0.amplitudes, d_psi)) * grid.dx)

        density_formula = dwell_time_density(ev, horizon)
        assert quad == pytest.approx(density_formula, rel=1e-6)
        # the packet crosses a width-4 window at speed 5 (plus spreading)
        assert quad == pytest.approx(0.8, rel=0.05)

    def test_hermitian_between_two_packets(self, grid):
        psi0 = self.make_packet(grid)
        phi = WaveFunction.gaussian(grid, center=-6.0, width=1.3, momentum=5.0)
        horizon = 4.0
        d_psi = dwell_operator_state(self.evolve(psi0), horizon)
        d_phi = dwell_operator_state(self.evolve(phi), horizon)
        lhs = np.vdot(phi.amplitudes, d_psi) * grid.dx
        rhs = np.conj(np.vdot(psi0.amplitudes, d_phi)) * grid.dx
        assert abs(lhs - rhs) < 1e-10

    def test_weak_value_positive_along_packet(self, grid):
        ev = self.evolve(self.make_packet(grid))
        field = dwell_operator_field(ev, 4.0, self.CFG)
        wv = field[np.argmin(np.abs(grid.x + 8.0))]
        assert 0.5 < wv < 1.2  # near width/speed = 0.8 for the packet core

    def test_horizon_too_short(self, grid):
        # the packet is still inside the window at the stored frame t = 1
        ev = self.evolve(self.make_packet(grid))
        with pytest.raises(HorizonError):
            dwell_operator_state(ev, 1.0)

    @pytest.mark.parametrize("reader", [
        lambda ev: dwell_time_density(ev, 4.0), dwell_weak_value,
        lambda ev: dwell_operator_state(ev, 4.0)],
        ids=["density", "weak-value", "operator-state"])
    def test_windowless_evolution_raises(self, grid, reader):
        # the dwell readers take the window the frames were made with
        ev = evolve_store(self.make_packet(grid), PotentialModel("free"),
                          self.CFG, 4.0)
        with pytest.raises(FrameAccessError, match="without a window"):
            reader(ev)

    def test_horizon_rule_shared_with_density(self, grid):
        # both density-based estimators judge the same |psi|^2 region mass
        ev = self.evolve(self.make_packet(grid))

        def raises(fn, *args):
            try:
                fn(*args)
            except HorizonError:
                return True
            return False

        horizons = [float(t) for t in ev.times[150::5]]
        density = [raises(dwell_time_density, ev, h) for h in horizons]
        operator = [raises(dwell_operator_state, ev, h) for h in horizons]
        assert density == operator
        assert density[0] and not density[-1]

    def test_horizon_before_last_frame_uses_its_prefix(self, grid):
        region = (-6.0, -2.0)
        ev = self.evolve(self.make_packet(grid), region=region)
        short = evolve_store(self.make_packet(grid), PotentialModel("free"),
                             self.CFG, 3.0, window=window_weights(grid, *region))
        assert np.array_equal(dwell_operator_state(ev, 3.0),
                              dwell_operator_state(short, 3.0))

    def test_backward_sweep_takes_the_forward_step(self, grid, monkeypatch):
        # a horizon shorter than the evolution: re-deriving the step as
        # horizon / (frames * steps_per_output) gives 0.0024999999999999996,
        # so the sweep would not invert the stored 0.0025 forward step
        grid = Grid1D(-40.0, 40.0, 512)
        cfg = PropagatorConfig(0.0025, steps_per_output=8)
        steps, init = [], qgrid.Stepper.__init__

        def recording(stepper, grid, potential, dt, mass, hbar):
            steps.append(dt)
            init(stepper, grid, potential, dt, mass, hbar)

        monkeypatch.setattr(qgrid.Stepper, "__init__", recording)
        ev = evolve_store(self.make_packet(grid), PotentialModel("free"), cfg,
                          5.0, window=window_weights(grid, -2.0, 2.0))
        dwell_operator_state(ev, 4.6)
        assert steps == [0.0025, -0.0025] and ev.dt == 0.0025

    def test_backward_sweep_takes_the_evolutions_method(self, grid,
                                                        monkeypatch):
        # every step of the sweep is the evolution's Strang step at -ev.dt,
        # taken steps_per_output times for each of the horizon's 200 frames
        ev = self.evolve(self.make_packet(grid))
        step, steps = qgrid.Stepper.step, []

        def recording(stepper, amp, t):
            steps.append(stepper.dt)
            return step(stepper, amp, t)

        monkeypatch.setattr(qgrid.Stepper, "step", recording)
        dwell_operator_state(ev, 4.0)
        assert steps == [-ev.dt] * (4 * 200) and ev.dt == 0.005

    def test_field_does_not_read_cfg(self, grid):
        cfg = PropagatorConfig(0.005, steps_per_output=8)
        ev = self.evolve(self.make_packet(grid), cfg)
        other = replace(cfg, dt=0.01, steps_per_output=4)
        assert np.array_equal(dwell_operator_field(ev, 4.0, cfg),
                              dwell_operator_field(ev, 4.0, other),
                              equal_nan=True)

    def test_steps_per_frame_come_from_the_evolution(self, grid):
        # the sweep takes round(frame_dt / dt) steps a frame, 8 here, with
        # no argument that could say otherwise
        grid = Grid1D(-40.0, 40.0, 512)
        cfg = PropagatorConfig(0.0025, steps_per_output=8)
        psi0 = self.make_packet(grid)
        ev = evolve_store(psi0, PotentialModel("free"), cfg, 5.0,
                          window=window_weights(grid, -2.0, 2.0))
        d_psi = dwell_operator_state(ev, 5.0)
        quad = float(np.real(np.vdot(psi0.amplitudes, d_psi)) * grid.dx)
        assert quad == pytest.approx(
            dwell_time_density(ev, 5.0), rel=1e-6)
        assert quad == pytest.approx(0.80825, abs=1e-5)

    def test_driven_potential_quadrature_matches_density(self, grid):
        # the sweep steps back from each frame's own time, so it inverts the
        # forward steps of a field that varies in time too: a driven packet
        # has every estimate, and <psi0|D|psi0> is the density quadrature
        psi0 = self.make_packet(grid)
        pot = PotentialModel("drive", profile=lambda t: 0.5 * np.cos(2.0 * t))
        ev = self.evolve(psi0, potential=pot)
        d_psi = dwell_operator_state(ev, 4.0)
        quad = complex(np.vdot(psi0.amplitudes, d_psi) * grid.dx)
        assert quad.real == pytest.approx(
            dwell_time_density(ev, 4.0), rel=1e-6)
        assert abs(quad.imag) < 1e-10


# hypothesis draws of the dwell operator's inputs: two packets that cross a
# random window and have left it by the horizon, under one of the four
# potentials.  The drive's field varies in time, so a sweep that steps from
# the wrong times misses; the barrier stands past the window, far enough
# that what it reflects is not back in the window by the horizon
DWELL_DRAWS = dict(
    n=st.integers(256, 512),
    packets=st.lists(st.tuples(st.floats(-10.0, -8.0), st.floats(1.0, 1.5),
                               st.floats(6.0, 7.5)), min_size=2, max_size=2),
    a=st.floats(-4.0, 2.0), width=st.floats(0.5, 3.0),
    kind=st.sampled_from(PotentialModel.KINDS),
    strength=st.floats(0.1, 0.5), frequency=st.floats(1.0, 3.0),
    spo=st.integers(2, 8))


class TestDwellOperatorIdentities:
    HORIZON = 4.0

    @settings(max_examples=20)
    @given(**DWELL_DRAWS)
    def test_hermitian_and_diagonal_is_density(self, n, packets, a, width,
                                               kind, strength, frequency,
                                               spo):
        # <phi|D psi> = conj<psi|D phi>, and Re<psi|D|psi> is the density
        # quadrature on psi's frames.  D is a sum of products of Strang
        # steps, each unitary and inverted by its backward step to a few
        # eps per step (two FFTs of log2(n) <= 9 stages and two phase
        # products), and |D| <= T: over the S = 400 to 406 steps each way
        # the rounding stays below 400 * 1e-15 * T = 1.6e-12, 75 times the
        # largest miss drawn (2.1e-14, on a drive)
        grid = Grid1D(-30.0, 30.0, n)
        params = {"free": {}, "barrier": {"height": strength, "left": 14.0,
                                          "right": 15.0},
                  "harmonic": {"omega": strength / 5.0},
                  "drive": {"profile": lambda t: strength * np.cos(
                      frequency * t)}}[kind]
        pot = PotentialModel(kind, **params)
        cfg = PropagatorConfig(0.01, steps_per_output=spo)
        region = (a, a + width)
        evs = [evolve_store(WaveFunction.gaussian(grid, c, s, k), pot, cfg,
                            self.HORIZON, window=window_weights(grid, *region))
               for c, s, k in packets]
        (psi, d_psi), (phi, d_phi) = [
            (ev.initial.amplitudes, dwell_operator_state(ev, self.HORIZON))
            for ev in evs]
        bound = 400 * 1e-15 * self.HORIZON
        assert abs(np.vdot(phi, d_psi) - np.conj(np.vdot(psi, d_phi))) \
            * grid.dx <= bound
        diag = np.vdot(psi, d_psi) * grid.dx
        assert abs(diag.real - dwell_time_density(evs[0], self.HORIZON)) \
            <= bound
        assert abs(diag.imag) <= bound

    @settings(max_examples=10)
    @given(n=st.integers(256, 512), center=st.floats(-3.0, 0.0),
           sigma=st.floats(1.0, 1.5), k=st.floats(5.0, 6.0),
           a=st.floats(-4.0, -1.0), width=st.floats(1.0, 5.0),
           kind=st.sampled_from(["free", "barrier", "drive"]),
           strength=st.floats(0.1, 0.5), frequency=st.floats(1.0, 3.0),
           spo=st.integers(2, 8))
    def test_adjoint_weak_value_is_the_sweeps(self, n, center, sigma, k, a,
                                              width, kind, strength,
                                              frequency, spo):
        # the packet starts inside the window and has left it by the
        # horizon: the trapezoid of the forward overlaps Re<U phi0|A|U psi0>
        # (phi0 = psi0 zeroed at its nodes) is the backward sweep's
        # weak_average(psi0, Re[(D psi0)/psi0]); both are sums over 200 to
        # 204 unitary steps, each exact to a few eps: the largest miss in 40
        # random draws from these ranges was 1.5e-15
        grid = Grid1D(-40.0, 40.0, n)
        params = {"free": {}, "barrier": {"height": strength, "left": 14.0,
                                          "right": 15.0},
                  "drive": {"profile": lambda t: strength * np.cos(
                      frequency * t)}}[kind]
        pot = PotentialModel(kind, **params)
        cfg = PropagatorConfig(0.02, steps_per_output=spo)
        region = (a, a + width)
        psi = WaveFunction.gaussian(grid, center, sigma, k)
        ev = evolve_store(psi, pot, cfg, self.HORIZON,
                          window=window_weights(grid, *region))
        sweep = weak_average(psi, dwell_operator_field(ev, self.HORIZON, cfg))
        assert dwell_weak_value(ev) == pytest.approx(sweep, rel=1e-13, abs=0)
