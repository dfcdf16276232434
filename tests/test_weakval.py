from dataclasses import replace

import numpy as np
import pytest

from bohmlab import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                     build_hamiltonian, evolve_store, momentum_operator,
                     position_operator)
from bohmlab.bohm import velocity_field
from bohmlab.errors import ConfigurationError, HorizonError, NodeError
from bohmlab.weakval import (aav_weak_value, dwell_operator_field,
                             dwell_operator_state, local_energy,
                             weak_average_quadrature)


@pytest.fixture
def grid():
    return Grid1D(-30.0, 30.0, 512)


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
            assert aav_weak_value(xop, psi, x) == pytest.approx(x, abs=5e-6)

    def test_momentum_weak_value_matches_bohm_velocity(self, grid):
        # Re[p_w]/m is the guidance velocity, by construction of both
        psi0 = WaveFunction.gaussian(grid, width=1.0, momentum=1.0)
        from bohmlab import propagate
        psi = propagate(psi0, PotentialModel("free"), PropagatorConfig(0.005), 1.0)
        p = momentum_operator(grid)
        xs = np.array([-0.5, 1.0, 2.5])
        assert np.allclose(np.real(aav_weak_value(p, psi, xs)),
                           velocity_field(psi, xs), atol=1e-7)

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
        from bohmlab.bohm import quantum_potential
        pot = PotentialModel("harmonic", omega=0.5)
        psi = WaveFunction.gaussian(grid, center=2.0, momentum=1.0)
        xs = np.array([-1.0, 0.5, 2.0, 3.5])
        le = local_energy(psi, pot, xs)
        q = quantum_potential(psi, xs)
        v = velocity_field(psi, xs)
        assert np.allclose(le, q + 0.5 * v ** 2 + pot.values(xs), atol=2e-5)


class TestEnsembleAverage:
    def test_quadrature_is_expectation(self, grid):
        k0 = 1.7
        psi = WaveFunction.gaussian(grid, momentum=k0)
        assert weak_average_quadrature(momentum_operator(grid), psi) == \
            pytest.approx(k0, abs=1e-10)


class TestDwellOperator:
    CFG = PropagatorConfig(0.005, method="exact", steps_per_output=4)

    def make_packet(self, grid):
        return WaveFunction.gaussian(grid, center=-8.0, width=1.0, momentum=5.0)

    def evolve(self, psi0, cfg=CFG, potential=PotentialModel("free")):
        return evolve_store(psi0, potential, cfg, 4.0)

    @pytest.mark.parametrize("method", PropagatorConfig.METHODS)
    def test_quadrature_matches_density_formula(self, grid, method):
        # <psi0|D|psi0> = integral_0^T dt integral_a^b |psi(x,t)|^2 dx
        from bohmlab.intrinsics import dwell_time_density
        cfg = replace(self.CFG, method=method)
        psi0 = self.make_packet(grid)
        region, horizon = (-2.0, 2.0), 4.0
        ev = self.evolve(psi0, cfg)
        d_psi = dwell_operator_state(ev, region, horizon, cfg)
        quad = float(np.real(np.vdot(psi0.amplitudes, d_psi)) * grid.dx)

        density_formula = dwell_time_density(ev, region, horizon)
        assert quad == pytest.approx(density_formula, rel=1e-6)
        # the packet crosses a width-4 window at speed 5 (plus spreading)
        assert quad == pytest.approx(0.8, rel=0.05)

    @pytest.mark.parametrize("method", PropagatorConfig.METHODS)
    def test_hermitian_between_two_packets(self, grid, method):
        cfg = replace(self.CFG, method=method)
        psi0 = self.make_packet(grid)
        phi = WaveFunction.gaussian(grid, center=-6.0, width=1.3, momentum=5.0)
        region, horizon = (-2.0, 2.0), 4.0
        d_psi = dwell_operator_state(self.evolve(psi0, cfg), region, horizon, cfg)
        d_phi = dwell_operator_state(self.evolve(phi, cfg), region, horizon, cfg)
        lhs = np.vdot(phi.amplitudes, d_psi) * grid.dx
        rhs = np.conj(np.vdot(psi0.amplitudes, d_phi)) * grid.dx
        assert abs(lhs - rhs) < 1e-10

    def test_weak_value_positive_along_packet(self, grid):
        ev = self.evolve(self.make_packet(grid))
        field = dwell_operator_field(ev, (-2.0, 2.0), 4.0, self.CFG)
        wv = field[np.argmin(np.abs(grid.x + 8.0))]
        assert 0.5 < wv < 1.2  # near width/speed = 0.8 for the packet core

    def test_horizon_too_short(self, grid):
        # the packet is still inside the window at the stored frame t = 1
        ev = self.evolve(self.make_packet(grid))
        with pytest.raises(HorizonError):
            dwell_operator_state(ev, (-2.0, 2.0), 1.0, self.CFG)

    def test_horizon_before_last_frame_uses_its_prefix(self, grid):
        region = (-6.0, -2.0)
        ev = self.evolve(self.make_packet(grid))
        short = evolve_store(self.make_packet(grid), PotentialModel("free"),
                             self.CFG, 3.0)
        assert np.array_equal(dwell_operator_state(ev, region, 3.0, self.CFG),
                              dwell_operator_state(short, region, 3.0, self.CFG))

    def test_time_dependent_potential_rejected(self, grid):
        cfg = replace(self.CFG, method="split-operator")
        ev = self.evolve(self.make_packet(grid), cfg,
                         PotentialModel("drive", amplitude=0.1))
        with pytest.raises(ConfigurationError):
            dwell_operator_state(ev, (-2.0, 2.0), 4.0, cfg)
