import math

import numpy as np
import pytest

from mathieu_cert.averaging import build_transform, build_u1, build_u2_u3
from mathieu_cert.bounds import (
    c_matrix_nodes,
    compute_bound_chain,
    eq19_sup,
    h2_nodes,
    script_c_positivity,
)
from mathieu_cert.floquet_lyapunov import (
    deviation_matrizant,
    solve_constant_lyapunov,
    spectral_norm_2x2,
    spectral_radius_from_deviation,
    spectral_radius_linear_system,
)
from mathieu_cert.model import LinearizedSystem, system_matrix_entries
from mathieu_cert.periodic_signal import PeriodicSignal, QuadratureGrid

from conftest import TWO_PI

SIN = PeriodicSignal(TWO_PI, ((1, 0.0, 1.0),))
GRID = QuadratureGrid(TWO_PI, 2048)


def chain_for(beta_hat=-0.25, alpha=0.1, phi_hat=SIN, mu_cap=1.0):
    lin = LinearizedSystem(alpha=alpha, beta_hat=beta_hat, phi_hat=phi_hat, period=TWO_PI)
    tr = build_transform(lin, GRID)
    u1 = build_u1(lin, tr)
    h1 = solve_constant_lyapunov(u1)
    return lin, tr, u1, h1, compute_bound_chain(lin, tr, u1, h1, mu_cap=mu_cap)


def l1_reference(norm_h1, norm_u1, t, a, phi_max):
    # independent transcription of the same formula, different structure
    inner = 0.5 + phi_max * t
    outer = 1.0 + a + t
    block = outer * inner
    return 2.0 * norm_h1 * t * block * (norm_u1 + block)


def l2_reference(norm_h1, t, phi_max, a, mu1):
    return (
        norm_h1
        * (t ** 2) ** 2
        * phi_max ** 2
        * (1.0 + phi_max * t)
        * (1.0 + 2.0 * mu1 * t * (1.0 + a + t) * (0.5 + phi_max * t))
    )


class TestBoundChain:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_gives_an_empty_range(self):
        # U1 has entries of order phi^2 = 1e200, whose squares in the norm
        # overflowed with a RuntimeWarning; an infinite norm is conservative
        _, _, _, _, chain = chain_for(phi_hat=PeriodicSignal(TWO_PI, ((1, 0.0, 1e100),)))
        assert chain.norm_u1 == chain.L1 == math.inf
        assert chain.mu0 == 0.0

    def test_mu_bar(self, chain):
        assert chain.phi_max == pytest.approx(1.0, abs=1e-9)
        assert chain.mu_bar == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-7)

    def test_a_const_resolution(self, chain):
        # magnitude reading (used) vs literal signed max (reported)
        assert chain.a_const == 0.25
        assert chain.a_const_signed == 0.1

    def test_transcription_guard(self, chain):
        ref1 = l1_reference(chain.norm_h1, chain.norm_u1, TWO_PI, chain.a_const, chain.phi_max)
        assert chain.L1 == pytest.approx(ref1, rel=1e-12)
        ref2 = l2_reference(chain.norm_h1, TWO_PI, chain.phi_max, chain.a_const, chain.mu1)
        assert chain.L2 == pytest.approx(ref2, rel=1e-12)
        assert chain.mu1 == min(chain.mu_bar, 1.0 / (8.0 * chain.L1))
        assert chain.mu0 == min(chain.mu1, 1.0 / (2.0 * math.sqrt(chain.L2)))

    def test_monotone(self, chain):
        assert 0.0 < chain.mu0 <= chain.mu1 <= chain.mu_bar

    @pytest.mark.parametrize("beta_hat,alpha", [(-0.1, 0.05), (-0.4, 0.5), (-0.49, 0.01)])
    def test_monotone_other_parameters(self, beta_hat, alpha):
        *_, ch = chain_for(beta_hat=beta_hat, alpha=alpha)
        assert 0.0 < ch.mu0 <= ch.mu1 <= ch.mu_bar

    def test_zero_forcing_capped(self):
        # without forcing the averaged matrix of an inverted-type system is
        # never Hurwitz, so the capped branch is driven with a synthetic
        # stable pair
        lin = LinearizedSystem(
            alpha=2.0, beta_hat=-1.0, phi_hat=PeriodicSignal(TWO_PI, ()), period=TWO_PI
        )
        tr = build_transform(lin, GRID)
        u1 = np.array([[0.0, 1.0], [-1.0, -2.0]])
        h1 = solve_constant_lyapunov(u1)
        ch = compute_bound_chain(lin, tr, u1, h1)
        assert ch.mu_bar == 1.0 and ch.mu_bar_capped
        assert ch.L2 == 0.0 and ch.mu0 == ch.mu1
        ch2 = compute_bound_chain(lin, tr, u1, h1, mu_cap=0.25)
        assert ch2.mu_bar == 0.25

    def test_certified_range_is_stable(self, lin, transform, chain):
        # the whole certified interval must pass the monodromy test
        for mu in np.geomspace(chain.mu0 / 100.0, chain.mu0, 4):
            assert spectral_radius_linear_system(lin, transform, float(mu)) < 1.0
        _, z = deviation_matrizant(system_matrix_entries(lin, chain.mu0), TWO_PI, 4096)
        assert spectral_radius_from_deviation(z[-1], -lin.alpha * chain.mu0 * TWO_PI) < 1.0


class TestCorrectionMatrices:
    def test_c_at_zero_is_identity(self, lin, transform, h1):
        ts = build_u2_u3(lin, transform, 1e-4)
        nodes, c = c_matrix_nodes(ts, h1)
        np.testing.assert_allclose(c[0], np.eye(2), atol=1e-14)

    def test_zero_forcing_keeps_identity(self):
        # U2 = U3 = 0 when the forcing vanishes, so corrections disappear
        lin = LinearizedSystem(
            alpha=2.0, beta_hat=-1.0, phi_hat=PeriodicSignal(TWO_PI, ()), period=TWO_PI
        )
        tr = build_transform(lin, GRID)
        h1 = solve_constant_lyapunov(np.array([[0.0, 1.0], [-1.0, -2.0]]))
        ts = build_u2_u3(lin, tr, 0.1)
        _, c = c_matrix_nodes(ts, h1)
        assert np.max(np.abs(c - np.eye(2))) < 1e-12

    def test_correction_stays_small_at_mu1(self, lin, transform, h1, chain):
        ts = build_u2_u3(lin, transform, chain.mu1)
        assert eq19_sup(ts, h1) <= 0.25 + 1e-9

    @pytest.mark.parametrize("which", ["mu1", "mu0"])
    def test_c_floor(self, lin, transform, h1, chain, which):
        mu = getattr(chain, which)
        ts = build_u2_u3(lin, transform, mu)
        _, c = c_matrix_nodes(ts, h1)
        eigs = np.linalg.eigvalsh(c)
        assert eigs.min() > 0.75 - 1e-9

    @pytest.mark.parametrize("frac", [0.1, 0.5, 1.0])
    def test_script_c_floor(self, lin, transform, h1, chain, frac):
        ts = build_u2_u3(lin, transform, frac * chain.mu0)
        ok, min_eig = script_c_positivity(ts, h1)
        assert ok, min_eig
        assert min_eig >= 0.5 - 1e-9

    def test_h2_vanishes_at_zero(self, lin, transform, h1):
        ts = build_u2_u3(lin, transform, 1e-4)
        _, h2 = h2_nodes(ts, h1)
        np.testing.assert_allclose(h2[0], np.zeros((2, 2)), atol=1e-15)

    def test_explicit_solution_satisfies_transformed_bvp(self, lin, transform, h1, chain):
        # scriptH = H1/mu - H2 solves d/dt scriptH + mu scriptH (U1+U2)
        # + mu (U1+U2)^T scriptH = -C(t,mu) by construction; checking the
        # residual on the grid ties H2, C and the cumulative integrals
        # together through one identity
        mu = chain.mu0
        ts = build_u2_u3(lin, transform, mu)
        nodes, h2 = h2_nodes(ts, h1)
        _, c = c_matrix_nodes(ts, h1)
        script_h = h1[None, :, :] / mu - h2
        u12 = ts.u1 + ts.u2_at(nodes)
        h = transform.grid.step
        d_script = (script_h[2:] - script_h[:-2]) / (2.0 * h)
        mid_h, mid_u, mid_c = script_h[1:-1], u12[1:-1], c[1:-1]
        residual = (
            d_script
            + mu * (mid_h @ mid_u + np.transpose(mid_u, (0, 2, 1)) @ mid_h)
            + mid_c
        )
        scale = 1.0 + np.abs(script_h[1:-1]).max(axis=(1, 2))
        rel = np.abs(residual).max(axis=(1, 2)) / scale
        # central differencing dominates: O(h^2) on O(1)-curvature entries
        assert float(np.max(rel)) < 1e-5
        # the periodic boundary value is H1/mu exactly
        np.testing.assert_allclose(script_h[0], h1 / mu, rtol=1e-14)
        np.testing.assert_allclose(script_h[-1], h1 / mu, rtol=1e-9)


class TestNormBounds:
    @pytest.mark.parametrize("frac", [1.0 / 3.0, 1.0])
    def test_u2_u3_dominated(self, lin, transform, chain, frac):
        mu = frac * chain.mu_bar
        ts = build_u2_u3(lin, transform, mu)
        t, phi_max, a = TWO_PI, chain.phi_max, chain.a_const
        u2_bound = (1.0 + a + t) * (0.5 + phi_max * t)
        u3_bound = phi_max ** 2 * t ** 4 / 2.0 * (1.0 + phi_max * t)
        nodes = transform.grid.nodes
        u2 = ts.u2_at(nodes)
        u3 = ts.u3_at(nodes)
        assert max(spectral_norm_2x2(m) for m in u2) <= u2_bound + 1e-9
        assert max(spectral_norm_2x2(m) for m in u3) <= u3_bound + 1e-9
