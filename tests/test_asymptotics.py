import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiwalk.asymptotics import (PoissonBinomial,
                                   asymptotic_symbol, flux_expectations,
                                   node_correlations, node_profile,
                                   particle_number_distribution,
                                   ring_profile_closed_form,
                                   small_alpha_flux_rate,
                                   small_alpha_flux_rate_walk)
from fermiwalk.coupling import (CouplingError, CouplingSpec, Window, build_contraction,
                                decay_certificate, one_step_joint_operator)
from fermiwalk.environment import EnvironmentSpec, SymbolFunction, eval_series, hermitian_part
from fermiwalk.simulate import CovarianceState
from fermiwalk.walk import build_cycle_walk, cycle_star_vector, random_coin, rotation_coin


def rotation_walk(thetas):
    n = len(thetas)
    return build_cycle_walk(n, [rotation_coin(t) for t in thetas]), cycle_star_vector(n)


def env_m1(coeffs=(0.5, 0.0, 0.125)):
    return EnvironmentSpec(np.eye(1), [SymbolFunction(coeffs)])


def env_m2(c1=(0.5, 0.1, 0.05), c2=(0.3,), phase=0.7):
    U = np.diag([1.0, np.exp(1j * phase)])
    return EnvironmentSpec(U, [SymbolFunction(c1), SymbolFunction(c2)])


V2 = np.array([np.sqrt(0.4), np.sqrt(0.6)], dtype=complex)
THETAS4 = (0.3, 0.8, 1.2, 0.5)


def admissible_symbol(rng, degree, fill):
    """``c(0)`` in [0, 1] with ``2 sum_l |c(l)| = fill min(c0, 1 - c0)``, so ``0 <= 2 Re F <= 1``."""
    c0 = rng.uniform(0.0, 1.0)
    mags = 0.5 * fill * min(c0, 1.0 - c0) * rng.dirichlet(np.ones(degree)) if degree else ()
    return SymbolFunction((c0, *(r * np.exp(2j * np.pi * rng.uniform()) for r in mags)))


@st.composite
def random_instances(draw):
    """Haar ``W``, ``psi*``, ``U`` and ``v`` with admissible symbols: ``(env, W, coupling)``."""
    d, m = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    fill = draw(st.just(1.0) | st.floats(0.0, 1.0))
    alpha = draw(st.floats(0.05, np.pi - 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    W, psi = random_coin(d, rng), random_coin(d, rng)[:, 0]
    env = EnvironmentSpec(random_coin(m, rng),
                          [admissible_symbol(rng, degree, fill) for _ in range(m)])
    return env, W, CouplingSpec(alpha, random_coin(m, rng)[:, 0], psi)


def roundoff(d, spr):
    """Round-off allowance for closed-form quantities, scaled by the conditioning ``1/(1 - spr)``."""
    return 64 * d * np.finfo(float).eps / (1.0 - spr)


def open_affine_step(env, W, coup):
    """``(cov, A, J)``: the open covariance engine and its step ``Sigma -> A Sigma A* + J``.

    Built from the definition: ``A`` is the joint step ``T`` with the rows of
    the inflow site zeroed, ``J`` the inflow rows and columns of ``Sigma_0``.
    """
    window = Window(0, env.max_degree, env.m)
    cov = CovarianceState(window, env, W, coup)
    inflow = slice(window.env_dim - env.m, window.env_dim)
    A = one_step_joint_operator(window, env, W, coup)
    A[inflow] = 0.0
    J = np.zeros_like(cov.sigma)
    J[inflow] = cov.sigma[inflow]
    J[:, inflow] = cov.sigma[:, inflow]
    return cov, A, J


def stein_roundoff(N, C):
    """Round-off allowance for the fixed point and the states of ``Sigma -> A Sigma A* + J``.

    ``A`` is ``N x N`` with ``||A^t|| <= C q^t``, so a perturbation made at one
    step grows by at most ``C^2`` afterwards.
    """
    return 8 * N * np.finfo(float).eps * C ** 2


class TestAsymptoticSymbol:
    def test_constant_symbol_gives_scalar_state(self):
        W, psi = rotation_walk(THETAS4)
        env = env_m2((0.4,), (0.4,))
        state = asymptotic_symbol(env, W, CouplingSpec(np.pi / 4, V2, psi))
        assert np.linalg.norm(state.delta - 0.4 * np.eye(8)) <= 1e-12

    def test_small_coupling_limit(self):
        W, psi = rotation_walk(THETAS4)
        env = env_m1()
        limit = 2.0 * hermitian_part(eval_series(env.symbol_functions[0], W.conj().T))
        errs = []
        for alpha in (1e-2, 1e-3, 1e-4):
            state = asymptotic_symbol(env, W, CouplingSpec(alpha, np.array([1.0]), psi))
            errs.append(np.linalg.norm(state.delta - limit))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-7
        # the limiting symbol is invariant under the free sample dynamics
        assert np.linalg.norm(limit @ W - W @ limit) <= 1e-13

    def test_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            n = int(rng.choice([2, 4]))
            W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
            psi = cycle_star_vector(n)
            env = env_m2((0.5, 0.1, 0.05), (0.3, 0.0, 0.1))
            state = asymptotic_symbol(env, W, CouplingSpec(0.9, V2, psi))
            assert state.eigenvalues.min() >= -1e-10
            assert state.eigenvalues.max() <= 1.0 + 1e-10
            assert np.linalg.norm(state.delta - state.delta.conj().T) <= 1e-12

    def test_m1_delta_commutes_with_contraction(self):
        W, psi = rotation_walk(THETAS4)
        env = env_m1()
        state = asymptotic_symbol(env, W, CouplingSpec(0.9, np.array([1.0]), psi))
        Mstar = state.contraction.matrix.conj().T
        # polynomial in M* plus its adjoint: only the analytic half commutes
        analytic = eval_series(env.symbol_functions[0], Mstar)
        assert np.linalg.norm(analytic @ Mstar - Mstar @ analytic) <= 1e-12

    def test_accepts_every_v_the_coupling_accepts(self):
        # CouplingSpec admits ||v|| within 1e-10 of 1; the weights then sum to
        # ||v||^2 and the closed forms take them as they are
        v = V2 * (1.0 + 5e-11)
        W, psi = rotation_walk(THETAS4)
        coup = CouplingSpec(0.9, v, psi)
        state = asymptotic_symbol(env_m2(), W, coup)
        exact = asymptotic_symbol(env_m2(), W, CouplingSpec(0.9, V2, psi))
        assert np.abs(state.delta - exact.delta).max() <= 1e-9
        assert np.isfinite(flux_expectations(env_m2(), W, coup).phi).all()

    def test_refuses_non_contractive(self):
        env = env_m1()
        coup = CouplingSpec(0.9, np.array([1.0]), np.array([1.0, 0.0]))
        with pytest.raises(CouplingError, match="spr"):
            asymptotic_symbol(env, np.eye(2), coup)


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(random_instances())
    def test_delta_spectrum_in_unit_interval(self, instance):
        env, W, coup = instance
        state = asymptotic_symbol(env, W, coup)
        tol = roundoff(W.shape[0], state.contraction.spectral_radius)
        assert state.eigenvalues.min() >= -tol
        assert state.eigenvalues.max() <= 1.0 + tol

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(random_instances())
    def test_fluxes_balance(self, instance):
        env, W, coup = instance
        res = flux_expectations(env, W, coup)
        spr = build_contraction(W, coup.star(), coup.alpha).spectral_radius
        assert abs(res.total) <= roundoff(W.shape[0], spr)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(random_instances())
    def test_stein_fixed_point_is_delta(self, instance):
        env, W, coup = instance
        delta = asymptotic_symbol(env, W, coup).delta
        cov, A, J = open_affine_step(env, W, coup)
        X = scipy.linalg.solve_discrete_lyapunov(A, J)
        C, _ = decay_certificate(A)
        ne = cov.window.env_dim
        assert np.linalg.norm(X[ne:, ne:] - delta, 2) <= stein_roundoff(len(A), C)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(random_instances())
    def test_relaxation_bound(self, instance):
        # ||Sigma_S(t) - Delta|| <= C_A^2 q_A^(2t) from the empty sample, for 200 steps
        env, W, coup = instance
        delta = asymptotic_symbol(env, W, coup).delta
        cov, A, _ = open_affine_step(env, W, coup)
        C, q = decay_certificate(A)
        tol = stein_roundoff(len(A), C)
        for t in range(1, 201):
            cov.step()
            assert np.linalg.norm(cov.sample_block() - delta, 2) <= C ** 2 * q ** (2 * t) + tol


class TestPoissonBinomial:
    def test_two_fair_modes(self):
        pb = PoissonBinomial.from_parameters([0.5, 0.5])
        assert np.allclose(pb.pmf, [0.25, 0.5, 0.25])

    def test_empty_state(self):
        pb = PoissonBinomial.from_parameters(np.zeros(5))
        assert np.allclose(pb.pmf, [1.0, 0, 0, 0, 0, 0])

    def test_moment_identities(self):
        rng = np.random.default_rng(11)
        lam = rng.uniform(0.0, 1.0, size=8)
        pb = PoissonBinomial.from_parameters(lam)
        assert pb.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pb.pmf_mean() == pytest.approx(pb.mean(), abs=1e-12)
        assert pb.pmf_variance() == pytest.approx(pb.variance(), abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_pmf_moments_are_parameter_sums(self, lam):
        # mean sum p and variance sum p(1 - p); each convolution rounds once per entry
        pb = PoissonBinomial.from_parameters(lam)
        d = len(lam)
        tol = 4 * (d + 1) ** 2 * np.finfo(float).eps
        assert abs(pb.pmf.sum() - 1.0) <= tol
        assert abs(pb.pmf_mean() - pb.mean()) <= tol
        assert abs(pb.pmf_variance() - pb.variance()) <= tol

    def test_matches_subset_enumeration(self):
        # independent oracle: brute-force sum over occupation subsets
        rng = np.random.default_rng(12)
        lam = rng.uniform(0.0, 1.0, size=8)
        brute = np.zeros(9)
        for subset in itertools.product([0, 1], repeat=8):
            prob = np.prod([lam[i] if b else 1 - lam[i] for i, b in enumerate(subset)])
            brute[sum(subset)] += prob
        pb = PoissonBinomial.from_parameters(lam)
        assert np.allclose(pb.pmf, brute, atol=1e-13)

    def test_from_state(self):
        W, psi = rotation_walk(THETAS4)
        state = asymptotic_symbol(env_m1(), W, CouplingSpec(0.9, np.array([1.0]), psi))
        pb = particle_number_distribution(state)
        assert pb.mean() == pytest.approx(np.trace(state.delta).real, abs=1e-12)
        lam = state.eigenvalues
        assert pb.variance() == pytest.approx(float((lam * (1 - lam)).sum()), abs=1e-12)


class TestNodeProfile:
    def test_constant_symbol_profile(self):
        # two spin modes of density c0 at every vertex
        W, psi = rotation_walk(THETAS4)
        state = asymptotic_symbol(env_m1((0.4,)), W, CouplingSpec(0.7, np.array([1.0]), psi))
        assert np.allclose(node_profile(state), 2 * 0.4 * np.ones(4))

    @pytest.mark.parametrize("thetas,alpha", [
        (THETAS4, 0.3), (THETAS4, np.pi / 4),
        ((0.4, 1.1, 0.7, 1.3, 0.25, 0.9), 0.3),
        ((0.4, 1.1, 0.7, 1.3, 0.25, 0.9), np.pi / 4),
    ])
    def test_matches_closed_form(self, thetas, alpha):
        W, psi = rotation_walk(thetas)
        F = SymbolFunction((0.5, 0.07, 0.125))
        state = asymptotic_symbol(env_m1(F.coefficients), W,
                                  CouplingSpec(alpha, np.array([1.0]), psi))
        profile = node_profile(state)
        closed = ring_profile_closed_form(thetas, alpha, F)
        assert np.abs(profile - closed).max() <= 1e-10

    def test_quadratic_term_required_for_structure(self):
        thetas = THETAS4
        closed = ring_profile_closed_form(thetas, 0.5, SymbolFunction((0.5, 0.2)))
        assert np.allclose(closed, 2 * 0.5)

    def test_odd_coefficients_do_not_move_the_profile(self):
        rng = np.random.default_rng(13)
        for n, thetas in ((4, THETAS4), (6, (0.4, 1.1, 0.7, 1.3, 0.25, 0.9))):
            W, psi = rotation_walk(thetas)
            base = (0.5, 0.0, 0.1, 0.0)
            state0 = asymptotic_symbol(env_m1(base), W, CouplingSpec(0.8, np.array([1.0]), psi))
            p0 = node_profile(state0)
            for _ in range(3):
                c1 = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.03
                c3 = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.03
                perturbed = (0.5, c1, 0.1, c3)
                state1 = asymptotic_symbol(env_m1(perturbed), W,
                                           CouplingSpec(0.8, np.array([1.0]), psi))
                assert np.abs(node_profile(state1) - p0).max() <= 1e-12

    def test_requires_spin_half_cycle(self):
        # a raw walk on 3 modes has no spin-1/2 vertices
        W = random_coin(3, np.random.default_rng(15))
        state = asymptotic_symbol(env_m1(), W, CouplingSpec(0.7, np.array([1.0]), np.eye(3)[0]))
        for observable in (node_profile, node_correlations):
            with pytest.raises(CouplingError, match="cycle"):
                observable(state)


class TestNodeCorrelations:
    def test_constant_symbol_uncorrelated(self):
        W, psi = rotation_walk(THETAS4)
        state = asymptotic_symbol(env_m1((0.4,)), W, CouplingSpec(0.7, np.array([1.0]), psi))
        assert np.abs(node_correlations(state)).max() <= 1e-12

    def test_definite_sign(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            n = int(rng.choice([2, 4]))
            W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
            psi = cycle_star_vector(n)
            state = asymptotic_symbol(env_m1(), W, CouplingSpec(0.9, np.array([1.0]), psi))
            corr = node_correlations(state)
            assert corr.max() <= 1e-12
            assert np.allclose(corr, corr.T)


class TestFlux:
    def test_single_sector_carries_no_flux(self):
        W, psi = rotation_walk(THETAS4)
        res = flux_expectations(env_m1(), W, CouplingSpec(0.9, np.array([1.0]), psi))
        assert abs(res.phi[0]) <= 1e-12

    def test_flux_balance(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            W = build_cycle_walk(4, [random_coin(2, rng) for _ in range(4)])
            psi = cycle_star_vector(4)
            env = env_m2((0.5, 0.1 + 0.05j, 0.05), (0.3, 0.02, 0.1))
            w1 = rng.uniform(0.2, 0.8)
            v = np.array([np.sqrt(w1), np.sqrt(1 - w1)], dtype=complex)
            res = flux_expectations(env, W, CouplingSpec(0.9, v, psi))
            assert abs(res.total) <= 1e-10

    def test_sign_from_boundary_values(self):
        # denser sector 2 feeds sector 1: positive flux into sector 1
        W, psi = rotation_walk(THETAS4)
        env = env_m2((0.3,), (0.5,))
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        for alpha in (1e-2, 0.05, 0.1):
            res = flux_expectations(env, W, CouplingSpec(alpha, v, psi))
            assert res.phi[0] > 0 > res.phi[1]

    def test_constant_reservoir_rate(self):
        W, psi = rotation_walk(THETAS4)
        env = env_m2((0.3,), (0.5,))
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        rates = small_alpha_flux_rate(env, np.array([0.5, 0.5]))
        assert rates[0] == pytest.approx(0.5 * (0.25 - 0.15))
        alpha = 1e-3
        res = flux_expectations(env, W, CouplingSpec(alpha, v, psi))
        assert abs(res.phi[0] / alpha ** 2 - rates[0]) <= 0.01 * abs(rates[0])

    def test_walk_aware_rate_is_the_true_limit(self):
        W, psi = rotation_walk(THETAS4)
        env = env_m2()
        coup = CouplingSpec(1e-3, V2, psi)
        rates = small_alpha_flux_rate_walk(env, W, coup)
        res = flux_expectations(env, W, coup)
        assert np.abs(res.phi / 1e-6 - rates).max() <= 1e-3 * np.abs(rates).max()
        assert abs(rates.sum()) <= 1e-12

    def test_rate_balance_over_random_weights(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            env = env_m2((rng.uniform(0.2, 0.8), 0.1 * rng.standard_normal()),
                         (rng.uniform(0.2, 0.8),), phase=rng.uniform(0.3, 2.0))
            w1 = rng.uniform(0.1, 0.9)
            rates = small_alpha_flux_rate(env, np.array([w1, 1 - w1]))
            assert abs(rates.sum()) <= 1e-12

    def test_degenerate_weights_rejected(self):
        env = env_m2()
        with pytest.raises(CouplingError, match="strictly"):
            small_alpha_flux_rate(env, np.array([1.0, 0.0]))

    def test_simulated_flux_convergence(self):
        # deferred cross-engine check lives in test_simulate; here only the
        # closed form's internal consistency across alphas
        W, psi = rotation_walk(THETAS4)
        env = env_m2()
        phis = [flux_expectations(env, W, CouplingSpec(a, V2, psi)).phi
                for a in (0.2, 0.4)]
        assert abs(phis[1][0]) > abs(phis[0][0])


class TestMollerIdentity:
    def test_block_identity_for_two_sample_symbols(self):
        from fermiwalk.coupling import moller_sample_block
        from fermiwalk.environment import build_truncated_symbol
        W, psi = rotation_walk(THETAS4)
        env = env_m2()
        coup = CouplingSpec(np.pi / 4, V2, psi)
        state = asymptotic_symbol(env, W, coup)
        A, window = moller_sample_block(env, W, coup, tail_tol=1e-13)
        sigma_w = build_truncated_symbol(env, (window.a, window.b))
        # full joint column (reservoir block A, vanishing sample block)
        omega_col = np.vstack([A, np.zeros((8, 8), dtype=complex)])
        rng = np.random.default_rng(17)
        results = []
        for trial in range(2):
            basis = np.linalg.qr(rng.standard_normal((8, 8))
                                 + 1j * rng.standard_normal((8, 8)))[0]
            xi = basis @ np.diag(rng.uniform(0, 1, size=8)) @ basis.conj().T
            joint = np.zeros((sigma_w.shape[0] + 8,) * 2, dtype=complex)
            joint[:sigma_w.shape[0], :sigma_w.shape[0]] = sigma_w
            joint[sigma_w.shape[0]:, sigma_w.shape[0]:] = xi
            delta = omega_col.conj().T @ joint @ omega_col
            assert np.linalg.norm(delta - state.delta) <= 1e-8
            results.append(delta)
        assert np.linalg.norm(results[0] - results[1]) <= 1e-12
