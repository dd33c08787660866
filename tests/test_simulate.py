import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiwalk.asymptotics import PoissonBinomial, asymptotic_symbol, flux_expectations
from fermiwalk.coupling import (CouplingError, CouplingSpec, Window, build_contraction,
                                coupling_exponential, exchange_rotation,
                                one_step_joint_operator, shift_matrix)
from fermiwalk.environment import (EnvironmentSpec, SymbolFunction,
                                   build_truncated_symbol)
from fermiwalk.simulate import (CovarianceState, FockOracle, _annihilated, _mix_pair,
                                _occupations, _reflector, _sector_tables,
                                finite_time_pair_expectation, flux_finite_time,
                                gamma_blocks, gamma_columns, gamma_dense)
from fermiwalk.walk import (UNIT_NORM_TOL, build_cycle_walk, cycle_star_vector, random_coin,
                            rotation_coin)

THETAS4 = (0.3, 0.8, 1.2, 0.5)


def rotation_walk(thetas=THETAS4):
    n = len(thetas)
    return build_cycle_walk(n, [rotation_coin(t) for t in thetas]), cycle_star_vector(n)


def env_m1(coeffs=(0.5, 0.0, 0.125)):
    return EnvironmentSpec(np.eye(1), [SymbolFunction(coeffs)])


def env_m2():
    U = np.diag([1.0, np.exp(0.7j)])
    return EnvironmentSpec(U, [SymbolFunction((0.5, 0.1, 0.05)), SymbolFunction((0.3,))])


V2 = np.array([np.sqrt(0.4), np.sqrt(0.6)], dtype=complex)


def held_block(sigma, win, L):
    """The block of sites ``win.a..L`` and the sample of a joint matrix on the whole window."""
    keep = np.r_[:win.site_offset(L) + win.m, win.env_dim:sigma.shape[0]]
    return sigma[np.ix_(keep, keep)]


class TestCovarianceBasics:
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_block_step_matches_operator_conjugation(self, boundary):
        # the step equals dense T Sigma T* with the ring step on the whole
        # window, followed on the open window by restoring the site-b inflow
        # rows; the open state holds its sites a..L_max and the sample
        rng = np.random.default_rng(6)
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        env = EnvironmentSpec(U, [SymbolFunction((0.5, 0.1, 0.05)),
                                  SymbolFunction((0.3, 0.05j))])
        W, psi = rotation_walk((0.5, 1.1))
        v = env.eigenvectors @ np.array([np.sqrt(0.4), np.sqrt(0.6)])
        coup = CouplingSpec(0.9, v, psi)
        win = Window(-3, 6, 2)
        state = CovarianceState(win, env, W, coup, periodic=boundary == "periodic")
        T = one_step_joint_operator(win, env, W, coup)
        sigma0 = scipy.linalg.block_diag(build_truncated_symbol(env, (win.a, win.b)),
                                         np.zeros((4, 4)))
        inflow = slice(win.env_dim - 2, win.env_dim)
        ref = sigma0.copy()
        for _ in range(5):
            ref = T @ ref @ T.conj().T
            if boundary == "open":
                ref[inflow, :] = sigma0[inflow, :]
                ref[:, inflow] = sigma0[:, inflow]
        state.step(5)
        if boundary == "open":
            ref = held_block(ref, win, env.max_degree)
        assert np.abs(state.sigma - ref).max() <= 1e-14

    def test_uncoupled_sample_evolves_freely(self):
        W, psi = rotation_walk()
        env = env_m1()
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((8, 8))
                             + 1j * rng.standard_normal((8, 8)))[0]
        xi = basis @ np.diag(rng.uniform(0, 1, 8)) @ basis.conj().T
        coup = CouplingSpec(0.0, np.array([1.0]), psi)
        state = CovarianceState(Window(-3, 18, 1), env, W, coup, sample_symbol=xi)
        state.step(10)
        expected = np.linalg.matrix_power(W, 10) @ xi @ np.linalg.matrix_power(W.conj().T, 10)
        assert np.abs(state.sample_block() - expected).max() <= 1e-12

    def test_open_state_holds_sites_to_l_max_and_the_sample(self):
        # sites past L_max keep their Sigma_0 rows, so an open state on a
        # longer window holds (L_max - a + 1) m + d modes and no site past L_max
        W, psi = rotation_walk((0.5, 1.1))
        env = env_m2()
        coup = CouplingSpec(0.9, V2, psi)
        state = CovarianceState(Window(-4, 128, 2), env, W, coup)
        assert state.window == Window(-4, 2, 2)
        assert state.sigma.shape == (18, 18)
        state.step(3)
        assert state.sigma.shape == (18, 18)
        state.env_vector(2, [1.0, 0.0])
        with pytest.raises(CouplingError, match="outside window"):
            state.env_vector(3, [1.0, 0.0])

    @pytest.mark.parametrize("periodic", [False, True])
    def test_step_count_zero_or_negative(self, periodic):
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, V2, psi)
        state = CovarianceState(Window(-2, 2, 2), env_m2(), W, coup, periodic=periodic)
        sigma0 = state.sigma.copy()
        assert np.array_equal(state.step(0).sigma, sigma0) and state.t == 0
        with pytest.raises(CouplingError, match="-3 steps back"):
            state.step(-3)
        assert np.array_equal(state.sigma, sigma0) and state.t == 0

    def test_sample_symbol_outside_unit_interval_rejected(self):
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        xi = np.diag([1.1, 0.5, 0.0, 0.2])
        for periodic in (False, True):
            with pytest.raises(CouplingError, match="escapes"):
                CovarianceState(Window(-2, 2, 1), env_m1(), W, coup, periodic=periodic,
                                sample_symbol=xi)

    def test_positivity_preserved(self):
        W, psi = rotation_walk()
        env = env_m2()
        coup = CouplingSpec(0.9, V2, psi)
        state = CovarianceState(Window(0, 2, 2), env, W, coup)
        for _ in range(4):
            state.step(10)
            evals = np.linalg.eigvalsh(state.sigma)
            assert evals.min() >= -1e-10
            assert evals.max() <= 1.0 + 1e-10

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    @pytest.mark.parametrize("a", [0, -3])
    @pytest.mark.parametrize("extra", [0, 5])
    def test_open_window_is_exact(self, m, L, a, extra):
        # sites 0..L plus the sample match, at every step, the ring step's
        # conjugation on a window longer than the run, whose wrap cannot
        # reach them
        coeffs = (0.5,) + (0.05,) * L
        if m == 1:
            env, v = env_m1(coeffs), np.array([1.0])
        else:
            env = EnvironmentSpec(np.diag([1.0, np.exp(0.7j)]),
                                  [SymbolFunction(coeffs), SymbolFunction((0.3,))])
            v = V2
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, v, psi)
        rng = np.random.default_rng(11)
        basis = np.linalg.qr(rng.standard_normal((8, 8))
                             + 1j * rng.standard_normal((8, 8)))[0]
        xi = basis @ np.diag(rng.uniform(0, 1, 8)) @ basis.conj().T
        steps = 60
        state = CovarianceState(Window(a, L + extra, m), env, W, coup, sample_symbol=xi)
        long = Window(-1, L + steps + 1, m)
        T = one_step_joint_operator(long, env, W, coup)
        ref = scipy.linalg.block_diag(build_truncated_symbol(env, (long.a, long.b)), xi)

        def block(sigma, win):
            keep = np.r_[win.site_offset(0):win.site_offset(L) + m, win.env_dim:win.joint_dim(8)]
            return sigma[np.ix_(keep, keep)]

        for _ in range(steps):
            state.step(1)
            ref = T @ ref @ T.conj().T
            assert np.abs(block(state.sigma, state.window) - block(ref, long)).max() <= 1e-13

    def test_open_window_must_hold_frame(self):
        W, psi = rotation_walk()
        env = env_m1()
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        for window in (Window(1, 6, 1), Window(-3, 1, 1)):
            with pytest.raises(CouplingError, match="0..L_max"):
                CovarianceState(window, env, W, coup)
        CovarianceState(Window(-3, 1, 1), env, W, coup, periodic=True)


class TestConvergenceToDelta:
    def test_sample_block_reaches_closed_form(self):
        W, psi = rotation_walk()
        env = env_m2()
        coup = CouplingSpec(1.0, V2, psi)
        target = asymptotic_symbol(env, W, coup)
        horizon = target.contraction.truncation_horizon(1e-9)
        state = CovarianceState(Window(0, env.max_degree, env.m), env, W, coup)
        state.step(horizon)
        assert np.linalg.norm(state.sample_block() - target.delta) <= 1e-8

    def test_exponential_rate(self):
        W, psi = rotation_walk()
        env = env_m1()
        coup = CouplingSpec(1.0, np.array([1.0]), psi)
        target = asymptotic_symbol(env, W, coup)
        spr = target.contraction.spectral_radius
        # stop while the residual is still far above the numerical floor
        state = CovarianceState(Window(0, env.max_degree, 1), env, W, coup)
        state.step(state.relaxation_horizon(1e-7) - 50)
        errs = []
        for _ in range(50):
            state.step(1)
            errs.append(np.linalg.norm(state.sample_block() - target.delta))
        ts = np.arange(50, dtype=float)
        slope = np.polyfit(ts, np.log(errs), 1)[0]
        assert slope <= np.log(spr) + 0.05

    def test_limit_independent_of_initial_sample_state(self):
        W, psi = rotation_walk()
        env = env_m1()
        coup = CouplingSpec(1.0, np.array([1.0]), psi)
        horizon = build_contraction(W, psi, 1.0).truncation_horizon(1e-10)
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.standard_normal((8, 8))
                             + 1j * rng.standard_normal((8, 8)))[0]
        xi = basis @ np.diag(rng.uniform(0, 1, 8)) @ basis.conj().T
        blocks = []
        for sample_symbol in (None, xi):
            state = CovarianceState(Window(0, 2, 1), env, W, coup,
                                    sample_symbol=sample_symbol)
            state.step(horizon)
            blocks.append(state.sample_block())
        assert np.linalg.norm(blocks[0] - blocks[1]) <= 1e-8


class TestFiniteTimeFormulas:
    def test_bb_is_static(self):
        env = env_m2()
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, V2, psi)
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        vec1 = [(2, e0), (3, 0.5 * e1)]
        vec2 = [(2, e1)]
        vals = [finite_time_pair_expectation(env, W, coup, "bb", vec1, vec2, t)
                for t in (0, 3, 17)]
        assert np.allclose(vals, vals[0])
        # against the windowed symbol matrix
        win = Window(-3, 8, 2)
        f = win.joint_env_vector(2, e0, 0) + 0.5 * win.joint_env_vector(3, e1, 0)
        g = win.joint_env_vector(2, e1, 0)
        sigma = build_truncated_symbol(env, (win.a, win.b))
        assert vals[0] == pytest.approx(np.vdot(g, sigma @ f), abs=1e-13)

    def test_bb_requires_downstream_support(self):
        env = env_m2()
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, V2, psi)
        with pytest.raises(CouplingError, match=">= 0"):
            finite_time_pair_expectation(env, W, coup, "bb", [(-1, [1, 0])], [(0, [1, 0])], 2)

    @pytest.mark.parametrize("t", [1, 7, 25, 300])
    def test_aa_matches_covariance(self, t):
        env = env_m2()
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, V2, psi)
        rng = np.random.default_rng(2)
        basis = np.linalg.qr(rng.standard_normal((8, 8))
                             + 1j * rng.standard_normal((8, 8)))[0]
        xi = basis @ np.diag(rng.uniform(0, 1, 8)) @ basis.conj().T
        window = Window(0, env.max_degree, 2) if t == 300 else Window(-4, t + 10, 2)
        state = CovarianceState(window, env, W, coup, sample_symbol=xi)
        state.step(t)
        psi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        closed = finite_time_pair_expectation(env, W, coup, "aa", psi1, psi2, t,
                                              sample_symbol=xi)
        simulated = state.pair_expectation(state.sample_vector(psi1),
                                           state.sample_vector(psi2))
        assert closed == pytest.approx(simulated, abs=1e-11)

    @pytest.mark.parametrize("t", [1, 6, 20, 300])
    def test_ba_matches_covariance(self, t):
        env = env_m2()
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, V2, psi)
        window = Window(0, env.max_degree, 2) if t == 300 else Window(-4, t + 12, 2)
        state = CovarianceState(window, env, W, coup)
        state.step(t)
        rng = np.random.default_rng(3)
        w1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        closed = finite_time_pair_expectation(env, W, coup, "ba", [(1, w1)], psi2, t)
        simulated = state.pair_expectation(state.env_vector(1, w1),
                                           state.sample_vector(psi2))
        assert closed == pytest.approx(simulated, abs=1e-11)

    def test_steady_state_refresh_defect(self):
        # one more step against a fresh reservoir moves the steady pair
        # expectations unless the reservoir is uncorrelated: the single-step
        # reduced dynamics only sees the leading coefficient
        W, psi = rotation_walk()
        rng = np.random.default_rng(8)
        psi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)

        def defect(env):
            coup = CouplingSpec(0.9, np.array([1.0]), psi)
            delta = asymptotic_symbol(env, W, coup).delta
            refreshed = finite_time_pair_expectation(env, W, coup, "aa",
                                                     psi1, psi2, 1,
                                                     sample_symbol=delta)
            steady = np.vdot(psi2, delta @ psi1)
            return abs(refreshed - steady)

        assert defect(env_m1((0.62,))) <= 1e-12            # constant F: equality
        assert defect(env_m1((0.5, 0.1, 0.05))) > 1e-4     # correlations: defect

    def test_star_pair_reaches_density(self):
        # <tau^t(a*(psi*) a(psi*))> approaches <psi*, Delta psi*>
        env = env_m1((0.62,))
        W, psi = rotation_walk()
        coup = CouplingSpec(1.0, np.array([1.0]), psi)
        horizon = build_contraction(W, psi, 1.0).truncation_horizon(1e-11)
        val = finite_time_pair_expectation(env, W, coup, "aa", psi, psi, horizon)
        assert val.real == pytest.approx(0.62, abs=1e-9)
        assert abs(val.imag) <= 1e-12


class TestFluxFiniteTime:
    def test_initial_value_by_hand(self):
        # Xi = 0, constant symbols: only the reservoir terms contribute at t=0
        env = EnvironmentSpec(np.diag([1.0, np.exp(0.7j)]),
                              [SymbolFunction((0.3,)), SymbolFunction((0.5,))])
        W, psi = rotation_walk()
        alpha = 0.8
        coup = CouplingSpec(alpha, V2, psi)
        state = CovarianceState(Window(-3, 8, 2), env, W, coup)
        w = coup.weights(env)
        B0 = (w * np.array([0.3, 0.5])).sum()
        for i, ci in enumerate((0.3, 0.5)):
            expected = ((np.cos(alpha) - 1) ** 2 * w[i] * B0
                        + 2 * (np.cos(alpha) - 1) * w[i] * ci)
            assert flux_finite_time(state, i) == pytest.approx(expected, abs=1e-13)

    def test_single_sector_flux_vanishes_at_late_times(self):
        env = env_m1()
        W, psi = rotation_walk()
        coup = CouplingSpec(1.0, np.array([1.0]), psi)
        state = CovarianceState(Window(0, 2, 1), env, W, coup)
        state.step(150)
        assert abs(flux_finite_time(state, 0)) <= 1e-8

    def test_six_terms_equal_rank_one_difference_form(self):
        # the flux observable expanded by hand into its six quadratic terms
        # (same-species operator ordering) is the reference for the
        # rank-one difference form that flux_finite_time evaluates
        env = env_m2()
        W, psi = rotation_walk()
        alpha = 0.9
        coup = CouplingSpec(alpha, V2, psi)
        state = CovarianceState(Window(-3, 12, 2), env, W, coup)
        state.step(7)
        S = state.pair_expectation
        ca, sa = np.cos(alpha), np.sin(alpha)
        u_v = state.env_vector(0, coup.v)
        s = state.sample_vector(psi)
        for i in range(2):
            w = coup.weights(env)[i]
            u_pi = state.env_vector(0, env.projector(i) @ coup.v)
            six = ((ca - 1.0) ** 2 * w * S(u_v, u_v)
                   + (ca - 1.0) * S(u_pi, u_v)
                   + (ca - 1.0) * S(u_v, u_pi)
                   + sa ** 2 * w * S(s, s)
                   + 1j * sa * (ca - 1.0) * w * (S(s, u_v) - S(u_v, s))
                   + 1j * sa * (S(s, u_pi) - S(u_pi, s)))
            assert flux_finite_time(state, i) == pytest.approx(np.real(six), abs=1e-13)

    def test_two_sector_flux_converges_to_closed_form(self):
        env = env_m2()
        W, psi = rotation_walk()
        coup = CouplingSpec(np.pi / 4, V2, psi)
        res = flux_expectations(env, W, coup)
        state = CovarianceState(Window(0, 2, 2), env, W, coup)
        state.step(200)
        for i in range(2):
            assert abs(flux_finite_time(state, i) - res.phi[i]) <= 1e-6


def sparse_fermion_ops(n_modes: int) -> list[sp.csr_matrix]:
    """Sparse Jordan-Wigner annihilation operators on ``2^n_modes`` dimensions.

    Mode 0 is the top bit of the occupation index, as in :class:`FockOracle`,
    which works on amplitude arrays directly; these matrices are the
    reference its kernels are tested against.
    """
    lower = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    zmat = sp.csr_matrix(np.diag([1.0, -1.0]))
    eye = sp.identity(2, format="csr")
    ops = []
    for k in range(n_modes):
        op = None
        for j in range(n_modes):
            factor = zmat if j < k else (lower if j == k else eye)
            op = factor if op is None else sp.kron(op, factor, format="csr")
        ops.append(op.astype(complex))
    return ops


@pytest.mark.parametrize("D", range(1, FockOracle.MAX_MODES + 1))
def test_fermion_ops_satisfy_car(D):
    # {c_i, c_j*} = delta_ij and {c_i, c_j} = 0 for every mode pair the oracle can use
    ops = sparse_fermion_ops(D)
    adj = [c.conj().T.tocsr() for c in ops]
    eye = sp.identity(2 ** D, format="csr")
    for i in range(D):
        for j in range(D):
            anti = ops[i] @ adj[j] + adj[j] @ ops[i]
            if i == j:
                anti = anti - eye
            same = ops[i] @ ops[j] + ops[j] @ ops[i]
            assert abs(anti).max() <= 1e-12 and abs(same).max() <= 1e-12


def jordan_wigner_two_point(oracle, ops) -> np.ndarray:
    """``Sigma`` of the oracle's ``states`` from sparse Jordan-Wigner operators ``ops``."""
    amp = oracle.states * np.sqrt(oracle.weights)
    images = np.stack([c @ amp for c in ops]).reshape(oracle.D, -1)   # c_mu psi_k
    sigma_o = images @ images.conj().T           # [nu, mu] = <c*_mu c_nu>
    return oracle.Q @ sigma_o @ oracle.Q.conj().T


def random_ensemble(dim, K, seed):
    """Random mixture of ``K`` normalised many-body states, without definite parity."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((dim, K)) + 1j * rng.standard_normal((dim, K))
    weights = rng.uniform(0.5, 1.0, K)
    return weights / weights.sum(), states / np.linalg.norm(states, axis=0)


def reflector_inputs():
    rng = np.random.default_rng(21)
    cases = []
    for n, k in ((1, 0), (3, 0), (4, 3), (5, 2)):
        e_k = np.eye(n, dtype=complex)[k]
        cases += [(e_k, k), (-e_k, k), (1j * e_k, k)]
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cases.append((x / np.linalg.norm(x), k))
        if n > 1:
            x[k] = 0.0
            cases.append((x / np.linalg.norm(x), k))
            near = e_k + 1e-9 * np.roll(e_k, 1)         # u_k would cancel if formed as y_k - 1
            cases.append((near / np.linalg.norm(near), k))
    return cases


@pytest.mark.parametrize("x, k", reflector_inputs())
def test_reflector_is_unitary_with_column_k_equal_to_x(x, k):
    Q = _reflector(x, k)
    assert np.array_equal(Q[:, k], x)
    assert np.abs(Q.conj().T @ Q - np.eye(len(x))).max() <= 1e-14
    if np.array_equal(x, np.eye(len(x))[k]):
        assert np.array_equal(Q, np.eye(len(x)))


def admissible_symbol(rng, degree):
    """``c(0)`` in [0, 1] with ``2 sum_l |c(l)| <= min(c0, 1 - c0)``, so ``0 <= 2 Re F <= 1``."""
    c0 = rng.uniform(0.0, 1.0)
    mags = 0.5 * min(c0, 1.0 - c0) * rng.dirichlet(np.ones(degree)) if degree else ()
    return SymbolFunction((c0, *(r * np.exp(2j * np.pi * rng.uniform()) for r in mags)))


@st.composite
def oracle_instances(draw):
    """Haar ``W`` (d <= 4), ``U`` and complex ``v``, and a periodic window with D <= 8 modes.

    ``psi*`` is Haar, Haar with ``psi*[0] = 0``, or ``i e_0``, so the sample
    reflector meets a generic, a vanishing and a non-real pivot.
    """
    m, d = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    sites = (8 - d) // m
    a = draw(st.integers(1 - sites, 0))
    b = draw(st.integers(0, a + sites - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    psi = random_coin(d, rng)[:, 0]
    kind = draw(st.sampled_from(["haar", "zero_pivot", "i_e0"]))
    if kind == "zero_pivot" and d > 1:
        psi[0] = 0.0
        psi /= np.linalg.norm(psi)
    elif kind == "i_e0":
        psi = 1j * np.eye(d)[0]
    degree = draw(st.integers(0, 2))
    env = EnvironmentSpec(random_coin(m, rng), [admissible_symbol(rng, degree) for _ in range(m)])
    coup = CouplingSpec(draw(st.floats(0.05, np.pi - 0.05)), random_coin(m, rng)[:, 0], psi)
    return env, random_coin(d, rng), coup, Window(a, b, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(oracle_instances())
def test_oracle_two_point_matrix_is_periodic_covariance(instance):
    env, W, coup, win = instance
    oracle = FockOracle(env, W, coup, win)
    cov = CovarianceState(win, env, W, coup, periodic=True)
    eps = np.finfo(float).eps
    for t in range(11):
        # round-off grows at most linearly in the steps and the mode count
        tol = 16 * oracle.D * eps * (t + 1)
        assert np.abs(oracle.two_point_matrix() - cov.sigma).max() <= tol
        oracle.step()
        cov.step()


@st.composite
def sector_instances(draw):
    """An instance of :func:`oracle_instances` with a Gaussian or a user ensemble.

    The Gaussian state has a sample symbol whose eigenvalues are 0, 1 or
    fractional.  The user ensemble mixes particle numbers: one to three
    random members spread over one to three sectors each, the reservoir
    completely filled times a random sample state, and a random reservoir
    state times the sample completely filled.  Those two reach the pieces
    ``p = E`` and ``q = d``, where ``Gamma`` is ``det V_E`` and ``det V_S``.
    """
    env, W, coup, win = draw(oracle_instances())
    E, d = win.env_dim, W.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        basis = random_coin(d, rng)
        eigs = rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)], size=d)
        xi = basis @ np.diag(eigs) @ basis.conj().T
        return FockOracle(env, W, coup, win, sample_symbol=xi), env, W, coup, win

    def random_state(n):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return x / np.linalg.norm(x)

    D = E + d
    counts = np.bitwise_count(np.arange(2 ** D))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        numbers = rng.choice(D + 1, size=min(D + 1, rng.integers(1, 4)), replace=False)
        x = random_state(2 ** D) * np.isin(counts, numbers)
        members.append(x / np.linalg.norm(x))
    members.append(np.kron(np.eye(2 ** E)[-1], random_state(2 ** d)))
    members.append(np.kron(random_state(2 ** E), np.eye(2 ** d)[-1]))
    weights = rng.uniform(0.5, 1.0, len(members))
    oracle = FockOracle(env, W, coup, win,
                        ensemble=(weights / weights.sum(), np.stack(members, axis=1)))
    return oracle, env, W, coup, win


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sector_instances(), st.integers(1, 10))
def test_sector_step_matches_dense_second_quantisation(instance, steps):
    # each step against Gamma(Q* T Q) as a dense matrix on the assembled
    # states, and each extraction against sparse Jordan-Wigner operators
    oracle, env, W, coup, win = instance
    G = gamma_dense(oracle.Q.conj().T @ one_step_joint_operator(win, env, W, coup) @ oracle.Q)
    ops = sparse_fermion_ops(oracle.D)
    for _ in range(steps):
        expected = G @ oracle.states
        oracle.step()
        assert np.abs(oracle.states - expected).max() <= 1e-13
        assert np.abs(oracle.two_point_matrix() - jordan_wigner_two_point(oracle, ops)).max() <= 1e-13


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_signed_take_is_jordan_wigner_annihilation(E, d, seed):
    # on every sector of E + d modes, the signed take of a random scaled
    # block is c_nu of the embedded vector, read on the (N - 1)-particle rows
    D = E + d
    ops = sparse_fermion_ops(D)
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 1.0, 2)
    for N in range(1, D + 1):
        configs, below = _sector_tables(E, d, N)[0], _sector_tables(E, d, N - 1)[0]
        block = rng.standard_normal((len(configs), 2)) + 1j * rng.standard_normal((len(configs), 2))
        embedded = np.zeros((2 ** D, 2), dtype=complex)
        embedded[configs] = block * scale
        images = _annihilated(E, d, N, block, scale)
        assert images.shape == (D, len(below), 2)
        for nu in range(D):
            assert np.array_equal(images[nu], (ops[nu] @ embedded)[below])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 2 * np.pi),
       st.integers(0, 2 ** 32 - 1))
def test_pair_mix_is_the_exchange_on_modes_e_minus_1_and_e(E, d, alpha, seed):
    # x <- k4[s, s] x + k4[s, 3 - s] x[partner] on every sector equals
    # Gamma(R(alpha)) on the modes E-1, E of the embedded vector
    k4 = gamma_dense(exchange_rotation(alpha))
    assert k4[0, 3] == k4[3, 0] == 0.0
    dense = sp.kron(sp.identity(2 ** (E - 1)),
                    sp.kron(sp.csr_matrix(k4), sp.identity(2 ** (d - 1))), format="csr")
    rng = np.random.default_rng(seed)
    for N in range(E + d + 1):
        configs, _, partner, s = _sector_tables(E, d, N)
        assert np.array_equal(partner[partner], np.arange(len(configs)))
        block = rng.standard_normal((len(configs), 2)) + 1j * rng.standard_normal((len(configs), 2))
        embedded = np.zeros((2 ** (E + d), 2), dtype=complex)
        embedded[configs] = block
        _mix_pair(block, partner, k4[s, s][:, None], k4[s, 3 - s][:, None])
        assert np.abs(block - (dense @ embedded)[configs]).max() <= 4 * np.finfo(float).eps


@st.composite
def open_window_instances(draw):
    """Haar ``W`` (d <= 4), ``U``, ``v`` and ``0 <= Xi <= 1``, and an open window ``a..b``.

    ``a`` lies in ``[-4, 0]`` and ``b`` up to 30 sites beyond ``L_max``.
    """
    m, d, L = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    a, beyond = draw(st.integers(-4, 0)), draw(st.integers(0, 30))
    alpha = draw(st.floats(0.05, np.pi - 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    env = EnvironmentSpec(random_coin(m, rng), [admissible_symbol(rng, L) for _ in range(m)])
    coup = CouplingSpec(alpha, random_coin(m, rng)[:, 0], random_coin(d, rng)[:, 0])
    basis = random_coin(d, rng)
    xi = basis @ np.diag(rng.uniform(0.0, 1.0, d)) @ basis.conj().T
    return env, random_coin(d, rng), coup, xi, Window(a, L + beyond, m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(open_window_instances(), st.integers(1, 12))
def test_open_step_matches_full_window_conjugation(instance, steps):
    # the state on sites a..L_max and the sample against dense T Sigma T*
    # with the ring step on the whole window and the site-b inflow restored;
    # in the reference the sites from L_max on keep their Sigma_0 rows and
    # columns, which is why the state holds no site past L_max and restores
    # the rows of site L_max
    env, W, coup, xi, win = instance
    L = env.max_degree
    state = CovarianceState(win, env, W, coup, sample_symbol=xi)
    # its A, the ring step with the inflow rows zeroed, is bit for bit the
    # zero-fill step, whose shift has no wrap and so zero inflow rows
    cut = state.window
    zero_fill = (scipy.linalg.block_diag(np.kron(np.eye(cut.n_sites, k=1), env.U), W)
                 @ coupling_exponential(cut, coup, W.shape[0]))
    assert np.array_equal(state._A, zero_fill)
    T = one_step_joint_operator(win, env, W, coup)
    sigma0 = scipy.linalg.block_diag(build_truncated_symbol(env, (win.a, win.b)), xi)
    inflow = slice(win.env_dim - env.m, win.env_dim)
    ref = sigma0.copy()
    for _ in range(steps):
        ref = T @ ref @ T.conj().T
        ref[inflow, :] = sigma0[inflow, :]
        ref[:, inflow] = sigma0[:, inflow]
    state.step(steps)
    assert state.sigma.shape == ((L - win.a + 1) * env.m + W.shape[0],) * 2
    assert np.abs(state.sigma - held_block(ref, win, L)).max() <= 1e-13
    fresh = slice(win.site_offset(L), win.env_dim)
    assert np.abs(ref[fresh] - sigma0[fresh]).max() <= 1e-13
    assert np.abs(ref[:, fresh] - sigma0[:, fresh]).max() <= 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(open_window_instances(), st.booleans(), st.integers(0, 600))
def test_doubled_steps_match_single_steps(instance, periodic, steps):
    env, W, coup, xi, win = instance
    doubled = CovarianceState(win, env, W, coup, periodic=periodic, sample_symbol=xi)
    stepped = CovarianceState(win, env, W, coup, periodic=periodic, sample_symbol=xi)
    # one step is A sigma A* with the inflow rows and columns of Sigma_0
    # restored on an open state, bit for bit
    A, sigma0 = stepped._A, stepped.sigma.copy()
    ref = A @ sigma0 @ A.conj().T
    if not periodic:
        inflow = slice(stepped.window.env_dim - env.m, stepped.window.env_dim)
        ref[inflow] = sigma0[inflow]
        ref[:, inflow] = sigma0[inflow].conj().T
    assert np.array_equal(stepped.step(1).sigma, ref)
    for _ in range(steps - 1):
        stepped.step(1)
    doubled.step(steps)
    assert doubled.t == steps
    if steps:
        # round-off of either path grows at most linearly in the steps:
        # measured 2e-14 at most over these instances
        assert np.abs(doubled.sigma - stepped.sigma).max() <= 1e-13
    else:
        assert np.array_equal(doubled.sigma, sigma0)


def det_blocks(V):
    """Reference ``Gamma(V)``: one determinant per minor ``det V[y, x]`` (modes ascending)."""
    n = V.shape[0]
    configs = np.arange(2 ** n)
    bits = (configs[:, None] >> np.arange(n - 1, -1, -1)) & 1
    blocks = []
    for p in range(n + 1):
        idx = np.flatnonzero(bits.sum(axis=1) == p)
        modes = np.nonzero(bits[idx])[1].reshape(len(idx), p)
        blocks.append((idx, np.linalg.det(V[modes[:, None, :, None], modes[None, :, None, :]])))
    return blocks


def haar(n, rng):
    if n == 1:
        return np.exp(2j * np.pi * rng.random((1, 1)))
    return scipy.stats.unitary_group.rvs(n, random_state=rng)


class TestLaplaceSecondQuantisation:
    """``gamma_blocks`` builds the exterior powers by Laplace recursion, with no determinant."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 7), st.floats(0.05, 3.0), st.integers(0, 2 ** 32 - 1))
    def test_matches_determinants_on_any_matrix(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        V = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        tol = 1e-12 * max(1.0, np.linalg.norm(V, 2)) ** n
        for (configs, block), (ref_configs, ref) in zip(gamma_blocks(V), det_blocks(V),
                                                       strict=True):
            assert np.array_equal(configs, ref_configs)
            assert np.abs(block - ref).max() <= tol

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_determinants_on_haar_unitaries(self, n):
        V = haar(n, np.random.default_rng(100 + n))
        for (_, block), (_, ref) in zip(gamma_blocks(V), det_blocks(V), strict=True):
            assert np.abs(block - ref).max() <= 1e-13

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
    def test_cauchy_binet(self, n, seed):
        rng = np.random.default_rng(seed)
        A, B = haar(n, rng), haar(n, rng)
        assert np.abs(gamma_dense(A @ B) - gamma_dense(A) @ gamma_dense(B)).max() <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
    def test_columns_are_cut_from_the_dense_matrix(self, n, seed):
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cols = rng.choice(2 ** n, size=rng.integers(1, 2 ** n + 1), replace=False)
        assert np.array_equal(gamma_columns(V, cols), gamma_dense(V)[:, cols])

    def test_factor_cap(self):
        with pytest.raises(CouplingError, match="capped at 10 modes"):
            _occupations(11)
        with pytest.raises(CouplingError, match="capped at 10 modes"):
            gamma_blocks(np.eye(11))

    def test_no_determinant_on_the_oracle_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        W2, psi2 = build_cycle_walk(2, [rotation_coin(0.6)] * 2), cycle_star_vector(2)
        W4, psi4 = rotation_walk()
        for env, W, psi, v, win in ((env_m2(), W2, psi2, V2, Window(-1, 1, 2)),
                                    (env_m1(), W4, psi4, np.array([1.0]), Window(-1, 2, 1))):
            oracle = FockOracle(env, W, CouplingSpec(0.9, v, psi), win)
            assert oracle.D in (10, 12)
            oracle.step(2)
        assert gamma_dense(haar(8, np.random.default_rng(3))).shape == (256, 256)


class TestFockOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kind", ["random", "permutation"])
    def test_gamma_second_quantisation(self, n, kind):
        # Gamma(V) c*(f) Gamma(V)* = c*(V f), Gamma(V)|0> = |0>, Gamma(V) unitary;
        # the cyclic permutation has eigenvalue -1 for every even n
        rng = np.random.default_rng(4)
        if kind == "random":
            V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        else:
            V = np.roll(np.eye(n), 1, axis=0)
        G = gamma_dense(V)
        assert G[0, 0] == 1.0
        assert np.abs(G.conj().T @ G - np.eye(2 ** n)).max() <= 1e-13
        ops = [c.toarray() for c in sparse_fermion_ops(n)]
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = G @ sum(f[j] * ops[j].conj().T for j in range(n)) @ G.conj().T
        Vf = V @ f
        rhs = sum(Vf[j] * ops[j].conj().T for j in range(n))
        assert np.abs(lhs - rhs).max() <= 1e-13

    def test_initial_two_point_matches_symbol(self):
        env = env_m1()
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.8, np.array([1.0]), psi)
        win = Window(-2, 1, 1)
        oracle = FockOracle(env, W, coup, win)
        cov = CovarianceState(win, env, W, coup, periodic=True)
        assert np.abs(oracle.two_point_matrix() - cov.sigma).max() <= 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    def test_two_point_functions_track_covariance(self, m):
        if m == 1:
            env = env_m1()
            v = np.array([1.0])
            win = Window(-2, 1, 1)
        else:
            env = env_m2()
            v = V2
            win = Window(-1, 1, 2)
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(np.pi / 4, v, psi)
        oracle = FockOracle(env, W, coup, win)
        cov = CovarianceState(win, env, W, coup, periodic=True)
        worst = 0.0
        for _ in range(20):
            oracle.step()
            cov.step()
            worst = max(worst, np.abs(oracle.two_point_matrix() - cov.sigma).max())
        assert worst <= 1e-10

    @pytest.mark.parametrize("m, a, b", [(1, 0, 3), (1, -3, 0), (1, 0, 1), (1, -1, 0),
                                         (1, 0, 0), (2, 0, 2), (2, -2, 0), (2, 0, 0)])
    def test_windows_with_site_zero_at_an_edge(self, m, a, b):
        env, v = (env_m1(), np.array([1.0])) if m == 1 else (env_m2(), V2)
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(np.pi / 4, v, psi)
        win = Window(a, b, m)
        oracle = FockOracle(env, W, coup, win)
        cov = CovarianceState(win, env, W, coup, periodic=True)
        worst = np.abs(oracle.two_point_matrix() - cov.sigma).max()
        for _ in range(20):
            oracle.step()
            cov.step()
            worst = max(worst, np.abs(oracle.two_point_matrix() - cov.sigma).max())
        assert worst <= 1e-10

    def test_window_needs_site_zero(self):
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        with pytest.raises(CouplingError, match="outside"):
            FockOracle(env_m1(), W, coup, Window(1, 3, 1))

    @pytest.mark.parametrize("m, a, b", [(1, -2, 1), (2, -1, 1), (1, 0, 3)])
    def test_step_is_second_quantised_joint_operator(self, m, a, b):
        # one oracle step is Gamma(Q* T Q) with T the periodic one-particle step
        env, v = (env_m1(), np.array([1.0])) if m == 1 else (env_m2(), V2)
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, v, psi)
        win = Window(a, b, m)
        dim = 2 ** (win.env_dim + W.shape[0])
        oracle = FockOracle(env, W, coup, win, ensemble=random_ensemble(dim, 3, seed=11))
        T = one_step_joint_operator(win, env, W, coup)
        expected = gamma_dense(oracle.Q.conj().T @ T @ oracle.Q) @ oracle.states
        oracle.step()
        assert np.abs(oracle.states - expected).max() <= 1e-13

    def test_coupling_kernel_is_the_second_quantised_exchange_rotation(self):
        # Gamma(R(alpha)) on the occupations 00, 01, 10, 11 of the modes
        # E-1, E against the kernel written out by hand
        for alpha in np.linspace(0.0, 3.2, 201):
            c, s = np.cos(alpha), np.sin(alpha)
            k4 = np.array([[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [0, 0, 0, 1]])
            assert np.abs(gamma_dense(exchange_rotation(alpha)) - k4).max() <= 1e-15

    @pytest.mark.parametrize("m, a, b", [(1, -2, 1), (2, -1, 1)])
    def test_step_equals_dense_factors(self, m, a, b):
        # the blocked step against the dense kernel (k4, then Gamma(V_S), then
        # Gamma(V_E) as full matrices) on 12 and 14 modes, with every particle
        # number filled; the caller's ensemble array is never written
        env, v = (env_m1(), np.array([1.0])) if m == 1 else (env_m2(), V2)
        W, psi = rotation_walk()
        win = Window(a, b, m)
        E, d = win.env_dim, W.shape[0]
        weights, states = random_ensemble(2 ** (E + d), 3, seed=14)
        kept = states.copy()
        oracle = FockOracle(env, W, CouplingSpec(0.9, v, psi), win, ensemble=(weights, states))
        Q = oracle.Q
        S_circ_U = np.kron(shift_matrix(win.n_sites), env.U)
        G_E = gamma_dense(Q[:E, :E].conj().T @ S_circ_U @ Q[:E, :E])
        G_S = gamma_dense(Q[E:, E:].conj().T @ W @ Q[E:, E:])
        expected = states
        for _ in range(3):
            expected = oracle.k4 @ expected.reshape(2 ** (E - 1), 4, -1)
            expected = G_S @ expected.reshape(2 ** E, 2 ** d, -1)
            expected = (G_E @ expected.reshape(2 ** E, -1)).reshape(2 ** (E + d), -1)
            oracle.step()
            assert np.abs(oracle.states - expected).max() <= 1e-13
        assert np.array_equal(states, kept)

    def test_sample_number_law_is_poisson_binomial_at_every_step(self):
        # full counting statistics of a Gaussian state: at every t the law of
        # the sample number is the Poisson binomial of the eigenvalues of
        # Sigma_S(t), here on 6 reservoir + 6 sample modes and a generic walk
        rng = np.random.default_rng(15)
        n = 3
        W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
        coup = CouplingSpec(0.9, V2, cycle_star_vector(n))
        win = Window(-1, 1, 2)
        oracle = FockOracle(env_m2(), W, coup, win)
        cov = CovarianceState(win, env_m2(), W, coup, periodic=True)
        tol = 4 * oracle.D * np.finfo(float).eps
        for _ in range(30):
            oracle.step()
            cov.step()
            law = PoissonBinomial.from_parameters(np.linalg.eigvalsh(cov.sample_block()))
            assert np.abs(oracle.sample_number_distribution() - law.pmf).max() <= tol

    def test_observables_match_jordan_wigner_reference(self):
        # a random mixture without parity, so odd moments do not vanish
        env = env_m1()
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        D = 8
        oracle = FockOracle(env, W, coup, Window(-2, 1, 1),
                            ensemble=random_ensemble(2 ** D, 4, seed=12))
        ops = sparse_fermion_ops(D)
        rng = np.random.default_rng(13)
        f = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        f_o = oracle.Q.conj().T @ f
        cdag = sum(f_o[mu] * ops[mu].conj().T for mu in range(D))
        for _ in range(4):
            oracle.step()
            odd = sum(w * np.vdot(psi_k, cdag @ psi_k)
                      for w, psi_k in zip(oracle.weights, oracle.states.T))
            sigma = jordan_wigner_two_point(oracle, ops)
            assert np.abs(oracle.two_point_matrix() - sigma).max() <= 1e-13
            assert abs(odd) > 1e-3
            assert abs(oracle.odd_moment(f) - odd) <= 1e-13

    def test_total_number_conserved(self):
        env = env_m1()
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        oracle = FockOracle(env, W, coup, Window(-2, 1, 1))
        n0 = oracle.total_number()
        oracle.step(15)
        assert oracle.total_number() == pytest.approx(n0, abs=1e-12)

    def test_step_count_zero_or_negative(self):
        W, psi = rotation_walk((0.5, 1.1))
        oracle = FockOracle(env_m1(), W, CouplingSpec(0.9, np.array([1.0]), psi),
                            Window(-2, 1, 1))
        before = oracle.states
        assert oracle.step(0) is oracle
        assert oracle.t == 0 and np.array_equal(oracle.states, before)
        with pytest.raises(CouplingError, match="-3 steps back"):
            oracle.step(-3)
        assert oracle.t == 0 and np.array_equal(oracle.states, before)

    def test_gaussian_members_are_stored_in_their_sector_only(self):
        # the oracle workload's D = 12 window: 4 reservoir modes, all
        # fractionally filled (K = 16), and an empty 8-mode sample; member j
        # has one particle number N_j and holds C(D, N_j) amplitudes, 1,820
        # of the 65,536 of a (2^D, K) array (2.8%), at every step
        rng = np.random.default_rng(8)
        W = build_cycle_walk(4, [random_coin(2, rng) for _ in range(4)])
        coup = CouplingSpec(1.0, np.array([1.0]), cycle_star_vector(4))
        oracle = FockOracle(env_m1(), W, coup, Window(-1, 2, 1))
        numbers = [np.unique(np.bitwise_count(np.flatnonzero(column)))
                   for column in oracle.states.T]
        assert (oracle.D, len(numbers)) == (12, 16)
        assert all(len(n) == 1 for n in numbers)
        expected = sum(math.comb(oracle.D, int(n[0])) for n in numbers)
        for _ in range(3):
            assert sum(block.size for _, _, block in oracle._sectors) == expected == 1820
            oracle.step()

    @pytest.mark.parametrize("weights, scale, match", [
        ([np.nan, 0.5, 0.5], 1.0, "weight of member 0 is nan"),
        ([0.5, np.inf, 0.5], 1.0, "weight of member 1 is inf"),
        ([0.5, -0.25, 0.75], 1.0, "weight of member 1 is -0.25"),
        ([0.5, 0.25, 0.125], 1.0, "sum to 0.875, not 1"),
        ([0.25, 0.25, 0.5], 3.0, "ensemble member 1 must be a unit vector, got norm 3"),
        ([0.25, 0.25, 0.5], 1.0 + 1e-9, "ensemble member 1 must be a unit vector"),
    ])
    def test_user_ensemble_checked_where_it_enters(self, weights, scale, match):
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        _, states = random_ensemble(2 ** 8, 3, seed=16)
        states[:, 1] *= scale
        with pytest.raises(CouplingError, match=match):
            FockOracle(env_m1(), W, coup, Window(-2, 1, 1), ensemble=(weights, states))

    def test_user_ensemble_within_tolerance_accepted(self):
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        _, states = random_ensemble(2 ** 8, 3, seed=16)
        states[:, 1] *= 1.0 + 0.5 * UNIT_NORM_TOL
        oracle = FockOracle(env_m1(), W, coup, Window(-2, 1, 1),
                            ensemble=([0.25, 0.25, 0.5], states))
        assert oracle.total_number() == pytest.approx(
            np.bitwise_count(np.arange(2 ** 8)) @ (np.abs(states) ** 2 @ [0.25, 0.25, 0.5]),
            abs=1e-12)

    def test_odd_moments_vanish(self):
        env = env_m1()
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        oracle = FockOracle(env, W, coup, Window(-2, 1, 1))
        rng = np.random.default_rng(5)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for _ in range(6):
            oracle.step()
            assert abs(oracle.odd_moment(f)) <= 1e-12

    def test_wick_factorisation_of_vertex_correlations(self):
        # quartic moments from the many-body state match the Wick rule
        # evaluated on the covariance twin
        env = env_m1()
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(np.pi / 4, np.array([1.0]), psi)
        win = Window(-2, 1, 1)
        oracle = FockOracle(env, W, coup, win)
        cov = CovarianceState(win, env, W, coup, periodic=True)
        oracle.step(9)
        cov.step(9)
        first, second = oracle.sample_occupation_moments()
        ne = win.env_dim
        block = cov.sigma[ne:, ne:]
        n = 2
        for nu in range(n):
            diag = block[2 * nu, 2 * nu] + block[2 * nu + 1, 2 * nu + 1]
            assert first[nu] == pytest.approx(diag.real, abs=1e-12)
        for nu in range(n):
            for up in range(n):
                if nu == up:
                    continue
                sub = block[2 * nu:2 * nu + 2, 2 * up:2 * up + 2]
                expected = first[nu] * first[up] - (np.abs(sub) ** 2).sum()
                assert second[nu, up] == pytest.approx(expected, abs=1e-12)

    def test_vertex_moments_ignore_the_phase_of_the_star_vector(self):
        # psi* = e^{i phi} e_0 is the same coupling up to a phase of one
        # sample mode, so the vertex occupation moments agree with e_0's
        env = env_m1()
        W, psi = rotation_walk((0.5, 1.1))

        def moments(star):
            oracle = FockOracle(env, W, CouplingSpec(0.9, np.array([1.0]), star),
                                Window(-2, 1, 1))
            return oracle.step(3).sample_occupation_moments()

        first, second = moments(psi)
        for phase in (1j, -1.0):
            f, s = moments(phase * psi)
            assert np.abs(f - first).max() <= 1e-12
            assert np.abs(s - second).max() <= 1e-12

    def test_refuses_oversized_windows(self):
        env = env_m1()
        W, psi = rotation_walk()
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        # 10 + 8 modes (over 14 in all), and 12 + 2 modes (over 10 in one factor)
        for walk, star, win in ((W, psi, Window(-3, 6, 1)), (swap, np.eye(2)[0], Window(-5, 6, 1))):
            with pytest.raises(CouplingError, match="refuses"):
                FockOracle(env, walk, CouplingSpec(0.9, np.array([1.0]), star), win)

    def test_sample_symbol_outside_unit_interval_rejected(self):
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        xi = np.diag([1.1, 0.5, 0.0, 0.2])
        with pytest.raises(CouplingError, match="escapes"):
            FockOracle(env_m1(), W, coup, Window(-2, 1, 1), sample_symbol=xi)

    def test_refuses_oversized_ensembles(self):
        # 4 reservoir + 8 sample modes, all fractionally filled: 2^12 states
        env = env_m1()
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        xi = np.diag(np.linspace(0.2, 0.8, 8))
        with pytest.raises(CouplingError, match="fractional modes"):
            FockOracle(env, W, coup, Window(-2, 1, 1), sample_symbol=xi)

    def test_user_ensemble_keeps_even_states_even(self):
        # a hand-built even (non-Gaussian) mixture: odd moments stay zero
        env = env_m1()
        W, psi = rotation_walk((0.5, 1.1))
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        win = Window(-2, 1, 1)
        dim = 2 ** 8
        vac = np.zeros(dim, dtype=complex)
        vac[0] = 1.0
        pair = np.zeros(dim, dtype=complex)
        pair[0b11000000] = 1.0 / np.sqrt(2)   # two reservoir modes occupied
        pair[0b00000011] = 1.0 / np.sqrt(2)   # two sample modes occupied
        oracle = FockOracle(env, W, coup, win,
                            ensemble=([0.4, 0.6], np.stack([vac, pair], axis=1)))
        rng = np.random.default_rng(9)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for _ in range(5):
            oracle.step()
            assert abs(oracle.odd_moment(f)) <= 1e-12
        n0 = oracle.total_number()
        assert n0 == pytest.approx(0.6 * 2, abs=1e-12)
