"""The two primitives of the closed forms, against the algorithms they replaced.

Every closed form reads the reservoir through the coefficient table
``EnvironmentSpec.coefficients`` and the sample through ``coupling.orbit``.
The references below are the per-sector and step-by-step loops those forms
used before, kept here as executable definitions.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermiwalk.asymptotics import (asymptotic_symbol, flux_expectations,
                                   small_alpha_flux_rate, small_alpha_flux_rate_walk)
from fermiwalk.coupling import CouplingSpec, Window, build_contraction, moller_sample_block, orbit
from fermiwalk.environment import EnvironmentSpec, SymbolFunction, eval_series, hermitian_part
from fermiwalk.simulate import CovarianceState, finite_time_pair_expectation
from fermiwalk.walk import random_coin

EPS = np.finfo(float).eps


def unit(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


def instance(seed, d, m, degree, alpha, U=None):
    """A Haar walk with a random ``psi*``, a Haar ``U``, random admissible symbols and ``v``.

    Each sector has its own degree up to ``degree``, so the coefficient
    table is zero-padded; ``sum |c(l)| <= min(c0, 1 - c0) / 2`` keeps
    ``0 <= 2 Re F <= 1``.
    """
    rng = np.random.default_rng(seed)
    W, psi = random_coin(d, rng), unit(rng, d)
    symbols = []
    for L in rng.integers(0, degree + 1, m):
        c0 = rng.uniform(0.2, 0.8)
        tail = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        if L:
            tail *= rng.uniform() * min(c0, 1.0 - c0) / (2.0 * np.abs(tail).sum())
        symbols.append(SymbolFunction((c0, *tail)))
    env = EnvironmentSpec(random_coin(m, rng) if U is None else U, symbols)
    return env, W, CouplingSpec(alpha, unit(rng, m), psi)


INSTANCES = dict(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8), m=st.integers(1, 3),
                 degree=st.integers(0, 3), alpha=st.floats(0.3, np.pi - 0.3))


class TestCoefficientTable:
    def test_rows_are_the_padded_lists(self):
        env = EnvironmentSpec(np.diag([1.0, 1j]), [SymbolFunction((0.5, 0.1j, 0.05)),
                                                   SymbolFunction((0.3,))])
        assert env.coefficients.shape == (2, 3)
        assert np.array_equal(env.coefficients, [[0.5, 0.1j, 0.05], [0.3, 0, 0]])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**INSTANCES)
    def test_one_series_delta(self, seed, d, m, degree, alpha):
        # Delta = sum_i w_i 2 Re F_i(M*) = 2 Re F_B(M*): the powers of M* are
        # shared, so only the coefficient sums are reassociated
        env, W, coup = instance(seed, d, m, degree, alpha)
        Mstar = build_contraction(W, coup.star(), alpha).matrix.conj().T
        w = coup.weights(env)
        ref = sum(w[i] * 2.0 * hermitian_part(eval_series(f, Mstar))
                  for i, f in enumerate(env.symbol_functions))
        delta = asymptotic_symbol(env, W, coup).delta
        assert np.abs(delta - ref).max() <= (env.max_degree + 1) * d * EPS


class TestOrbit:
    def test_rows(self):
        A = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert np.array_equal(orbit(A, [1.0, 1.0], 3), [[1, 1], [1, 2], [2, 2]])
        assert orbit(A, [1.0, 1.0], 0).shape == (0, 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**INSTANCES)
    def test_return_amplitudes_match_matrix_power(self, seed, d, m, degree, alpha):
        # m(t) = <psi*, M^(t-1) W psi*> and u(t) = <psi*, W^t psi*>, t = 1..T
        env, W, coup = instance(seed, d, m, degree, alpha)
        psi, T = coup.star(), 12
        M = build_contraction(W, psi, alpha).matrix
        m_t = orbit(M, W @ psi, T) @ psi.conj()
        u_t = orbit(W, W @ psi, T) @ psi.conj()
        power = np.linalg.matrix_power
        m_ref = [np.vdot(psi, power(M, t - 1) @ W @ psi) for t in range(1, T + 1)]
        u_ref = [np.vdot(psi, power(W, t) @ psi) for t in range(1, T + 1)]
        tol = 2 * T * d * EPS
        assert np.abs(m_t - m_ref).max() <= tol
        assert np.abs(u_t - u_ref).max() <= tol


def moller_step_loop(env, W, coup, t_max):
    """The Moller block accumulated one site at a time (the former algorithm)."""
    psi = coup.star()
    Mstar = build_contraction(W, psi, coup.alpha).matrix.conj().T
    window = Window(-(t_max + 1), 0, env.m)
    A = np.zeros((window.env_dim, W.shape[0]), dtype=complex)
    row = psi.conj() @ W.conj().T
    Uv = coup.v
    for tp in range(t_max + 1):
        Uv = env.U @ Uv
        off = window.site_offset(-(tp + 1))
        A[off:off + env.m, :] += np.outer(Uv, row)
        row = row @ Mstar
    return 1j * np.sin(coup.alpha) * A


class TestMollerBlock:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8), degree=st.integers(0, 3),
           alpha=st.floats(0.3, np.pi - 0.3), t_max=st.integers(0, 80))
    def test_matches_step_loop(self, seed, d, degree, alpha, t_max):
        # a Haar U with m = 3 is not diagonal, so U^(t'+1) v mixes sectors
        U = random_coin(3, np.random.default_rng(seed + 1))
        env, W, coup = instance(seed, d, 3, degree, alpha, U=U)
        assume(build_contraction(W, coup.star(), alpha).contractive)
        A, window = moller_sample_block(env, W, coup, t_max=t_max)
        assert (window.a, window.b) == (-(t_max + 1), 0)
        assert np.abs(A - moller_step_loop(env, W, coup, t_max)).max() <= 1e-15


class TestFluxForms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**INSTANCES)
    def test_fluxes_match_sector_sums(self, seed, d, m, degree, alpha):
        # phi_i and the walk rate from per-sector sums and step-by-step amplitudes
        env, W, coup = instance(seed, d, m, degree, alpha)
        psi, w, L = coup.star(), coup.weights(env), env.max_degree
        M = build_contraction(W, psi, alpha).matrix
        m_t, u_t, vec, wvec = [], [], W @ psi, psi
        for _ in range(L):
            m_t.append(np.vdot(psi, vec))
            vec = M @ vec
            wvec = W @ wvec
            u_t.append(np.vdot(psi, wvec))
        coeffs = [np.pad(f.coefficients, (0, L - f.degree)) for f in env.symbol_functions]
        B = sum(wj * c for wj, c in zip(w, coeffs))
        phi = [w[i] * ((2 - 2 * np.cos(alpha)) * (B[0] - c[0]).real
                       + 2 * np.sin(alpha) ** 2 * np.real(np.conj(B[1:] - c[1:]) @ m_t))
               for i, c in enumerate(coeffs)]
        tol = 4 * (L + 1) * m * EPS
        assert np.abs(flux_expectations(env, W, coup).phi - phi).max() <= tol
        if m > 1 and np.all((w > 1e-12) & (w < 1 - 1e-12)):
            rate = [w[i] * ((B[0] - c[0]).real + 2 * np.real(np.conj(B[1:] - c[1:]) @ u_t))
                    for i, c in enumerate(coeffs)]
            assert np.abs(small_alpha_flux_rate_walk(env, W, coup) - rate).max() <= tol

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3), degree=st.integers(0, 3),
           weights=st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3))
    def test_boundary_rate_is_the_former_formula(self, seed, m, degree, weights):
        # r_i = w_i (1 - w_i) 2 Re(sum_{j != i} w_j F_j(1) / (1 - w_i) - F_i(1))
        env, _, _ = instance(seed, 1, m, degree, 1.0)
        w = np.array(weights[:m])
        f1 = [f.at_one() for f in env.symbol_functions]
        ref = [w[i] * (1 - w[i]) * 2 * np.real(
            sum(w[j] * f1[j] for j in range(m) if j != i) / (1 - w[i]) - f1[i])
            for i in range(m)]
        assert np.abs(small_alpha_flux_rate(env, w) - ref).max() <= 16 * (degree + 1) * m * EPS


class TestFiniteTimeBands:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6), m=st.integers(1, 3),
           degree=st.integers(1, 3), alpha=st.floats(0.3, np.pi - 0.3), data=st.data())
    def test_aa_at_the_band_edge(self, seed, d, m, degree, alpha, data):
        # at t <= L the band |s' - t'| <= L is cut by the time range, not by L
        env, W, coup = instance(seed, d, m, degree, alpha)
        L = env.max_degree
        t = data.draw(st.integers(1, max(L, 1)))
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        xi = basis @ np.diag(rng.uniform(0, 1, d)) @ basis.conj().T
        psi1, psi2 = unit(rng, d), unit(rng, d)
        state = CovarianceState(Window(0, L, m), env, W, coup, sample_symbol=xi).step(t)
        simulated = state.pair_expectation(state.sample_vector(psi1), state.sample_vector(psi2))
        closed = finite_time_pair_expectation(env, W, coup, "aa", psi1, psi2, t,
                                              sample_symbol=xi)
        assert closed == pytest.approx(simulated, abs=8 * (L + 1) * d * EPS)
