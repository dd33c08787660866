import warnings

import numpy as np
import pytest

from fermiwalk.environment import (EnvironmentSpec, ReservoirError,
                                   SymbolFunction, build_truncated_symbol,
                                   eval_contour, eval_series, hermitian_part,
                                   validate_symbol)


def env_m1(coeffs=(0.5, 0.0, 0.125)):
    return EnvironmentSpec(np.eye(1), [SymbolFunction(coeffs)])


def random_contraction(rng, d, spr_target=0.9):
    B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return B * (spr_target / np.linalg.norm(B, 2))


class TestSymbolFunction:
    def test_constant_density(self):
        f = SymbolFunction.constant(0.3)
        assert f.density == pytest.approx(0.3)
        assert f(0.0) == pytest.approx(0.15)
        assert f.at_one() == pytest.approx(0.15)

    def test_coefficient_validation(self):
        with pytest.raises(ReservoirError, match="real"):
            SymbolFunction((0.5j,))
        with pytest.raises(ReservoirError, match=r"\[0, 1\]"):
            SymbolFunction((1.5,))
        with pytest.raises(ReservoirError, match="constant"):
            SymbolFunction(())

    def test_circle_density(self):
        f = SymbolFunction((0.5, 0.0, 0.125))
        phi = np.linspace(0, 2 * np.pi, 7)
        assert np.allclose(f.circle_density(phi), 0.5 + 0.25 * np.cos(2 * phi))


class TestValidateSymbol:
    def test_constant_passes(self):
        rep = validate_symbol(env_m1((0.5,)))
        assert rep.passed
        assert rep.minima[0] == pytest.approx(0.5)
        assert rep.maxima[0] == pytest.approx(0.5)

    def test_linear_coefficient_fails(self):
        rep = validate_symbol(env_m1((0.5, 1.0)))
        assert not rep.passed
        assert rep.minima[0] == pytest.approx(-1.5, abs=1e-6)
        assert rep.maxima[0] == pytest.approx(2.5, abs=1e-6)

    def test_quadratic_passes(self):
        rep = validate_symbol(env_m1())
        assert rep.passed
        assert rep.minima[0] == pytest.approx(0.25, abs=1e-9)
        assert rep.maxima[0] == pytest.approx(0.75, abs=1e-9)

    def test_minimum_between_grid_points_fails(self):
        # g = 0.5 - 3e-8 + 0.5 cos(phi + theta) dips to -3e-8 at phi = pi - theta,
        # 0.3 steps off a 4096-point grid, where g is still +2.3e-8
        theta = 0.3 * 2 * np.pi / 4096
        rep = validate_symbol(env_m1((0.5 - 3e-8, 0.25 * np.exp(1j * theta))))
        assert not rep.passed
        assert rep.minima[0] == pytest.approx(-3e-8, abs=1e-15)
        assert rep.worst_phi[0] == pytest.approx(np.pi - theta, abs=1e-7)

    def test_degenerate_polynomials(self):
        # vanishing higher coefficients leave z^L g'(z) identically zero
        rep = validate_symbol(env_m1((0.4, 0.0, 0.0)))
        assert rep.passed and rep.minima == rep.maxima == (pytest.approx(0.4),)
        # top coefficient zero: the derivative polynomial loses its end terms
        rep = validate_symbol(env_m1((0.5, 0.2, 0.0)))
        assert rep.minima[0] == pytest.approx(0.1, abs=1e-14)
        assert rep.maxima[0] == pytest.approx(0.9, abs=1e-14)


class TestEvalSeries:
    def test_zero_argument(self):
        f = SymbolFunction((0.5, 0.1, 0.2))
        assert np.allclose(eval_series(f, np.zeros((3, 3))), 0.25 * np.eye(3))

    def test_constant_function(self):
        f = SymbolFunction.constant(0.8)
        B = np.array([[0.0, 0.5], [0.0, 0.0]])
        assert np.allclose(eval_series(f, B), 0.4 * np.eye(2))

    def test_diagonal_evaluation(self):
        f = SymbolFunction((0.5, 0.0, 0.125))
        B = np.diag([0.5, 0.5j])
        out = eval_series(f, B)
        assert np.allclose(np.diag(out), [0.25 + 1 / 32, 0.25 - 1 / 32])

    def test_rejects_expansions(self):
        f = SymbolFunction((0.5,))
        with pytest.raises(ReservoirError, match=r"\|\|B\|\|"):
            eval_series(f, 1.5 * np.eye(2))

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(1)
        f = SymbolFunction((0.4, 0.1, 0.05, 0.02j))
        for _ in range(5):
            B = random_contraction(rng, 5)
            FB = eval_series(f, B)
            assert np.linalg.norm(FB @ B - B @ FB) <= 1e-12


class TestEvalContour:
    def test_constant_residue(self):
        f = SymbolFunction.constant(0.6)
        rng = np.random.default_rng(2)
        B = random_contraction(rng, 4, 0.5)
        out = eval_contour(f, B, radius=0.9, nodes=64)
        assert np.linalg.norm(out - 0.3 * np.eye(4)) <= 1e-12

    def test_matches_series_on_random_contractions(self):
        rng = np.random.default_rng(3)
        f = SymbolFunction((0.5, 0.0, 0.125))
        for _ in range(10):
            B = random_contraction(rng, 4, 0.9)
            dev = np.linalg.norm(eval_contour(f, B, 0.95, 256) - eval_series(f, B))
            assert dev <= 1e-10

    def test_nilpotent_jordan_block(self):
        f = SymbolFunction((0.5, 0.25, 0.1))
        B = np.diag(np.ones(3), k=1)  # spr = 0
        expected = 0.25 * np.eye(4) + 0.25 * B + 0.1 * B @ B
        assert np.linalg.norm(eval_contour(f, B, 0.5, 128) - expected) <= 1e-12

    def test_pole_inside_contour_rejected(self):
        f = SymbolFunction((0.5,))
        with pytest.raises(ReservoirError, match="radius"):
            eval_contour(f, 0.9 * np.eye(2), radius=0.5)


class TestEnvironmentSpec:
    def test_degenerate_unitary_rejected(self):
        with pytest.raises(ReservoirError, match="simple"):
            EnvironmentSpec(np.eye(2), [SymbolFunction((0.5,))] * 2)

    def test_empty_unitary_rejected(self):
        with pytest.raises(ReservoirError, match="non-empty"):
            EnvironmentSpec(np.zeros((0, 0)), [])

    @pytest.mark.parametrize("m, phases", [(3, None), (5, None), (3, (0.4, 0.4 + 2e-8, 2.0))])
    def test_schur_vectors_are_an_orthonormal_eigenbasis(self, m, phases):
        # random unitaries, and a near-degenerate one (phase gap 2e-8, just
        # above GAP_TOL) whose eigenvectors are ill-conditioned individually
        rng = np.random.default_rng(m)
        X = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        if phases is None:
            U = X
        else:
            U = X @ np.diag(np.exp(1j * np.array(phases))) @ X.conj().T
        env = EnvironmentSpec(U, [SymbolFunction((0.5,))] * m)
        Z = env.eigenvectors
        assert np.all(np.diff(env.phases) > 0)
        assert np.abs(Z.conj().T @ Z - np.eye(m)).max() <= 1e-14
        assert np.abs(U @ Z - Z * np.exp(1j * env.phases)).max() <= 1e-13
        if phases is not None:
            assert np.allclose(env.phases, phases, rtol=0, atol=1e-13)

    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(4)
        U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        env = EnvironmentSpec(U, [SymbolFunction((0.5,))] * 3)
        total = sum(env.projector(i) for i in range(3))
        assert np.linalg.norm(total - np.eye(3)) <= 1e-12
        for i in range(3):
            for j in range(3):
                prod = env.projector(i) @ env.projector(j)
                ref = env.projector(i) if i == j else np.zeros((3, 3))
                assert np.linalg.norm(prod - ref) <= 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        env = EnvironmentSpec(U, [SymbolFunction((0.5,))] * 3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert env.weights(v).sum() == pytest.approx(1.0)


class TestTruncatedSymbol:
    def test_constant_symbol_is_density_times_identity(self):
        env = env_m1((0.5,))
        sig = build_truncated_symbol(env, (-3, 3))
        assert np.allclose(sig, 0.5 * np.eye(7))

    def test_hermitian(self):
        env = env_m1((0.5, 0.1 + 0.2j, 0.05))
        sig = build_truncated_symbol(env, (-8, 8))
        assert np.linalg.norm(sig - sig.conj().T) <= 1e-14

    def test_short_window_is_exact_section(self):
        # a finite section is exact on the sites it holds, however short
        env = env_m1((0.5, 0.1 + 0.2j, 0.05))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            short = build_truncated_symbol(env, (0, 2))
        assert np.array_equal(short, build_truncated_symbol(env, (-8, 8))[8:11, 8:11])

    def test_spectrum_in_symbol_range(self):
        env = env_m1()
        sig = build_truncated_symbol(env, (0, 63))
        evals = np.linalg.eigvalsh(sig)
        assert evals.min() >= 0.25 - 0.02 and evals.max() <= 0.75 + 0.02

    def test_commutes_with_sector_projectors(self):
        rng = np.random.default_rng(6)
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        env = EnvironmentSpec(U, [SymbolFunction((0.5, 0.1)), SymbolFunction((0.3, 0.05j))])
        sig = build_truncated_symbol(env, (-4, 4))
        for i in range(2):
            proj = np.kron(np.eye(9), env.projector(i))
            assert np.linalg.norm(sig @ proj - proj @ sig) <= 1e-13

    def test_sector_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        funcs = [SymbolFunction((0.5, 0.1)), SymbolFunction((0.3, 0.05j))]
        env = EnvironmentSpec(U, funcs)
        # permuting the eigenpair labels (phase ordering is canonical, so
        # feeding the same data again must reproduce the same operator)
        env2 = EnvironmentSpec(env.U.copy(), list(funcs))
        assert np.allclose(build_truncated_symbol(env, (-3, 3)),
                           build_truncated_symbol(env2, (-3, 3)))

    def test_dynamics_invariance_on_window(self):
        # [Sigma, S (x) U] = 0 checked on the truncated interior
        rng = np.random.default_rng(8)
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        env = EnvironmentSpec(U, [SymbolFunction((0.5, 0.1)), SymbolFunction((0.3, 0.1j))])
        n_sites = 13
        sig = build_truncated_symbol(env, (0, n_sites - 1))
        shift = np.zeros((n_sites, n_sites))
        for k in range(n_sites - 1):
            shift[k, k + 1] = 1.0
        SU = np.kron(shift, env.U)
        comm = sig @ SU - SU @ sig
        interior = comm[2 * 2:(n_sites - 2) * 2, 2 * 2:(n_sites - 2) * 2]
        assert np.linalg.norm(interior) <= 1e-13


def test_hermitian_part():
    A = np.array([[1.0, 2.0j], [0.0, 3.0]])
    H = hermitian_part(A)
    assert np.linalg.norm(H - H.conj().T) == 0.0
    assert np.allclose(H, [[1.0, 1.0j], [-1.0j, 3.0]])
