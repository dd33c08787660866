import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermiwalk.coupling import (MAX_HORIZON, SPR_MAX, CouplingError, CouplingSpec, Window,
                                build_contraction, coupling_exponential,
                                decay_certificate, is_cyclic, moller_sample_block,
                                one_step_joint_operator, spectral_radius)
from fermiwalk.asymptotics import asymptotic_symbol, flux_expectations
from fermiwalk.environment import EnvironmentSpec, SymbolFunction, build_truncated_symbol
from fermiwalk.walk import (build_cycle_walk, chiral_square, cycle_star_vector, hadamard_coin,
                            random_coin, rotation_coin, unitary_spectrum)


def rotation_walk(n=4, thetas=(0.3, 0.8, 1.2, 0.5)):
    W = build_cycle_walk(n, [rotation_coin(t) for t in thetas])
    return W, cycle_star_vector(n)


def env_m1(coeffs=(0.5, 0.0, 0.125)):
    return EnvironmentSpec(np.eye(1), [SymbolFunction(coeffs)])


class TestContraction:
    def test_alpha_zero_is_walk(self):
        W, psi = rotation_walk()
        assert np.allclose(build_contraction(W, psi, 0.0).matrix, W)

    def test_alpha_pi_is_reflection(self):
        W, psi = rotation_walk()
        M = build_contraction(W, psi, np.pi).matrix
        P = np.outer(psi, psi.conj())
        assert np.allclose(M, W @ (np.eye(8) - 2 * P))
        assert np.linalg.norm(M.conj().T @ M - np.eye(8)) <= 1e-12

    def test_acts_as_walk_off_the_star_vector(self):
        W, psi = rotation_walk()
        M = build_contraction(W, psi, 1.1).matrix
        rng = np.random.default_rng(0)
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi -= psi * np.vdot(psi, phi)
        assert np.allclose(M @ phi, W @ phi)

    def test_trig_identity(self):
        # sin^2(a) W P W* = 1 - M M* for every alpha
        W, psi = rotation_walk()
        P = np.outer(psi, psi.conj())
        for alpha in (0.0, 0.3, np.pi / 4, 1.0, 2.5, np.pi):
            M = build_contraction(W, psi, alpha).matrix
            lhs = np.sin(alpha) ** 2 * W @ P @ W.conj().T
            rhs = np.eye(8) - M @ M.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-13


    @pytest.mark.parametrize("d", [1, 5, 32])
    def test_rank_one_update_equals_dense_product(self, d):
        rng = np.random.default_rng(d)
        W, psi = random_coin(d, rng), random_coin(d, rng)[:, 0]
        P = np.outer(psi, psi.conj())
        for alpha in (0.3, 1.0, 2.5, np.pi):
            M = build_contraction(W, psi, alpha).matrix
            dense = W @ (np.eye(d) + (np.cos(alpha) - 1.0) * P)
            assert np.abs(M - dense).max() <= 8 * d * np.finfo(float).eps


def dense_spr(M):
    """The reference: largest eigenvalue modulus from a dense non-Hermitian eigensolve."""
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def random_star(d, rng):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def sample_walk(d, seed, ring):
    """A random ring of ``max(2, ceil(d/2))`` vertices with its default ``psi*``, or a Haar walk of size d."""
    rng = np.random.default_rng(seed)
    if ring:
        n = max(2, (d + 1) // 2)
        return build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)]), cycle_star_vector(n)
    return random_coin(d, rng), random_star(d, rng)


class TestSpectralRadius:
    def test_unitary_alphas(self):
        W, psi = rotation_walk()
        for alpha in (0.0, np.pi):
            M = build_contraction(W, psi, alpha).matrix
            assert spectral_radius(W, psi, alpha) == pytest.approx(1.0, abs=1e-12)
            assert dense_spr(M) == pytest.approx(1.0, abs=1e-12)

    def test_identity_walk_keeps_radius_one(self):
        psi = np.array([1.0, 0, 0, 0])
        assert spectral_radius(np.eye(4), psi, np.pi / 3) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.4, np.pi / 2, 2.0, np.pi])
    def test_exact_cases_on_the_circle(self, alpha):
        # the Hadamard ring of 4 leaves psi* non-cyclic, the identity walk
        # has one eigenvalue, and alpha in {0, pi} leaves M unitary: in
        # each case a root of the secular equation sits on the unit circle
        W = build_cycle_walk(4, [hadamard_coin()] * 4)
        psi = cycle_star_vector(4)
        assert not is_cyclic(W, psi)[0]
        assert spectral_radius(W, psi, alpha) == pytest.approx(1.0, abs=1e-12)
        assert spectral_radius(np.eye(8), psi, alpha) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(int(10 * alpha))
        U = random_coin(8, rng)
        for edge in (0.0, np.pi):
            assert spectral_radius(U, random_star(8, rng), edge) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(d=st.integers(1, 48), seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(0.0, np.pi), ring=st.booleans(), star=st.booleans())
    def test_matches_dense_eigvals(self, d, seed, alpha, ring, star):
        # Haar walks or random rings, the default or a random psi*; the
        # error of 1 - spr scales with d eps
        rng = np.random.default_rng(seed)
        if ring:
            n = max(2, d // 2)
            W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
            d = 2 * n
        else:
            W = random_coin(d, rng)
        psi = random_star(d, rng) if star or not ring else cycle_star_vector(d // 2)
        c = build_contraction(W, psi, alpha)
        gap, ref = 1.0 - c.spectral_radius, 1.0 - dense_spr(c.matrix)
        assert abs(gap - ref) <= 64 * d * np.finfo(float).eps

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(0.0, np.pi), rotation=st.booleans(),
           star=st.sampled_from(["P", "Q", "both"]))
    def test_chiral_square_matches_dense(self, n, seed, alpha, rotation, star):
        # even rings of random or rotation coins; psi* on the even vertices
        # (the part of index 0), on the odd ones, or on both, which leaves W
        # to the full solve
        rng = np.random.default_rng(seed)
        d = 4 * n
        if rotation:
            coins = [rotation_coin(t) for t in rng.uniform(0, 2 * np.pi, 2 * n)]
        else:
            coins = [random_coin(2, rng) for _ in range(2 * n)]
        W = build_cycle_walk(2 * n, coins)
        psi = random_star(d, rng)
        odd = (np.arange(d) // 2) % 2 == 1
        if star != "both":
            psi[odd == (star == "P")] = 0.0
            psi /= np.linalg.norm(psi)
        assert (chiral_square(W, psi) is None) == (star == "both")
        phases, weights = unitary_spectrum(W, psi)
        ref = np.sort(np.angle(np.linalg.eigvals(W)) % (2 * np.pi))
        assert np.abs(np.sort(phases) - ref).max() <= 1e-12
        # the weights through the moments sum_k w_k e^{i j phi_k} =
        # <psi, W^j psi> of the spectral measure: rotation rings have
        # eigenvalue pairs 1e-5 apart, on which the weights of a dense
        # eigendecomposition are off by 1e-12
        moment = psi
        for j in range(d):
            assert abs(weights @ np.exp(1j * j * phases) - np.vdot(psi, moment)) <= 1e-12
            moment = W @ moment
        c = build_contraction(W, psi, alpha)
        gap, ref = 1.0 - c.spectral_radius, 1.0 - dense_spr(c.matrix)
        assert abs(gap - ref) <= 64 * d * np.finfo(float).eps

    def test_swap_walk_is_nilpotent_at_a_right_angle(self):
        # M = [[0, 1], [1 + c, 0]]: spr(M) = sqrt|1 + c|, and c = -2 sin^2(pi/4)
        # is -1 to within a rounding
        W = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        psi = np.array([1.0, 0.0], dtype=complex)
        assert chiral_square(W, psi)[0].shape == (1, 1)
        assert spectral_radius(W, psi, np.pi / 2) <= 2.0 * np.sqrt(np.finfo(float).eps)
        assert spectral_radius(W, psi, 0.3) == pytest.approx(np.cos(0.3) ** 0.5, abs=1e-15)

    def test_real_two_by_two_near_a_reflection(self):
        # the reduced problem of a homogeneous 2-ring of rotation coins is
        # real with weights (1/2, 1/2): first-order starts at c = -2 meet at
        # the origin, while the roots sit near +-1
        W = build_cycle_walk(2, [rotation_coin(0.785)] * 2)
        psi = cycle_star_vector(2)
        for alpha in (np.pi - 1e-6, np.pi - 1e-3, 2.9, np.pi):
            M = build_contraction(W, psi, alpha).matrix
            assert 1.0 - spectral_radius(W, psi, alpha) == pytest.approx(
                1.0 - dense_spr(M), abs=64 * 4 * np.finfo(float).eps)

    def test_equal_coins_are_never_contractive(self):
        # momentum sectors k and -k of a homogeneous ring share eigenvalues,
        # so no psi* is cyclic; the eigensolver leaves such a pair about
        # d eps apart, which must still count as repeated
        for n in range(3, 9):
            for theta in np.linspace(0.05, 1.5, 30):
                W = build_cycle_walk(n, [rotation_coin(theta)] * n)
                for alpha in (0.2, 1.4, 2.6):
                    assert spectral_radius(W, cycle_star_vector(n), alpha) >= SPR_MAX

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(d=st.integers(1, 32), seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(-2 * np.pi, 2 * np.pi), ring=st.booleans())
    def test_determinant_bound(self, d, seed, alpha, ring):
        # |det M| = |cos alpha|, so spr(M) >= |cos alpha|^(1/d): an alpha
        # near a multiple of pi cannot pass the contraction gate
        W, psi = sample_walk(d, seed, ring)
        dim = W.shape[0]
        bound = 1.0 - abs(np.cos(alpha)) ** (1.0 / dim)
        gap = 1.0 - spectral_radius(W, psi, alpha)
        assert gap <= bound + 64 * dim * np.finfo(float).eps

    def test_cyclic_instance_contracts(self):
        W, psi = rotation_walk()
        c = build_contraction(W, psi, np.pi / 3)
        assert c.spectral_radius < 1.0 - 1e-6

    def test_radius_matches_cyclicity(self):
        rng = np.random.default_rng(42)
        alpha = np.pi / 3
        for _ in range(20):
            n = int(rng.choice([2, 3, 4]))
            W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
            psi = cycle_star_vector(n)
            cyclic, _ = is_cyclic(W, psi)
            spr = build_contraction(W, psi, alpha).spectral_radius
            if cyclic:
                assert spr < 1.0 - 1e-9
            else:
                assert spr >= 1.0 - 1e-12

    def test_invariant_under_star_fixing_conjugation(self):
        rng = np.random.default_rng(7)
        W, psi = rotation_walk()
        # unitary fixing psi*: 1 (+) haar on the complement
        base = np.linalg.qr(rng.standard_normal((7, 7))
                            + 1j * rng.standard_normal((7, 7)))[0]
        comp = np.eye(8, dtype=complex)
        comp[1:, 1:] = base
        V = comp  # psi* is the first basis vector for cycle walks
        spr1 = build_contraction(W, psi, 0.9).spectral_radius
        spr2 = build_contraction(V @ W @ V.conj().T, psi, 0.9).spectral_radius
        assert spr1 == pytest.approx(spr2, abs=1e-10)


def near_defective_contractions():
    """n = 4 rotation coins ``base + k 1.66e-3``, alpha = 0.112: nearly defective, spr ~ 0.99922."""
    for base in np.linspace(0.3, 1.3, 11):
        W, psi = rotation_walk(thetas=[base + k * 1.66e-3 for k in range(4)])
        yield build_contraction(W, psi, 0.112)


class TestDecayCertificate:
    def test_bound_holds_on_near_defective_instances(self):
        # ||M^t|| peaks near t = 5,000 here, far beyond any short power scan
        t = np.arange(1, 8001)
        for c in near_defective_contractions():
            powers = np.empty((len(t), 8, 8), dtype=complex)
            power = np.eye(8, dtype=complex)
            for k in range(len(t)):
                power = power @ c.matrix
                powers[k] = power
            norms = np.linalg.norm(powers, 2, axis=(1, 2))
            assert (norms <= c.power_norm_bound(t) * (1 + 1e-12)).all()

    def test_certificate_computes_spr_when_not_given(self):
        # without spr the radius comes from a dense eigensolve of M; the
        # contraction's radius comes from the secular equation, which agrees
        # with it to round-off
        W, psi = rotation_walk()
        c = build_contraction(W, psi, 1.0)
        C, q = decay_certificate(c.matrix)
        assert (C, q) == decay_certificate(c.matrix, dense_spr(c.matrix))
        assert (C, q) == pytest.approx(c.certificate, rel=1e-10)
        assert C >= 1.0 and c.spectral_radius <= q < 1.0

    def test_truncation_horizon(self):
        W, psi = rotation_walk()
        c = build_contraction(W, psi, 1.0)
        T = c.truncation_horizon(1e-9)
        C, q = c.certificate
        assert isinstance(T, int)
        # the bound covers the whole tail sum_{t >= T} ||M^t||
        assert c.power_norm_bound(T) / (1 - q) <= 1e-9 < c.power_norm_bound(T - 1) / (1 - q)

    def test_horizon_refused_without_contraction(self):
        c = build_contraction(np.eye(2), np.array([1.0, 0]), 0.7)
        with pytest.raises(CouplingError, match="spr"):
            c.truncation_horizon(1e-9)

    def test_horizon_beyond_cap_refused(self):
        # alpha = 1e-5 leaves 1 - spr(M) ~ 5e-12: the certified horizon is ~1e13 steps
        W, psi = rotation_walk()
        c = build_contraction(W, psi, 1e-5)
        c.require_contractive()
        with pytest.raises(CouplingError, match=f"cap of {MAX_HORIZON}"):
            c.truncation_horizon(1e-9)


class TestCouplingSpec:
    def test_unit_vector_enforced(self):
        with pytest.raises(CouplingError, match="unit"):
            CouplingSpec(0.5, np.array([1.0, 1.0]))

    def test_refuses_a_non_unit_star(self):
        # psi* is checked where it enters, not by is_cyclic or build_contraction
        with pytest.raises(CouplingError, match="psi\\* must be a unit vector"):
            CouplingSpec(0.5, np.array([1.0]), np.array([1.0, 1.0]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(alpha=st.sampled_from([0.0, 1e-9, -1e-9, np.pi - 1e-9, np.pi, np.pi + 1e-9,
                                  2 * np.pi + 1e-9]),
           seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 16), ring=st.booleans(),
           which=st.sampled_from(["symbol", "flux", "moller"]))
    def test_multiple_of_pi_refused(self, alpha, seed, d, ring, which):
        # no threshold on alpha: spr(M) >= |cos alpha|^(1/d) puts these
        # alphas within 1e-16 of spr = 1, and the contraction gate refuses them
        W, psi = sample_walk(d, seed, ring)
        coupling = CouplingSpec(alpha, np.array([1.0]), psi)
        run = {"symbol": asymptotic_symbol, "flux": flux_expectations,
               "moller": moller_sample_block}[which]
        with pytest.raises(CouplingError, match="multiple of pi"):
            run(env_m1(), W, coupling)


class TestIsCyclic:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1), repeated=st.booleans())
    def test_false_by_construction(self, d, seed, repeated):
        # W = X diag(lambda) X* with a repeated lambda, or psi* orthogonal
        # to one eigenvector: either way psi* is not cyclic
        rng = np.random.default_rng(seed)
        X = random_coin(d, rng)
        lam = np.exp(2j * np.pi * rng.random(d))
        psi = random_star(d, rng)
        if repeated:
            lam[1] = lam[0]
        else:
            psi -= X[:, 0] * np.vdot(X[:, 0], psi)
            psi /= np.linalg.norm(psi)
        W = (X * lam) @ X.conj().T
        cyclic, gap = is_cyclic(W, psi)
        assert not cyclic and gap <= 1.0 - SPR_MAX

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(d=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1), star=st.booleans())
    def test_haar_walks_are_cyclic(self, d, seed, star):
        # the gap is of the order of the smallest weight; it is smaller when
        # two eigenvalues nearly coincide (by about their squared distance)
        rng = np.random.default_rng(seed)
        W = random_coin(d, rng)
        psi = random_star(d, rng) if star else np.eye(d)[0]
        cyclic, gap = is_cyclic(W, psi)
        phases, weights = unitary_spectrum(W, psi)
        lam = np.exp(1j * phases)
        spacing = (np.abs(lam[:, None] - lam) + 4 * np.eye(d)).min()
        assert cyclic
        assert weights.min() * spacing ** 2 / 8 <= gap <= 8 * weights.min()


def test_built_walks_are_not_rechecked(monkeypatch):
    # W, psi*, v and U are checked where they are made; what reads them
    # afterwards must run with every check refusing
    import sys

    from fermiwalk.disorder import DisorderModel, averaged_density
    from fermiwalk.walk import WalkSpec

    env = env_m1()
    W, psi = WalkSpec(kind="cycle", n=4, coins=[rotation_coin(t) for t in (0.3, 0.8, 1.2, 0.5)]).build()
    coupling = CouplingSpec(0.7, np.array([1.0]), psi)
    model = DisorderModel(t=0.8, r=0.6, n=16, distribution="uniform", theta0=0.4,
                          halfwidth=0.1, seed=6)

    def refuse(*args, **kwargs):
        raise AssertionError("an input invariant was checked again")

    for name, module in list(sys.modules.items()):
        for check in ("check_unitary", "check_unit_vector"):
            if name.startswith("fermiwalk") and hasattr(module, check):
                monkeypatch.setattr(module, check, refuse)
    build_contraction(W, psi, 0.7)
    assert is_cyclic(W, psi)[0]
    asymptotic_symbol(env, W, coupling)
    flux_expectations(env, W, coupling)
    moller_sample_block(env, W, coupling)
    averaged_density(model, SymbolFunction((0.5, 0.0, 0.125)), alpha=0.5, samples=4)


class TestJointOperator:
    def setup_method(self):
        self.env = env_m1()
        self.W, psi = rotation_walk()
        self.coup = CouplingSpec(np.pi / 5, np.array([1.0]), psi)
        self.window = Window(-4, 4, 1)

    def test_alpha_zero_block_diagonal(self):
        coup0 = CouplingSpec(0.0, np.array([1.0]), self.coup.psi_star)
        T = one_step_joint_operator(self.window, self.env, self.W, coup0)
        ne = self.window.env_dim
        assert np.linalg.norm(T[:ne, ne:]) == 0.0
        assert np.linalg.norm(T[ne:, :ne]) == 0.0
        assert np.allclose(T[ne:, ne:], self.W)

    def test_star_column(self):
        # T (0 (+) psi*) = -i sin(a) (S delta_0 (x) U v) (+) cos(a) W psi*
        T = one_step_joint_operator(self.window, self.env, self.W, self.coup)
        alpha = self.coup.alpha
        vec = self.window.joint_sample_vector(self.coup.psi_star)
        out = T @ vec
        expected = (-1j * np.sin(alpha)
                    * self.window.joint_env_vector(-1, self.env.U @ self.coup.v, 8)
                    + np.cos(alpha) * self.window.joint_sample_vector(self.W @ self.coup.psi_star))
        assert np.allclose(out, expected)

    def test_interior_isometry(self):
        T = one_step_joint_operator(self.window, self.env, self.W, self.coup)
        rng = np.random.default_rng(3)
        # support at least two sites away from the window edges
        for k in (-2, 0, 1, 2):
            phi = self.window.joint_env_vector(k, [rng.standard_normal() + 1j], 8)
            phi += self.window.joint_sample_vector(
                rng.standard_normal(8) + 1j * rng.standard_normal(8))
            assert np.linalg.norm(T @ phi) == pytest.approx(np.linalg.norm(phi), abs=1e-12)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_window_needs_site_zero(self, boundary):
        from fermiwalk.simulate import CovarianceState
        with pytest.raises(CouplingError, match="outside"):
            one_step_joint_operator(Window(1, 4, 1), self.env, self.W, self.coup)
        # the covariance state of either boundary, which steps by this operator, refuses it too
        with pytest.raises(CouplingError):
            CovarianceState(Window(1, 4, 1), self.env, self.W, self.coup,
                            periodic=boundary == "periodic")

    def test_coupling_exponential_unitary(self):
        K = coupling_exponential(self.window, self.coup, 8)
        assert np.linalg.norm(K.conj().T @ K - np.eye(K.shape[0])) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    def test_coupling_exponential_is_dense_expm(self, m):
        # exp(-i alpha (iota + iota*)) with iota = |delta_0 (x) v><psi*|
        if m == 1:
            v, window = np.array([1.0]), self.window
        else:
            v, window = np.array([np.sqrt(0.4), 1j * np.sqrt(0.6)]), Window(0, 2, 2)
        coup = CouplingSpec(self.coup.alpha, v, self.coup.psi_star)
        iota = np.outer(window.joint_env_vector(0, v, 8),
                        window.joint_sample_vector(coup.psi_star).conj())
        expected = scipy.linalg.expm(-1j * coup.alpha * (iota + iota.conj().T))
        K = coupling_exponential(window, coup, 8)
        assert np.abs(K - expected).max() <= 1e-14


def banded_quadratic_form(env, A, window):
    """``A* Sigma_w A`` and the bound ``sum_l ||B_l||`` on ``||Sigma_w||``, without forming ``Sigma_w``.

    ``Sigma_w`` is block-Toeplitz with the band ``Sigma_w[k, k - l] = B_l``,
    ``B_l = sum_i <delta_l (x) x_i, Sigma delta_0 (x) x_i> pi_i``, as in
    :func:`build_truncated_symbol`.
    """
    n_sites, m, d = window.n_sites, env.m, A.shape[1]
    blocks = A.reshape(n_sites, m, d)
    sites = np.arange(n_sites)
    form = np.zeros((d, d), dtype=complex)
    norm = 0.0
    for ell in range(-env.max_degree, env.max_degree + 1):
        B = sum(env.lattice_coefficient(i, ell) * env.projector(i) for i in range(m))
        rows = sites[max(0, ell):n_sites + min(0, ell)]
        form += np.einsum("kia,ij,kjb->ab", blocks[rows].conj(), B, blocks[rows - ell])
        norm += np.linalg.norm(B, 2)
    return form, norm


class TestMollerBlock:
    def test_first_term(self):
        env = env_m1()
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        A, window = moller_sample_block(env, W, coup, t_max=0)
        # single summand: i sin(a) (S (x) U) iota W*
        expected_row = 1j * np.sin(0.9) * (psi.conj() @ W.conj().T)
        off = window.site_offset(-1)
        assert np.allclose(A[off:off + 1, :], expected_row[None, :])

    def test_column_norm_decay(self):
        env = env_m1()
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, np.array([1.0]), psi)
        contraction = build_contraction(W, psi, 0.9)
        A, window = moller_sample_block(env, W, coup, t_max=60)
        for tp in range(61):
            off = window.site_offset(-(tp + 1))
            block = A[off:off + 1, :]
            bound = abs(np.sin(0.9)) * contraction.power_norm_bound(tp)
            assert np.linalg.norm(block, 2) <= bound * (1 + 1e-12)

    def test_banded_form_equals_dense_section(self):
        env = EnvironmentSpec(np.diag([1.0, np.exp(0.7j)]),
                              [SymbolFunction((0.5, 0.1, 0.05)), SymbolFunction((0.3, 0.0, 0.0, 0.1j))])
        W, psi = rotation_walk()
        coup = CouplingSpec(0.9, np.array([0.6, 0.8]), psi)
        A, window = moller_sample_block(env, W, coup, t_max=12)
        sigma_w = build_truncated_symbol(env, (window.a, window.b))
        form, norm = banded_quadratic_form(env, A, window)
        assert np.abs(form - A.conj().T @ sigma_w @ A).max() <= 1e-15
        assert np.linalg.norm(sigma_w, 2) <= norm

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8), m=st.integers(1, 2),
           degree=st.integers(0, 3), alpha=st.floats(0.3, np.pi - 0.3), ring=st.booleans())
    def test_moller_identity(self, seed, d, m, degree, alpha, ring):
        # A* Sigma_w A = Delta on Haar walks or rings with a random psi*, a
        # Haar U, random valid symbols and a random v; no sample symbol
        # enters, since the Moller column has no sample block.  The tail
        # beyond the horizon T moves A by at most |sin alpha| C q^(T+1)/(1-q)
        # (||A|| <= 1), and round-off grows with the sum C / (1 - q).
        rng = np.random.default_rng(seed)
        if ring and d >= 4:
            d -= d % 2
            W = build_cycle_walk(d // 2, [random_coin(2, rng) for _ in range(d // 2)])
        else:
            W = random_coin(d, rng)
        psi = random_star(d, rng)
        symbols = []
        for _ in range(m):
            c0 = rng.uniform(0.2, 0.8)
            tail = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
            if degree:
                # sum |c(l)| <= min(c0, 1 - c0) / 2 keeps 0 <= 2 Re F <= 1
                tail *= rng.uniform() * min(c0, 1.0 - c0) / (2.0 * np.abs(tail).sum())
            symbols.append(SymbolFunction((c0, *tail)))
        env = EnvironmentSpec(random_coin(m, rng), symbols)
        coup = CouplingSpec(alpha, random_star(m, rng), psi)
        C, q = build_contraction(W, psi, alpha).certificate
        assume(q < 0.99)                       # horizons up to about 3,500 steps
        A, window = moller_sample_block(env, W, coup)
        form, sigma_norm = banded_quadratic_form(env, A, window)
        T = window.n_sites - 2
        tail = C * q ** (T + 1) / (1.0 - q)
        tol = sigma_norm * (2.0 * tail + tail ** 2 + 64 * d * np.finfo(float).eps * C / (1.0 - q))
        assert np.linalg.norm(form - asymptotic_symbol(env, W, coup).delta) <= tol

    def test_requires_contraction(self):
        env = env_m1()
        coup = CouplingSpec(0.9, np.array([1.0]), np.array([1.0, 0]))
        with pytest.raises(CouplingError, match="spr"):
            moller_sample_block(env, np.eye(2), coup)


class TestWindow:
    def test_indexing(self):
        win = Window(-3, 2, 2)
        assert win.n_sites == 6 and win.env_dim == 12
        assert win.site_offset(-3) == 0 and win.site_offset(2) == 10
        with pytest.raises(CouplingError, match="outside"):
            win.site_offset(3)
