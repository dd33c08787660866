import numpy as np
import pytest

from fermiwalk.walk import (WalkError, WalkSpec, build_cycle_walk,
                            build_regular_graph_walk, chiral_square, cycle_index,
                            cycle_star_vector, hadamard_coin, is_cyclic,
                            random_coin, rotation_coin, unitary_spectrum)


def k4_coloring():
    # proper 3-edge-colouring of the complete graph on 4 vertices
    return {
        (0, 0): 1, (1, 0): 0, (2, 0): 3, (3, 0): 2,
        (0, 1): 2, (2, 1): 0, (1, 1): 3, (3, 1): 1,
        (0, 2): 3, (3, 2): 0, (1, 2): 2, (2, 2): 1,
    }


def test_identity_coins_transport_spin_up():
    n = 3
    W = build_cycle_walk(n, [np.eye(2)] * n)
    for nu in range(n):
        src = np.zeros(2 * n, dtype=complex)
        src[cycle_index(n, nu, +1)] = 1.0
        expected = np.zeros(2 * n, dtype=complex)
        expected[cycle_index(n, nu + 1, +1)] = 1.0
        assert np.allclose(W @ src, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_cycle_walk_unitary(n):
    W = build_cycle_walk(n, [hadamard_coin()] * n)
    assert np.linalg.norm(W.conj().T @ W - np.eye(2 * n)) <= 1e-12
    assert np.linalg.norm(W @ W.conj().T - np.eye(2 * n)) <= 1e-12


def test_rotation_coin_matrix_element():
    # first step of the spin-up walker through the coin: amplitude cos(theta)
    W = build_cycle_walk(4, [rotation_coin(np.pi / 4)] * 4)
    src = np.zeros(8, dtype=complex)
    src[cycle_index(4, 0, +1)] = 1.0
    dst = np.zeros(8, dtype=complex)
    dst[cycle_index(4, 1, +1)] = 1.0
    assert np.vdot(dst, W @ src) == pytest.approx(np.cos(np.pi / 4))


def test_non_unitary_coin_names_the_culprit():
    coins = [np.eye(2)] * 4
    coins[2] = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(WalkError, match="coin 2"):
        build_cycle_walk(4, coins)


def test_k4_identity_coins_hop_is_involutive():
    W1 = build_regular_graph_walk(4, 3, k4_coloring(), [np.eye(3)] * 4)
    assert np.allclose(W1 @ W1, np.eye(12))


def test_k4_with_fourier_coins_unitary():
    omega = np.exp(2j * np.pi / 3)
    fourier = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    W = build_regular_graph_walk(4, 3, k4_coloring(), [fourier] * 4)
    assert np.linalg.norm(W.conj().T @ W - np.eye(12)) <= 1e-12


def test_coloring_with_fixed_point_rejected():
    coloring = k4_coloring()
    coloring[(0, 0)] = 0
    with pytest.raises(WalkError, match="fixed point"):
        build_regular_graph_walk(4, 3, coloring, [np.eye(3)] * 4)


def test_odd_vertex_count_rejected():
    with pytest.raises(WalkError, match="even"):
        build_regular_graph_walk(3, 2, {}, [np.eye(2)] * 3)


def test_identity_walk_is_never_cyclic():
    ok, rank = is_cyclic(np.eye(4), np.array([1.0, 0, 0, 0]))
    assert (ok, rank) == (False, 1)


def test_identity_coins_not_cyclic():
    n = 4
    W = build_cycle_walk(n, [np.eye(2)] * n)
    ok, rank = is_cyclic(W, cycle_star_vector(n))
    assert not ok and rank < 2 * n


def test_equal_coins_break_cyclicity_on_larger_cycles():
    # translation-invariant coins give each +-k momentum pair identical
    # eigenvalues, so the spectrum is degenerate and no vector is cyclic
    W = build_cycle_walk(4, [hadamard_coin()] * 4)
    evals = np.linalg.eigvals(W)
    gaps = np.abs(evals[:, None] - evals[None, :]) + np.eye(8)
    assert gaps.min() < 1e-12
    ok, rank = is_cyclic(W, cycle_star_vector(4))
    assert (ok, rank) == (False, 6)


def test_two_cycle_hadamard_is_cyclic():
    W = build_cycle_walk(2, [hadamard_coin()] * 2)
    assert is_cyclic(W, cycle_star_vector(2)) == (True, 4)


def test_distinct_rotation_coins_are_cyclic():
    thetas = [0.3, 0.8, 1.2, 0.5]
    W = build_cycle_walk(4, [rotation_coin(t) for t in thetas])
    assert is_cyclic(W, cycle_star_vector(4)) == (True, 8)


def test_cyclicity_invariant_under_phases():
    rng = np.random.default_rng(11)
    W = build_cycle_walk(4, [random_coin(2, rng) for _ in range(4)])
    psi = cycle_star_vector(4)
    ref = is_cyclic(W, psi)
    assert is_cyclic(np.exp(0.7j) * W, psi) == ref
    assert is_cyclic(W, np.exp(-1.3j) * psi) == ref


def test_homogeneous_walk_commutes_with_shift():
    n = 6
    W = build_cycle_walk(n, [rotation_coin(0.4)] * n)
    shift = np.zeros((n, n))
    for nu in range(n):
        shift[(nu + 1) % n, nu] = 1.0
    R = np.kron(shift, np.eye(2))
    assert np.linalg.norm(R @ W - W @ R) <= 1e-13


def test_random_coins_unitary_walks():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
        assert np.linalg.norm(W.conj().T @ W - np.eye(2 * n)) <= 1e-12


def test_walk_spec_roundtrip():
    spec = WalkSpec(kind="cycle", n=4, coins=[hadamard_coin()] * 4)
    W, psi = spec.build()
    assert W.shape == (8, 8)
    assert np.allclose(psi, cycle_star_vector(4))
    assert spec.dimension == 8

    raw = WalkSpec(kind="raw", matrix=np.eye(2), star_vector=np.array([0.0, 1.0]))
    W2, psi2 = raw.build()
    assert np.allclose(W2, np.eye(2)) and psi2[1] == 1.0

    with pytest.raises(WalkError, match="star_vector"):
        WalkSpec(kind="raw", matrix=np.eye(2)).build()


def _dense_product(n, k, coins, row_of):
    # W = W1 @ W2 written out: W2 block diagonal in the coins, W1 sending the
    # basis state k*nu + a to row_of(nu, a)
    w2 = np.zeros((n * k, n * k), dtype=complex)
    w1 = np.zeros((n * k, n * k), dtype=complex)
    for nu, coin in enumerate(coins):
        w2[k * nu:k * nu + k, k * nu:k * nu + k] = coin
        for a in range(k):
            w1[row_of(nu, a), k * nu + a] = 1.0
    return w1 @ w2


def _random_coloring(n, r, rng):
    # r random perfect matchings, one per colour
    target = {}
    for a in range(r):
        perm = rng.permutation(n)
        for x, y in zip(perm[0::2], perm[1::2]):
            target[(int(x), a)], target[(int(y), a)] = int(y), int(x)
    return target


@pytest.mark.parametrize("n", [2, 3, 5, 64])
def test_cycle_walk_equals_dense_product(n):
    rng = np.random.default_rng(100 + n)
    coins = [random_coin(2, rng) for _ in range(n)]
    ref = _dense_product(n, 2, coins, lambda nu, a: cycle_index(n, nu + 2 * a - 1, 2 * a - 1))
    assert np.array_equal(build_cycle_walk(n, coins), ref)


@pytest.mark.parametrize("n,r", [(2, 3), (4, 2), (6, 3), (64, 3)])
def test_regular_graph_walk_equals_dense_product(n, r):
    rng = np.random.default_rng(200 + n)
    coloring = _random_coloring(n, r, rng)
    coins = [random_coin(r, rng) for _ in range(n)]
    ref = _dense_product(n, r, coins, lambda nu, a: r * coloring[(nu, a)] + a)
    assert np.array_equal(build_regular_graph_walk(n, r, coloring, coins), ref)


def test_regular_graph_non_unitary_coin_names_the_culprit():
    coins = [np.eye(3)] * 4
    coins[3] = np.diag([1.0, 1.0, 1.1])
    with pytest.raises(WalkError, match="coin 3 is not unitary"):
        build_regular_graph_walk(4, 3, k4_coloring(), coins)
    coins[3] = np.eye(2)
    with pytest.raises(WalkError, match="coin 3 must be 3x3"):
        build_regular_graph_walk(4, 3, k4_coloring(), coins)


def haar_walk(d):
    """A Haar walk of dimension ``d`` and a random unit vector."""
    rng = np.random.default_rng(d)
    W = random_coin(d, rng)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return W, psi / np.linalg.norm(psi)


def even_ring(n):
    """A ring of ``n`` random coins (``n`` even) and a random unit vector on its even vertices."""
    rng = np.random.default_rng(n)
    W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
    psi = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    psi[(np.arange(2 * n) // 2) % 2 == 1] = 0.0
    return W, psi / np.linalg.norm(psi)


@pytest.mark.parametrize("make, size", [pytest.param(haar_walk, d, id=str(d)) for d in (1, 2, 7, 40)]
                         + [pytest.param(even_ring, 12, id="ring12")])
@pytest.mark.parametrize("pole", [None, 0.3])
def test_unitary_spectrum_matches_dense_eigendecomposition(make, size, pole):
    # Haar walks and rings of random coins have simple eigenvalues, so the
    # dense eigenvectors are an orthonormal basis and the weights
    # |<x_k, psi>|^2 are well defined; the ring is solved through its
    # chiral square
    W, psi = make(size)
    assert (chiral_square(W, psi) is not None) == (make is even_ring)
    evals, X = np.linalg.eig(W)
    ref_phases = np.angle(evals) % (2 * np.pi)
    order = np.argsort(ref_phases)
    phases, weights = unitary_spectrum(W, psi, pole)
    assert unitary_spectrum(W, pole=pole)[1] is None
    assert np.abs(np.sort(unitary_spectrum(W, pole=pole)[0]) - ref_phases[order]).max() <= 1e-12
    mine = np.argsort(phases)
    assert np.abs(phases[mine] - ref_phases[order]).max() <= 1e-12
    ref_weights = np.abs(X.conj().T @ psi) ** 2
    assert np.abs(weights[mine] - ref_weights[order]).max() <= 1e-12
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestChiralSquare:
    def test_swap_walk_squares_to_one(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        XY, psi_P = chiral_square(W, np.array([0.0, 1j]))
        assert XY.shape == (1, 1) and XY[0, 0] == 1.0 and psi_P[0] == 1j
        phases, weights = unitary_spectrum(W, np.array([1.0, 0.0]))
        assert np.sort(phases) == pytest.approx([0.0, np.pi], abs=1e-15)
        assert weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_parts_of_an_even_ring(self):
        # W moves every state to a neighbouring vertex: the parts are the
        # states at even and at odd vertices, and P is the part of psi
        rng = np.random.default_rng(3)
        W = build_cycle_walk(6, [random_coin(2, rng) for _ in range(6)])
        even = (np.arange(12) // 2) % 2 == 0
        XY, _ = chiral_square(W)
        assert np.allclose(XY, (W @ W)[np.ix_(even, even)], atol=1e-14)
        XY, psi_P = chiral_square(W, cycle_star_vector(6, nu=1))
        assert np.allclose(XY, (W @ W)[np.ix_(~even, ~even)], atol=1e-14)
        assert psi_P.tolist() == [1.0, 0, 0, 0, 0, 0]

    def test_odd_ring_haar_walk_and_straddling_psi_take_the_full_solve(self):
        rng = np.random.default_rng(5)
        odd = build_cycle_walk(5, [random_coin(2, rng) for _ in range(5)])
        assert chiral_square(odd) is None
        assert chiral_square(random_coin(8, rng)) is None
        even = build_cycle_walk(4, [random_coin(2, rng) for _ in range(4)])
        assert chiral_square(even, np.full(8, 8 ** -0.5)) is None
        # identity coins leave two disjoint cycles: no colouring covers both
        assert chiral_square(build_cycle_walk(4, [np.eye(2)] * 4)) is None
