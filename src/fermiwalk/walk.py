"""One-particle walk unitaries on finite graphs.

Two constructions are provided: the coined walk on a cycle of ``n`` vertices
(internal space C^2, spanned by the spin states ``e_{-1}, e_{+1}``) and the
coined walk on a class-1 regular graph (internal space C^r indexed by edge
colours).  Both are products ``W = W1 @ W2`` where the coin ``W2`` acts first
and the conditional hop ``W1`` second.

Basis convention (fixed so matrix dumps are reproducible): position-major,
internal-minor.  For cycles the flat index of ``delta_nu (x) e_tau`` is
``2*nu + (0 if tau == -1 else 1)``; for regular graphs it is ``r*nu + a``.

:func:`unitary_spectrum` is the one eigensolver for walk unitaries: a
Hermitian eigensolve of the Cayley transform, which gives the eigenphases
and, on request, the weights ``|<x_k, psi>|^2`` of a vector on the
eigenvectors.  A walk that swaps two halves ``P``, ``Q`` of the basis, as
every coined walk on an even ring does (even and odd vertices), is solved
at half size: :func:`chiral_square` finds the halves and forms
``XY = W[P, Q] W[Q, P]``, since ``W^2 = diag(XY, YX)``, and the eigenvalues
of ``W`` are ``+-sqrt(mu)`` over those ``mu`` of ``XY``.  This is the
chiral symmetry ``Gamma W Gamma = -W`` of coined walks written as CMV
matrices (Cantero, Grunbaum, Moral & Velazquez, *CPAM* 63, 2010).  A
:class:`CoinedWalk` keeps the hop and coin layers of ``W``, from which
``XY`` is built in ``O(n k^3)`` without forming ``W``; a bare array is
searched and multiplied densely.

Whether a star vector is cyclic for ``W`` is decided by the contraction
gate, in :func:`fermiwalk.coupling.is_cyclic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "WalkError",
    "WalkSpec",
    "CoinedWalk",
    "walk_matrix",
    "hadamard_coin",
    "rotation_coin",
    "random_coin",
    "build_cycle_walk",
    "build_regular_graph_walk",
    "cycle_index",
    "cycle_star_vector",
    "check_unitary",
    "check_unit_vector",
    "unitary_spectrum",
    "chiral_square",
    "chiral_spectrum",
    "householder_vector",
]

UNITARITY_TOL = 1e-12
UNIT_NORM_TOL = 1e-10
# chord distance from the Cayley pole below which a computed eigenvalue
# triggers one re-centred solve (phase errors then stay near 1e-14)
POLE_CLEARANCE = 0.05
# pole of the phases-only first solve that locates the widest spectral gap
# of a walk with no known gap; no root of unity, so no common walk has an
# eigenvalue on it
FIRST_POLE = 1.0


class WalkError(ValueError):
    """Invalid walk data (non-unitary coin, improper colouring, ...)."""


def hadamard_coin() -> np.ndarray:
    """The 2x2 Hadamard coin (1/sqrt2) [[1, 1], [-1, 1]]."""
    return np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


def rotation_coin(theta: float) -> np.ndarray:
    """Real rotation coin [[cos t, -sin t], [sin t, cos t]] in the (e_-1, e_+1) basis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def random_coin(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ``dim x dim`` unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def check_unitary(A: np.ndarray, what: str = "matrix", letter: str = "A",
                  error: type[Exception] = WalkError) -> float | np.ndarray:
    """``||A* A - 1||_F`` of a matrix, or of each matrix of a stack: the one unitarity check.

    Made where a coin, a raw walk or ``U`` enters.  Raises ``error`` above
    ``UNITARITY_TOL`` (NaN too), naming ``what`` and a stack's first bad index.
    """
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1] or not A.size:
        raise error(f"{what} must be square and non-empty, got shape {A.shape}")
    gram = A.conj().swapaxes(-1, -2) @ A - np.eye(A.shape[-1])
    dev = np.linalg.norm(gram, axis=None if A.ndim == 2 else (-2, -1))
    bad = np.flatnonzero(~(np.ravel(dev) <= UNITARITY_TOL))
    if bad.size:
        name = f"{what} {bad[0]}" if A.ndim > 2 else what
        raise error(f"{name} is not unitary: ||{letter}*{letter} - 1|| = "
                    f"{np.ravel(dev)[bad[0]]:.3e} > {UNITARITY_TOL:.1e}")
    return dev


def check_unit_vector(x, what: str = "vector", error: type[Exception] = WalkError) -> np.ndarray:
    """``x`` flat and complex; the one norm check, made where ``psi*`` or ``v`` enters."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(x) - 1.0) <= UNIT_NORM_TOL:
        raise error(f"{what} must be a unit vector, got norm {np.linalg.norm(x):.8f}")
    return x


def cycle_index(n: int, nu: int, tau: int) -> int:
    """Flat index of ``delta_nu (x) e_tau`` on the cycle, tau in {-1, +1}."""
    if tau not in (-1, +1):
        raise WalkError(f"spin must be -1 or +1, got {tau}")
    return 2 * (nu % n) + (0 if tau == -1 else 1)


def cycle_star_vector(n: int, nu: int = 0, tau: int = -1) -> np.ndarray:
    """The distinguished unit vector ``delta_nu (x) e_tau`` (default ``delta_0 (x) e_{-1}``)."""
    psi = np.zeros(2 * n, dtype=complex)
    psi[cycle_index(n, nu, tau)] = 1.0
    return psi


def _coin_stack(coins, n: int, k: int) -> np.ndarray:
    """The ``(n, k, k)`` stack of per-vertex coins, all checked unitary at once."""
    coins = [np.asarray(c, dtype=complex) for c in coins]
    if len(coins) != n:
        raise WalkError(f"expected {n} coins, got {len(coins)}")
    for nu, coin in enumerate(coins):
        if coin.shape != (k, k):
            raise WalkError(f"coin {nu} must be {k}x{k}, got shape {coin.shape}")
    stack = np.array(coins, dtype=complex).reshape(n, k, k)
    check_unitary(stack, "coin", "C")
    return stack


def _hop_after_coin(rows: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """``W = W1 @ W2`` without forming either factor.

    ``W2`` is block diagonal with ``coins[nu]`` on the ``k`` basis states
    ``k*nu + a`` of vertex ``nu``, and the permutation ``W1`` sends state
    ``k*nu + a`` to ``rows[nu, a]``.  So row ``rows[nu, a]`` of ``W`` is row
    ``a`` of ``coins[nu]`` on columns ``k*nu .. k*nu + k - 1``, and zero
    elsewhere.
    """
    n, k = rows.shape
    W = np.zeros((n * k, n * k), dtype=complex)
    cols = k * np.arange(n)[:, None] + np.arange(k)
    W[rows[:, :, None], cols[:, None, :]] = coins
    return W


def _cycle_rows(n: int) -> np.ndarray:
    """The rows of :func:`_hop_after_coin` on the cycle: spin -1 one vertex down, +1 up."""
    nu = np.arange(n)
    return np.stack([2 * ((nu - 1) % n), 2 * ((nu + 1) % n) + 1], axis=1)


@dataclass(frozen=True, eq=False)
class CoinedWalk:
    """A coined walk kept as its two layers, the arguments of :func:`_hop_after_coin`.

    ``rows`` is the ``(n, k)`` array of hop targets and ``coins`` the
    ``(n, k, k)`` coin stack; ``shape`` is that of the ``d x d`` unitary,
    ``d = n k``, and ``matrix``, formed on first read, is the unitary itself.
    :func:`chiral_square` reads the layers and never forms ``matrix``.
    """

    rows: np.ndarray
    coins: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.size, self.rows.size)

    @cached_property
    def matrix(self) -> np.ndarray:
        return _hop_after_coin(self.rows, self.coins)


def walk_matrix(W) -> np.ndarray:
    """The dense unitary of a walk: a :class:`CoinedWalk`'s ``matrix``, or ``W`` as a complex array."""
    return W.matrix if isinstance(W, CoinedWalk) else np.asarray(W, dtype=complex)


def build_cycle_walk(n: int, coins) -> np.ndarray:
    """One-step unitary of the coined walk on a cycle of ``n`` vertices.

    ``W = W1 @ W2`` on C^n (x) C^2 where ``W2`` applies the coin ``coins[nu]``
    at vertex ``nu`` and ``W1`` moves spin -1 one vertex down and spin +1 one
    vertex up (indices mod ``n``).

    Parameters
    ----------
    n : int
        Number of vertices, ``n >= 2``.
    coins : sequence of (2, 2) arrays
        One unitary coin per vertex.

    Returns
    -------
    (2n, 2n) complex ndarray
    """
    if n < 2:
        raise WalkError(f"cycle needs n >= 2 vertices, got {n}")
    return _hop_after_coin(_cycle_rows(n), _coin_stack(coins, n, 2))


def build_regular_graph_walk(n: int, r: int, edge_coloring, coins) -> np.ndarray:
    """One-step unitary of the coined walk on a class-1 ``r``-regular graph.

    ``edge_coloring`` maps ``(nu, a)`` to the vertex at the other end of the
    colour-``a`` edge at ``nu``; for each colour this map must be an involution
    without fixed points (a perfect matching), which forces ``n`` to be even.

    Parameters
    ----------
    n, r : int
        Vertex count and degree.
    edge_coloring : mapping or callable
        ``edge_coloring[(nu, a)]`` or ``edge_coloring(nu, a)`` giving nu'.
    coins : sequence of (r, r) arrays
        One unitary coin per vertex.

    Returns
    -------
    (n*r, n*r) complex ndarray
    """
    if n % 2 != 0:
        raise WalkError(f"a proper {r}-edge-colouring forces n to be even, got n = {n}")
    if callable(edge_coloring):
        target = edge_coloring
    else:
        target = lambda nu, a: edge_coloring[(nu, a)]

    rows = np.empty((n, r), dtype=int)
    for a in range(r):
        for nu in range(n):
            nup = target(nu, a)
            if not 0 <= nup < n:
                raise WalkError(f"colour {a} at vertex {nu} points outside the graph: {nup}")
            if nup == nu:
                raise WalkError(f"colour {a} has a fixed point at vertex {nu}")
            if target(nup, a) != nu:
                raise WalkError(f"colour {a} is not an involution at vertex {nu}")
            rows[nu, a] = r * nup + a
    return _hop_after_coin(rows, _coin_stack(coins, n, r))


@dataclass
class WalkSpec:
    """A declarative walk description, as read from an experiment config.

    ``kind`` is one of ``"cycle"``, ``"regular_graph"`` or ``"raw"``.  The
    star vector defaults to the first basis vector (``delta_0 (x) e_{-1}`` on
    a cycle); an explicit ``star_vector`` overrides it.
    """

    kind: str
    n: int | None = None
    r: int | None = None
    coins: list = field(default_factory=list)
    edge_coloring: dict | None = None
    matrix: np.ndarray | None = None
    star_vector: np.ndarray | None = None

    def build(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(W, psi_star)``, checked unitary and normalised; their users assume both."""
        if self.kind == "cycle":
            W = build_cycle_walk(self.n, self.coins)
        elif self.kind == "regular_graph":
            W = build_regular_graph_walk(self.n, self.r, self.edge_coloring, self.coins)
        elif self.kind == "raw":
            W = np.asarray(self.matrix, dtype=complex)
            check_unitary(W, "raw walk matrix", "W")
            if self.star_vector is None:
                raise WalkError("raw walks need an explicit star_vector")
        else:
            raise WalkError(f"unknown walk kind {self.kind!r}")
        psi = np.asarray(np.eye(1, W.shape[0])[0] if self.star_vector is None
                         else self.star_vector, dtype=complex)
        if psi.shape != (W.shape[0],):
            raise WalkError(f"star vector has length {psi.shape}, expected {W.shape[0]}")
        return W, check_unit_vector(psi, "star vector")


def householder_vector(x: np.ndarray, k: int) -> np.ndarray | None:
    """``u`` whose reflector ``1 - 2 u u* / u* u`` maps ``e_k`` to ``e^{-i arg x_k} x``.

    ``x`` is a unit vector; ``None`` when it is ``e_k`` up to a phase (the
    reflector would be the identity).  ``u = y - e_k`` for
    ``y = e^{-i arg x_k} x``, with ``u_k = -sum_{j != k} |y_j|^2 / (1 + y_k)``
    written without cancellation (Golub & Van Loan, 5.1).
    """
    x = np.asarray(x, dtype=complex)
    u = x * np.exp(-1j * np.angle(x[k]))
    u[k] = 0.0
    s = np.vdot(u, u).real
    if s == 0.0:
        return None
    u[k] = -s / (1.0 + abs(x[k]))
    return u


def _cayley_matrix(W: np.ndarray, pole: float, first: np.ndarray | None):
    """``(H^T, z)``: the Hermitian Cayley transform of ``W`` at ``z = -e^{-i pole}``, transposed.

    ``H = i(1 - zW)(1 + zW)^{-1} = 2i(1 + zW)^{-1} - i`` is Hermitian, and an
    eigenvalue ``e^{i theta}`` of ``W`` maps to ``h = tan((theta + arg z)/2)``.
    The map is singular at ``e^{i pole}``; the phase error grows like
    ``eps / (distance of the spectrum from the pole)``.  The transform works
    on ``W^T`` (Fortran-ordered for a C-ordered ``W``), whose ``H^T`` has the
    same spectrum and the conjugate eigenvectors, so that LAPACK overwrites
    it without a copy.  Given a unit vector ``first``, ``W^T`` is first
    conjugated by the Householder reflector ``R`` with ``R e_0 = first`` (up
    to a phase), a rank-two update, so that ``first`` becomes the first
    basis vector.
    """
    z = -np.exp(-1j * pole)
    diag = np.arange(W.shape[0])
    a = np.multiply(W.T, z, order="F")
    a[diag, diag] += 1.0
    u = None if first is None else householder_vector(first, 0)
    if u is not None:
        beta = 2.0 / np.vdot(u, u).real
        a -= np.outer(u, beta * (u.conj() @ a))
        a -= np.outer(beta * (a @ u), u.conj())
    # getrf + getri: scipy.linalg.inv's numbers without its condition estimate
    lu, piv, info = lapack.zgetrf(a, overwrite_a=1)
    lwork = int(lapack.zgetri_lwork(W.shape[0])[0].real)
    a, info2 = lapack.zgetri(lu, piv, lwork=lwork, overwrite_lu=1)
    if info or info2:
        raise np.linalg.LinAlgError(f"1 + zW is singular: W has an eigenvalue at the pole {pole}")
    a *= 2j
    a[diag, diag] -= 1j
    return a, z


def _cayley_spectrum(W: np.ndarray, pole: float,
                     psi: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenphases of ``W`` at one pole and, given ``psi``, the weights ``|<x_k, psi>|^2``.

    One tridiagonal reduction of the Cayley matrix (``zhetrd``, lower), then
    ``dsterf`` for the eigenvalues alone (what ``eigvalsh`` runs, to the bit)
    or ``dstevd`` with the tridiagonal eigenvectors.  The eigenvectors of
    ``H^T`` are the conjugates of those of ``W``, so the weights are
    ``|<x_k^*, psi^*>|^2``.  With ``psi^*`` the first basis vector, which
    the lower reduction keeps first, they are the squared first components
    of the tridiagonal eigenvectors: nothing goes back to the full basis.
    """
    a, z = _cayley_matrix(W, pole, None if psi is None else psi.conj())
    d = a.shape[0]
    lwork = int(lapack.zhetrd_lwork(d, lower=1)[0].real)
    _, diag, off, _, info = lapack.zhetrd(a, lower=1, lwork=lwork, overwrite_a=1)
    if d == 1:
        off = np.zeros(1)       # the wrappers want one off-diagonal entry, unread
    if psi is None:
        h, info2 = lapack.dsterf(diag, off, overwrite_d=1, overwrite_e=1)
        weights = None
    else:
        h, Y, info2 = lapack.dstevd(diag, off, compute_v=1, overwrite_d=1, overwrite_e=1)
        weights = Y[0] ** 2
    if info or info2:
        raise np.linalg.LinAlgError(f"Cayley eigensolve failed (info {info}, {info2})")
    return (2.0 * np.arctan(h) - np.angle(z)) % (2.0 * np.pi), weights


def _widest_gap_centre(phases: np.ndarray) -> float:
    """Middle of the widest arc of the unit circle that holds none of ``phases``."""
    ordered = np.sort(phases)
    gaps = np.concatenate((ordered[1:], ordered[:1] + 2.0 * np.pi)) - ordered
    k = int(np.argmax(gaps))
    return float(ordered[k] + 0.5 * gaps[k])


def _two_colouring(starts: list, cols: list) -> np.ndarray | None:
    """Colours 0/1 of a graph that give no edge one colour, else ``None``.

    The edges of vertex ``v`` go to ``cols[starts[v]:starts[v + 1]]``.  A
    breadth-first search from vertex 0; a vertex it does not reach keeps the
    colour -1.  On the support of a unitary, or on the vertices of a coined
    walk, every vertex has as many edges in as out, so the search reaches
    every vertex joined to 0 and meets all of their edges.
    """
    part = [-1] * (len(starts) - 1)
    part[0] = 0
    frontier = [0]
    while frontier:
        reached = []
        for v in frontier:
            for u in cols[starts[v]:starts[v + 1]]:
                if part[u] < 0:
                    part[u] = 1 - part[v]
                    reached.append(u)
                elif part[u] == part[v]:
                    return None
        frontier = reached
    return np.array(part)


def _layered_square(walk: CoinedWalk, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``XY = W[P, Q] W[Q, P]`` from the coin layers, by one gather-product.

    Column ``k nu + b`` of ``W`` is ``sum_a coins[nu, a, b] e_{rows[nu, a]}``,
    so with ``(mu, c) = divmod(rows[nu, a], k)`` column ``k nu + b`` of
    ``W^2`` is ``sum_{a, a'} coins[mu, a', c] coins[nu, a, b]
    e_{rows[mu, a']}``: ``k^3`` terms for each vertex ``nu`` of ``P``, summed
    where two paths meet (a ring of two vertices).  ``P`` and ``Q`` hold
    the ``k`` states of each of their vertices, in ascending order.
    """
    rows, coins = walk.rows, walk.coins
    k = rows.shape[1]
    h = P.size
    pos = np.empty(2 * h, dtype=int)            # the place of each state in its half
    pos[P] = pos[Q] = np.arange(h)
    source = P[::k] // k
    mid, c = np.divmod(rows[source], k)
    terms = coins[mid, :, c][..., None] * coins[source][:, :, None, :]     # [nu, a, a', b]
    XY = np.zeros((h, h), dtype=complex)
    np.add.at(XY, (pos[rows[mid]][..., None], pos[P].reshape(-1, 1, 1, k)), terms)
    return XY


def chiral_square(W, psi: np.ndarray | None = None):
    """``(XY, psi_P)`` when ``W`` swaps two halves ``P``, ``Q`` of the basis, else ``None``.

    The halves are the two colours of a graph: for a :class:`CoinedWalk`,
    the ``n`` vertices joined by its hops ``nu -> rows[nu, a] // k``, each
    vertex carrying its ``k`` states, and ``XY`` comes from the coin layers
    (:func:`_layered_square`, no ``d x d`` array); for a bare ``W``, the
    support of ``W``, and ``XY`` is a dense product.  The colouring counts
    only if it covers every index, ``|P| = |Q|`` and no edge joins two
    indices of one colour; then ``W = [[0, X], [Y, 0]]`` in the order
    ``(P, Q)``, ``W^2 = diag(XY, YX)`` and ``XY = W[P, Q] W[Q, P]`` is
    unitary.  A given ``psi`` must vanish on one part, which becomes ``P``
    (``None`` if it touches both), and ``psi_P`` is its restriction; without
    ``psi``, ``P`` holds index 0.  The two graphs differ where a coin has a
    zero entry: identity coins on a ring leave the support of ``W`` two
    disjoint cycles, which no colouring from index 0 covers, while the
    vertices still colour.
    """
    d = W.shape[0]
    if isinstance(W, CoinedWalk):
        k = W.rows.shape[1]
        part = _two_colouring(range(0, d + 1, k), (W.rows // k).ravel().tolist())
        part = None if part is None else np.repeat(part, k)
    else:
        rows, cols = np.divmod(np.flatnonzero(W != 0), d)
        part = _two_colouring(np.searchsorted(rows, np.arange(d + 1)).tolist(), cols.tolist())
    if part is None:
        return None
    P, Q = np.flatnonzero(part == 0), np.flatnonzero(part == 1)
    if 2 * P.size != d or 2 * Q.size != d:
        return None
    if psi is not None and psi[Q].any():
        if psi[P].any():
            return None
        P, Q = Q, P
    XY = _layered_square(W, P, Q) if isinstance(W, CoinedWalk) else W[P][:, Q] @ W[Q][:, P]
    return XY, None if psi is None else psi[P]


def _pole_spectrum(W: np.ndarray, psi: np.ndarray | None,
                   pole: float | None) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_cayley_spectrum` at ``pole`` (re-centred once if needed), or at the widest gap."""
    if pole is None:
        return _cayley_spectrum(W, _widest_gap_centre(_cayley_spectrum(W, FIRST_POLE)[0]), psi)
    phases, weights = _cayley_spectrum(W, pole, psi)
    if np.abs(np.exp(1j * phases) - np.exp(1j * pole)).min() < POLE_CLEARANCE:
        phases, weights = _cayley_spectrum(W, _widest_gap_centre(phases), psi)
    return phases, weights


def chiral_spectrum(W, psi: np.ndarray | None = None,
                    pole: float | None = None) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """``(phases, weights, squared)``: the spectrum :func:`unitary_spectrum` derives W's from.

    When :func:`chiral_square` reduces ``W`` (``squared`` true) these are the
    eigenphases of ``XY`` and the weights of ``psi_P`` on its eigenvectors,
    solved at the pole ``2 pole``: both gaps of ``W`` at ``+-e^{i pole}``
    map onto the one gap of ``XY`` at ``e^{2i pole}``.  Otherwise they are
    those of ``W`` itself, a :class:`CoinedWalk` through its ``matrix``.
    """
    square = chiral_square(W, psi)
    if square is None:
        return (*_pole_spectrum(walk_matrix(W), psi, pole), False)
    return (*_pole_spectrum(*square, None if pole is None else 2.0 * pole), True)


def unitary_spectrum(W, psi: np.ndarray | None = None,
                     pole: float | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenphases in ``[0, 2 pi)`` of the unitary ``W`` (array or :class:`CoinedWalk`) and weights.

    Returns ``(phases, weights)`` with ``weights[k] = |<x_k, psi>|^2`` on the
    eigenvector ``x_k`` of ``e^{i phases[k]}``, or ``None`` without ``psi``.
    ``pole`` is a phase that the caller knows to lie in a spectral gap; the
    Cayley transform is singular there.  Without one, a phases-only first
    solve at ``FIRST_POLE`` finds the widest gap and the pole goes to its
    middle.  When the computed spectrum comes within ``POLE_CLEARANCE``
    (chord) of a given pole, as it can when that gap is narrow or closed, the
    pole moves once to the middle of the widest empty arc of the computed
    phases and the matrix is solved again.

    A bipartite ``W`` is solved at half size (:func:`chiral_spectrum`): an
    eigenpair ``(e^{i phi}, u)`` of ``XY`` gives the eigenvalues
    ``+-e^{i phi/2}`` of ``W``, with eigenvectors ``(u, +-e^{-i phi/2} Y u)
    / sqrt 2``, so each weight ``w`` of ``psi_P`` becomes ``w/2`` twice.
    """
    phases, weights, squared = chiral_spectrum(W, psi, pole)
    if not squared:
        return phases, weights
    half = 0.5 * phases
    return np.concatenate((half, half + np.pi)), None if weights is None else np.tile(0.5 * weights, 2)
