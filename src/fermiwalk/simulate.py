"""Dynamical simulators validating the closed-form asymptotics.

Three independent routes to the same expectations:

* :class:`CovarianceState` propagates the joint one-particle symbol
  ``Sigma_{t+1} = T Sigma_t T*`` on a reservoir window closed into a ring,
  the finite model that the oracle is compared against, or on the exact
  infinite reservoir: there every site from ``L_max`` on keeps its rows of
  ``Sigma_0``, so the state holds only sites ``a..L_max`` and the sample, and
  ``t`` steps cost O(log t) dense products at ``O(((L_max - a + 1) m + d)^3)``;
* :func:`finite_time_pair_expectation` evaluates the explicit finite-time
  sums for pair expectations, with the reservoir brackets reduced to symbol
  coefficients;
* :class:`FockOracle` evolves the exact many-body state of a small periodic
  window (same-species representation, occupation amplitudes), for
  non-quadratic observables such as the full particle-number distribution.
  Each one-particle factor enters as its second quantisation ``Gamma(V)``,
  built one particle number at a time by first-row Laplace recursion
  (:func:`gamma_blocks`), with no determinant.  Every factor conserves the
  particle number, so each ensemble member is stored and stepped only in
  the number sectors where it has amplitude (:func:`_sector_tables`), not on
  all ``2^modes`` occupations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .coupling import (CouplingError, CouplingSpec, Window, _free_step, build_contraction,
                       check_symbol_spectrum, coupling_plane, decay_certificate,
                       exchange_rotation, horizon, one_step_joint_operator, orbit)
from .environment import EnvironmentSpec, build_truncated_symbol
from .walk import check_unit_vector, householder_vector, walk_matrix

__all__ = [
    "CovarianceState",
    "finite_time_pair_expectation",
    "flux_finite_time",
    "FockOracle",
    "gamma_blocks",
    "gamma_columns",
    "gamma_dense",
]


@dataclass
class CovarianceState:
    """Joint one-particle symbol of the modes that evolve, under ``Sigma -> A Sigma A*``.

    ``T`` is :func:`~fermiwalk.coupling.one_step_joint_operator`, the step of
    ``window`` closed into a ring.  Layout of ``sigma``: reservoir sites
    first (site-major), then the sample.  ``periodic=True`` is that finite
    ring, the model :class:`FockOracle` is compared against: ``A = T``.

    The default, open state is the exact infinite reservoir at every ``t``.
    Proof: ``Sigma_t[i, j] = <T_inf^{t*} e_i, Sigma_0 T_inf^{t*} e_j>`` for the
    infinite reservoir's step ``T_inf``.  The backward vector of a site
    ``k >= 0`` is a pure shift to site ``k + t``, while the sample and every
    site that has met the coupling have backward vectors on sites ``< t`` and
    the sample.  So for ``k >= L_max`` the rows of site ``k`` are its rows of
    ``Sigma_0`` at all times, and the outgoing left sites never act back (the
    shift is one-way): an open window must hold sites ``0..L_max``, ``window``
    is cut to ``Window(a, L_max, m)``, and ``sigma`` is
    ``N_act = (L_max - a + 1) m + d`` square.  On the other rows ``T_inf``
    is ``T``, so the step is exactly ``Sigma -> A Sigma A* + J``, with ``A``
    the ring step with the inflow rows of site ``L_max`` zeroed and ``J``
    their rows and columns of ``Sigma_0`` (zero when periodic).  Its
    fixed point ``X`` has sample block ``Delta``, and ``Sigma_t - X = A^t
    (Sigma_0 - X) A^t*`` with ``0 <= Sigma_0, X <= 1``, so
    ``||Sigma_S(t) - Delta|| <= ||A^t||^2``.

    Write ``(P, Q)`` for the map ``S -> P S P* + Q``.  Such maps compose as
    ``(P, Q)∘(P, Q) = (P^2, P Q P* + Q)``, so ``(P_k, Q_k)``, the map of
    ``2^k`` steps, follows from level ``k - 1`` (the squared Smith
    iteration), and :meth:`step` applies the levels at the set bits of its
    count: ``t`` steps cost O(log t) products of size ``N_act``.  The table
    grows only when a count needs a new level.
    """

    window: Window
    env: EnvironmentSpec
    W: np.ndarray
    coupling: CouplingSpec
    periodic: bool = False
    sample_symbol: np.ndarray | None = None
    sigma: np.ndarray = field(init=False)
    t: int = field(init=False, default=0)

    def __post_init__(self):
        window, L = self.window, self.env.max_degree
        if not self.periodic:
            if window.a > 0 or window.b < L:
                raise CouplingError(
                    f"open window [{window.a}, {window.b}] must hold sites 0..L_max = {L}")
            self.window = window = Window(window.a, L, window.m)
        self.W = np.asarray(self.W, dtype=complex)
        d = self.W.shape[0]
        self._A = one_step_joint_operator(window, self.env, self.W, self.coupling)
        if self.sample_symbol is None:
            xi = np.zeros((d, d), dtype=complex)
        else:
            xi = np.asarray(self.sample_symbol, dtype=complex)
            check_symbol_spectrum(np.linalg.eigvalsh(xi), "sample symbol Xi")
        self.sample_symbol = xi
        ne = window.env_dim
        self.sigma = np.zeros((ne + d, ne + d), dtype=complex)
        self.sigma[:ne, :ne] = build_truncated_symbol(self.env, (window.a, window.b))
        self.sigma[ne:, ne:] = xi
        J = None
        if not self.periodic:     # the rows and columns of site L_max in Sigma_0
            inflow = slice(ne - window.m, ne)
            self._A[inflow] = 0.0
            J = np.zeros_like(self.sigma)
            J[inflow] = self.sigma[inflow]
            J[:, inflow] = self.sigma[inflow].conj().T
        self._maps = [(self._A, J)]

    @property
    def d(self) -> int:
        return self.W.shape[0]

    def step(self, steps: int = 1) -> "CovarianceState":
        """Advance ``steps`` steps: the map of ``2^k`` steps at each set bit ``k`` of ``steps``.

        ``A`` has zero inflow rows, so one step is ``A sigma A*`` with the
        inflow rows and columns of ``Sigma_0`` restored, exactly.
        """
        if steps < 0:
            raise CouplingError(f"cannot step a covariance state {steps} steps back")
        k = 0
        while steps >> k:
            if k == len(self._maps):
                P, Q = self._maps[-1]
                self._maps.append((P @ P, None if Q is None else P @ Q @ P.conj().T + Q))
            if steps >> k & 1:
                P, Q = self._maps[k]
                self.sigma = P @ self.sigma @ P.conj().T
                if Q is not None:
                    self.sigma += Q
            k += 1
        self.t += steps
        return self

    def sample_block(self) -> np.ndarray:
        ne = self.window.env_dim
        return self.sigma[ne:, ne:].copy()

    def relaxation_horizon(self, tol: float = 1e-9) -> int:
        """First ``t`` with ``C_A^2 q_A^(2t) <= tol``; ``(C_A, q_A)`` certifies the open step ``A``.

        For every sample symbol ``0 <= Xi <= 1`` the sample block is then
        within ``tol`` of ``Delta`` after ``t`` steps (proof in the class
        docstring).  A periodic ``A`` is unitary, which the certificate refuses.
        """
        C, q = decay_certificate(self._A)
        return horizon(C ** 2, q ** 2, tol)

    def pair_expectation(self, f: np.ndarray, g: np.ndarray) -> complex:
        """``<c*(f) c(g)> = <g, Sigma_t f>`` for joint-space vectors."""
        return complex(np.vdot(g, self.sigma @ f))

    def env_vector(self, site: int, w) -> np.ndarray:
        return self.window.joint_env_vector(site, w, self.d)

    def sample_vector(self, psi) -> np.ndarray:
        return self.window.joint_sample_vector(np.asarray(psi, dtype=complex))


def finite_time_pair_expectation(env: EnvironmentSpec, W: np.ndarray,
                                 coupling: CouplingSpec, kind: str,
                                 vec1, vec2, t: int,
                                 sample_symbol: np.ndarray | None = None) -> complex:
    """Finite-time pair expectation from the explicit evolution sums.

    ``kind`` selects the monomial:

    * ``"aa"``: ``tau^t(a*(vec1) a(vec2))`` with sample vectors;
    * ``"ba"``: ``tau^t(b*(vec1) a(vec2))`` with ``vec1`` a reservoir vector
      given as a list of ``(site, internal)`` components supported on
      non-negative sites;
    * ``"bb"``: ``tau^t(b*(vec1) b(vec2))``, both reservoir vectors, exactly
      ``<vec2, Sigma vec1>`` at every ``t``.

    The initial product state is the reservoir symbol times an even sample
    state with two-point symbol ``sample_symbol`` (defaults to zero, i.e. an
    empty sample); with that convention the sums are exact, with no residual
    error term.
    """
    if kind == "bb":
        for k, _ in list(vec1) + list(vec2):
            if k < 0:
                raise CouplingError("bb expectations need vectors supported on sites >= 0")
        return complex(sum(env.sigma_element(k2, w2, k1, w1) for k2, w2 in vec2 for k1, w1 in vec1))

    alpha, psi_star = coupling.alpha, coupling.star()
    contraction = build_contraction(W, psi_star, alpha)
    M = contraction.matrix
    # g(s) = <psi*, W* M*^{s-1} vec> for s = 1..t, from the rows M^{s-1} W psi*
    rows = orbit(M, walk_matrix(contraction.W) @ psi_star, t).conj()
    g2 = rows @ np.asarray(vec2, dtype=complex)

    if kind == "ba":
        for k, _ in vec1:
            if k < 0:
                raise CouplingError("ba expectations need the reservoir vector in sites >= 0")
        # term t': conj(g(t')) < (S x U)^{t'} delta_0 x v, Sigma vec1 >, with
        # U^{t'} v in row t' - 1; the bracket vanishes once t' exceeds the
        # coefficient support
        max_site = max(k for k, _ in vec1)
        Uv = orbit(env.U, env.U @ coupling.v, min(t, env.max_degree + max_site))
        total = sum(np.conj(g2[tp - 1]) * sum(env.sigma_element(-tp, Uv[tp - 1], k, w)
                                              for k, w in vec1)
                    for tp in range(1, len(Uv) + 1))
        return -1j * np.sin(alpha) * total

    if kind == "aa":
        vec1 = np.asarray(vec1, dtype=complex)
        g1 = rows @ vec1
        xi_term = 0.0 + 0.0j
        if sample_symbol is not None:
            Mt = np.linalg.matrix_power(M.conj().T, t)
            xi_term = np.vdot(Mt @ vec2, np.asarray(sample_symbol, dtype=complex) @ (Mt @ vec1))
        # sum over s', t' of g1(s') conj(g2(t')) B(s' - t'), one band k = s' - t'
        # at a time, with B(-k) = conj B(k) and B = 0 beyond L
        B = coupling.weights(env) @ env.coefficients
        series = 0.0 + 0.0j
        for k in range(min(env.max_degree, t - 1) + 1):
            series += np.vdot(g2[:t - k], g1[k:]) * B[k]
            if k:
                series += np.vdot(g2[k:], g1[:t - k]) * np.conj(B[k])
        return xi_term + np.sin(alpha) ** 2 * series

    raise CouplingError(f"unknown pair-expectation kind {kind!r}")


def flux_finite_time(state: CovarianceState, i: int) -> float:
    """Expectation of the flux into sector ``i`` over the next step, on the current state.

    The free step conserves the particle number of every sector; only the
    coupling rotation ``K`` moves particles, and only through site 0.  With
    ``u = delta_0 (x) x_i`` the flux is therefore
    ``<K* u, Sigma K* u> - <u, Sigma u>``.  ``K`` is the identity off the
    span of :func:`~fermiwalk.coupling.coupling_plane` ``Vc`` and the
    exchange rotation ``R`` on it, so ``K* u = u + Vc (R* - 1) Vc* u``, and no
    joint-space matrix is formed.
    """
    coupling = state.coupling
    u = state.env_vector(0, state.env.eigenvectors[:, i])
    Vc = coupling_plane(state.window, coupling, state.d)
    Ku = u + Vc @ ((exchange_rotation(coupling.alpha).conj().T - np.eye(2)) @ (Vc.conj().T @ u))
    return float(np.real(state.pair_expectation(Ku, Ku) - state.pair_expectation(u, u)))


# ---------------------------------------------------------------------------
# Second quantisation


# Gamma(V) on n modes holds sum_p C(n, p)^2 = C(2n, n) entries.  Measured with
# one BLAS thread on a 2-vCPU x86_64 VM, one gamma_blocks call at n = 10 takes
# 6-10 ms and peaks at 7 MB (3 MB of blocks); at n = 12 it would take 0.23 s
# and 95 MB, and within FockOracle.MAX_MODES = 14 a 12-mode factor leaves the
# other at most 2 modes, a shape no cross-check uses.  So the cap stays at 10.
MAX_FACTOR_MODES = 10


def _occupations(n: int) -> np.ndarray:
    """Occupation bits of the ``2^n`` configurations of ``n`` modes, mode 0 the top bit."""
    if n > MAX_FACTOR_MODES:
        raise CouplingError(f"second quantisation capped at {MAX_FACTOR_MODES} modes, got {n}")
    return (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _frozen(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: a cached table is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.cache
def _ranks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Particle number of every configuration, and its rank among those with the same number."""
    counts = _occupations(n).sum(axis=1)
    sizes = np.bincount(counts)
    rank = np.empty(2 ** n, dtype=np.intp)
    rank[np.argsort(counts, kind="stable")] = (np.arange(2 ** n)
                                               - np.repeat(np.cumsum(sizes) - sizes, sizes))
    return _frozen(counts, rank)


@functools.cache
def _laplace_tables(n: int, p: int) -> tuple[np.ndarray, ...]:
    """Index tables of the first-row Laplace expansion on the ``p``-particle sector of ``n`` modes.

    Returns ``(configs, modes, minor)``: the ascending occupation indices
    ``y`` with ``p`` bits set, the ``(C(n, p), p)`` ascending modes ``y_i`` of
    each, and the ``(C(n, p), p)`` ranks of ``y - y_i`` among the
    ``(p - 1)``-particle configurations.  A row reads ``modes[:, 0]`` and
    ``minor[:, 0]``, a column all of them.
    """
    counts, rank = _ranks(n)
    configs = np.flatnonzero(counts == p)
    modes = np.nonzero(_occupations(n)[configs])[1].reshape(len(configs), p)
    return _frozen(configs, modes, rank[configs[:, None] - (1 << (n - 1 - modes))])


def gamma_blocks(V: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Second quantisation ``Gamma(V)`` of a matrix on few modes, one particle number at a time.

    ``Gamma(V)`` conserves the particle number and acts on the p-particle
    sector as the p-th exterior power of ``V``: the entry between occupation
    sets ``y`` and ``x`` of equal size is the minor ``det V[y, x]`` (modes in
    ascending order), and the vacuum entry is 1.  Returns ``(configs, block)``
    for ``p = 0..n``: the ascending occupation indices with ``p`` bits set
    (mode 0 the top bit) and ``Gamma(V)`` restricted to them.

    The blocks are built from ``p = 0`` upward by the Laplace expansion along
    the first row, ``Gamma_p[y, x] = sum_i (-1)^i V[y_0, x_i]
    Gamma_{p-1}[y - y_0, x - x_i]``, on index tables (:func:`_laplace_tables`)
    that depend only on ``(n, p)``: ``sum_p p C(n, p)^2`` complex
    multiply-adds in all, and no determinant.  For a unitary ``V`` every
    minor has modulus at most 1 and every row of ``V`` norm 1, so the ``p``
    terms of an entry have ``sum_i |V[y_0, x_i]| <= sqrt(p)``: the absolute
    error of a level-``p`` entry is at most ``sqrt(p)`` times the largest
    error of level ``p - 1`` plus the rounding of one ``p``-term sum,
    ``O(p^(3/2) eps)``.  Level ``p`` is therefore within
    ``O(p^2 sqrt(p!) eps)``, a worst case near ``1e-11`` at ``p = 10``; the
    errors measured against determinants on Haar unitaries up to ``n = 10``
    stay below ``1e-15``.
    """
    V = np.asarray(V, dtype=complex)
    n = V.shape[0]
    previous = np.ones((1, 1), dtype=complex)
    blocks = [(np.zeros(1, dtype=np.intp), previous)]
    for p in range(1, n + 1):
        configs, modes, minor = _laplace_tables(n, p)
        rows, lead = previous[minor[:, 0]], V[modes[:, 0]]
        block = lead[:, modes[:, 0]] * rows[:, minor[:, 0]]
        for i in range(1, p):
            term = lead[:, modes[:, i]] * rows[:, minor[:, i]]
            if i % 2:
                block -= term
            else:
                block += term
        blocks.append((configs, block))
        previous = block
    return blocks


def gamma_columns(V: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The columns ``columns`` (occupation indices) of ``Gamma(V)``, cut from :func:`gamma_blocks`."""
    n = np.shape(V)[0]
    counts, rank = _ranks(n)
    columns = np.asarray(columns)
    out = np.zeros((2 ** n, len(columns)), dtype=complex)
    blocks = gamma_blocks(V)
    for p in np.unique(counts[columns]):
        configs, block = blocks[p]
        sel = np.flatnonzero(counts[columns] == p)
        out[np.ix_(configs, sel)] = block[:, rank[columns[sel]]]
    return out


def gamma_dense(V: np.ndarray) -> np.ndarray:
    """``Gamma(V)`` as a dense ``2^n x 2^n`` matrix: every column of :func:`gamma_columns`."""
    return gamma_columns(V, np.arange(2 ** np.shape(V)[0]))


@functools.cache
def _sector_tables(E: int, d: int, N: int) -> tuple:
    """Row layout of the ``N``-particle sector of ``E`` reservoir and ``d`` sample modes.

    Rows run by reservoir count ``p``, then reservoir configuration, then
    sample configuration (each ascending), so the piece of ``p`` and
    ``q = N - p`` particles is a contiguous ``(C(E, p), C(d, q))`` grid.
    Returns ``(configs, pieces, partner, s)``: the occupation index of every
    row (mode 0 the top bit), the ``(p, q, start, stop)`` of each piece, the
    row permutation that swaps each row whose modes ``E-1, E`` hold ``10``
    with its ``01`` row (the same other modes) and fixes the ``00`` and
    ``11`` rows, and the 2-bit state ``s`` of modes ``E-1, E`` in each row.
    """
    env_counts, sample_counts = _ranks(E)[0], _ranks(d)[0]
    parts, pieces, start = [], [], 0
    for p in range(max(0, N - d), min(E, N) + 1):
        env = np.flatnonzero(env_counts == p)
        sample = np.flatnonzero(sample_counts == N - p)
        parts.append(((env[:, None] << d) | sample).ravel())
        pieces.append((p, N - p, start, start + len(env) * len(sample)))
        start = pieces[-1][-1]
    configs = np.concatenate(parts)
    s = (configs >> (d - 1)) & 3                     # modes E-1 and E are bits d and d - 1
    partner = np.arange(len(configs))
    paired = np.flatnonzero((s == 1) | (s == 2))
    partner[paired] = _row_of(configs, configs[paired] ^ (3 << (d - 1)))
    _frozen(configs, partner, s)
    return configs, tuple(pieces), partner, s


def _row_of(configs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Positions in ``configs`` of the occupation indices ``targets`` (all present)."""
    order = np.argsort(configs)
    return order[np.searchsorted(configs, targets, sorter=order)]


@functools.cache
def _annihilation_tables(E: int, d: int, N: int) -> np.ndarray:
    """Where ``c_nu`` maps the ``N``-particle sector onto the ``(N - 1)``-particle one, signed.

    Returns a ``(D, C(D, N - 1))`` table into the stack ``[amp; -amp; 0]``
    of an ``N``-particle block ``amp`` of ``R`` rows (:func:`_annihilated`):
    for mode ``nu`` and the ``(N - 1)``-particle row ``y`` (in the order of
    :func:`_sector_tables`), the ``N``-particle row of ``x = y + nu``, plus
    ``R`` when the Jordan-Wigner string ``(-1)^(occupied modes before nu)``
    of ``c_nu|x> = +-|y>`` is odd; where ``nu`` is occupied in ``y``, the
    zero row ``2R``.
    """
    D = E + d
    below, configs = _sector_tables(E, d, N - 1)[0], _sector_tables(E, d, N)[0]
    R = len(configs)
    bit = 1 << np.arange(D - 1, -1, -1)
    table = np.full((D, len(below)), 2 * R, dtype=np.intp)
    y, nu = np.nonzero((below[:, None] & bit) == 0)
    odd = np.bitwise_count(below[y] & -2 * bit[nu]) & 1
    table[nu, y] = _row_of(configs, below[y] | bit[nu]) + np.where(odd, R, 0)
    return _frozen(table)[0]


def _annihilated(E: int, d: int, N: int, block: np.ndarray, scale) -> np.ndarray:
    """The images ``c_nu (scale * block)`` of an ``N``-particle block, ``(D, C(D, N - 1), K)``.

    The stack ``[amp; -amp; 0]`` is filled once, and one ``take`` of
    :func:`_annihilation_tables` gathers every mode's signed image; negation
    is exact, so no product by a sign is formed.
    """
    R = len(block)
    stack = np.empty((2 * R + 1,) + block.shape[1:], dtype=complex)
    np.multiply(block, scale, out=stack[:R])
    np.negative(stack[:R], out=stack[R:2 * R])
    stack[2 * R] = 0.0
    return stack.take(_annihilation_tables(E, d, N), axis=0)


def _mix_pair(block: np.ndarray, partner: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """``x <- diag x + off x[partner]`` on the rows ``x`` of ``block``, in place."""
    swapped = block.take(partner, axis=0)
    swapped *= off
    block *= diag
    block += swapped


# ---------------------------------------------------------------------------
# Exact many-body oracle


class FockOracle:
    """Exact many-body evolution on a small periodic window.

    Same-species representation: one fermion species on the joint one-particle
    space, with the interaction realised as the second quantisation of the
    one-particle rotation (Appendix-style).  The oracle modes are the columns
    of ``Q``: the ``E`` reservoir modes of the window first, in a Householder
    basis whose last vector is ``delta_0 (x) v``, then the ``d`` sample modes,
    in one whose first vector is ``psi*`` (:func:`_reflector`).  The coupling
    then acts on the two adjacent modes ``E-1, E`` and carries no
    Jordan-Wigner string.

    The initial state is the Gaussian density matrix of ``Sigma_w (+) Xi``,
    represented as a weighted ensemble of ``K`` eigenmode Slater states (one
    per bitstring over the fractionally occupied modes), or a user ensemble
    of ``K`` pure states.  Every factor of the step conserves the particle
    number, so the amplitudes are held one sector at a time: for each
    particle number ``N`` that holds members, a ``(C(D, N), K_N)`` block over
    the ``K_N`` members with support in ``N``, its rows laid out by
    :func:`_sector_tables`.  A Gaussian member has one particle number and
    starts in one ``(p, q)`` piece.  Each member's support is found once,
    where the state enters, and exact zeros stay zero.  :attr:`states`
    assembles the ``(2^D, K)`` amplitudes, mode 0 the top bit of the row.
    """

    MAX_MODES = 14
    MAX_ENSEMBLE = 1024

    @classmethod
    def check_size(cls, E: int, d: int):
        """Refuse ``E`` reservoir and ``d`` sample modes beyond the per-factor or total cap."""
        if max(E, d) > MAX_FACTOR_MODES or E + d > cls.MAX_MODES:
            raise CouplingError(
                f"Fock oracle refuses {E} reservoir + {d} sample modes; caps are "
                f"{MAX_FACTOR_MODES} per factor and {cls.MAX_MODES} in all")

    def __init__(self, env: EnvironmentSpec, W: np.ndarray, coupling: CouplingSpec,
                 window: Window, sample_symbol: np.ndarray | None = None,
                 ensemble: tuple | None = None):
        W = np.asarray(W, dtype=complex)
        E, d = window.env_dim, W.shape[0]
        D = E + d
        self.check_size(E, d)
        self.env, self.W, self.coupling, self.window = env, W, coupling, window
        self.E, self.d, self.D = E, d, D
        self.t = 0

        Vc = coupling_plane(window, coupling, d)
        self.Q = Q = scipy.linalg.block_diag(             # Q[canonical, oracle mode]
            _reflector(Vc[:E, 0], E - 1), _reflector(Vc[E:, 1], 0))

        V = Q.conj().T @ _free_step(window, env, W) @ Q
        # Gamma_p(V_E) and Gamma_q(V_S), indexed by particle number
        self.G_E = [block for _, block in gamma_blocks(V[:E, :E])]
        self.G_S = [block for _, block in gamma_blocks(V[E:, E:])]
        # the coupling on the oracle modes E-1, E, i.e. delta_0 (x) v and psi*
        self.k4 = gamma_dense(exchange_rotation(coupling.alpha))

        # (N, members, block) for every particle number that holds a member
        if ensemble is None:
            self.weights, self._sectors = self._gaussian_ensemble(sample_symbol)
        else:
            self.weights, self._sectors = self._user_ensemble(*ensemble)
        # k4[s, s] and k4[s, 3 - s] on each row of a sector, s the state of modes E-1, E;
        # k4 conserves the number, so k4[0, 3] = k4[3, 0] = 0 exactly
        self._mix = {}
        for N, _, _ in self._sectors:
            s = _sector_tables(E, d, N)[3]
            self._mix[N] = (self.k4[s, s][:, None], self.k4[s, 3 - s][:, None])

    def _user_ensemble(self, weights, columns) -> tuple[np.ndarray, list]:
        """A mixture of pure many-body states (amplitudes over the oracle's occupations).

        E.g. for evenness tests with non-Gaussian states.  Each member joins
        the sectors in which it has a nonzero amplitude; the caller's array
        is copied, never written.
        """
        weights = np.asarray(weights, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0)))
        if bad.size:
            raise CouplingError(f"ensemble weight of member {bad[0]} is {weights[bad[0]]}; "
                                "weights must be finite and non-negative")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise CouplingError(f"ensemble weights sum to {weights.sum():.15g}, not 1")
        columns = np.asarray(columns, dtype=complex)
        if columns.shape != (2 ** self.D, len(weights)):
            raise CouplingError(f"ensemble states must be ({2 ** self.D}, {len(weights)})")
        for j, column in enumerate(columns.T):
            check_unit_vector(column, f"ensemble member {j}", CouplingError)
        sectors = []
        for N in range(self.D + 1):
            block = columns[_sector_tables(self.E, self.d, N)[0]]
            members = np.flatnonzero(block.any(axis=0))
            if members.size:
                sectors.append((N, members, np.ascontiguousarray(block[:, members])))
        return weights, sectors

    def _gaussian_ensemble(self, sample_symbol) -> tuple[np.ndarray, list]:
        """Weights of the members ``Gamma(eigenmodes)|config>``, and their sectors.

        Member ``j`` is ``Gamma(vec_e)|e_j> (x) Gamma(vec_s)|s_j>``, which lies
        in the one piece ``(p_j, q_j)`` of the particle numbers of ``e_j`` and
        ``s_j``: the outer product of column ``e_j`` of ``Gamma_p(vec_e)`` and
        column ``s_j`` of ``Gamma_q(vec_s)``.
        """
        env, window, Q, E, d, D = self.env, self.window, self.Q, self.E, self.d, self.D
        xi = np.zeros((d, d)) if sample_symbol is None else sample_symbol
        sigma = Q.conj().T @ scipy.linalg.block_diag(
            build_truncated_symbol(env, (window.a, window.b)), xi) @ Q
        lam_e, vec_e = np.linalg.eigh(sigma[:E, :E])
        lam_s, vec_s = np.linalg.eigh(sigma[E:, E:])
        lam = np.concatenate([lam_e, lam_s])
        check_symbol_spectrum(lam, "initial joint symbol")
        lam = np.clip(lam, 0.0, 1.0)
        frac = np.where((lam > 1e-12) & (lam < 1.0 - 1e-12))[0]
        filled = np.where(lam >= 1.0 - 1e-12)[0]
        if 2 ** len(frac) > self.MAX_ENSEMBLE:
            raise CouplingError(
                f"{len(frac)} fractional modes need 2^{len(frac)} ensemble states "
                f"( > {self.MAX_ENSEMBLE})")
        # member j occupies frac[pos] when bit pos of j is set
        chosen = (np.arange(2 ** len(frac))[:, None] >> np.arange(len(frac))) & 1
        weights = np.prod(np.where(chosen, lam[frac], 1.0 - lam[frac]), axis=1)
        bit = 2 ** (D - 1 - np.arange(D))
        configs = bit[filled].sum() + chosen @ bit[frac]
        env_configs, sample_configs = configs >> d, configs & (2 ** d - 1)
        (env_counts, env_rank), (sample_counts, sample_rank) = _ranks(E), _ranks(d)
        G_e, G_s = gamma_blocks(vec_e), gamma_blocks(vec_s)
        p_of, q_of = env_counts[env_configs], sample_counts[sample_configs]
        sectors = []
        for N in np.unique(p_of + q_of):
            members = np.flatnonzero(p_of + q_of == N)
            pieces = _sector_tables(E, d, N)[1]
            block = np.zeros((pieces[-1][-1], len(members)), dtype=complex)
            for p, q, start, stop in pieces:
                here = np.flatnonzero(p_of[members] == p)
                j = members[here]
                block[start:stop, here] = (
                    G_e[p][1][:, env_rank[env_configs[j]]][:, None, :]
                    * G_s[q][1][:, sample_rank[sample_configs[j]]][None, :, :]
                ).reshape(stop - start, len(j))
            sectors.append((int(N), members, block))
        return weights, sectors

    @property
    def states(self) -> np.ndarray:
        """The ``(2^D, K)`` amplitudes, assembled from the sectors; read-only."""
        out = np.zeros((2 ** self.D, len(self.weights)), dtype=complex)
        for N, members, block in self._sectors:
            out[np.ix_(_sector_tables(self.E, self.d, N)[0], members)] = block
        out.setflags(write=False)
        return out

    # -- evolution -----------------------------------------------------------

    def step(self, steps: int = 1) -> "FockOracle":
        """Advance ``steps`` steps: the coupling on modes ``E-1, E``, then ``G_S``, then ``G_E``.

        In each sector the coupling ``k4`` acts on the state ``s`` of modes
        ``E-1, E`` row by row, ``x <- k4[s, s] x + k4[s, 3 - s] x[partner]``
        (:func:`_mix_pair`): one ``take`` pairs each ``10`` row with its
        ``01`` row, and the ``00`` and ``11`` rows, their own partners, meet
        an exact zero.  Then each ``(p, q)`` piece, a
        contiguous ``(C(E, p), C(d, q), K_N)`` array, takes ``Gamma_q(V_S)`` and
        ``Gamma_p(V_E)`` as two matrix products.  Each step writes new blocks,
        so an array :attr:`states` returned earlier is never changed.
        """
        if steps < 0:
            raise CouplingError(f"cannot step a Fock oracle {steps} steps back")
        for _ in range(steps):
            sectors = []
            for N, members, block in self._sectors:
                _, pieces, partner, _ = _sector_tables(self.E, self.d, N)
                _mix_pair(block, partner, *self._mix[N])
                out = np.empty(block.shape, dtype=complex)
                for p, q, start, stop in pieces:
                    G_E = self.G_E[p]
                    piece = block[start:stop].reshape(len(G_E), -1, len(members))
                    np.matmul(G_E, (self.G_S[q] @ piece).reshape(len(G_E), -1),
                              out=out[start:stop].reshape(len(G_E), -1))
                sectors.append((N, members, out))
            self._sectors = sectors
            self.t += 1
        return self

    # -- observables ----------------------------------------------------------

    def two_point_matrix(self) -> np.ndarray:
        """Joint covariance ``Sigma[g, f] = <c*(e_f) c(e_g)>`` in canonical coordinates.

        In oracle modes ``<c*_mu c_nu> = sum_k w_k <c_mu psi_k, c_nu psi_k>``.
        In each sector one signed ``take`` (:func:`_annihilated`) stacks the
        images ``c_nu sqrt(w_k) psi_k`` of every mode as the rows of a
        ``(D, C(D, N - 1) K_N)`` matrix ``A``, and the sector adds ``A A*``,
        diagonal included.
        """
        D = self.D
        sigma_o = np.zeros((D, D), dtype=complex)
        for N, members, block in self._sectors:
            if N:
                A = _annihilated(self.E, self.d, N, block, np.sqrt(self.weights[members]))
                A = A.reshape(D, -1)
                sigma_o += A @ A.conj().T
        return self.Q @ sigma_o @ self.Q.conj().T

    def _row_probabilities(self, members: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Ensemble-weighted probability of each row of one sector."""
        return (np.abs(block) ** 2) @ self.weights[members]

    def total_number(self) -> float:
        return float(sum(N * self._row_probabilities(members, block).sum()
                         for N, members, block in self._sectors))

    def sample_number_distribution(self) -> np.ndarray:
        """Exact law of the sample particle number, indexed 0..d."""
        pmf = np.zeros(self.d + 1)
        for N, members, block in self._sectors:
            probs = self._row_probabilities(members, block)
            for p, q, start, stop in _sector_tables(self.E, self.d, N)[1]:
                pmf[q] += probs[start:stop].sum()
        return pmf

    def sample_occupation_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second moments of the per-vertex number operators.

        Requires the star vector to be the first canonical sample mode up to
        a phase (true for cycle walks): the sample block of ``Q`` is then
        diagonal with unimodular entries, each oracle mode is a canonical
        mode times a phase, and vertex occupations are diagonal in the
        occupation basis.  Returns ``(<n_nu>, <n_nu n_up>)`` for spin-1/2
        vertices.
        """
        if np.linalg.norm(np.abs(self.Q[self.E:, self.E:]) - np.eye(self.d)) > 1e-12:
            raise CouplingError("vertex moments need psi* to be the first canonical mode "
                                "up to a phase")
        if self.d % 2 != 0:
            raise CouplingError("vertex moments need a spin-1/2 sample (even d)")
        n = self.d // 2
        configs = np.arange(2 ** self.d)
        vertex_counts = np.zeros((n, 2 ** self.d))
        for nu in range(n):
            up = (configs >> (self.d - 1 - 2 * nu)) & 1
            dn = (configs >> (self.d - 1 - (2 * nu + 1))) & 1
            vertex_counts[nu] = up + dn
        probs = np.abs(self.states.reshape(2 ** self.E, 2 ** self.d, -1)) ** 2
        per_config = np.tensordot(probs.sum(axis=0), self.weights, axes=(1, 0))
        first = vertex_counts @ per_config
        second = (vertex_counts[:, None, :] * vertex_counts[None, :, :]) @ per_config
        return first, second

    def odd_moment(self, f: np.ndarray) -> complex:
        """``<c*(f)>`` for a canonical joint vector ``f`` (zero for even states).

        ``<c*_mu> = sum_k w_k <c_mu psi_k, psi_k>`` pairs each member's
        image of its ``N``-block, from the signed table of
        :meth:`two_point_matrix`, with its ``(N - 1)``-block.
        """
        f_o = self.Q.conj().T @ np.asarray(f, dtype=complex)
        by_number = {N: (members, block) for N, members, block in self._sectors}
        moments = np.zeros(self.D, dtype=complex)
        for N, members, block in self._sectors:
            if N - 1 not in by_number:
                continue
            low_members, low = by_number[N - 1]
            common, here, there = np.intersect1d(members, low_members, assume_unique=True,
                                                 return_indices=True)
            if common.size:
                scale = np.sqrt(self.weights[common])
                images = _annihilated(self.E, self.d, N, block[:, here], scale)
                moments += np.vecdot(images.reshape(self.D, -1), (low[:, there] * scale).ravel())
        return complex(f_o @ moments)


def _reflector(x: np.ndarray, k: int) -> np.ndarray:
    """Unitary whose column ``k`` is the unit vector ``x``; exactly the identity for ``x = e_k``.

    The Householder reflector of :func:`~fermiwalk.walk.householder_vector`
    maps ``e_k`` to ``e^{-i arg x_k} x``; its other columns are orthogonal to
    that vector, hence to ``x``, which replaces column ``k``.
    """
    x = np.asarray(x, dtype=complex)
    Q = np.eye(len(x), dtype=complex)
    u = householder_vector(x, k)
    if u is not None:
        Q -= np.outer(u, u.conj()) * (2.0 / np.vdot(u, u).real)
    Q[:, k] = x
    return Q
