"""Sample-reservoir coupling: the contraction M, the joint step, the Moller block.

The exchange of particles between the sample state ``psi*`` and the reservoir
state ``delta_0 (x) v`` is governed by the rank-one map
``iota: psi -> delta_0 (x) v <psi*, psi>`` with projectors ``P = iota* iota``
(on the sample) and ``Q = iota iota*`` (on the reservoir).  The effective
one-particle sample map after one step is the contraction

    M = W (1 + (cos(alpha) - 1) P),

whose spectral radius drops below 1 exactly when ``psi*`` is cyclic for ``W``
and ``alpha`` is not a multiple of pi.  ``M`` is a rank-one perturbation of
the unitary ``W = sum_k lambda_k x_k x_k^*``, so its eigenvalues are the
roots of the secular equation

    1 = (cos(alpha) - 1) sum_k w_k lambda_k / (z - lambda_k),   w_k = |<x_k, psi*>|^2

(Golub, *SIAM Rev.* 15, 1973), and :func:`spectral_radius` finds them from
one Hermitian eigensolve of ``W``, never by a dense eigensolve of the
non-normal ``M``.  All asymptotic series downstream are truncated through
the bound ``||M^t|| <= C q^t`` that one discrete Stein (Lyapunov) solve
proves (:func:`decay_certificate`).

The joint one-particle space used by the simulators is a site window of the
reservoir followed by the sample; see :class:`Window` for the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .environment import EnvironmentSpec
from .walk import check_unitary, chiral_spectrum

__all__ = [
    "CouplingError",
    "CouplingSpec",
    "ContractionM",
    "Window",
    "build_contraction",
    "spectral_radius",
    "decay_certificate",
    "horizon",
    "one_step_joint_operator",
    "moller_sample_block",
]

SIN_ALPHA_MIN = 1e-8
# spr(M) below this is contractive: the one gate of the asymptotic formulas,
# the decay certificate and the disorder skip rule
SPR_MAX = 1.0 - 1e-12
# largest step count a certified horizon may ask for
MAX_HORIZON = 200_000
# Aberth-Ehrlich sweeps allowed before the secular roots count as not found
# (3-5 on disorder draws, up to about 20 on Haar walks with weights near
# 1/d; a double root converges linearly)
MAX_SWEEPS = 100


class CouplingError(ValueError):
    """Invalid coupling data or a violated spectral precondition."""


@dataclass
class CouplingSpec:
    """Coupling constant ``alpha``, reservoir unit vector ``v``, sample vector ``psi*``."""

    alpha: float
    v: np.ndarray
    psi_star: np.ndarray | None = None

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(self.v)
        if abs(nrm - 1.0) > 1e-10:
            raise CouplingError(f"v must be a unit vector, got ||v|| = {nrm:.8f}")
        self.alpha = float(self.alpha)
        if self.psi_star is not None:
            self.psi_star = np.asarray(self.psi_star, dtype=complex).reshape(-1)
            if abs(np.linalg.norm(self.psi_star) - 1.0) > 1e-10:
                raise CouplingError("psi* must be a unit vector")

    def star(self) -> np.ndarray:
        if self.psi_star is None:
            raise CouplingError("this operation needs the sample star vector psi*")
        return self.psi_star

    @property
    def effectively_coupled(self) -> bool:
        """Whether ``|sin alpha|`` clears the threshold needed for asymptotics."""
        return abs(np.sin(self.alpha)) > SIN_ALPHA_MIN

    def require_coupled(self):
        if not self.effectively_coupled:
            raise CouplingError(
                f"alpha = {self.alpha} is numerically a multiple of pi "
                f"(|sin alpha| <= {SIN_ALPHA_MIN:g}); asymptotic formulas refused")

    def weights(self, env: EnvironmentSpec) -> np.ndarray:
        """Sector weights ``w_i = ||pi_i v||^2``; they sum to ``||v||^2``, within 1e-10 of 1."""
        return env.weights(self.v)


@dataclass
class ContractionM:
    """``M = W (1 + (cos alpha - 1) P)`` plus its decay certificate.

    The certificate ``(C, q)`` proves ``||M^t|| <= C q^t`` for every ``t``
    (see :func:`decay_certificate`); it is solved on first use and cached.
    ``pole`` is a phase in a spectral gap of ``W``, if the caller knows one
    (see :func:`~fermiwalk.walk.unitary_spectrum`).
    """

    matrix: np.ndarray
    W: np.ndarray
    psi_star: np.ndarray
    alpha: float
    pole: float | None = None
    spectral_radius: float = field(init=False)

    def __post_init__(self):
        self.spectral_radius = spectral_radius(self.W, self.psi_star, self.alpha, self.pole)

    @property
    def contractive(self) -> bool:
        return self.spectral_radius < SPR_MAX

    @cached_property
    def certificate(self) -> tuple[float, float]:
        return decay_certificate(self.matrix, self.spectral_radius)

    def power_norm_bound(self, t: int) -> float:
        C, q = self.certificate
        return C * q ** t

    def truncation_horizon(self, tol: float = 1e-12) -> int:
        """First ``T`` with ``C q^T / (1 - q) <= tol``.

        That bounds ``||M^T||`` and also the tail ``sum_{t >= T} ||M^t||``.
        """
        C, q = self.certificate
        return horizon(C / (1.0 - q), q, tol)

    def require_contractive(self):
        if not self.contractive:
            raise CouplingError(
                f"spr(M) = {self.spectral_radius:.12f} is not < 1; asymptotic "
                "formulas need a cyclic psi* and alpha not a multiple of pi")


def build_contraction(W: np.ndarray, psi_star: np.ndarray, alpha: float,
                      pole: float | None = None) -> ContractionM:
    """Assemble ``M = W (1 + (cos alpha - 1) P)`` with ``P`` projecting on ``psi*``.

    ``P`` has rank one, so ``M = W + (cos alpha - 1) (W psi*) psi*^H``: one
    matrix-vector product and one outer product, O(d^2).  ``pole``, a phase
    in a known spectral gap of ``W``, saves the spectral-radius solve the
    search for one.
    """
    W = np.asarray(W, dtype=complex)
    psi_star = np.asarray(psi_star, dtype=complex).reshape(-1)
    check_unitary(W, what="walk unitary")
    if abs(np.linalg.norm(psi_star) - 1.0) > 1e-10:
        raise CouplingError("psi* must be a unit vector")
    M = W + np.outer((np.cos(alpha) - 1.0) * (W @ psi_star), psi_star.conj())
    return ContractionM(M, W, psi_star, float(alpha), pole)


def spectral_radius(W: np.ndarray, psi_star: np.ndarray, alpha: float,
                    pole: float | None = None) -> float:
    """``spr(M)`` for ``M = W (1 + (cos alpha - 1) P)``, from the secular equation.

    :func:`~fermiwalk.walk.chiral_spectrum` (``pole`` as in
    :func:`~fermiwalk.walk.unitary_spectrum`) gives the ``lambda_k`` and
    ``w_k``, and :func:`_secular_gap` the roots.  ``cos alpha - 1`` is
    taken as ``-2 sin^2(alpha/2)``, without cancellation at small ``alpha``.
    When ``W`` swaps two halves ``P``, ``Q`` of the basis and ``psi*`` lies
    in ``P``, ``M^2`` is block diagonal with the ``P`` block
    ``XY (1 + c P_P)``, so the secular equation of ``XY`` gives the gap
    ``g = 1 - spr(M)^2`` and ``spr(M) = 1 - g / (1 + sqrt(1 - g))``, which
    keeps ``1 - spr`` as accurate as ``g``.
    """
    phases, weights, squared = chiral_spectrum(W, psi_star, pole)
    gap = _secular_gap(phases, weights, -2.0 * np.sin(0.5 * alpha) ** 2)
    if not squared:
        return 1.0 - gap
    # spr(M)^2 = 1 - gap >= 0 may round below 0 when the roots sit at the origin
    return float(1.0 - gap / (1.0 + np.sqrt(max(1.0 - gap, 0.0))))


def _secular_gap(phases: np.ndarray, weights: np.ndarray, c: float) -> float:
    """``1 - max |z|`` over the roots of ``f(z) = 1 - c sum_k w_k lambda_k / (z - lambda_k)``.

    With ``lambda_k = e^{i phases[k]}`` these are the eigenvalues of
    ``W (1 + cP)``: ``det(z - M) = det(z - W) f(z)``.  For ``c = 0``, a zero
    weight or a repeated ``lambda_k`` a root sits exactly on the unit circle
    and the gap is 0 (a subnormal ``c w_k`` counts as zero, and phases
    within ``4 d eps`` of each other, the spread that the eigensolver leaves
    on a repeated eigenvalue, count as repeated).  Otherwise Aberth-Ehrlich
    sweeps on ``det(z - W) f(z)`` (Bini & Robol, *J. Comput. Appl. Math.*
    272, 2014) find all ``d`` roots at once, O(d^2) per sweep: the step at
    ``z_i`` is ``f / (f' + f (sum_k 1/(z_i - lambda_k) - sum_{j != i}
    1/(z_i - z_j)))``.  Root ``i`` is stored as ``lambda_i + delta_i``, so
    that ``1 - |z_i|`` keeps its relative accuracy next to the circle.  It
    starts at the first-order ``delta_i = c w_i lambda_i``, turned by the
    second-order ``i (c w_i)^2 lambda_i``: without that turn a real problem
    starts in conjugate pairs, which the sweeps keep, and a pair cannot
    reach two real roots (a 2 x 2 real ``W`` at ``c`` near -2 has both
    first-order starts at the origin and its roots at +-1).  A root leaves
    the sweeps once ``|f(z_i)|`` is at the round-off level of its terms or
    its step no longer moves it.  The sweeps end after one in which every
    step was below ``eps^(1/3) |delta_i|``: the error of an Aberth step is
    about ``e_i^2 sum_j e_j / |z_i - z_j|``, so the next steps would be at
    round-off.  (The same test root by root stops a root while others still
    move, whose errors then keep its own above round-off.)
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    d = len(phases)
    ordered = np.sort(phases)
    spacing = np.diff(ordered, append=ordered[0] + 2.0 * np.pi)
    cw = c * weights
    # 1 / delta_k would overflow for a subnormal c w_k
    if np.abs(cw).min() < tiny or spacing.min() <= 4.0 * d * eps:
        return 0.0
    lam = np.exp(1j * phases)
    D = lam[:, None] - lam                       # lambda_i - lambda_k
    u = cw * lam
    noise = 4.0 * eps * np.abs(u)
    ones = np.ones(d)
    delta = u * (1.0 + 1j * cw)
    active = rows = np.arange(d)
    for _ in range(MAX_SWEEPS):
        da = delta[active]
        A = D[active] + da[:, None]              # z_i - lambda_k
        R = 1.0 / A
        f = 1.0 - R @ u
        settled = np.abs(f) <= 4.0 * eps + np.abs(R) @ noise
        if settled.all():
            break
        Z = A - delta                            # z_i - z_j
        Z[rows[:active.size], active] = np.inf
        step = f / ((R * u * R) @ ones + f * ((R - 1.0 / Z) @ ones))
        delta[active] = np.where(settled, da, da - step)
        size, scale = np.abs(step), np.abs(da)
        if (size <= eps ** (1.0 / 3.0) * scale).all():
            break
        active = active[~(settled | (size <= eps * scale))]
        if not active.size:
            break
    else:
        raise CouplingError(f"secular roots not found in {MAX_SWEEPS} Aberth sweeps")
    rel = delta / lam                            # z_i = lambda_i (1 + rel_i)
    return float(np.min((2.0 * rel.real + np.abs(rel) ** 2) / -(1.0 + np.abs(1.0 + rel))))


def decay_certificate(M: np.ndarray, spr: float | None = None) -> tuple[float, float]:
    """``(C, q)`` with ``||M^t|| <= C q^t`` for every ``t``, from one Stein solve.

    With ``B = M / q0`` and ``q0 = spr + (1 - spr) / 32``, solve the discrete
    Lyapunov equation ``X = B* X B + 1``.  For the ``X`` actually computed let
    ``r = lambda_min(X - B* X B)``; then ``B* X B <= (1 - r / lambda_max(X)) X``,
    so ``||B^t x||_X`` contracts by ``sqrt(1 - r / lambda_max(X))`` per step
    and ``C = sqrt(lambda_max(X) / lambda_min(X))``,
    ``q = q0 sqrt(1 - r / lambda_max(X))``.  Raises :class:`CouplingError`
    when ``spr`` fails the contraction gate or ``X`` or ``r`` is not positive.
    Without ``spr`` (a general ``M``, such as the open covariance step), the
    radius comes from a dense eigensolve.
    """
    M = np.asarray(M, dtype=complex)
    if spr is None:
        spr = float(np.max(np.abs(np.linalg.eigvals(M))))
    if spr >= SPR_MAX:
        raise CouplingError(f"spr = {spr:.12f} is not < 1: no decay certificate")
    q = spr + (1.0 - spr) / 32.0
    B = M / q
    X = scipy.linalg.solve_discrete_lyapunov(B.conj().T, np.eye(M.shape[0]))
    X = 0.5 * (X + X.conj().T)
    R = X - B.conj().T @ X @ B
    lam = np.linalg.eigvalsh(X)
    r = np.linalg.eigvalsh(0.5 * (R + R.conj().T))[0]
    if lam[0] <= 0.0 or r <= 0.0:
        raise CouplingError(
            f"Stein solve at spr = {spr:.12f} gives no positive certificate "
            f"(lambda_min(X) = {lam[0]:.3e}, r = {r:.3e})")
    return float(np.sqrt(lam[-1] / lam[0])), float(q * np.sqrt(1.0 - r / lam[-1]))


def horizon(C: float, q: float, tol: float) -> int:
    """First ``T >= 1`` with ``C q^T <= tol``; refuses ``T > MAX_HORIZON``."""
    T = max(1, int(np.ceil(np.log(tol / C) / np.log(q))))
    if T > MAX_HORIZON:
        raise CouplingError(
            f"certified horizon {T} for tolerance {tol:g} exceeds the cap of "
            f"{MAX_HORIZON} steps (q = {q:.15f} is too close to 1)")
    return T


@dataclass(frozen=True)
class Window:
    """Reservoir site window ``a..b`` (inclusive) with ``m`` internal modes per site.

    Joint one-particle layout: reservoir modes first (site-major, internal
    standard basis), then the ``d`` sample modes.  Flat reservoir index of
    ``delta_k (x) e_j`` is ``(k - a) * m + j``.
    """

    a: int
    b: int
    m: int

    def __post_init__(self):
        if self.b < self.a:
            raise CouplingError(f"empty window [{self.a}, {self.b}]")

    @property
    def n_sites(self) -> int:
        return self.b - self.a + 1

    @property
    def env_dim(self) -> int:
        return self.n_sites * self.m

    def joint_dim(self, d: int) -> int:
        return self.env_dim + d

    def site_offset(self, k: int) -> int:
        if not self.a <= k <= self.b:
            raise CouplingError(f"site {k} outside window [{self.a}, {self.b}]")
        return (k - self.a) * self.m

    def joint_env_vector(self, k: int, w: np.ndarray, d: int) -> np.ndarray:
        out = np.zeros(self.joint_dim(d), dtype=complex)
        off = self.site_offset(k)
        out[off:off + self.m] = np.asarray(w, dtype=complex)
        return out

    def joint_sample_vector(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex)
        out = np.zeros(self.env_dim + psi.shape[0], dtype=complex)
        out[self.env_dim:] = psi
        return out


def shift_matrix(n_sites: int, periodic: bool) -> sp.csr_matrix:
    """The site shift ``delta_k -> delta_{k-1}`` on the window (wrap if periodic)."""
    rows = np.arange(n_sites - 1)
    cols = rows + 1
    data = np.ones(n_sites - 1)
    if periodic:
        rows = np.concatenate([rows, [n_sites - 1]])
        cols = np.concatenate([cols, [0]])
        data = np.ones(n_sites)
    return sp.csr_matrix((data, (rows, cols)), shape=(n_sites, n_sites))


def coupling_exponential(window: Window, coupling: CouplingSpec, d: int) -> sp.csr_matrix:
    """``exp(-i alpha (iota + iota*))`` on the joint window space.

    Computed in closed form on the invariant plane spanned by
    ``delta_0 (x) v`` and ``psi*``: the sparse rank-2 rotation
    ``1 + Vc C Vc^H`` with ``Vc = [delta_0 (x) v | psi*]``; identity elsewhere.
    """
    alpha = coupling.alpha
    Vc = sp.csr_matrix(np.stack([window.joint_env_vector(0, coupling.v, d),
                                 window.joint_sample_vector(coupling.star())], axis=1))
    C = sp.csr_matrix(np.array([[np.cos(alpha) - 1.0, -1j * np.sin(alpha)],
                                [-1j * np.sin(alpha), np.cos(alpha) - 1.0]]))
    N = window.joint_dim(d)
    return sp.identity(N, format="csr", dtype=complex) + Vc @ C @ Vc.conj().T


def one_step_joint_operator(window: Window, env: EnvironmentSpec, W: np.ndarray,
                            coupling: CouplingSpec,
                            boundary: str = "open") -> sp.csr_matrix:
    """One step of the coupled one-particle dynamics on the windowed joint space.

    ``T = (S_w (x) U  (+)  W) exp(-i alpha (iota + iota*))`` -- the coupling
    rotation acts first, then the free step.  With ``boundary="open"`` the
    shift drops the outgoing site and zero-fills the incoming one (an
    isometry away from the edges); ``"periodic"`` wraps the window, giving an
    exactly unitary step for oracle comparisons.
    """
    if boundary not in ("open", "periodic"):
        raise CouplingError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    W = np.asarray(W, dtype=complex)
    d = W.shape[0]
    S_w = shift_matrix(window.n_sites, periodic=(boundary == "periodic"))
    free = sp.block_diag(
        [sp.kron(S_w, sp.csr_matrix(env.U)), sp.csr_matrix(W)], format="csr")
    K = coupling_exponential(window, coupling, d)
    return (free @ K).tocsr()


def moller_sample_block(env: EnvironmentSpec, W: np.ndarray, coupling: CouplingSpec,
                        t_max: int | None = None,
                        tail_tol: float = 1e-12) -> tuple[np.ndarray, Window]:
    """Sample column of the one-particle Moller operator, on a finite window.

    Returns ``(A, window)`` where ``A`` maps C^d into the windowed reservoir
    space by

        A = i sin(alpha) sum_{t'=0}^{T} (S (x) U)^{t'+1} iota W* (M*)^{t'},

    truncated where the decay certificate puts the tail sum below ``tail_tol``.
    The block identity ``A* Sigma_w A = Delta`` holds for every initial sample
    symbol, since the sample block of the Moller column vanishes.
    """
    coupling.require_coupled()
    psi_star = coupling.star()
    contraction = build_contraction(W, psi_star, coupling.alpha)
    contraction.require_contractive()
    if t_max is None:
        t_max = contraction.truncation_horizon(tail_tol)
    window = Window(-(t_max + 1), 0, env.m)
    d = W.shape[0]
    A = np.zeros((window.env_dim, d), dtype=complex)
    # row vector <psi*, W* M*^{t'} .> accumulated by repeated right-multiplication
    row = psi_star.conj() @ W.conj().T
    Mstar = contraction.matrix.conj().T
    Uv = coupling.v
    for tp in range(t_max + 1):
        Uv = env.U @ Uv
        off = window.site_offset(-(tp + 1))
        A[off:off + env.m, :] += np.outer(Uv, row)
        row = row @ Mstar
    return 1j * np.sin(coupling.alpha) * A, window
