"""Closed-form asymptotics of the sample state.

The large-time sample state is quasi-free with symbol

    Delta = sum_i ||pi_i v||^2  2 Re F_i(M*) = 2 Re F_B(M*),
    M = W (1 + (cos alpha - 1) P),  B(l) = sum_i ||pi_i v||^2 c_i(l),

from which everything else follows: the particle number is Poisson binomial
with parameters the eigenvalues of Delta, ring walks have an explicit density
profile and negative inter-node correlations, and the steady particle fluxes
into the reservoir sectors have a finite closed form in the coefficients of
the ``F_i``.  The reservoir is read only through the coefficient table
``env.coefficients`` and the sample only through return amplitudes of
:func:`~fermiwalk.coupling.orbit`; the fluxes and both small-coupling rates
are one expression in them (:func:`_flux_form`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import (ContractionM, CouplingError, CouplingSpec, build_contraction,
                       check_symbol_spectrum, orbit)
from .environment import EnvironmentSpec, _series, hermitian_part
from .walk import walk_matrix

__all__ = [
    "AsymptoticState",
    "PoissonBinomial",
    "FluxResult",
    "asymptotic_symbol",
    "particle_number_distribution",
    "node_profile",
    "node_correlations",
    "ring_profile_closed_form",
    "flux_expectations",
    "small_alpha_flux_rate",
    "small_alpha_flux_rate_walk",
]


@dataclass
class AsymptoticState:
    """The limiting sample symbol ``Delta`` with its eigendecomposition."""

    delta: np.ndarray
    eigenvalues: np.ndarray
    contraction: ContractionM
    env: EnvironmentSpec
    weights: np.ndarray

    @property
    def dimension(self) -> int:
        return self.delta.shape[0]

    def validate(self):
        """Check ``0 <= Delta <= 1``; ``Delta`` is Hermitian by construction."""
        check_symbol_spectrum(self.eigenvalues, "Delta")


def asymptotic_symbol(env: EnvironmentSpec, W: np.ndarray,
                      coupling: CouplingSpec) -> AsymptoticState:
    """``Delta = sum_i w_i 2 Re F_i(M*) = 2 Re F_B(M*)``, with ``w_i = ||pi_i v||^2``.

    The sum over sectors is linear in the coefficients, so it is one series
    in the profile ``B(l) = sum_i w_i c_i(l)``.  The series in ``M*`` needs
    ``||M*|| <= 1``, which holds by construction and is not re-checked:
    ``W`` is unitary and ``1 + (cos alpha - 1) P`` has singular values 1
    and ``|cos alpha|``.
    """
    contraction = build_contraction(W, coupling.star(), coupling.alpha)
    contraction.require_contractive()
    w = coupling.weights(env)
    delta = 2.0 * hermitian_part(_series(w @ env.coefficients, contraction.matrix.conj().T))
    eigenvalues = np.linalg.eigvalsh(delta)
    state = AsymptoticState(delta, eigenvalues, contraction, env, w)
    state.validate()
    return state


@dataclass
class PoissonBinomial:
    """Law of a sum of independent Bernoulli variables with the given parameters."""

    parameters: np.ndarray
    pmf: np.ndarray

    @classmethod
    def from_parameters(cls, parameters) -> "PoissonBinomial":
        """Stable O(d^2) iterative convolution of the Bernoulli factors."""
        lam = np.clip(np.asarray(parameters, dtype=float), 0.0, 1.0)
        pmf = np.array([1.0])
        for p in lam:
            pmf = np.convolve(pmf, [1.0 - p, p])
        return cls(lam, pmf)

    def mean(self) -> float:
        return float(self.parameters.sum())

    def variance(self) -> float:
        return float((self.parameters * (1.0 - self.parameters)).sum())

    def pmf_mean(self) -> float:
        return float(np.arange(len(self.pmf)) @ self.pmf)

    def pmf_variance(self) -> float:
        k = np.arange(len(self.pmf))
        mu = self.pmf_mean()
        return float(((k - mu) ** 2) @ self.pmf)


def particle_number_distribution(state: AsymptoticState) -> PoissonBinomial:
    """Asymptotic law of the total particle number in the sample."""
    return PoissonBinomial.from_parameters(state.eigenvalues)


def node_profile(state: AsymptoticState) -> np.ndarray:
    """Particle density per ring vertex, ``p(nu) = sum_tau <e_{nu,tau}, Delta e_{nu,tau}>``.

    Only defined for spin-1/2 cycle walks (``d = 2n``); vertex 0 is the
    coupled site.
    """
    if state.dimension % 2:
        raise CouplingError(f"node_profile needs a spin-1/2 cycle walk, got d = {state.dimension}")
    diag = np.real(np.diag(state.delta))
    return diag[0::2] + diag[1::2]


def node_correlations(state: AsymptoticState) -> np.ndarray:
    """Limiting occupation covariances ``C(nu, up) = -sum_{taus} |Delta_{nu tau, up tau'}|^2``.

    Off-diagonal entries only (diagonal set to zero); they are non-positive
    for every valid symbol.  Only defined for spin-1/2 cycle walks.
    """
    n, odd = divmod(state.dimension, 2)
    if odd:
        raise CouplingError(f"node_correlations needs a spin-1/2 cycle walk, got d = {state.dimension}")
    blocks = np.abs(state.delta.reshape(n, 2, n, 2)) ** 2
    corr = -blocks.sum(axis=(1, 3))
    np.fill_diagonal(corr, 0.0)
    return corr


def ring_profile_closed_form(thetas, alpha: float, F) -> np.ndarray:
    """Explicit profile for rotation coins and a symbol ending at the quadratic term.

    For coins ``[[cos t, -sin t], [sin t, cos t]]`` at angles ``thetas`` and a
    symbol function with coefficients ``(c0, c1, c2)`` the profile is

        p(nu) = 2 c0 - 2 Re c2 (sin t_{nu-1} sin t_nu + sin t_nu sin t_{nu+1})

    with the two products straddling the coupled vertex 0 each picking up a
    ``cos(alpha)`` factor.  The odd coefficient ``c1`` never enters.  Note
    ``2 Re c2 = Re F''(0)`` and ``2 c0 = 2 * (2 F(0))``: each vertex carries
    two spin modes of density ``c0``.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[0]
    if n < 3:
        raise CouplingError("the closed-form profile needs n >= 3 (distinct neighbour paths)")
    coeffs = F.coefficients if hasattr(F, "coefficients") else tuple(F)
    c0 = float(np.real(coeffs[0]))
    f2 = 2.0 * float(np.real(coeffs[2])) if len(coeffs) > 2 else 0.0
    s = np.sin(thetas)
    bond = s * np.roll(s, -1)          # bond[nu] = sin t_nu sin t_{nu+1}
    bond[0] *= np.cos(alpha)           # only the (0, 1) bond feels the coupling
    return 2.0 * c0 - f2 * (np.roll(bond, 1) + bond)


@dataclass
class FluxResult:
    """Limiting per-sector flux expectations and their small-coupling rates."""

    phi: np.ndarray
    weights: np.ndarray
    alpha: float
    rates: np.ndarray | None = None

    @property
    def total(self) -> float:
        return float(self.phi.sum())


def flux_expectations(env: EnvironmentSpec, W: np.ndarray, coupling: CouplingSpec,
                      contraction: ContractionM | None = None) -> FluxResult:
    """Closed-form limiting expectation of the flux into each reservoir sector.

    phi_i = (2 - 2 cos a) w_i (B(0) - c_i(0))
            + 2 sin^2 a  w_i  Re sum_{t'>=1} m(t') (conj B(t') - conj c_i(t'))

    where ``B(t') = sum_j w_j c_j(t')`` and ``m(t') = <psi*, M^{t'-1} W psi*>``.
    The sum is finite (coefficients have finite support), so no truncation
    error enters.  ``contraction`` is ``M`` for ``(W, coupling)`` if the
    caller has built it already (``AsymptoticState.contraction``).
    """
    if contraction is None:
        contraction = build_contraction(W, coupling.star(), coupling.alpha)
    contraction.require_contractive()
    w = coupling.weights(env)
    alpha = coupling.alpha
    psi = contraction.psi_star
    m = orbit(contraction.matrix, walk_matrix(contraction.W) @ psi, env.max_degree) @ psi.conj()
    phi = _flux_form(env, w, 2.0 - 2.0 * np.cos(alpha), 2.0 * np.sin(alpha) ** 2, m)
    rates = small_alpha_flux_rate(env, w) if _weights_nondegenerate(w) else None
    return FluxResult(phi, w, alpha, rates)


def _flux_form(env: EnvironmentSpec, w: np.ndarray, k0: float, k1: float, a) -> np.ndarray:
    """``w_i [k0 (B(0) - c_i(0)) + k1 Re sum_{t>=1} a(t) conj(B(t) - c_i(t))]``.

    The one expression behind the fluxes (``k0 = 2 - 2 cos alpha``,
    ``k1 = 2 sin^2 alpha``, ``a = m``) and both small-coupling rates
    (``k0 = 1``, ``k1 = 2``, ``a = u`` or ``a = 1``).
    """
    c = env.coefficients
    diff = w @ c - c
    return w * (k0 * diff[:, 0].real + k1 * np.real(diff[:, 1:].conj() @ a))


def _weights_nondegenerate(w: np.ndarray) -> bool:
    return bool(np.all(w > 1e-12) and np.all(w < 1.0 - 1e-12))


def small_alpha_flux_rate(env: EnvironmentSpec, weights: np.ndarray) -> np.ndarray:
    """Small-coupling flux rates ``r_i = lim phi_i / alpha^2``.

        r_i = w_i (1 - w_i) 2 Re ( sum_{j != i} w_j F_j(1) / (1 - w_i) - F_i(1) )
            = w_i 2 Re (F_B(1) - F_i(1)),

    which is :func:`small_alpha_flux_rate_walk` with every return amplitude
    set to 1.  Requires every weight strictly inside (0, 1) (``v != pi_i
    v``).  Exact when the walk leaves no return amplitude inside the
    coefficient support (in particular for constant ``F``); see
    ``flux_expectations`` for the finite-coupling form.
    """
    w = np.asarray(weights, dtype=float)
    if len(w) != env.m:
        raise CouplingError(f"expected {env.m} weights, got {len(w)}")
    if not _weights_nondegenerate(w):
        raise CouplingError(
            "small-coupling rates need v != pi_i v for every sector "
            f"(all weights strictly in (0,1)); got {w}")
    return _flux_form(env, w, 1.0, 2.0, np.ones(env.max_degree))


def small_alpha_flux_rate_walk(env: EnvironmentSpec, W: np.ndarray,
                               coupling: CouplingSpec) -> np.ndarray:
    """Exact ``lim phi_i / alpha^2``, keeping the walk's return amplitudes.

    Taking ``alpha -> 0`` in the finite closed form of ``flux_expectations``
    leaves the factors ``u(t') = <psi*, W^{t'} psi*>`` in the series:

        r_i = w_i [ (B(0) - c_i(0))
                    + 2 Re sum_{t'>=1} u(t') (conj B(t') - conj c_i(t')) ].

    :func:`small_alpha_flux_rate` is the special case ``u(t') -> 1``, exact
    for constant symbol functions (an uncorrelated reservoir); for correlated
    reservoirs the limiting rate genuinely depends on the walk.
    """
    W = np.asarray(W, dtype=complex)
    psi = coupling.star()
    w = coupling.weights(env)
    if not _weights_nondegenerate(w):
        raise CouplingError("small-coupling rates need all weights strictly in (0, 1)")
    u = orbit(W, W @ psi, env.max_degree) @ psi.conj()
    return _flux_form(env, w, 1.0, 2.0, u)
