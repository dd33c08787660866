"""Translation-invariant reservoir symbols.

The reservoir lives on ``l^2(Z) (x) C^m`` with one-step dynamics ``S (x) U``
(``S`` the left shift ``delta_l -> delta_{l-1}``, ``U`` an ``m x m`` unitary
with simple eigenvalues).  A translation- and dynamics-invariant quasi-free
symbol ``Sigma`` decomposes over the eigenvectors ``x_i`` of ``U`` into scalar
analytic functions

    F_i(zeta) = c_i(0)/2 + sum_{l >= 1} c_i(l) zeta^l,
    c_i(l) = < delta_0 (x) x_i, Sigma (S (x) U)^l (delta_0 (x) x_i) >,

with ``Sigma = sum_i 2 Re F_i(S* (x) U*) (1 (x) pi_i)``.  Coefficient lists
are finite, which makes the correlation-decay requirement automatic.
:attr:`EnvironmentSpec.coefficients` is the table ``c[i, l]``; every closed
form reads the reservoir through it, mostly through the profile
``B(l) = sum_i w_i c_i(l)`` seen by the coupling vector ``v``.

On the ``i``-th sector ``Sigma`` acts by Fourier multiplication with
``g_i(phi) = 2 Re F_i(e^{i phi})``; the admissibility condition ``0 <= Sigma
<= 1`` is exactly ``0 <= g_i <= 1`` on the circle.  The ``x_i`` are the
complex Schur vectors of the normal ``U``, an orthonormal eigenbasis by
construction (Golub & Van Loan, *Matrix Computations*, 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .walk import check_unitary

__all__ = [
    "ReservoirError",
    "SymbolFunction",
    "EnvironmentSpec",
    "ValidationReport",
    "validate_symbol",
    "eval_series",
    "eval_contour",
    "build_truncated_symbol",
    "hermitian_part",
]

GAP_TOL = 1e-8
# admissibility slack of validate_symbol: 0 <= g_i <= 1 within this
SYMBOL_SLACK = 1e-12


class ReservoirError(ValueError):
    """Invalid reservoir data (degenerate U, inadmissible coefficients, ...)."""


def hermitian_part(A: np.ndarray) -> np.ndarray:
    """``(A + A^*)/2``, the operator real part."""
    return 0.5 * (A + A.conj().T)


def _spectral_norm(B: np.ndarray) -> float:
    return float(np.linalg.norm(B, 2))


@dataclass(frozen=True)
class SymbolFunction:
    """One scalar reservoir function ``F`` given by its coefficient list.

    ``coefficients[l]`` is ``c(l)``; ``c(0)`` must be real in [0, 1] (it is
    the diagonal of ``0 <= Sigma <= 1``), and ``2 F(0) = c(0)`` is the
    particle density of the sector.
    """

    coefficients: tuple = ()

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs:
            raise ReservoirError("need at least the constant coefficient c(0)")
        c0 = coeffs[0]
        if abs(c0.imag) > 1e-14:
            raise ReservoirError(f"c(0) must be real, got {c0}")
        if not -1e-12 <= c0.real <= 1.0 + 1e-12:
            raise ReservoirError(f"c(0) must lie in [0, 1], got {c0.real}")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def constant(cls, density: float) -> "SymbolFunction":
        """Constant function with ``2 F(0) = density`` (uncorrelated reservoir)."""
        return cls((density,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def density(self) -> float:
        """``2 F(0) = c(0)``."""
        return self.coefficients[0].real

    def __call__(self, zeta):
        """Evaluate ``F`` at scalar or array argument ``zeta``."""
        zeta = np.asarray(zeta, dtype=complex)
        out = np.full_like(zeta, self.coefficients[0] / 2.0)
        power = np.ones_like(zeta)
        for c in self.coefficients[1:]:
            power = power * zeta
            out = out + c * power
        return out if out.ndim else complex(out)

    def at_one(self) -> complex:
        """Boundary value ``F(1)`` (finite coefficient sum)."""
        return self.coefficients[0] / 2.0 + sum(self.coefficients[1:])

    def circle_density(self, phi):
        """``g(phi) = 2 Re F(e^{i phi})``, the sector's spectral density."""
        return 2.0 * np.real(self(np.exp(1j * np.asarray(phi, dtype=float))))


@dataclass
class EnvironmentSpec:
    """The unitary ``U``, its eigen-data, and one symbol function per sector.

    The eigenvectors are the Schur vectors of ``U``, ordered by ascending
    phase in [0, 2*pi).  Simplicity of the spectrum (pairwise phase gap above
    ``GAP_TOL``) is enforced so that the ordering, the projectors and the
    sector decomposition are unambiguous.
    """

    U: np.ndarray
    symbol_functions: list
    phases: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)  # columns x_i

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        check_unitary(U, "U", "U", ReservoirError)
        m = U.shape[0]
        if len(self.symbol_functions) != m:
            raise ReservoirError(
                f"need one symbol function per sector: m = {m}, got {len(self.symbol_functions)}")

        T, Z = scipy.linalg.schur(U, output="complex")
        phases = np.angle(np.diag(T)) % (2.0 * np.pi)
        order = np.argsort(phases)
        self.U, self.phases, self.eigenvectors = U, phases[order], Z[:, order]
        gaps = np.diff(np.append(self.phases, self.phases[0] + 2.0 * np.pi))
        if gaps.min() <= GAP_TOL:
            raise ReservoirError(
                f"U must have simple eigenvalues: min phase gap {gaps.min():.3e} <= {GAP_TOL:.1e}")

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def max_degree(self) -> int:
        return max(f.degree for f in self.symbol_functions)

    @property
    def coefficients(self) -> np.ndarray:
        """The ``(m, L_max + 1)`` table ``c[i, l] = c_i(l)``, zero past each sector's degree."""
        c = np.zeros((self.m, self.max_degree + 1), dtype=complex)
        for i, f in enumerate(self.symbol_functions):
            c[i, :len(f.coefficients)] = f.coefficients
        return c

    def projector(self, i: int) -> np.ndarray:
        x = self.eigenvectors[:, i]
        return np.outer(x, x.conj())

    def weights(self, v: np.ndarray) -> np.ndarray:
        """Coupling weights ``w_i = ||pi_i v||^2``."""
        return np.abs(self.eigenvectors.conj().T @ np.asarray(v, dtype=complex)) ** 2

    def lattice_coefficient(self, i: int, ell: int) -> complex:
        """Matrix element ``< delta_{k+ell} (x) x_i, Sigma (delta_k (x) x_i) >``.

        Equals ``e^{-i gamma_i ell} c_i(ell)`` for ``ell >= 0`` and the complex
        conjugate at ``-ell`` (the dynamics phase ``U^ell`` unwinds the
        coefficient ``c_i`` defined along the orbit of ``S (x) U``).
        """
        coeffs = self.symbol_functions[i].coefficients
        k = abs(ell)
        if k > len(coeffs) - 1:
            return 0.0
        val = coeffs[k] * np.exp(-1j * self.phases[i] * k)
        return complex(val) if ell >= 0 else complex(np.conj(val))

    def sigma_element(self, k1: int, w1: np.ndarray, k2: int, w2: np.ndarray) -> complex:
        """``< delta_{k1} (x) w1, Sigma (delta_{k2} (x) w2) >`` for internal vectors w1, w2."""
        a1 = self.eigenvectors.conj().T @ np.asarray(w1, dtype=complex)
        a2 = self.eigenvectors.conj().T @ np.asarray(w2, dtype=complex)
        return complex(sum(
            np.conj(a1[i]) * a2[i] * self.lattice_coefficient(i, k1 - k2)
            for i in range(self.m)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the circle-density admissibility check; ``violations`` are the failed sectors."""

    minima: tuple
    maxima: tuple
    worst_phi: tuple
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self):
        lines = [f"symbol validation: {'PASS' if self.passed else 'FAIL'} "
                 f"(slack {SYMBOL_SLACK:g})"]
        for i, (lo, hi, phi) in enumerate(zip(self.minima, self.maxima, self.worst_phi)):
            lines.append(f"  sector {i}: min g = {lo:.6g}, max g = {hi:.6g}, worst phi = {phi:.6g}")
        return "\n".join(lines)


def validate_symbol(spec: EnvironmentSpec) -> ValidationReport:
    """Check ``0 <= g_i = 2 Re F_i <= 1`` on the whole circle.

    ``g_i(phi) = c_i(0) + sum_l (c_i(l) z^l + conj(c_i(l)) z^-l)`` at
    ``z = e^{i phi}`` is a trigonometric polynomial of degree ``L``, so its
    extrema sit at unit-circle roots of the degree-``2L`` polynomial
    ``z^L g_i'(z)``.  ``g_i`` is evaluated at the angles of all its roots
    (and at ``phi = 0``), which gives the exact extrema up to round-off.
    Reports per-sector extrema and the sectors that leave ``[0, 1]`` by more
    than ``SYMBOL_SLACK``; violations are reported (with the worst angle),
    not raised.
    """
    minima, maxima, worst, violations = [], [], [], []
    for i, f in enumerate(spec.symbol_functions):
        c = np.asarray(f.coefficients)
        L = f.degree
        ell = np.arange(1, L + 1)
        dg = np.zeros(2 * L + 1, dtype=complex)       # z^L g'(z) / i, by ascending power
        dg[L + ell] = ell * c[1:]
        dg[L - ell] = -ell * np.conj(c[1:])
        phi = np.append(np.angle(np.roots(dg[::-1])), 0.0)
        g = f.circle_density(phi)
        lo, hi = float(g.min()), float(g.max())
        minima.append(lo)
        maxima.append(hi)
        worst.append(float(phi[int(np.argmax(np.maximum(-g, g - 1.0)))]))
        if lo < -SYMBOL_SLACK or hi > 1.0 + SYMBOL_SLACK:
            violations.append(i)
    return ValidationReport(tuple(minima), tuple(maxima), tuple(worst), tuple(violations))


def eval_series(F: SymbolFunction, B: np.ndarray) -> np.ndarray:
    """``F(B) = c(0)/2 + sum_l c(l) B^l`` by iterated multiplication.

    ``B`` must be a contraction (``||B|| <= 1`` up to 1e-10); the finite
    coefficient list makes the series exact.
    """
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ReservoirError(f"B must be square, got shape {B.shape}")
    nb = _spectral_norm(B)
    if nb > 1.0 + 1e-10:
        raise ReservoirError(f"eval_series needs ||B|| <= 1, got {nb:.12f}")
    return _series(F.coefficients, B)


def _series(coefficients, B: np.ndarray) -> np.ndarray:
    """``c(0)/2 + sum_l c(l) B^l`` for a coefficient list ``c``.

    :func:`eval_series` without its checks, for a ``B`` that is a square
    contraction by construction.
    """
    out = (coefficients[0] / 2.0) * np.eye(B.shape[0], dtype=complex)
    power = B
    for ell, c in enumerate(coefficients[1:], start=1):
        if ell > 1:
            power = power @ B
        out = out + c * power
    return out


def eval_contour(F: SymbolFunction, B: np.ndarray, radius: float, nodes: int = 256) -> np.ndarray:
    """``F(B)`` by the contour formula ``(1/2 pi i) \\oint F(zeta) (zeta - B)^{-1} d zeta``.

    Trapezoid rule on the circle of the given radius, which is spectrally
    accurate for this analytic integrand.  Requires ``spr(B) < radius`` so the
    resolvent has no pole inside the contour.
    """
    B = np.asarray(B, dtype=complex)
    if nodes < 32:
        raise ReservoirError(f"need at least 32 quadrature nodes, got {nodes}")
    spr = float(np.max(np.abs(np.linalg.eigvals(B))))
    if radius <= spr:
        raise ReservoirError(
            f"contour radius {radius} must exceed spr(B) = {spr:.6f} (resolvent pole inside)")
    d = B.shape[0]
    out = np.zeros((d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for k in range(nodes):
        zeta = radius * np.exp(2j * np.pi * k / nodes)
        out += complex(F(zeta)) * zeta * np.linalg.inv(zeta * eye - B)
    return out / nodes


def build_truncated_symbol(spec: EnvironmentSpec, window: tuple[int, int]) -> np.ndarray:
    """Finite section of ``Sigma`` on lattice sites ``a..b`` (inclusive).

    Returns the Hermitian block-Toeplitz matrix with
    ``< delta_{k+l} (x) x_i, Sigma (delta_k (x) x_i) >`` on the ``x_i`` sector
    and vanishing cross-sector blocks (``[Sigma, 1 (x) pi_i] = 0``).  Basis is
    site-major: flat index ``(k - a) * m + j`` with ``j`` the standard
    internal coordinate.
    """
    a, b = window
    if b < a:
        raise ReservoirError(f"empty window {window}")
    n_sites = b - a + 1
    m = spec.m
    sites = np.arange(n_sites)
    out = np.zeros((n_sites * m, n_sites * m), dtype=complex)
    # each m x m block on site offset ell is written in place, so no
    # temporary of out's size is formed (Moller windows reach 10^3 sites)
    blocks = out.reshape(n_sites, m, n_sites, m)
    X = spec.eigenvectors
    for ell in range(-spec.max_degree, spec.max_degree + 1):
        vals = [spec.lattice_coefficient(i, ell) for i in range(m)]
        rows = sites[max(0, ell):n_sites + min(0, ell)]
        blocks[rows, :, rows - ell, :] = (X * vals) @ X.conj().T
    return out
