"""Random coined walks on large rings: spectra, density of states, averaged density.

Coins are drawn per vertex as

    C_nu(omega) = [[ e^{-i w-} t,  e^{-i w-} r ],
                   [ -e^{-i w+} r, e^{-i w+} t ]]

in the ``(e_{-1}, e_{+1})`` basis, with fixed real ``t, r`` (``t^2 + r^2 = 1``,
``t r != 0``) and phases ``(w+, w-)`` i.i.d. from a common distribution.  For
the homogeneous walk (all phases equal to ``theta``) the Bloch eigenvalues are

    e^{-i theta} (t cos k  +-  i sqrt(1 - t^2 cos^2 k)),

two arcs of the unit circle; disorder supported on an interval enlarges the
arcs accordingly.  The asymptotic vertex-averaged particle density equals a
trace of ``2 Re F`` over the contraction of the sampled ring, which for large
rings matches twice the density-of-states integral of ``2 Re F``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingError, build_contraction
from .environment import SymbolFunction
from .walk import (CoinedWalk, WalkError, _cycle_rows, check_unitary, cycle_star_vector,
                   unitary_spectrum)

# how far a custom phase may stray outside theta0 +- halfwidth by round-off
SUPPORT_SLACK = 1e-12

__all__ = [
    "DisorderModel",
    "DOSEstimate",
    "disordered_coin",
    "sample_disordered_walk",
    "density_of_states",
    "exact_band_intervals",
    "enlarged_band_intervals",
    "phases_in_bands",
    "AveragedDensityResult",
    "averaged_density",
]


@dataclass(frozen=True)
class DisorderModel:
    """Transition amplitudes ``(t, r)``, ring size, and the phase distribution.

    ``distribution`` is ``"point"`` (all phases equal ``theta0``), ``"uniform"``
    on ``[theta0 - halfwidth, theta0 + halfwidth]``, or ``"custom"`` with an
    ``inverse_cdf`` callable mapping uniform [0, 1) draws to phases inside
    ``theta0 +- halfwidth``.  The band reports and the eigensolver's pole
    rely on that support, so a draw outside it raises :class:`WalkError`.
    """

    t: float
    r: float
    n: int
    distribution: str = "point"
    theta0: float = 0.0
    halfwidth: float = 0.0
    seed: int = 0
    inverse_cdf: object = None

    def __post_init__(self):
        # every coin is diag(e^{-i w-}, e^{-i w+}) K: this is each draw's coin check
        check_unitary(np.array([[self.t, self.r], [-self.r, self.t]]),
                      f"[[t, r], [-r, t]] with t^2 + r^2 = {self.t ** 2 + self.r ** 2}", "K")
        if self.t * self.r == 0.0:
            raise WalkError("need t r != 0 (both transition amplitudes present)")
        if self.distribution not in ("point", "uniform", "custom"):
            raise WalkError(f"unsupported phase distribution {self.distribution!r}")
        if self.distribution == "uniform" and self.halfwidth <= 0.0:
            raise WalkError("uniform distribution needs a positive halfwidth")
        if self.distribution == "custom" and not callable(self.inverse_cdf):
            raise WalkError("custom distribution needs a callable inverse_cdf")
        if self.n < 2:
            raise WalkError(f"ring needs n >= 2, got n = {self.n}")

    def sample_phases(self, sample_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex phase pairs ``(w+, w-)``, reproducible per (seed, index)."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, sample_index)))
        if self.distribution == "point":
            plus = np.full(self.n, self.theta0)
            minus = np.full(self.n, self.theta0)
        elif self.distribution == "uniform":
            lo = self.theta0 - self.halfwidth
            hi = self.theta0 + self.halfwidth
            plus = rng.uniform(lo, hi, size=self.n)
            minus = rng.uniform(lo, hi, size=self.n)
        else:
            plus = np.asarray(self.inverse_cdf(rng.random(self.n)), dtype=float)
            minus = np.asarray(self.inverse_cdf(rng.random(self.n)), dtype=float)
            lo, hi = self.support
            for phases in (plus, minus):
                # a scalar would broadcast into a homogeneous ring
                if phases.shape != (self.n,):
                    raise WalkError(f"custom inverse_cdf must give one phase per vertex, "
                                    f"shape ({self.n},), got shape {phases.shape}")
                # the comparison is written so that NaN fails it too
                inside = (phases >= lo - SUPPORT_SLACK) & (phases <= hi + SUPPORT_SLACK)
                if not inside.all():
                    bad = phases[~inside][0]
                    raise WalkError(f"custom phase {bad!r} outside the support "
                                    f"[{lo}, {hi}] = theta0 +- halfwidth")
        return plus, minus

    @property
    def support(self) -> tuple[float, float]:
        if self.distribution == "point":
            return (self.theta0, self.theta0)
        return (self.theta0 - self.halfwidth, self.theta0 + self.halfwidth)

    @property
    def gap_halfwidth(self) -> float:
        """Half-width of the spectral gaps centred at ``+-e^{-i theta0}``.

        The bands swept over the support (:func:`enlarged_band_intervals`)
        leave these two gaps of half-width ``arccos|t| - (support width)/2``;
        a value <= 0 means the bands close them.
        """
        lo, hi = self.support
        return float(np.arccos(abs(self.t))) - 0.5 * (hi - lo)


def disordered_coin(t: float, r: float, w_plus, w_minus) -> np.ndarray:
    """Random coin in the ``(e_{-1}, e_{+1})`` basis.

    Scalar phases give one ``(2, 2)`` coin; arrays of phases give the stack
    ``(..., 2, 2)`` of one coin per entry.
    """
    minus = np.exp(-1j * np.asarray(w_minus))[..., None]
    plus = np.exp(-1j * np.asarray(w_plus))[..., None]
    return np.stack([minus * [t, r], plus * [-r, t]], axis=-2)


def sample_disordered_walk(model: DisorderModel, sample_index: int = 0) -> CoinedWalk:
    """One ring walk ``W(omega)``, deterministic in ``(seed, sample_index)``; no coin check.

    The walk keeps its hop and coin layers: its spectrum is solved from the
    chiral square of the layers, and ``.matrix`` forms the ``2n x 2n`` array.
    """
    plus, minus = model.sample_phases(sample_index)
    return CoinedWalk(_cycle_rows(model.n), disordered_coin(model.t, model.r, plus, minus))


@dataclass
class DOSEstimate:
    """Pooled eigenphase histogram over independent disorder samples."""

    bin_edges: np.ndarray
    mass: np.ndarray
    stderr: np.ndarray
    samples: int
    n: int

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def integrate(self, fn) -> float:
        """Histogram integral of ``fn(theta)`` against the estimated density."""
        return float(np.sum(fn(self.bin_centers) * self.mass))


def _eigenphases(W: CoinedWalk, model: DisorderModel) -> np.ndarray:
    """Eigenphases in ``[0, 2 pi)`` of a walk ``W`` drawn from ``model``.

    The Cayley pole of :func:`~fermiwalk.walk.unitary_spectrum` sits at
    ``e^{-i theta0}``, the centre of a gap that every draw's spectrum avoids
    by ``model.gap_halfwidth``; where that gap is narrow or closed, the
    solver re-centres the pole.
    """
    return unitary_spectrum(W, pole=-model.theta0)[0]


def _map_draws(samples: int, threads: int | None, *fns) -> list[list]:
    """Each of ``fns`` over the draws ``0..samples-1``, on one pool if ``threads > 1``."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [list(pool.map(fn, range(samples))) for fn in fns]
    return [[fn(i) for i in range(samples)] for fn in fns]


def density_of_states(model: DisorderModel, samples: int, bins: int = 512,
                      threads: int | None = None) -> DOSEstimate:
    """Monte Carlo density of eigenvalue phases of ``W(omega)`` in ``[0, 2 pi)``.

    Phases are pooled over independent draws into a normalised half-open-bin
    histogram; the per-bin standard error is the sample standard deviation of
    the per-draw histograms divided by ``sqrt(samples)``.  The sample seeds
    derive from ``(model.seed, index)``, so the merge is order-independent.
    """
    if samples < 1:
        raise WalkError("need at least one sample")
    edges = np.linspace(0.0, 2.0 * np.pi, bins + 1)

    def one(index: int) -> np.ndarray:
        phases = _eigenphases(sample_disordered_walk(model, index), model)
        hist, _ = np.histogram(phases, bins=edges)
        return hist / (2.0 * model.n)

    per_sample, = _map_draws(samples, threads, one)
    stack = np.stack(per_sample)
    mass = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(samples) if samples > 1 else np.zeros(bins)
    return DOSEstimate(edges, mass, stderr, samples, model.n)


def exact_band_intervals(model: DisorderModel, theta: float | None = None):
    """Phase intervals of the two Bloch bands of the homogeneous walk.

    For all phases equal to ``theta`` the spectrum is
    ``e^{-i theta} (x +- i sqrt(1 - x^2))`` with ``x in [-|t|, |t|]``, i.e.
    the phase arcs ``[b - theta, pi - b - theta]`` and their reflection, with
    ``b = arccos |t|``.  Intervals are returned un-normalised (use
    :func:`phases_in_bands` for membership tests on the circle).
    """
    if theta is None:
        theta = model.theta0
    b = float(np.arccos(abs(model.t)))
    upper = (b - theta, np.pi - b - theta)
    lower = (-(np.pi - b) - theta, -b - theta)
    return [upper, lower]


def enlarged_band_intervals(model: DisorderModel):
    """Band intervals swept over the support of the phase distribution."""
    lo, hi = model.support
    at_lo = exact_band_intervals(model, lo)
    at_hi = exact_band_intervals(model, hi)
    return [(at_hi[0][0], at_lo[0][1]), (at_hi[1][0], at_lo[1][1])]


def phases_in_bands(phases: np.ndarray, intervals, dilation: float = 0.0) -> np.ndarray:
    """Boolean mask: which phases fall inside any of the intervals (mod 2 pi)."""
    phases = np.asarray(phases) % (2.0 * np.pi)
    mask = np.zeros(phases.shape, dtype=bool)
    for lo, hi in intervals:
        lo, hi = lo - dilation, hi + dilation
        width = hi - lo
        rel = (phases - lo) % (2.0 * np.pi)
        mask |= rel <= width
    return mask


@dataclass
class AveragedDensityResult:
    """Two estimators of the asymptotic vertex-averaged particle density."""

    trace_mean: float
    trace_stderr: float
    dos_mean: float
    dos_stderr: float
    samples: int
    skipped: list = field(default_factory=list)
    skipped_gaps: list = field(default_factory=list)

    @property
    def combined_stderr(self) -> float:
        return float(np.hypot(self.trace_stderr, self.dos_stderr))

    @property
    def discrepancy(self) -> float:
        return abs(self.trace_mean - self.dos_mean)


def _trace_density(F: SymbolFunction, M: np.ndarray) -> float:
    """``(2/n) Re tr F(M)`` for a ``2n x 2n`` ring walk ``W`` or its contraction ``M``.

    ``tr F(M) = c(0) d/2 + sum_l c(l) tr(M^l)`` with ``d = 2n``; ``tr M^2`` is
    ``sum(M * M^T)``, so matrix products start at ``l = 3``.  The series needs
    ``||M|| <= 1``, which holds by construction and is not re-checked:
    ``W`` is unitary and ``1 + (cos alpha - 1) P`` has singular values 1 and
    ``|cos alpha|``.
    """
    c = F.coefficients
    d = M.shape[0]
    total = c[0] * d / 2.0
    if len(c) > 1:
        total += c[1] * np.trace(M)
    power = M
    for ell, coeff in enumerate(c[2:], start=2):
        if ell > 2:
            power = power @ M
        total += coeff * np.sum(power * M.T)
    return float(4.0 * total.real / d)


def averaged_density(model: DisorderModel, F: SymbolFunction, alpha: float,
                     samples: int, threads: int | None = None) -> AveragedDensityResult:
    """Disorder-averaged asymptotic density, two ways.

    Estimator A: mean over draws of ``(1/n) tr(2 Re F(M))`` with
    ``M = W(omega)(1 + (cos alpha - 1) P)`` and ``psi* = delta_0 (x) e_{-1}``.
    Estimator B: ``(1/n) sum_eigenphases 2 Re F(e^{i theta})`` over the walk
    spectra of an independent set of draws (the density-of-states integral),
    which is ``(2/n) Re tr F(W)`` for unitary ``W``: no eigensolve is needed.
    Draws whose contraction fails the ``spr(M) < 1`` gate are skipped and
    reported: their indices in ``skipped``, their ``1 - spr(M)`` in
    ``skipped_gaps``.
    """
    if samples < 2:
        raise WalkError("need at least two samples for standard errors")
    psi = cycle_star_vector(model.n)

    def trace_value(index: int):
        """The trace estimate of one draw, or ``None`` and its ``1 - spr`` if skipped."""
        W = sample_disordered_walk(model, index)
        contraction = build_contraction(W, psi, alpha, pole=-model.theta0)
        if not contraction.contractive:
            return None, 1.0 - contraction.spectral_radius
        return _trace_density(F, contraction.matrix), None

    def dos_value(index: int):
        return _trace_density(F, sample_disordered_walk(model, samples + index).matrix)

    trace_vals, dos_vals = _map_draws(samples, threads, trace_value, dos_value)
    skipped = [i for i, (v, _) in enumerate(trace_vals) if v is None]
    kept = np.array([v for v, _ in trace_vals if v is not None])
    if len(kept) < 2:
        raise CouplingError("too few contractive samples for the trace estimator")
    dos_arr = np.array(dos_vals)
    return AveragedDensityResult(
        trace_mean=float(kept.mean()),
        trace_stderr=float(kept.std(ddof=1) / np.sqrt(len(kept))),
        dos_mean=float(dos_arr.mean()),
        dos_stderr=float(dos_arr.std(ddof=1) / np.sqrt(samples)),
        samples=samples,
        skipped=skipped,
        skipped_gaps=[trace_vals[i][1] for i in skipped],
    )
