import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermiwalk import walk
from fermiwalk.coupling import SPR_MAX, build_contraction
from fermiwalk.disorder import (AveragedDensityResult, DisorderModel,
                                _eigenphases, _trace_density,
                                averaged_density, density_of_states,
                                disordered_coin, enlarged_band_intervals,
                                exact_band_intervals, phases_in_bands,
                                sample_disordered_walk)
from fermiwalk.environment import SymbolFunction, eval_series, hermitian_part
from fermiwalk.walk import WalkError, build_cycle_walk, cycle_star_vector


T, R = 0.8, 0.6


def eigenphases(W):
    return np.angle(np.linalg.eigvals(W)) % (2 * np.pi)


def circle_deviation(phases, reference):
    """Largest circle distance between two phase multisets, matched in order.

    Both are sorted from the middle of the reference's widest empty arc, so a
    phase near the 0 = 2 pi cut cannot pair with the wrong neighbour.
    """
    ordered = np.sort(reference % (2 * np.pi))
    gaps = np.diff(ordered, append=ordered[0] + 2 * np.pi)
    cut = ordered[np.argmax(gaps)] + 0.5 * gaps.max()
    a = np.sort((phases - cut) % (2 * np.pi))
    b = np.sort((reference - cut) % (2 * np.pi))
    return float(np.abs(np.angle(np.exp(1j * (a - b)))).max())


def drawn_walk(t, theta0, halfwidth, n, seed):
    model = DisorderModel(t=t, r=np.sqrt(1 - t * t), n=n,
                          distribution="uniform" if halfwidth > 0 else "point",
                          theta0=theta0, halfwidth=halfwidth, seed=seed)
    return model, sample_disordered_walk(model, 0)


class TestModel:
    def test_amplitude_constraint(self):
        with pytest.raises(WalkError, match="t\\^2"):
            DisorderModel(t=0.9, r=0.6, n=8)
        with pytest.raises(WalkError, match="t r"):
            DisorderModel(t=1.0, r=0.0, n=8)

    def test_reproducible_sampling(self):
        m = DisorderModel(t=T, r=R, n=16, distribution="uniform",
                          theta0=0.4, halfwidth=0.2, seed=9)
        a = sample_disordered_walk(m, 3)
        b = sample_disordered_walk(m, 3)
        assert np.array_equal(a, b)
        c = sample_disordered_walk(m, 4)
        assert not np.allclose(a, c)

    def test_coin_unitary(self):
        C = disordered_coin(T, R, 0.3, 1.1)
        assert np.linalg.norm(C.conj().T @ C - np.eye(2)) <= 1e-14

    def test_custom_distribution_hook(self):
        # inverse CDF of the uniform law reproduces the built-in sampler
        uniform = DisorderModel(t=T, r=R, n=16, distribution="uniform",
                                theta0=0.4, halfwidth=0.2, seed=9)
        custom = DisorderModel(t=T, r=R, n=16, distribution="custom",
                               theta0=0.4, halfwidth=0.2, seed=9,
                               inverse_cdf=lambda u: 0.2 + 0.4 * u)
        a = custom.sample_phases(0)
        b = uniform.sample_phases(0)
        assert np.allclose(a[0], b[0]) and np.allclose(a[1], b[1])
        with pytest.raises(WalkError, match="callable"):
            DisorderModel(t=T, r=R, n=8, distribution="custom")

    @pytest.mark.parametrize("inverse_cdf", [
        lambda u: 0.2 + 0.5 * u,             # upper edge crossed
        lambda u: 0.19 + 0.4 * u,            # lower edge crossed
        lambda u: np.where(u < 0.5, np.nan, 0.4),
    ])
    def test_custom_phases_outside_support_raise(self, inverse_cdf):
        m = DisorderModel(t=T, r=R, n=64, distribution="custom", theta0=0.4,
                          halfwidth=0.2, seed=9, inverse_cdf=inverse_cdf)
        with pytest.raises(WalkError, match="outside the support"):
            m.sample_phases(0)
        with pytest.raises(WalkError, match="outside the support"):
            sample_disordered_walk(m, 0)

    def test_custom_phases_on_the_support_edges_pass(self):
        m = DisorderModel(t=T, r=R, n=4, distribution="custom", theta0=0.4,
                          halfwidth=0.2, seed=9,
                          inverse_cdf=lambda u: np.where(u < 0.5, 0.4 - 0.2, 0.4 + 0.2))
        plus, minus = m.sample_phases(0)
        assert np.isin(plus, [0.4 - 0.2, 0.4 + 0.2]).all()

    def test_coin_stack_equals_single_coins(self):
        rng = np.random.default_rng(4)
        plus, minus = rng.uniform(-4, 4, size=(2, 9))
        stack = disordered_coin(T, R, plus, minus)
        assert stack.shape == (9, 2, 2)
        for k in range(9):
            assert np.array_equal(stack[k], disordered_coin(T, R, plus[k], minus[k]))


class TestSpectra:
    def test_walks_unitary_over_many_seeds(self):
        m = DisorderModel(t=T, r=R, n=12, distribution="uniform",
                          theta0=0.4, halfwidth=0.2, seed=1)
        for idx in range(100):
            W = sample_disordered_walk(m, idx)
            assert np.linalg.norm(W.conj().T @ W - np.eye(24)) <= 1e-12

    def test_point_mass_spectrum_fills_exact_bands(self):
        m = DisorderModel(t=T, r=R, n=128, distribution="point", theta0=0.9)
        phases = eigenphases(sample_disordered_walk(m, 0))
        bands = exact_band_intervals(m)
        assert phases_in_bands(phases, bands, dilation=1e-10).all()
        # edges of the sampled spectrum reach the band edges
        for lo, hi in bands:
            sel = phases_in_bands(phases, [(lo, hi)], dilation=1e-10)
            sub = np.sort(((phases[sel] - lo) % (2 * np.pi)))
            assert sub[0] <= 0.1 and (hi - lo) - sub[-1] <= 0.1

    def test_shift_relabeling_conjugates_by_the_ring_shift(self):
        n = 8
        m = DisorderModel(t=T, r=R, n=n, distribution="uniform",
                          theta0=0.3, halfwidth=0.5, seed=3)
        for idx in range(10):
            plus, minus = m.sample_phases(idx)
            coins = [disordered_coin(T, R, plus[k], minus[k]) for k in range(n)]
            shifted = [disordered_coin(T, R, plus[(k + 1) % n], minus[(k + 1) % n])
                       for k in range(n)]
            W0 = build_cycle_walk(n, coins)
            W1 = build_cycle_walk(n, shifted)
            ring = np.zeros((n, n))
            for nu in range(n):
                ring[(nu - 1) % n, nu] = 1.0
            Rop = np.kron(ring, np.eye(2))
            assert np.linalg.norm(W1 - Rop @ W0 @ Rop.conj().T) <= 1e-13

    def test_global_phase_covariance(self):
        m = DisorderModel(t=T, r=R, n=16, distribution="uniform",
                          theta0=0.4, halfwidth=0.1, seed=5)
        m_shift = DisorderModel(t=T, r=R, n=16, distribution="uniform",
                                theta0=0.4 + 0.8, halfwidth=0.1, seed=5)
        ph0 = np.sort(eigenphases(sample_disordered_walk(m, 2)))
        ph1 = np.sort((eigenphases(sample_disordered_walk(m_shift, 2)) + 0.8) % (2 * np.pi))
        assert np.abs(ph0 - ph1).max() <= 1e-10

    def test_interval_disorder_stays_in_enlarged_bands(self):
        m = DisorderModel(t=T, r=R, n=64, distribution="uniform",
                          theta0=0.7, halfwidth=0.05, seed=1)
        intervals = enlarged_band_intervals(m)
        for idx in range(20):
            phases = eigenphases(sample_disordered_walk(m, idx))
            assert phases_in_bands(phases, intervals, dilation=1e-8).all()


class TestEigenphases:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(t=st.floats(0.02, 0.995) | st.floats(-0.995, -0.02),
           theta0=st.floats(-7.0, 7.0),
           halfwidth=st.just(0.0) | st.floats(0.01, 3.3),
           n=st.integers(2, 32),
           seed=st.integers(0, 2 ** 31 - 1))
    @example(t=0.95, theta0=0.4, halfwidth=1.5, n=32, seed=1)
    @example(t=0.6, theta0=-2.0, halfwidth=3.0, n=31, seed=2)
    def test_cayley_phases_match_eigvals(self, t, theta0, halfwidth, n, seed):
        # halfwidth >= arccos|t| closes the spectral gaps, so the strategy
        # covers gapless models, where the pole must be re-centred
        model, W = drawn_walk(t, theta0, halfwidth, n, seed)
        assert circle_deviation(_eigenphases(W, model), eigenphases(W)) <= 1e-12

    def test_gapless_ring_of_256(self):
        # one solve at the gap centre is off by 2e-12 on this draw: an
        # eigenvalue sits 1e-3 from the pole until the pole is re-centred
        model, W = drawn_walk(0.6, 0.4, 3.0, 256, 7)
        assert model.gap_halfwidth < 0
        assert circle_deviation(_eigenphases(W, model), eigenphases(W)) <= 1e-12

    def test_gap_contains_the_pole(self, monkeypatch):
        # the ring is solved through its chiral square, whose one gap at
        # e^{-2i theta0} holds the doubled pole: a single Cayley solve
        solves = []
        cayley = walk._cayley_spectrum
        monkeypatch.setattr(walk, "_cayley_spectrum",
                            lambda W, *args: solves.append(W.shape[0]) or cayley(W, *args))
        for theta0 in (0.7, 2.5):
            m = DisorderModel(t=T, r=R, n=64, distribution="uniform",
                              theta0=theta0, halfwidth=0.05, seed=1)
            assert m.gap_halfwidth == pytest.approx(np.arccos(T) - 0.05)
            solves.clear()
            phases = _eigenphases(sample_disordered_walk(m, 0), m)
            assert solves == [64]
            dist = np.abs(np.angle(np.exp(1j * (phases + m.theta0))))
            assert dist.min() >= m.gap_halfwidth


class TestDensityOfStates:
    def test_normalisation_and_errors(self):
        m = DisorderModel(t=T, r=R, n=32, distribution="uniform",
                          theta0=0.4, halfwidth=0.1, seed=2)
        dos = density_of_states(m, samples=12, bins=64)
        assert dos.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert (dos.stderr >= 0).all()

    def test_support_matches_bands_within_one_bin(self):
        m = DisorderModel(t=T, r=R, n=64, distribution="point", theta0=1.3)
        dos = density_of_states(m, samples=3, bins=128)
        width = dos.bin_edges[1] - dos.bin_edges[0]
        nz = dos.mass > 0
        assert phases_in_bands(dos.bin_centers[nz], exact_band_intervals(m),
                               dilation=width).all()

    def test_self_averaging_under_doubling(self):
        # same total eigenvalue count: n doubled, samples halved; bins wide
        # enough that finite-size discreteness is washed out
        kwargs = dict(t=T, r=R, distribution="uniform", theta0=0.4, halfwidth=0.3)
        d1 = density_of_states(DisorderModel(n=128, seed=3, **kwargs), samples=40, bins=16)
        d2 = density_of_states(DisorderModel(n=256, seed=4, **kwargs), samples=20, bins=16)
        se = np.hypot(d1.stderr, d2.stderr)
        dev = np.abs(d1.mass - d2.mass)
        assert (dev <= 3 * se + 1e-12).all()

    def test_histogram_integration(self):
        m = DisorderModel(t=T, r=R, n=32, distribution="point", theta0=0.0)
        dos = density_of_states(m, samples=2, bins=256)
        assert dos.integrate(lambda th: np.ones_like(th)) == pytest.approx(1.0)

    def test_threaded_merge_deterministic(self):
        m = DisorderModel(t=T, r=R, n=24, distribution="uniform",
                          theta0=0.2, halfwidth=0.1, seed=8)
        serial = density_of_states(m, samples=8, bins=64)
        threaded = density_of_states(m, samples=8, bins=64, threads=4)
        assert np.array_equal(serial.mass, threaded.mass)


class TestAveragedDensity:
    @pytest.mark.parametrize("n", [2, 16, 64])
    @pytest.mark.parametrize("coefficients", [
        (0.4,), (0.5, 0.2 - 0.1j), (0.5, 0.0, 0.125),
        (0.5, 0.1 + 0.05j, 0.125, 0.02, -0.01j, 0.003),
    ])
    def test_trace_density_equals_series(self, n, coefficients):
        m = DisorderModel(t=T, r=R, n=n, distribution="uniform",
                          theta0=0.7, halfwidth=0.05, seed=1)
        M = build_contraction(sample_disordered_walk(m, 3), cycle_star_vector(n), 0.3).matrix
        F = SymbolFunction(coefficients)
        ref = np.trace(2.0 * hermitian_part(eval_series(F, M))).real / n
        assert _trace_density(F, M) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("n", [8, 64])
    def test_dos_estimator_is_the_eigenphase_sum(self, n):
        # estimator B per draw is (2/n) Re tr F(W) = (1/n) sum_j 2 Re F(e^{i theta_j}),
        # against phases from a dense eigvals of each draw
        m = DisorderModel(t=T, r=R, n=n, distribution="uniform",
                          theta0=0.7, halfwidth=0.3, seed=4)
        F = SymbolFunction((0.5, 0.1 + 0.05j, 0.125, 0.02, -0.01j, 0.003))
        samples, ref = 3, []
        for i in range(samples):
            W = sample_disordered_walk(m, samples + i)
            ref.append(np.sum(F.circle_density(eigenphases(W))) / n)
            assert _trace_density(F, W) == pytest.approx(ref[-1], abs=1e-14)
        res = averaged_density(m, F, alpha=0.3, samples=samples)
        assert res.dos_mean == pytest.approx(np.mean(ref), abs=1e-14)

    def test_constant_symbol_fixes_normalisation(self):
        # symbol c0 on every mode: vertex average is exactly 2 c0 = 2 (2 F(0))
        m = DisorderModel(t=T, r=R, n=32, distribution="uniform",
                          theta0=0.4, halfwidth=0.1, seed=6)
        F = SymbolFunction((0.4,))
        res = averaged_density(m, F, alpha=0.5, samples=4)
        assert res.trace_mean == pytest.approx(0.8, abs=1e-12)
        assert res.dos_mean == pytest.approx(0.8, abs=1e-12)

    def test_skipped_draws_report_their_gap(self):
        # phases at one of two values: a draw with all phases equal is a
        # homogeneous ring, whose psi* is not cyclic, so spr(M) = 1
        model = DisorderModel(t=T, r=R, n=4, distribution="custom", theta0=0.45,
                              halfwidth=0.05, seed=2,
                              inverse_cdf=lambda u: 0.4 + 0.1 * (np.asarray(u) > 0.9))
        res = averaged_density(model, SymbolFunction((0.5, 0.0, 0.125)), alpha=0.3, samples=8)
        assert res.skipped == [0, 2]
        psi = cycle_star_vector(4)
        for index, gap in zip(res.skipped, res.skipped_gaps, strict=True):
            W = sample_disordered_walk(model, index)
            spr = build_contraction(W, psi, 0.3, pole=-model.theta0).spectral_radius
            assert gap == 1.0 - spr and gap < 1.0 - SPR_MAX

    def test_two_estimators_agree(self):
        m = DisorderModel(t=T, r=R, n=96, distribution="uniform",
                          theta0=0.7, halfwidth=0.05, seed=1)
        F = SymbolFunction((0.5, 0.0, 0.125))
        res = averaged_density(m, F, alpha=0.3, samples=24)
        assert isinstance(res, AveragedDensityResult)
        assert res.discrepancy <= 3 * res.combined_stderr + 5e-4
        assert not res.skipped
