"""Acceptance suite: one test per release criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is pinned
here; the instances are frozen by explicit seeds and angle lists.
"""

import time

import numpy as np

from fermiwalk.asymptotics import (asymptotic_symbol, flux_expectations,
                                   node_correlations, node_profile,
                                   particle_number_distribution,
                                   ring_profile_closed_form,
                                   small_alpha_flux_rate,
                                   small_alpha_flux_rate_walk)
from fermiwalk.coupling import (CouplingSpec, Window, build_contraction,
                                moller_sample_block)
from fermiwalk.disorder import (DisorderModel, averaged_density,
                                density_of_states, enlarged_band_intervals,
                                exact_band_intervals, phases_in_bands,
                                sample_disordered_walk)
from fermiwalk.environment import (EnvironmentSpec, SymbolFunction,
                                   build_truncated_symbol, eval_contour,
                                   eval_series)
from fermiwalk.simulate import CovarianceState, FockOracle, flux_finite_time
from fermiwalk.walk import (build_cycle_walk, cycle_star_vector, hadamard_coin,
                            random_coin, rotation_coin)

THREADS = 2

# frozen instances -----------------------------------------------------------

ROT4 = (0.3, 0.8, 1.2, 0.5)
ROT6 = (0.4, 1.1, 0.7, 1.3, 0.25, 0.9)
N4_COIN_SEED = 3312          # fast-relaxing U(2) coins for the 4-cycle
V2 = np.array([np.sqrt(0.4), np.sqrt(0.6)], dtype=complex)


def n4_random_walk():
    rng = np.random.default_rng(N4_COIN_SEED)
    coins = [random_coin(2, rng) for _ in range(4)]
    return build_cycle_walk(4, coins), cycle_star_vector(4)


def walk_instance(n):
    if n == 2:
        return build_cycle_walk(2, [hadamard_coin()] * 2), cycle_star_vector(2)
    return n4_random_walk()


def env_instance(m):
    if m == 1:
        return EnvironmentSpec(np.eye(1), [SymbolFunction((0.5, 0.0, 0.125))])
    return EnvironmentSpec(np.diag([1.0, np.exp(0.7j)]),
                           [SymbolFunction((0.5, 0.1, 0.05)), SymbolFunction((0.3,))])


def coupling_instance(m, alpha, psi):
    v = np.array([1.0 + 0.0j]) if m == 1 else V2
    return CouplingSpec(alpha, v, psi)


ORACLE_WINDOWS = {(2, 1): (-2, 1), (2, 2): (-1, 1), (4, 1): (-1, 2), (4, 2): (-1, 1)}


def test_criterion_1_contraction_law():
    start = time.time()
    rng = np.random.default_rng(2026)

    def conditioned_coin():
        # coins obeying the spin-up transmission condition that guarantees
        # the star vector reaches every mode
        while True:
            C = random_coin(2, rng)
            if abs(C[1, 1] * C[1, 0]) > 0.01:
                return C

    draws = 0
    worst = 0.0
    for n in (4, 6, 8):
        for _ in range(7):
            W = build_cycle_walk(n, [conditioned_coin() for _ in range(n)])
            psi = cycle_star_vector(n)
            for alpha in (np.pi / 7, np.pi / 4, 1.0):
                spr = build_contraction(W, psi, alpha).spectral_radius
                worst = max(worst, spr)
            draws += 1
    assert draws >= 20
    assert worst < 1.0 - 1e-6

    for n in (4, 6, 8):
        W = build_cycle_walk(n, [np.eye(2)] * n)
        spr = build_contraction(W, cycle_star_vector(n), np.pi / 4).spectral_radius
        assert spr >= 1.0 - 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\n[criterion 1] PASS contraction law: {draws} cyclic draws, "
          f"worst spr = {worst:.8f} < 1 - 1e-6; identity coins stay at 1 "
          f"({elapsed:.2f} s)")


def test_criterion_2_three_engine_agreement():
    start = time.time()
    worst_oracle = 0.0
    worst_delta = 0.0
    for n in (2, 4):
        for m in (1, 2):
            env = env_instance(m)
            W, psi = walk_instance(n)
            for alpha in (np.pi / 4, 1.0):
                coup = coupling_instance(m, alpha, psi)
                # (a) exact many-body oracle vs covariance on one model
                a, b = ORACLE_WINDOWS[(n, m)]
                window = Window(a, b, m)
                oracle = FockOracle(env, W, coup, window)
                cov = CovarianceState(window, env, W, coup, periodic=True)
                dev = np.abs(oracle.two_point_matrix() - cov.sigma).max()
                for _ in range(20):
                    oracle.step()
                    cov.step()
                    dev = max(dev, np.abs(oracle.two_point_matrix() - cov.sigma).max())
                worst_oracle = max(worst_oracle, dev)
                # (b) covariance relaxation vs the closed-form symbol
                state = asymptotic_symbol(env, W, coup)
                horizon = state.contraction.truncation_horizon(1e-9)
                relax = CovarianceState(Window(0, env.max_degree, m), env, W, coup)
                relax.step(horizon)
                err = np.linalg.norm(relax.sample_block() - state.delta)
                worst_delta = max(worst_delta, err)
    assert worst_oracle <= 1e-10
    assert worst_delta <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\n[criterion 2] PASS three engines: oracle vs covariance "
          f"{worst_oracle:.2e} <= 1e-10; covariance vs closed form "
          f"{worst_delta:.2e} <= 1e-8 ({elapsed:.1f} s)")


def test_criterion_3_exponential_convergence():
    env = env_instance(1)
    W, psi = n4_random_walk()
    coup = coupling_instance(1, 1.0, psi)
    state = asymptotic_symbol(env, W, coup)
    spr = state.contraction.spectral_radius
    cov = CovarianceState(Window(0, env.max_degree, 1), env, W, coup)
    cov.step(cov.relaxation_horizon(1e-7) - 50)
    errors = []
    for _ in range(50):
        cov.step(1)
        errors.append(np.linalg.norm(cov.sample_block() - state.delta))
    slope = np.polyfit(np.arange(50.0), np.log(errors), 1)[0]
    assert slope <= np.log(spr) + 0.05
    print(f"\n[criterion 3] PASS exponential convergence: fitted slope "
          f"{slope:.4f} <= log(spr) + 0.05 = {np.log(spr) + 0.05:.4f}")


def test_criterion_4_ring_profile_closed_form():
    worst = 0.0
    for thetas in (ROT4, ROT6):
        W, psi = (build_cycle_walk(len(thetas), [rotation_coin(t) for t in thetas]),
                  cycle_star_vector(len(thetas)))
        for alpha in (0.3, np.pi / 4):
            F = SymbolFunction((0.5, 0.07, 0.125))
            env = EnvironmentSpec(np.eye(1), [F])
            state = asymptotic_symbol(env, W, CouplingSpec(alpha, np.array([1.0]), psi))
            profile = node_profile(state)
            closed = ring_profile_closed_form(thetas, alpha, F)
            worst = max(worst, np.abs(profile - closed).max())
        # quadratic coefficient absent: flat profile of two modes at density c0
        F0 = SymbolFunction((0.5, 0.07))
        state0 = asymptotic_symbol(EnvironmentSpec(np.eye(1), [F0]), W,
                                   CouplingSpec(0.3, np.array([1.0]), psi))
        flat = node_profile(state0)
        worst = max(worst, np.abs(flat - 2 * 0.5).max())
    assert worst <= 1e-10
    print(f"\n[criterion 4] PASS ring profile: pipeline vs closed form "
          f"(both boundary cos(alpha) terms) within {worst:.2e} <= 1e-10")


def test_criterion_5_correlation_sign():
    worst = -np.inf
    for n in (2, 4):
        for m in (1, 2):
            env = env_instance(m)
            W, psi = walk_instance(n)
            for alpha in (np.pi / 4, 1.0):
                coup = coupling_instance(m, alpha, psi)
                corr = node_correlations(asymptotic_symbol(env, W, coup))
                worst = max(worst, corr.max())
    assert worst <= 1e-12
    print(f"\n[criterion 5] PASS correlation sign: max off-diagonal covariance "
          f"{worst:.2e} <= 1e-12")


def test_criterion_6_flux_suite():
    # single sector: flux vanishes identically
    env1 = env_instance(1)
    W, psi = n4_random_walk()
    res1 = flux_expectations(env1, W, coupling_instance(1, 0.9, psi))
    assert abs(res1.phi[0]) <= 1e-12

    # two sectors: balance at finite coupling
    env2 = env_instance(2)
    res2 = flux_expectations(env2, W, coupling_instance(2, np.pi / 4, psi))
    assert abs(res2.total) <= 1e-10

    # small-coupling rate (uncorrelated reservoir: boundary-value formula exact)
    env_const = EnvironmentSpec(np.diag([1.0, np.exp(0.7j)]),
                                [SymbolFunction((0.3,)), SymbolFunction((0.5,))])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    weights = np.array([0.5, 0.5])
    rates = small_alpha_flux_rate(env_const, weights)
    alpha = 1e-3
    phi = flux_expectations(env_const, W, CouplingSpec(alpha, v, psi)).phi
    rate_dev = np.abs(phi / alpha ** 2 - rates)
    assert (rate_dev <= 0.01 * np.abs(rates)).all()

    # correlated reservoir: the walk-aware rate is the true limit
    coup_small = CouplingSpec(1e-3, V2, psi)
    rates_walk = small_alpha_flux_rate_walk(env2, W, coup_small)
    phi_small = flux_expectations(env2, W, coup_small).phi
    assert np.abs(phi_small / 1e-6 - rates_walk).max() <= 0.01 * np.abs(rates_walk).max()

    # sign of the flux from the boundary values, for small alpha
    for a in (0.02, 0.05, 0.1):
        phi_a = flux_expectations(env_const, W, CouplingSpec(a, v, psi)).phi
        assert np.sign(phi_a[0]) == np.sign(0.25 - 0.15)
        assert np.sign(phi_a[1]) == -np.sign(0.25 - 0.15)

    # finite-time simulated flux approaches the closed form
    coup = coupling_instance(2, np.pi / 4, psi)
    cov = CovarianceState(Window(0, env2.max_degree, 2), env2, W, coup)
    cov.step(200)
    sim_dev = max(abs(flux_finite_time(cov, i) - res2.phi[i]) for i in range(2))
    assert sim_dev <= 1e-6
    print(f"\n[criterion 6] PASS flux suite: m=1 zero, balance "
          f"{abs(res2.total):.1e} <= 1e-10, rate match within 1%, signs from "
          f"boundary values, simulated flux within {sim_dev:.2e} <= 1e-6")


def test_criterion_7_poisson_binomial():
    # swap walk with full exchange: nilpotent contraction, machine-exact limit
    W = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    env = EnvironmentSpec(np.eye(1), [SymbolFunction((0.5, 0.1 + 0.02j, 0.05))])
    coup = CouplingSpec(np.pi / 2, np.array([1.0]), psi)
    state = asymptotic_symbol(env, W, coup)
    pb = particle_number_distribution(state)
    assert abs(pb.pmf.sum() - 1.0) <= 1e-12
    assert abs(pb.pmf_mean() - np.trace(state.delta).real) <= 1e-12
    lam = state.eigenvalues
    assert abs(pb.pmf_variance() - float((lam * (1 - lam)).sum())) <= 1e-12

    oracle = FockOracle(env, W, coup, Window(-1, 8, 1))   # 12 modes
    oracle.step(6)
    tv = 0.5 * np.abs(oracle.sample_number_distribution() - pb.pmf).sum()
    assert tv <= 1e-6

    # moment identities on a larger random symbol
    rng = np.random.default_rng(21)
    pb8 = particle_number_distribution(
        asymptotic_symbol(env_instance(2), *(lambda w, p: (w, coupling_instance(2, 0.9, p)))(
            *n4_random_walk())))
    assert abs(pb8.pmf.sum() - 1.0) <= 1e-12
    assert abs(pb8.pmf_mean() - pb8.mean()) <= 1e-12
    assert abs(pb8.pmf_variance() - pb8.variance()) <= 1e-12
    print(f"\n[criterion 7] PASS Poisson binomial: normalisation and moments at "
          f"1e-12, oracle number distribution within TV = {tv:.2e} <= 1e-6")


def test_criterion_8_odd_coefficient_independence():
    rng = np.random.default_rng(31)
    worst = 0.0
    for thetas in (ROT4, ROT6):
        n = len(thetas)
        W = build_cycle_walk(n, [rotation_coin(t) for t in thetas])
        psi = cycle_star_vector(n)
        coup = CouplingSpec(0.8, np.array([1.0]), psi)
        base = (0.5, 0.0, 0.1, 0.0)
        p0 = node_profile(asymptotic_symbol(
            EnvironmentSpec(np.eye(1), [SymbolFunction(base)]), W, coup))
        for _ in range(4):
            c1 = 0.04 * (rng.standard_normal() + 1j * rng.standard_normal())
            c3 = 0.04 * (rng.standard_normal() + 1j * rng.standard_normal())
            env = EnvironmentSpec(np.eye(1), [SymbolFunction((0.5, c1, 0.1, c3))])
            p1 = node_profile(asymptotic_symbol(env, W, coup))
            worst = max(worst, np.abs(p1 - p0).max())
    assert worst <= 1e-12
    print(f"\n[criterion 8] PASS odd-coefficient independence: profile moved by "
          f"{worst:.2e} <= 1e-12 under random c(1), c(3)")


def test_criterion_9_moller_identity():
    env = env_instance(2)
    W, psi = n4_random_walk()
    coup = coupling_instance(2, np.pi / 4, psi)
    state = asymptotic_symbol(env, W, coup)
    A, window = moller_sample_block(env, W, coup, tail_tol=1e-13)
    sigma_w = build_truncated_symbol(env, (window.a, window.b))
    omega_col = np.vstack([A, np.zeros((8, 8), dtype=complex)])
    rng = np.random.default_rng(41)
    worst = 0.0
    outputs = []
    for _ in range(2):
        basis = np.linalg.qr(rng.standard_normal((8, 8))
                             + 1j * rng.standard_normal((8, 8)))[0]
        xi = basis @ np.diag(rng.uniform(0, 1, 8)) @ basis.conj().T
        dim = sigma_w.shape[0]
        joint = np.zeros((dim + 8, dim + 8), dtype=complex)
        joint[:dim, :dim] = sigma_w
        joint[dim:, dim:] = xi
        delta = omega_col.conj().T @ joint @ omega_col
        worst = max(worst, np.linalg.norm(delta - state.delta))
        outputs.append(delta)
    assert worst <= 1e-8
    assert np.linalg.norm(outputs[0] - outputs[1]) <= 1e-12
    print(f"\n[criterion 9] PASS Moller identity: scattering block reproduces the "
          f"limit symbol within {worst:.2e} <= 1e-8, independent of the sample symbol")


def ring_phases(W: np.ndarray) -> np.ndarray:
    """Eigenphases in ``[0, 2 pi)`` of a coined ring walk, from a half-size eigensolve.

    ``W`` (two basis states per site, site-major) maps even sites ``P`` to odd
    sites ``Q`` and back, so ``W^2`` is ``XY = W_PQ W_QP`` on ``P`` and the
    eigenvalues of ``W`` are the square roots ``+-e^{i phi / 2}`` of those of ``XY``.
    """
    even = np.arange(W.shape[0]) // 2 % 2 == 0
    XY = W[even][:, ~even] @ W[~even][:, even]
    phi = np.angle(np.linalg.eigvals(XY))
    return np.concatenate([phi / 2, phi / 2 + np.pi]) % (2 * np.pi)


def test_criterion_10_disorder():
    start = time.time()
    # point mass: support equals the rotated bands within one bin
    point = DisorderModel(t=0.8, r=0.6, n=256, distribution="point", theta0=0.9)
    dos = density_of_states(point, samples=8, bins=256, threads=THREADS)
    width = dos.bin_edges[1] - dos.bin_edges[0]
    bands = exact_band_intervals(point)
    nz = dos.mass > 0
    assert phases_in_bands(dos.bin_centers[nz], bands, dilation=width).all()
    # band coverage: sampled extremes reach the exact edges within one bin
    W = sample_disordered_walk(point, 0).matrix
    phases = ring_phases(W)
    # the half-size spectrum is the full one, on this draw
    full = np.angle(np.linalg.eigvals(W)) % (2 * np.pi)
    assert np.abs(np.sort(phases) - np.sort(full)).max() <= 1e-10
    for lo, hi in bands:
        rel = np.sort((phases - lo) % (2 * np.pi))
        sel = rel <= (hi - lo) + 1e-9
        assert rel[sel][0] <= width and (hi - lo) - rel[sel][-1] <= width

    # interval disorder: every sampled eigenvalue inside the enlarged bands
    interval = DisorderModel(t=0.8, r=0.6, n=256, distribution="uniform",
                             theta0=0.7, halfwidth=0.05, seed=1)
    intervals = enlarged_band_intervals(interval)
    for idx in range(50):
        ph = ring_phases(sample_disordered_walk(interval, idx).matrix)
        assert phases_in_bands(ph, intervals, dilation=1e-8).all()

    # averaged density: trace and density-of-states estimators agree at 3 sigma
    # (draws whose contraction is numerically at radius 1 are reported+skipped;
    # at n = 256 the slowest modes sit within round-off of the unit circle)
    F = SymbolFunction((0.5, 0.0, 0.125))
    res = averaged_density(interval, F, alpha=0.3, samples=50, threads=THREADS)
    assert res.discrepancy <= 3.0 * res.combined_stderr
    assert res.samples - len(res.skipped) >= 40
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\n[criterion 10] PASS disorder: DOS support in bands (one bin), "
          f"{50} interval samples inside enlarged bands, estimators agree "
          f"({res.discrepancy:.2e} <= 3 x {res.combined_stderr:.2e}, "
          f"{len(res.skipped)} borderline draws reported) ({elapsed:.1f} s)")


def test_criterion_11_evaluation_paths():
    rng = np.random.default_rng(51)
    F = SymbolFunction((0.5, 0.1 + 0.05j, 0.125, 0.02))
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        B *= rng.uniform(0.3, 0.9) / np.linalg.norm(B, 2)
        dev = np.linalg.norm(eval_contour(F, B, 0.95, 256) - eval_series(F, B))
        worst = max(worst, dev)
    assert worst <= 1e-10
    print(f"\n[criterion 11] PASS evaluation paths: contour vs series within "
          f"{worst:.2e} <= 1e-10 on 50 random contractions")
