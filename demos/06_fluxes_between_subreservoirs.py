"""Particle fluxes between reservoir sectors.

With two internal reservoir sectors at different densities, particles flow
through the sample from the denser sector to the thinner one.  The limiting
flux has a finite closed form; a covariance run confirms it dynamically, and
at small coupling the flux scales like alpha^2 with a rate that is sensitive
to reservoir correlations through the walk's return amplitudes.
"""

import numpy as np

from fermiwalk.asymptotics import (flux_expectations, small_alpha_flux_rate,
                                   small_alpha_flux_rate_walk)
from fermiwalk.coupling import CouplingSpec, Window
from fermiwalk.environment import EnvironmentSpec, SymbolFunction
from fermiwalk.simulate import CovarianceState, flux_finite_time
from fermiwalk.walk import build_cycle_walk, cycle_star_vector, random_coin

rng = np.random.default_rng(3312)
W = build_cycle_walk(4, [random_coin(2, rng) for _ in range(4)])
psi = cycle_star_vector(4)
v = np.array([1.0, 1.0]) / np.sqrt(2)

print("=== uncorrelated sectors at densities 0.3 and 0.5 ===")
env = EnvironmentSpec(np.diag([1.0, np.exp(0.7j)]),
                      [SymbolFunction((0.3,)), SymbolFunction((0.5,))])
for alpha in (0.1, 0.5, 1.0):
    res = flux_expectations(env, W, CouplingSpec(alpha, v, psi))
    print(f"alpha = {alpha:.2f}: phi = {np.round(res.phi, 8)}  (sum {res.total:.1e})")
rates = small_alpha_flux_rate(env, np.array([0.5, 0.5]))
print("small-coupling rates (boundary values):", rates)
alpha = 1e-3
phi = flux_expectations(env, W, CouplingSpec(alpha, v, psi)).phi
print("phi/alpha^2 at alpha = 1e-3:          ", phi / alpha ** 2)

print("\n=== correlated sector: the rate feels the walk ===")
env2 = EnvironmentSpec(np.diag([1.0, np.exp(0.7j)]),
                       [SymbolFunction((0.5, 0.1, 0.05)), SymbolFunction((0.3,))])
v2 = np.array([np.sqrt(0.4), np.sqrt(0.6)], dtype=complex)
coup = CouplingSpec(1e-3, v2, psi)
print("boundary-value rate: ", small_alpha_flux_rate(env2, coup.weights(env2)))
print("walk-aware rate:     ", small_alpha_flux_rate_walk(env2, W, coup))
print("phi/alpha^2 measured:", flux_expectations(env2, W, coup).phi / 1e-6)

print("\n=== dynamical confirmation at alpha = pi/4 ===")
coup = CouplingSpec(np.pi / 4, v2, psi)
res = flux_expectations(env2, W, coup)
cov = CovarianceState(Window(0, env2.max_degree, 2), env2, W, coup)
cov.step(200)
for i in range(2):
    sim = flux_finite_time(cov, i)
    print(f"sector {i}: closed form {res.phi[i]:+.8f}, simulated t=200 {sim:+.8f}")
