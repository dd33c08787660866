"""Relaxation of the sample to its closed-form steady symbol.

The coupled dynamics contracts the sample through M = W(1 + (cos a - 1)P);
the closed form Delta = sum_i w_i 2 Re F_i(M*) is reproduced here by
propagating the joint covariance on the reservoir sites 0..L_max, which is
the exact infinite reservoir at every step, and the convergence rate follows
the spectral radius of M.
"""

import numpy as np

from fermiwalk.asymptotics import asymptotic_symbol
from fermiwalk.coupling import CouplingSpec, Window
from fermiwalk.environment import EnvironmentSpec, SymbolFunction
from fermiwalk.simulate import CovarianceState
from fermiwalk.walk import build_cycle_walk, cycle_star_vector, rotation_coin

thetas = [0.3, 0.8, 1.2, 0.5]
W = build_cycle_walk(4, [rotation_coin(t) for t in thetas])
psi = cycle_star_vector(4)
env = EnvironmentSpec(np.eye(1), [SymbolFunction((0.5, 0.0, 0.125))])
coup = CouplingSpec(1.0, np.array([1.0]), psi)

state = asymptotic_symbol(env, W, coup)
print("spr(M) =", state.contraction.spectral_radius)
print("Delta eigenvalues:", np.round(state.eigenvalues, 6))

cov = CovarianceState(Window(0, env.max_degree, env.m), env, W, coup)
steps = cov.relaxation_horizon(1e-8)
print(f"\npropagating the covariance for {steps} steps (certified error <= 1e-8) ...")
checkpoints = sorted(set([1, 5, 20, 60, steps // 2, steps]))
last = 0
for t in checkpoints:
    cov.step(t - last)
    last = t
    err = np.linalg.norm(cov.sample_block() - state.delta)
    print(f"  t = {t:4d}: ||sample block - Delta|| = {err:.3e}")
print("\nper-step decay factor ~ spr(M):",
      np.exp(np.log(np.linalg.norm(cov.sample_block() - state.delta) / 1.0) / steps))
