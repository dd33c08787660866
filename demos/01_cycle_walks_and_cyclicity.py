"""Coined walks on cycles, and when the coupling vector is cyclic.

Builds one-step walk unitaries, then explores the cyclicity of the
distinguished vector delta_0 (x) e_{-1}: cyclicity is what lets the
reservoir coupling reach every sample mode, and it fails for perfectly
translation-invariant coin assignments on cycles longer than two sites
(momentum sectors k and -k share eigenvalues, so the spectrum degenerates).

Cyclicity is tested the way the asymptotic formulas need it: the
full-exchange contraction W (1 - P) must have spectral radius below
1 - 1e-12.  Its gap 1 - spr is of the order of the smallest weight
|<x_k, psi*>|^2 of psi* on the eigenvectors of W.
"""

import numpy as np

from fermiwalk.coupling import is_cyclic
from fermiwalk.walk import (build_cycle_walk, cycle_star_vector, hadamard_coin,
                            random_coin, rotation_coin, unitary_spectrum)

n = 4
psi = cycle_star_vector(n)

print("=== homogeneous Hadamard coins on a 4-cycle ===")
W = build_cycle_walk(n, [hadamard_coin()] * n)
print("unitarity defect:", np.linalg.norm(W.conj().T @ W - np.eye(2 * n)))
evals = np.linalg.eigvals(W)
print("eigenvalues:", np.round(np.sort_complex(evals), 6))
cyclic, gap = is_cyclic(W, psi)
print(f"cyclic: {cyclic} (1 - spr = {gap:.3g})")
print("-> equal coins leave +-k momentum pairs degenerate; the orbit of the")
print("   coupling vector misses two directions.\n")

print("=== distinct rotation coins break the symmetry ===")
thetas = [0.3, 0.8, 1.2, 0.5]
W = build_cycle_walk(n, [rotation_coin(t) for t in thetas])
cyclic, gap = is_cyclic(W, psi)
weights = unitary_spectrum(W, psi)[1]
print(f"angles {thetas}: cyclic = {cyclic} (1 - spr = {gap:.3g},"
      f" smallest weight {weights.min():.3g})\n")

print("=== random coins are generically fine ===")
rng = np.random.default_rng(7)
for trial in range(3):
    W = build_cycle_walk(n, [random_coin(2, rng) for _ in range(n)])
    cyclic, gap = is_cyclic(W, psi)
    print(f"draw {trial}: cyclic = {cyclic} (1 - spr = {gap:.3g})")

print("\n=== the 2-cycle tolerates equal coins ===")
W2 = build_cycle_walk(2, [hadamard_coin()] * 2)
cyclic, gap = is_cyclic(W2, cycle_star_vector(2))
print(f"n = 2, Hadamard coins: cyclic = {cyclic} (1 - spr = {gap:.3g})")
