"""Large disordered rings: spectra, density of states, averaged density.

Random per-vertex phases keep the walk's spectrum inside two arcs of the unit
circle (the homogeneous bands, swept over the phase support).  The
time-asymptotic vertex-averaged particle density is a spectral average of the
reservoir density 2 Re F over those arcs, estimated two independent ways.
"""

import numpy as np

from fermiwalk.disorder import (DisorderModel, averaged_density,
                                density_of_states, enlarged_band_intervals,
                                exact_band_intervals, phases_in_bands,
                                sample_disordered_walk)
from fermiwalk.environment import SymbolFunction
from fermiwalk.walk import unitary_spectrum

print("=== point-mass disorder: exact rotated bands ===")
point = DisorderModel(t=0.8, r=0.6, n=128, distribution="point", theta0=0.9)
bands = exact_band_intervals(point)
print("band phase intervals:", [(round(a, 4), round(b, 4)) for a, b in bands])
# a draw keeps its coin layers; its spectrum comes from the half-size chiral square
phases, _ = unitary_spectrum(sample_disordered_walk(point, 0))
print("all eigenphases inside:", phases_in_bands(phases, bands, dilation=1e-10).all())

print("\n=== interval disorder: enlarged bands ===")
model = DisorderModel(t=0.8, r=0.6, n=128, distribution="uniform",
                      theta0=0.7, halfwidth=0.05, seed=1)
intervals = enlarged_band_intervals(model)
print("enlarged intervals:", [(round(a, 4), round(b, 4)) for a, b in intervals])
ok = True
for idx in range(10):
    ph, _ = unitary_spectrum(sample_disordered_walk(model, idx))
    ok &= bool(phases_in_bands(ph, intervals, dilation=1e-8).all())
print("10 samples inside enlarged bands:", ok)

print("\n=== density of states ===")
dos = density_of_states(model, samples=20, bins=128)
print("total mass:", dos.mass.sum())
occupied = dos.mass > 0
print("fraction of circle occupied:", occupied.mean())

print("\n=== averaged density, two estimators ===")
F = SymbolFunction((0.5, 0.0, 0.125))
res = averaged_density(model, F, alpha=0.3, samples=30)
print(f"trace estimator: {res.trace_mean:.6f} +- {res.trace_stderr:.1e}")
print(f"DOS estimator:   {res.dos_mean:.6f} +- {res.dos_stderr:.1e}")
print(f"discrepancy {res.discrepancy:.2e} vs 3 sigma {3 * res.combined_stderr:.2e}")
