"""How far is the mixed composition from the identity map?

Composing the polar retraction with the orthographic lifting is not an exact
identity on St(p, n). This script evaluates the mismatch two ways (by actual
composition and from the closed form in M = Q^T X) and shows how it scales
with the distance between the arguments.
"""
import numpy as np

from stiefelmean import (
    Dims,
    composition_discrepancy_closed_form,
    composition_discrepancy_direct,
    discrepancy,
    generate_center,
    generate_samples,
)

center = generate_center(Dims(20, 4), seed=7)

print("spread   median delta(C,X_k)   median Delta_C(X_k)   max |direct-closed|")
for sigma in (0.05, 0.02, 0.01, 0.005):
    cloud = generate_samples(center, sigma, n_samples=200, seed=8)
    deltas, comps, gaps = [], [], []
    for sample in cloud.samples:
        direct = composition_discrepancy_direct(center, sample)
        closed = composition_discrepancy_closed_form(center, sample)
        deltas.append(discrepancy(center, sample))
        comps.append(direct)
        gaps.append(abs(direct - closed))
    print(f"{sigma:6.3f}   {np.median(deltas):18.6f}   {np.median(comps):19.3e}"
          f"   {max(gaps):19.2e}")

print()
print("the mismatch shrinks roughly like the cube of the distance, so the")
print("mixed pair behaves like an identity map on tight sample clouds")
