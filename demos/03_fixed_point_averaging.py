"""Fixed-point averaging of a sample cloud under all three map pairs.

Generates a seeded cloud around a known center, runs the iteration with each
retraction/lifting configuration from the same initial guess, and prints the
per-iteration trace of the discrepancy to the center. Ends with a weighted
run that pulls the mean toward one emphasized sample.
"""
import numpy as np

from stiefelmean import (
    ALL_PAIRS,
    AveragingConfig,
    Dims,
    discrepancy,
    fixed_point_mean,
    generate_center,
    generate_samples,
    perturb_initial_guess,
)

dims = Dims(20, 4)
center = generate_center(dims, seed=11)
cloud = generate_samples(center, sigma=0.2, n_samples=30, seed=12)
initial = perturb_initial_guess(cloud.stack[0], epsilon=0.01, seed=13)
print(f"averaging {len(cloud)} samples on St({dims.p},{dims.n}), "
      f"spread sigma={cloud.sigma}")
print(f"initial guess: delta(X0, C) = {discrepancy(initial, center):.4f}\n")

for pair in ALL_PAIRS:
    report = fixed_point_mean(cloud, AveragingConfig(pair=pair), initial)
    trace = "  ".join(f"{d:.5f}" for d in report.iterates_delta_to_center[:6])
    print(f"[{pair.label:5s}] converged={report.converged} "
          f"iterations={report.iterations_used} "
          f"final delta to center={report.iterates_delta_to_center[-1]:.6f}")
    print(f"        residual field norm={report.residual_field_norm:.2e}")
    print(f"        delta(X_i, C) trace: {trace} ...")
print()

# emphasize sample 0 with a large weight; only the weights' ratios matter
weights = np.ones(len(cloud))
weights[0] = 1e4
config = AveragingConfig(weights=weights)
report = fixed_point_mean(cloud, config, initial)
print(f"weighted run (weight ratio 1e4 on sample 0): "
      f"delta(mean, X_0) = {discrepancy(report.final_point, cloud.samples[0]):.2e}")
print(f"unweighted mean sits at delta(mean, X_0) = "
      f"{discrepancy(fixed_point_mean(cloud, AveragingConfig(), initial).final_point, cloud.samples[0]):.2e}")
