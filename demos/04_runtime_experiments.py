"""Runtime comparison of the three map pairs, desk scale.

Times the full averaging call per pair while sweeping the column dimension n
(rows fixed) and then the row dimension p (columns fixed), and writes the
plot-ready CSVs. Reduced trial counts keep this demo to a few seconds; the
package defaults (and the --paper-scale flag of the CLI) run the full
protocol.
"""
import numpy as np

from stiefelmean import csv_filename, default_spec, run_experiment

for kind, sweep in (("runtime_vs_n", (5, 10, 20)), ("runtime_vs_p", (20, 50, 100))):
    spec = default_spec(kind, seed=99, sweep=sweep, trials=5)
    result = run_experiment(spec)
    path = csv_filename(spec)
    result.write_csv(path)
    print(f"{kind}: medians over {spec.trials} trials "
          f"(N={spec.n_samples}, sigma={spec.sigma}) -> {path}")
    for dim in spec.sweep:
        row = {lab: result.medians[(lab, dim)] for lab in ("polar", "ortho", "mixed")}
        print(f"  dim={dim:3d}  polar={row['polar']*1e3:9.2f} ms  "
              f"ortho={row['ortho']*1e3:7.2f} ms  mixed={row['mixed']*1e3:7.2f} ms")
    print()

print("the polar lifting solves an n x n matrix equation per sample (O(n^3)")
print("each, all samples in one batched call), so the polar/polar pair stays")
print("the slowest and grows fastest with n; the mixed pair keeps the")
print("closed-form maps on both sides and stays nearly flat in p")
