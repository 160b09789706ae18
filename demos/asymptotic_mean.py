"""Monte Carlo check of the closed-form limit mean sqrt((S-1)/(2 pi)).

Samples the asymptotic deviation variable from centred standard normals,
D/sqrt(S) · sum_i (G_i - mean(G))^+, and compares the sample mean against
the closed form for a sweep of dimensions.  Writes gnuplot-ready columns to asymptotic_mean.dat.

Run:  python3 demos/asymptotic_mean.py
"""

import numpy as np

from l1conc.asymptotic import expected_Z
from l1conc.montecarlo import DeviationSource, draw_samples

SEED = 7
TRIALS = 200_000

rows = []
print(f"{'S':>6} {'MC mean':>10} {'closed form':>12} {'|diff|/3se':>11}")
for S in (2, 3, 5, 10, 20, 50, 100, 200, 500):
    z = draw_samples(DeviationSource("limit", S), TRIALS, SEED, stream=S)
    mean, want = z.mean(), expected_Z(S)
    se = z.std(ddof=1) / np.sqrt(TRIALS)
    print(f"{S:>6} {mean:>10.5f} {want:>12.5f} {abs(mean - want) / (3 * se):>11.2f}")
    rows.append((S, mean, want))

np.savetxt("asymptotic_mean.dat", rows, header="S mean expected", comments="# ")
print("\nwrote asymptotic_mean.dat (columns: S, MC mean, sqrt((S-1)/(2 pi)))")
