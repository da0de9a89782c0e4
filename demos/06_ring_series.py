"""A bounded functional whose one-sided parts carry infinite mass.

On a punctured disk the radial state sin(t^beta), t = -ln|x|, touches its
obstacles on alternating rings. Pairing the resulting multiplier with test
functions gives a series: against a bounded profile the one-sided partial
sums converge, against an unbounded (but H^1) profile they grow like
log K, while the two-sided sums always respect the dual-norm bound.
"""

import math

import numpy as np

from biobstacle import (
    RingConfig,
    check_gap_bounds,
    measure_mass_bound,
    pair_with_radial,
    profile_log_power,
    profile_ramp,
    series_study,
    verify_vi_solution_property,
)
from biobstacle.radial_series import growth_constant

config = RingConfig(beta=1.0 / 3.0, omega_exponent=1.0)
print("beta:", config.beta, " boundary at t =", config.t_boundary)
print("first ring pair at t =",
      float((3 * math.pi / 2) ** 3), "and", float((5 * math.pi / 2) ** 3))

# the log-radius gaps between paired rings obey two-sided mean-value bounds
gaps = check_gap_bounds(config, k_max=100_000)
print("\ngap bounds hold for every ring up to 100000:", gaps["ok"])

# the Cauchy tail starts at ring min(TAIL_FROM, K_max) = 10000
study = series_study(config, K_max=50_000)

bounded = study["bounded"]
print("\nbounded profile (ramp): one-sided sums settle")
print("  partial-sum limit estimate:", bounded["limit_estimate"])
print("  rigorous mass bound:       ", bounded["measure_mass_bound"])
print(f"  largest increment past k = {study['tail_from']}:", bounded["max_tail_increment"])

fit = study["unbounded"]
print("\nunbounded profile (t^beta - pi): one-sided sums diverge like log K")
print("  predicted slope:", fit["growth_constant"])
print("  fitted slope:   ", fit["fitted_slope"])
print("  relative error: ", fit["slope_rel_err"])

print("\ndual-norm bound |<xi, w>_K| <= sqrt(2 pi) sqrt(sum omega^2) |w|_H1:")
for name, entry in study["h1_checks"].items():
    print(f"  {name:>10}: max |S_K| = {entry['max_abs_partial_sum']:.6f}"
          f"  <=  {entry['bound']:.6f}  ({'ok' if entry['ok'] else 'VIOLATED'})")

# the two one-sided parts of the ramp pairing grow identically, so their
# difference telescopes to zero at every truncation
sums = pair_with_radial(config, profile_ramp(config), 10_000)
print("\nramp two-sided sums are exactly zero:", bool((sums.total == 0).all()))

# and the defining variational inequality survives sampling feasible z
vi = verify_vi_solution_property(config, K=1_000, samples=50, seed=1)
print("pairing <xi, z - y> >= 0 for sampled feasible z:", vi["ok"])
print("worst sampled pairing value:", vi["worst_pairing"])

# what diverges is each one-sided part against the unbounded profile
t_growth = pair_with_radial(config, profile_log_power(config), 50_000)
c = growth_constant(config)
print("\n   K       S_K (one-sided)   c * ln K")
for K in (50, 500, 5_000, 50_000):
    print(f"{K:6d}   {t_growth.upper_part[K - 1]:14.4f}   {c * math.log(K):10.4f}")
