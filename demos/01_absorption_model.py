"""
Absorption statistics of the retiming random walk
==================================================

A sampling clock that starts inside the crossing window of the data eye
performs a random walk: each data transition kicks it one phase step
toward or away from the window edges, where normal deterministic
settling resumes.  The walk is an absorbing Markov chain, so expected
settling times come from one sparse LU factorisation instead of simulation.
"""

import numpy as np

from mesosettle import (
    LoopParams,
    WindowSpec,
    absorption_series,
    absorption_stats,
    build_isi1_chain,
    deterministic_settling_time,
    point_mass,
    steps_to_lock,
    transitions_for_confidence,
)

# a 40-step window: one step per tau of phase correction
window = WindowSpec(width_steps=40)
chain = build_isi1_chain(window)
stats = absorption_stats(chain)

print("start position ->  mean +- std cycles to escape")
for k in (2, 10, 20, 30, 38):
    print(f"  {k:3d}           -> {stats.mean_at(k):7.1f} +- {stats.std_at(k):6.1f}")

# the worst case is the center; the closed form there is 2 k (N - k)
center = window.initial
print(f"\ncenter mean {stats.mean_at(center):.1f}"
      f" (closed form {2 * center * (40 - center)})")

# how many transitions until escape is 99% certain?
p0 = point_mass(chain, center)
n99 = transitions_for_confidence(chain, p0, 0.99)
series = absorption_series(chain, p0, target_confidence=0.99)
print(f"99% confidence after {n99} transitions (cdf {series.cdf[n99]:.5f})")

# a histogram of the absorption pmf, coarsely binned
pmf = series.pmf
edges = np.linspace(0, pmf.size, 16, dtype=int)
mass = np.add.reduceat(pmf, edges[:-1])
print("\nescape-time mass per bin of", edges[1], "cycles")
for lo, m in zip(edges[:-1], mass):
    print(f"  {lo:5d}+ {'#' * int(round(60 * m / mass.max()))}")

# once outside the window the loop slews deterministically; with the
# loop gain expressed as a phase step per update the residual offset
# closes in a known number of corrections
params = LoopParams(k_cp=1.0, k_vc=np.pi / 100, cap=1.0, period_s=1e-9, activity=0.5)
offset = 1.5 * np.pi
m = steps_to_lock(offset, params)
print(f"\ndeterministic tail: {m} corrections,"
      f" {deterministic_settling_time(offset, params) * 1e9:.0f} ns at 50% activity")
