"""
Three ways to settle faster
===========================

Random-walk settling from the window center is slow (hundreds of
cycles for a 40-step window) and heavy-tailed.  Three interventions
shorten it: a coarse-first acquisition mode that shrinks the window to
a few large steps, a deliberate UP/DN step mismatch that biases the
walk toward one edge, and a training bit pattern whose ISI statistics
do the same through the data itself.
"""

import numpy as np

from mesosettle import (
    BitSource,
    ChannelModel,
    CoarseFirstSpec,
    TrialConfig,
    WindowSpec,
    coarse_first_confidence,
    compare_mismatch,
    compare_training,
    isi1_trace,
    run_monte_carlo,
)

width = 40

# --- coarse-first acquisition ------------------------------------------
# with 4 tau steps a 20 tau window is five coarse positions wide; the
# analytic walk gives the cycles-to-confidence on the divided clock
est = coarse_first_confidence(WindowSpec(5), confidence=0.99, divided_period_ns=4.0)
print(f"coarse mode: 99% escape within {est.cycles} divided cycles"
      f" = {est.time_ns:.0f} ns")

cfg = TrialConfig(
    channel=ChannelModel.discrete(isi1_trace(20)),
    source=BitSource.bernoulli(0.5),
    window=WindowSpec(20),
    coarse_first=CoarseFirstSpec(coarse_step_steps=4, duration_cycles=40),
)
mc = run_monte_carlo(cfg, 5000, 99)
print(f"  simulated: {100 * mc.escaped_within(40):.2f}% of trials escape"
      " inside a 40-cycle coarse phase")

# --- UP/DN mismatch ----------------------------------------------------
report = compare_mismatch(width, 10)
center = report.at_position(width // 2)
print(f"\n10% step mismatch, width {width}:")
print(f"  center mean {center['baseline_mean']:.0f} -> {center['treated_mean']:.0f}"
      f" cycles ({100 * center['reduction_mean']:.1f}% less)")
print(f"  center std  {center['baseline_std']:.0f} -> {center['treated_std']:.0f}"
      f" ({100 * center['reduction_std']:.1f}% less)")
best = int(report.positions[np.argmax(report.reduction_mean)])
print(f"  best case {100 * report.reduction_mean.max():.1f}% at position {best};"
      " starts hard against the far edge get slower instead")

# --- training sequence -------------------------------------------------
cfg = TrialConfig(
    channel=ChannelModel.discrete(isi1_trace(width)),
    source=BitSource.bernoulli(0.5),
    window=WindowSpec(width),
)
report, baseline, treated = compare_training(cfg, 500, 13)
print(f"\ntraining pattern 00100111, {report.trials} trials per arm:")
print(f"  random data {report.baseline_mean[0]:.0f} cycles,"
      f" training {report.treated_mean[0]:.0f}"
      f" ({100 * report.reduction_mean[0]:.0f}% less, p = {report.p_value:.2g})")
