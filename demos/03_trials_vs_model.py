"""
Behavioral trials against the chain prediction
==============================================

run_trial walks an actual bit stream through the phase-detector rule,
one cycle at a time.  Here the Monte Carlo escape profile is laid over
the analytic absorption means, first on a lookup-table channel and then
on a physical RC line whose window is measured rather than configured.
"""

import numpy as np

from mesosettle import (
    BitSource,
    ChannelModel,
    TrialConfig,
    WindowSpec,
    absorption_stats,
    build_isi1_chain,
    isi1_trace,
    run_monte_carlo,
    run_trial,
)

width = 40
window = WindowSpec(width)
stats = absorption_stats(build_isi1_chain(window))

print("position   chain mean   100-trial mean   z")
for k in range(4, width, 4):
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(width)),
        source=BitSource.bernoulli(0.5),
        window=window,
        initial_position=k,
    )
    res = run_monte_carlo(cfg, 100, (23, k))
    se = stats.std_at(k) / 10
    z = (res.mean_cycles - stats.mean_at(k)) / se
    print(f"  {k:4d}     {stats.mean_at(k):8.1f}     {res.mean_cycles:10.1f}   {z:+5.2f}")

# near the edges the trials drift a little from the chain: the bit
# stream remembers one cycle of history (an early crossing can only
# follow an alternating pair), which the memoryless chain ignores.
# At the center the two agree exactly; that is where settling is slow.

# one recorded trajectory
cfg = TrialConfig(
    channel=ChannelModel.discrete(isi1_trace(width)),
    source=BitSource.bernoulli(0.5),
    window=window,
)
tr = run_trial(cfg, 7, record=True)
path = tr.trajectory
marks = np.linspace(0, path.size - 1, min(path.size, 12)).astype(int)
print(f"\none trial: escaped {tr.exit_side} after {tr.escape_cycle} cycles")
print("  cycle:", " ".join(f"{m:5d}" for m in marks))
print("  pos  :", " ".join(f"{path[m]:5.0f}" for m in marks))

# Gaussian crossing jitter widens the effective band
cfg = TrialConfig(
    channel=ChannelModel.discrete(isi1_trace(width), sigma_steps=1.5),
    source=BitSource.bernoulli(0.5),
    window=window,
)
res = run_monte_carlo(cfg, 400, 12)
print(f"\nwith 1.5-step crossing jitter: center mean {res.mean_cycles:.0f}"
      f" vs {stats.mean_at(width // 2):.0f} clean")

# an RC line: no table, no configured window; a calibration burst
# measures the band and the payload walks out of it
channel = ChannelModel.rc(r=1.0, c=0.02, samples_per_ui=256, sections=8)
cfg = TrialConfig(channel=channel, source=BitSource.bernoulli(0.5), step_tau=0.004)
res = run_monte_carlo(cfg, 60, 11)
print(f"\nrc line: mean escape {res.mean_cycles:.0f} cycles,"
      f" {100 * res.exit_right_fraction:.0f}% to the right edge")
