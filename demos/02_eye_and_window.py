"""
Eye diagrams and the window of susceptibility
=============================================

The crossing window is a physical property of the channel: intersymbol
interference spreads the threshold crossings of the received waveform
over a band of the unit interval.  Driving an RC ladder with random
bits and folding the crossings modulo one UI measures that band
directly, peak structure included.
"""

import numpy as np

from mesosettle import (
    REFERENCE_CHANNELS,
    BitSource,
    crossing_histogram,
    eye_traces,
    generate_bits,
    propagate_rc,
)

for k, (name, channel) in enumerate(REFERENCE_CHANNELS.items()):
    rng = np.random.default_rng([7, k])
    bits = generate_bits(BitSource.bernoulli(0.5), 400, rng)
    wave = propagate_rc(channel, bits)
    hist = crossing_histogram(wave, channel.samples_per_ui, bits=bits)

    print(f"{name}: {channel.sections} sections,"
          f" RC {channel.section_tau_ui:.4f} UI per section")
    print(f"  {hist.n_clusters} crossing peak(s), window"
          f" {100 * hist.window_ui:.1f}% of UI, eye opening"
          f" {100 * hist.eye_opening_ui:.1f}%")
    if hist.sub_gaps_ui.size:
        gaps = ", ".join(f"{100 * g:.1f}%" for g in hist.sub_gaps_ui)
        print(f"  peak spacings: {gaps}")

    # a coarse ASCII eye: occupancy of overlaid trace samples
    overlay = eye_traces(wave, channel.samples_per_ui, n_segments=120)
    cols, rows = 64, 13
    idx = np.linspace(0, overlay.shape[1] - 1, cols).astype(int)
    samples = np.clip(overlay[:, idx], -0.05, 1.05)
    level = np.round((1.05 - samples) / 1.1 * (rows - 1)).astype(int)
    grid = np.zeros((rows, cols), dtype=int)
    for seg in level:
        grid[seg, np.arange(cols)] += 1
    for r in range(rows):
        line = "".join("#" if grid[r, j] > 2 else "." if grid[r, j] else " "
                       for j in range(cols))
        print("  |" + line + "|")
    print()
