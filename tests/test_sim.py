from __future__ import annotations

import hashlib
import json
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from mesosettle import sim

from mesosettle.jitter import (
    ISI1_TABLE,
    ISI2_EMISSION,
    ISI2_TAGS,
    CombinedJitterSpec,
    IsiTraceModel,
    WindowSpec,
    build_combined_chain,
    build_isi1_chain,
    build_isi2_chain,
    isi1_trace,
    isi2_trace,
)
from mesosettle.markov import absorption_stats
from mesosettle.sim import (
    REFERENCE_CHANNELS,
    TRAINING_PATTERN,
    BitSource,
    ChannelModel,
    CoarseFirstSpec,
    TrialConfig,
    crossing_histogram,
    eye_traces,
    generate_bits,
    propagate_rc,
    run_monte_carlo,
    run_trial,
)


def isi1_config(width, **kw):
    return TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(width)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(width),
        **kw,
    )


# ---------------------------------------------------------------- sources


def test_training_pattern_bits():
    rng = np.random.default_rng(0)
    bits = generate_bits(BitSource.training_biased(), 8, rng)
    assert bits.tolist() == list(TRAINING_PATTERN)
    bits16 = generate_bits(BitSource.training_biased(), 16, rng)
    assert bits16.tolist() == list(TRAINING_PATTERN) * 2


def test_alternating_and_explicit_bits():
    rng = np.random.default_rng(0)
    assert generate_bits(BitSource.alternating(), 5, rng).tolist() == [0, 1, 0, 1, 0]
    src = BitSource.explicit([1, 1, 0])
    assert generate_bits(src, 7, rng).tolist() == [1, 1, 0, 1, 1, 0, 1]


def test_bernoulli_bits():
    rng = np.random.default_rng(1)
    bits = generate_bits(BitSource.bernoulli(0.25), 40000, rng)
    assert set(np.unique(bits)) <= {0, 1}
    assert bits.mean() == pytest.approx(0.25, abs=0.01)
    assert generate_bits(BitSource.bernoulli(0.5), 0, rng).size == 0


def test_source_validation():
    with pytest.raises(ValueError):
        BitSource.bernoulli(1.5)
    with pytest.raises(ValueError):
        BitSource.explicit([])
    with pytest.raises(ValueError):
        BitSource.explicit([0, 2])
    # entries are never rounded or truncated to a bit
    for bad in ([0.5, 1.7, 0.9], [1, 0.5], ["1", "0"]):
        with pytest.raises(ValueError, match="0/1 pattern"):
            BitSource.explicit(bad)
    with pytest.raises(ValueError):
        BitSource("mystery")


# ---------------------------------------------------------------- rc line


def test_rc_zero_input_stays_zero():
    chan = REFERENCE_CHANNELS["moderate"]
    wave = propagate_rc(chan, np.zeros(50, dtype=int))
    assert np.allclose(wave, 0.0)


def test_rc_step_settles():
    # step response reaches the rail within 7 ladder time constants
    for chan in REFERENCE_CHANNELS.values():
        total_rc_ui = chan.sections**2 * chan.section_tau_ui
        n_ui = int(np.ceil(7 * total_rc_ui)) + 1
        wave = propagate_rc(chan, np.ones(n_ui, dtype=int))
        assert abs(wave[-1] - 1.0) < 1e-3


def test_rc_superposition():
    chan = REFERENCE_CHANNELS["heavy"]
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, 60)
    b = rng.integers(0, 2, 60)
    lhs = propagate_rc(chan, a + b)
    rhs = propagate_rc(chan, a) + propagate_rc(chan, b)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_rc_rejects_coarse_time_step():
    chan = ChannelModel.rc(r=1.0, c=0.005, samples_per_ui=16)
    with pytest.raises(ValueError, match="RC/4"):
        propagate_rc(chan, np.ones(10, dtype=int))
    with pytest.raises(ValueError):
        ChannelModel.rc(r=1.0, c=0.005, samples_per_ui=8)
    with pytest.raises(ValueError):
        propagate_rc(ChannelModel.discrete(isi1_trace(4)), np.ones(4))
    for r, c in ((np.nan, 0.005), (1.0, np.nan), (np.inf, 0.005), (1.0, np.inf), (0.0, 0.005)):
        with pytest.raises(ValueError, match="R and C must be positive and finite"):
            ChannelModel.rc(r=r, c=c, samples_per_ui=64)


def test_rc_rejects_pole_that_rounds_to_one():
    # dt * lambda vanishes next to 1, so 1 - mu would divide by zero
    chan = ChannelModel.rc(r=1.0, c=2.0**70, samples_per_ui=16)
    with pytest.raises(ValueError, match="c_per_section_ui or r_per_section"):
        propagate_rc(chan, np.ones(10, dtype=int))


def per_sample_wave(chan, bits):
    """The ladder's per-sample backward-Euler filter bank: the reference the
    UI-rate closed form is checked against."""
    gain, mu, wout = sim._rc_system(chan)
    u = np.repeat(np.asarray(bits, dtype=float), chan.samples_per_ui)
    return sum(w * lfilter([g], [1.0, -m], u) for g, m, w in zip(gain, mu, wout))


def threshold_crossings(wave, spu):
    s = wave - 0.5
    f = np.flatnonzero(np.signbit(s[:-1]) != np.signbit(s[1:]))
    return (f + s[f] / (s[f] - s[f + 1])) / spu


ORACLE_CHANNELS = {
    **REFERENCE_CHANNELS,
    "ladder8": ChannelModel.rc(r=1.0, c=0.02, samples_per_ui=256, sections=8),
}


@pytest.mark.parametrize("name", list(ORACLE_CHANNELS))
def test_rc_line_matches_per_sample_filter(name):
    chan = ORACLE_CHANNELS[name]
    a, b = np.random.default_rng(21).integers(0, 2, (2, 400))
    inputs = {
        "bernoulli": a,
        "superposed": a + b,  # levels 0, 1 and 2
        "runs": np.r_[np.ones(60, int), np.zeros(40, int), a[:100], np.ones(20, int)],
    }
    for label, bits in inputs.items():
        ref = per_sample_wave(chan, bits)
        assert np.abs(propagate_rc(chan, bits) - ref).max() < 1e-12, label
        # the crossings-only path screens out UIs; it must miss none
        expected = threshold_crossings(ref, chan.samples_per_ui)
        got = sim._RcLine(chan).crossings(bits)
        assert got.size == expected.size, label
        assert np.array_equal(np.floor(got), np.floor(expected)), label
        assert np.abs(got - expected).max() < 1e-12, label


SCAN_POLES = {
    "grid": np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999]),
    **{name: sim._RcLine(chan).pole for name, chan in REFERENCE_CHANNELS.items()},
    # slowest pole 0.987
    "ladder60": sim._RcLine(ChannelModel.rc(r=1.0, c=0.05, samples_per_ui=80, sections=60)).pole,
}
SCAN_LENGTHS = [0, 1, 2, *(2**k + e for k in (2, 5, 10) for e in (-1, 0, 1)), 65537]


@pytest.mark.parametrize("name", list(SCAN_POLES))
def test_lfilter_scan_matches_scipy(name):
    rng = np.random.default_rng(5)
    for n in SCAN_LENGTHS:
        x = rng.integers(0, 3, n).astype(float)
        for p in SCAN_POLES[name]:
            for zi in (0.0, 0.75 * p):
                b, a = [1.0 - p], [1.0, -p]
                got, zf = sim.lfilter(b, a, x, [zi])
                ref, ref_zf = lfilter(b, a, x, zi=[zi])
                assert got.shape == (n,)
                if not n:
                    # an empty input leaves the state as it was
                    assert zf.tolist() == [zi]
                    continue
                scale = max(np.abs(ref).max(), abs(zi))
                assert np.abs(got - ref).max() <= 1e-12 * scale, (n, p, zi)
                assert abs(zf[0] - ref_zf[0]) <= 1e-12 * scale, (n, p, zi)


class FixedFeed:
    """Fixed bits in place of a one-trial sim._BitStreams: take(n) gives a (1, n) block."""

    def __init__(self, bits):
        self.bits, self.at = bits, 0

    def take(self, n):
        self.at += n
        return self.bits[None, self.at - n : self.at]


def first_crossing_stream(chan, bits, chunk):
    """(cycle, position) of each cycle's first crossing, fed chunk UIs at a time."""
    events = sim._rc_events(sim._RcLine(chan), FixedFeed(bits), 0.0, 0.5, 1.0)
    cycles, positions = [], []
    for base in range(0, bits.size, chunk):
        t, c = events(min(chunk, bits.size - base))
        cycles.append(base + t)
        positions.append(c)
    return np.concatenate(cycles), np.concatenate(positions)


def test_rc_first_crossings_do_not_depend_on_chunking():
    # this ladder's crossing band spans the UI seam, so some crossings fall
    # between a UI's last sample and the next UI's first (a lookback
    # crossing at a chunk start) after an earlier crossing in the same cycle
    chan = ChannelModel.rc(r=1.0, c=0.1, samples_per_ui=64, sections=8)
    bits = np.random.default_rng(0).integers(0, 2, 2048)
    t = sim._RcLine(chan).crossings(bits)
    ui = np.floor(t)
    second = np.flatnonzero(ui[1:] == ui[:-1]) + 1
    assert (t[second] % 1.0 > 1.0 - 1.0 / chan.samples_per_ui).any()
    ref_cycles, ref_positions = first_crossing_stream(chan, bits, 1024)
    assert np.array_equal(ref_cycles, np.unique(ui))
    for chunk in (1, 7):
        cycles, positions = first_crossing_stream(chan, bits, chunk)
        assert np.array_equal(cycles, ref_cycles), chunk
        assert np.allclose(positions, ref_positions, rtol=0.0, atol=1e-9), chunk


# ------------------------------------------------------------ crossings


def test_alternating_pattern_gives_single_cluster():
    chan = REFERENCE_CHANNELS["moderate"]
    rng = np.random.default_rng(0)
    bits = generate_bits(BitSource.alternating(), 120, rng)
    wave = propagate_rc(chan, bits)
    hist = crossing_histogram(wave, chan.samples_per_ui)
    assert hist.n_clusters == 1
    assert hist.window_ui < 0.005


def test_constant_input_has_no_crossings():
    chan = REFERENCE_CHANNELS["benign"]
    wave = propagate_rc(chan, np.ones(60, dtype=int))
    with pytest.raises(ValueError, match="no threshold crossings"):
        crossing_histogram(wave, chan.samples_per_ui)


def test_reference_channel_morphology():
    expected = {"benign": 1, "moderate": 2, "heavy": 4}
    for k, (name, chan) in enumerate(REFERENCE_CHANNELS.items()):
        rng = np.random.default_rng([7, k])
        bits = generate_bits(BitSource.bernoulli(0.5), 400, rng)
        hist = crossing_histogram(propagate_rc(chan, bits), chan.samples_per_ui)
        assert hist.n_clusters == expected[name], name
        assert hist.counts.sum() == hist.crossings_ui.size


def eye_bench_bits(seed, pass_index):
    """The 400 bits of a benchmark pass's eye-heavy job (job index 2), whose
    seed SeedSequence([seed, pass, job]) draws as the benchmark draws it."""
    state = np.random.SeedSequence([seed, pass_index, 2]).generate_state(1, np.uint64)
    return generate_bits(BitSource.bernoulli(0.5), 400, np.random.default_rng(int(state[0])))


@pytest.mark.parametrize("seed,pass_index", [(4, 7), (201, 26), (1234, 65)])
def test_heavy_eye_classes_merge_a_split_band(seed, pass_index):
    # on these inputs one class's band has a gap just over cluster_gap_ui
    chan = REFERENCE_CHANNELS["heavy"]
    bits = eye_bench_bits(seed, pass_index)
    wave = propagate_rc(chan, bits)
    assert crossing_histogram(wave, chan.samples_per_ui).n_clusters == 5
    hist = crossing_histogram(wave, chan.samples_per_ui, bits=bits)
    assert hist.n_clusters == 4
    assert 0.25 <= hist.window_ui <= 0.35


def assert_same_histogram(a, b):
    for name in ("crossings_ui", "bin_centers", "counts", "cluster_centers",
                 "cluster_weights", "sub_gaps_ui"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.window_ui, a.band_start_ui) == (b.window_ui, b.band_start_ui)


@pytest.mark.parametrize("name", list(REFERENCE_CHANNELS))
def test_eye_classes_keep_unsplit_results(name):
    """Labels only ever merge clusters, so where the plain rule already gives
    the preset's count the labelled result is the same to the bit; the plain
    rule splits none of these inputs."""
    chan = REFERENCE_CHANNELS[name]
    expected = {"benign": 1, "moderate": 2, "heavy": 4}[name]
    for k in range(200):
        bits = generate_bits(BitSource.bernoulli(0.5), 400, np.random.default_rng([31, k]))
        wave = propagate_rc(chan, bits)
        labelled = crossing_histogram(wave, chan.samples_per_ui, bits=bits)
        assert labelled.n_clusters == expected, k
        assert_same_histogram(labelled, crossing_histogram(wave, chan.samples_per_ui))


def test_isi2_classes_follow_the_emission_table():
    bits = np.random.default_rng(3).integers(0, 2, 300).astype(np.int8)
    moves = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    want = np.full(moves.size, -1)
    for i, m in enumerate(moves):
        if m >= 3:
            history = 4 * bits[m - 3] + 2 * bits[m - 2] + bits[m - 1]
            want[i] = "ABCD".index(ISI2_EMISSION[(history, bits[m])])
    order = np.random.default_rng(4).permutation(moves.size)
    for lag in (0, 2):
        assert np.array_equal(sim._isi2_classes(moves[order] + lag, bits), want[order])
    # a crossing in a slot with no transition at any lag, or two crossings
    # sent to one transition, leave every crossing unlabelled
    for slots in (np.r_[moves, bits.size + 5], np.r_[moves, moves[-1]]):
        assert (sim._isi2_classes(slots, bits) == -1).all()


def test_eye_labels_on_test_ladders():
    # the 4-section ladder labels every crossing and keeps its clusters; on
    # the slow 8-section ladder the band fills the UI, two crossings can
    # share a slot and no lag fits, so the plain rule holds
    for chan, labelled in (
        (ChannelModel.rc(r=1.0, c=0.02, samples_per_ui=256, sections=4), True),
        (ChannelModel.rc(r=1.0, c=0.1, samples_per_ui=64, sections=8), False),
    ):
        bits = np.random.default_rng(0).integers(0, 2, 400)
        t = sim._RcLine(chan).crossings(bits)
        hist = sim._fold_crossings(t)
        rotated = hist.band_start_ui + (t[t >= 30] - hist.band_start_ui) % 1.0
        slots = np.rint(t[t >= 30] - rotated).astype(int)
        assert ((sim._isi2_classes(slots, bits) >= 0).all()) == labelled
        wave = propagate_rc(chan, bits)
        assert_same_histogram(
            crossing_histogram(wave, chan.samples_per_ui, bits=bits),
            crossing_histogram(wave, chan.samples_per_ui),
        )


def test_eye_bits_must_match_the_waveform():
    chan = REFERENCE_CHANNELS["benign"]
    bits = np.random.default_rng(1).integers(0, 2, 60)
    with pytest.raises(ValueError, match="do not drive"):
        crossing_histogram(propagate_rc(chan, bits), chan.samples_per_ui, bits=bits[:-1])


def test_eye_traces_shape():
    chan = REFERENCE_CHANNELS["heavy"]
    wave = propagate_rc(chan, np.random.default_rng(5).integers(0, 2, 80))
    seg = eye_traces(wave, chan.samples_per_ui, skip_ui=30, n_segments=20)
    assert seg.shape == (20, chan.samples_per_ui)
    with pytest.raises(ValueError):
        eye_traces(wave, chan.samples_per_ui, skip_ui=100)


# --------------------------------------------------------------- trials


def test_trial_reproducibility():
    cfg = isi1_config(20)
    a = run_trial(cfg, (9, 0), record=True)
    b = run_trial(cfg, (9, 0), record=True)
    c = run_trial(cfg, (9, 1), record=True)
    assert a.escape_cycle == b.escape_cycle
    assert np.array_equal(a.trajectory, b.trajectory)
    assert a.escape_cycle != c.escape_cycle or not np.array_equal(a.trajectory, c.trajectory)


def test_single_trial_matches_monte_carlo():
    cfg = isi1_config(20)
    solo = run_trial(cfg, (7, 0))
    batch = run_monte_carlo(cfg, 1, 7)
    assert batch.escape_cycles[0] == solo.escape_cycle
    assert batch.exit_sides[0] == (-1 if solo.exit_side == "left" else 1)


def test_trajectory_moves_only_on_transitions():
    # alternating data transitions every cycle and always crosses early,
    # so the walk marches right one step per cycle and exits at the edge
    cfg = replace(isi1_config(10, initial_position=3), source=BitSource.alternating())
    res = run_trial(cfg, 0, record=True)
    assert res.escaped and res.exit_side == "right"
    assert res.escape_cycle == 7
    assert np.array_equal(res.trajectory, np.arange(3, 11, dtype=float))


def test_quiet_source_never_escapes():
    cfg = replace(
        isi1_config(10, max_cycles=500),
        source=BitSource.explicit([1]),
    )
    res = run_trial(cfg, 1, record=True)
    assert not res.escaped
    assert res.escape_cycle is None
    assert np.all(res.trajectory == 5.0)
    assert res.trajectory.size == 501


def test_w2_absorbs_geometrically():
    cfg = isi1_config(2)
    res = run_monte_carlo(cfg, 4000, 13)
    assert res.escaped_fraction == 1.0
    # geometric(1/2): mean 2, sd 1.41; SE ~0.022
    assert res.mean_cycles == pytest.approx(2.0, abs=0.1)


def test_exit_side_fractions():
    # Right-moving events need an alternating bit history; from a quiet
    # history the first event always moves left.  Net effect: the right-exit
    # probability from position k is (2k - 1) / (2W), a half-step handicap
    # versus the simple position ratio k / W.
    cfg = isi1_config(10, initial_position=3)
    res = run_monte_carlo(cfg, 2000, 21)
    p = (2 * 3 - 1) / (2 * 10)
    se = np.sqrt(p * (1 - p) / 2000)
    assert res.exit_right_fraction == pytest.approx(p, abs=3.2 * se)


def test_mc_mean_matches_chain():
    cfg = isi1_config(20)
    res = run_monte_carlo(cfg, 5000, 42)
    chain_mean = absorption_stats(build_isi1_chain(WindowSpec(20))).mean_at(10)
    assert abs(res.mean_cycles - chain_mean) < 3 * res.stderr_cycles


def test_mismatch_trial_grid():
    cfg = isi1_config(8, mismatch_percent=10)
    res = run_trial(cfg, 2, record=True)
    # left moves are 1.1 steps on the tau axis, right moves 1.0; the final
    # sample is clamped to the window edge, so skip its diff
    diffs = np.diff(res.trajectory)[:-1]
    moved = diffs[diffs != 0]
    assert set(np.round(moved, 10)) <= {1.0, -1.1}


def test_isi2_trial_matches_chain_mixture():
    """Cold-start trials imply the tag mixture (1/8 x4, 1/4 x2); the chain
    mean under that mixture must match the trial mean."""
    subs = (5, 9, 4)
    width = sum(subs)
    chain = build_isi2_chain(*subs)
    stats = absorption_stats(chain)
    weights = dict(A=0.125, B=0.125, C=0.125, D=0.125, X1=0.25, X2=0.25)
    k0 = width // 2
    mix_mean = sum(
        weights[tag] * stats.mean_at(chain.labels.index((k0, tag))) for tag in ISI2_TAGS
    )
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi2_trace(*subs)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(width),
        max_cycles=100_000,
    )
    res = run_monte_carlo(cfg, 4000, 99)
    assert res.escaped_fraction == 1.0
    assert abs(res.mean_cycles - mix_mean) < 3.5 * res.stderr_cycles


def test_config_validation():
    # a crossing band wider than the window cannot fit
    with pytest.raises(ValueError):
        TrialConfig(
            channel=ChannelModel.discrete(isi1_trace(12)),
            source=BitSource.bernoulli(0.5),
            window=WindowSpec(10),
        )
    with pytest.raises(ValueError):
        isi1_config(10, initial_position=10)
    with pytest.raises(ValueError):
        isi1_config(10, max_cycles=0)
    with pytest.raises(ValueError):
        run_monte_carlo(isi1_config(10), 0, 1)
    # an infinite step_tau would size an RC trial's window at 2 steps
    for step_tau in (0.0, -0.001, np.inf, np.nan):
        with pytest.raises(ValueError, match="step_tau must be positive and finite"):
            isi1_config(10, step_tau=step_tau)
        with pytest.raises(ValueError, match="step_tau must be positive and finite"):
            TrialConfig(
                channel=REFERENCE_CHANNELS["benign"],
                source=BitSource.bernoulli(0.5),
                step_tau=step_tau,
            )
    # narrower bands sit inside a wider window without complaint
    TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(10)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(12),
    )


def test_degenerate_window_escapes_immediately():
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(10)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(0),
    )
    res = run_trial(cfg, 0, record=True)
    assert res.escaped and res.escape_cycle == 0
    assert res.trajectory.tolist() == [0.0]


def test_jittered_trace_matches_combined_chain():
    """Gaussian draws on the crossing table reproduce the mixture-CDF chain."""
    sigma, w_ab = 1.5, 10
    spec = CombinedJitterSpec(sigma_steps=sigma, w_ab_steps=w_ab)
    chain = build_combined_chain(spec)
    collar = spec.collar_steps
    trace = IsiTraceModel(
        order=1,
        crossing_positions=(float(collar), float(collar + w_ab)),
        transition_table=dict(ISI1_TABLE),
    )
    cfg = TrialConfig(
        channel=ChannelModel.discrete(trace, sigma_steps=sigma),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(w_ab + 2 * collar),
    )
    res = run_monte_carlo(cfg, 2500, 97)
    mean = absorption_stats(chain).mean_at(w_ab // 2 + collar)
    assert abs(res.mean_cycles - mean) < 3.5 * res.stderr_cycles


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
def test_jitter_sigma_is_positive_and_finite(sigma):
    with pytest.raises(ValueError, match="sigma_steps must be positive and finite"):
        ChannelModel.discrete(isi1_trace(12), sigma)


def test_jitter_needs_discrete_channel():
    with pytest.raises(ValueError):
        ChannelModel("rc_line", sigma_steps=1.0, c_per_section_ui=0.02)


def test_coarse_rejects_jittered_trace():
    with pytest.raises(ValueError, match="coarse"):
        TrialConfig(
            channel=ChannelModel.discrete(isi1_trace(12), sigma_steps=0.5),
            source=BitSource.bernoulli(0.5),
            window=WindowSpec(12),
            coarse_first=CoarseFirstSpec(coarse_step_steps=2, duration_cycles=50),
        )


# ---------------------------------------------------------------- rc trials


def rc_trial_config(**kw):
    ch = ChannelModel.rc(r=1.0, c=0.02, samples_per_ui=256, sections=8)
    return TrialConfig(
        channel=ch,
        source=BitSource.bernoulli(0.5),
        step_tau=0.004,
        max_cycles=100_000,
        **kw,
    )


def test_rc_trial_measures_window_and_escapes():
    cfg = rc_trial_config()
    res = run_trial(cfg, 5, record=True)
    assert res.escaped and res.escape_cycle >= 1
    assert res.trajectory.size == res.escape_cycle + 1
    assert res.trajectory.min() >= 0.0
    # final sample sits on the measured window edge
    assert res.trajectory[-1] in (0.0, res.trajectory.max())
    again = run_trial(cfg, 5)
    assert again.escape_cycle == res.escape_cycle
    assert again.exit_side == res.exit_side


def test_rc_trials_escape_both_sides():
    mc = run_monte_carlo(rc_trial_config(), 40, 11)
    assert mc.escaped_fraction == 1.0
    assert 0.0 < mc.exit_right_fraction < 1.0


def test_rc_trial_synthesizes_only_what_it_reads(monkeypatch):
    """A trial that escapes within 16 cycles synthesizes its 288-UI
    calibration burst and one 16-UI row, the first of every trial's draw
    schedule; a block of trials builds one ladder."""
    uis, systems = [], []
    step, rc_system = sim._RcLine._step, sim._rc_system

    def spy_step(line, bits):
        uis.append(len(bits))
        return step(line, bits)

    def spy_system(channel):
        systems.append(channel)
        return rc_system(channel)

    monkeypatch.setattr(sim._RcLine, "_step", spy_step)
    monkeypatch.setattr(sim, "_rc_system", spy_system)
    cfg = replace(rc_trial_config(), channel=REFERENCE_CHANNELS["benign"], step_tau=0.02)
    res = run_trial(cfg, 1)
    assert res.escaped and res.escape_cycle <= 16
    assert sum(uis) <= 288 + 16
    assert len(systems) == 1
    systems.clear()
    run_monte_carlo(cfg, 3, 1)
    assert len(systems) == 1


@pytest.mark.parametrize("name", list(REFERENCE_CHANNELS))
def test_rc_crossings_do_not_depend_on_the_chunk_schedule(name):
    # the ladder state carries across chunks through lfilter's zi, so only
    # rounding may move a crossing
    chan = REFERENCE_CHANNELS[name]
    bits = np.random.default_rng(8).integers(0, 2, 2048)
    whole = sim._RcLine(chan).crossings(bits)
    line, parts, base, row = sim._RcLine(chan), [], 0, sim._ROW0
    while base < bits.size:
        n = min(row, bits.size - base)
        parts.append(base + line.crossings(bits[base : base + n]))
        base, row = base + n, min(row * 4, sim._ROW_MAX)
    got = np.concatenate(parts)
    assert len(parts) == 5  # 16, 64, 256, 1024 and the last 688
    assert got.size == whole.size
    assert np.abs(got - whole).max() <= 1e-12


def test_rc_config_rules():
    ch = ChannelModel.rc(r=1.0, c=0.02, samples_per_ui=256, sections=8)
    src = BitSource.bernoulli(0.5)
    with pytest.raises(ValueError):
        TrialConfig(channel=ch, source=src, window=WindowSpec(10))
    with pytest.raises(ValueError):
        TrialConfig(
            channel=ch,
            source=src,
            coarse_first=CoarseFirstSpec(coarse_step_steps=2, duration_cycles=10),
        )
    # an explicit start outside the measured window fails at run time
    with pytest.raises(ValueError):
        run_trial(rc_trial_config(initial_position=4000), 1)


# ---------------------------------------------------------------- coarse


def test_coarse_first_degenerate_equals_plain():
    cfg = isi1_config(12)
    b = run_monte_carlo(cfg, 50, 31)
    zero = replace(cfg, coarse_first=CoarseFirstSpec(1, 0))
    c = run_monte_carlo(zero, 50, 31)
    assert np.array_equal(c.escape_cycles, b.escape_cycles)
    assert np.array_equal(c.exit_sides, b.exit_sides)


def test_coarse_first_escapes_fast():
    cfg = isi1_config(5, coarse_first=CoarseFirstSpec(1, 40), max_cycles=5000)
    res = run_monte_carlo(cfg, 3000, 5)
    assert res.escaped_within(40) >= 0.999


def test_coarse_step_every_cycle():
    # quiet source: no detector decisions, latched initial direction
    # still walks one coarse step per cycle straight to an edge
    cfg = replace(
        isi1_config(9, initial_position=4, coarse_first=CoarseFirstSpec(1, 30),
                    max_cycles=100),
        source=BitSource.explicit([0]),
    )
    res = run_trial(cfg, 8, record=True)
    assert res.escaped
    assert res.escape_cycle in (4, 5)
    steps = np.abs(np.diff(res.trajectory))
    assert np.all(steps == 1.0)


def test_coarse_rejects_four_crossing_trace():
    with pytest.raises(ValueError, match="coarse"):
        TrialConfig(
            channel=ChannelModel.discrete(isi2_trace(3, 4, 3)),
            source=BitSource.bernoulli(0.5),
            window=WindowSpec(10),
            coarse_first=CoarseFirstSpec(1, 10),
        )


def test_training_source_drifts_deterministically():
    # 3 late vs 1 early crossing per 8 bits: 0.25 tau/cycle toward an edge
    cfg = replace(isi1_config(40), source=BitSource.training_biased())
    res = run_monte_carlo(cfg, 400, 23)
    assert res.escaped_fraction == 1.0
    assert (res.exit_sides < 0).all()
    assert res.mean_cycles == pytest.approx(20 / 0.25, abs=6.0)


# ------------------------------------------------------------ walk stream

# walk_stream_digests() as computed when every trial was put on one draw
# schedule (rows of _ROW0 cycles growing to _ROW_MAX, each row's bits, then
# its normals, then its tie coins), the last change meant to alter the
# random streams.  Regenerate only for such a change, with
# `python3 tests/regen_references.py`, and say so in CHANGES.md
WALK_STREAM_TABLE = Path(__file__).with_name("walk_stream_reference.json")


def walk_stream_cases():
    """One config per walk that used to have its own loop: clean ISI-1 with
    and without mismatch, a periodic source, coarse acquisition ending
    early and late, jitter inside a collar and over several rows, ISI-2
    ties and an RC line whose finer phase step runs one seed past the
    first row."""
    bern = BitSource.bernoulli(0.5)
    collar = IsiTraceModel(
        order=1, crossing_positions=(3.0, 13.0), transition_table=dict(ISI1_TABLE)
    )
    return {
        "isi1": isi1_config(20),
        "isi1-mismatch": isi1_config(20, mismatch_percent=10),
        "periodic": replace(isi1_config(40), source=BitSource.training_biased()),
        "coarse-short": isi1_config(40, coarse_first=CoarseFirstSpec(1, 30)),
        "coarse-long": isi1_config(200, coarse_first=CoarseFirstSpec(1, 5000)),
        "jitter": TrialConfig(
            channel=ChannelModel.discrete(collar, 1.5),
            source=bern,
            window=WindowSpec(16),
        ),
        "jitter-long": TrialConfig(
            channel=ChannelModel.discrete(isi1_trace(60), 0.75),
            source=bern,
            window=WindowSpec(60),
        ),
        "isi2-ties": TrialConfig(
            channel=ChannelModel.discrete(isi2_trace(3, 4, 3)), source=bern, window=WindowSpec(10)
        ),
        "rc": replace(rc_trial_config(), step_tau=0.002),
    }


def walk_stream_digests(names=None) -> dict:
    """Escape, cycle, side and trajectory SHA-256 per case, seed and recording,
    plus one run_monte_carlo per case; every case, or those named."""
    out = {}
    for name, cfg in walk_stream_cases().items():
        if names is not None and name not in names:
            continue
        for record in (False, True):
            for seed in range(6):
                res = run_trial(cfg, seed, record)
                traj = None
                if res.trajectory is not None:
                    traj = hashlib.sha256(res.trajectory.tobytes()).hexdigest()
                out[f"{name}|{record}|{seed}"] = [
                    res.escaped, res.escape_cycle, res.exit_side, traj
                ]
        mc = run_monte_carlo(cfg, 4, 11)
        out[f"{name}|mc"] = [mc.escape_cycles.tolist(), mc.exit_sides.tolist()]
    return out


def test_walk_stream_matches_parent():
    """Every trial draws the same random numbers and walks the same path as
    when the table was written."""
    expected = json.loads(WALK_STREAM_TABLE.read_text())
    assert walk_stream_digests() == expected


def test_walk_stream_does_not_depend_on_rounds_blocks_or_rows(monkeypatch):
    """Rounds and seeding blocks only split a trial's draws, so with both
    at small odd sizes every pinned entry holds.  Rows fix where a row's
    normals and tie coins fall; with rows changed as well, the entries of
    streams of bits alone still hold, an RC line's among them."""
    expected = json.loads(WALK_STREAM_TABLE.read_text())
    monkeypatch.setattr(sim, "_ROUND_ELEMENTS", 75)
    monkeypatch.setattr(sim, "_BLOCK_TRIALS", 3)
    assert walk_stream_digests() == expected
    monkeypatch.setattr(sim, "_ROW0", 24)
    monkeypatch.setattr(sim, "_ROW_MAX", 96)
    bit_streams = [*EDGE_CASES, "rc"]  # no normals and no tie coins
    got = walk_stream_digests(bit_streams)
    assert got == {k: v for k, v in expected.items() if k.split("|")[0] in bit_streams}


def table_label(trace, window):
    """The transition_table label of a window of order + 2 bits, oldest bit
    highest: ISI-1 keys are the three bits, ISI-2 keys the three-bit history
    and the next bit."""
    if trace.order == 1:
        return trace.transition_table.get(((window >> 2) & 1, (window >> 1) & 1, window & 1))
    return trace.transition_table.get((window >> 1, window & 1))


@pytest.mark.parametrize(
    "trace",
    [isi1_trace(20), isi2_trace(3, 4, 3), walk_stream_cases()["jitter"].channel.trace],
    ids=["isi1", "isi2", "collar"],
)
def test_trace_codes_match_transition_table(trace):
    want = []
    for window in range(2 ** (trace.order + 2)):
        label = table_label(trace, window)
        want.append(-1 if label is None else "ABCD".index(label))
    assert trace.codes.tolist() == want
    with pytest.raises(ValueError, match="read-only"):
        trace.codes[0] = 0


@pytest.mark.parametrize("ctx", [2, 3])
def test_windows_match_convolution_decode(ctx):
    """_windows reads the windows that np.convolve with weights 2**j read,
    on 1-D streams and row by row on a block."""
    rng = np.random.default_rng(ctx)
    weights = 2 ** np.arange(ctx + 1)
    for n in (ctx + 1, ctx + 2, 50, 1000):
        seq = rng.integers(0, 2, n).astype(np.int8)
        assert np.array_equal(sim._windows(seq, ctx), np.convolve(seq, weights, "valid"))
    block = rng.integers(0, 2, (6, 80)).astype(np.int8)
    got = sim._windows(block, ctx)
    assert got.shape == (6, 80 - ctx)
    for row, seq in zip(got, block):
        assert np.array_equal(row, np.convolve(seq, weights, "valid"))


# ------------------------------------------------------------ edge batches

EDGE_CASES = ["isi1", "isi1-mismatch", "periodic", "coarse-short", "coarse-long"]


def edge_walk_oracle(cfg, seed, record=False):
    """(escape cycle, side) of one edge walk, stepped one cycle and one
    bit draw at a time; -1 and 0 for a trial that does not escape.  With
    record, the trajectory in steps follows, ending on the edge it left by.

    A cycle reads the trace.order + 1 bits before it and its own bit.  A
    jittered walk draws its bits a row at a time, sim._ROW0 cycles and
    then four times as many up to sim._ROW_MAX, each row followed by the
    normals of its crossings; a tie moves the clock left and draws nothing.
    """
    w = cfg.window.width_steps
    if w == 0:
        return (0, -1, np.zeros(1)) if record else (0, -1)
    rng = np.random.default_rng(seed)
    src, trace = cfg.source, cfg.channel.trace
    s_l, s_r = cfg._substeps
    sigma = cfg.channel.sigma_steps
    phase = 0
    if src.kind in ("training_biased", "alternating"):
        phase = int(rng.integers(len(src.pattern)))

    def bit():
        nonlocal phase
        phase += 1
        if src.kind == "bernoulli":
            return int(rng.random() < src.p)
        return src.pattern[(phase - 1) % len(src.pattern)]

    def label(window):
        return table_label(trace, int("".join(map(str, window)), 2))

    def result(cycle, side):
        if not record:
            return cycle, side
        traj = np.array(path) / s_r
        if side:
            traj[-1] = 0.0 if side < 0 else float(w)
        return cycle, side, traj

    history = tuple(bit() for _ in range(trace.order + 1))
    coarse = cfg.coarse_first
    latch = coarse.duration_cycles if coarse is not None else 0
    held = (1 if rng.random() < 0.5 else -1) if latch else 0
    pos = cfg.initial * s_r
    path = [pos]
    row, queue, normals = sim._ROW0, [], []
    for cycle in range(cfg.max_cycles):
        if sigma and not queue:
            queue = [bit() for _ in range(min(row, cfg.max_cycles - cycle))]
            seq = (*history, *queue)
            count = sum(label(seq[j : j + len(history) + 1]) is not None for j in range(len(queue)))
            normals = rng.standard_normal(count).tolist()
            row = min(4 * row, sim._ROW_MAX)
        window = (*history, queue.pop(0) if sigma else bit())
        history = window[1:]
        lab = label(window)
        edge = None if lab is None else trace.crossing_of(lab) * s_r
        if cycle < latch:
            held = (1 if edge == 0 else -1) if lab is not None else held
            pos += held * coarse.coarse_step_steps * s_r
        elif lab is not None:
            if sigma:
                right = edge + sigma * s_r * normals.pop(0) < pos
            else:
                right = edge == 0
            pos += s_r if right else -s_l
        path.append(pos)
        if pos <= 0 or pos >= w * s_r:
            return result(cycle + 1, -1 if pos <= 0 else 1)
    return result(-1, 0)


def solo_results(cfg, base_seed, trials):
    """run_trial's escape cycle and side per trial, as run_monte_carlo stores them."""
    out = []
    for k in range(trials):
        res = run_trial(cfg, sim._trial_seed(base_seed, k))
        side = 0 if not res.escaped else (-1 if res.exit_side == "left" else 1)
        out.append((res.escape_cycle if res.escaped else -1, side))
    return out


def batch_results(res):
    return list(zip(res.escape_cycles.tolist(), res.exit_sides.tolist()))


def test_edge_cases_are_batched():
    """The clean edge cases, and jitter-long, a jittered trace on the edges."""
    cases = walk_stream_cases()
    edge = [name for name, cfg in cases.items() if sim._is_edge_walk(cfg)]
    assert edge == [*EDGE_CASES, "jitter-long"]


def batch_cases():
    """The edge cases of walk_stream_cases(), plus a pattern whose length
    divides no round, so a trial's pattern phase must carry across rounds,
    and the short jittered and ISI-2 walks, which run a trial at a time."""
    cases = {name: walk_stream_cases()[name] for name in EDGE_CASES}
    cases["explicit-odd"] = replace(isi1_config(200), source=BitSource.explicit([1, 1, 0, 1, 0]))
    cases.update({name: walk_stream_cases()[name] for name in ("jitter", "isi2-ties")})
    return cases


@pytest.mark.parametrize("name", list(batch_cases()))
def test_batch_matches_single_trials_and_oracle(name):
    cfg = batch_cases()[name]
    trials = sim._BLOCK_TRIALS + 7  # two blocks
    big = batch_results(run_monte_carlo(cfg, trials, 3))
    assert big == solo_results(cfg, 3, trials)
    if sim._is_edge_walk(cfg):
        # the oracle walks a cycle at a time, so it checks the ends of each block
        for k in (*range(7), *range(sim._BLOCK_TRIALS - 7, trials)):
            assert big[k] == edge_walk_oracle(cfg, sim._trial_seed(3, k)), k
    # trial k does not depend on how many trials run
    for m in (1, 7):
        assert batch_results(run_monte_carlo(cfg, m, 3)) == big[:m]


@pytest.mark.parametrize("name", list(walk_stream_cases()))
def test_run_trial_is_a_batch_of_one(name):
    """One dispatcher serves both entry points: trial k of a run is
    run_trial on trial k's seed, for every kind of walk."""
    cfg = walk_stream_cases()[name]
    assert batch_results(run_monte_carlo(cfg, 4, 11)) == solo_results(cfg, 11, 4)


def test_threads_match_serial_runs():
    """Runs in four threads at once give the serial results: a thread never
    loads a seed into a generator that a live block of another one holds."""
    names = ["isi1", "jitter", "coarse-long", "isi2-ties"] * 2
    cases = batch_cases()

    def run(name):
        return batch_results(run_monte_carlo(cases[name], sim._BLOCK_TRIALS + 7, 5))

    serial = [run(name) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(run, names, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


def cut_cases():
    return {
        # the coarse phase runs past max_cycles
        "cut-coarse": isi1_config(40, coarse_first=CoarseFirstSpec(4, 30), max_cycles=7),
        # the coarse phase ends at cycle 10 and the fine phase runs into max_cycles
        "cut-fine": isi1_config(40, coarse_first=CoarseFirstSpec(1, 10), max_cycles=200),
        "width-0": TrialConfig(
            channel=ChannelModel.discrete(isi1_trace(10)),
            source=BitSource.bernoulli(0.5),
            window=WindowSpec(0),
        ),
    }


@pytest.mark.parametrize("name", list(cut_cases()))
def test_batch_cut_by_max_cycles_matches_oracle(name):
    cfg = cut_cases()[name]
    trials = 300
    res = run_monte_carlo(cfg, trials, 8)
    got = batch_results(res)
    assert got == solo_results(cfg, 8, trials)
    assert got == [edge_walk_oracle(cfg, sim._trial_seed(8, k)) for k in range(trials)]
    if name == "width-0":
        assert got == [(0, -1)] * trials
    else:
        # both outcomes occur, and no escape is counted past the cut
        assert 0 < res.n_censored < trials
        assert res.escape_cycles.max() <= cfg.max_cycles
        traj = run_trial(cfg, sim._trial_seed(8, 0), record=True).trajectory
        cycle = got[0][0]
        assert traj.size == (cycle if cycle >= 0 else cfg.max_cycles) + 1


def test_censored_trials_are_counted():
    cfg = isi1_config(20, max_cycles=150)
    res = run_monte_carlo(cfg, 200, 4)
    assert batch_results(res) == [edge_walk_oracle(cfg, (4, k)) for k in range(200)]
    assert 0 < res.n_censored < res.n_trials
    assert res.n_escaped + res.n_censored == res.n_trials
    censored = ~res.escaped_mask
    assert (res.escape_cycles[censored] == -1).all()
    assert (res.exit_sides[censored] == 0).all()
    # the statistics cover the escaped trials only
    assert res.mean_cycles == res.escape_cycles[res.escaped_mask].mean()


@pytest.mark.parametrize("trials, seed, escaped", [(5, 1, 1), (5, (0, 0), 0)])
def test_spread_is_nan_below_two_escapes(trials, seed, escaped):
    res = run_monte_carlo(isi1_config(12, max_cycles=20), trials, seed)
    assert res.n_escaped == escaped
    assert np.isnan(res.std_cycles)
    assert np.isnan(res.stderr_cycles)


def edge_isi2_trace(width):
    """An order-2 trace on the window edges: ISI-2's A and B transitions
    cross at the left edge, C and D at the right one."""
    table = {key: "A" if label in "AB" else "B" for key, label in ISI2_EMISSION.items()}
    return IsiTraceModel(order=2, crossing_positions=(0.0, float(width)), transition_table=table)


@st.composite
def edge_configs(draw):
    """Edge walks of every kind the batched kernel takes: widths 2-64
    (width 1 has no start strictly inside), either trace order, bernoulli
    and pattern sources, mismatch, jitter or a coarse latch, and latch
    durations and cycle caps that cut a table group short."""
    w = draw(st.integers(2, 64))
    trace = draw(st.sampled_from([isi1_trace, edge_isi2_trace]))(w)
    source = draw(
        st.sampled_from([0.0, 0.3, 0.5, 1.0]).map(BitSource.bernoulli)
        | st.sampled_from([BitSource.training_biased(), BitSource.alternating()])
        | st.lists(st.integers(0, 1), min_size=1, max_size=9).map(BitSource.explicit)
    )
    sigma = draw(st.none() | st.floats(0.05, 3.0))
    coarse = None
    if sigma is None and trace.order == 1 and draw(st.booleans()):
        coarse = CoarseFirstSpec(draw(st.integers(1, 4)), draw(st.integers(1, 17)))
    return TrialConfig(
        channel=ChannelModel.discrete(trace, sigma),
        source=source,
        window=WindowSpec(w),
        initial_position=draw(st.integers(1, w - 1)),
        mismatch_percent=draw(st.integers(0, 20)),
        max_cycles=draw(st.sampled_from([*range(1, 18), 1000, 3001])),
        coarse_first=coarse,
    )


@settings(max_examples=150, deadline=None)
@given(cfg=edge_configs(), batch=st.sampled_from([1, sim._BLOCK_TRIALS + 7]),
       record=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_edge_kernel_matches_oracle(cfg, batch, record, seed):
    """The table kernel walks every edge trial as the cycle-at-a-time
    oracle does: escape cycle, side and, for a trial of its own, the
    trajectory; in a batch of two blocks, the trials at each block's ends."""
    assert sim._is_edge_walk(cfg)
    if batch == 1:
        res = run_trial(cfg, (seed, 0), record)
        got = (res.escape_cycle if res.escaped else -1,
               0 if not res.escaped else (-1 if res.exit_side == "left" else 1))
        want = edge_walk_oracle(cfg, (seed, 0), record)
        assert got == want[:2]
        if record:
            assert np.array_equal(res.trajectory, want[2])
        return
    got = batch_results(run_monte_carlo(cfg, batch, seed))
    for k in (*range(7), *range(sim._BLOCK_TRIALS - 7, batch)):
        assert got[k] == edge_walk_oracle(cfg, sim._trial_seed(seed, k)), k


class TieRng:
    """A generator that sets its first normal so that the first crossing
    lands exactly on the clock, a tie; every other draw is default_rng's."""

    def __init__(self, seed, z0):
        self.rng, self.z0 = np.random.default_rng(seed), z0

    def random(self, *args, **kw):
        return self.rng.random(*args, **kw)

    def integers(self, *args, **kw):
        return self.rng.integers(*args, **kw)

    def standard_normal(self, n):
        z = self.rng.standard_normal(n)
        if n and self.z0 is not None:
            z[0], self.z0 = self.z0, None
        return z


def test_jittered_tie_moves_left_and_draws_nothing():
    """A jittered crossing exactly on the clock has no mass, so in either
    kernel it moves the clock left, as c < p decides, and draws no coin:
    each trial walks as it does when its first normal puts that crossing
    just right of the clock."""
    w, start = 20, 10
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(w), 0.5),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(w),
        initial_position=start,
    )
    trials = 100
    z0 = []
    for k in range(trials):
        bits = (np.random.default_rng(k).random(2 + 64) < 0.5).astype(np.int8)
        codes = cfg.channel.trace.codes[sim._windows(bits, 2)]
        edge = cfg.channel.trace.crossing_positions[codes[codes >= 0][0]]
        # 0.5 * z0 + edge == start, exactly
        z0.append((start - edge) / 0.5)

    def kernels(z):
        rngs = [TieRng(k, zk) for k, zk in enumerate(z)]
        walked = [sim._walk(cfg, *sim._trace_events(cfg, r), r, False)[:2] for r in rngs]
        cycles, sides, _ = sim._walks(cfg, [TieRng(k, zk) for k, zk in enumerate(z)])
        return walked, list(zip(cycles.tolist(), sides.tolist()))

    walked, batched = kernels(z0)
    assert batched == walked
    assert kernels([z + 1e-6 for z in z0]) == (walked, batched)
    for k, z in enumerate(z0):
        traj = sim._walks(cfg, [TieRng(k, z)], record=True)[2]
        assert traj[np.flatnonzero(traj != start)[0]] - start == -1.0
    # the ties changed the walks
    plain = sim._walks(cfg, [np.random.default_rng(k) for k in range(trials)])
    assert list(zip(plain[0].tolist(), plain[1].tolist())) != walked


def test_oracle_and_kernels_agree_past_the_first_rows():
    """jitter-long's trials run through several rows, each row's normals
    drawn after its bits, so the oracle agrees with both kernels on every
    seed only if it keeps their row schedule.  The Hypothesis test's
    walks mostly end inside the first row."""
    cfg = walk_stream_cases()["jitter-long"]
    for seed in range(6):
        want = edge_walk_oracle(cfg, seed)
        assert want[0] > sim._ROW0 * 5  # past the second row
        res = run_trial(cfg, seed)
        assert (res.escape_cycle, -1 if res.exit_side == "left" else 1) == want
        rng = np.random.default_rng(seed)
        assert sim._walk(cfg, *sim._trace_events(cfg, rng), rng, False)[:2] == want


@pytest.mark.parametrize("mismatch", [0, 10])
def test_wide_jitter_runs_a_round_a_cycle_at_a_time(mismatch):
    """At sigma 3 steps in a width of 40, jitter reaches the clock from
    much of the window, so rounds often run a cycle at a time from an event
    group on, and the rest of such a round leaves the table's path.  Each
    trial of the batched kernel still walks as _walk does over the same
    stream, and so does a recorded trajectory."""
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(40), 3.0),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(40),
        initial_position=20,
        mismatch_percent=mismatch,
    )
    trials, base = 300, 27
    res = run_monte_carlo(cfg, trials, base)
    for k, got in enumerate(batch_results(res)):
        rng = np.random.default_rng(sim._trial_seed(base, k))
        assert sim._walk(cfg, *sim._trace_events(cfg, rng), rng, False)[:2] == got, k
    rng = np.random.default_rng(4)
    want = sim._walk(cfg, *sim._trace_events(cfg, rng), rng, True)[2]
    assert want.size > 100
    assert np.array_equal(run_trial(cfg, 4, record=True).trajectory, want)


def test_edge_walk_bit_draws(monkeypatch):
    """Work guard: a 300-trial width-200 run from the centre draws each
    trial's bits a row at a time, rows of up to _ROW_MAX bits that run
    ahead of the walk by less than one row."""
    calls, rows, drawn = [], [], []
    real = sim.generate_bits

    def spy(source, n, rng, phase=0):
        bits = real(source, n, rng, phase)
        calls.append(n)
        rows.append(len(rng))
        drawn.append(bits.size)
        return bits

    monkeypatch.setattr(sim, "generate_bits", spy)
    res = run_monte_carlo(isi1_config(200), 300, 17)
    assert res.n_escaped == 300
    assert (len(calls), sum(rows)) == EDGE_W200_DRAWS
    assert sum(drawn) < res.escape_cycles.sum() + 300 * (sim._ROW_MAX + 2)


# (generate_bits calls, generator rows) of test_edge_walk_bit_draws.  Each
# draw-ahead row is drawn in slices of trials that keep a float64 block
# within _ROUND_ELEMENTS cells.  Drawing one round's bits at a time, the
# walk made 181 calls that drew 30833 generator rows.
EDGE_W200_DRAWS = (209, 2657)

# peak bytes that tracemalloc saw in run_monte_carlo before the kernel drew
# bits ahead, per bench montecarlo job at its centre position, and jittered
# width 200
PARENT_PEAK_MB = {
    "w200": 0.90, "jitter-w40": 0.18, "mismatch-w40": 0.92, "coarse-w20": 1.24, "jitter-w200": 2.19,
}


@pytest.mark.parametrize("name", list(PARENT_PEAK_MB))
def test_run_monte_carlo_peak_memory(name):
    """The draw-ahead rows, held packed, and the rounds keep the
    peak within 2 MB of what the walk took before."""
    w, trials, kw = {
        "w200": (200, 300, {}),
        "jitter-w40": (40, 400, {"sigma": 0.75}),
        "mismatch-w40": (40, 400, {"mismatch_percent": 10}),
        "coarse-w20": (20, 3334, {"coarse_first": CoarseFirstSpec(4, 1000)}),
        "jitter-w200": (200, 300, {"sigma": 0.75}),
    }[name]
    sigma = kw.pop("sigma", None)
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(w), sigma),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(w),
        **kw,
    )
    tracemalloc.start()
    try:
        run_monte_carlo(cfg, trials, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (PARENT_PEAK_MB[name] + 2) * 2**20


# ---------------------------------------------------------------- seeding


def first_draws(rng) -> list:
    """A generator's first 8 random() draws, then one integers(8) draw."""
    return [*rng.random(8).tolist(), int(rng.integers(8))]


# scalars at the one- and two-word edges, list bases of one to three
# entries, and a base of six words, longer than SeedSequence's 4-word pool
FAST_BASES = [0, 2**32 - 1, 2**32, 2**64 - 1, [], [5], (3, 2), [2**64 - 1, 0, 9],
              [2**100 + 3, 2**40]]


@pytest.mark.parametrize("base", FAST_BASES, ids=str)
def test_trial_rngs_draw_default_rng_streams(base):
    """The block seeding reproduces SeedSequence and PCG64 seeding exactly;
    this fails first if numpy changes either algorithm."""
    assert sim._pcg64_states(base, 0, 1) is not None
    ks = (0, 1, *range(510, 515))  # 510-514 straddle the first block boundary
    got = {}
    for lo in (0, sim._BLOCK_TRIALS):
        with sim._trial_rngs(base, lo, lo + sim._BLOCK_TRIALS) as rngs:
            got.update({k: first_draws(rng) for k, rng in enumerate(rngs, lo) if k in ks})
    assert got == {k: first_draws(np.random.default_rng(sim._trial_seed(base, k))) for k in ks}


def test_pooled_generators_start_clean():
    """integers(8) leaves half of a 64-bit draw buffered; a generator that
    goes back to the pool so must not hand that half to its next trial."""
    for _ in range(2):
        with sim._trial_rngs(4, 0, 3) as rngs:
            got = [int(rng.integers(8)) for rng in rngs]
        assert got == [int(np.random.default_rng((4, k)).integers(8)) for k in range(3)]


@pytest.mark.parametrize(
    "base, lo",
    [(7.9, 0), ([7.9], 0), (-1, 0), ([3, -2], 0), (np.True_, 0), ("7", 0), (None, 0),
     ([[1, 2], 3], 0), (np.array([5, 6]), 0), (3, 2**32 - 2), (3, 2**40)],
    ids=str,
)
def test_trial_rngs_fall_back_to_default_rng(base, lo):
    """Seeds the fast path does not cover -- negative, non-integer or
    nested entries, k >= 2**32 -- raise as default_rng raises, or draw
    its streams."""
    assert sim._pcg64_states(base, lo, lo + 4) is None
    try:
        want = [first_draws(np.random.default_rng(sim._trial_seed(base, k)))
                for k in range(lo, lo + 4)]
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            with sim._trial_rngs(base, lo, lo + 4):
                pass
        return
    with sim._trial_rngs(base, lo, lo + 4) as rngs:
        assert [first_draws(rng) for rng in rngs] == want


@pytest.mark.parametrize("name", ["isi1", "jitter"])
def test_float_base_seed_is_rejected(name):
    """A float base raises as default_rng((7.9, k)) does; it is never
    truncated to seed 7."""
    with pytest.raises(TypeError, match="seed must be integer"):
        run_monte_carlo(batch_cases()[name], 3, 7.9)
