"""End-to-end gate: one test per required behavior, at its stated tolerance.

Every test here pins a deliverable property of the package against an
independent oracle (closed forms, dense re-solves, large Monte Carlo, or
frozen reference outputs).  Budgeted tests also assert their runtime.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
import yaml

from mesosettle.cli import main
from mesosettle.jitter import (
    GaussianJitterSpec,
    WindowSpec,
    build_gaussian_chain,
    build_isi1_chain,
    build_isi2_chain,
    isi1_trace,
    position_profile,
    sub_windows_to_steps,
    wrong_update_probability,
)
from mesosettle.markov import (
    absorption_series,
    absorption_stats,
    point_mass,
    transitions_for_confidence,
)
from mesosettle.reduction import (
    coarse_first_confidence,
    compare_mismatch,
    compare_training,
)
from mesosettle.sim import (
    REFERENCE_CHANNELS,
    BitSource,
    ChannelModel,
    CoarseFirstSpec,
    TrialConfig,
    crossing_histogram,
    generate_bits,
    propagate_rc,
    run_monte_carlo,
)


def _isi1_trial(width: int, **kw) -> TrialConfig:
    return TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(width)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(width),
        **kw,
    )


def test_criterion_01_closed_form_absorption_means():
    # lazy symmetric walk: mean(k) = 2 k (N - k), relative 1e-9, under 1 s
    start = time.perf_counter()
    for width in (4, 9, 40, 121, 200):
        chain = build_isi1_chain(WindowSpec(width))
        stats = absorption_stats(chain)
        ks = np.arange(1, width)
        expect = 2.0 * ks * (width - ks)
        assert np.allclose(stats.mean, expect, rtol=1e-9, atol=0.0)
        # independent route: dense solve of (I - Q) m = 1
        tr = sorted(set(range(chain.n_states)) - chain.absorbing)
        q = chain.transitions[np.ix_(tr, tr)]
        dense = np.linalg.solve(np.eye(len(tr)) - q, np.ones(len(tr)))
        assert np.allclose(dense, expect, rtol=1e-9, atol=0.0)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_window40_transitions_to_99pct():
    # center start, 0.99 confidence: within +-10% of 3000; under 1 s
    start = time.perf_counter()
    chain = build_isi1_chain(WindowSpec(40))
    n = transitions_for_confidence(chain, point_mass(chain, 20), 0.99)
    assert 2700 <= n <= 3300
    assert time.perf_counter() - start < 1.0


def test_criterion_03_coarse_window_32_cycles_128_ns():
    # width-5 coarse grid, center start, 0.99 confidence: exactly 32
    # divided-clock cycles, 128 ns at 4 ns per cycle.  The model's lazy
    # walk needs 48 cycles / 192 ns here (32 cycles is its 95.3% point),
    # so this check of the paper's figure fails; see README "Tests".
    est = coarse_first_confidence(WindowSpec(5), confidence=0.99, divided_period_ns=4.0)
    assert est.cycles == 32
    assert est.time_ns == 128.0


def test_criterion_04_trials_match_chain_profile_and_distribution():
    # 100 trials x 11 starting positions within 3 SE of the chain means;
    # 1e4-trial KS from center passes at the 1% level; under 30 s
    start = time.perf_counter()
    width = 40
    chain = build_isi1_chain(WindowSpec(width))
    stats = absorption_stats(chain)
    for k in range(10, 31, 2):
        res = run_monte_carlo(_isi1_trial(width, initial_position=k), 100, (23, k))
        se = stats.std_at(k) / np.sqrt(100)
        assert abs(res.mean_cycles - stats.mean_at(k)) <= 3.0 * se, k

    mc = run_monte_carlo(_isi1_trial(width), 10_000, 202)
    assert mc.escaped_fraction == 1.0
    cycles = np.sort(mc.escape_cycles)
    series = absorption_series(chain, point_mass(chain, 20), max_n=int(cycles[-1]))
    ecdf = np.searchsorted(cycles, np.arange(series.cdf.size), side="right") / cycles.size
    d_stat = np.abs(ecdf - series.cdf).max()
    assert d_stat < 1.628 / np.sqrt(10_000)  # 1% asymptotic critical value
    assert time.perf_counter() - start < 30.0


def test_criterion_05_mismatch_reduction_band():
    # 10% mismatch, width 40: center mean reduction inside [0.30, 0.45],
    # std reduction strictly larger than the mean reduction.  The model's
    # biased walk gives 25.5% at the center and 31.1-45.0% only from
    # starts 1-17, so this check of the paper's band fails; see README
    # "Tests".
    report = compare_mismatch(40, 10)
    center = report.at_position(20)
    assert center["reduction_std"] > center["reduction_mean"]
    assert 0.30 <= center["reduction_mean"] <= 0.45


def test_criterion_06_variance_formula_against_sampling():
    # width 20, center, 1e5 trials: sample variance within 5%; under 60 s
    start = time.perf_counter()
    chain = build_isi1_chain(WindowSpec(20))
    analytic = absorption_stats(chain).variance_at(10)
    mc = run_monte_carlo(_isi1_trial(20), 100_000, 5)
    sample = mc.escape_cycles[mc.escaped_mask].var(ddof=1)
    assert abs(sample - analytic) / analytic < 0.05
    assert time.perf_counter() - start < 60.0


def test_criterion_07_eye_morphology_three_channels():
    # benign 1 peak; moderate 2 peaks; heavy 4 regions with window
    # 30 +- 5% UI and sub-window spacings 8/15/7 +- 3% UI
    expected_peaks = {"benign": 1, "moderate": 2, "heavy": 4}
    hists = {}
    for k, (name, channel) in enumerate(REFERENCE_CHANNELS.items()):
        rng = np.random.default_rng([7, k])
        bits = generate_bits(BitSource.bernoulli(0.5), 400, rng)
        hist = crossing_histogram(propagate_rc(channel, bits), channel.samples_per_ui)
        assert hist.n_clusters == expected_peaks[name], name
        hists[name] = hist
    heavy = hists["heavy"]
    assert 0.25 <= heavy.window_ui <= 0.35
    for gap, target in zip(heavy.sub_gaps_ui, (0.08, 0.15, 0.07)):
        assert abs(gap - target) <= 0.03


def test_criterion_08_two_bit_isi_peak_mean():
    # sub-windows 8/15/7% UI on a 0.35% UI step: peak mean within
    # +-15% of 1100 cycles
    subs = sub_windows_to_steps((8, 15, 7), 0.35)
    chain = build_isi2_chain(*subs)
    _, mean, _ = position_profile(chain)
    assert abs(mean.max() - 1100.0) / 1100.0 <= 0.15


def test_criterion_09_gaussian_chain_sanity():
    # f(0) exactly one half; sigma = 20 steps: mean profile symmetric to
    # 1e-9 and monotone from the center out to the +-3 sigma edges
    spec = GaussianJitterSpec(sigma_steps=20.0)
    assert wrong_update_probability(0.0, spec) == 0.5
    chain = build_gaussian_chain(spec)
    _, mean, _ = position_profile(chain)
    assert np.abs(mean - mean[::-1]).max() < 1e-9
    center = mean.size // 2
    right = mean[center:]
    assert (np.diff(right) < 0).all()
    left = mean[: center + 1]
    assert (np.diff(left) > 0).all()


def test_criterion_10_training_sequence_reduction():
    # 1000 trials per arm: training source strictly faster, Welch p < 0.01
    report, baseline, treated = compare_training(_isi1_trial(40), 1000, 13)
    assert baseline.escaped_fraction == 1.0
    assert treated.escaped_fraction == 1.0
    assert report.treated_mean[0] < report.baseline_mean[0]
    assert report.p_value < 0.01


def test_criterion_11_coarse_mode_escape_fraction():
    # 5-position coarse grid (20 tau window, 4 tau coarse steps), 40
    # coarse cycles: at least 99% of 1e4 trials escape inside the phase
    cfg = _isi1_trial(
        20, coarse_first=CoarseFirstSpec(coarse_step_steps=4, duration_cycles=40)
    )
    mc = run_monte_carlo(cfg, 10_000, 99)
    assert mc.escaped_within(40) >= 0.99


def test_criterion_12_cli_reruns_byte_identical(tmp_path):
    # same config + seed: every CSV and the summary repeat byte for byte
    confs = {
        "simulate": {
            "schema_version": 1,
            "width_steps": 16,
            "trials": 40,
            "positions_steps": [4, 8, 12],
        },
        "eye": {"schema_version": 1, "channel": "moderate"},
    }
    for command, cfg in confs.items():
        cfg_path = tmp_path / f"{command}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{command}_{tag}"
            rc = main(
                [
                    command,
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out),
                    "--seed",
                    "31",
                    "--quiet",
                ]
            )
            assert rc == 0
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        summary = json.loads((first / "summary.json").read_text())
        assert summary["command"] == command
