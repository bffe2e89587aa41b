from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.stats import ttest_ind

from mesosettle.jitter import (
    WindowSpec, build_biased_chain, build_isi1_chain, isi1_trace, mismatch_substeps,
)
from mesosettle.markov import absorption_stats
from mesosettle.reduction import (
    CoarseFirstEstimate,
    _welch_less_pvalue,
    coarse_first_confidence,
    compare_mismatch,
    compare_training,
)
from mesosettle.sim import BitSource, ChannelModel, TrialConfig, run_monte_carlo


# ---------------------------------------------------------------- mismatch


def test_zero_mismatch_reduces_nothing():
    rep = compare_mismatch(12, 0)
    assert np.allclose(rep.reduction_mean, 0.0, atol=1e-12)
    assert np.allclose(rep.reduction_std, 0.0, atol=1e-12)


@pytest.mark.parametrize("width", [12, 40])
@pytest.mark.parametrize("mismatch", [0, 10, 25])
def test_mismatch_columns_read_the_aligned_states(width, mismatch):
    # oracle: state k of the base chain and state k * s_R of the sub-grid
    # chain both sit at clock position k
    st_b = absorption_stats(build_isi1_chain(WindowSpec(width)))
    st_t = absorption_stats(build_biased_chain(WindowSpec(width), mismatch))
    _, s_r = mismatch_substeps(mismatch)
    k = np.arange(1, width)
    rep = compare_mismatch(width, mismatch)
    assert rep.positions.tolist() == k.tolist()
    assert np.array_equal(rep.baseline_mean, st_b.mean[k - 1])
    assert np.array_equal(rep.baseline_std, st_b.std[k - 1])
    assert np.array_equal(rep.treated_mean, st_t.mean[k * s_r - 1])
    assert np.array_equal(rep.treated_std, st_t.std[k * s_r - 1])


def test_mismatch_reference_center():
    rep = compare_mismatch(40, 10)
    row = rep.at_position(20)
    assert row["baseline_mean"] == pytest.approx(800.0, rel=1e-12)
    assert row["treated_mean"] == pytest.approx(596.3045649455863, rel=1e-12)
    assert row["reduction_mean"] == pytest.approx(0.25461929381801307, rel=1e-12)
    assert row["reduction_std"] == pytest.approx(0.2931608376624603, rel=1e-12)


def test_mismatch_best_position():
    rep = compare_mismatch(40, 10)
    k = int(rep.positions[np.argmax(rep.reduction_mean)])
    assert k == 5
    assert rep.reduction_mean.max() == pytest.approx(0.45014386847829185, rel=1e-12)


def test_mismatch_helps_left_of_center_hurts_far_right():
    # the enlarged DN step drags the clock left: faster escapes up to the
    # center, slower ones hard against the right edge
    rep = compare_mismatch(30, 10)
    assert (rep.reduction_mean[:15] > 0).all()
    assert rep.reduction_mean[-1] < 0
    assert rep.positions.tolist() == list(range(1, 30))


def test_mismatch_trials_track_the_chain():
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(40)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(40),
        mismatch_percent=10,
    )
    res = run_monte_carlo(cfg, 3000, 77)
    assert abs(res.mean_cycles - 596.3045649455863) < 3 * res.stderr_cycles


# ---------------------------------------------------------------- training


def test_training_cuts_settling_time():
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(40)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(40),
    )
    report, baseline, treated = compare_training(cfg, 400, 13)
    assert report.treated_mean[0] < report.baseline_mean[0]
    assert report.p_value < 0.01
    assert baseline.escaped_fraction == 1.0
    assert treated.escaped_fraction == 1.0
    assert report.positions.tolist() == [20]


def scipy_welch_less(t, b) -> float:
    with warnings.catch_warnings():
        # scipy warns of precision loss on samples with no spread
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(ttest_ind(t, b, equal_var=False, alternative="less").pvalue)


def test_welch_closed_form_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(11)
    for i in range(3000):
        # arm sizes 2..3000, most of them small
        n1, n2 = np.exp(rng.uniform(np.log(2), np.log(3001), 2)).astype(int)
        if i % 2:
            t, b = rng.integers(1, 400, n1), rng.integers(1, 600, n2)
        else:
            t = rng.normal(300.0, 90.0, n1)
            b = rng.normal(320.0, 60.0, n2) * rng.uniform(0.1, 10.0)
        expected = scipy_welch_less(t, b)
        assert _welch_less_pvalue(t, b) == expected, (i, n1, n2)


@pytest.mark.parametrize(
    "t, b, expected",
    [([5, 5], [5, 5], np.nan), ([5, 5], [6, 6], 0.0), ([6, 6], [5, 5], 1.0)],
)
def test_welch_zero_variance_arms(t, b, expected):
    # pyproject turns a RuntimeWarning into an error, so these also check
    # that the closed form divides by zero silently
    np.testing.assert_equal(_welch_less_pvalue(np.array(t), np.array(b)), expected)
    np.testing.assert_equal(scipy_welch_less(t, b), expected)


def test_training_rejects_tiny_arms():
    cfg = TrialConfig(
        channel=ChannelModel.discrete(isi1_trace(10)),
        source=BitSource.bernoulli(0.5),
        window=WindowSpec(10),
    )
    with pytest.raises(ValueError):
        compare_training(cfg, 1, 0)


# ---------------------------------------------------------------- coarse


def test_coarse_confidence_reference():
    # 20 tau window walked in 4 tau coarse steps: 5 coarse positions
    est = coarse_first_confidence(WindowSpec(5))
    assert est == CoarseFirstEstimate(cycles=48, confidence=0.99, divided_period_ns=4.0)
    assert est.time_ns == pytest.approx(192.0)


def test_coarse_confidence_tiny_window():
    assert coarse_first_confidence(WindowSpec(2)).cycles == 7


def test_coarse_confidence_monotone():
    cycles = [
        coarse_first_confidence(WindowSpec(12), confidence=c).cycles
        for c in (0.5, 0.9, 0.99, 0.999)
    ]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) > 1


def test_coarse_rejects_bad_period():
    with pytest.raises(ValueError):
        coarse_first_confidence(WindowSpec(8), divided_period_ns=0.0)
