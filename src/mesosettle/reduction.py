"""Settling-time reduction techniques and their effect sizes."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import stdtr

from .jitter import (
    WindowSpec, build_biased_chain, build_isi1_chain, position_profile, start_distribution,
)
from .markov import transitions_for_confidence
from .sim import BitSource, MonteCarloResult, TrialConfig, _trial_seed, run_monte_carlo

__all__ = [
    "ReductionReport",
    "CoarseFirstEstimate",
    "compare_mismatch",
    "compare_training",
    "coarse_first_confidence",
]


@dataclass(frozen=True)
class ReductionReport:
    """Baseline vs treated absorption statistics per starting position."""

    technique: str
    positions: np.ndarray
    baseline_mean: np.ndarray
    treated_mean: np.ndarray
    baseline_std: np.ndarray
    treated_std: np.ndarray
    trials: int | None = None
    p_value: float | None = None

    @property
    def reduction_mean(self) -> np.ndarray:
        return (self.baseline_mean - self.treated_mean) / self.baseline_mean

    @property
    def reduction_std(self) -> np.ndarray:
        return (self.baseline_std - self.treated_std) / self.baseline_std

    def at_position(self, position: int) -> dict:
        i = int(np.nonzero(self.positions == position)[0][0])
        return {
            "position": int(self.positions[i]),
            "baseline_mean": float(self.baseline_mean[i]),
            "treated_mean": float(self.treated_mean[i]),
            "reduction_mean": float(self.reduction_mean[i]),
            "baseline_std": float(self.baseline_std[i]),
            "treated_std": float(self.treated_std[i]),
            "reduction_std": float(self.reduction_std[i]),
        }


def compare_mismatch(width_steps: int, mismatch_percent) -> ReductionReport:
    """Analytic UP/DN mismatch comparison across all interior positions.

    The treated chain lives on the refined sub-grid; its rows at integer
    positions are read back so both columns share the tau axis.
    """
    window = WindowSpec(width_steps)
    positions, baseline_mean, baseline_std = position_profile(build_isi1_chain(window))
    sub, treated_mean, treated_std = position_profile(build_biased_chain(window, mismatch_percent))
    on_grid = sub == np.round(sub)
    return ReductionReport(
        technique="mismatch",
        positions=positions.astype(int),
        baseline_mean=baseline_mean,
        treated_mean=treated_mean[on_grid],
        baseline_std=baseline_std,
        treated_std=treated_std[on_grid],
    )


def _welch_less_pvalue(treated, baseline) -> float:
    """One-sided Welch p-value for H1: mean(treated) < mean(baseline).

    The closed form (Welch 1947): t over the unequal-variance standard
    error, with Welch-Satterthwaite degrees of freedom, into Student's t
    cdf.  Each arm's variance is its mean squared deviation times
    n / (n - 1), in the order ``scipy.stats.ttest_ind(treated, baseline,
    equal_var=False, alternative="less")`` computes it, which gives the
    same p to the last bit.  Each arm needs at least two samples.  Two
    zero-variance arms give nan for equal means, else 0 or 1.
    """
    arms = []
    for x in (treated, baseline):
        x = np.asarray(x, dtype=float)
        n = x.size
        m = x.mean()
        arms.append((m, np.mean((x - m) ** 2) * (n / (n - 1)) / n, n - 1))
    (m1, v1, d1), (m2, v2, d2) = arms
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (v1 + v2) ** 2 / (v1**2 / d1 + v2**2 / d2)
        t = (m1 - m2) / np.sqrt(v1 + v2)
    # df is undefined only when both variances are zero; t is then +-inf or nan
    return float(stdtr(1.0 if np.isnan(df) else df, t))


def compare_training(
    config: TrialConfig, trials: int, base_seed
) -> tuple[ReductionReport, MonteCarloResult, MonteCarloResult]:
    """Monte Carlo baseline vs training-pattern source from one start.

    One-sided Welch test of H1: training escapes in fewer cycles.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials per arm")
    treated_cfg = replace(config, source=BitSource.training_biased())
    baseline = run_monte_carlo(config, trials, _trial_seed(base_seed, 0))
    treated = run_monte_carlo(treated_cfg, trials, _trial_seed(base_seed, 1))
    b = baseline.escape_cycles[baseline.escaped_mask]
    t = treated.escape_cycles[treated.escaped_mask]
    # Welch's test needs two escapes per arm to estimate each variance
    p = float("nan")
    if min(b.size, t.size) >= 2:
        p = _welch_less_pvalue(t, b)
    report = ReductionReport(
        technique="training",
        positions=np.array([config.initial]),
        baseline_mean=np.array([baseline.mean_cycles]),
        treated_mean=np.array([treated.mean_cycles]),
        baseline_std=np.array([baseline.std_cycles]),
        treated_std=np.array([treated.std_cycles]),
        trials=trials,
        p_value=p,
    )
    return report, baseline, treated


@dataclass(frozen=True)
class CoarseFirstEstimate:
    cycles: int
    confidence: float
    divided_period_ns: float

    @property
    def time_ns(self) -> float:
        return self.cycles * self.divided_period_ns


def coarse_first_confidence(
    window: WindowSpec,
    confidence: float = 0.99,
    divided_period_ns: float = 4.0,
) -> CoarseFirstEstimate:
    """Divided-clock cycles until escape with the given confidence.

    Uses the symmetric window walk per divided cycle and converts to
    time with the divided-clock period.
    """
    if divided_period_ns <= 0:
        raise ValueError("divided period must be positive")
    chain = build_isi1_chain(window)
    init = start_distribution(chain, window.initial)
    n = transitions_for_confidence(chain, init, confidence)
    return CoarseFirstEstimate(cycles=n, confidence=confidence, divided_period_ns=divided_period_ns)
