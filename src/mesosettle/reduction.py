"""Settling-time reduction techniques and their effect sizes."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import stats as sstats

from .jitter import WindowSpec, build_biased_chain, build_isi1_chain, mismatch_substeps
from .markov import absorption_stats, point_mass, transitions_for_confidence
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

    The treated chain lives on the refined sub-grid; positions are read
    back at the aligned multiples so both columns share the tau axis.
    """
    window = WindowSpec(width_steps)
    base = build_isi1_chain(window)
    biased = build_biased_chain(base, mismatch_percent)
    _, s_r = mismatch_substeps(mismatch_percent)

    st_b = absorption_stats(base)
    st_t = absorption_stats(biased)
    positions = np.arange(1, width_steps)
    b_idx = positions - 1
    t_idx = positions * s_r - 1
    return ReductionReport(
        technique="mismatch",
        positions=positions,
        baseline_mean=st_b.mean[b_idx],
        treated_mean=st_t.mean[t_idx],
        baseline_std=st_b.std[b_idx],
        treated_std=st_t.std[t_idx],
    )


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
    p = float(sstats.ttest_ind(t, b, equal_var=False, alternative="less").pvalue)
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
    init = point_mass(chain, window.initial)
    n = transitions_for_confidence(chain, init, confidence)
    return CoarseFirstEstimate(cycles=n, confidence=confidence, divided_period_ns=divided_period_ns)
