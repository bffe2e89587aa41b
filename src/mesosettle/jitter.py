"""Chain builders for the jitter scenarios, in units of the phase step tau.

The clock position axis runs left to right with state 0 at the left
absorbing edge.  A single phase-detector rule is used throughout: a
crossing observed at time c with the clock at position p shifts the
clock right (+1 step) when c < p, left when c > p, and resolves c == p
with a fair coin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import coo_array
from scipy.special import erf, ndtr

from .markov import AbsorbingChain, absorption_stats

__all__ = [
    "WindowSpec",
    "IsiTraceModel",
    "GaussianJitterSpec",
    "CombinedJitterSpec",
    "isi1_trace",
    "isi2_trace",
    "build_isi1_chain",
    "build_isi2_chain",
    "wrong_update_probability",
    "build_gaussian_chain",
    "build_combined_chain",
    "build_biased_chain",
    "mismatch_substeps",
    "position_profile",
    "start_distribution",
    "sub_windows_to_steps",
    "ISI2_TAGS",
]


@dataclass(frozen=True)
class WindowSpec:
    """Window of susceptibility: width T_W and initial clock offset in tau."""

    width_steps: int
    initial_offset_steps: int | None = None

    def __post_init__(self):
        if self.width_steps < 0:
            raise ValueError("width_steps must be nonnegative")
        if self.initial_offset_steps is not None and not (
            0 < self.initial_offset_steps < self.width_steps
        ):
            raise ValueError("initial offset must lie strictly inside the window")

    @property
    def initial(self) -> int:
        """Configured start, defaulting to the center position."""
        if self.initial_offset_steps is None:
            return self.width_steps // 2
        return self.initial_offset_steps

    @property
    def gamma_steps(self) -> int:
        """Distance from the start to the right absorbing edge."""
        return self.width_steps - self.initial


# three-bit pattern (previous, current, next) -> crossing label at the
# current->next transition; early crossings (runt current bit) are A,
# late crossings are B, everything else has no data transition
ISI1_TABLE: dict[tuple[int, int, int], str | None] = {
    (0, 0, 0): None,
    (0, 0, 1): "B",
    (0, 1, 0): "A",
    (0, 1, 1): None,
    (1, 0, 0): None,
    (1, 0, 1): "A",
    (1, 1, 0): "B",
    (1, 1, 1): None,
}

# source FSM for two bits of memory: state = 3-bit history, emission on
# the shift-in of the next bit; only transitions carry a crossing label
ISI2_EMISSION: dict[tuple[int, int], str] = {
    (0b000, 1): "D",
    (0b001, 0): "A",
    (0b010, 1): "B",
    (0b011, 0): "C",
    (0b100, 1): "C",
    (0b101, 0): "B",
    (0b110, 1): "A",
    (0b111, 0): "D",
}

ISI2_TAGS = ("A", "B", "C", "D", "X1", "X2")

# last-event memory closure of the FSM: each tag has exactly two
# successor events, each with probability 1/2 under equiprobable bits
ISI2_SUCCESSORS: dict[str, tuple[str, str]] = {
    "A": ("B", "X1"),
    "B": ("B", "X1"),
    "C": ("A", "X1"),
    "D": ("A", "X1"),
    "X1": ("C", "X2"),
    "X2": ("D", "X2"),
}


@dataclass(frozen=True)
class IsiTraceModel:
    """Crossing positions and the pattern table that selects among them."""

    order: int
    crossing_positions: tuple[float, ...]
    transition_table: dict

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        pos = self.crossing_positions
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("crossing positions must be strictly increasing")

    @property
    def width_steps(self) -> float:
        return self.crossing_positions[-1] - self.crossing_positions[0]

    def crossing_of(self, label: str) -> float:
        return self.crossing_positions["ABCD".index(label)]


def isi1_trace(width_steps: int) -> IsiTraceModel:
    return IsiTraceModel(
        order=1,
        crossing_positions=(0.0, float(width_steps)),
        transition_table=dict(ISI1_TABLE),
    )


def isi2_trace(sub_ab: int, sub_bc: int, sub_cd: int) -> IsiTraceModel:
    a, b, c, d = 0, sub_ab, sub_ab + sub_bc, sub_ab + sub_bc + sub_cd
    return IsiTraceModel(
        order=2,
        crossing_positions=(float(a), float(b), float(c), float(d)),
        transition_table=dict(ISI2_EMISSION),
    )


def _birth_death_chain(left, stay, right, labels) -> AbsorbingChain:
    """Walk on 0..n-1 with both ends absorbing, built from its diagonals.

    Interior state i moves to i - 1, i, i + 1 with probabilities
    left[i - 1], stay[i - 1], right[i - 1].
    """
    n = len(stay) + 2
    i = np.arange(1, n - 1)
    rows, cols = np.r_[0, n - 1, i, i, i], np.r_[0, n - 1, i - 1, i, i + 1]
    p = coo_array((np.r_[1.0, 1.0, left, stay, right], (rows, cols)), shape=(n, n))
    return AbsorbingChain(p, frozenset({0, n - 1}), labels=labels)


def build_isi1_chain(window: WindowSpec) -> AbsorbingChain:
    """Lazy symmetric walk: P(RT) = P(LT) = 1/4, P(NA) = 1/2.

    Positions 0..width_steps with both edges absorbing.  Absorption is
    exactly the escape condition (n_R - n_L) tau >= gamma or
    (n_L - n_R) tau >= T_W - gamma.
    """
    w = window.width_steps
    if w < 2:
        raise ValueError("window narrower than 2 steps has no transient state")
    quarter = np.full(w - 1, 0.25)
    return _birth_death_chain(quarter, np.full(w - 1, 0.5), quarter, tuple(range(w + 1)))


def build_isi2_chain(sub_ab: int, sub_bc: int, sub_cd: int) -> AbsorbingChain:
    """Extended-state chain: (interior position) x (last-event memory).

    Six memory states per clock position; every extended state has two
    successor events of probability 1/2 from the source FSM.  A crossing
    moves the clock one step by the phase-detector rule (fair coin when
    the crossing sits exactly at the clock); positions at or beyond the
    outer crossings A and D are absorbing.
    """
    if min(sub_ab, sub_bc, sub_cd) < 1:
        raise ValueError("sub-window widths must be at least 1 step")
    trace = isi2_trace(sub_ab, sub_bc, sub_cd)
    w = int(trace.width_steps)
    n_tags = len(ISI2_TAGS)
    n_t = (w - 1) * n_tags
    left, right = n_t, n_t + 1
    n = n_t + 2

    def idx(pos: int, tag: str) -> int:
        return (pos - 1) * n_tags + ISI2_TAGS.index(tag)

    entries = [(left, left, 1.0), (right, right, 1.0)]  # (row, col, value)
    for pos in range(1, w):
        for tag in ISI2_TAGS:
            i = idx(pos, tag)
            for event in ISI2_SUCCESSORS[tag]:
                pr = 0.5
                if event.startswith("X"):
                    entries.append((i, idx(pos, event), pr))
                    continue
                c = trace.crossing_of(event)
                if c < pos:
                    moves = ((pos + 1, pr),)
                elif c > pos:
                    moves = ((pos - 1, pr),)
                else:
                    moves = ((pos + 1, pr / 2), (pos - 1, pr / 2))
                for npos, mp in moves:
                    j = left if npos <= 0 else right if npos >= w else idx(npos, event)
                    entries.append((i, j, mp))
    labels = tuple(
        (pos, tag) for pos in range(1, w) for tag in ISI2_TAGS
    ) + (("absorbed", "left"), ("absorbed", "right"))
    rows, cols, vals = zip(*entries)
    p = coo_array((vals, (rows, cols)), shape=(n, n))
    return AbsorbingChain(p, frozenset({left, right}), labels=labels)


def wrong_update_probability(m: float, spec: "GaussianJitterSpec") -> float:
    """P(update : wrong) = 1/2 - 1/2 erf(2 m tau / (sqrt(2) sigma_ck)).

    Odd-symmetric in m, so f(m) + f(-m) = 1 and f(0) = 1/2 exactly.
    """
    return float(0.5 - 0.5 * erf(2.0 * m / (np.sqrt(2.0) * spec.sigma_steps)))


@dataclass(frozen=True)
class GaussianJitterSpec:
    """Random clock jitter: sigma in tau units, window at +-truncation sigma."""

    sigma_steps: float
    truncation_sigmas: float = 3.0
    transition_probability: float = 0.5

    def __post_init__(self):
        if self.sigma_steps <= 0:
            raise ValueError("sigma_steps must be positive")
        if self.truncation_sigmas < 1:
            raise ValueError("truncation must be at least 1 sigma")
        if not 0 < self.transition_probability <= 1:
            raise ValueError("transition probability must lie in (0, 1]")

    @property
    def half_width_steps(self) -> int:
        return int(np.ceil(self.truncation_sigmas * self.sigma_steps))


def build_gaussian_chain(spec: GaussianJitterSpec) -> AbsorbingChain:
    """Walk on offsets m in [-M, M] from the window center, M = ceil(3 sigma).

    Per cycle a transition occurs with the configured probability; the
    update then moves toward the center with wrong_update_probability(|m|)
    and outward otherwise.  Boundary offsets are absorbing.
    """
    m_max = spec.half_width_steps
    n = 2 * m_max + 1
    if n < 3:
        raise ValueError("sigma too small: window has fewer than 3 positions")
    tp = spec.transition_probability
    m = np.arange(1, n - 1) - m_max
    wrong = np.array([wrong_update_probability(abs(k), spec) for k in m])
    toward, away = tp * wrong, tp * (1.0 - wrong)  # both tp / 2 at the center
    left, right = np.where(m > 0, toward, away), np.where(m > 0, away, toward)
    stay = np.full(n - 2, 1.0 - tp)
    return _birth_death_chain(left, stay, right, tuple(range(-m_max, m_max + 1)))


@dataclass(frozen=True)
class CombinedJitterSpec:
    """1-bit ISI crossings widened by Gaussian jitter of the clock."""

    sigma_steps: float
    w_ab_steps: int
    trace_probabilities: tuple[float, float, float] = (0.25, 0.25, 0.5)

    def __post_init__(self):
        if self.sigma_steps <= 0 or self.w_ab_steps < 1:
            raise ValueError("sigma must be positive and W_A-B at least 1 step")
        if abs(sum(self.trace_probabilities) - 1.0) > 1e-12:
            raise ValueError("P(A) + P(B) + P(NT) must equal 1")

    @property
    def collar_steps(self) -> int:
        return int(np.ceil(3.0 * self.sigma_steps))


def build_combined_chain(spec: CombinedJitterSpec) -> AbsorbingChain:
    """Positions spanning [-3 sigma, W_A-B + 3 sigma] in tau steps.

    The mixture CDF P(A) Phi((t - 0)/sigma) + P(B) Phi((t - W_AB)/sigma)
    is the probability that the cycle's crossing lands left of the clock;
    by the phase-detector rule that mass moves the clock right, the
    complement of the transition mass moves it left.  Outermost positions
    are absorbing.
    """
    pa, pb, pnt = spec.trace_probabilities
    collar = spec.collar_steps
    t_lo, t_hi = -collar, spec.w_ab_steps + collar
    n = t_hi - t_lo + 1
    if n < 3:
        raise ValueError("span narrower than 3 positions")
    sig = spec.sigma_steps
    t = np.arange(t_lo + 1, t_hi)
    crossing_left = pa * ndtr(t / sig) + pb * ndtr((t - spec.w_ab_steps) / sig)
    return _birth_death_chain(
        (pa + pb) - crossing_left,
        np.full(n - 2, pnt),
        crossing_left,
        tuple(range(t_lo, t_hi + 1)),
    )


def mismatch_substeps(mismatch_percent) -> tuple[int, int]:
    """Reduced integer sub-steps (s_left, s_right), s_L/s_R = 1 + m/100."""
    if mismatch_percent < 0:
        raise ValueError("mismatch must be nonnegative")
    ratio = (100 + Fraction(str(mismatch_percent))) / 100
    if ratio.denominator > 100:
        raise ValueError(
            f"mismatch {mismatch_percent}% needs sub-step denominator "
            f"{ratio.denominator} > 100"
        )
    return ratio.numerator, ratio.denominator


def build_biased_chain(base: AbsorbingChain, mismatch_percent) -> AbsorbingChain:
    """Refine the grid and enlarge the left step by the mismatch ratio.

    A right move advances s_R sub-steps and a left move s_L sub-steps
    with s_L/s_R = 1 + mismatch/100 (11 vs 10 for 10%).  The absorbing
    edges are re-expressed on the sub-grid; moves that overshoot an edge
    absorb there.
    """
    s_l, s_r = mismatch_substeps(mismatch_percent)
    w = base.n_states - 1
    if w < 2 or base.absorbing != frozenset({0, w}):
        raise ValueError("base must be a window chain absorbing at both edges")
    t = base.transitions
    c = t.tocoo()
    # interior rows 1..w-1 of a tridiagonal base, read off its diagonals
    left, stay = t.diagonal(-1)[: w - 1], t.diagonal()[1:w]
    p_left, p_stay = left[0], stay[0]
    if (
        np.any(np.abs(left - p_left) > 1e-12)
        or np.any(np.abs(stay - p_stay) > 1e-12)
        or np.any(np.abs(c.row - c.col) > 1)
    ):
        raise ValueError("base must be a birth-death chain with uniform rows")
    p_right = 1.0 - p_left - p_stay

    g = w * s_r
    n = g + 1
    i = np.arange(1, g)
    rows = np.r_[0, g, i, i, i]
    cols = np.r_[0, g, np.minimum(i + s_r, g), np.maximum(i - s_l, 0), i]
    vals = np.r_[1.0, 1.0, np.repeat([p_right, p_left, p_stay], g - 1)]
    p = coo_array((vals, (rows, cols)), shape=(n, n))
    labels = tuple(Fraction(i, s_r) for i in range(n))  # in tau units
    return AbsorbingChain(p, frozenset({0, g}), labels=labels)


def _transient_positions(chain: AbsorbingChain) -> tuple[np.ndarray, np.ndarray]:
    """Transient states in index order and the clock position of each.

    The one reader of state labels: a tuple label (a memory state of an
    extended chain) leads with its position; any other label is the position.
    """
    labels = chain.labels
    if labels is None:
        raise ValueError("chain carries no position labels")
    states = chain.transient
    heads = [labels[i][0] if isinstance(labels[i], tuple) else labels[i] for i in states]
    return states, np.array(heads, dtype=float)


def start_distribution(chain: AbsorbingChain, position) -> np.ndarray:
    """Start at a clock position, spread uniformly over its memory states."""
    states, positions = _transient_positions(chain)
    hits = states[positions == float(position)]
    if hits.size == 0:
        raise ValueError(f"initial position {position} is not a transient state")
    p0 = np.zeros(chain.n_states)
    p0[hits] = 1.0 / hits.size
    return p0


def position_profile(chain: AbsorbingChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean/std absorption time per clock position, positions ascending.

    Each position starts as in ``start_distribution``, a uniform mixture
    of its memory states: the mean averages their means, and the variance
    is their mean variance plus the variance of their means.
    """
    _, state_positions = _transient_positions(chain)
    stats = absorption_stats(chain)
    positions, group = np.unique(state_positions, return_inverse=True)
    counts = np.bincount(group)
    mean = np.bincount(group, weights=stats.mean) / counts
    spread = np.bincount(group, weights=(stats.mean - mean[group]) ** 2) / counts
    variance = np.bincount(group, weights=stats.variance) / counts + spread
    return positions, mean, np.sqrt(variance)


def sub_windows_to_steps(
    percents_ui: tuple[float, float, float], step_percent_ui: float
) -> tuple[int, int, int]:
    """Convert sub-window widths in % of UI to integer step counts."""
    if step_percent_ui <= 0:
        raise ValueError("step size must be positive")
    steps = tuple(int(round(p / step_percent_ui)) for p in percents_ui)
    if min(steps) < 1:
        raise ValueError("a sub-window rounds to zero steps at this step size")
    return steps
