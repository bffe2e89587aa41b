"""Chain builders for the jitter scenarios, in units of the phase step tau.

The clock position axis runs left to right with state 0 at the left
absorbing edge.  A single phase-detector rule is used throughout: a
crossing observed at time c with the clock at position p shifts the
clock right (+1 step) when c < p and left when c > p.  On a clean
trace a tie c == p has mass and takes a fair coin; a jittered crossing
lies on a continuous axis, so there a tie has probability zero, and
the simulator moves the clock left on one, drawing nothing.

Every model is one walk, a mixture of crossings: with crossing i at c_i
carrying mass p_i per cycle and clock jitter sigma, a clock at t moves
right with probability sum_i p_i Phi((t - c_i) / sigma), the mass of
crossings left of it (a step with the fair tie coin when sigma = 0),
moves left with the rest of sum_i p_i, and stays put with the
no-crossing mass.  ISI-2 adds memory tags: each tag carries its own
crossings, a crossing moves the walk to the tag of that event and a
quiet cycle to the tag's quiet successor; the other models have one tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.sparse import coo_array
from scipy.special import ndtr

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
    """Crossing positions and the pattern table that selects among them.

    codes[i] is the crossing index of the window of order + 2 bits that
    spells i in binary, oldest bit highest, or -1 for none.  ISI-1 keys are
    (previous, current, next) bits and ISI-2 keys a packed three-bit history
    plus the next bit, so reading a key as binary digits gives its window.
    A key of any other shape, or a label other than A, B, ... up to one per
    crossing position, raises ValueError.
    """

    order: int
    crossing_positions: tuple[float, ...]
    transition_table: dict
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        pos = self.crossing_positions
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("crossing positions must be strictly increasing")
        digits = [range(2)] * 3 if self.order == 1 else [range(8), range(2)]
        windows = {key: i for i, key in enumerate(product(*digits))}
        labels = {None: -1, **{label: i for i, label in enumerate("ABCD"[: len(pos)])}}
        codes = np.full(len(windows), -1, dtype=np.int8)
        for key, label in self.transition_table.items():
            if key not in windows:
                raise ValueError(
                    f"transition_table key {key!r} spells no window of {self.order + 2} bits"
                )
            if label not in labels:
                raise ValueError(f"transition_table label {label!r} of key {key!r} is no crossing")
            codes[windows[key]] = labels[label]
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

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


def _crossing_walk(lo, hi, tags, sigma, substeps=None, names=None) -> AbsorbingChain:
    """The module's crossing-mixture walk over clock positions lo..hi.

    Each memory tag is (crossings, stay, after, quiet): crossings a
    sequence of (position c, mass p) whose moves lead to tag ``after``,
    and the no-crossing mass ``stay`` leads to tag ``quiet``; a
    birth-death chain is the one tag (crossings, stay, 0, 0).  sigma is
    the jitter (0 for the step kernel) and both ends absorb.  States run
    position-major: 0 is the left edge, the last the right edge, and
    interior (k, tag) is (k - 1) * len(tags) + tag + 1.  With substeps
    (s_L, s_R) positions lie on a grid of 1/s_R, a right move advances
    s_R cells and a left move s_L, and a move that overshoots an edge
    absorbs there.  With names, interior labels are (position, name).
    """
    if hi - lo < 2:
        raise ValueError("window narrower than 2 steps has no transient state")
    s_l, s_r = substeps or (1, 1)
    g, m = (hi - lo) * s_r, len(tags)
    n = (g - 1) * m + 2
    i = np.arange(1, g)
    t = lo + i / s_r

    def state(k, tag):
        return np.where(k <= 0, 0, np.where(k >= g, n - 1, (k - 1) * m + tag + 1))

    edges = np.array([0, n - 1])
    triplets = [(edges, edges, np.ones(2))]  # (rows, cols, values)
    for tag, (crossings, stay, after, quiet) in enumerate(tags):
        if sigma > 0:
            right = sum(p * ndtr((t - c) / sigma) for c, p in crossings)
        else:
            right = sum(p * np.heaviside(t - c, 0.5) for c, p in crossings)
        left = sum(p for _, p in crossings) - right
        triplets.append((
            np.tile(state(i, tag), 3),
            np.r_[state(i - s_l, after), state(i, quiet), state(i + s_r, after)],
            np.r_[left, np.full(g - 1, stay), right],
        ))
    rows, cols, vals = map(np.concatenate, zip(*triplets))
    p = coo_array((vals, (rows, cols)), shape=(n, n))
    if substeps is None:
        positions = tuple(range(lo, hi + 1))
    else:
        positions = tuple(Fraction(lo * s_r + k, s_r) for k in range(g + 1))  # in tau units
    inner = positions[1:-1]
    if names is not None:
        inner = tuple((x, name) for x in inner for name in names)
    return AbsorbingChain(p, frozenset({0, n - 1}), labels=(positions[0], *inner, positions[-1]))


def build_isi1_chain(window: WindowSpec) -> AbsorbingChain:
    """Lazy symmetric walk: P(RT) = P(LT) = 1/4, P(NA) = 1/2.

    Positions 0..width_steps with both edges absorbing.  Absorption is
    exactly the escape condition (n_R - n_L) tau >= gamma or
    (n_L - n_R) tau >= T_W - gamma.
    """
    w = window.width_steps
    return _crossing_walk(0, w, [(((0, 0.25), (w, 0.25)), 0.5, 0, 0)], 0.0)


def build_isi2_chain(sub_ab: int, sub_bc: int, sub_cd: int) -> AbsorbingChain:
    """Extended-state chain: (interior position) x (last-event memory).

    Six memory tags per clock position, each the crossing walk with one
    crossing of mass 1/2: with 1/2 the next cycle crosses at the tag's
    successor event and moves to that tag, and with 1/2 it is quiet and
    moves to the quiet successor.  Positions at or beyond the outer
    crossings A and D are absorbing.
    """
    if min(sub_ab, sub_bc, sub_cd) < 1:
        raise ValueError("sub-window widths must be at least 1 step")
    trace = isi2_trace(sub_ab, sub_bc, sub_cd)
    tags = [
        (((trace.crossing_of(event), 0.5),), 0.5, ISI2_TAGS.index(event), ISI2_TAGS.index(quiet))
        for event, quiet in (ISI2_SUCCESSORS[tag] for tag in ISI2_TAGS)
    ]
    return _crossing_walk(0, int(trace.width_steps), tags, 0.0, names=ISI2_TAGS)


def wrong_update_probability(m: float, spec: "GaussianJitterSpec") -> float:
    """P(update : wrong) = 1/2 - 1/2 erf(2 m tau / (sqrt(2) sigma_ck)).

    The paper's form equals Phi(-2 m / sigma), which is how it is computed:
    Phi keeps the far tail that 1/2 - 1/2 erf cancels to 0.  Odd-symmetric
    in m, so f(m) + f(-m) = 1 and f(0) = 1/2 exactly.
    """
    return float(ndtr(-2.0 * m / spec.sigma_steps))


@dataclass(frozen=True)
class GaussianJitterSpec:
    """Random clock jitter: sigma in tau units, window at +-truncation sigma."""

    sigma_steps: float
    truncation_sigmas: float = 3.0
    transition_probability: float = 0.5

    def __post_init__(self):
        if not 0 < self.sigma_steps < np.inf:
            raise ValueError("sigma_steps must be positive and finite")
        if not 1 <= self.truncation_sigmas < np.inf:
            raise ValueError("truncation_sigmas must be finite and at least 1 sigma")
        if not 0 < self.transition_probability <= 1:
            raise ValueError("transition probability must lie in (0, 1]")

    @property
    def half_width_steps(self) -> int:
        return int(np.ceil(self.truncation_sigmas * self.sigma_steps))


def build_gaussian_chain(spec: GaussianJitterSpec) -> AbsorbingChain:
    """Walk on offsets m in [-M, M] from the window center, M = ceil(3 sigma).

    Per cycle a transition occurs with the configured probability; the
    update then moves toward the center with wrong_update_probability(|m|)
    and outward otherwise: one crossing at the center seen with jitter
    sigma / 2.  Boundary offsets are absorbing.
    """
    m_max, tp = spec.half_width_steps, spec.transition_probability
    return _crossing_walk(-m_max, m_max, [(((0, tp),), 1.0 - tp, 0, 0)], spec.sigma_steps / 2)


@dataclass(frozen=True)
class CombinedJitterSpec:
    """1-bit ISI crossings widened by Gaussian jitter of the clock."""

    sigma_steps: float
    w_ab_steps: int
    trace_probabilities: tuple[float, float, float] = (0.25, 0.25, 0.5)

    def __post_init__(self):
        if not 0 < self.sigma_steps < np.inf:
            raise ValueError("sigma_steps must be positive and finite")
        if self.w_ab_steps < 1:
            raise ValueError("w_ab_steps must be at least 1 step")
        if not abs(sum(self.trace_probabilities) - 1.0) <= 1e-12:
            raise ValueError("P(A) + P(B) + P(NT) must equal 1")

    @property
    def collar_steps(self) -> int:
        return int(np.ceil(3.0 * self.sigma_steps))


def build_combined_chain(spec: CombinedJitterSpec) -> AbsorbingChain:
    """Positions spanning [-3 sigma, W_A-B + 3 sigma] in tau steps.

    Crossings A at 0 and B at W_A-B with masses P(A) and P(B), seen with
    jitter sigma; P(NT) stays.  Outermost positions are absorbing.
    """
    pa, pb, pnt = spec.trace_probabilities
    collar, w_ab = spec.collar_steps, spec.w_ab_steps
    tags = [(((0, pa), (w_ab, pb)), pnt, 0, 0)]
    return _crossing_walk(-collar, w_ab + collar, tags, spec.sigma_steps)


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
    # walks count sub-steps in int64; s_R <= 100 fits, s_L may not
    if ratio.numerator > np.iinfo(np.int64).max:
        raise ValueError(
            f"mismatch_percent {mismatch_percent} needs {ratio.numerator} sub-steps "
            "per left step, past 64-bit integers"
        )
    return ratio.numerator, ratio.denominator


def build_biased_chain(window: WindowSpec, mismatch_percent) -> AbsorbingChain:
    """The ISI-1 walk with the left step enlarged by the mismatch ratio.

    Positions lie on a grid of 1/s_R steps; a right move advances s_R
    sub-steps and a left move s_L sub-steps with s_L/s_R = 1 +
    mismatch/100 (11 vs 10 for 10%).  Moves that overshoot an edge absorb
    there.  Labels are Fractions in tau units, also at 0% mismatch.
    """
    w = window.width_steps
    substeps = mismatch_substeps(mismatch_percent)
    return _crossing_walk(0, w, [(((0, 0.25), (w, 0.25)), 0.5, 0, 0)], 0.0, substeps)


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
