"""Behavioral Monte Carlo of the retiming loop plus waveform utilities.

Trials come in two kinds.  An edge walk -- a clean discrete trace whose
every crossing sits on a window edge, with or without mismatch or the
coarse-acquisition latch, fed by any bit source -- draws nothing but
bits, and each cycle's move follows from its bit window alone, so the
walk is a prefix sum of per-cycle moves.  ``_edge_walks`` steps a batch
of such trials together: ``run_monte_carlo`` sends them through it in
blocks of ``_BLOCK_TRIALS`` trials, each round holding at most
``_ROUND_ELEMENTS`` (trial, cycle) cells, and ``run_trial`` calls it as a
batch of one.  Every other trial (jitter, interior ISI-2 crossings, RC
lines) is a crossing-stream producer feeding ``_walk``, which moves the
clock one crossing at a time because each move depends on the position.
Trial k of a run always draws the stream of its own
``default_rng((base_seed, k))``, so its result does not depend on the
batch or the trial count.  ``_trial_rngs`` produces those streams a block
at a time: it runs SeedSequence's hashing and PCG64's seeding for the
whole block as array arithmetic and loads each state into a reused
generator, which draws what ``default_rng`` would have drawn.
Waveform helpers drive the RC ladder to produce eye diagrams and folded
crossing histograms for window extraction.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .jitter import GaussianJitterSpec, IsiTraceModel, WindowSpec, isi2_trace, mismatch_substeps

__all__ = [
    "TRAINING_PATTERN",
    "BitSource",
    "ChannelModel",
    "CoarseFirstSpec",
    "TrialConfig",
    "TrialResult",
    "MonteCarloResult",
    "EyeHistogram",
    "generate_bits",
    "propagate_rc",
    "eye_traces",
    "crossing_histogram",
    "run_trial",
    "run_monte_carlo",
    "REFERENCE_CHANNELS",
]

# minimum run lengths: one for '1', two for '0'
TRAINING_PATTERN: tuple[int, ...] = (0, 0, 1, 0, 0, 1, 1, 1)

# cycles per chunk of one walk: the first, and the cap as it grows fourfold
_CHUNK0 = 1024
_CHUNK_MAX = 65536
# trials seeded together (and edge walks stepped together), and the
# (trial, cycle) cells of one edge-walk round
_BLOCK_TRIALS = 512
_ROUND_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class BitSource:
    """Data pattern feeding the channel."""

    kind: str
    p: float = 0.5
    pattern: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("bernoulli", "training_biased", "alternating", "explicit"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "bernoulli" and not 0 <= self.p <= 1:
            raise ValueError("bit probability must lie in [0, 1]")
        if self.kind == "explicit":
            if not self.pattern or any(b not in (0, 1) for b in self.pattern):
                raise ValueError("explicit source needs a nonempty 0/1 pattern")

    @classmethod
    def bernoulli(cls, p: float = 0.5) -> "BitSource":
        return cls("bernoulli", p=p)

    @classmethod
    def training_biased(cls) -> "BitSource":
        return cls("training_biased", pattern=TRAINING_PATTERN)

    @classmethod
    def alternating(cls) -> "BitSource":
        return cls("alternating", pattern=(0, 1))

    @classmethod
    def explicit(cls, bits) -> "BitSource":
        return cls("explicit", pattern=tuple(int(b) for b in bits))

    @property
    def cycle_pattern(self) -> np.ndarray | None:
        if self.pattern is None:
            return None
        return np.asarray(self.pattern, dtype=np.int8)


@dataclass(frozen=True)
class ChannelModel:
    """Either a precomputed crossing trace or a physical RC ladder."""

    kind: str
    trace: IsiTraceModel | None = None
    jitter: GaussianJitterSpec | None = None
    sections: int = 20
    r_per_section: float = 1.0
    c_per_section_ui: float = 0.002
    samples_per_ui: int = 64

    def __post_init__(self):
        if self.kind == "discrete_trace":
            if self.trace is None:
                raise ValueError("discrete_trace channel needs a trace model")
        elif self.kind == "rc_line":
            if self.jitter is not None:
                raise ValueError("crossing jitter applies to discrete traces only")
            if self.sections < 1:
                raise ValueError("ladder needs at least one section")
            if self.r_per_section <= 0 or self.c_per_section_ui <= 0:
                raise ValueError("R and C must be positive")
            if self.samples_per_ui < 16:
                raise ValueError("need at least 16 samples per UI")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")

    @classmethod
    def discrete(
        cls, trace: IsiTraceModel, jitter: GaussianJitterSpec | None = None
    ) -> "ChannelModel":
        return cls("discrete_trace", trace=trace, jitter=jitter)

    @classmethod
    def rc(cls, r: float, c: float, samples_per_ui: int, sections: int = 20) -> "ChannelModel":
        return cls(
            "rc_line",
            sections=sections,
            r_per_section=r,
            c_per_section_ui=c,
            samples_per_ui=samples_per_ui,
        )

    @property
    def section_tau_ui(self) -> float:
        return self.r_per_section * self.c_per_section_ui


# frozen ladder operating points: single-, double- and quadruple-peaked
# crossing histograms at matched dt <= RC/4
REFERENCE_CHANNELS: dict[str, ChannelModel] = {
    "benign": ChannelModel.rc(r=1.0, c=0.0015, samples_per_ui=2688),
    "moderate": ChannelModel.rc(r=1.0, c=0.0028, samples_per_ui=1472),
    "heavy": ChannelModel.rc(r=1.0, c=0.0050, samples_per_ui=832),
}


@dataclass(frozen=True)
class CoarseFirstSpec:
    """Coarse acquisition: big steps every cycle in the latched direction."""

    coarse_step_steps: int = 1
    duration_cycles: int = 0

    def __post_init__(self):
        if self.coarse_step_steps < 1:
            raise ValueError("coarse step must be at least one fine step")
        if self.duration_cycles < 0:
            raise ValueError("duration must be nonnegative")


@dataclass(frozen=True)
class TrialConfig:
    channel: ChannelModel
    source: BitSource
    window: WindowSpec | None = None
    step_tau: float = 0.001
    initial_position: int | None = None
    max_cycles: int = 1_000_000
    mismatch_percent: float = 0.0
    coarse_first: CoarseFirstSpec | None = None
    record_trajectory: bool = False
    # (s_left, s_right) sub-steps of the mismatch, resolved once here
    _substeps: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.step_tau <= 0:
            raise ValueError("step_tau must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")
        object.__setattr__(self, "_substeps", mismatch_substeps(self.mismatch_percent))
        if self.channel.kind == "rc_line":
            # the susceptibility window is measured off the waveform
            if self.window is not None:
                raise ValueError("rc_line trials derive the window from the channel")
            if self.coarse_first is not None:
                raise ValueError("coarse acquisition needs a discrete trace channel")
            return
        trace = self.channel.trace
        if self.window is None:
            raise ValueError("discrete trials need an explicit window")
        width = self.window.width_steps
        if width == 0:
            if self.initial_position not in (None, 0):
                raise ValueError("a degenerate window only admits position 0")
            return
        coarse = self.coarse_first
        # walks count sub-steps in int64
        s_r = self._substeps[1]
        coarse_step = coarse.coarse_step_steps if coarse is not None else 0
        for key, steps in (("width_steps", width), ("coarse_step_steps", coarse_step)):
            if steps * s_r > np.iinfo(np.int64).max:
                raise ValueError(
                    f"{key} {steps} is {steps * s_r} sub-steps, past 64-bit integers"
                )
        pos = trace.crossing_positions
        if pos[0] < 0 or pos[-1] > width:
            raise ValueError("crossing band must fit inside the window")
        if not 0 < self.initial < width:
            raise ValueError("initial position must lie strictly inside the window")
        if coarse is not None and coarse.duration_cycles > 0:
            edge = self.channel.jitter is None and set(pos) <= {0, width}
            if not (edge and trace.order == 1 and len(pos) == 2):
                raise ValueError("coarse acquisition supports clean two-crossing traces only")

    @property
    def initial(self) -> int:
        if self.initial_position is not None:
            return self.initial_position
        if self.window is None:
            raise ValueError("initial position is resolved after window calibration")
        return self.window.initial


@dataclass(frozen=True)
class TrialResult:
    escaped: bool
    escape_cycle: int | None
    exit_side: str | None
    trajectory: np.ndarray | None = None


@dataclass(frozen=True)
class MonteCarloResult:
    """Escape cycles per trial; -1 marks trials that never escaped."""

    escape_cycles: np.ndarray
    exit_sides: np.ndarray  # -1 left, +1 right, 0 not escaped

    @property
    def n_trials(self) -> int:
        return self.escape_cycles.size

    @property
    def escaped_mask(self) -> np.ndarray:
        return self.escape_cycles >= 0

    @property
    def n_escaped(self) -> int:
        return int(self.escaped_mask.sum())

    @property
    def n_censored(self) -> int:
        """Trials that reached max_cycles without escaping."""
        return self.n_trials - self.n_escaped

    @property
    def escaped_fraction(self) -> float:
        return float(self.escaped_mask.mean())

    @property
    def mean_cycles(self) -> float:
        if not self.n_escaped:
            return float("nan")
        return float(self.escape_cycles[self.escaped_mask].mean())

    @property
    def std_cycles(self) -> float:
        """Sample std of the escaped trials' cycles; nan below two escapes."""
        cyc = self.escape_cycles[self.escaped_mask]
        return float(cyc.std(ddof=1)) if cyc.size > 1 else float("nan")

    @property
    def stderr_cycles(self) -> float:
        n = self.n_escaped
        return self.std_cycles / np.sqrt(n) if n else float("nan")

    @property
    def exit_right_fraction(self) -> float:
        return float((self.exit_sides > 0).mean())

    def escaped_within(self, cycles: int) -> float:
        mask = self.escaped_mask & (self.escape_cycles <= cycles)
        return float(mask.mean())


def generate_bits(source: BitSource, n: int, rng, phase=0) -> np.ndarray:
    """n bits from the source; pattern sources start phase bits into the pattern.

    rng may also be a list of generators with phase an array of as many
    phases: the result then has one row of n bits per generator, each
    row drawn from its own generator.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if source.kind != "bernoulli":
        pat = source.cycle_pattern
        return pat[(np.asarray(phase)[..., None] + np.arange(n)) % pat.size]
    if isinstance(rng, np.random.Generator):
        return (rng.random(n) < source.p).astype(np.int8)
    u = np.empty((len(rng), n))
    for r, row in zip(rng, u):
        r.random(out=row)
    return (u < source.p).view(np.int8)


class _BitStreams:
    """The bit streams of a batch of trials, one per generator.

    Each trial's first draw is its pattern phase, which decorrelates trials
    of a periodic source; other sources start at 0 and draw nothing.
    take(n) gives each live trial's next n bits as a row of a (trials, n)
    block, and keep(live) retires the trials that the mask live leaves out.
    """

    def __init__(self, source: BitSource, rngs):
        self.source, self.rngs = source, list(rngs)
        period = len(source.pattern) if source.kind in ("training_biased", "alternating") else 0
        self.phase = np.array([int(r.integers(period)) if period else 0 for r in self.rngs])

    def take(self, n: int) -> np.ndarray:
        bits = generate_bits(self.source, n, self.rngs, self.phase)
        self.phase += n
        return bits

    def keep(self, live: np.ndarray) -> None:
        self.rngs = [r for r, keep in zip(self.rngs, live) if keep]
        self.phase = self.phase[live]


def _windows(seq: np.ndarray, ctx: int) -> np.ndarray:
    """Every run of ctx + 1 bits along seq's last axis read as a binary
    number, oldest bit highest: the index into IsiTraceModel.codes."""
    n = seq.shape[-1] - ctx
    # windows of at most four bits fit in int8
    key = seq[..., :n]
    for j in range(1, ctx + 1):
        key = 2 * key + seq[..., j : j + n]
    return key.astype(np.intp)


def _trace_events(trace: IsiTraceModel, cross: np.ndarray, sigma: float, bits: _BitStreams):
    """Crossing producer of a discrete trace: codes read off one trial's bit stream."""
    ctx = trace.order + 1
    tail = bits.take(ctx)

    def events(n: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal tail
        seq = np.concatenate([tail, bits.take(n)], axis=1)
        tail = seq[:, -ctx:]
        code = trace.codes[_windows(seq, ctx)[0]]
        t = np.flatnonzero(code >= 0)
        c = cross[code[t]]
        if sigma:
            c = c + sigma * bits.rngs[0].standard_normal(t.size)
        return t, c

    return events


def _trial_result(cycle, side: int, trajectory) -> TrialResult:
    """side is -1 for a left exit, +1 for a right one and 0 for no escape."""
    if not side:
        return TrialResult(False, None, None, trajectory)
    return TrialResult(True, int(cycle), "left" if side < 0 else "right", trajectory)


def _trajectory(pieces, s_r: int, w: int, side: int) -> np.ndarray:
    """Position in steps after each cycle, from the per-chunk positions in
    sub-steps; an escaped walk ends on the edge it left by."""
    trajectory = np.concatenate(pieces) / s_r
    if side:
        trajectory[-1] = 0.0 if side < 0 else float(w)
    return trajectory


def _walk(events, cycles: int, pos: int, w: int, substeps, rng, record: bool) -> TrialResult:
    """The phase-detector walk over a crossing stream, one crossing at a time.

    events(n) gives the crossings of the next n cycles as cycle indices t
    (-1 for a crossing just before the chunk) and positions c in
    sub-steps; a crossing left of the clock moves it s_r sub-steps right,
    one right of it s_l sub-steps left, and a fair coin decides a tie.
    Positions 0 and g = w * s_r absorb.  Only walks whose moves depend on
    the position come here: jitter, interior crossings and RC lines.
    """
    s_l, s_r = substeps
    g = w * s_r
    traj = [np.array([pos], dtype=float)] if record else None
    base, cycle, side, chunk = 0, None, 0, _CHUNK0
    while cycles > 0 and cycle is None:
        n = min(chunk, cycles)
        t, c = events(n)
        steps, p = [], pos
        for ck in c.tolist():
            if ck < p or (ck == p and rng.random() < 0.5):
                p += s_r
            else:
                p -= s_l
            steps.append(p)
            if p <= 0 or p >= g:
                break
        path = np.array(steps, dtype=np.int64)
        if path.size and (path[-1] <= 0 or path[-1] >= g):
            t = t[: path.size]
            cycle = base + int(t[-1]) + 1
            side = -1 if path[-1] <= 0 else 1
        if record:
            # per cycle, the position after its last crossing so far
            stop = max(int(t[-1]), 0) + 1 if cycle is not None else n
            seen = np.searchsorted(np.maximum(t, 0), np.arange(stop), side="right")
            traj.append(np.r_[pos, path][seen].astype(float))
        if path.size:
            pos = int(path[-1])
        base += n
        cycles -= n
        chunk = min(chunk * 4, _CHUNK_MAX)

    return _trial_result(cycle, side, _trajectory(traj, s_r, w, side) if record else None)


def _is_edge_walk(config: TrialConfig) -> bool:
    """Whether config's trials are edge walks: a degenerate window, or a
    clean discrete trace whose every crossing sits on a window edge, so
    that each cycle's move follows from its bit window alone."""
    if config.channel.kind == "rc_line":
        return False
    w = config.window.width_steps
    return w == 0 or (
        config.channel.jitter is None and set(config.channel.trace.crossing_positions) <= {0, w}
    )


def _edge_walks(config: TrialConfig, rngs, record: bool = False):
    """Edge walks of one config, one trial per generator, stepped together.

    Trial k draws from its own generator rngs[k] (a block of _trial_rngs,
    or run_trial's default_rng), in a fixed order:
    the pattern phase, the ctx bits, the coarse coin, then payload bits;
    so no trial depends on the others in its batch.  Each round stacks the
    active trials' next bits into one (trials, cycles) block, maps every
    bit window to a turn (+1 right, -1 left, 0 quiet) through the trace's codes,
    holds the latest turn through quiet cycles while the coarse latch
    runs, and takes each row's walk as a prefix sum of its moves; rows
    that escaped retire.  A round holds at most _ROUND_ELEMENTS cycles
    over all its rows.  Returns escape cycles (-1 for none), exit sides
    (-1 left, +1 right, 0 none) and, when record is set on a batch of
    one, the trajectory in steps.
    """
    cycles = np.full(len(rngs), -1, dtype=np.int64)
    sides = np.zeros(len(rngs), dtype=np.int8)
    w = config.window.width_steps
    if w == 0:
        # degenerate window: the start position is already at the edge
        cycles[:], sides[:] = 0, -1
        return cycles, sides, np.zeros(1) if record else None
    trace = config.channel.trace
    s_l, s_r = config._substeps
    g = w * s_r
    # a crossing on the left edge lies left of every interior clock
    left = np.asarray(trace.crossing_positions)[trace.codes] <= 0
    turn = np.where(trace.codes < 0, 0, np.where(left, 1, -1))
    fine = np.where(turn > 0, s_r, np.where(turn < 0, -s_l, 0))
    ctx = trace.order + 1
    coarse = config.coarse_first
    latch = min(coarse.duration_cycles, config.max_cycles) if coarse is not None else 0

    # each trial's draws keep their order: phase, ctx bits, coin, payload
    bits = _BitStreams(config.source, rngs)
    tail = bits.take(ctx)
    held = np.zeros(len(rngs), dtype=np.int64)
    if latch:
        # the latch starts at a coin-chosen edge; the left one turns the clock right
        held[:] = [1 if r.random() < 0.5 else -1 for r in rngs]
    rows = np.arange(len(rngs))
    pos = np.full(rows.size, config.initial * s_r, dtype=np.int64)
    traj = [pos[:1]] if record else None
    base, chunk = 0, _CHUNK0
    while rows.size and base < config.max_cycles:
        latched = base < latch
        stop = latch if latched else config.max_cycles
        n = min(chunk, max(1, _ROUND_ELEMENTS // rows.size), stop - base)
        seq = np.concatenate([tail, bits.take(n)], axis=1)
        key = _windows(seq, ctx)
        if latched:
            # column 0 holds the previous round's latch, column j cycle j - 1's turn
            t = np.concatenate([held[:, None], turn[key]], axis=1)
            last = np.maximum.accumulate(np.where(t != 0, np.arange(n + 1), 0), axis=1)
            t = np.take_along_axis(t, last, axis=1)[:, 1:]
            held = t[:, -1]
            moves = t * (coarse.coarse_step_steps * s_r)
        else:
            moves = fine[key]
        moves[:, 0] += pos
        path = np.cumsum(moves, axis=1, out=moves)
        out = (path <= 0) | (path >= g)
        hit = out.any(axis=1)
        at = out.argmax(axis=1)
        if record:
            traj.append(path[0, : at[0] + 1 if hit[0] else n])
        cycles[rows[hit]] = base + at[hit] + 1
        sides[rows[hit]] = np.where(path[hit, at[hit]] <= 0, -1, 1)
        live = ~hit
        bits.keep(live)
        rows, pos = rows[live], path[live, -1]
        tail, held = seq[live, -ctx:], held[live]
        base += n
        chunk = min(chunk * 4, _CHUNK_MAX)

    return cycles, sides, _trajectory(traj, s_r, w, sides[0]) if record else None


def run_trial(config: TrialConfig, seed) -> TrialResult:
    """One trial drawing from default_rng(seed): seed may be an int, a
    sequence of ints or a Generator, which the trial then draws from."""
    rng = np.random.default_rng(seed)
    if _is_edge_walk(config):
        cycles, sides, traj = _edge_walks(config, [rng], config.record_trajectory)
        return _trial_result(cycles[0], sides[0], traj)
    if config.channel.kind == "rc_line":
        return _rc_trial(config, rng)
    trace = config.channel.trace
    s_r = config._substeps[1]
    cross = np.asarray(trace.crossing_positions) * s_r
    sigma = config.channel.jitter.sigma_steps * s_r if config.channel.jitter else 0.0
    events = _trace_events(trace, cross, sigma, _BitStreams(config.source, [rng]))
    return _walk(events, config.max_cycles, config.initial * s_r, config.window.width_steps,
                 config._substeps, rng, config.record_trajectory)


_RC_CAL_UI = 288


def _rc_trial(config: TrialConfig, rng: np.random.Generator) -> TrialResult:
    """Trial over a physical line: crossings are measured off the waveform.

    A bernoulli calibration burst locates the susceptibility band; the
    payload then runs through the same line state so the line never
    resets.  Window width in steps comes from the measured band width.
    """
    line = _RcLine(config.channel)
    hist = _fold_crossings(line.crossings(rng.random(_RC_CAL_UI) < 0.5))
    win_ui = hist.window_ui

    s_r = config._substeps[1]
    w = max(2, int(round(win_ui / config.step_tau)))
    init = config.initial_position if config.initial_position is not None else w // 2
    if not 0 < init < w:
        raise ValueError(
            f"initial position must lie strictly inside the measured {w}-step window"
        )
    events = _rc_events(line, _BitStreams(config.source, [rng]), hist.band_start_ui, win_ui,
                        s_r / config.step_tau)
    return _walk(events, config.max_cycles, init * s_r, w, config._substeps, rng,
                 config.record_trajectory)


def _rc_events(line: _RcLine, bits: _BitStreams, band: float, win_ui: float, scale: float):
    """Crossing producer of an RC line: the first crossing of each cycle,
    placed relative to the band start and scaled to sub-steps."""
    last = -2  # cycle of the previous chunk's last crossing, counted from this chunk

    def events(n: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal last
        t_ui = line.crossings(bits.take(n)[0])
        ui = np.floor(t_ui).astype(np.int64)
        # a lookback crossing (ui -1) is first only if the previous chunk
        # gave its cycle none
        first = np.diff(ui, prepend=last) != 0
        last = (ui[-1] if ui.size else last) - n
        x = (t_ui[first] % 1.0 - band) % 1.0
        x = np.where(x > (win_ui + 1.0) / 2, x - 1.0, x)  # just left of the band start
        return ui[first], x * scale

    return events


def _trial_seed(base_seed, k: int):
    """Trial k's seed: the entries of a list or tuple base_seed, or the
    scalar itself, then k; default_rng judges the entries."""
    if isinstance(base_seed, (list, tuple)):
        return (*base_seed, k)
    return (base_seed, k)


# SeedSequence's hash constants (NumPy NEP 19) and PCG64's 128-bit LCG
# multiplier (O'Neill 2014)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1


def _seed_words(base_seed) -> list[int] | None:
    """SeedSequence's uint32 entropy words for the entries of base_seed,
    low word first within each; None for a base the fast path leaves to
    default_rng (a negative, non-integer or nested entry)."""
    words = []
    for v in base_seed if isinstance(base_seed, (list, tuple)) else (base_seed,):
        if not isinstance(v, (int, np.integer)) or v < 0:
            return None
        v = int(v)
        words.append(v & _M32)
        while v := v >> 32:
            words.append(v & _M32)
    return words


def _pcg64_states(base_seed, lo: int, hi: int) -> list[tuple[int, int]] | None:
    """(state, inc) of default_rng(_trial_seed(base_seed, k)) for k in
    [lo, hi), or None when the seeds are not plain non-negative integers
    with k < 2**32.

    SeedSequence's pool mixing and generate_state(4, uint64) run once for
    the block: words before k's stay Python ints, and from k's word on
    every value is a uint32 array over the block, wrapping as the C code
    does.  PCG64's srandom then takes the first two words as the initial
    state and the last two as the stream.
    """
    prefix = _seed_words(base_seed)
    if prefix is None or hi > 1 << 32:
        return None
    entropy = [*prefix, np.arange(lo, hi, dtype=np.uint32)]
    entropy += [0] * (_SS_POOL - len(entropy))
    h = _SS_INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _SS_MULT_A & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        v = ((_SS_MIX_L * x & _M32) - (_SS_MIX_R * y & _M32)) & _M32
        return v ^ v >> 16

    pool = [hashmix(e) for e in entropy[:_SS_POOL]]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(e))

    h, words = _SS_INIT_B, []
    for i in range(8):
        v = pool[i % _SS_POOL] ^ h
        h = h * _SS_MULT_B & _M32
        v = v * h & _M32
        words.append(v ^ v >> 16)
    # uint32 pairs read little-endian as the four uint64 words
    seeds = np.stack(words, axis=1).astype("<u4").view("<u8").tolist()
    out = []
    for s_hi, s_lo, i_hi, i_lo in seeds:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
    return out


# generators that no live batch holds, per thread
_FREE_RNGS = threading.local()


@contextmanager
def _trial_rngs(base_seed, lo: int, hi: int):
    """The generators of trials lo..hi-1 of a run, each drawing exactly the
    stream of default_rng(_trial_seed(base_seed, k)).

    The states come from _pcg64_states and load into generators taken from
    this thread's free list, which grows on first use; they go back when
    the block ends, so no generator serves two live batches.  Seeds outside
    the fast path go through default_rng, which raises as it always has.
    """
    states = _pcg64_states(base_seed, lo, hi)
    if states is None:
        yield [np.random.default_rng(_trial_seed(base_seed, k)) for k in range(lo, hi)]
        return
    free = _FREE_RNGS.__dict__.setdefault("rngs", [])
    rngs = [free.pop() if free else np.random.Generator(np.random.PCG64(0)) for _ in states]
    for rng, (state, inc) in zip(rngs, states):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
    try:
        yield rngs
    finally:
        free.extend(rngs)


def run_monte_carlo(config: TrialConfig, trials: int, base_seed) -> MonteCarloResult:
    """Independent trials with per-trial seeds (base_seed, trial_index).

    Trials run in blocks of _BLOCK_TRIALS, each seeded at once by
    _trial_rngs: edge walks step a block together through _edge_walks,
    and every other walk runs run_trial on each trial's generator.  Trial
    k's result does not depend on the trial count.  Trajectories are not
    recorded.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    cycles = np.full(trials, -1, dtype=np.int64)
    sides = np.zeros(trials, dtype=np.int8)
    edge = _is_edge_walk(config)
    cfg = replace(config, record_trajectory=False)
    for lo in range(0, trials, _BLOCK_TRIALS):
        hi = min(lo + _BLOCK_TRIALS, trials)
        with _trial_rngs(base_seed, lo, hi) as rngs:
            if edge:
                cycles[lo:hi], sides[lo:hi], _ = _edge_walks(cfg, rngs)
                continue
            for k, rng in enumerate(rngs, lo):
                res = run_trial(cfg, rng)
                if res.escaped:
                    cycles[k] = res.escape_cycle
                    sides[k] = -1 if res.exit_side == "left" else 1
    return MonteCarloResult(cycles, sides)


def _rc_system(channel: ChannelModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-Euler modal filters for the ladder.

    The section matrix is symmetric tridiagonal so one eigh gives a bank
    of first-order filters: per mode a numerator gain, a pole, and an
    output weight.
    """
    spu = channel.samples_per_ui
    rc = channel.section_tau_ui
    dt = 1.0 / spu
    if dt > rc / 4 + 1e-15:
        raise ValueError(
            f"time step {dt:.3g} UI exceeds RC/4 = {rc / 4:.3g} UI; raise samples_per_ui"
        )
    n = channel.sections
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = -2.0
    a[n - 1, n - 1] = -1.0
    a[idx[:-1], idx[:-1] + 1] = 1.0
    a[idx[:-1] + 1, idx[:-1]] = 1.0
    a /= rc
    lam, q = np.linalg.eigh(a)
    mu = 1.0 / (1.0 - dt * lam)
    gain = dt * mu * q[0, :] / rc
    return gain, mu, q[-1, :]


# the receiver's decision level: a crossing is where the waveform passes it
_THRESHOLD = 0.5
# room the crossing screen leaves for rounding in the closed-form samples
_SCREEN_MARGIN = 1e-9
# samples evaluated at once when screening for crossings
_BLOCK_SAMPLES = 1 << 20


def lfilter(b, a, x, zi) -> tuple[np.ndarray, np.ndarray]:
    """First-order recursion y[n] = b[0] * x[n] + p * y[n - 1], p = -a[1].

    The call and result of ``scipy.signal.lfilter`` for a first-order
    filter with a[0] == 1: zi[0] is the p * y[-1] term entering y[0], and
    the returned zf is p times the last output.  The recursion is a
    doubling scan (Blelloch 1990): after the round with shift d, y[n]
    sums the first 2d terms of its series, so log2(len(x)) rounds of
    whole-array work replace the per-sample loop.
    """
    p = -a[1]
    y = b[0] * np.asarray(x, dtype=float)
    if not y.size:
        return y, np.asarray(zi, dtype=float)
    y[0] += zi[0]
    d, pd = 1, p
    while d < y.size and pd != 0.0:
        # the product is a new array, so every term added is from the last round
        y[d:] += pd * y[:-d]
        d, pd = 2 * d, pd * pd
    return y, np.array([p * y[-1]])


class _RcLine:
    """The ladder stepped one UI at a time; its state carries from one call to the next.

    The input is constant within a UI, so a mode with per-sample pole mu
    and DC level s per unit input (gain / (1 - mu)) that starts a UI at
    s*u + d sits at s*u + mu**(j+1) * d after the UI's sample j.  The
    modal state therefore advances with one UI-rate filter per mode, pole
    mu**spu, and any UI's samples follow in closed form from its start.
    """

    def __init__(self, channel: ChannelModel):
        self.spu = channel.samples_per_ui
        gain, mu, self.wout = _rc_system(channel)
        self.level = gain / (1.0 - mu)
        self.pole = mu**self.spu
        self.dc = float(self.wout @ self.level)
        # (spu, modes): each mode's decay to sample j, weighted by its output tap
        self.decay = mu ** np.arange(1, self.spu + 1)[:, None] * self.wout
        self.state = np.zeros(mu.size)

    def _step(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Input per UI and each mode's deviation d from its DC level at the
        UI's start, (UIs, modes); the state moves to the end of the bits."""
        u = np.asarray(bits, dtype=float)
        ends = np.empty((u.size, self.state.size))
        for i, p in enumerate(self.pole):
            ends[:, i], _ = lfilter(
                [self.level[i] * (1.0 - p)], [1.0, -p], u, zi=[p * self.state[i]]
            )
        starts = np.vstack([self.state, ends])
        self.state = starts[-1]
        return u, starts[:-1] - u[:, None] * self.level

    def _samples(self, dev: np.ndarray, level: np.ndarray) -> np.ndarray:
        """(UIs, spu) samples of UIs with deviations dev, offset by level per UI."""
        return dev @ self.decay.T + level[:, None]

    def waveform(self, bits: np.ndarray) -> np.ndarray:
        u, dev = self._step(bits)
        return self._samples(dev, self.dc * u).ravel()

    def crossings(self, bits: np.ndarray) -> np.ndarray:
        """Linearly interpolated crossings of _THRESHOLD, in UI from the start of bits.

        The sample before the first one is the previous call's last, so a
        crossing between the two lands just before 0.  Samples are computed
        only in UIs that can cross: every sample of a UI, and the one before
        it, lies within sum |w * d| of its settled level dc * u.
        """
        u, dev = self._step(bits)
        level = self.dc * u - _THRESHOLD
        before = dev @ self.wout + level
        # a UI whose end samples straddle the threshold passes this test too
        keep = np.flatnonzero(np.abs(level) <= np.abs(dev) @ np.abs(self.wout) + _SCREEN_MARGIN)
        times = [np.empty(0)]
        rows = max(1, _BLOCK_SAMPLES // self.spu)
        for lo in range(0, keep.size, rows):
            k = keep[lo : lo + rows]
            s = np.empty((k.size, self.spu + 1))
            s[:, 0] = before[k]
            s[:, 1:] = self._samples(dev[k], level[k])
            r, j = np.nonzero(np.signbit(s[:, :-1]) != np.signbit(s[:, 1:]))
            frac = s[r, j] / (s[r, j] - s[r, j + 1])
            # column j holds sample j - 1 of its UI
            times.append((k[r] * self.spu + j + frac - 1.0) / self.spu)
        return np.concatenate(times)


def propagate_rc(channel: ChannelModel, bits: np.ndarray) -> np.ndarray:
    """NRZ bits through the RC ladder from rest; returns the far-end waveform."""
    if channel.kind != "rc_line":
        raise ValueError("propagate_rc needs an rc_line channel")
    return _RcLine(channel).waveform(bits)


def eye_traces(
    waveform: np.ndarray, samples_per_ui: int, skip_ui: int = 30, n_segments: int = 40
) -> np.ndarray:
    """(n_segments, samples_per_ui) overlay of consecutive UI slices."""
    start = skip_ui * samples_per_ui
    avail = (waveform.size - start) // samples_per_ui
    if avail < 1:
        raise ValueError("waveform too short for the requested overlay")
    n_segments = min(n_segments, avail)
    stop = start + n_segments * samples_per_ui
    return waveform[start:stop].reshape(n_segments, samples_per_ui)


@dataclass(frozen=True)
class EyeHistogram:
    """Threshold crossings folded into one UI, with cluster structure."""

    crossings_ui: np.ndarray
    bin_centers: np.ndarray
    counts: np.ndarray
    cluster_centers: np.ndarray
    cluster_weights: np.ndarray
    window_ui: float
    sub_gaps_ui: np.ndarray
    band_start_ui: float = 0.0

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_centers.size)

    @property
    def eye_opening_ui(self) -> float:
        """Horizontal eye opening: the crossing-free fraction of the UI."""
        return 1.0 - float(self.window_ui)


def crossing_histogram(
    waveform: np.ndarray,
    samples_per_ui: int,
    *,
    warmup_ui: int = 30,
    bins: int = 100,
    cluster_gap_ui: float = 0.02,
    bits: np.ndarray | None = None,
) -> EyeHistogram:
    """Fold the crossings of _THRESHOLD mod 1 UI and group them into clusters.

    Clusters split at gaps wider than cluster_gap_ui after rotating the
    largest circular gap onto the fold seam.  window_ui is the full
    span of the rotated crossing band.

    bits, one per UI, are the input that drove the waveform.  With them,
    each crossing is labelled by the transition it answers: the rotated
    band cuts time into slots of one UI, and the crossing in slot s
    answers the transition into bit s - lag, for the smallest lag >= 0
    that lines every crossing up with its own transition.  Its label is
    the ISI-2 class, 0-3 for A-D, that jitter.ISI2_EMISSION gives the
    four bits ending at the transition.  A gap then splits
    clusters only if it is wider than cluster_gap_ui and no class has
    crossings on both sides of it, so cluster_gap_ui separates the
    classes' bands rather than crossings within one class.  Without bits,
    when no lag fits, or for a crossing with fewer than three bits before
    its transition, a crossing is its own class: every gap wider than
    cluster_gap_ui splits.
    """
    s = np.asarray(waveform, dtype=float) - _THRESHOLD
    if bits is not None and len(bits) * samples_per_ui != s.size:
        raise ValueError(
            f"{len(bits)} bits do not drive {s.size} samples at {samples_per_ui} per UI"
        )
    flips = np.nonzero(np.signbit(s[:-1]) != np.signbit(s[1:]))[0]
    t = (flips + s[flips] / (s[flips] - s[flips + 1])) / samples_per_ui
    return _fold_crossings(
        t, warmup_ui=warmup_ui, bins=bins, cluster_gap_ui=cluster_gap_ui, bits=bits
    )


# the ISI-2 crossing index of each four-bit window, as the trials read it
_ISI2_CODES = isi2_trace(1, 1, 1).codes


def _isi2_classes(slots: np.ndarray, bits) -> np.ndarray:
    """ISI-2 class 0-3 of the transition each crossing answers, or -1.

    slots[i] is the UI slot of crossing i.  The lag is the smallest one
    that sends every crossing to a distinct bit that differs from the bit
    before it; with none, every class is -1.
    """
    classes = np.full(slots.size, -1)
    b = np.asarray(bits, dtype=bool)
    is_t = np.r_[False, b[1:] != b[:-1]]
    if np.unique(slots).size != slots.size:
        return classes
    # each lag sends the earliest slot to a transition at or before it
    lo = int(slots.min())
    for lag in (lo - np.flatnonzero(is_t[: lo + 1])[::-1]).tolist():
        m = slots - lag
        if m.max() < b.size and is_t[m].all():
            break
    else:
        return classes
    known = m >= 3
    classes[known] = _ISI2_CODES[_windows(b, 3)[m[known] - 3]]
    return classes


def _fold_crossings(
    t: np.ndarray,
    *,
    warmup_ui: int = 30,
    bins: int = 100,
    cluster_gap_ui: float = 0.02,
    bits: np.ndarray | None = None,
) -> EyeHistogram:
    """crossing_histogram's folding and clustering of crossing times in UI."""
    t = t[t >= warmup_ui]
    if t.size == 0:
        raise ValueError("waveform contains no threshold crossings after warmup")
    phase = t % 1.0
    order = np.argsort(phase, kind="stable")
    folded = phase[order]

    gaps = np.diff(folded, append=folded[0] + 1.0)
    seam = int(np.argmax(gaps))
    rotated = np.r_[folded[seam + 1 :], folded[: seam + 1] + 1.0]
    rotated -= np.floor(rotated[0])

    split = np.diff(rotated) > cluster_gap_ui
    if bits is not None:
        # a crossing's time less its place in the rotated band is its slot
        slots = np.rint(t[np.roll(order, -(seam + 1))] - rotated).astype(np.int64)
        classes = _isi2_classes(slots, bits)
        # +1 where a class's first crossing lies, -1 at its last: the running
        # sum counts the classes that have crossings on both sides of a gap
        ends = np.zeros(rotated.size, dtype=np.int64)
        for c in range(4):
            members = np.flatnonzero(classes == c)
            if members.size:
                ends[members[0]] += 1
                ends[members[-1]] -= 1
        split &= np.cumsum(ends)[:-1] == 0
    splits = np.nonzero(split)[0] + 1
    groups = np.split(rotated, splits)
    centers = np.array([grp.mean() % 1.0 for grp in groups])
    weights = np.array([grp.size for grp in groups], dtype=np.int64)
    window = float(rotated[-1] - rotated[0])
    sub_gaps = np.array([b.mean() - a.mean() for a, b in zip(groups, groups[1:])])

    counts, edges = np.histogram(folded, bins=bins, range=(0.0, 1.0))
    return EyeHistogram(
        crossings_ui=folded,
        bin_centers=(edges[:-1] + edges[1:]) / 2,
        counts=counts,
        cluster_centers=centers,
        cluster_weights=weights,
        window_ui=window,
        sub_gaps_ui=sub_gaps,
        band_start_ui=float(rotated[0] % 1.0),
    )
