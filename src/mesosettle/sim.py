"""Behavioral Monte Carlo of the retiming loop plus waveform utilities.

Every trial runs through one dispatcher, ``_walks``, one generator per
trial.  Trials of a discrete trace -- clean or Gaussian-jittered, with or
without mismatch or the coarse-acquisition latch, fed by any bit source
-- go to ``_table_walks``, which steps a batch of them together, eight
cycles per table lookup: each byte of packed bits, with the bits before
it, picks a row of ``_GroupTables``, and a round's walk is a prefix sum
over its bytes (Four Russians tables, Arlazarov et al. 1970, under a
scan, Blelloch 1990).  A group's table moves hold while its crossings
sit on the window edges and no jittered one can reach the clock.  A
clean edge walk runs only the group holding the escape a cycle at a
time.  Any other trial runs a round a crossing at a time from its first
event group: one that could escape, holds a crossing inside the window
(ISI-2's sub-windows, a collar), or where a jittered crossing could
reach the clock.  An RC line's trial is one call of ``_rc_walk``, which
measures each cycle's first crossing off the waveform and moves the
clock one crossing at a time, because each move depends on the position.
Every trial draws on one schedule, in rows of ``_ROW0`` cycles growing
fourfold up to ``_ROW_MAX``: a row's bits, then the normals of its
crossings in cycle order, then, on a clean discrete trace, a fair coin
per tie.  A jittered crossing lies on a continuous axis, so it ties the
clock with probability zero: it draws no coin, and ``c < p`` decides.
So a trial's stream does not depend on how a batch splits into rounds.
A table walk draws each row ahead and holds it packed; ``_rc_walk``
synthesizes a row at a time, so an RC trial, which mostly escapes
within a few cycles, synthesizes few UIs.
The ladder's modal system is built once per ``_walks`` call, and each RC
trial starts its own copy at rest.  ``run_monte_carlo`` sends
blocks of ``_BLOCK_TRIALS`` trials through ``_walks``, and
``run_trial(config, seed, record=False)`` is a batch of one.
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
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .jitter import IsiTraceModel, WindowSpec, isi2_trace, mismatch_substeps

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

# cycles per row of every trial's draws: the first row, and the cap as
# rows grow fourfold
_ROW0 = 16
_ROW_MAX = 4096
# trials seeded together (and table walks stepped together), the (trial,
# cycle) cells of one table-walk round, and the multiple of them in a round
# of a clean edge walk's fine phase
_BLOCK_TRIALS = 512
_ROUND_ELEMENTS = 1 << 15
_CLEAN_ROUNDS = 4


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
        return cls("explicit", pattern=tuple(bits))

    @property
    def cycle_pattern(self) -> np.ndarray | None:
        if self.pattern is None:
            return None
        return np.asarray(self.pattern, dtype=np.int8)


@dataclass(frozen=True)
class ChannelModel:
    """A precomputed crossing trace, Gaussian-jittered by sigma_steps if set, or an RC ladder."""

    kind: str
    trace: IsiTraceModel | None = None
    sigma_steps: float | None = None
    sections: int = 20
    r_per_section: float = 1.0
    c_per_section_ui: float = 0.002
    samples_per_ui: int = 64

    def __post_init__(self):
        if self.kind == "discrete_trace":
            if self.trace is None:
                raise ValueError("discrete_trace channel needs a trace model")
            if self.sigma_steps is not None and not 0 < self.sigma_steps < np.inf:
                raise ValueError("sigma_steps must be positive and finite")
        elif self.kind == "rc_line":
            if self.sigma_steps is not None:
                raise ValueError("crossing jitter applies to discrete traces only")
            if self.sections < 1:
                raise ValueError("ladder needs at least one section")
            if not (0 < self.r_per_section < np.inf and 0 < self.c_per_section_ui < np.inf):
                raise ValueError("R and C must be positive and finite")
            if self.samples_per_ui < 16:
                raise ValueError("need at least 16 samples per UI")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")

    @classmethod
    def discrete(cls, trace: IsiTraceModel, sigma_steps: float | None = None) -> "ChannelModel":
        return cls("discrete_trace", trace=trace, sigma_steps=sigma_steps)

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
    # (s_left, s_right) sub-steps of the mismatch, resolved once here
    _substeps: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.step_tau < np.inf:
            raise ValueError("step_tau must be positive and finite")
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
            # the latch holds the turns of a clean order-1 trace crossing on both edges
            clean = self.channel.sigma_steps is None
            if not (clean and trace.order == 1 and tuple(pos) == (0, width)):
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
    return (_uniforms(rng, n) < source.p).view(np.int8)


def _uniforms(rngs, n: int) -> np.ndarray:
    """(len(rngs), n) uniforms, row k drawn by one random call of rngs[k]."""
    u = np.empty((len(rngs), n))
    for r, row in zip(rngs, u):
        r.random(out=row)
    return u


class _BitStreams:
    """The bit streams of a batch of trials, one per generator.

    Each trial's first draw is its pattern phase, which decorrelates trials
    of a periodic source; other sources start at 0 and draw nothing.
    take(n) gives each live trial's next n bits as a row of a (trials, n)
    block, and packed(n, ctx, coin) gives them packed eight to a byte.
    keep(live) retires the trials that the mask live leaves out.
    """

    def __init__(self, source: BitSource, rngs):
        self.source, self.rngs = source, list(rngs)
        period = len(source.pattern) if source.kind in ("training_biased", "alternating") else 0
        self.phase = np.array([int(r.integers(period)) if period else 0 for r in self.rngs])

    def take(self, n: int) -> np.ndarray:
        bits = generate_bits(self.source, n, self.rngs, self.phase)
        self.phase += n
        return bits

    def packed(self, n: int, ctx: int = 0, coin: bool = False):
        """Each live trial's next ctx bits read as a binary number, oldest
        bit highest; then, if coin, a fair coin (True for heads); then n
        bits packed along its row of a (trials, ceil(n / 8)) uint8 block,
        first bit highest.  A bernoulli trial draws them all in one random
        call.  Trials are drawn a slice at a time, so that no float64 block
        holds more than _ROUND_ELEMENTS cells or one row.
        """
        trials, lead = len(self.rngs), ctx + coin
        prev = np.zeros(trials, dtype=np.intp)
        heads = np.zeros(trials, dtype=bool)
        out = np.empty((trials, -(-n // 8)), dtype=np.uint8)
        step = max(1, _ROUND_ELEMENTS // (lead + n))
        for lo in range(0, trials, step):
            part = slice(lo, lo + step)
            rngs = self.rngs[part]
            if coin and self.source.kind == "bernoulli":
                # the coin's uniform lies between the ctx bits and the payload
                u = _uniforms(rngs, lead + n)
                heads[part] = u[:, ctx] < 0.5
                bits = u < self.source.p
            else:
                if coin:
                    heads[part] = [r.random() < 0.5 for r in rngs]
                bits = generate_bits(self.source, ctx + n, rngs, self.phase[part])
            for j in range(ctx):
                prev[part] = 2 * prev[part] + bits[:, j]
            out[part] = np.packbits(bits[:, bits.shape[1] - n :], axis=1)
        self.phase += ctx + n
        return prev, heads, out

    def keep(self, live: np.ndarray) -> None:
        self.rngs = [r for r, keep in zip(self.rngs, live.tolist()) if keep]
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


def _trajectory(pieces, s_r: int, w: int, side: int) -> np.ndarray:
    """Position in steps after each cycle, from the per-row positions in
    sub-steps; an escaped walk ends on the edge it left by."""
    trajectory = np.concatenate(pieces) / s_r
    if side:
        trajectory[-1] = 0.0 if side < 0 else float(w)
    return trajectory


class _GroupTables:
    """What each group of eight cycles does to a walk, by table row.

    Row i is a group whose bits read i in binary, oldest bit highest: the
    ctx bits before the group, then its byte of packed bits, so cycle j
    reads the window (i >> (7 - j)) & (2**(ctx + 1) - 1).  Per row and
    cycle: code, the crossing index or -1; turn, +1 for a crossing on the
    left edge (the clock moves right), -1 for any other, 0 for none;
    prefix, the position after the cycle less the group's start, in
    sub-steps, with its running minimum low and maximum high.  Per row:
    net, the move of the whole group; lo and hi, its extremes; reach_lo
    and reach_hi, the extremes of the clock before each cycle; and inner,
    whether a crossing lies strictly inside the window, where its move
    depends on the clock and turn does not hold.  A prefix saturates at
    +-g, which escapes from every start in the window.  crossed counts the
    crossings up to each cycle, and span bounds |prefix|.
    """

    def __init__(self, codes: bytes, positions: tuple, s_l: int, s_r: int, g: int):
        codes = np.frombuffer(codes, dtype=np.int8)
        self.ctx = codes.size.bit_length() - 2
        i = np.arange(256 << self.ctx)
        self.code = codes[(i[:, None] >> (7 - np.arange(8))) & ((2 << self.ctx) - 1)]
        self.cross = np.asarray(positions) * s_r
        x = self.cross[self.code]
        # a crossing on the left edge lies left of every interior clock
        left = x <= 0
        self.inner = ((self.code >= 0) & ~left & (x < g)).any(axis=1)
        self.turn = np.where(self.code < 0, 0, np.where(left, 1, -1))
        move = np.where(self.turn > 0, min(s_r, g), np.where(self.turn < 0, -min(s_l, g), 0))
        self.prefix = np.empty_like(move)
        p = np.zeros(i.size, dtype=np.int64)
        for j, m in enumerate(move.T):
            # both sides of each where are computed, and the one that is not
            # picked may wrap around: numpy's integer arrays wrap silently
            p = np.where(m >= 0, np.where(p >= g - m, g, p + m), np.where(p <= -g - m, -g, p + m))
            self.prefix[:, j] = p
        self.low = np.minimum.accumulate(self.prefix, axis=1)
        self.high = np.maximum.accumulate(self.prefix, axis=1)
        self.net = self.prefix[:, 7].copy()
        self.lo, self.hi = self.low[:, 7].copy(), self.high[:, 7].copy()
        self.reach_lo = np.minimum(self.low[:, 6], 0)
        self.reach_hi = np.maximum(self.high[:, 6], 0)
        self.crossed = np.cumsum(self.code >= 0, axis=1)
        self.span = int(max(-self.lo.min(), self.hi.max()))

    @cached_property
    def crossing_list(self) -> list:
        """Per row, its crossings' (cycle, sub-step position) pairs, shared across rows."""
        pairs = [[(j, c) for c in self.cross.tolist()] for j in range(8)]
        return [[pairs[j][c] for j, c in enumerate(row) if c >= 0] for row in self.code.tolist()]

    def index(self, prev: np.ndarray, byts: np.ndarray) -> np.ndarray:
        """(trials, groups) table rows of each trial's bytes, prev holding
        the ctx bits before its first byte."""
        b = byts.astype(np.intp)
        before = np.concatenate([prev[:, None], b[:, :-1] & ((1 << self.ctx) - 1)], axis=1)
        return (before << 8) | b

    def after(self, last: np.ndarray, j: int) -> np.ndarray:
        """The ctx bits up to cycle j of the groups in rows last."""
        return (last >> (7 - j)) & ((1 << self.ctx) - 1)


# the tables of the last few (codes, crossing positions, s_l, s_r, g)
_group_tables = lru_cache(maxsize=4)(_GroupTables)


class _Events:
    """The event groups of a batch of walks that the tables alone do not
    step: jittered ones, and those of a trace crossing inside the window.

    A jittered trial draws a row's normals after its bits, one per
    crossing in cycle order.  draw(trials, counts) gives counts[k] normals
    of trial trials[k], concatenated; a round draws those of its cycles,
    so the rounds of a row draw its normals in order.  A crossing at its
    position + sigma * z ties the clock with probability zero: a tie draws
    no coin and moves the clock left, as c < p decides.  A clean crossing
    that ties the clock draws the trial's fair coin, after its row's bits.
    settle flags the event groups of a round, where the table's decisions
    may not hold, and _row runs each flagged row a crossing at a time from
    its first event group to the escape or the round's end.
    """

    def __init__(self, config: TrialConfig, rngs, tab: _GroupTables):
        self.rngs, self.tab = rngs, tab
        self.s_l, self.s_r = config._substeps
        self.g = config.window.width_steps * self.s_r
        self.sigma = (config.channel.sigma_steps or 0.0) * self.s_r
        self.interior = bool(tab.inner.any())

    def draw(self, trials: np.ndarray, counts: np.ndarray) -> np.ndarray:
        parts = [self.rngs[k].standard_normal(c) for k, c in zip(trials.tolist(), counts.tolist())]
        parts.append(np.zeros(1))  # a 0 past the last normal, for reduceat
        return np.concatenate(parts)

    def settle(self, idx, begin, trials, n: int, path):
        """Draws a jittered round's normals and yields (row, escape cycle
        in the round or -1, side, end position) for each row with an event
        group: one whose table path reaches an edge, that holds a crossing
        inside the window, or where sigma * max|z| over its crossings
        reaches the distance from that path to an edge.  Up to its first
        event group a row's table path is exact; from there _row runs it a
        crossing at a time."""
        tab, g = self.tab, self.g
        flags = (tab.lo[idx] <= -begin) | (tab.hi[idx] >= g - begin)
        if self.interior:
            flags |= tab.inner[idx]
        z = first = None
        if self.sigma:
            # crossings per group, over the round's n cycles
            count = tab.crossed[idx, 7]
            count[:, -1] = tab.crossed[idx[:, -1], (n - 1) % 8]
            # each group's first normal in z, which holds them row by row
            first = (np.cumsum(count) - count.ravel()).reshape(count.shape)
            z = self.draw(trials, count.sum(axis=1))
            top = np.maximum.reduceat(np.abs(z), first.ravel()).reshape(count.shape)
            reach = self.sigma * np.where(count > 0, top, 0.0)
            # compared in float64, reach < q still implies sigma * |z| < q for
            # the integer q, and g - reach > q that g + sigma * z > q
            safe = reach < begin + tab.reach_lo[idx]
            safe &= float(g) - reach > begin + tab.reach_hi[idx]
            flags |= ~safe
        hit = np.flatnonzero(flags.any(axis=1))
        for r, e in zip(hit.tolist(), flags[hit].argmax(axis=1).tolist()):
            yield r, *self._row(
                idx[r, e:], e, int(begin[r, e]), z, 0 if z is None else int(first[r, e]), n,
                self.rngs[trials[r]], path if r == 0 else None,
            )

    def _row(self, idx, e: int, p: int, z, k: int, n: int, rng, path):
        """Runs a row a crossing at a time from its first event group e,
        which starts at p, through the groups whose table rows idx holds,
        to the escape or the round's end at cycle n.  Each decision is the
        real one, c < p: a jittered crossing lies at its position + sigma *
        z, z from k on, and a clean tie c == p takes a fair coin from rng.
        path, when given, holds the positions per cycle and takes the
        walk's from group e on.  Returns (escape cycle in the round or -1,
        side, end position)."""
        crossing_list, sigma = self.tab.crossing_list, self.sigma
        s_l, s_r, g = self.s_l, self.s_r, self.g
        done = 8 * e  # path holds the walk's positions before cycle done
        for e, i in enumerate(idx.tolist(), e):
            base, crossings = 8 * e, crossing_list[i]
            if base + 8 > n:
                # the round ends inside the group
                crossings = crossings[: self.tab.crossed[i, n - 1 - base]]
            for j, c in crossings:
                if sigma:
                    right = c + sigma * z.item(k) < p
                    k += 1
                else:
                    right = c < p or (c == p and rng.random() < 0.5)
                if path is not None:
                    path[done : base + j] = p
                    done = base + j
                p = p + s_r if right else p - s_l
                if p <= 0 or p >= g:
                    if path is not None:
                        path[base + j] = p
                    return base + j, -1 if p <= 0 else 1, p
        if path is not None:
            path[done:n] = p
        return -1, 0, p


def _table_walks(config: TrialConfig, rngs, record: bool = False):
    """Trials of one discrete-trace config, one per generator, stepped
    together eight cycles per table lookup.

    Trial k draws from its own generator rngs[k] (a block of _trial_rngs,
    or run_trial's default_rng), in a fixed order: the pattern phase, the
    ctx bits, the coarse coin, then its bits a row at a time, rows of
    _ROW0 cycles growing fourfold to _ROW_MAX, drawn ahead and held
    packed; a jittered trial draws each row's normals after its bits, and
    a clean one its tie coins (_Events).  So no trial depends on the
    others in its batch.

    Each round looks up the _GroupTables row of every byte of the active
    trials' next bits and takes each trial's walk as a prefix sum over its
    groups.  On a clean trace crossing on the window edges alone, the first
    group whose path reaches an edge holds the escape, found inside it from
    the prefix table.  Any other row runs from the table up to its first
    event group: one whose path reaches an edge, that holds a crossing
    inside the window, or where sigma * max|z| over its crossings reaches
    the distance from its path to an edge.  From there it runs a crossing
    at a time with the real decisions to the escape or the round's end.
    While the coarse latch runs, each cycle's turn comes from the table and
    the latest one is held through quiet cycles.  A round holds at most
    _ROUND_ELEMENTS cycles over all its rows, _CLEAN_ROUNDS times as many
    in a clean edge walk's fine phase; rows that escaped retire.  Returns
    escape cycles (-1 for none), exit sides (-1 left, +1 right, 0 none)
    and, when record is set on a batch of one, the trajectory in steps.
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
    tab = _group_tables(trace.codes.tobytes(), trace.crossing_positions, s_l, s_r, g)
    events = _Events(config, rngs, tab) if config.channel.sigma_steps or tab.inner.any() else None
    coarse = config.coarse_first
    latch = min(coarse.duration_cycles, config.max_cycles) if coarse is not None else 0

    row = _ROW0
    bits = _BitStreams(config.source, rngs)
    end = min(row, config.max_cycles)
    prev, heads, buf = bits.packed(end, tab.ctx, coin=latch > 0)
    # the latch starts at a coin-chosen edge; the left one turns the clock right
    held = np.where(heads, 1, -1)
    rows = np.arange(len(rngs))
    pos = np.full(rows.size, config.initial * s_r, dtype=np.int64)
    traj = [pos[:1]] if record else None
    base = start = 0  # buf holds the bits of cycles start to end - 1
    while rows.size and base < config.max_cycles:
        if base == end:
            row = min(row * 4, _ROW_MAX)
            start, end = base, min(base + row, config.max_cycles)
            buf = bits.packed(end - start)[2]
        if (base - start) % 8:
            # the latch ended inside a byte: realign the rows on the next cycle
            buf = np.packbits(np.unpackbits(buf, axis=1)[:, base - start :], axis=1)
            start = base
        latched = base < latch
        # a latched round holds a cell per cycle, a jittered one draws the
        # normals of all its cycles, also past an escape, and a flagged row
        # runs a crossing at a time to the round's end: only a clean edge
        # walk's fine round, a table row per eight cycles, takes
        # _CLEAN_ROUNDS times as many
        cells = _ROUND_ELEMENTS if latched or events else _CLEAN_ROUNDS * _ROUND_ELEMENTS
        n = min(
            end - base,
            (latch if latched else config.max_cycles) - base,
            max(8, cells // rows.size & -8),
        )
        first = (base - start) // 8
        idx = tab.index(prev, buf[:, first : first - (-n // 8)])
        last = (n - 1) % 8
        prev = tab.after(idx[:, -1], last)
        at = np.full(rows.size, -1)
        side = np.zeros(rows.size, dtype=np.int8)
        if latched:
            # column 0 holds the previous round's latch, column j cycle j - 1's turn
            t = np.concatenate([held[:, None], tab.turn[idx].reshape(rows.size, -1)[:, :n]], axis=1)
            hold = np.maximum.accumulate(np.where(t != 0, np.arange(n + 1), 0), axis=1)
            t = np.take_along_axis(t, hold, axis=1)[:, 1:]
            held = t[:, -1]
            steps = t * (coarse.coarse_step_steps * s_r)
            steps[:, 0] += pos
            walk = np.cumsum(steps, axis=1, out=steps)
            out = (walk <= 0) | (walk >= g)
            hit = np.flatnonzero(out.any(axis=1))
            at[hit] = out[hit].argmax(axis=1)
            side[hit] = np.where(walk[hit, at[hit]] <= 0, -1, 1)
            pos, path = walk[:, -1], walk[0] if record else None
        else:
            net = tab.net[idx]
            begin = np.cumsum(net, axis=1)
            begin -= net
            begin += pos[:, None]
            pos = begin[:, -1] + tab.prefix[idx[:, -1], last]
            path = (begin[0, :, None] + tab.prefix[idx[0]]).ravel() if record else None
            if events:
                for r, escape, exit_side, p in events.settle(idx, begin, rows, n, path):
                    at[r], side[r], pos[r] = escape, exit_side, p
            else:
                # only a row whose groups start within span of an edge can escape
                near = (begin.min(axis=1) <= tab.span) | (begin.max(axis=1) >= g - tab.span)
                near = np.flatnonzero(near)
                b = begin[near]
                out = (tab.lo[idx[near]] <= -b) | (tab.hi[idx[near]] >= g - b)
                esc = out.any(axis=1)
                hit, e = near[esc], out[esc].argmax(axis=1)
                ie, b = idx[hit, e], begin[hit, e]
                lo_at = (tab.low[ie] > -b[:, None]).sum(axis=1)
                hi_at = (tab.high[ie] < g - b[:, None]).sum(axis=1)
                at[hit] = 8 * e + np.minimum(lo_at, hi_at)
                side[hit] = np.where(lo_at < hi_at, -1, 1)
                # an escape past cycle n lies in the padding of the last byte
                at[at >= n] = -1
        if record:
            traj.append(path[: at[0] + 1 if at[0] >= 0 else n])
        base += n
        hit = at >= 0
        if hit.any():
            cycles[rows[hit]] = base - n + at[hit] + 1
            sides[rows[hit]] = side[hit]
            live = ~hit
            bits.keep(live)
            rows, pos, held, buf, prev = rows[live], pos[live], held[live], buf[live], prev[live]

    return cycles, sides, _trajectory(traj, s_r, w, sides[0]) if record else None


_RC_CAL_UI = 288


def _rc_walk(config: TrialConfig, rng: np.random.Generator, line: _RcLine, record: bool):
    """One trial of an RC line, returned as one row of _table_walks.

    The trial drives a copy of line started at rest: a bernoulli burst of
    _RC_CAL_UI UIs measures the susceptibility band, whose width sets the
    window's in steps, and the payload follows in the same line state, in
    rows of _ROW0 cycles growing fourfold to _ROW_MAX.  Each cycle's first
    crossing, placed relative to the band start and scaled to sub-steps,
    moves the clock s_r sub-steps right if it lies left of it, s_l left if
    not.  A crossing between a row's last sample and the next row's first
    (a lookback) belongs to the cycle before the row, and is first only if
    the previous row gave that cycle none; before the first row, that
    cycle is the burst's last and moves the start.
    """
    line = line.at_rest()
    hist = _fold_crossings(line.crossings(rng.random(_RC_CAL_UI) < 0.5))
    band, win_ui = hist.band_start_ui, hist.window_ui
    s_l, s_r = config._substeps
    width = win_ui / config.step_tau
    # sub-step positions must fit 64-bit integers, as a discrete window's do
    if not width * s_r < 2.0**63:
        raise ValueError(
            f"step_tau {config.step_tau:g} makes the measured {win_ui:.4g}-UI window "
            f"{width:.4g} steps, {width * s_r:.4g} sub-steps, past 64-bit integers"
        )
    w = max(2, int(round(width)))
    start = config.initial_position if config.initial_position is not None else w // 2
    if not 0 < start < w:
        raise ValueError(f"initial position must lie strictly inside the measured {w}-step window")
    scale = s_r / config.step_tau
    bits = _BitStreams(config.source, [rng])
    g, p = w * s_r, start * s_r
    traj = [np.array([p], dtype=float)] if record else None
    base, cycle, side, row = 0, -1, 0, _ROW0
    last = -2  # cycle of the previous row's last crossing, counted from this row
    while base < config.max_cycles and not side:
        n = min(row, config.max_cycles - base)
        t_ui = line.crossings(bits.take(n)[0])
        ui = np.floor(t_ui).astype(np.int64)
        first = np.diff(ui, prepend=last) != 0
        last = (ui[-1] if ui.size else last) - n
        t = ui[first]
        x = (t_ui[first] % 1.0 - band) % 1.0
        x = np.where(x > (win_ui + 1.0) / 2, x - 1.0, x)  # just left of the band start
        path = [p]
        for c in (x * scale).tolist():
            p = p + s_r if c < p else p - s_l
            path.append(p)
            if p <= 0 or p >= g:
                side = -1 if p <= 0 else 1
                cycle = base + int(t[len(path) - 2]) + 1
                break
        if record:
            # per cycle from base - 1, the position after its last crossing:
            # a lookback crossing moves the entry the last row ended on
            seen = np.searchsorted(t, np.arange(-1, cycle - base if side else n), side="right")
            got = np.array(path, dtype=float)[seen]
            traj[-1][-1] = got[0]
            traj.append(got[1:])
        base += n
        row = min(row * 4, _ROW_MAX)

    return cycle, side, _trajectory(traj, s_r, w, side) if record else None


def _walks(config: TrialConfig, rngs, record: bool = False):
    """The one trial dispatcher: what _table_walks returns, for one trial
    per generator.  Trials of a discrete trace step together in
    _table_walks; those of an RC line walk one at a time in _rc_walk, each
    from its own copy of one modal system built for the block."""
    if config.channel.kind == "discrete_trace":
        return _table_walks(config, rngs, record)
    line = _RcLine(config.channel)
    cycles, sides, trajs = zip(*(_rc_walk(config, r, line, record) for r in rngs))
    return np.array(cycles, dtype=np.int64), np.array(sides, dtype=np.int8), trajs[-1]


def run_trial(config: TrialConfig, seed, record: bool = False) -> TrialResult:
    """One trial drawing from default_rng(seed): seed may be an int, a
    sequence of ints or a Generator, which the trial then draws from.  A
    trial draws a row at a time, so a Generator is left past the trial's
    draws by the rest of its last row: up to _ROW_MAX bits and their
    normals.  record keeps the trajectory in steps: entry k is the
    position after cycle k - 1, entry 0 the start.  An escaped trial's has
    escape_cycle + 1 entries and ends on the edge it left by; a censored
    one's has max_cycles + 1."""
    cycles, sides, traj = _walks(config, [np.random.default_rng(seed)], record)
    if not sides[0]:
        return TrialResult(False, None, None, traj)
    return TrialResult(True, int(cycles[0]), "left" if sides[0] < 0 else "right", traj)


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

    Trials run through _walks in blocks of _BLOCK_TRIALS, each seeded at
    once by _trial_rngs.  Trial k's result does not depend on the trial
    count.  Trajectories are not recorded.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    cycles = np.empty(trials, dtype=np.int64)
    sides = np.empty(trials, dtype=np.int8)
    for lo in range(0, trials, _BLOCK_TRIALS):
        hi = min(lo + _BLOCK_TRIALS, trials)
        with _trial_rngs(base_seed, lo, hi) as rngs:
            cycles[lo:hi], sides[lo:hi], _ = _walks(config, rngs)
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
    if (mu == 1.0).any():
        # the mode's DC level gain / (1 - mu) would divide by zero
        raise ValueError(
            f"section RC {rc:.3g} UI is too slow for {spu} samples per UI: a ladder pole "
            "rounds to 1; lower c_per_section_ui or r_per_section"
        )
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

    def at_rest(self) -> "_RcLine":
        """A line sharing this one's modal system, with its state at rest."""
        line = copy(self)
        line.state = np.zeros_like(self.state)
        return line

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
