"""Absorbing Markov chain algebra.

Every chain is stored as a CSR sparse array; the builders emit a few
diagonals or (row, col, value) triplets, so no n x n dense array is
formed but the eigenvectors of the spectral search below.  A chain
is split once, when built, into its canonical form [[Q, R], [0, I]]
(Kemeny & Snell 1960, ch. 3): ``transient``, ``q`` and ``r``.
Absorption moments come from one sparse LU factorisation of (I - Q),
reused for both moment solves.  The absorption cdf is propagated in
blocks of sixteen transitions: one sparse matvec by (Q^16)^T per
block, and one dense product with a precomputed table of exit
probabilities for the block's sixteen cdf terms.

``transitions_for_confidence`` needs only the first n with cdf[n] >=
c, and on a chain whose transient block Q is exactly symmetric and
tridiagonal (every isi1 window up to 4096 transient states) it finds n
without stepping the chain.  There Q = V diag(lambda) V^T, so the
survival from the transient start x is S(n) = x^T Q^n 1 =
sum_j c_j lambda_j^n with c_j = (v_j . x)(v_j . 1) (Keilson 1971; Fill
2009), and n is a bisection on S.  When S(n) or
S(n - 1) lies within a tie band of the target, the answer falls back to
the propagated series, which stays the reference; so does every other
chain.  An n past ``max_n`` raises ``ConfidenceNotReached`` before any
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import coo_array, csr_array, issparse
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

__all__ = [
    "AbsorbingChain",
    "AbsorptionStats",
    "AbsorptionSeries",
    "ConfidenceNotReached",
    "absorption_stats",
    "absorption_series",
    "transitions_for_confidence",
    "point_mass",
]

ROW_SUM_TOL = 1e-12
# row deficits below this are silently renormalized; larger ones rejected
ROW_FIX_TOL = 1e-9

DEFAULT_MAX_TRANSITIONS = 10**7

# absorption_series advances 2**_BLOCK_SQUARINGS transitions per block
_BLOCK_SQUARINGS = 4
_BLOCK = 2**_BLOCK_SQUARINGS

# the spectral search holds all m eigenvectors, 8 m^2 bytes: 128 MiB here
_SPECTRAL_MAX_STATES = 4096
# narrowest tie band of the spectral search
_TIE_FLOOR = 1e-12
_EPS = float(np.finfo(float).eps)


class ConfidenceNotReached(RuntimeError):
    """Raised when the iteration cap is hit before the target confidence.

    The partial series computed so far is attached as ``partial``.  It is
    ``None`` when ``transitions_for_confidence`` raised from the spectrum
    alone, without propagating a series.
    """

    def __init__(self, msg: str, partial: "AbsorptionSeries | None"):
        super().__init__(msg)
        self.partial = partial


# compared and hashed by identity: the generated methods would compare
# sparse matrices and arrays, which have no truth value and no hash
@dataclass(frozen=True, eq=False)
class AbsorbingChain:
    """A finite Markov chain with at least one absorbing state.

    Parameters
    ----------
    transitions : (n, n) row-stochastic matrix, dense or sparse; stored
        as a read-only ``scipy.sparse.csr_array`` without explicit zeros.
    absorbing : indices of absorbing states.
    labels : optional per-state annotation (clock position in tau units,
        memory tag for extended-state chains), one entry per state.

    The canonical blocks are derived on construction and read-only:
    ``transient`` holds the transient state indices ascending, ``q`` the
    transient-to-transient block and ``r`` the transient-to-absorbing
    block, rows and columns each in ascending state order.  A chain with
    no transient state has empty blocks, and the solvers reject it.
    """

    transitions: csr_array
    absorbing: frozenset[int]
    labels: tuple | None = None
    transient: np.ndarray = field(init=False, repr=False)
    q: csr_array = field(init=False, repr=False)
    r: csr_array = field(init=False, repr=False)

    def __post_init__(self):
        p = self.transitions
        p = coo_array(p if issparse(p) else np.asarray(p, dtype=float), dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        n = p.shape[0]
        if self.labels is not None and len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} states")
        absorbing = frozenset(int(i) for i in self.absorbing)
        if not absorbing:
            raise ValueError("chain has no absorbing state")
        if any(i < 0 or i >= n for i in absorbing):
            raise ValueError("absorbing index out of range")
        p.sum_duplicates()
        rows, cols, vals = p.row, p.col, p.data
        if not np.isfinite(vals).all():
            raise ValueError("transition probabilities must be finite")
        sums = np.bincount(rows, weights=vals, minlength=n)
        deficits = np.abs(sums - 1.0)
        if np.any(deficits > ROW_FIX_TOL):
            raise ValueError(
                f"row sums deviate from 1 by up to {deficits.max():.3e}"
            )
        if np.any(deficits > ROW_SUM_TOL):
            vals = vals / sums[rows]
        if np.any(vals < -ROW_SUM_TOL):
            raise ValueError("negative transition probability")
        a_idx = np.array(sorted(absorbing))
        is_t = np.ones(n, dtype=bool)
        is_t[a_idx] = False
        in_a = ~is_t[rows]
        # row sums already hold, so an absorbing row is a unit row once
        # its off-diagonal mass is below tolerance
        leak = in_a & (rows != cols) & (np.abs(vals) > ROW_SUM_TOL)
        if leak.any():
            raise ValueError(f"absorbing state {rows[leak][0]} has outgoing mass")
        keep = ~in_a & (vals != 0.0)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        transient = np.flatnonzero(is_t)
        m, k = transient.size, a_idx.size
        p = csr_array((np.r_[vals, np.ones(k)], (np.r_[rows, a_idx], np.r_[cols, a_idx])), (n, n))
        # each state's index within its block, transient or absorbing
        block_index = np.empty(n, dtype=int)
        block_index[transient], block_index[a_idx] = np.arange(m), np.arange(k)
        i, j, to_t = block_index[rows], block_index[cols], is_t[cols]
        q = csr_array((vals[to_t], (i[to_t], j[to_t])), shape=(m, m))
        r = csr_array((vals[~to_t], (i[~to_t], j[~to_t])), shape=(m, k))
        for a in (p.data, p.indices, p.indptr, q.data, q.indices, q.indptr,
                  r.data, r.indices, r.indptr, transient):
            a.flags.writeable = False
        for name, value in (("transitions", p), ("absorbing", absorbing),
                            ("transient", transient), ("q", q), ("r", r)):
            object.__setattr__(self, name, value)
        if not _absorbing_reachable(p, absorbing):
            raise ValueError("some transient state cannot reach absorption")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]


def _absorbing_reachable(p: csr_array, absorbing: frozenset[int]) -> bool:
    # one multi-source search from the absorbing states over the reversed
    # support graph: a state is reached iff it has a path to absorption
    hops = dijkstra((p > 0.0).T, indices=sorted(absorbing), unweighted=True, min_only=True)
    return bool(np.isfinite(hops).all())


@dataclass(frozen=True)
class AbsorptionStats:
    """Per-transient-state absorption-time moments, in transitions."""

    mean: np.ndarray
    variance: np.ndarray
    transient_order: np.ndarray
    std: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "std", np.sqrt(self.variance))

    def mean_at(self, state: int) -> float:
        return float(self.mean[_position_of(self.transient_order, state)])

    def std_at(self, state: int) -> float:
        return float(self.std[_position_of(self.transient_order, state)])

    def variance_at(self, state: int) -> float:
        return float(self.variance[_position_of(self.transient_order, state)])


def _position_of(order: np.ndarray, state: int) -> int:
    pos = np.flatnonzero(order == state)
    if pos.size == 0:
        raise KeyError(f"state {state} is not transient")
    return int(pos[0])


def absorption_stats(chain: AbsorbingChain) -> AbsorptionStats:
    """Mean and variance of the number of transitions to absorption.

    One sparse LU factorisation of (I - Q) serves both solves: mean
    solves (I - Q) mean = 1, and the variance identity
    (2N - I) mean - mean^2 takes N mean from (I - Q) y = mean, without
    forming N.
    """
    m = chain.q.shape[0]
    if m == 0:
        raise ValueError("chain has no transient states")
    eye = csr_array((np.ones(m), (np.arange(m), np.arange(m))), shape=(m, m))
    try:
        lu = splu((eye - chain.q).tocsc())
    except RuntimeError as exc:  # pragma: no cover - reachability rules it out
        raise ValueError("(I - Q) is singular") from exc
    mean = lu.solve(np.ones(m))
    y = lu.solve(mean)
    variance = 2.0 * y - mean - mean**2
    # clip parasitic negatives from cancellation on nearly-instant states
    variance = np.where(variance < 0.0, 0.0, variance)
    return AbsorptionStats(mean=mean, variance=variance, transient_order=chain.transient)


@dataclass(frozen=True)
class AbsorptionSeries:
    """cdf[n] = P(absorbed after at most n transitions); pmf its difference."""

    cdf: np.ndarray
    pmf: np.ndarray

    @property
    def n_transitions(self) -> int:
        return len(self.cdf) - 1


def absorption_series(
    chain: AbsorbingChain,
    initial: np.ndarray,
    *,
    target_confidence: float | None = None,
    max_n: int = DEFAULT_MAX_TRANSITIONS,
) -> AbsorptionSeries:
    """Absorption-probability time series, sixteen transitions per call.

    With Q and R the transient and exit blocks and x_n the transient part
    of the state distribution after n transitions, the mass absorbed by
    transition n + k + 1 is (Q^k R 1) . x_n.  The exit table Q^k R 1 for
    k < 16 and the block step (Q^16)^T are built once, the step by
    repeated squaring (33 diagonals on a birth-death chain).  Each block
    then costs one dense product for its sixteen cdf increments and one
    sparse matvec to advance x by sixteen transitions.  cdf[0] is the
    mass the start puts on absorbing states.  Stops at the first n with
    cdf[n] >= ``target_confidence``, else after ``max_n`` transitions.
    """
    x, absorbed = _checked_start(chain, initial, target_confidence, max_n)
    # exits[k] . x_n is the mass absorbed by transition n + k + 1
    exits = np.empty((_BLOCK, x.size))
    exits[0] = chain.r.sum(axis=1)
    for k in range(1, _BLOCK):
        exits[k] = chain.q @ exits[k - 1]
    step = chain.q.T.tocsr()
    for _ in range(_BLOCK_SQUARINGS):
        step = step @ step

    blocks = []
    n_terms = 0
    block = np.array([absorbed])
    while True:
        block = block[: max_n + 1 - n_terms]
        # cdf is nondecreasing: each block adds a cumulative sum of
        # nonnegative flows to the last term of the one before
        if target_confidence is not None and block[-1] >= target_confidence:
            hit = int(np.argmax(block >= target_confidence))
            blocks.append(block[: hit + 1])
            return _series_from_cdf(blocks)
        blocks.append(block)
        n_terms += block.size
        if n_terms > max_n:
            partial = _series_from_cdf(blocks)
            if target_confidence is None:
                return partial
            raise _not_reached(target_confidence, max_n, partial.cdf[-1], partial)
        block = block[-1] + np.cumsum(exits @ x)
        x = step @ x


def _checked_start(
    chain: AbsorbingChain, initial: np.ndarray, target: float | None, max_n: int
) -> tuple[np.ndarray, float]:
    """The start's transient part, in ``chain.transient`` order, and its absorbed mass."""
    p0 = np.asarray(initial, dtype=float)
    if p0.shape != (chain.n_states,):
        raise ValueError("initial distribution has wrong length")
    if not np.isfinite(p0).all():
        raise ValueError("initial distribution must be finite")
    if np.any(p0 < -ROW_SUM_TOL) or abs(p0.sum() - 1.0) > 1e-9:
        raise ValueError("initial distribution must be nonnegative and sum to 1")
    if target is not None and not 0.0 < target < 1.0:
        raise ValueError("target confidence must lie strictly in (0, 1)")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if chain.transient.size == 0:
        raise ValueError("chain has no transient states")
    return p0[chain.transient], p0[sorted(chain.absorbing)].sum()


def _not_reached(
    confidence: float, max_n: int, cdf: float, partial: AbsorptionSeries | None
) -> ConfidenceNotReached:
    return ConfidenceNotReached(
        f"confidence {confidence} not reached within {max_n} transitions (cdf = {cdf:.6g})",
        partial,
    )


def _series_from_cdf(blocks: list[np.ndarray]) -> AbsorptionSeries:
    arr = np.concatenate(blocks)
    pmf = np.diff(arr, prepend=0.0)
    pmf = np.where(pmf < 0.0, 0.0, pmf)  # guard 1e-17 rounding
    return AbsorptionSeries(cdf=arr, pmf=pmf)


def transitions_for_confidence(
    chain: AbsorbingChain,
    initial: np.ndarray,
    confidence: float,
    *,
    max_n: int = DEFAULT_MAX_TRANSITIONS,
) -> int:
    """Smallest n with cdf[n] >= confidence: where ``absorption_series`` stops.

    When the transient block Q is exactly symmetric and tridiagonal, with
    at most 4096 states, n comes from its spectrum (module docstring):
    cdf[n] = a + S(0) - S(n), with a the start's absorbed mass, so n is the
    first with S(n) <= a + S(0) - confidence, found by doubling and then
    bisecting n.  The answer stands only when S(n) and S(n - 1) each clear
    that target by more than the tie band

        max(1e-12, 16 eps sum_j |c_j| (m |lambda_j|^n + n |lambda_j|^(n-1)),
            (n / 16 + 1) eps)

    at their n, with m the transient state count and eps the float64
    epsilon.  The middle term is the spectral rounding: the modes carry
    O(m eps) error, and lambda_j^n scales an eigenvalue's O(eps) error by
    n |lambda_j|^(n-1).  Against a long-double closed form on isi1 widths
    2 to 1000 the error stayed under 0.15 of the term; with Q symmetric,
    sum_j |c_j| <= sqrt(m), and no scaling inflates it.  The last term is
    the propagated series' rounding: its running cdf sum rounds about
    once per block of sixteen, and on isi1 widths 40 to 300 its error
    stayed under 0.03 of the term.  Inside the band the propagated series decides, and so it
    does on every other chain.  If S(max_n) is clear above the target,
    this raises ``ConfidenceNotReached`` at once, its cdf taken from the
    spectrum and ``partial`` None.
    """
    x, absorbed = _checked_start(chain, initial, confidence, max_n)
    q = chain.q
    if absorbed < confidence and q.shape[0] <= _SPECTRAL_MAX_STATES and _symmetric_tridiagonal(q):
        n = _spectral_search(q, x, absorbed, confidence, max_n)
        if n is not None:
            return n
    return absorption_series(
        chain, initial, target_confidence=confidence, max_n=max_n
    ).n_transitions


def _symmetric_tridiagonal(q: csr_array) -> bool:
    rows = np.repeat(np.arange(q.shape[0]), np.diff(q.indptr))
    return bool(np.all(np.abs(rows - q.indices) <= 1)) and np.array_equal(
        q.diagonal(1), q.diagonal(-1)
    )


def _spectral_search(
    q: csr_array, x: np.ndarray, absorbed: float, confidence: float, max_n: int
) -> int | None:
    """The first n with cdf[n] >= confidence, from the modes of Q; None on a tie."""
    lam, v = eigh_tridiagonal(q.diagonal(), q.diagonal(1))
    c = (v.T @ x) * v.sum(axis=0)
    size, weight, m = np.abs(lam), np.abs(c), lam.size
    total = absorbed + x.sum()
    target = total - confidence

    def survival(n: int) -> float:
        return float(c @ lam**n)

    def clear(n: int) -> bool:
        # S(n) is farther from the target than its tie band
        tail = weight @ (m * size**n + n * size ** max(n - 1, 0))
        band = max(_TIE_FLOOR, 16.0 * _EPS * tail, (n / _BLOCK + 1) * _EPS)
        return abs(survival(n) - target) > band

    # S(lo) > target holds from lo = 0 on, since cdf[0] = absorbed < confidence
    lo, hi = 0, 1
    while hi < max_n and survival(hi) > target:
        lo, hi = hi, 2 * hi
    hi = min(hi, max_n)
    if survival(hi) > target:  # only at hi = max_n
        if not clear(hi):
            return None
        raise _not_reached(confidence, max_n, total - survival(hi), None)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survival(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi if clear(hi) and clear(hi - 1) else None


def point_mass(chain: AbsorbingChain, state: int) -> np.ndarray:
    """Initial distribution concentrated on one state."""
    p0 = np.zeros(chain.n_states)
    p0[state] = 1.0
    return p0
