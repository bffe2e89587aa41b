"""Absorbing Markov chain algebra.

Every chain is stored as a CSR sparse array; the builders emit a few
diagonals or (row, col, value) triplets, so no n x n dense array is ever
formed.  Absorption moments come from one sparse LU factorisation of
(I - Q), reused for both moment solves.  The absorption cdf is
propagated in blocks of sixteen transitions: one sparse matvec by
(Q^16)^T per block, and one dense product with a precomputed table of
exit probabilities for the block's sixteen cdf terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array, csr_array, issparse
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

__all__ = [
    "AbsorbingChain",
    "CanonicalForm",
    "AbsorptionStats",
    "AbsorptionSeries",
    "ConfidenceNotReached",
    "build_canonical",
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


class ConfidenceNotReached(RuntimeError):
    """Raised when the iteration cap is hit before the target confidence.

    The partial series computed so far is attached as ``partial``.
    """

    def __init__(self, msg: str, partial: "AbsorptionSeries"):
        super().__init__(msg)
        self.partial = partial


@dataclass(frozen=True)
class AbsorbingChain:
    """A finite Markov chain with at least one absorbing state.

    Parameters
    ----------
    transitions : (n, n) row-stochastic matrix, dense or sparse; stored
        as a read-only ``scipy.sparse.csr_array`` without explicit zeros.
    absorbing : indices of absorbing states.
    labels : optional per-state annotation (clock position in tau units,
        memory tag for extended-state chains).
    """

    transitions: csr_array
    absorbing: frozenset[int]
    labels: tuple | None = None

    def __post_init__(self):
        p = self.transitions
        p = coo_array(p if issparse(p) else np.asarray(p, dtype=float), dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        n = p.shape[0]
        absorbing = frozenset(int(i) for i in self.absorbing)
        if not absorbing:
            raise ValueError("chain has no absorbing state")
        if any(i < 0 or i >= n for i in absorbing):
            raise ValueError("absorbing index out of range")
        p.sum_duplicates()
        rows, cols, vals = p.row, p.col, p.data
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
        in_a = np.isin(rows, a_idx)
        # row sums already hold, so an absorbing row is a unit row once
        # its off-diagonal mass is below tolerance
        leak = in_a & (rows != cols) & (np.abs(vals) > ROW_SUM_TOL)
        if leak.any():
            raise ValueError(f"absorbing state {rows[leak][0]} has outgoing mass")
        keep = ~in_a & (vals != 0.0)
        rows, cols = np.r_[rows[keep], a_idx], np.r_[cols[keep], a_idx]
        p = csr_array((np.r_[vals[keep], np.ones(a_idx.size)], (rows, cols)), shape=(n, n))
        for a in (p.data, p.indices, p.indptr):
            a.flags.writeable = False
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "absorbing", absorbing)
        if not _absorbing_reachable(p, absorbing):
            raise ValueError("some transient state cannot reach absorption")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def transient(self) -> np.ndarray:
        """Transient state indices in original order."""
        mask = np.ones(self.n_states, dtype=bool)
        mask[list(self.absorbing)] = False
        return np.flatnonzero(mask)


def _absorbing_reachable(p: csr_array, absorbing: frozenset[int]) -> bool:
    # one multi-source search from the absorbing states over the reversed
    # support graph: a state is reached iff it has a path to absorption
    hops = dijkstra((p > 0.0).T, indices=sorted(absorbing), unweighted=True, min_only=True)
    return bool(np.isfinite(hops).all())


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical block form [[Q, R], [0, I]] with index bookkeeping."""

    q: csr_array
    r: csr_array
    transient_order: np.ndarray
    absorbing_order: np.ndarray


def build_canonical(chain: AbsorbingChain) -> CanonicalForm:
    """Split the transition matrix into transient (Q) and exit (R) blocks."""
    t_idx = chain.transient
    a_idx = np.array(sorted(chain.absorbing), dtype=int)
    if t_idx.size == 0:
        raise ValueError("chain has no transient states")
    rows = chain.transitions[t_idx]
    return CanonicalForm(
        q=rows[:, t_idx], r=rows[:, a_idx], transient_order=t_idx, absorbing_order=a_idx
    )


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
    canon = build_canonical(chain)
    m = canon.q.shape[0]
    eye = csr_array((np.ones(m), (np.arange(m), np.arange(m))), shape=(m, m))
    try:
        lu = splu((eye - canon.q).tocsc())
    except RuntimeError as exc:  # pragma: no cover - reachability rules it out
        raise ValueError("(I - Q) is singular") from exc
    mean = lu.solve(np.ones(m))
    y = lu.solve(mean)
    variance = 2.0 * y - mean - mean**2
    # clip parasitic negatives from cancellation on nearly-instant states
    variance = np.where(variance < 0.0, 0.0, variance)
    return AbsorptionStats(
        mean=mean, variance=variance, transient_order=canon.transient_order
    )


@dataclass(frozen=True)
class AbsorptionSeries:
    """cdf[n] = P(absorbed after at most n transitions); pmf its difference."""

    cdf: np.ndarray
    pmf: np.ndarray
    initial_distribution: np.ndarray

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
    p0 = np.asarray(initial, dtype=float)
    if p0.shape != (chain.n_states,):
        raise ValueError("initial distribution has wrong length")
    if np.any(p0 < -ROW_SUM_TOL) or abs(p0.sum() - 1.0) > 1e-9:
        raise ValueError("initial distribution must be nonnegative and sum to 1")
    if target_confidence is not None and not 0.0 < target_confidence < 1.0:
        raise ValueError("target confidence must lie strictly in (0, 1)")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")

    canon = build_canonical(chain)
    x = p0[canon.transient_order]
    # exits[k] . x_n is the mass absorbed by transition n + k + 1
    exits = np.empty((_BLOCK, x.size))
    exits[0] = canon.r.sum(axis=1)
    for k in range(1, _BLOCK):
        exits[k] = canon.q @ exits[k - 1]
    step = canon.q.T.tocsr()
    for _ in range(_BLOCK_SQUARINGS):
        step = step @ step

    blocks = []
    n_terms = 0
    block = np.array([p0[canon.absorbing_order].sum()])
    while True:
        block = block[: max_n + 1 - n_terms]
        # cdf is nondecreasing: each block adds a cumulative sum of
        # nonnegative flows to the last term of the one before
        if target_confidence is not None and block[-1] >= target_confidence:
            hit = int(np.argmax(block >= target_confidence))
            blocks.append(block[: hit + 1])
            return _series_from_cdf(blocks, p0)
        blocks.append(block)
        n_terms += block.size
        if n_terms > max_n:
            partial = _series_from_cdf(blocks, p0)
            if target_confidence is None:
                return partial
            raise ConfidenceNotReached(
                f"confidence {target_confidence} not reached within "
                f"{max_n} transitions (cdf = {partial.cdf[-1]:.6g})",
                partial,
            )
        block = block[-1] + np.cumsum(exits @ x)
        x = step @ x


def _series_from_cdf(blocks: list[np.ndarray], p0: np.ndarray) -> AbsorptionSeries:
    arr = np.concatenate(blocks)
    pmf = np.diff(arr, prepend=0.0)
    pmf = np.where(pmf < 0.0, 0.0, pmf)  # guard 1e-17 rounding
    return AbsorptionSeries(cdf=arr, pmf=pmf, initial_distribution=p0)


def transitions_for_confidence(
    chain: AbsorbingChain,
    initial: np.ndarray,
    confidence: float,
    *,
    max_n: int = DEFAULT_MAX_TRANSITIONS,
) -> int:
    """Smallest n with cdf[n] >= confidence: where the series stops."""
    return absorption_series(
        chain, initial, target_confidence=confidence, max_n=max_n
    ).n_transitions


def point_mass(chain: AbsorbingChain, state: int) -> np.ndarray:
    """Initial distribution concentrated on one state."""
    p0 = np.zeros(chain.n_states)
    p0[state] = 1.0
    return p0
