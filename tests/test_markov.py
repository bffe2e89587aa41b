from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosettle.markov import (
    DEFAULT_MAX_TRANSITIONS,
    AbsorbingChain,
    ConfidenceNotReached,
    absorption_series,
    absorption_stats,
    build_canonical,
    point_mass,
    transitions_for_confidence,
)
from mesosettle.jitter import (
    CombinedJitterSpec,
    GaussianJitterSpec,
    WindowSpec,
    build_biased_chain,
    build_combined_chain,
    build_gaussian_chain,
    build_isi1_chain,
    build_isi2_chain,
    mismatch_substeps,
    start_distribution,
)
from mesosettle.reduction import compare_mismatch


def three_state():
    p = np.array([
        [0.5, 0.25, 0.25],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    return AbsorbingChain(p, frozenset({1, 2}))


def test_canonical_decomposition():
    canon = build_canonical(three_state())
    assert canon.q.shape == (1, 1)
    assert canon.q[0, 0] == 0.5
    assert np.array_equal(canon.r.toarray(), [[0.25, 0.25]])
    assert list(canon.transient_order) == [0]
    assert sorted(canon.absorbing_order) == [1, 2]


def test_geometric_mean_and_variance():
    # absorb with probability 1/2 each step: mean 2, variance 2
    stats = absorption_stats(three_state())
    assert stats.mean[0] == pytest.approx(2.0, rel=1e-12)
    assert stats.variance[0] == pytest.approx(2.0, rel=1e-12)
    assert stats.std[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_closed_form_birth_death_means():
    for width in (4, 9, 40, 121, 200):
        chain = build_isi1_chain(WindowSpec(width))
        stats = absorption_stats(chain)
        k = np.arange(1, width)
        expected = 2.0 * k * (width - k)
        assert np.allclose(stats.mean, expected, rtol=1e-9)


def test_mean_matches_series_first_moment():
    chain = build_isi1_chain(WindowSpec(8))
    stats = absorption_stats(chain)
    series = absorption_series(chain, point_mass(chain, 4), target_confidence=1 - 1e-10)
    n = np.arange(series.pmf.size)
    assert np.sum(n * series.pmf) == pytest.approx(stats.mean_at(4), rel=5e-3)


def test_reference_confidence_counts():
    for width, expected in ((2, 7), (5, 48), (40, 3142)):
        chain = build_isi1_chain(WindowSpec(width))
        p0 = point_mass(chain, width // 2)
        assert transitions_for_confidence(chain, p0, 0.99) == expected


def test_row_sum_renormalization_and_rejection():
    p = np.array([
        [0.5, 0.25, 0.25 - 1e-10],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    chain = AbsorbingChain(p, frozenset({1, 2}))
    assert np.allclose(chain.transitions.sum(axis=1), 1.0, atol=1e-15)

    p_bad = p.copy()
    p_bad[0, 2] = 0.25 - 1e-6
    with pytest.raises(ValueError):
        AbsorbingChain(p_bad, frozenset({1, 2}))


def test_structural_rejections():
    with pytest.raises(ValueError):
        AbsorbingChain(np.ones((2, 3)) / 3, frozenset({1}))
    p = np.array([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        AbsorbingChain(p, frozenset())  # no absorbing states declared
    with pytest.raises(ValueError):
        AbsorbingChain(p, frozenset({0}))  # declared row is not identity
    neg = np.array([[1.2, -0.2], [0.0, 1.0]])
    with pytest.raises(ValueError):
        AbsorbingChain(neg, frozenset({1}))


def test_unreachable_absorbing_rejected():
    # state 1 loops on itself and can never reach the absorbing state
    p = np.array([
        [0.5, 0.0, 0.5],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    with pytest.raises(ValueError):
        AbsorbingChain(p, frozenset({2}))


def test_all_absorbing_has_no_canonical_form():
    p = np.eye(2)
    chain = AbsorbingChain(p, frozenset({0, 1}))
    with pytest.raises(ValueError):
        build_canonical(chain)


def test_series_initial_distribution_validation():
    chain = three_state()
    with pytest.raises(ValueError):
        absorption_series(chain, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        absorption_series(chain, np.array([-0.1, 0.6, 0.5]))
    with pytest.raises(ValueError):
        absorption_series(chain, np.array([0.2, 0.2, 0.2]))
    with pytest.raises(ValueError):
        absorption_series(chain, point_mass(chain, 0), target_confidence=1.0)


def test_confidence_not_reached_carries_partial():
    chain = build_isi1_chain(WindowSpec(40))
    p0 = point_mass(chain, 20)
    with pytest.raises(ConfidenceNotReached) as exc:
        absorption_series(chain, p0, target_confidence=0.99, max_n=50)
    partial = exc.value.partial
    assert partial.cdf.size == 51
    assert np.all(np.diff(partial.cdf) >= -1e-15)
    assert partial.cdf[-1] < 0.99


def test_series_without_target_runs_to_max_n():
    chain = three_state()
    series = absorption_series(chain, point_mass(chain, 0), max_n=20)
    assert series.cdf.size == 21
    assert series.cdf[-1] == pytest.approx(1 - 0.5**20, rel=1e-12)
    assert series.pmf[0] == 0.0


def test_point_mass_on_absorbing_state():
    chain = three_state()
    p0 = point_mass(chain, 1)
    assert transitions_for_confidence(chain, p0, 0.99) == 0


@st.composite
def birth_death(draw):
    width = draw(st.integers(min_value=2, max_value=12))
    p_left = draw(st.floats(min_value=0.05, max_value=0.45))
    p_right = draw(st.floats(min_value=0.05, max_value=0.45))
    n = width + 1
    p = np.zeros((n, n))
    p[0, 0] = p[width, width] = 1.0
    for i in range(1, width):
        p[i, i - 1] = p_left
        p[i, i + 1] = p_right
        p[i, i] = 1.0 - p_left - p_right
    return AbsorbingChain(p, frozenset({0, width}))


@given(birth_death())
@settings(max_examples=40, deadline=None)
def test_stats_are_finite_and_positive(chain):
    stats = absorption_stats(chain)
    assert np.all(stats.mean > 0)
    assert np.all(np.isfinite(stats.variance))
    assert np.all(stats.variance >= 0)


@given(st.integers(min_value=3, max_value=10), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_permutation_equivariance(width, rnd):
    chain = build_isi1_chain(WindowSpec(width))
    n = chain.n_states
    perm = list(range(n))
    rnd.shuffle(perm)
    perm = np.array(perm)
    dense = chain.transitions.toarray()
    p2 = np.zeros_like(dense)
    p2[np.ix_(perm, perm)] = dense
    chain2 = AbsorbingChain(p2, frozenset(int(perm[a]) for a in chain.absorbing))
    s1 = absorption_stats(chain)
    s2 = absorption_stats(chain2)
    for k in range(1, width):
        assert s2.mean_at(int(perm[k])) == pytest.approx(s1.mean_at(k), rel=1e-10)


# one chain per builder, with the start position the CLI uses for it
REFERENCE_CHAINS = {
    "isi1-w40": (lambda: build_isi1_chain(WindowSpec(40)), 20),
    "isi2-23-43-20": (lambda: build_isi2_chain(23, 43, 20), 43),
    "gaussian-s20": (lambda: build_gaussian_chain(GaussianJitterSpec(sigma_steps=20)), 0),
    "combined-5-40": (lambda: build_combined_chain(CombinedJitterSpec(5, 40)), 20),
    "biased-w40-10pct": (lambda: build_biased_chain(build_isi1_chain(WindowSpec(40)), 10), 20),
}


def _start_at(chain, position):
    """Uniform over the transient states labelled with a clock position."""
    hits = [
        i
        for i, lab in enumerate(chain.labels)
        if i not in chain.absorbing
        and (lab[0] if isinstance(lab, tuple) else lab) == position
    ]
    p0 = np.zeros(chain.n_states)
    p0[hits] = 1.0 / len(hits)
    return p0


@pytest.mark.parametrize("name", list(REFERENCE_CHAINS))
def test_start_distribution_matches_label_scan(name):
    build, position = REFERENCE_CHAINS[name]
    chain = build()
    assert np.array_equal(start_distribution(chain, position), _start_at(chain, position))


def _dense_reference(chain, p0, confidence):
    """Moments by dense solves and the cdf by dense propagation."""
    p = chain.transitions.toarray()
    t = chain.transient
    a = sorted(chain.absorbing)
    iq = np.eye(t.size) - p[np.ix_(t, t)]
    mean = np.linalg.solve(iq, np.ones(t.size))
    variance = 2.0 * np.linalg.solve(iq, mean) - mean - mean**2
    x = p0.copy()
    cdf = [x[a].sum()]
    while cdf[-1] < confidence:
        x = x @ p
        cdf.append(x[a].sum())
    return mean, variance, np.array(cdf)


@pytest.mark.parametrize("name", list(REFERENCE_CHAINS))
def test_sparse_path_matches_dense_reference(name):
    build, position = REFERENCE_CHAINS[name]
    chain = build()
    p0 = _start_at(chain, position)
    mean, variance, cdf = _dense_reference(chain, p0, 0.99)
    stats = absorption_stats(chain)
    np.testing.assert_allclose(stats.mean, mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(stats.variance, variance, rtol=1e-12, atol=0.0)
    series = absorption_series(chain, p0, target_confidence=0.99)
    assert series.cdf.shape == cdf.shape
    np.testing.assert_allclose(series.cdf, cdf, rtol=0.0, atol=1e-12)
    assert transitions_for_confidence(chain, p0, 0.99) == int(np.argmax(cdf >= 0.99))


def _per_step_cdf(chain, p0, target=None, max_n=DEFAULT_MAX_TRANSITIONS):
    """The cdf by one sparse matvec per transition: the propagation the
    blocked series replaced, kept as its oracle."""
    a_idx = np.array(sorted(chain.absorbing), dtype=int)
    pt = chain.transitions.T.tocsr()
    p = p0.copy()
    cdf = [float(p[a_idx].sum())]
    while not (target is not None and cdf[-1] >= target) and len(cdf) - 1 < max_n:
        p = pt @ p
        cdf.append(float(p[a_idx].sum()))
    return np.array(cdf)


def _assert_matches_per_step(chain, p0, target=None, max_n=DEFAULT_MAX_TRANSITIONS):
    want = _per_step_cdf(chain, p0, target, max_n)
    if target is None or want[-1] >= target:
        series = absorption_series(chain, p0, target_confidence=target, max_n=max_n)
    else:
        with pytest.raises(ConfidenceNotReached) as exc:
            absorption_series(chain, p0, target_confidence=target, max_n=max_n)
        series = exc.value.partial
    assert series.cdf.size == want.size
    assert series.cdf[0] == p0[sorted(chain.absorbing)].sum()
    np.testing.assert_allclose(series.cdf, want, rtol=0.0, atol=1e-12)
    return series


# the chains and starts of the bench's analytic workload: its analyze jobs
# and its sweep (isi1 from the centre, widths 2 to 300)
BENCH_CHAINS = {
    **REFERENCE_CHAINS,
    **{
        f"isi1-w{w}": (lambda w=w: build_isi1_chain(WindowSpec(w)), w // 2)
        for w in (2, 5, 100, 200, 300)
    },
}


@pytest.mark.parametrize("name", list(BENCH_CHAINS))
def test_blocked_series_matches_per_step_on_bench_chains(name):
    build, position = BENCH_CHAINS[name]
    chain = build()
    _assert_matches_per_step(chain, _start_at(chain, position), 0.99)


@pytest.mark.parametrize("start", ["centre", "edge"])
def test_blocked_series_matches_per_step_on_narrow_isi1(start):
    for width in range(2, 65):
        chain = build_isi1_chain(WindowSpec(width))
        position = width // 2 if start == "centre" else 1
        _assert_matches_per_step(chain, point_mass(chain, position), 0.99)


@pytest.mark.parametrize("max_n", [0, 1, 15, 16, 17, 50])
def test_blocked_series_cut_at_max_n(max_n):
    for build, position in (REFERENCE_CHAINS["isi1-w40"], REFERENCE_CHAINS["isi2-23-43-20"]):
        chain = build()
        p0 = _start_at(chain, position)
        assert _assert_matches_per_step(chain, p0, None, max_n).cdf.size == max_n + 1
        assert _assert_matches_per_step(chain, p0, 0.99, max_n).cdf.size == max_n + 1


def test_blocked_series_with_absorbed_start_mass():
    chain = build_isi1_chain(WindowSpec(40))
    p0 = 0.3 * point_mass(chain, 0) + 0.7 * point_mass(chain, 20)
    series = _assert_matches_per_step(chain, p0, 0.99)
    assert series.cdf[0] == 0.3
    # a start that already meets the target stops at n = 0
    p0 = 0.995 * point_mass(chain, 40) + 0.005 * point_mass(chain, 20)
    assert _assert_matches_per_step(chain, p0, 0.99).cdf.size == 1
    assert transitions_for_confidence(chain, p0, 0.99) == 0


@pytest.mark.parametrize(
    "name, expected", [("isi2-23-43-20", 17508), ("biased-w40-10pct", 9594)]
)
def test_deep_budget_matches_per_step(name, expected):
    build, position = REFERENCE_CHAINS[name]
    chain = build()
    p0 = _start_at(chain, position)
    assert _assert_matches_per_step(chain, p0, 1 - 1e-9).n_transitions == expected
    assert transitions_for_confidence(chain, p0, 1 - 1e-9) == expected


def test_deep_budget_matches_lazy_walk_spectrum():
    # survival of the lazy walk from k: sum_j c_j lambda_j^n with
    # lambda_j = 1/2 + cos(j pi / N) / 2; at width 200 the first n with
    # cdf >= 1 - 1e-9 clears the target by 1.2e-14, less than the 2.9e-14
    # the per-step propagation accumulates by then, which gives 339865
    width, k, confidence = 200, 100, 1 - 1e-9
    j = np.arange(1, width)
    lam = 0.5 + 0.5 * np.cos(j * np.pi / width)
    modes = np.sin(np.outer(j, j) * np.pi / width)  # [j - 1, state - 1]
    c = 2.0 / width * modes[:, k - 1] * modes.sum(axis=1)
    chain = build_isi1_chain(WindowSpec(width))
    n = transitions_for_confidence(chain, point_mass(chain, k), confidence)
    assert n == 339866
    assert 1.0 - np.sum(c * lam ** (n - 1)) < confidence <= 1.0 - np.sum(c * lam**n)


def test_wide_mismatch_chain_stays_sparse():
    # 10 001 sub-grid states: a dense copy would take 0.8 GB
    base = build_isi1_chain(WindowSpec(1000))
    chain = build_biased_chain(base, 10)
    assert chain.n_states == 1000 * mismatch_substeps(10)[1] + 1
    assert chain.transitions.nnz <= 4 * chain.n_states
    report = compare_mismatch(1000, 10)
    k = np.arange(1, 1000)
    np.testing.assert_allclose(report.baseline_mean, 2.0 * k * (1000 - k), rtol=1e-9)
    assert report.at_position(500)["reduction_mean"] > 0.0
