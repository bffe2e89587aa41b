from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.special import erf, ndtr

from mesosettle.jitter import (
    ISI1_TABLE,
    ISI2_EMISSION,
    ISI2_SUCCESSORS,
    ISI2_TAGS,
    CombinedJitterSpec,
    GaussianJitterSpec,
    WindowSpec,
    _crossing_walk,
    build_biased_chain,
    build_combined_chain,
    build_gaussian_chain,
    build_isi1_chain,
    build_isi2_chain,
    isi1_trace,
    isi2_trace,
    mismatch_substeps,
    position_profile,
    start_distribution,
    sub_windows_to_steps,
    wrong_update_probability,
)
from mesosettle.markov import AbsorbingChain, absorption_stats


def test_one_bit_pattern_table():
    # runt middle bit crosses early (A), repeated-then-flip crosses late (B)
    assert ISI1_TABLE[(0, 1, 0)] == "A"
    assert ISI1_TABLE[(1, 0, 1)] == "A"
    assert ISI1_TABLE[(0, 0, 1)] == "B"
    assert ISI1_TABLE[(1, 1, 0)] == "B"
    for quiet in ((0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0)):
        assert ISI1_TABLE[quiet] is None


def test_two_bit_emission_table():
    expected = {
        (0b000, 1): "D", (0b001, 0): "A", (0b010, 1): "B", (0b011, 0): "C",
        (0b100, 1): "C", (0b101, 0): "B", (0b110, 1): "A", (0b111, 0): "D",
    }
    assert ISI2_EMISSION == expected
    # quiet shifts never emit
    for s in range(8):
        assert (s, s & 1) not in ISI2_EMISSION


def test_memory_successors_consistent_with_fsm():
    """Each tag's two successors must be exactly what the source FSM
    produces one shift after emitting that tag, each with weight 1/2."""
    for s in range(8):
        for b in (0, 1):
            if (s, b) not in ISI2_EMISSION:
                continue
            tag = ISI2_EMISSION[(s, b)]
            s1 = ((s << 1) | b) & 7
            nxt = set()
            for b2 in (0, 1):
                nxt.add(ISI2_EMISSION.get((s1, b2), "X1"))
            assert nxt == set(ISI2_SUCCESSORS[tag]), (s, b, tag)


def test_trace_models():
    t1 = isi1_trace(40)
    assert t1.crossing_positions == (0.0, 40.0)
    assert t1.width_steps == 40
    t2 = isi2_trace(23, 43, 20)
    assert t2.crossing_positions == (0.0, 23.0, 66.0, 86.0)
    assert t2.crossing_of("C") == 66.0
    with pytest.raises(ValueError):
        isi2_trace(0, 43, 20)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(-1)
    with pytest.raises(ValueError):
        WindowSpec(10, 0)
    with pytest.raises(ValueError):
        WindowSpec(10, 10)
    assert WindowSpec(0).initial == 0  # degenerate window collapses to the edge
    assert WindowSpec(41).initial == 20
    assert WindowSpec(10, 3).gamma_steps == 7


def test_isi1_chain_structure():
    chain = build_isi1_chain(WindowSpec(6))
    p = chain.transitions
    assert chain.absorbing == frozenset({0, 6})
    for i in range(1, 6):
        assert p[i, i - 1] == 0.25
        assert p[i, i] == 0.5
        assert p[i, i + 1] == 0.25
    with pytest.raises(ValueError):
        build_isi1_chain(WindowSpec(1))


def test_isi1_reference_statistics():
    chain = build_isi1_chain(WindowSpec(40))
    stats = absorption_stats(chain)
    assert stats.mean_at(20) == pytest.approx(800.0, rel=1e-9)
    assert stats.std_at(20) == pytest.approx(652.993108692577, rel=1e-12)


def test_isi2_chain_profile():
    chain = build_isi2_chain(23, 43, 20)
    assert chain.n_states == 85 * 6 + 2
    positions, mean, std = position_profile(chain)
    assert positions[0] == 1 and positions[-1] == 85
    assert mean.max() == pytest.approx(1107.4350257431686, rel=1e-9)
    assert positions[mean.argmax()] == 45
    assert np.all(std > 0)
    with pytest.raises(ValueError):
        build_isi2_chain(5, 0, 5)


def test_position_profile_matches_stats_on_plain_chain():
    # one state per position: the profile is the chain's own moments, bit for bit
    for chain in (
        build_isi1_chain(WindowSpec(12)),
        build_isi1_chain(WindowSpec(200)),
        build_gaussian_chain(GaussianJitterSpec(sigma_steps=20)),
    ):
        stats = absorption_stats(chain)
        positions, mean, std = position_profile(chain)
        assert positions.tolist() == [chain.labels[i] for i in stats.transient_order]
        assert np.array_equal(mean, stats.mean)
        assert np.array_equal(std, stats.std)


def test_position_profile_pools_memory_states():
    # the old pooling, E[T^2] - E[T]^2 over the uniform mixture, is the oracle
    chain = build_isi2_chain(3, 5, 2)
    stats = absorption_stats(chain)
    positions, mean, std = position_profile(chain)
    m, v = stats.mean.reshape(-1, 6), stats.variance.reshape(-1, 6)
    assert positions.tolist() == list(range(1, 10))
    np.testing.assert_allclose(mean, m.mean(axis=1), rtol=1e-15)
    np.testing.assert_allclose(
        std, np.sqrt((v + m**2).mean(axis=1) - m.mean(axis=1) ** 2), rtol=1e-12
    )


def test_start_distribution_spreads_over_memory_states():
    chain = build_isi2_chain(23, 43, 20)
    p0 = start_distribution(chain, 43)
    hits = np.flatnonzero(p0)
    assert [chain.labels[i] for i in hits] == [(43, tag) for tag in ISI2_TAGS]
    assert np.all(p0[hits] == 1 / 6)

    biased = build_biased_chain(WindowSpec(40), 10)
    p0 = start_distribution(biased, 20)
    assert np.flatnonzero(p0).tolist() == [200]
    assert p0[200] == 1.0


@pytest.mark.parametrize(
    "build, position",
    [
        (lambda: build_isi1_chain(WindowSpec(40)), 0),
        (lambda: build_isi1_chain(WindowSpec(40)), 40),
        (lambda: build_isi2_chain(23, 43, 20), 86),
        (lambda: build_gaussian_chain(GaussianJitterSpec(sigma_steps=4)), -12),
        (lambda: build_isi1_chain(WindowSpec(40)), 41),
        (lambda: build_isi1_chain(WindowSpec(40)), 2.5),
        (lambda: build_biased_chain(WindowSpec(40), 10), 20.05),
    ],
    ids=["isi1-left-edge", "isi1-right-edge", "isi2-right-edge", "gaussian-left-edge",
         "isi1-beyond", "isi1-between-steps", "biased-between-substeps"],
)
def test_start_distribution_rejects_positions_without_transient_state(build, position):
    with pytest.raises(ValueError, match="is not a transient state"):
        start_distribution(build(), position)


def test_wrong_update_probability_values():
    spec = GaussianJitterSpec(sigma_steps=2.0)
    assert wrong_update_probability(0.0, spec) == 0.5
    m = spec.sigma_steps * np.sqrt(2) / 2
    assert wrong_update_probability(m, spec) == pytest.approx(0.07864960352514261, rel=1e-12)


@given(st.floats(min_value=-30, max_value=30), st.floats(min_value=0.5, max_value=10))
@settings(max_examples=200, deadline=None)
def test_wrong_update_odd_symmetry(m, sigma):
    spec = GaussianJitterSpec(sigma_steps=sigma)
    total = wrong_update_probability(m, spec) + wrong_update_probability(-m, spec)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_wrong_update_monotone():
    spec = GaussianJitterSpec(sigma_steps=3.0)
    m = np.linspace(0, 9, 200)
    f = np.array([wrong_update_probability(x, spec) for x in m])
    assert np.all(np.diff(f) < 0)


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianJitterSpec(sigma_steps=0.0)
    with pytest.raises(ValueError):
        GaussianJitterSpec(sigma_steps=1.0, truncation_sigmas=0.5)
    with pytest.raises(ValueError):
        GaussianJitterSpec(sigma_steps=1.0, transition_probability=0.0)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: GaussianJitterSpec(sigma_steps=np.inf), "sigma_steps"),
        (lambda: GaussianJitterSpec(sigma_steps=np.nan), "sigma_steps"),
        (lambda: GaussianJitterSpec(1.0, truncation_sigmas=np.nan), "truncation_sigmas"),
        (lambda: GaussianJitterSpec(1.0, truncation_sigmas=np.inf), "truncation_sigmas"),
        (lambda: CombinedJitterSpec(sigma_steps=np.nan, w_ab_steps=4), "sigma_steps"),
        (lambda: CombinedJitterSpec(sigma_steps=np.inf, w_ab_steps=4), "sigma_steps"),
        (lambda: CombinedJitterSpec(1.0, 0), "w_ab_steps"),
        (lambda: CombinedJitterSpec(1.0, 4, (np.nan, 0.5, 0.5)), "P\\(A\\)"),
    ],
    ids=["gaussian-sigma-inf", "gaussian-sigma-nan", "gaussian-truncation-nan",
         "gaussian-truncation-inf", "combined-sigma-nan", "combined-sigma-inf",
         "combined-w-ab-0", "combined-mass-nan"],
)
def test_specs_reject_non_finite_values(make, field):
    # NaN fails every comparison, so each check is written to fail on it
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize("sigma", [0.75, 2, 4, 20, 33.3])
@pytest.mark.parametrize("truncation", [1, 3, 4.5])
@pytest.mark.parametrize("tp", [0.3, 0.5, 1])
def test_gaussian_chain_toward_center_is_wrong_update(sigma, truncation, tp):
    # absolute bound: tp - tp Phi cancels in the far tail
    spec = GaussianJitterSpec(sigma, truncation, tp)
    chain = build_gaussian_chain(spec)
    p = chain.transitions
    for m in range(1, spec.half_width_steps):
        i = chain.labels.index(m)
        assert abs(p[i, i - 1] - tp * wrong_update_probability(m, spec)) <= 2.2e-16


def test_gaussian_chain_structure():
    spec = GaussianJitterSpec(sigma_steps=4.0)
    chain = build_gaussian_chain(spec)
    m_max = spec.half_width_steps
    assert chain.n_states == 2 * m_max + 1
    p = chain.transitions
    center = m_max
    assert p[center, center - 1] == pytest.approx(0.25)
    assert p[center, center + 1] == pytest.approx(0.25)
    assert p[center, center] == pytest.approx(0.5)
    # mirror symmetry of the whole transient block
    for i in range(1, chain.n_states - 1):
        j = chain.n_states - 1 - i
        assert p[i, i - 1] == pytest.approx(p[j, j + 1], abs=1e-12)
        assert p[i, i + 1] == pytest.approx(p[j, j - 1], abs=1e-12)


def test_gaussian_mean_symmetric_about_center():
    chain = build_gaussian_chain(GaussianJitterSpec(sigma_steps=3.0))
    stats = absorption_stats(chain)
    mean = stats.mean
    assert np.allclose(mean, mean[::-1], rtol=1e-9)


def test_combined_chain_recovers_lazy_walk_at_tiny_sigma():
    w = 12
    spec = CombinedJitterSpec(sigma_steps=1e-6 * w, w_ab_steps=w)
    chain = build_combined_chain(spec)
    labels = list(chain.labels)
    p = chain.transitions
    for t in range(1, w):
        i = labels.index(t)
        assert p[i, i - 1] == pytest.approx(0.25, abs=1e-9)
        assert p[i, i] == pytest.approx(0.5, abs=1e-12)
        assert p[i, i + 1] == pytest.approx(0.25, abs=1e-9)
    # at a crossing location the tie coin emerges from the mixture cdf
    i0 = labels.index(0)
    assert p[i0, i0 + 1] == pytest.approx(0.125, abs=1e-9)


def test_combined_chain_right_mass_monotone():
    spec = CombinedJitterSpec(sigma_steps=3.0, w_ab_steps=20)
    chain = build_combined_chain(spec)
    p = chain.transitions
    right = np.array([p[i, i + 1] for i in range(1, chain.n_states - 1)])
    assert np.all(np.diff(right) > 0)
    rows = p[1:-1]
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        CombinedJitterSpec(sigma_steps=1.0, w_ab_steps=10, trace_probabilities=(0.3, 0.3, 0.3))


def test_mismatch_substeps():
    assert mismatch_substeps(0) == (1, 1)
    assert mismatch_substeps(10) == (11, 10)
    assert mismatch_substeps(2.5) == (41, 40)
    assert mismatch_substeps(25) == (5, 4)
    with pytest.raises(ValueError):
        mismatch_substeps(0.5)  # needs denominator 200
    with pytest.raises(ValueError):
        mismatch_substeps(-1)


def test_biased_chain_zero_mismatch_is_identity():
    base = build_isi1_chain(WindowSpec(9))
    biased = build_biased_chain(WindowSpec(9), 0)
    assert biased.n_states == base.n_states
    assert np.allclose(biased.transitions.toarray(), base.transitions.toarray(), atol=1e-15)


def test_biased_chain_reference_statistics():
    biased = build_biased_chain(WindowSpec(40), 10)
    assert biased.n_states == 401
    stats = absorption_stats(biased)
    # center of the coarse grid sits at sub-index 200
    assert stats.mean_at(200) == pytest.approx(596.3045649455863, rel=1e-9)
    assert stats.std_at(200) == pytest.approx(461.56110196044716, rel=1e-9)


def test_biased_chain_rejects_narrow_window_and_fine_mismatch():
    with pytest.raises(ValueError, match="narrower than 2 steps"):
        build_biased_chain(WindowSpec(1), 10)
    with pytest.raises(ValueError, match="denominator 200"):
        build_biased_chain(WindowSpec(40), 0.5)


def test_sub_windows_to_steps():
    assert sub_windows_to_steps((8, 15, 7), 0.35) == (23, 43, 20)
    with pytest.raises(ValueError):
        sub_windows_to_steps((0.1, 15, 7), 0.35)
    with pytest.raises(ValueError):
        sub_windows_to_steps((8, 15, 7), 0.0)


@given(st.integers(min_value=2, max_value=30))
@settings(max_examples=30, deadline=None)
def test_isi1_mean_profile_symmetric(width):
    chain = build_isi1_chain(WindowSpec(width))
    mean = absorption_stats(chain).mean
    assert np.allclose(mean, mean[::-1], rtol=1e-9)


# The builders as they were before the one crossing-mixture walk, kept as
# oracles: each model's matrix, absorbing set and labels must not move.
def _oracle_birth_death_chain(left, stay, right, labels):
    n = len(stay) + 2
    i = np.arange(1, n - 1)
    rows, cols = np.r_[0, n - 1, i, i, i], np.r_[0, n - 1, i - 1, i, i + 1]
    p = coo_array((np.r_[1.0, 1.0, left, stay, right], (rows, cols)), shape=(n, n))
    return AbsorbingChain(p, frozenset({0, n - 1}), labels=labels)


def _oracle_isi1_chain(w):
    quarter = np.full(w - 1, 0.25)
    return _oracle_birth_death_chain(quarter, np.full(w - 1, 0.5), quarter, tuple(range(w + 1)))


def _oracle_gaussian_chain(spec):
    m_max = spec.half_width_steps
    n = 2 * m_max + 1
    tp = spec.transition_probability
    m = np.arange(1, n - 1) - m_max
    wrong = np.array(
        [float(0.5 - 0.5 * erf(2.0 * abs(k) / (np.sqrt(2.0) * spec.sigma_steps))) for k in m]
    )
    toward, away = tp * wrong, tp * (1.0 - wrong)
    left, right = np.where(m > 0, toward, away), np.where(m > 0, away, toward)
    stay = np.full(n - 2, 1.0 - tp)
    return _oracle_birth_death_chain(left, stay, right, tuple(range(-m_max, m_max + 1)))


def _oracle_combined_chain(spec):
    pa, pb, pnt = spec.trace_probabilities
    t_lo, t_hi = -spec.collar_steps, spec.w_ab_steps + spec.collar_steps
    sig = spec.sigma_steps
    t = np.arange(t_lo + 1, t_hi)
    crossing_left = pa * ndtr(t / sig) + pb * ndtr((t - spec.w_ab_steps) / sig)
    return _oracle_birth_death_chain(
        (pa + pb) - crossing_left,
        np.full(t_hi - t_lo - 1, pnt),
        crossing_left,
        tuple(range(t_lo, t_hi + 1)),
    )


def _oracle_biased_chain(w, mismatch_percent):
    base = _oracle_isi1_chain(w)
    s_l, s_r = mismatch_substeps(mismatch_percent)
    t = base.transitions
    p_left, p_stay = t.diagonal(-1)[0], t.diagonal()[1]
    p_right = 1.0 - p_left - p_stay
    g = w * s_r
    i = np.arange(1, g)
    rows = np.r_[0, g, i, i, i]
    cols = np.r_[0, g, np.minimum(i + s_r, g), np.maximum(i - s_l, 0), i]
    vals = np.r_[1.0, 1.0, np.repeat([p_right, p_left, p_stay], g - 1)]
    p = coo_array((vals, (rows, cols)), shape=(g + 1, g + 1))
    return AbsorbingChain(p, frozenset({0, g}), labels=tuple(Fraction(k, s_r) for k in range(g + 1)))


def _oracle_isi2_chain(sub_ab, sub_bc, sub_cd):
    # the per-state loop with its own tie branch; absorbing states last
    trace = isi2_trace(sub_ab, sub_bc, sub_cd)
    w = int(trace.width_steps)
    n_tags = len(ISI2_TAGS)
    n_t = (w - 1) * n_tags
    left, right = n_t, n_t + 1
    n = n_t + 2

    def idx(pos, tag):
        return (pos - 1) * n_tags + ISI2_TAGS.index(tag)

    entries = [(left, left, 1.0), (right, right, 1.0)]
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


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _assert_same_chain(chain, oracle):
    _assert_same_csr(chain.transitions, oracle.transitions)
    assert chain.absorbing == oracle.absorbing
    assert chain.labels == oracle.labels
    assert [type(x) for x in chain.labels] == [type(x) for x in oracle.labels]


WIDTHS = [2, 3, 5, 6, 9, 12, 20, 40, 200, 1000]


@pytest.mark.parametrize("width", WIDTHS)
def test_isi1_chain_matches_oracle(width):
    _assert_same_chain(build_isi1_chain(WindowSpec(width)), _oracle_isi1_chain(width))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("mismatch", [0, 2.5, 10, 25])
def test_biased_chain_matches_oracle(width, mismatch):
    _assert_same_chain(
        build_biased_chain(WindowSpec(width), mismatch), _oracle_biased_chain(width, mismatch)
    )


@pytest.mark.parametrize("masses", [(0.25, 0.25, 0.5), (0.3, 0.2, 0.5), (0.1, 0.3, 0.6)])
@pytest.mark.parametrize("w_ab", [1, 8, 10, 12, 20, 40])
@pytest.mark.parametrize("sigma", [1.2e-5, 0.5, 1, 2, 3, 5])
def test_combined_chain_matches_oracle(sigma, w_ab, masses):
    spec = CombinedJitterSpec(sigma, w_ab, masses)
    _assert_same_chain(build_combined_chain(spec), _oracle_combined_chain(spec))


@pytest.mark.parametrize("tp", [0.3, 0.5, 1])
@pytest.mark.parametrize("truncation", [1, 3, 4.5])
@pytest.mark.parametrize("sigma", [0.75, 2, 2.5, 3, 4, 5, 20, 33.3])
def test_gaussian_chain_matches_erf_oracle(sigma, truncation, tp):
    # Phi in place of 1/2 - 1/2 erf moves an entry by at most 2.22e-16, and
    # keeps far-tail entries that erf cancels to exactly 0
    spec = GaussianJitterSpec(sigma, truncation, tp)
    chain, oracle = build_gaussian_chain(spec), _oracle_gaussian_chain(spec)
    assert chain.absorbing == oracle.absorbing
    assert chain.labels == oracle.labels
    diff = np.abs(chain.transitions.toarray() - oracle.transitions.toarray())
    assert diff.max() <= 2.3e-16


ISI2_TRIPLES = [
    *itertools.product(range(1, 7), repeat=3), (23, 43, 20), (5, 9, 4), (3, 5, 2), (100, 200, 100)
]


@pytest.mark.parametrize("subs", ISI2_TRIPLES, ids=lambda subs: "-".join(map(str, subs)))
def test_isi2_chain_matches_oracle(subs):
    # the edges moved from the last two indices to the first and last, so
    # compare the canonical blocks, which keep transient and absorbing order
    chain, oracle = build_isi2_chain(*subs), _oracle_isi2_chain(*subs)
    _assert_same_csr(chain.q, oracle.q)
    _assert_same_csr(chain.r, oracle.r)
    assert [chain.labels[i] for i in chain.transient] == [
        oracle.labels[i] for i in oracle.transient
    ]
    assert chain.n_states == oracle.n_states


def test_isi2_tags_lump_to_four_classes():
    # A and B share the successors (crossing B, X1), and C and D share
    # (crossing A, X1): each pair predicts the same future at every position
    chain = build_isi2_chain(23, 43, 20)
    stats = absorption_stats(chain)

    def means(tag):
        return np.array([stats.mean_at(chain.labels.index((k, tag))) for k in range(1, 86)])

    np.testing.assert_allclose(means("A"), means("B"), rtol=1e-12)
    np.testing.assert_allclose(means("C"), means("D"), rtol=1e-12)


@pytest.mark.parametrize("substeps", [None, (11, 10)])
def test_crossing_walk_tie_is_a_fair_coin(substeps):
    # sigma = 0: a crossing strictly inside the span splits its mass at t == c
    chain = _crossing_walk(0, 6, [(((3, 0.4),), 0.6, 0, 0)], 0.0, substeps)
    s_l, s_r = substeps or (1, 1)
    i = chain.labels.index(3)
    p = chain.transitions
    assert p[i, i + s_r] == 0.2
    assert p[i, i - s_l] == 0.2
    assert p[i, i] == 0.6
    # off the tie the whole mass moves toward the crossing
    assert p[i - 1, i - 1 + s_r] == 0.0 and p[i - 1, i - 1 - s_l] == 0.4
    assert p[i + 1, i + 1 + s_r] == 0.4 and p[i + 1, i + 1 - s_l] == 0.0


def test_crossing_walk_moves_between_tags():
    # tag a's crossing leads to tag b and its quiet mass stays in a; tag b's
    # crossing leads back to a and its quiet mass stays in b
    tags = [(((3, 0.4),), 0.6, 1, 0), (((2, 0.5),), 0.5, 0, 1)]
    chain = _crossing_walk(0, 6, tags, 0.0, names=("a", "b"))
    labels, p = chain.labels, chain.transitions
    assert labels[0] == 0 and labels[-1] == 6 and chain.absorbing == {0, chain.n_states - 1}

    def at(k, name):
        return labels.index((k, name))

    assert [at(k, name) for k in (1, 5) for name in "ab"] == [1, 2, 9, 10]
    assert p[at(3, "a"), at(4, "b")] == 0.2 and p[at(3, "a"), at(2, "b")] == 0.2
    assert p[at(3, "a"), at(3, "a")] == 0.6
    assert p[at(3, "b"), at(4, "a")] == 0.5 and p[at(3, "b"), at(3, "b")] == 0.5
    assert p[at(1, "b"), 0] == 0.5 and p[at(5, "a"), chain.n_states - 1] == 0.4
    assert p.sum(axis=1).tolist() == [1.0] * chain.n_states
