from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosettle.jitter import (
    ISI1_TABLE,
    ISI2_EMISSION,
    ISI2_SUCCESSORS,
    ISI2_TAGS,
    CombinedJitterSpec,
    GaussianJitterSpec,
    WindowSpec,
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
from mesosettle.markov import absorption_stats


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

    biased = build_biased_chain(build_isi1_chain(WindowSpec(40)), 10)
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
        (lambda: build_biased_chain(build_isi1_chain(WindowSpec(40)), 10), 20.05),
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
    biased = build_biased_chain(base, 0)
    assert biased.n_states == base.n_states
    assert np.allclose(biased.transitions.toarray(), base.transitions.toarray(), atol=1e-15)


def test_biased_chain_reference_statistics():
    base = build_isi1_chain(WindowSpec(40))
    biased = build_biased_chain(base, 10)
    assert biased.n_states == 401
    stats = absorption_stats(biased)
    # center of the coarse grid sits at sub-index 200
    assert stats.mean_at(200) == pytest.approx(596.3045649455863, rel=1e-9)
    assert stats.std_at(200) == pytest.approx(461.56110196044716, rel=1e-9)


def test_biased_chain_rejects_nonuniform_base():
    from mesosettle.markov import AbsorbingChain

    p = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.3, 0.4, 0.3, 0.0],
        [0.0, 0.25, 0.5, 0.25],
        [0.0, 0.0, 0.0, 1.0],
    ])
    lopsided = AbsorbingChain(p, frozenset({0, 3}))
    with pytest.raises(ValueError):
        build_biased_chain(lopsided, 10)


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
