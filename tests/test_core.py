import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import ndtri

import oracles
import strategies
from trendsax.core import (
    MAX_ALPHABET,
    AlphabetTable,
    PaaVector,
    SaxWord,
    gaussian_quantile,
    make_alphabet_table,
    paa,
    symbolize,
    znormalize,
)
from trendsax.segmentation import Segmentation, segment


class TestZnormalize:
    def test_constant_series_maps_to_zeros(self):
        assert znormalize([0.0, 0.0, 0.0, 0.0]).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert znormalize([7.5] * 6).tolist() == [0.0] * 6

    def test_already_normalized_pair_unchanged(self):
        assert znormalize([-1.0, 1.0]).tolist() == [-1.0, 1.0]

    def test_four_point_ramp(self):
        # mean 2.5, population variance 1.25
        sigma = math.sqrt(1.25)
        expected = [(v - 2.5) / sigma for v in (1.0, 2.0, 3.0, 4.0)]
        out = znormalize([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, [-1.3416, -0.4472, 0.4472, 1.3416], atol=5e-5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            znormalize([1.0, float("nan")])
        with pytest.raises(ValueError):
            znormalize([1.0, float("inf")])
        with pytest.raises(ValueError):
            znormalize([])
        with pytest.raises(ValueError):
            znormalize([[1.0, 2.0]])

    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(3.0, 5.0, size=int(rng.integers(2, 50)))
            np.testing.assert_array_equal(znormalize(x), oracles.znormalize(x))


class TestGaussianQuantile:
    def test_matches_scipy_inverse_cdf(self):
        ps = np.concatenate(
            [np.linspace(1e-9, 0.02, 200), np.linspace(0.02, 0.98, 400), np.linspace(0.98, 1 - 1e-9, 200)]
        )
        worst = max(abs(gaussian_quantile(float(p)) - float(ndtri(p))) for p in ps)
        assert worst < 1e-13

    def test_exact_complements_give_exact_opposites(self):
        # 1 - p is exact for p >= 0.5, so the reflection is bitwise
        for p in np.linspace(0.5, 1 - 1e-9, 500):
            p = float(p)
            assert gaussian_quantile(p) == -gaussian_quantile(1.0 - p)

    def test_median_is_zero(self):
        assert gaussian_quantile(0.5) == 0.0

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                gaussian_quantile(p)


class TestMakeAlphabetTable:
    def test_three_symbol_breakpoints_match_scipy(self):
        table = make_alphabet_table(3)
        expected = [float(ndtri(1 / 3)), float(ndtri(2 / 3))]
        np.testing.assert_allclose(table.breakpoints, expected, rtol=0, atol=1e-12)

    def test_breakpoints_match_scipy_for_all_sizes(self):
        for alpha in range(2, MAX_ALPHABET + 1):
            table = make_alphabet_table(alpha)
            expected = ndtri(np.arange(1, alpha) / alpha)
            np.testing.assert_allclose(table.breakpoints, expected, rtol=0, atol=1e-9)

    def test_three_symbol_far_pair(self):
        table = make_alphabet_table(3)
        # breakpoint gap beta_2 - beta_1 = 2 * 0.4307...
        assert abs(table.pair_dist[0, 2] - 0.86) < 0.005
        assert table.pair_dist[0, 2] == table.breakpoints[1] - table.breakpoints[0]

    def test_three_symbol_adjacent_pairs_are_zero(self):
        table = make_alphabet_table(3)
        for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)):
            assert table.pair_dist[i, j] == 0.0

    def test_two_symbols(self):
        table = make_alphabet_table(2)
        assert table.breakpoints.tolist() == [0.0]
        assert not table.pair_dist.any()

    def test_pair_table_matches_reference(self):
        for alpha in (2, 3, 4, 7, 12, 26):
            table = make_alphabet_table(alpha)
            np.testing.assert_array_equal(
                table.pair_dist, oracles.pair_table(list(table.breakpoints))
            )

    def test_rejects_out_of_range_size(self):
        for alpha in (1, 0, -3, 27):
            with pytest.raises(ValueError):
                make_alphabet_table(alpha)

    def test_structural_validation(self):
        good = make_alphabet_table(3)
        with pytest.raises(ValueError):
            AlphabetTable(3, good.breakpoints[::-1], good.pair_dist)
        with pytest.raises(ValueError):
            AlphabetTable(3, good.breakpoints, good.pair_dist + np.eye(3))
        asym = good.pair_dist.copy()
        asym[0, 2] = 9.0
        with pytest.raises(ValueError):
            AlphabetTable(3, good.breakpoints, asym)
        with pytest.raises(ValueError):
            AlphabetTable(3, good.breakpoints[:1], good.pair_dist)

    def test_results_are_immutable(self):
        table = make_alphabet_table(4)
        with pytest.raises(ValueError):
            table.breakpoints[0] = 0.0
        with pytest.raises(ValueError):
            table.pair_dist[0, 0] = 1.0


class TestPaa:
    def test_single_block_hides_opposite_trends(self):
        seg = segment("classic", 4, 1)
        assert paa([-6.0, -1.0, 7.0, 8.0], seg).means.tolist() == [2.0]
        assert paa([9.0, 3.0, 1.0, -5.0], seg).means.tolist() == [2.0]

    def test_interleaved_blocks(self):
        seg = segment("intertwine", 4, 2)  # blocks {0,2} and {1,3}
        assert seg.blocks.tolist() == [[0, 2], [1, 3]]
        assert paa([1.0, 2.0, 3.0, 4.0], seg).means.tolist() == [2.0, 3.0]

    def test_truncation_ignores_trailing_points(self):
        seg = segment("classic", 10, 3)  # w=3, indices 9.. dropped
        out = paa(np.arange(10, dtype=float), seg)
        assert out.means.tolist() == [1.0, 4.0, 7.0]
        assert out.source_length == 9

    def test_rejects_too_short_series(self):
        seg = segment("classic", 8, 2)
        with pytest.raises(ValueError):
            paa([1.0, 2.0, 3.0], seg)

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            PaaVector(np.array([1.0, 2.0]), 5)  # 5 not a multiple of 2
        with pytest.raises(ValueError):
            PaaVector(np.array([]), 4)
        vec = PaaVector(np.array([1.0, 2.0]), 8)
        assert vec.m == 2
        with pytest.raises(ValueError):
            vec.means[0] = 0.0


class TestSymbolize:
    def test_three_symbols(self):
        table = make_alphabet_table(3)
        vec = PaaVector(np.array([-1.0, 0.0, 1.0]), 12)
        word = symbolize(vec, table)
        assert word.symbols.tolist() == [0, 1, 2]
        assert word.to_letters() == "abc"

    def test_zero_means_hit_middle_symbol_for_odd_alphabets(self):
        for alpha in (3, 5, 7, 11):
            table = make_alphabet_table(alpha)
            word = symbolize(PaaVector(np.zeros(4), 8), table)
            assert word.symbols.tolist() == [alpha // 2] * 4

    def test_mean_on_breakpoint_maps_down(self):
        table = make_alphabet_table(3)
        vec = PaaVector(np.array([float(table.breakpoints[0])]), 4)
        assert symbolize(vec, table).symbols.tolist() == [0]

    def test_word_metadata(self):
        table = make_alphabet_table(5)
        word = symbolize(PaaVector(np.array([0.0, 2.0]), 10), table)
        assert word.alphabet_size == 5
        assert word.source_length == 10
        assert word.m == 2

    def test_word_validation(self):
        with pytest.raises(ValueError):
            SaxWord(np.array([0, 3]), 3, 8)  # symbol 3 outside alphabet of 3
        with pytest.raises(ValueError):
            SaxWord(np.array([0, 1]), 3, 7)  # 7 not a multiple of 2


# ----------------------------------------------------------------- properties

pytestmark_properties = pytest.mark.properties


@pytest.mark.properties
@given(strategies.alphabet_sizes)
def test_breakpoints_antisymmetric(alpha):
    bp = make_alphabet_table(alpha).breakpoints
    np.testing.assert_allclose(bp + bp[::-1], 0.0, rtol=0, atol=1e-9)


@pytest.mark.properties
@given(strategies.alphabet_sizes)
def test_pair_dist_zero_band_exactly_adjacent(alpha):
    pd = make_alphabet_table(alpha).pair_dist
    idx = np.arange(alpha)
    near = np.abs(idx[:, None] - idx[None, :]) <= 1
    assert not pd[near].any()
    assert (pd[~near] > 0).all()


@pytest.mark.properties
@given(strategies.seg_configs(max_n=48), st.randoms(use_true_random=False))
def test_paa_permutation_invariant_within_blocks(config, rnd):
    scheme, n, m = config
    seg = segment(scheme, n, m)
    shuffled = seg.blocks.copy()
    for row in shuffled:
        rnd.shuffle(row)
    reordered = Segmentation(seg.scheme, seg.n_effective, seg.m, shuffled)
    x = np.linspace(-2.0, 2.0, n) ** 3
    np.testing.assert_array_equal(paa(x, seg).means, paa(x, reordered).means)


@pytest.mark.properties
@given(strategies.series(min_size=2, max_size=64))
def test_znormalize_idempotent(x):
    mu, sd = float(np.mean(x)), float(np.std(x))
    # skip the regime where deviations sit at machine-epsilon of the offset:
    # there cancellation noise dominates the signal and no normalizer is stable
    assume(sd == 0.0 or sd > 1e-7 * (1.0 + abs(mu)))
    once = znormalize(x)
    np.testing.assert_allclose(znormalize(once), once, rtol=0, atol=1e-9)


@pytest.mark.properties
@given(strategies.series(min_size=2, max_size=64))
def test_znormalize_centers_and_scales(x):
    mu, sd = float(np.mean(x)), float(np.std(x))
    assume(sd == 0.0 or sd > 1e-7 * (1.0 + abs(mu)))
    z = znormalize(x)
    if sd == 0.0:
        assert not z.any()
    else:
        assert abs(float(z.mean())) < 1e-9
        assert abs(float(z.std()) - 1.0) < 1e-9


@pytest.mark.properties
@given(
    st.integers(2, 26),
    st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=16),
    st.lists(st.floats(0, 4, allow_nan=False), min_size=16, max_size=16),
)
def test_symbolize_monotone_in_means(alpha, base, bumps):
    table = make_alphabet_table(alpha)
    m = len(base)
    lo = PaaVector(np.array(base), m * 4)
    hi = PaaVector(np.array(base) + np.array(bumps[:m]), m * 4)
    assert (symbolize(lo, table).symbols <= symbolize(hi, table).symbols).all()
