import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import ndtri

import oracles
import strategies
from test_distance import tracemalloc_peak
from trendsax import classify, cli, core, distance
from trendsax.core import (
    MAX_ALPHABET,
    AlphabetTable,
    PaaVector,
    SaxWord,
    _block_means,
    gaussian_quantile,
    make_alphabet_table,
    paa,
    symbolize,
    znormalize,
)
from trendsax.dataset import LabeledDataset
from trendsax.segmentation import SCHEMES, Segmentation, segment


def numpy_znormalize(row):
    """``(row - row.mean()) / row.std()``, or zeros for a row that znormalize treats as constant."""
    sd = row.std()
    return (row - row.mean()) / sd if sd >= 1e-12 else np.zeros_like(row)


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

    def test_overflowing_mean_raises(self):
        # finite values whose sum overflows, so the mean and the std do
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^series contains non-finite values$"):
                znormalize([1.7e308, 1.7e308])

    def test_overflowing_rows_raise_the_same_way(self):
        rows = np.array([[1.7e308, 1.7e308], [1.0, 2.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^series contains non-finite values$"):
                core._row_stats(rows)

    def test_overflowing_variance_raises(self):
        # a finite mean, but the sum of squares overflows, so the std is inf and every value would divide to 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^series contains non-finite values$"):
                znormalize([1e200, -1e200])
            with pytest.raises(ValueError, match="^series contains non-finite values$"):
                core._row_stats(np.array([[1.0, 2.0], [1e200, -1e200]]))

    def test_row_statistics_hold_no_full_size_temporary(self):
        # a cinc-like split: the centred squares are taken a row chunk at a time
        x = np.random.default_rng(6).normal(size=(1380, 1639)).cumsum(axis=1)
        assert tracemalloc_peak(core._row_stats, x) < x.nbytes / 10

    @pytest.mark.parametrize("shape", [(256,), (1, 256), (2345, 1024), (1380, 1639)],
                             ids=["1-D", "one row", "mallat-like split", "cinc-like split"])
    def test_bits_equal_numpy_std_row_by_row(self, shape):
        # the centred form must keep every bit of (x - x.mean()) / x.std(): a variance taken
        # with ``d @ d`` or ``np.dot`` adds in another order and fails here; a split's rows
        # are z-normalized inside the block means, which with m == n are the values
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(3.0, 5.0, size=shape).cumsum(axis=-1)
        rows = x.reshape(-1, shape[-1])
        if rows.shape[0] > 1:
            rows[::7] = 2.5  # constant rows among the random ones
            rows[3::7] = rows[3::7, :1]
        if x.ndim == 1:
            z = znormalize(x)
        else:
            z = _block_means(x, segment("classic", shape[-1], shape[-1]), *core._row_stats(x))
        assert z.shape == x.shape
        for got, row in zip(z.reshape(rows.shape), rows):
            assert got.tobytes() == numpy_znormalize(row).tobytes()

    @pytest.mark.parametrize("row", [
        [-0.0, 0.0], [0.0, -0.0, 0.0], [np.finfo(float).max], [-np.finfo(float).max],
        [2.0**53] * 3, [-(2.0**60)] * 4, [1.0, 1.0 + 2**-52, 1.0, 1.0],
        [5e-324, 0.0, -5e-324, 0.0], [-3.75] * 1000,
    ], ids=["-0 0", "0 -0 0", "max", "-max", "2^53", "-2^60", "1 ulp apart", "subnormal", "1000 equal"])
    def test_constant_rows_map_to_positive_zeros(self, row):
        # both paths must give +0.0 for every value, sign of zero included
        row = np.array(row)
        want = numpy_znormalize(row).tobytes()
        assert want == np.zeros_like(row).tobytes()
        seg = segment("classic", row.size, row.size)
        assert znormalize(row).tobytes() == want
        assert _block_means(row[None], seg, *core._row_stats(row[None]))[0].tobytes() == want

    @pytest.mark.parametrize("n, v", [(10, 1e300), (11, -1e300), (11, 1e200), (1000, 1e300)])
    def test_huge_constant_rows_map_to_positive_zeros(self, n, v):
        # the computed mean misses v by up to 3e284, so the centred squares overflow
        # (numpy warns); the row is still constant, with no oracle: np.std overflows too
        row, zeros = np.full(n, v), np.zeros(n).tobytes()
        seg = segment("classic", n, n)
        with np.errstate(over="ignore"):
            assert znormalize(row).tobytes() == zeros
            assert _block_means(row[None], seg, *core._row_stats(row[None]))[0].tobytes() == zeros

    def test_constant_rows_are_centred_one_below_their_min(self):
        # one rule for a row below _DEGENERATE_STD and for a huge row whose squares overflowed
        rows = np.array([np.full(10, 2.0), np.where(np.arange(10) % 3, 1.0, 1.0 + 2**-52),
                         np.full(10, 1e300), np.arange(10.0)])
        with np.errstate(over="ignore"):
            mean, sd = core._row_stats(rows)
        assert mean[:, 0].tolist() == [1.0, 0.0, 1e300, 4.5]
        assert sd[:3, 0].tolist() == [np.inf] * 3 and sd[3, 0] == rows[3].std()

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

    @pytest.mark.parametrize("p", [1e-300, 1e-310, 5e-324, 1 - 2**-53])
    def test_deep_tails_match_scipy_inverse_cdf(self, p):
        assert abs(gaussian_quantile(p) - float(ndtri(p))) < 1e-13

    def test_no_alphabet_table_reaches_the_tails(self):
        # the smallest breakpoint probability is 1 / MAX_ALPHABET
        assert 1 / MAX_ALPHABET >= core._Q_P_LOW, (
            "a larger alphabet would take breakpoints from the statistics.NormalDist tail, "
            "whose bits differ from the central branch's, and change report bytes")

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

    def test_rejects_a_fractional_size(self):
        with pytest.raises(ValueError, match="alphabet size must be integral"):
            make_alphabet_table(4.9)
        assert make_alphabet_table(4.0) is make_alphabet_table(4)

    def test_structural_validation(self):
        good = make_alphabet_table(3)
        with pytest.raises(ValueError):
            AlphabetTable(good.breakpoints[::-1], good.pair_dist)
        with pytest.raises(ValueError):
            AlphabetTable(good.breakpoints, good.pair_dist + np.eye(3))
        asym = good.pair_dist.copy()
        asym[0, 2] = 9.0
        with pytest.raises(ValueError):
            AlphabetTable(good.breakpoints, asym)
        with pytest.raises(ValueError):
            AlphabetTable(good.breakpoints[:1], good.pair_dist)
        with pytest.raises(ValueError, match="^breakpoints must be one-dimensional"):
            AlphabetTable(good.breakpoints[None], good.pair_dist)
        with pytest.raises(ValueError, match=r"^pair_dist must be 3x3, got \(2, 2\)$"):
            AlphabetTable(good.breakpoints, good.pair_dist[:2, :2])

    @pytest.mark.parametrize("change", ["inf off the band", "scaled by 1e-25", "scaled by 1e25"])
    def test_rejects_entries_the_float32_filter_cannot_bound(self, change):
        # an entry whose square is not a normal float32 breaks the 1NN filter's error bound
        good = make_alphabet_table(4)
        pair_dist = good.pair_dist.copy()
        if change == "inf off the band":
            pair_dist[0, 3] = pair_dist[3, 0] = np.inf
        else:
            pair_dist *= float(change.rpartition(" ")[2])
        message = "pair_dist must be finite, and every nonzero entry must square to a normal float32"
        with pytest.raises(ValueError, match=f"^{message}$"):
            AlphabetTable(good.breakpoints, pair_dist)

    def test_every_library_table_builds(self):
        f32 = np.finfo(np.float32)
        for alpha in range(2, 27):
            table = make_alphabet_table(alpha)
            assert AlphabetTable(table.breakpoints, table.pair_dist).alphabet_size == alpha
            sq = table.pair_dist[table.pair_dist > 0] ** 2
            assert ((sq >= f32.tiny) & (sq <= f32.max)).all(), alpha

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


class TestBlockMeans:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_paa_adds_each_block_in_the_oracle_order(self, scheme):
        # numpy sums a contiguous axis pairwise from 8 terms on, and drops
        # the block axis when m == 1; every block must add left to right
        rng = np.random.default_rng(11)
        for m in (1, 2, 3, 7):
            for w in range(1, 41):
                seg = segment(scheme, m * w + int(rng.integers(0, m)), m)
                z = znormalize(rng.standard_normal(seg.n_effective + 3).cumsum())
                want = oracles.paa_means(z.tolist(), seg.blocks.tolist())
                assert np.array_equal(paa(z, seg).means, want), (m, w)

    @pytest.mark.parametrize("chunk_values", [1, 500, 2**16])
    def test_rows_in_any_chunking_equal_the_oracle(self, monkeypatch, chunk_values):
        monkeypatch.setattr(core, "_CHUNK_VALUES", chunk_values)
        rng = np.random.default_rng(12)
        for case, (m, w) in enumerate([(1, 9), (2, 8), (5, 13), (16, 4), (3, 33)]):
            seg = segment(SCHEMES[case % len(SCHEMES)], m * w, m)
            z = rng.standard_normal((13, m * w + 1))[:, 1:]  # a view, as load_ucr returns
            want = [oracles.paa_means(row, seg.blocks.tolist()) for row in z.tolist()]
            assert np.array_equal(_block_means(z, seg), want), (m, w)

    def test_whole_splits_equal_the_oracle(self):
        # the split path: block means of the raw rows, z-normalized from their row statistics;
        # blocks of w >= 8 points are where a numpy reduction would sum in
        # another order, and constant rows take the zero branch
        rng = np.random.default_rng(6)
        long_blocks = 0
        for case in range(120):
            m = int(rng.integers(1, 17))
            w = int(rng.integers(1, 33))
            n = m * w + int(rng.integers(0, m))
            rows = int(rng.integers(1, 9))
            series = rng.standard_normal((rows, n + 1)).cumsum(axis=1) * 10.0 ** rng.integers(-3, 4)
            series[rng.random(rows) < 0.25] = rng.standard_normal()
            # a view past a first column, the layout load_ucr returns
            series = series[:, 1:]
            seg = segment(SCHEMES[case % len(SCHEMES)], n, m)
            long_blocks += seg.w >= 8
            want = [oracles.paa_means(oracles.znormalize(row), seg.blocks.tolist()) for row in series.tolist()]
            got = _block_means(series, seg, *core._row_stats(series))
            assert np.array_equal(got, want), (seg.scheme, rows, n, m)
        assert long_blocks >= 40

    @pytest.mark.parametrize("chunk_values", [1, 500, 2**16])
    def test_row_statistics_give_the_means_of_the_normalized_rows(self, monkeypatch, chunk_values):
        # raw rows z-normalized chunk by chunk inside the gather keep every bit of the means of
        # the rows z-normalized one by one
        monkeypatch.setattr(core, "_CHUNK_VALUES", chunk_values)
        rng = np.random.default_rng(14)
        for case, (m, w) in enumerate([(1, 9), (2, 8), (5, 13), (16, 4), (3, 33)]):
            series = rng.standard_normal((13, m * w + 2)).cumsum(axis=1) * 10.0 ** (case - 2)
            series[::4] = series[::4, :1]  # constant rows take the zero branch
            series = series[:, 1:]  # a view, as load_ucr returns
            seg = segment(SCHEMES[case % len(SCHEMES)], m * w + 1, m)
            got = _block_means(series, seg, *core._row_stats(series))
            z = np.array([numpy_znormalize(row) for row in series])
            assert got.tobytes() == _block_means(z, seg).tobytes(), (m, w)

    def test_memory_stays_bounded(self):
        z = np.random.default_rng(13).standard_normal((2000, 1024))
        seg = segment("split", 1024, 256)
        tracemalloc.start()
        try:
            _block_means(z, seg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (2000, 256) result is 4.1 MB; one unchunked (2000, 4, 256) gather adds 16.4 MB
        assert peak < 8e6


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

    def test_sweep_equals_one_search_per_table(self):
        tables = [make_alphabet_table(alpha) for alpha in range(2, MAX_ALPHABET + 1)]
        bp = np.concatenate([table.breakpoints for table in tables])
        means = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf), [0.0, -0.0],
                                np.random.default_rng(97).standard_normal(10**5)])[:, None]
        for table in tables:
            rows, want = core._symbols(means, table), np.searchsorted(table.breakpoints, means, side="left")
            assert rows.dtype == np.int64 and np.array_equal(rows, want), table.alphabet_size

    def test_symbol_matrix_allocates_its_result_once(self, monkeypatch):
        # a wide-workload test split, searched: the (2345, 256) int64 result is 4.8 MB
        means = np.random.default_rng(98).standard_normal((2345, 256))
        table = make_alphabet_table(10)
        monkeypatch.setattr(core, "_SEARCH_MEANS", means.size)
        tracemalloc.start()
        try:
            symbols = core._symbols(means, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * symbols.nbytes

    def test_counting_equals_the_search_at_every_breakpoint(self, monkeypatch):
        table = make_alphabet_table(MAX_ALPHABET)
        bp = table.breakpoints
        means = np.stack([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)])
        rows = core._symbols(means, table)
        monkeypatch.setattr(core, "_SEARCH_MEANS", 0)
        assert rows.dtype == np.int64 and np.array_equal(rows, core._symbols(means, table))
        assert rows[0].tolist() == rows[1].tolist() == list(range(MAX_ALPHABET - 1))
        assert rows[2].tolist() == list(range(1, MAX_ALPHABET))

    def test_symbol_counts_allocate_their_result_once(self):
        # the same split as above, symbolized by counting: a uint8 count and its comparisons are 1/8 each
        means = np.random.default_rng(98).standard_normal((2345, 256))
        table = make_alphabet_table(10)
        assert means.size > core._SEARCH_MEANS
        assert tracemalloc_peak(core._symbols, means, table) < 1.5 * means.size * 8

    @pytest.mark.parametrize("copies", [1, 2], ids=["within the search threshold", "beyond it"])
    def test_search_and_count_give_equal_symbols(self, monkeypatch, copies):
        # means on, just below and just above every breakpoint of every size, and both zeros
        tables = [make_alphabet_table(alpha) for alpha in range(2, MAX_ALPHABET + 1)]
        bp = np.concatenate([table.breakpoints for table in tables])
        row = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf), [0.0, -0.0]])
        means = np.tile(row, (copies, 1))
        default = core._SEARCH_MEANS
        assert (means.size <= default) == (copies == 1)
        for table in tables:
            want = np.searchsorted(table.breakpoints, means, side="left")
            for threshold in (default, 0, means.size + 1):
                monkeypatch.setattr(core, "_SEARCH_MEANS", threshold)
                symbols = core._symbols(means, table)
                # writable, so that np.take gathers by it without a copy
                assert symbols.dtype == np.int64 and symbols.flags.writeable
                assert np.array_equal(symbols, want), (table.alphabet_size, threshold)

    def test_every_caller_takes_its_symbols_from_core(self, monkeypatch, mini_dir, capsys):
        # classify, cli and distance bind core._symbols by name: wrap each binding
        calls = []
        symbols = core._symbols

        def spy(means, table):
            calls.append(means.shape)
            return symbols(means, table)

        bound = [module for name, module in sys.modules.items()
                 if name.split(".")[0] == "trendsax" and getattr(module, "_symbols", None) is symbols]
        assert {module.__name__ for module in bound} >= {"trendsax.core", "trendsax.classify",
                                                        "trendsax.cli", "trendsax.distance"}
        for module in bound:
            monkeypatch.setattr(module, "_symbols", spy)
        rng = np.random.default_rng(99)
        s, t = znormalize(rng.standard_normal(64)), znormalize(rng.standard_normal(64))
        train = LabeledDataset(rng.standard_normal((12, 64)), np.arange(12) % 2)
        uses = {
            "symbolize": lambda: symbolize(paa(s, segment("classic", 64, 16)), make_alphabet_table(5)),
            "verify_lower_bound": lambda: distance.verify_lower_bound(s, t, "split", 16, 5),
            "tune_alphabet": lambda: classify.tune_alphabet(train, "overlap", 8, range(3, 6)),
            "evaluate": lambda: classify.evaluate(train, train, "intertwine", 8, range(3, 6)),
            "convert": lambda: cli.main(["convert", str(mini_dir / "Mini_TRAIN.txt")]),
        }
        reached = {}
        for name, use in uses.items():
            calls.clear()
            use()
            reached[name] = len(calls)
        capsys.readouterr()
        assert reached == {"symbolize": 1, "verify_lower_bound": 1, "tune_alphabet": 4,
                           "evaluate": 5, "convert": 1}

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

    def test_word_rejects_empty_symbols(self):
        for symbols in ([], np.zeros((1, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="^symbols must be a non-empty one-dimensional sequence$"):
                SaxWord(symbols, 3, 4)

    def test_word_rejects_a_fractional_alphabet_size(self):
        with pytest.raises(ValueError, match="alphabet size must be integral"):
            SaxWord([0, 2], 3.5, 4)

    def test_integral_float_sizes_are_stored_as_ints(self):
        good = make_alphabet_table(3)
        word = SaxWord([0, 2], 3.0, 4.0)
        sizes = [word.alphabet_size, word.source_length, PaaVector([0.1, 0.2], 4.0).source_length,
                 AlphabetTable(good.breakpoints, good.pair_dist).alphabet_size]
        assert sizes == [3, 4, 4, 3]
        assert [type(size) for size in sizes] == [int] * 4

    def test_word_rejects_fractional_symbols(self):
        with pytest.raises(ValueError, match="symbols must be integral"):
            SaxWord([0.7, 1.9], 3, 2)
        assert SaxWord([0.0, 2.0], 3, 2).symbols.tolist() == [0, 2]


# ----------------------------------------------------------------- properties


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
    reordered = Segmentation(seg.scheme, shuffled)
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
