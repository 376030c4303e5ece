import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import strategies
from trendsax import classify, distance
from trendsax.classify import TunedModel, _loocv_from_rows, nn1
from trendsax.core import PaaVector, SaxWord, make_alphabet_table, paa, symbolize, znormalize
from trendsax.distance import (
    LOWER_BOUND_TOLERANCE,
    _dist_sq,
    _nearest,
    euclidean,
    mindist,
    verify_lower_bound,
)
from trendsax.segmentation import SCHEMES, segment


def word_of(symbols, alpha, n):
    return SaxWord(np.array(symbols, dtype=np.int64), alpha, n)


class TestEuclidean:
    def test_identical_series(self):
        assert euclidean([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_three_four_five(self):
        assert euclidean([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 80))
            s, t = rng.normal(size=n), rng.normal(size=n)
            assert euclidean(s, t) == pytest.approx(oracles.euclidean(s, t), rel=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            euclidean([1.0, 2.0], [1.0, 2.0, 3.0])


class TestMindist:
    def test_identical_words(self):
        table = make_alphabet_table(3)
        w = word_of([0, 1, 2, 1], 3, 16)
        assert mindist(w, w, table) == 0.0

    def test_adjacent_symbols_cost_nothing(self):
        table = make_alphabet_table(3)
        s = word_of([0, 0, 0, 0], 3, 16)
        t = word_of([1, 1, 1, 1], 3, 16)
        assert mindist(s, t, table) == 0.0

    def test_far_symbols_price_the_breakpoint_gap(self):
        table = make_alphabet_table(3)
        s = word_of([0, 0, 0, 0], 3, 16)
        t = word_of([2, 2, 2, 2], 3, 16)
        gap = float(table.pair_dist[0, 2])
        got = mindist(s, t, table)
        # sqrt(16/4) * sqrt(4 * gap^2) = 4 * gap
        assert got == pytest.approx(4.0 * gap, abs=1e-12)
        assert got == pytest.approx(3.4456, abs=1e-3)

    def test_matches_reference(self):
        rng = np.random.default_rng(31)
        table = make_alphabet_table(6)
        ref_table = oracles.pair_table(list(table.breakpoints))
        for _ in range(50):
            # long words too: a pairwise sum would change the last bits
            m = int(rng.integers(1, 201))
            a = rng.integers(0, 6, size=m).tolist()
            b = rng.integers(0, 6, size=m).tolist()
            got = mindist(word_of(a, 6, m * 4), word_of(b, 6, m * 4), table)
            assert got == oracles.mindist(a, b, ref_table, m * 4, m)

    def test_equals_the_matrix_kernel_exactly(self):
        # the scalar path and the batched kernel must sum in the same order
        rng = np.random.default_rng(47)
        for _ in range(500):
            alpha = int(rng.integers(2, 27))
            m = int(rng.integers(1, 200))
            n = m * int(rng.integers(1, 5))
            table = make_alphabet_table(alpha)
            a = rng.integers(0, alpha, size=m)
            b = rng.integers(0, alpha, size=m)
            d2 = _dist_sq(a, b, table.pair_dist**2)
            expected = math.sqrt(n / m) * math.sqrt(d2)
            assert mindist(word_of(a, alpha, n), word_of(b, alpha, n), table) == expected

    def test_rejects_incompatible_words(self):
        t3, t4 = make_alphabet_table(3), make_alphabet_table(4)
        with pytest.raises(ValueError):
            mindist(word_of([0, 1], 3, 8), word_of([0, 1, 2], 3, 12), t3)
        with pytest.raises(ValueError):
            mindist(word_of([0, 1], 3, 8), word_of([0, 1], 4, 8), t4)
        with pytest.raises(ValueError):
            mindist(word_of([0, 1], 3, 8), word_of([0, 1], 3, 16), t3)


def kernel_case(alpha):
    """Seeded 150x64 and 120x64 symbol rows, labels for the 150, and the tables."""
    rng = np.random.default_rng(61)
    a = rng.integers(0, alpha, size=(150, 64))
    b = rng.integers(0, alpha, size=(120, 64))
    labels = rng.integers(1, 5, size=150)
    table = make_alphabet_table(alpha)
    return a, b, labels, table, oracles.pair_table(list(table.breakpoints))


@functools.lru_cache(maxsize=None)
def oracle_answers(alpha):
    """The oracle's LOOCV error on ``kernel_case`` and its 1NN labels for the 120 queries."""
    a, b, labels, _, ref_table = kernel_case(alpha)
    error = oracles.loocv_error(a.tolist(), labels.tolist(), ref_table)
    nn1_labels = [oracles.nn1(q, a.tolist(), labels.tolist(), ref_table) for q in b.tolist()]
    return error, nn1_labels


def tracemalloc_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelAtScale:
    @pytest.mark.parametrize("alpha", [3, 20])
    def test_matrix_and_one_row_calls_equal_the_oracle(self, alpha):
        a, b, _, table, ref_table = kernel_case(alpha)
        sq = table.pair_dist**2
        d2 = _dist_sq(a[:, None], b[None], sq)
        want = [[oracles.dist_sq(x, y, ref_table) for y in b.tolist()] for x in a.tolist()]
        assert d2.tolist() == want
        for i in range(a.shape[0]):
            assert np.array_equal(_dist_sq(a[i], b, sq), d2[i])
            for width in (1, 2):  # the one-row calls of mindist and of a tiny nn1
                assert _dist_sq(a[i], b[:width], sq).tolist() == want[i][:width]

    def test_first_index_tie_break_matches_the_oracle(self):
        a, b, labels, table, ref_table = kernel_case(3)
        d2 = _dist_sq(a[:, None], a[None], table.pair_dist**2)
        np.fill_diagonal(d2, np.inf)
        tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.mean() > 0.2  # the tie-break decides many rows
        want = oracles.loocv_error(a.tolist(), labels.tolist(), ref_table)
        assert _loocv_from_rows(a, labels, table) == want
        train = [(word_of(row, 3, 256), int(label)) for row, label in zip(a, labels)]
        for query in b[:20]:
            want = oracles.nn1(query.tolist(), a.tolist(), labels.tolist(), ref_table)
            assert nn1(word_of(query, 3, 256), train, table) == want

    def test_nn1_on_the_model_view_and_a_list_equal_the_oracle(self):
        a, b, labels, table, ref_table = kernel_case(3)
        d2 = _dist_sq(b[:, None], a[None], table.pair_dist**2)
        tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.mean() > 0.3  # the first-index rule decides many queries
        model = TunedModel("classic", [(word_of(r, 3, 256), int(l)) for r, l in zip(a, labels)], table)
        words = list(model.train_words)
        for query in b:
            want = oracles.nn1(query.tolist(), a.tolist(), labels.tolist(), ref_table)
            word = word_of(query, 3, 256)
            assert nn1(word, model.train_words, table) == nn1(word, words, table) == want

    @pytest.mark.parametrize("alpha", [3, 20])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 150])
    def test_chunks_equal_one_argmin_and_the_oracle(self, monkeypatch, alpha, chunk_rows):
        a, b, labels, table, _ = kernel_case(alpha)  # 150 rows: not a multiple of 7
        sq = table.pair_dist**2
        monkeypatch.setattr(distance, "_CHUNK_BUDGET", chunk_rows * a.shape[0])
        d2 = _dist_sq(a[:, None], a[None], sq)
        np.fill_diagonal(d2, np.inf)
        assert np.array_equal(_nearest(a, a, table, leave_one_out=True), np.argmin(d2, axis=1))
        test_nearest = _nearest(b, a, table)
        assert np.array_equal(test_nearest, np.argmin(_dist_sq(b[:, None], a[None], sq), axis=1))
        error, nn1_labels = oracle_answers(alpha)
        assert _loocv_from_rows(a, labels, table) == error
        assert labels[test_nearest].tolist() == nn1_labels

    def test_distance_matrix_is_exactly_symmetric(self):
        # a distance does not depend on which side of the pair a word is on
        rng = np.random.default_rng(62)
        for alpha in range(2, 27):
            rows = rng.integers(0, alpha, size=(90, 48))
            d2 = _dist_sq(rows[:, None], rows[None], make_alphabet_table(alpha).pair_dist**2)
            assert np.array_equal(d2, d2.T), alpha

    def test_memory_stays_bounded(self):
        rng = np.random.default_rng(63)
        table = make_alphabet_table(10)
        rows = rng.integers(0, 10, size=(2000, 32))
        labels = rng.integers(1, 5, size=2000)
        # an unchunked leave-one-out holds two 2000 x 2000 float64 arrays, 64 MB
        assert tracemalloc_peak(_loocv_from_rows, rows, labels, table) < 8e6
        # unchunked test scoring would hold two 2000 x 1000 arrays, 32 MB
        assert tracemalloc_peak(_nearest, rows, rows[:1000], table) < 8e6


def oracle_nearest(queries, rows, ref_table, leave_one_out=False):
    """First index of each query's smallest ``oracles.dist_sq`` over ``rows``."""
    rows = rows.tolist()
    return [min((oracles.dist_sq(q, r, ref_table), j) for j, r in enumerate(rows)
                if not (leave_one_out and i == j))[1] for i, q in enumerate(queries.tolist())]


def exact_nearest(queries, rows, sq, leave_one_out=False):
    """First index of each query's smallest distance in the full broadcast matrix."""
    d2 = _dist_sq(queries[:, None], rows[None], sq)
    if leave_one_out:
        np.fill_diagonal(d2, np.inf)
    return np.argmin(d2, axis=1)


def count_scored_pairs(monkeypatch):
    """Patch ``distance._dist_sq`` to count the pairs it scores; returns the one-item count list."""
    scored = [0]

    def counting(a, b, sq):
        scored[0] += math.prod(np.broadcast_shapes(a.shape, b.shape)[:-1])
        return _dist_sq(a, b, sq)

    monkeypatch.setattr(distance, "_dist_sq", counting)
    return scored


def positive_tie_case():
    """120 rows at alpha = 3 and their table; a distance counts the rows' (0, 2)
    pairs, about 10 here, so many rows tie exactly at a minimum above 0."""
    rng = np.random.default_rng(128)
    a = rng.choice(3, size=(120, 128), p=[0.2, 0.6, 0.2])
    return a, make_alphabet_table(3)


class TestPrefilter:
    # the float32 product picks candidates, and its bound decides a row that keeps
    # one of them; the exact sum must decide every row that keeps two or more

    @pytest.mark.parametrize("alpha, m", [(3, 16), (3, 409), (10, 1), (26, 64), (26, 409)])
    def test_equals_the_exact_argmin_and_the_oracle(self, alpha, m):
        rng = np.random.default_rng(alpha * 1000 + m)
        a = rng.integers(0, alpha, size=(40, m))
        b = rng.integers(0, alpha, size=(25, m))
        table = make_alphabet_table(alpha)
        sq, ref_table = table.pair_dist**2, oracles.pair_table(list(table.breakpoints))
        loo = _nearest(a, a, table, leave_one_out=True)
        assert np.array_equal(loo, exact_nearest(a, a, sq, leave_one_out=True))
        assert loo.tolist() == oracle_nearest(a, a, ref_table, leave_one_out=True)
        nearest = _nearest(b, a, table)
        assert np.array_equal(nearest, exact_nearest(b, a, sq))
        assert nearest.tolist() == oracle_nearest(b, a, ref_table)

    @pytest.mark.parametrize("m", [16, 128, 409])
    def test_mass_ties_go_to_the_first_index(self, m):
        # at alpha = 3 a distance counts the (0, 2) pairs, so many columns tie
        # exactly, and the product of a tied column may round either way
        rng = np.random.default_rng(m)
        edge = m**-0.5  # about two (0, 2) pairs per distance
        a = rng.choice(3, size=(120, m), p=[edge, 1 - 2 * edge, edge])
        table = make_alphabet_table(3)
        sq = table.pair_dist**2
        d2 = _dist_sq(a[:, None], a[None], sq)
        np.fill_diagonal(d2, np.inf)
        assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).mean() > 0.5
        assert np.array_equal(_nearest(a, a, table, leave_one_out=True), np.argmin(d2, axis=1))
        assert np.array_equal(_nearest(a[:30], a[30:], table), exact_nearest(a[:30], a[30:], sq))

    def test_separated_rows_are_decided_by_the_bound_alone(self, monkeypatch):
        rng = np.random.default_rng(26)
        a = rng.integers(0, 26, size=(60, 64))
        b = rng.integers(0, 26, size=(30, 64))
        table = make_alphabet_table(26)
        sq, ref_table = table.pair_dist**2, oracles.pair_table(list(table.breakpoints))
        want_loo = exact_nearest(a, a, sq, leave_one_out=True)
        want_test = exact_nearest(b, a, sq)
        scored = count_scored_pairs(monkeypatch)
        loo, nearest = _nearest(a, a, table, leave_one_out=True), _nearest(b, a, table)
        assert scored == [0]
        assert np.array_equal(loo, want_loo)
        assert loo.tolist() == oracle_nearest(a, a, ref_table, leave_one_out=True)
        assert np.array_equal(nearest, want_test)
        assert nearest.tolist() == oracle_nearest(b, a, ref_table)

    def test_tied_rows_are_rescored(self, monkeypatch):
        # exact ties above 0 keep two or more columns, so the exact sum decides
        a, table = positive_tie_case()
        d2 = _dist_sq(a[:, None], a[None], table.pair_dist**2)
        np.fill_diagonal(d2, np.inf)
        scored = count_scored_pairs(monkeypatch)
        assert np.array_equal(_nearest(a, a, table, leave_one_out=True), np.argmin(d2, axis=1))
        low = d2.min(axis=1, keepdims=True)
        tied_rows = int((((d2 == low).sum(axis=1) > 1) & (low[:, 0] > 0)).sum())
        assert scored[0] >= 2 * tied_rows > 0

    def test_exact_zero_rows_are_decided_by_the_bound_alone(self, monkeypatch):
        # in the mass-tie data every row's minimum is an exact 0, mostly at several
        # columns; a product of 0 adds only zero terms, so the row keeps its exact
        # zeros and the first of them is its answer
        rng = np.random.default_rng(128)
        edge = 128**-0.5
        a = rng.choice(3, size=(120, 128), p=[edge, 1 - 2 * edge, edge])
        table = make_alphabet_table(3)
        sq = table.pair_dist**2
        d2 = _dist_sq(a[:, None], a[None], sq)
        np.fill_diagonal(d2, np.inf)
        assert (d2.min(axis=1) == 0).all() and ((d2 == 0).sum(axis=1) > 1).mean() > 0.9
        want_test = exact_nearest(a[:30], a[30:], sq)
        scored = count_scored_pairs(monkeypatch)
        assert np.array_equal(_nearest(a, a, table, leave_one_out=True), np.argmin(d2, axis=1))
        assert np.array_equal(_nearest(a[:30], a[30:], table), want_test)
        assert scored == [0]

    def test_leave_one_out_never_picks_the_row_itself(self):
        # duplicate rows sit at distance 0 from each other and from themselves
        rng = np.random.default_rng(81)
        a = rng.integers(0, 26, size=(30, 64))[rng.integers(0, 10, size=30)]
        table = make_alphabet_table(26)
        loo = _nearest(a, a, table, leave_one_out=True)
        assert (loo != np.arange(30)).all()
        assert np.array_equal(loo, exact_nearest(a, a, table.pair_dist**2, leave_one_out=True))

    @pytest.mark.parametrize("alpha, m", [(6, 200), (26, 409)])
    def test_permuted_near_ties_follow_the_exact_sum(self, alpha, m):
        # every query relabels the symbols of one pattern, and every training row
        # permutes one base row among the positions where the pattern repeats a
        # symbol: a query meets the same terms in every row, equal real sums added
        # in other orders, so the exact sums differ only in their last bits and
        # the products by a few float32 steps
        rng = np.random.default_rng(alpha + m)
        table = make_alphabet_table(alpha)
        pattern = rng.integers(0, alpha, size=m)
        queries = np.stack([rng.permutation(alpha)[pattern] for _ in range(16)])
        base = rng.integers(0, alpha, size=m)
        rows = np.tile(base, (200, 1))
        for symbol in range(alpha):
            at = np.flatnonzero(pattern == symbol)
            rows[:, at] = base[at][rng.permuted(np.tile(np.arange(at.size), (200, 1)), axis=1)]
        d2 = _dist_sq(queries[:, None], rows[None], table.pair_dist**2)
        assert all(np.unique(d).size > 1 for d in d2)
        assert np.array_equal(_nearest(queries, rows, table), np.argmin(d2, axis=1))


class TestNn1Filter:
    # nn1 goes through _nearest with the model's one-hot, so the filter and its
    # refine step decide single queries as they decide leave-one-out and test rows

    @staticmethod
    def model_of(rows, alpha, n=256):
        labels = np.arange(rows.shape[0]) % 5
        table = make_alphabet_table(alpha)
        return TunedModel("classic", [(word_of(r, alpha, n), int(l)) for r, l in zip(rows, labels)], table)

    def test_a_separated_query_scores_no_pairs(self, monkeypatch):
        rng = np.random.default_rng(26)
        a = rng.integers(0, 26, size=(60, 64))
        queries = rng.integers(0, 26, size=(30, 64))
        model = self.model_of(a, 26)
        want = model.train_words.labels[exact_nearest(queries, a, model.table.pair_dist**2)]
        scored = count_scored_pairs(monkeypatch)
        got = [nn1(word_of(q, 26, 256), model.train_words, model.table) for q in queries]
        assert scored == [0]
        assert got == want.tolist()

    def test_a_model_builds_its_one_hot_once(self, monkeypatch):
        a, _, _, _, _ = kernel_case(20)
        model = self.model_of(a, 20)
        one_hot, built = distance._one_hot, []

        def spy(b, alpha):
            built.append(b.shape)
            return one_hot(b, alpha)

        monkeypatch.setattr(distance, "_one_hot", spy)
        monkeypatch.setattr(classify, "_one_hot", spy)
        for query in a[:20]:
            nn1(word_of(query, 20, 256), model.train_words, model.table)
        assert built == [a.shape]
        assert model.train_words.one_hot is model.train_words.one_hot
        assert not model.train_words.one_hot.flags.writeable
        # a list of pairs is stacked on every call, and so is its one-hot
        nn1(word_of(a[0], 20, 256), list(model.train_words), model.table)
        assert built == [a.shape] * 2

    def test_tied_queries_are_refined_to_the_oracle(self, monkeypatch):
        a, table = positive_tie_case()
        train, queries = a[:90], a[90:]
        d2 = _dist_sq(queries[:, None], train[None], table.pair_dist**2)
        low = d2.min(axis=1, keepdims=True)
        assert (((d2 == low).sum(axis=1) > 1) & (low[:, 0] > 0)).mean() > 0.2
        model = self.model_of(train, 3)
        ref_table = oracles.pair_table(list(model.table.breakpoints))
        labels = model.train_words.labels.tolist()
        for path in (model.train_words, list(model.train_words)):
            scored = count_scored_pairs(monkeypatch)
            for query in queries:
                want = oracles.nn1(query.tolist(), train.tolist(), labels, ref_table)
                assert nn1(word_of(query, 3, 256), path, model.table) == want
            assert scored[0] > 0


class TestVerifyLowerBound:
    def test_identical_series(self):
        x = znormalize(np.arange(16.0))
        for scheme in SCHEMES:
            report = verify_lower_bound(x, x, scheme, 4, 5)
            assert report.holds
            assert report.mindist == 0.0
            assert report.slack == report.euclidean == 0.0

    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(47)
        for scheme in SCHEMES:
            for _ in range(1000):
                s = znormalize(rng.standard_normal(128))
                t = znormalize(rng.standard_normal(128))
                assert verify_lower_bound(s, t, scheme, 32, 8).holds

    def test_opposite_trends_collapse_to_zero_word_distance(self):
        s = znormalize([-6.0, -1.0, 7.0, 8.0])
        t = znormalize([9.0, 3.0, 1.0, -5.0])
        report = verify_lower_bound(s, t, "classic", 1, 3)
        assert report.holds
        assert report.mindist == 0.0
        assert report.euclidean > 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_lower_bound([1.0, 2.0], [1.0, 2.0, 3.0], "classic", 1, 3)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_equals_the_word_composition_exactly(self, scheme):
        rng = np.random.default_rng(71)
        table = make_alphabet_table(8)
        for m, n in [(1, 40), (4, 64), (5, 83), (16, 256), (64, 256)]:
            seg = segment(scheme, n, m)
            for _ in range(20):
                s = znormalize(rng.standard_normal(n).cumsum())
                t = znormalize(rng.standard_normal(n).cumsum())
                word_s, word_t = (symbolize(paa(x, seg), table) for x in (s, t))
                want = (mindist(word_s, word_t, table), euclidean(s, t))
                report = verify_lower_bound(s, t, scheme, m, 8)
                assert (report.mindist, report.euclidean) == want, (m, n)
                assert report.slack == want[1] - want[0]

    @pytest.mark.parametrize("s, t, m, alpha, message", [
        ([np.nan, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 2, 4, "series contains non-finite values"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, np.inf], 2, 4, "series contains non-finite values"),
        ([np.nan, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 5, 4, "m=5 exceeds series length 4"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 2, 30, "alphabet size must be in [2, 26], got 30"),
        ([0.0, 1.0], [1.0, 2.0, 3.0], 1, 4,
         "series must be one-dimensional and equal length, got (2,) and (3,)"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 2.5, 4,
         "n and m must be integral and within the int64 range"),
    ], ids=["nan-left", "inf-right", "m-above-n-first", "alphabet", "length", "fractional-m"])
    def test_messages_and_their_order(self, s, t, m, alpha, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_lower_bound(s, t, "split", m, alpha)


# ----------------------------------------------------------------- properties


@pytest.mark.properties
@given(strategies.word_pairs())
def test_mindist_symmetric_nonnegative_zero_on_self(case):
    alpha, m, n, a, b = case
    table = make_alphabet_table(alpha)
    wa, wb = word_of(a, alpha, n), word_of(b, alpha, n)
    d = mindist(wa, wb, table)
    assert d >= 0.0
    assert d == mindist(wb, wa, table)
    assert mindist(wa, wa, table) == 0.0


@pytest.mark.properties
@given(
    strategies.series_pairs(min_size=2, max_size=64),
    strategies.schemes,
    st.integers(2, 10),
    st.data(),
)
def test_lower_bound_holds(pair, scheme, alpha, data):
    s, t = znormalize(pair[0]), znormalize(pair[1])
    m = data.draw(st.integers(1, s.size), label="m")
    report = verify_lower_bound(s, t, scheme, m, alpha)
    assert report.holds
    assert report.mindist <= report.euclidean + LOWER_BOUND_TOLERANCE


def test_mean_slack_shrinks_with_larger_alphabet():
    """Statistical regression check on a fixed pair set, not per-pair."""
    rng = np.random.default_rng(59)
    pairs = [
        (znormalize(rng.standard_normal(64)), znormalize(rng.standard_normal(64)))
        for _ in range(1000)
    ]
    def mean_slack(alpha):
        return float(np.mean([
            verify_lower_bound(s, t, "classic", 16, alpha).slack for s, t in pairs
        ]))
    assert mean_slack(10) <= mean_slack(3)


@pytest.mark.properties
@given(strategies.word_pairs(max_m=16))
def test_mindist_is_a_function_of_the_words_alone(case):
    alpha, m, n, a, b = case
    table = make_alphabet_table(alpha)
    first = mindist(word_of(a, alpha, n), word_of(b, alpha, n), table)
    again = mindist(word_of(list(a), alpha, n), word_of(list(b), alpha, n), table)
    assert first == again


def test_identical_words_from_different_schemes_share_mindist():
    # step series: classic and overlap agree on "ac"/"ca"; intertwine and
    # split both average the step away to "bb"/"bb"
    x = znormalize(np.repeat([-1.0, 1.0], 8))
    y = znormalize(np.repeat([1.0, -1.0], 8))
    table = make_alphabet_table(3)
    by_words: dict[tuple[str, str], set[float]] = {}
    for scheme in SCHEMES:
        seg = segment(scheme, 16, 2)
        wx = symbolize(paa(x, seg), table)
        wy = symbolize(paa(y, seg), table)
        by_words.setdefault((wx.to_letters(), wy.to_letters()), set()).add(
            mindist(wx, wy, table)
        )
    assert ("ac", "ca") in by_words and ("bb", "bb") in by_words
    for distances in by_words.values():
        assert len(distances) == 1
