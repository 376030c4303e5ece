import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from test_distance import tracemalloc_peak
from trendsax import core, distance
from trendsax.classify import (
    EvaluationReport,
    LabeledDataset,
    TunedModel,
    evaluate,
    loocv_error,
    nn1,
    tune_alphabet,
)
from trendsax.core import AlphabetTable, SaxWord, make_alphabet_table, paa, symbolize, znormalize
from trendsax.segmentation import SCHEMES, segment


def word_of(symbols, alpha, n):
    return SaxWord(np.array(symbols, dtype=np.int64), alpha, n)


def random_dataset(rng, n_instances, n, n_classes=2, spread=1.0):
    prototypes = [rng.standard_normal(n).cumsum() for _ in range(n_classes)]
    rows, labels = [], []
    for i in range(n_instances):
        label = int(rng.integers(n_classes))
        rows.append(prototypes[label] + rng.normal(0, spread, size=n))
        labels.append(label + 1)
    return LabeledDataset(np.array(rows), np.array(labels, dtype=np.int64))


def library_words(data: LabeledDataset, scheme, m, table):
    seg = segment(scheme, data.n, m)
    return [
        symbolize(paa(znormalize(row), seg), table) for row in data.series
    ]


class TestNn1:
    def test_exact_match_wins(self):
        table = make_alphabet_table(4)
        train = [
            (word_of([0, 0, 3, 3], 4, 16), 1),
            (word_of([3, 3, 0, 0], 4, 16), 2),
            (word_of([0, 3, 0, 3], 4, 16), 3),
        ]
        assert nn1(word_of([3, 3, 0, 0], 4, 16), train, table) == 2

    def test_tie_goes_to_earlier_index(self):
        table = make_alphabet_table(4)
        # both training words sit at the same distance from the query
        train = [
            (word_of([0, 0], 4, 8), 7),
            (word_of([3, 3], 4, 8), 8),
        ]
        query = word_of([0, 3], 4, 8)
        assert nn1(query, train, table) == 7

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(67)
        table = make_alphabet_table(5)
        ref_pair = oracles.pair_table(list(table.breakpoints))
        for _ in range(30):
            m = int(rng.integers(2, 12))
            rows = rng.integers(0, 5, size=(30, m))
            labels = rng.integers(1, 4, size=30)
            train = [(word_of(r, 5, m * 4), int(l)) for r, l in zip(rows, labels)]
            query_syms = rng.integers(0, 5, size=m)
            got = nn1(word_of(query_syms, 5, m * 4), train, table)
            want = oracles.nn1(query_syms.tolist(), rows.tolist(), labels.tolist(), ref_pair)
            assert got == want

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            nn1(word_of([0], 3, 4), [], make_alphabet_table(3))

    @pytest.mark.parametrize("path", ["model view", "list"])
    @pytest.mark.parametrize("query, alpha", [
        (word_of([0, 1, 2], 4, 12), 4),     # word length
        (word_of([0, 1, 2, 3], 5, 16), 4),  # alphabet size
        (word_of([0, 1, 2, 3], 4, 20), 4),  # source length
        (word_of([0, 1, 2, 3], 4, 16), 5),  # a table of another alphabet
    ], ids=["word length", "alphabet size", "source length", "table"])
    def test_rejects_mismatched_query_or_table(self, path, query, alpha):
        rng = np.random.default_rng(71)
        model = tune_alphabet(random_dataset(rng, 8, 16), "classic", 4, alphabet_range=[4])
        train = model.train_words if path == "model view" else list(model.train_words)
        assert nn1(word_of([0, 1, 2, 3], 4, 16), train, model.table) in (1, 2)
        with pytest.raises(ValueError):
            nn1(query, train, make_alphabet_table(alpha))

    def test_rejects_mismatched_words_in_a_list(self):
        table = make_alphabet_table(4)
        query = word_of([0, 1, 2, 3], 4, 16)
        for odd in (word_of([0, 1, 2], 4, 12), word_of([0, 1, 2, 3], 5, 16), word_of([0, 1, 2, 3], 4, 20)):
            with pytest.raises(ValueError):
                nn1(query, [(query, 1), (odd, 2)], table)


class TestLoocv:
    def test_identical_twins_same_label(self):
        data = LabeledDataset(np.array([[0.0, 1.0, 2.0, 3.0]] * 2), np.array([1, 1]))
        assert loocv_error(data, "classic", 2, 3) == 0.0

    def test_identical_twins_different_labels(self):
        data = LabeledDataset(np.array([[0.0, 1.0, 2.0, 3.0]] * 2), np.array([1, 2]))
        assert loocv_error(data, "classic", 2, 3) == 1.0

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(71)
        for trial in range(10):
            data = random_dataset(rng, 20, 24, n_classes=2)
            for scheme in SCHEMES:
                for alpha in (3, 5, 8):
                    table = make_alphabet_table(alpha)
                    got = loocv_error(data, scheme, 6, alpha)
                    blocks = oracles.segment_blocks(scheme, 24, 6)
                    words = [
                        oracles.word_for(row, blocks, list(table.breakpoints))
                        for row in data.series
                    ]
                    want = oracles.loocv_error(
                        words, data.labels.tolist(), oracles.pair_table(list(table.breakpoints))
                    )
                    assert got == want

    def test_needs_two_instances(self):
        data = LabeledDataset(np.array([[1.0, 2.0]]), np.array([1]))
        with pytest.raises(ValueError):
            loocv_error(data, "classic", 1, 3)

    def test_collapsed_words_fall_back_to_index_tie_breaking(self):
        # identical series make every pairwise distance zero at any alphabet;
        # each instance is then predicted as its lowest-index neighbour
        data = LabeledDataset(np.array([[1.0, 5.0, 2.0, 7.0]] * 3), np.array([1, 2, 2]))
        # instance 0 -> labels[1]=2 (wrong), 1 -> labels[0]=1 (wrong), 2 -> labels[0]=1 (wrong)
        assert loocv_error(data, "classic", 2, 4) == 1.0


class TestTuneAlphabet:
    def test_single_candidate(self):
        rng = np.random.default_rng(73)
        data = random_dataset(rng, 8, 16)
        model = tune_alphabet(data, "classic", 4, alphabet_range=[7])
        assert model.alphabet_size == 7

    def test_all_tied_picks_smallest(self):
        # two identical series with different labels: error 1.0 at every size
        data = LabeledDataset(np.array([[0.0, 1.0, 2.0, 3.0]] * 2), np.array([1, 2]))
        model = tune_alphabet(data, "classic", 2, alphabet_range=range(4, 9))
        assert model.alphabet_size == 4

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(79)
        for trial in range(6):
            data = random_dataset(rng, 14, 20, n_classes=3)
            scheme = SCHEMES[trial % 4]
            model = tune_alphabet(data, scheme, 5, alphabet_range=range(3, 9))
            blocks = oracles.segment_blocks(scheme, 20, 5)
            want_alpha, _ = oracles.tune(
                data.series, data.labels.tolist(), blocks, range(3, 9),
                lambda a: list(make_alphabet_table(a).breakpoints),
            )
            assert model.alphabet_size == want_alpha

    def test_model_carries_training_words(self):
        rng = np.random.default_rng(83)
        data = random_dataset(rng, 6, 16)
        model = tune_alphabet(data, "split", 4, alphabet_range=[3, 4])
        table = make_alphabet_table(model.alphabet_size)
        expected = library_words(data, "split", 4, table)
        assert [w.symbols.tolist() for w, _ in model.train_words] == [
            w.symbols.tolist() for w in expected
        ]
        assert [label for _, label in model.train_words] == data.labels.tolist()

    def test_sweep_stores_the_rows_of_its_chosen_size_alone(self):
        data = random_dataset(np.random.default_rng(91), 40, 64, n_classes=3)
        for scheme in SCHEMES:
            model = tune_alphabet(data, scheme, 16, range(3, 21))
            alone = tune_alphabet(data, scheme, 16, [model.alphabet_size])
            assert np.array_equal(model.train_words.rows, alone.train_words.rows), scheme

    def test_model_stores_given_words_as_read_only_rows(self):
        table = make_alphabet_table(4)
        words = ((word_of([0, 1, 2, 3], 4, 16), 1), (word_of([3, 2, 1, 0], 4, 16), 2))
        model = TunedModel("classic", words, table)
        assert len(model.train_words) == 2
        assert [(w.symbols.tolist(), label) for w, label in model.train_words[::-1]] == [
            ([3, 2, 1, 0], 2), ([0, 1, 2, 3], 1)
        ]
        assert model.train_words[-1][0].source_length == 16
        with pytest.raises(ValueError):
            model.train_words.rows[0, 0] = 1
        for odd in (word_of([0, 1, 2], 4, 12), word_of([0, 1, 2, 3], 5, 16), word_of([0, 1, 2, 3], 4, 20)):
            with pytest.raises(ValueError):
                TunedModel("classic", words + ((odd, 3),), table)
        with pytest.raises(ValueError):
            TunedModel("classic", (), table)

    def test_model_rejects_an_unknown_scheme(self):
        table = make_alphabet_table(4)
        words = ((word_of([0, 1, 2, 3], 4, 16), 1), (word_of([3, 2, 1, 0], 4, 16), 2))
        with pytest.raises(ValueError, match="unknown scheme 'nonsense'"):
            TunedModel("nonsense", words, table)
        tuned = tune_alphabet(random_dataset(np.random.default_rng(5), 6, 16), "classic", 4, [4])
        with pytest.raises(ValueError, match="unknown scheme 'nonsense'"):
            TunedModel("nonsense", tuned.train_words, tuned.table)

    def test_model_rejects_words_that_do_not_fit_its_table(self):
        tuned = tune_alphabet(random_dataset(np.random.default_rng(5), 6, 16), "classic", 8, [3])
        # the stored rows and the same words as pairs fail alike
        for words in (tuned.train_words, tuple(tuned.train_words)):
            with pytest.raises(ValueError, match="^alphabet sizes differ: words 3/3, table 9$"):
                TunedModel("classic", words, make_alphabet_table(9))

    def test_rejects_bad_range(self):
        rng = np.random.default_rng(89)
        data = random_dataset(rng, 6, 16)
        with pytest.raises(ValueError):
            tune_alphabet(data, "classic", 4, alphabet_range=[])
        with pytest.raises(ValueError):
            tune_alphabet(data, "classic", 4, alphabet_range=[1, 5])
        with pytest.raises(ValueError):
            tune_alphabet(data, "classic", 4, alphabet_range=[27])

    def test_rejects_a_fractional_size(self):
        data = random_dataset(np.random.default_rng(89), 6, 16)
        with pytest.raises(ValueError, match="alphabet sizes must be integral"):
            tune_alphabet(data, "classic", 4, alphabet_range=[4.9])
        assert tune_alphabet(data, "classic", 4, alphabet_range=[4.0]).alphabet_size == 4


class TestEvaluate:
    def test_test_equals_train_scores_zero(self):
        rng = np.random.default_rng(97)
        data = random_dataset(rng, 10, 16, n_classes=2)
        report = evaluate(data, data, "classic", 4, dataset="self")
        assert report.test_error == 0.0
        assert report.misclassified == 0
        assert report.total == 10

    def test_three_class_bumps_match_reference_exactly(self):
        rng = np.random.default_rng(101)
        t = np.arange(48, dtype=float)
        prototypes = [np.exp(-0.5 * ((t - c) / 4.0) ** 2) for c in (12, 24, 36)]
        def make(count):
            rows, labels = [], []
            for i in range(count):
                k = i % 3
                rows.append(prototypes[k] + rng.normal(0, 0.4, size=48))
                labels.append(k + 1)
            return LabeledDataset(np.array(rows), np.array(labels))
        train, test = make(30), make(30)
        report = evaluate(train, test, "overlap", 12, alphabet_range=range(3, 9))
        want = oracles.evaluate(
            train.series, train.labels.tolist(), test.series, test.labels.tolist(),
            "overlap", 12, range(3, 9),
            lambda a: list(make_alphabet_table(a).breakpoints),
        )
        assert report.alpha == want["alpha"]
        assert report.train_error == want["train_error"]
        assert report.test_error == want["test_error"]
        assert report.misclassified == want["misclassified"]
        assert report.total == want["total"]

    def test_report_states_an_integral_float_m_as_an_int(self):
        data = random_dataset(np.random.default_rng(97), 10, 16, n_classes=2)
        report = evaluate(data, data, "classic", 4.0, alphabet_range=(3, 4))
        assert type(report.m) is int and report == evaluate(data, data, "classic", 4, alphabet_range=(3, 4))

    def test_scores_a_long_test_split_in_bounded_memory(self):
        # a Mallat-shaped pair at m = 256: the split's means and symbols alone would be 9.6 MB
        rng = np.random.default_rng(107)
        train, test = (LabeledDataset(rng.normal(size=(rows, 1024)).cumsum(axis=1), rng.integers(1, 9, size=rows))
                       for rows in (55, 2345))
        # the row statistics are first taken inside the trace, so normalization is measured with the scoring;
        # a z-normalized copy of the test split alone would be 19.2 MB
        assert tracemalloc_peak(evaluate, train, test, "classic", 256) < 7e6

    @pytest.mark.parametrize("chunk_rows, chunks", [(1, [1] * 30), (7, [7, 7, 7, 7, 2])],
                             ids=["one-row", "seven-rows"])
    def test_row_chunks_give_the_same_report(self, monkeypatch, chunk_rows, chunks):
        rng = np.random.default_rng(109)
        train, test = (random_dataset(rng, rows, 64, n_classes=3, spread=2.0) for rows in (20, 30))
        want = evaluate(train, test, "intertwine", 16, alphabet_range=range(3, 7))
        sizes, block_means = [], core._block_means

        def spy(x, seg, mean, sd):
            sizes.append(x.shape[0])
            return block_means(x, seg, mean, sd)

        monkeypatch.setattr(core, "_block_means", spy)
        monkeypatch.setattr(distance, "_CHUNK_BUDGET", chunk_rows * 16)
        assert evaluate(train, test, "intertwine", 16, alphabet_range=range(3, 7)) == want
        # the training split once, then the test split's chunks
        assert sizes == [20] + chunks

    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(103)
        a = random_dataset(rng, 6, 16)
        b = random_dataset(rng, 6, 20)
        with pytest.raises(ValueError):
            evaluate(a, b, "classic", 4)


class TestLabeledDataset:
    def test_from_instances_round_trip(self):
        data = LabeledDataset.from_instances([([1.0, 2.0], 1), ([3.0, 4.0], 2)])
        assert len(data) == 2
        assert data.n == 2
        assert data.labels.tolist() == [1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset.from_instances([])
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[np.nan, 1.0]]), np.array([1]))
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[1.0, 2.0]]), np.array([1, 2]))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (3,)])
    def test_rejects_an_empty_or_flat_table(self, shape):
        with pytest.raises(ValueError, match=r"^series must be a non-empty \(N, n\) array$"):
            LabeledDataset(np.zeros(shape), np.ones(shape[0]))

    @pytest.mark.parametrize("labels", [[1.5, 2.7], [1.0, 1e30], [1.0, np.nan]])
    def test_rejects_labels_a_cast_would_change(self, labels):
        series = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError, match="labels must be integral"):
            LabeledDataset(np.array(series), labels)
        with pytest.raises(ValueError, match="labels must be integral"):
            LabeledDataset.from_instances(zip(series, labels))

    def test_accepts_integral_float_labels(self):
        data = LabeledDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), [2.0, -(2.0**63)])
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [2, -(2**63)]

    def test_arrays_immutable(self):
        data = LabeledDataset(np.array([[1.0, 2.0]]), np.array([1]))
        with pytest.raises(ValueError):
            data.series[0, 0] = 9.0

    def test_each_split_is_normalized_once_for_all_schemes(self, monkeypatch):
        calls = []
        row_stats = core._row_stats

        def counted(x):
            calls.append(x.shape)
            return row_stats(x)

        monkeypatch.setattr(core, "_row_stats", counted)
        rng = np.random.default_rng(31)
        train, test = random_dataset(rng, 12, 32), random_dataset(rng, 9, 32)
        for scheme in SCHEMES:
            evaluate(train, test, scheme, 8, range(3, 6))
        assert calls == [(12, 32), (9, 32)]

    def test_row_statistics_are_cached_and_read_only(self):
        data = random_dataset(np.random.default_rng(32), 5, 16)
        assert data._stats is data._stats
        for stat, want in zip(data._stats, ([row.mean() for row in data.series], [row.std() for row in data.series]),
                              strict=True):
            assert stat.shape == (5, 1) and stat.dtype == np.float64
            assert stat.tobytes() == np.array(want).tobytes()
            with pytest.raises(ValueError):
                stat[0, 0] = 9.0

    def test_overflowing_rows_construct_and_fail_on_first_use(self):
        # finite values whose row sum overflows, so the mean and the std do
        big = LabeledDataset(np.array([[1.0e308, 1.7e308, 1.2e308, 1.6e308]] * 2), np.array([1, 2]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^series contains non-finite values$"):
                evaluate(big, big, "classic", 2, [3])


# ----------------------------------------------------------------- properties


def scaled_table(table: AlphabetTable, factor: float) -> AlphabetTable:
    return AlphabetTable(table.breakpoints, table.pair_dist * factor)


@pytest.mark.properties
@given(
    st.integers(-20, 20),
    st.integers(2, 8),
    st.integers(1, 10),
    st.data(),
)
def test_nn1_label_invariant_under_table_scaling(exponent, alpha, m, data):
    # powers of two scale floats exactly, so the argmin cannot move
    factor = 2.0 ** exponent
    table = make_alphabet_table(alpha)
    syms = st.lists(st.integers(0, alpha - 1), min_size=m, max_size=m)
    train = [
        (word_of(data.draw(syms, label=f"train{i}"), alpha, m * 4), i % 3)
        for i in range(5)
    ]
    query = word_of(data.draw(syms, label="query"), alpha, m * 4)
    assert nn1(query, train, table) == nn1(query, train, scaled_table(table, factor))


def test_nn1_label_invariant_under_arbitrary_scaling():
    # Integer words over a small alphabet produce frequent exact distance
    # ties; a non-power-of-two factor rounds tied sums apart and can move
    # the argmin between them.  The invariant only binds when the nearest
    # neighbour wins by a real margin, so near-ties are filtered out.
    rng = np.random.default_rng(107)
    table = make_alphabet_table(6)
    sq_pair = table.pair_dist**2
    decisive = 0
    for factor in (0.003, 0.7, 1.9, 41.5, 1e4):
        scaled = scaled_table(table, factor)
        for _ in range(40):
            rows = rng.integers(0, 6, size=(12, 8))
            train = [(word_of(r, 6, 32), int(i % 4)) for i, r in enumerate(rows)]
            query = word_of(rng.integers(0, 6, size=8), 6, 32)
            d2 = np.sort([sq_pair[query.symbols, r].sum() for r in rows])
            if d2[1] - d2[0] <= 1e-9 * max(d2[1], 1.0):
                continue
            decisive += 1
            assert nn1(query, train, table) == nn1(query, train, scaled)
    assert decisive >= 100


@st.composite
def tiny_datasets(draw):
    n = draw(st.integers(8, 20))
    count = draw(st.integers(3, 8))
    values = st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n
    )
    rows = [draw(values) for _ in range(count)]
    labels = [draw(st.integers(1, 3)) for _ in range(count)]
    return LabeledDataset(np.array(rows), np.array(labels, dtype=np.int64))


@pytest.mark.properties
@given(tiny_datasets(), st.sampled_from(SCHEMES))
def test_evaluate_is_deterministic(data, scheme):
    first = evaluate(data, data, scheme, max(1, data.n // 4), alphabet_range=(3, 4, 5))
    second = evaluate(data, data, scheme, max(1, data.n // 4), alphabet_range=(3, 4, 5))
    assert first == second


@pytest.mark.properties
@given(tiny_datasets(), st.sampled_from(SCHEMES))
def test_error_accounting_is_exact(data, scheme):
    split = max(2, len(data) - 2)
    train = LabeledDataset(data.series[:split], data.labels[:split])
    test = LabeledDataset(data.series[split:], data.labels[split:])
    report = evaluate(train, test, scheme, max(1, train.n // 4), alphabet_range=(3, 4))
    assert report.test_error == report.misclassified / report.total
    assert 0.0 <= report.train_error <= 1.0
    assert 0.0 <= report.test_error <= 1.0
    assert isinstance(report.misclassified, int)
    assert report.total == len(test)
