import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from trendsax.classify import (
    EvaluationReport,
    LabeledDataset,
    _paa_matrix,
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


class TestPaaMatrix:
    def test_equals_per_row_reduction_bit_for_bit(self):
        # blocks of w >= 8 points are where one whole-matrix gather sums in
        # another order; constant rows take the zero branch
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
            scheme = SCHEMES[case % len(SCHEMES)]
            seg = segment(scheme, n, m)
            long_blocks += seg.w >= 8
            want = np.stack([paa(znormalize(row), seg).means for row in series])
            assert np.array_equal(_paa_matrix(series, seg), want), (scheme, rows, n, m)
        assert long_blocks >= 40


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

    def test_rejects_bad_range(self):
        rng = np.random.default_rng(89)
        data = random_dataset(rng, 6, 16)
        with pytest.raises(ValueError):
            tune_alphabet(data, "classic", 4, alphabet_range=[])
        with pytest.raises(ValueError):
            tune_alphabet(data, "classic", 4, alphabet_range=[1, 5])
        with pytest.raises(ValueError):
            tune_alphabet(data, "classic", 4, alphabet_range=[27])


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

    def test_arrays_immutable(self):
        data = LabeledDataset(np.array([[1.0, 2.0]]), np.array([1]))
        with pytest.raises(ValueError):
            data.series[0, 0] = 9.0


# ----------------------------------------------------------------- properties


def scaled_table(table: AlphabetTable, factor: float) -> AlphabetTable:
    return AlphabetTable(table.alphabet_size, table.breakpoints, table.pair_dist * factor)


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
