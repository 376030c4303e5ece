"""The public records: what each constructor takes, what it works out, and whose arrays it freezes."""

import inspect

import numpy as np
import pytest

from trendsax import cli, core, dataset
from trendsax.benchmark import BenchmarkConfig
from trendsax.classify import LabeledDataset, TunedModel, tune_alphabet
from trendsax.core import AlphabetTable, PaaVector, SaxWord, make_alphabet_table, paa, symbolize
from trendsax.distance import LOWER_BOUND_TOLERANCE, LowerBoundReport
from trendsax.segmentation import Segmentation, segment


def tuned_model() -> TunedModel:
    rng = np.random.default_rng(3)
    return tune_alphabet(LabeledDataset(rng.standard_normal((6, 16)), [1, 2] * 3), "split", 4, [3, 4])


# each record's constructor parameters, the attributes it works out, and an instance
RECORDS = [
    (Segmentation, ["scheme", "blocks"], ["m", "w", "n_effective"], lambda: segment("split", 16, 4)),
    (AlphabetTable, ["breakpoints", "pair_dist"], ["alphabet_size", "_sq", "_sq32"],
     lambda: make_alphabet_table(5)),
    (TunedModel, ["scheme", "train_words", "table"], ["m", "alphabet_size"], tuned_model),
    (LowerBoundReport, ["mindist", "euclidean"], ["holds", "slack"], lambda: LowerBoundReport(2.0, 1.0)),
    (PaaVector, ["means", "source_length"], ["m"], lambda: PaaVector([0.5, -0.5], 8)),
    (SaxWord, ["symbols", "alphabet_size", "source_length"], ["m"], lambda: SaxWord([0, 2], 3, 8)),
]


class TestDerivedValues:
    @pytest.mark.parametrize("cls, params, derived, build", RECORDS,
                             ids=[cls.__name__ for cls, *_ in RECORDS])
    def test_constructor_takes_only_what_it_cannot_work_out(self, cls, params, derived, build):
        assert list(inspect.signature(cls).parameters) == params
        record = build()
        for name in derived:
            # stored once on construction, not recomputed on every read
            assert name in vars(record), name
            assert not isinstance(inspect.getattr_static(cls, name, None), property), name

    def test_table_size_is_its_breakpoint_count_plus_one(self):
        for alpha in range(2, 27):
            table = make_alphabet_table(alpha)
            assert table.alphabet_size == alpha
            assert AlphabetTable(table.breakpoints, table.pair_dist).alphabet_size == alpha

    def test_table_squares_are_built_once_from_its_distances(self):
        built = [make_alphabet_table(alpha) for alpha in range(2, 27)]
        good = make_alphabet_table(6)
        # a caller-built table with distances no make_alphabet_table call gives
        built.append(AlphabetTable(good.breakpoints, good.pair_dist * 1.7))
        for table in built:
            want = table.pair_dist**2
            assert table._sq.dtype == np.float64 and table._sq.tobytes() == want.tobytes()
            assert table._sq32.dtype == np.float32 and table._sq32.tobytes() == want.astype(np.float32).tobytes()
            assert not (table._sq.flags.writeable or table._sq32.flags.writeable)
            assert table._sq is table._sq and table._sq32 is table._sq32
        assert make_alphabet_table(9)._sq32 is make_alphabet_table(9)._sq32

    def test_model_sizes_come_from_its_words_and_table(self):
        model = tuned_model()
        assert model.m == model.train_words.rows.shape[1] == 4
        assert model.alphabet_size == model.table.alphabet_size == model.train_words[0][0].alphabet_size

    def test_report_verdict_and_slack(self):
        violated = LowerBoundReport(2.0, 1.0)
        assert (violated.holds, violated.slack) == (False, -1.0)
        within = LowerBoundReport(1.0 + LOWER_BOUND_TOLERANCE / 2, 1.0)
        assert within.holds and within.slack < 0


@pytest.mark.parametrize("build", [
    lambda: make_alphabet_table("4"),
    lambda: SaxWord([0, 1], "4", 4),
    lambda: BenchmarkConfig(jobs="2"),
    lambda: segment("classic", "10", 2),
], ids=["alphabet-table", "word", "config", "segment"])
def test_numeric_strings_are_not_integral(build):
    with pytest.raises(ValueError, match="must be integral"):
        build()


class TestCallerArraysStayWritable:
    """A record copies a writable array it is given instead of freezing its owner's memory."""

    def test_paa_vector(self):
        means = np.array([1.0, 2.0])
        vector = PaaVector(means, 2)
        means[0] = 5.0
        assert vector.means.tolist() == [1.0, 2.0]
        assert not vector.means.flags.writeable

    def test_sax_word(self):
        symbols = np.array([0, 1])
        word = SaxWord(symbols, 4, 4)
        symbols[0] = 3
        assert word.symbols.tolist() == [0, 1]
        assert not word.symbols.flags.writeable

    def test_labeled_dataset(self):
        series, labels = np.zeros((2, 3)), np.array([1, 2])
        data = LabeledDataset(series[:, :2], labels)
        series[0, 0], labels[0] = 9.0, 5
        assert data.series.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert data.labels.tolist() == [1, 2]
        assert not (data.series.flags.writeable or data.labels.flags.writeable)

    def test_alphabet_table(self):
        good = make_alphabet_table(4)
        breakpoints, pair_dist = good.breakpoints.copy(), good.pair_dist.copy()
        table = AlphabetTable(breakpoints, pair_dist)
        breakpoints[0], pair_dist[0, 3] = -9.0, 9.0
        assert np.array_equal(table.breakpoints, good.breakpoints)
        assert np.array_equal(table.pair_dist, good.pair_dist)
        assert not (table.breakpoints.flags.writeable or table.pair_dist.flags.writeable)

    def test_read_only_arrays_are_kept_as_they_are(self):
        means = np.array([1.0, 2.0])
        means.flags.writeable = False
        assert PaaVector(means, 2).means is means

    def test_the_library_hands_over_read_only_arrays(self, monkeypatch, mini_dir, capsys):
        copied = []
        read_only = core._read_only

        def spy(x, given):
            kept = read_only(x, given)
            if kept is not x:
                copied.append(x.shape)
            return kept

        for module in (core, dataset):
            monkeypatch.setattr(module, "_read_only", spy)
        path = mini_dir / "Mini_TRAIN.txt"
        data = dataset.load_ucr(path)
        dataset._load_lines(path)
        core._build_table.__wrapped__(5)
        seg = segment("classic", data.n, 4)
        symbolize(paa(data.series[0], seg), make_alphabet_table(4))
        tune_alphabet(data, "classic", 4, [3, 4]).train_words[0]
        assert cli.main(["convert", str(path)]) == 0
        capsys.readouterr()
        assert copied == []
