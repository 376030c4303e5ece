import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendsax.benchmark import BenchmarkConfig, emit_report, run_benchmark
from trendsax.classify import evaluate
from trendsax import dataset
from trendsax.dataset import DatasetPair, UcrFormatError, load_dataset_pair, load_ucr


class TestLoadUcr:
    def test_comma_separated_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2,1.0,2.0,3.0\n")
        data = load_ucr(path)
        assert data.labels.tolist() == [2]
        assert data.series.tolist() == [[1.0, 2.0, 3.0]]

    def test_tab_separated_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("1\t0.5\t-0.5\n\n2\t1.5\t2.5\n")
        data = load_ucr(path)
        assert data.labels.tolist() == [1, 2]
        assert data.series.shape == (2, 2)

    def test_real_labels_round_when_close(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2.0000000001,1.0,2.0\n-3.0,4.0,5.0\n")
        data = load_ucr(path)
        assert data.labels.tolist() == [2, -3]

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,1.0,2.0\n2.5,3.0,4.0\n")
        with pytest.raises(UcrFormatError) as err:
            load_ucr(path)
        assert err.value.line == 2

    def test_ragged_rows_name_the_offending_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,1.0,2.0,3.0\n2,1.0,2.0,3.0\n1,9.0\n")
        with pytest.raises(UcrFormatError) as err:
            load_ucr(path)
        assert err.value.line == 3
        assert "3" in str(err.value)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,1.0,nan\n")
        with pytest.raises(UcrFormatError) as err:
            load_ucr(path)
        assert err.value.line == 1

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,1.0,2.0\n2,1.0,oops\n")
        with pytest.raises(UcrFormatError) as err:
            load_ucr(path)
        assert err.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("")
        with pytest.raises(UcrFormatError):
            load_ucr(path)

    def test_label_only_line_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,\n")
        with pytest.raises(UcrFormatError) as err:
            load_ucr(path)
        assert err.value.line == 1

    def test_undetectable_delimiter_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(UcrFormatError):
            load_ucr(path)


def _generated_text(seed=0, rows=12, n=64):
    # the layout bench/gen.py writes: 1-based label, then six decimals
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((rows, n)).cumsum(axis=1)
    return "".join(
        f"{label}," + ",".join(f"{v:.6f}" for v in values) + "\n"
        for label, values in zip(rng.integers(1, 5, rows).tolist(), series.tolist())
    )


EXTREMES = [5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1 / 3, -1e-300]

# file text -> parsed by both load_ucr and the line parser, which is the oracle
PARSER_CASES = {
    "tabs": "1\t0.5\t-0.5\n2\t1.5\t2.5\n",
    "crlf": "1,0.5,-0.5\r\n2,1.5,2.5\r\n",
    "cr-only": "1,0.5,-0.5\r2,1.5,2.5\r",
    "blank-lines": "\n1,0.5,1\n\n\n2,1.5,2\n\n",
    "whitespace-only-line": "1,0.5,1\n  \t \n2,1.5,2\n",
    "padded-fields": " 1 , 0.5 ,1\n2,\t1.5, 2 \n",
    "form-feed-break": "1,2,\x0c3,4\n",
    "form-feed-in-field": "1,2\x0c,3\n",
    "next-line-break": "1,2,\x853,4\n",
    "line-separator-break": "1,2\u2028,3,4\n",
    "vertical-tab-line-end": "1,2,3\x0b\n2,4,5\n",
    "trailing-delimiter": "1,2,3,\n2,4,5,\n",
    "empty-field": "1,2,,3\n2,4,5\n",
    "ragged-after-empty-field": "1,2,,3\n2,4,5,6\n",
    "underscore-digits": "1,1_0,2\n",
    "bom": "\ufeff1,2,3\n",
    "real-label-close": "1.0000001,2,3\n-2.0000000001,4,5\n",
    "real-label-far": "1,2,3\n1.00001,2,3\n",
    "half-label": "2.5,1,2\n",
    "nan-value": "1,2,3\n2,nan,4\n",
    "inf-value": "1,2,inf\n",
    "infinity-label": "Infinity,1,2\n",
    "overflowing-value": "1,1e400\n",
    "label-beyond-int64": "9223372036854775807,1,2\n",
    "smallest-int64-label": "-9223372036854775808,1,2\n",
    "ragged": "1,1,2,3\n2,1,2\n",
    "label-only": "1,\n2,\n",
    "label-only-tabs": "1\t\n2\t\n",
    "empty-file": "",
    "blank-file": "\n \n",
    "no-delimiter": "1 2 3\n",
    "mixed-delimiters": "1\t2\t3\n1,2,3\n",
    "quoted-value": '1,"2",3\n',
    "hash": "1,2,3 # note\n",
    "non-ascii-digit": "1,\u0663,2\n",
    "nul": "1,2\x00\n",
    "repr-extremes": "1," + ",".join(repr(v) for v in EXTREMES) + "\n",
    "long-digits": "1,0.1000000000000000055511151231257827021181583404541015625,2.00000000000000000001\n",
    "generated": _generated_text(),
}


def _outcome(parse, path):
    try:
        data = parse(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return data.series.shape, data.series.tobytes(), data.labels.tolist()


@pytest.mark.parametrize("text", PARSER_CASES.values(), ids=PARSER_CASES.keys())
def test_load_ucr_agrees_with_line_parser(tmp_path, text):
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_ucr, path) == _outcome(dataset._load_lines, path)


# every whitespace and control character, and two invisible ones that
# str.isspace() leaves out
ODD_CHARACTERS = sorted(
    {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() or unicodedata.category(c) == "Cc"}
    | {"\ufeff", "\u200b"}
)


def test_load_ucr_agrees_with_line_parser_on_every_odd_character(tmp_path):
    assert len(ODD_CHARACTERS) == 86
    path = tmp_path / "d.txt"
    disagreements = []
    for c in ODD_CHARACTERS:
        for text in (f"1,2{c},3", f"1,{c}2,3", f"1{c},2,3", f"{c}1,2,3\n2,3,4{c}"):
            path.write_bytes(text.encode("utf-8"))
            if _outcome(load_ucr, path) != _outcome(dataset._load_lines, path):
                disagreements.append(text)
    assert disagreements == []


# the characters str.splitlines ends a line at, or float() refuses at the edge
# of a number, that numpy's reader takes for whitespace
FIELD_WHITESPACE = "\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"


@pytest.mark.parametrize("c", FIELD_WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_odd_whitespace_inside_a_line_is_field_whitespace(tmp_path, c):
    path = tmp_path / "d.txt"
    path.write_bytes(f"1,2{c},3\n".encode("utf-8"))
    dataset._load_fast(path)
    for parse in (load_ucr, dataset._load_lines):
        data = parse(path)
        assert data.labels.tolist() == [1]
        assert data.series.tolist() == [[2.0, 3.0]]


def test_error_line_numbers_count_only_line_ends(tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(b"1,2\x0c\n2,x,3\n")
    with pytest.raises(UcrFormatError) as info:
        load_ucr(path)
    assert info.value.line == 2


def test_invalid_utf8_raises_as_the_line_parser_does(tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(b"1,2,3\n2,\xff,4\n")
    assert _outcome(load_ucr, path) == _outcome(dataset._load_lines, path)


def test_generated_file_takes_the_c_reader(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(_generated_text(seed=1, rows=30, n=200))
    fast = dataset._load_fast(path)
    lines = dataset._load_lines(path)
    assert fast.series.tobytes() == lines.series.tobytes()
    assert fast.labels.tolist() == lines.labels.tolist()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_c_reader_is_sized_for_every_row(tmp_path, monkeypatch, end):
    # given max_rows, numpy's reader allocates the table once instead of growing it
    lines = _generated_text(seed=2, rows=40, n=8).splitlines()
    path = tmp_path / "d.txt"
    path.write_bytes(end.join(lines[:20] + [""] + lines[20:]).encode())
    bounds = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        bounds.append(kwargs["max_rows"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    fast = dataset._load_fast(path)
    assert bounds == [dataset._line_bound(path)] and bounds[0] >= 40
    assert fast.series.tobytes() == dataset._load_lines(path).series.tobytes()


def test_line_bound_counts_every_line_end(tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(b"1,2\n2,3\r\n3,4\r4,5")
    assert dataset._line_bound(path) == 5  # \r\n counts twice: a bound, not a count
    path.write_bytes(b"")
    assert dataset._line_bound(path) == 1
    path.write_bytes(b"1,2\n" * 40000)  # past one read block
    assert dataset._line_bound(path) == 40001


class TestDatasetPair:
    def test_loads_mini_fixture(self, mini_dir):
        pair = load_dataset_pair(mini_dir)
        assert pair.name == "mini"
        assert len(pair.train) == len(pair.test) == 6
        assert pair.train.n == pair.test.n == 16
        assert set(pair.train.labels.tolist()) == {1, 2}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_pair(tmp_path / "absent")

    def test_requires_exactly_one_train_file(self, tmp_path):
        d = tmp_path / "Dup"
        d.mkdir()
        (d / "A_TRAIN.txt").write_text("1,1.0,2.0\n")
        (d / "B_TRAIN.txt").write_text("1,1.0,2.0\n")
        (d / "A_TEST.txt").write_text("1,1.0,2.0\n")
        with pytest.raises(FileNotFoundError):
            load_dataset_pair(d)

    def test_length_mismatch_rejected(self, tmp_path):
        d = tmp_path / "Bad"
        d.mkdir()
        (d / "Bad_TRAIN.txt").write_text("1,1.0,2.0\n2,1.0,2.0\n")
        (d / "Bad_TEST.txt").write_text("1,1.0,2.0,3.0\n")
        with pytest.raises(ValueError):
            load_dataset_pair(d)

    def test_unseen_test_label_warns(self, tmp_path):
        d = tmp_path / "Odd"
        d.mkdir()
        (d / "Odd_TRAIN.txt").write_text("1,1.0,2.0\n1,2.0,3.0\n")
        (d / "Odd_TEST.txt").write_text("9,1.0,2.0\n")
        with pytest.warns(UserWarning, match=r"^dataset 'Odd': test labels \[9\] never occur in training data$"):
            load_dataset_pair(d)


class TestMiniRoundTrip:
    """The bundled miniature dataset has a hand-checked outcome.

    Class 1 steps from around -1 up to around +1; class 2 mirrors it.  With
    4 blocks of 4 points the block means stay well clear of the 3-symbol
    breakpoints (about +-0.43), so every instance reduces to "aacc" or
    "ccaa", leave-one-out error is 0 at size 3, and the tie-break keeps
    alphabet 3.  Every test instance matches its own class exactly.
    """

    def test_known_words(self, mini_dir):
        from trendsax.core import make_alphabet_table, paa, symbolize, znormalize
        from trendsax.segmentation import segment

        pair = load_dataset_pair(mini_dir)
        table = make_alphabet_table(3)
        seg = segment("classic", 16, 4)
        for split in (pair.train, pair.test):
            for row, label in zip(split.series, split.labels):
                word = symbolize(paa(znormalize(row), seg), table).to_letters()
                assert word == ("aacc" if label == 1 else "ccaa")

    def test_known_evaluation_outcome(self, mini_dir):
        pair = load_dataset_pair(mini_dir)
        report = evaluate(pair.train, pair.test, "classic", 4, dataset=pair.name)
        assert report.alpha == 3
        assert report.train_error == 0.0
        assert report.test_error == 0.0
        assert report.misclassified == 0
        assert report.total == 6

    def test_full_round_trip_to_report(self, mini_dir):
        pair = load_dataset_pair(mini_dir)
        matrix = run_benchmark([pair], BenchmarkConfig())
        text = emit_report(matrix, "csv")
        assert text.splitlines()[0].startswith("dataset,scheme,")
        assert len(text.splitlines()) == 1 + 4  # header + one row per scheme


# ----------------------------------------------------------------- properties


@st.composite
def valid_ucr_texts(draw):
    rows = draw(st.integers(1, 8))
    width = draw(st.integers(1, 10))
    delimiter = draw(st.sampled_from([",", "\t"]))
    labels = [draw(st.integers(-5, 5)) for _ in range(rows)]
    values = [
        [draw(st.floats(-1e6, 1e6, allow_nan=False)) for _ in range(width)]
        for _ in range(rows)
    ]
    text = "\n".join(
        delimiter.join([str(labels[i])] + [repr(v) for v in values[i]])
        for i in range(rows)
    )
    return text + draw(st.sampled_from(["", "\n"])), labels, values


@pytest.mark.properties
@given(valid_ucr_texts())
def test_load_ucr_parses_documented_grammar(tmp_path_factory, case):
    text, labels, values = case
    path = tmp_path_factory.getbasetemp() / "prop_valid.txt"
    path.write_text(text)
    data = load_ucr(path)
    assert data.labels.tolist() == labels
    np.testing.assert_array_equal(data.series, np.array(values))


@pytest.mark.properties
@given(st.text(max_size=200))
def test_load_ucr_never_crashes_on_arbitrary_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "prop_fuzz.txt"
    path.write_text(text)
    try:
        data = load_ucr(path)
        assert len(data) >= 1
    except UcrFormatError:
        pass


@st.composite
def texts_with_odd_characters(draw):
    text, _, _ = draw(valid_ucr_texts())
    text = (text.rstrip("\n") + "\n").replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    for c in draw(st.lists(st.sampled_from(ODD_CHARACTERS), min_size=1, max_size=3)):
        # anywhere, or at the edge of a field, where numpy's reader takes whitespace
        edges = [i for i in range(len(text) + 1) if set(text[max(i - 1, 0):i + 1]) & set(",\t\r\n")]
        at = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(edges)))
        text = text[:at] + c + text[at:]
    return text


@pytest.mark.properties
@given(texts_with_odd_characters())
def test_load_ucr_agrees_with_line_parser_on_rows_with_odd_characters(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "prop_odd.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_ucr, path) == _outcome(dataset._load_lines, path)
