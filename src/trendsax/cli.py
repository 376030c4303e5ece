"""Command line front end.

Four subcommands cover the library surface: ``convert`` dumps the word
for every instance of a series file, ``verify-bound`` fuzzes the distance
lower bound on random pairs, ``evaluate`` scores one dataset under one
scheme as a benchmark row does, and ``benchmark`` builds the
scheme-by-dataset matrix.  Exit status is 0 on success, 1 on operational
failure (bad input files, a bound violation), 2 on usage errors.  A
benchmark dataset that fails to load or to score becomes a failed row:
the report is still written, the failure goes to stderr, and the exit
status is 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from trendsax.benchmark import (
    BenchmarkConfig,
    REPORT_FORMATS,
    _csv_text,
    _dataset_reports,
    emit_report,
    report_fields,
    run_benchmark,
)
from trendsax.classify import DEFAULT_ALPHABET_RANGE
from trendsax.core import SaxWord, _symbols, make_alphabet_table
from trendsax.dataset import _discover_datasets, load_ucr
from trendsax.distance import verify_lower_bound
from trendsax.segmentation import SCHEMES, segment

__all__ = ["main"]


def _parse_alphabet_range(text: str) -> tuple[int, ...]:
    """Accept ``LO:HI`` (inclusive) or a single size."""
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            return (int(lo),)
        return tuple(range(int(lo), int(hi) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or LO:HI range, got {text!r}"
        ) from None


def _add_common_flags(parser: argparse.ArgumentParser, schemes_default: str = "classic") -> None:
    # a command that defaults to every scheme runs each one, so only it takes a list
    if schemes_default == "all":
        scheme_help = f"segmentation schemes: 'all' or a comma-separated list of {', '.join(SCHEMES)}"
    else:
        scheme_help = f"segmentation scheme: one of {', '.join(SCHEMES)}"
    parser.add_argument("--scheme", default=schemes_default, help=scheme_help)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--word-count", type=int, metavar="M",
                       help="fixed number of word symbols")
    group.add_argument("--ratio", type=int, default=BenchmarkConfig.ratio, metavar="R",
                       help="symbols per R source points when --word-count is absent (default %(default)s)")


def _add_alphabet_range(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alphabet-range", type=_parse_alphabet_range,
                        default=tuple(DEFAULT_ALPHABET_RANGE), metavar="LO:HI",
                        help="alphabet sizes swept during tuning "
                             f"(default {DEFAULT_ALPHABET_RANGE[0]}:{DEFAULT_ALPHABET_RANGE[-1]})")


def _schemes_from(arg: str) -> tuple[str, ...]:
    """``all`` or a comma-separated list; ``BenchmarkConfig`` checks the names."""
    if arg == "all":
        return SCHEMES
    return tuple(s.strip() for s in arg.split(",") if s.strip())


def _single_scheme_from(arg: str) -> str:
    schemes = _schemes_from(arg)
    if len(schemes) != 1:
        raise ValueError(f"this command takes exactly one scheme, got {arg!r}")
    return schemes[0]


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_convert(args: argparse.Namespace) -> int:
    scheme = _single_scheme_from(args.scheme)
    config = BenchmarkConfig(schemes=(scheme,), word_count=args.word_count, ratio=args.ratio)
    table = make_alphabet_table(args.alphabet)  # a bad alphabet fails before the file is read
    data = load_ucr(args.file)
    m = config.word_count_for(data.n)
    seg = segment(scheme, data.n, m)
    rows = _symbols(data._means(seg), table)
    rows.flags.writeable = False  # each word keeps its row as it is, not a copy
    records = [
        (index, int(label), SaxWord(row, table.alphabet_size, seg.n_effective).to_letters())
        for index, (row, label) in enumerate(zip(rows, data.labels))
    ]
    if args.format == "json":
        payload = [{"index": i, "label": lab, "word": w} for i, lab, w in records]
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_text(["index", "label", "word"], records)
    else:
        text = "".join(f"{i}\t{lab}\t{w}\n" for i, lab, w in records)
    _write_output(text, args.out)
    return 0


def _cmd_verify_bound(args: argparse.Namespace) -> int:
    for name in ("pairs", "length"):
        if getattr(args, name) < 1:
            raise ValueError(f"{name} must be positive")
    config = BenchmarkConfig(schemes=_schemes_from(args.scheme),
                             word_count=args.word_count, ratio=args.ratio)
    rng = np.random.default_rng(args.seed)
    m = config.word_count_for(args.length)
    violations = 0
    worst = float("inf")
    for _ in range(args.pairs):
        s = rng.standard_normal(args.length)
        t = rng.standard_normal(args.length)
        for scheme in config.schemes:
            report = verify_lower_bound(s, t, scheme, m, args.alphabet)
            worst = min(worst, report.slack)
            if not report.holds:
                violations += 1
    status = "ok" if violations == 0 else "VIOLATED"
    checks = args.pairs * len(config.schemes)
    print(
        f"{status}: {checks} checks ({args.pairs} pairs x {len(config.schemes)} schemes), "
        f"length={args.length} m={m} alphabet={args.alphabet} seed={args.seed}, "
        f"min slack={worst:.6g}"
    )
    return 0 if violations == 0 else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = BenchmarkConfig(schemes=(_single_scheme_from(args.scheme),), alphabet_range=args.alphabet_range,
                             word_count=args.word_count, ratio=args.ratio)
    [report] = _dataset_reports(Path(args.dataset), config)
    record = {"dataset": report.dataset, "scheme": report.scheme, **report_fields(report)}
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_text(record.keys(), [record.values()])
    else:
        text = "".join(f"{key}: {value}\n" for key, value in record.items())
    _write_output(text, args.out)
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    config = BenchmarkConfig(
        schemes=_schemes_from(args.scheme),
        alphabet_range=args.alphabet_range,
        word_count=args.word_count,
        ratio=args.ratio,
        jobs=args.jobs,
    )
    matrix = run_benchmark(_discover_datasets(args.datasets), config)
    _write_output(emit_report(matrix, args.format), args.out)
    failed = [row for row in matrix.rows if row.error is not None]
    for row in failed:
        print(f"error: {row.dataset}: {row.error}", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendsax",
        description="Symbolic time-series words with trend-aware segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="dump the word for each instance of a series file")
    convert.add_argument("file", help="series file in label-first text format")
    _add_common_flags(convert)
    convert.add_argument("--alphabet", type=int, default=4, help="alphabet size (default 4)")
    convert.add_argument("--format", choices=("text", "csv", "json"), default="text")
    convert.add_argument("--out", help="write output to this file instead of stdout")
    convert.set_defaults(func=_cmd_convert)

    verify = sub.add_parser("verify-bound", help="fuzz the distance lower bound on random pairs")
    _add_common_flags(verify, schemes_default="all")
    verify.add_argument("--alphabet", type=int, default=4, help="alphabet size (default 4)")
    verify.add_argument("--pairs", type=int, default=200, help="random pairs per scheme (default 200)")
    verify.add_argument("--length", type=int, default=128, help="series length (default 128)")
    verify.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    verify.set_defaults(func=_cmd_verify_bound)

    single = sub.add_parser("evaluate", help="tune and score one dataset under one scheme")
    single.add_argument("dataset", help="directory holding *_TRAIN and *_TEST files")
    _add_common_flags(single)
    _add_alphabet_range(single)
    single.add_argument("--format", choices=("text", "csv", "json"), default="text")
    single.add_argument("--out", help="write output to this file instead of stdout")
    single.set_defaults(func=_cmd_evaluate)

    bench = sub.add_parser("benchmark", help="evaluate every scheme on every dataset")
    bench.add_argument("datasets", nargs="+",
                       help="dataset directories, or roots containing them")
    _add_common_flags(bench, schemes_default="all")
    _add_alphabet_range(bench)
    bench.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes, each spawned with one BLAS thread unless "
                            "OPENBLAS_NUM_THREADS is set; results are identical for any value")
    bench.add_argument("--out", help="write the report to this file instead of stdout")
    bench.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
