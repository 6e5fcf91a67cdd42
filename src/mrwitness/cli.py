"""Command-line front end.

stdout carries data only; progress and timing go to stderr.  Floats are
printed with 12 significant digits and complex values as re/im pairs, so
identical invocations produce byte-identical output.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 verification failure, 141
stdout closed early by its reader (`| head`; 128 + SIGPIPE, as a shell has it).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

from . import equidist, expsums, suites
from .arith import factorize, is_prime
from .characters import character_group
from .errors import DomainError
from .witness import bound_report, classify, classify_all, monier_counts, mr_decompose

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _csum_dict(cs: expsums.ComplexSum) -> dict:
    return {
        "re": cs.real,
        "im": cs.imag,
        "term_count": cs.term_count,
        "error_budget": cs.error_budget,
    }


def _print_kv(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={_fmt(value)}")


@contextlib.contextmanager
def _open_out(path: str | None):
    """The file at path for writing; stdout when path is None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as f:
            yield f


def _write_csv(f, header, rows) -> None:
    """header and rows to the open file f; rows hold str and int cells
    only, floats and bools already through `_fmt`."""
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(f, payload) -> None:
    f.write(json.dumps(_round12(payload), indent=2) + "\n")


def cmd_decompose(args) -> int:
    dec = mr_decompose(args.n)
    print(f"d={dec.d} s={dec.s}")
    return EXIT_OK


def cmd_classify(args) -> int:
    c = classify(args.n, args.w)
    parts = [f"w={c.w}", f"class={c.category.value}"]
    if c.stage is not None:
        parts.append(f"stage={c.stage}")
    if c.gcd_value is not None:
        parts.append(f"gcd={c.gcd_value}")
    print(" ".join(parts))
    return EXIT_OK


def cmd_witnesses(args) -> int:
    dec = mr_decompose(args.n)
    counts, _ = monier_counts(factorize(args.n), dec.d, dec.s)
    if counts.witness == 0:  # at odd n >= 3, only when n is prime
        raise DomainError("n is prime: witness set empty")
    scan = classify_all(args.n) if args.out else None  # refuses n >= 2**31 before any output
    _print_kv(
        [
            ("n", args.n),
            ("witnesses", counts.witness),
            ("non_coprime", counts.non_coprime),
            ("dth_root", counts.dth_root),
            ("minus_one", counts.minus_one),
        ]
    )
    if scan is not None:
        count = scan.counts.witness
        step = expsums._LEAF
        blocks = (scan.witness_block(lo, min(lo + step, count)) for lo in range(0, count, step))
        with _open_out(args.out) as f:
            _write_csv(f, ["w"], ([w] for block in blocks for w in block.tolist()))
    return EXIT_OK


def cmd_bounds(args) -> int:
    rep = bound_report(args.n)
    frac = rep.paper_witness_fraction
    _print_kv(
        [
            ("n", rep.n),
            ("witness_count", rep.witness_count),
            ("paper_witness_fraction", f"{frac.numerator}/{frac.denominator}"),
            ("strong_liar_count", rep.strong_liar_count),
            ("rabin_ok_paper_def", rep.rabin_ok_paper_def),
            ("rabin_ok_liar_def", rep.rabin_ok_liar_def),
            ("least_witness", rep.least_witness),
            ("least_failing_base", rep.least_failing_base),
            ("bach_bound", rep.bach_bound),
            ("bach_bound_log2", rep.bach_bound_log2),
            ("bach_ok", rep.bach_ok),
        ]
    )
    return EXIT_OK


def cmd_histogram(args) -> int:
    rep = equidist.histogram(args.n, args.bins)
    with _open_out(args.out) as f:
        _write_csv(f, ["bin_index", "count"], enumerate(rep.counts))
    _print_kv(
        [
            ("n", rep.n),
            ("bins", rep.bin_count),
            ("total_witnesses", rep.total_witnesses),
            ("mean", rep.mean),
            ("max_abs_deviation", rep.max_abs_deviation),
            ("max_relative_deviation", rep.max_relative_deviation),
            ("chi_square_like", rep.chi_square_like),
        ]
    )
    return EXIT_OK


def cmd_weyl(args) -> int:
    rows = equidist.weyl_battery(args.n, args.k)
    _write_csv(sys.stdout, ["k", "magnitude", "ratio"],
               ((r.k, _fmt(r.magnitude), _fmt(r.ratio)) for r in rows))
    return EXIT_OK


def cmd_interval(args) -> int:
    fraction, deviation = equidist.interval_fraction(args.n, args.a, args.b)
    _print_kv([("fraction", fraction), ("deviation", deviation)])
    return EXIT_OK


def cmd_sums(args) -> int:
    (rep,) = expsums.decomposition_reports(args.n, [args.k])
    payload = {
        "n": rep.n,
        "k": rep.k,
        "witness_sum": _csum_dict(rep.witness_sum),
        "nonwitness_sum": _csum_dict(rep.nonwitness_sum),
        "shared_factor_sum": _csum_dict(rep.shared_factor_sum),
        "dth_root_sum": _csum_dict(rep.dth_root_sum),
        "minus_one_sum": _csum_dict(rep.minus_one_sum),
        "per_stage_sums": [_csum_dict(cs) for cs in rep.per_stage_sums],
        "stage_duplicates": rep.stage_duplicates,
        "residual_total": rep.residual_total,
        "residual_partition": rep.residual_partition,
    }
    with _open_out(args.out) as f:
        _write_json(f, payload)
    return EXIT_OK


def cmd_ramanujan(args) -> int:
    (r,) = expsums.ramanujan(args.n, [args.k])
    _print_kv(
        [
            ("closed", r.closed),
            ("brute_re", r.brute.real),
            ("brute_im", r.brute.imag),
            ("difference", r.difference),
            ("agrees", r.agrees),
            ("complement_re", r.complement.real),
            ("complement_im", r.complement.imag),
        ]
    )
    return EXIT_OK


def cmd_gauss(args) -> int:
    group = character_group(args.n)
    chi = group.character_by_index(args.char)
    if args.power != 1:
        chi = chi**args.power
    red = expsums.gauss_sum_reduced(chi, args.k)
    _print_kv(
        [
            ("char_index", chi.index),
            ("char_order", chi.order),
            ("conductor", red.conductor),
            ("path", red.path),
            ("claimed_re", red.value.real),
            ("claimed_im", red.value.imag),
            ("brute_re", red.brute.real),
            ("brute_im", red.brute.imag),
            ("difference", red.difference),
            ("agrees_with_brute", red.agrees_with_brute),
        ]
    )
    return EXIT_OK


def cmd_cancel(args) -> int:
    """The direct sum and its character average; the direct sum alone, with
    a note on stderr, where the average's e(m/n) table is past its budget."""
    direct = expsums.cancellation_sum(args.n, args.alpha, args.b, args.k)
    try:
        dual = expsums.character_average(direct)
    except DomainError as exc:
        dual = None
        print(f"character average skipped: {exc}", file=sys.stderr)
    rows = [("solution_count", direct.solution_count),
            ("direct_re", direct.total.real),
            ("direct_im", direct.total.imag)]
    if dual is not None:
        rows += [("via_characters_re", dual.via_characters.real),
                 ("via_characters_im", dual.via_characters.imag),
                 ("difference", dual.difference),
                 ("agrees", dual.agrees)]
    _print_kv(rows + [("sqrt_n_ratio", direct.sqrt_n_ratio)])
    return EXIT_OK


class ConfigError(Exception):
    pass


class _ConfigParser(argparse.ArgumentParser):
    """Parses the tokens of one config file (prog); errors name that file."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _ints(value: str) -> list[int]:
    return [int(v) for v in value.split(",") if v.strip()]


def _magnitudes(value: str) -> list[int]:
    return [equidist.least_odd_composite_at_least(x) for x in _ints(value)]


def _odd_composites(value: str) -> list[int]:
    lo, _, hi = value.partition("..")
    return [n for n in range(int(lo) | 1, int(hi) + 1, 2) if n >= 9 and not is_prime(n)]


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _at_most(limit: int):
    """An argparse type: an integer in [1, limit]."""

    def bounded(value: str) -> int:
        n = _positive(value)
        if n > limit:
            raise argparse.ArgumentTypeError(f"must be <= {limit}, got {n}")
        return n

    return bounded


def _suite_names(value: str) -> list[str]:
    names = [v.strip() for v in value.split(",") if v.strip()]
    unknown = [v for v in names if v not in suites.SUITE_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown suite(s): {', '.join(unknown)}")
    return names


def parse_config(path: str) -> argparse.Namespace:
    """Read a flat key = value experiment config; # starts a comment.

    Exactly one source of moduli:
    n_values: comma-separated odd integers, or
    n_magnitudes: comma-separated thresholds, each replaced by the least
                  odd composite at least that large, or
    n_range: lo..hi, every odd composite in the inclusive range.
    Other keys: k_max (default 10, at most expsums.MAX_FREQUENCY), bins
    (default 10000, at most equidist.MAX_BINS), output_path, output_format
    (csv | json), checks (suite names).  Each line becomes one --key=value
    token (the = form keeps values starting with -), so every key is
    checked by argparse before any row runs.
    """
    parser = _ConfigParser(prog=path, add_help=False, allow_abbrev=False)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--n_values", type=_ints)
    source.add_argument("--n_magnitudes", dest="n_values", type=_magnitudes)
    source.add_argument("--n_range", dest="n_values", type=_odd_composites)
    parser.add_argument("--k_max", type=_at_most(expsums.MAX_FREQUENCY), default=10)
    parser.add_argument("--bins", type=_at_most(equidist.MAX_BINS), default=10_000)
    parser.add_argument("--output_path")
    parser.add_argument("--output_format", choices=("csv", "json"), default="csv")
    parser.add_argument("--checks", type=_suite_names, default=[])
    tokens = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            tokens.append(f"--{key.strip()}={value.strip()}")
    return parser.parse_args(tokens)


def _scan_header(k_max: int) -> list[str]:
    return (
        ["n", "witness_count", "witness_fraction", "star_discrepancy", "least_witness"]
        + [f"weyl_ratio_{k}" for k in range(1, k_max + 1)]
        + ["flatness", "error"]
    )


def _scan_row_fields(row, k_max: int) -> list:
    ratios = list(row.weyl_ratios) + [""] * (k_max - len(row.weyl_ratios))
    return [
        row.n,
        row.witness_count,
        row.witness_fraction,
        row.star_discrepancy,
        row.least_witness,
        *ratios,
        "" if row.flatness is None else row.flatness,
        row.error or "",
    ]


def cmd_scan(args) -> int:
    with contextlib.ExitStack() as stack:
        try:
            cfg = parse_config(args.config)
            out = stack.enter_context(_open_out(cfg.output_path))  # before any row runs
        except (OSError, ConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        rows = equidist.scan(cfg.n_values, cfg.k_max, cfg.bins)
        for row in rows:
            print(f"scan n={row.n} runtime_ms={row.runtime_ms:.1f}", file=sys.stderr)
        header = _scan_header(cfg.k_max)
        data = [_scan_row_fields(row, cfg.k_max) for row in rows]
        if cfg.output_format == "csv":
            _write_csv(out, header, ([_fmt(v) for v in fields] for fields in data))
        else:
            _write_json(out, [dict(zip(header, fields)) for fields in data])
    if cfg.checks:
        results = suites.run_suites(cfg.checks)
        bad = _report_suites(results, None)
        if bad:
            return EXIT_VERIFY
    return EXIT_OK


def _report_suites(results, out_path) -> bool:
    runs: dict = {}  # suite function -> its results here, which share one run time
    for r in results:
        print(f"{r.verdict} {r.name} checked={r.checked} failures={r.failures} | {r.summary}")
        runs.setdefault(suites._REGISTRY[r.name], []).append(r)
    for run in runs.values():
        names = ", ".join(r.name for r in run)
        print(f"suite {names} elapsed {run[0].elapsed_s:.1f}s", file=sys.stderr)
    if out_path:
        keys = sorted({k for r in results for row in r.findings for k in row})
        header = ["suite", *keys]
        rows = ([r.name, *[_fmt(row[k]) if k in row else "" for k in keys]]
                for r in results for row in r.findings)
        with _open_out(out_path) as f:
            _write_csv(f, header, rows)
    return any(r.hard and not r.ok for r in results)


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    results = suites.run_suites(names)
    if _report_suites(results, args.out):
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing keeps no
    state in it, and building all its subcommands costs more than the
    cheapest of them run at n near 2 * 10**6."""
    parser = argparse.ArgumentParser(
        prog="mrwitness",
        description="Classify strong-compositeness witnesses and the exponential sums over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="write n-1 = d * 2^s")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("classify", help="class and evidence for one residue")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("witnesses", help="full witness enumeration and class counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write the witness list as CSV")
    p.set_defaults(fn=cmd_witnesses)

    p = sub.add_parser("bounds", help="witness-count and least-witness bound checks")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("histogram", help="bin_index,count CSV of normalized witnesses")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_histogram)

    p = sub.add_parser("weyl", help="|S_k| and |S_k|/#W for k = 1..K")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_weyl)

    p = sub.add_parser("interval", help="witness fraction in a closed subinterval of [0,1]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(fn=cmd_interval)

    p = sub.add_parser("sums", help="full class-sum decomposition report as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sums)

    p = sub.add_parser("ramanujan", help="unit sum: closed form vs brute force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_ramanujan)

    p = sub.add_parser("gauss", help="character sum: conductor reduction vs brute force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--char", type=int, required=True, help="character index in [0, phi(n))")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--power", type=int, default=1, help="evaluate on chi**power")
    p.set_defaults(fn=cmd_gauss)

    p = sub.add_parser("cancel", help="power-residue sum: enumeration vs character orthogonality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_cancel)

    p = sub.add_parser("scan", help="ScanRow CSV/JSON from an experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=list(suites.SUITE_NAMES))
    p.add_argument("--out", help="write findings as CSV")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader gone after the last write shows here
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:  # the reader left early: not a program error
        # send what stdout still holds to devnull, so that the flush at exit
        # cannot fail (an in-memory stdout has no descriptor to point)
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
