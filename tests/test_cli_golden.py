"""CLI stdout, byte for byte, against files captured from earlier commits.

The files under tests/data/cli_stdout/ hold what commit 0dea909 printed
for the witnesses, bounds, histogram, interval, weyl, sums and scan
commands below, and what commit 2c495df printed for ramanujan, gauss and
cancel.  verify_trend.txt is what commit 2857f5f printed for
`verify --suite trend`; verify_figure1.txt is what it printed for
`verify --suite figure1` with the run-dependent ` time=...s` cut from the
end of the summary, which no longer prints it.  In both, `checked` is the
number of conditions the suite checks, 2 and 3, where that commit printed
the number of moduli (4) and of bins (10000).  verify_cancel_ratio.txt
is what commit 12a7ab9 printed for `verify --suite cancel-ratio`; it is
not among the commands here, because that suite takes 3-5 s, and the
"Verify suites" step of .github/workflows/tier1.yml diffs it instead.
verify_partition_rabin.txt is what commit 03c8df0 printed for the
partition and rabin suites at their default bound; the acceptance test
compares it with the results of its 10**5 scan.
verify_cancellation_additivity.txt, verify_ramanujan.txt and
verify_cancel_dual.txt are what commit 914fb48 printed for the
cancellation and additivity, ramanujan and cancel-dual suites at their
default bounds; the acceptance tests compare each with the results of the
run they already make, and the "Verify suites" step of
.github/workflows/tier1.yml diffs the ramanujan and cancel-dual files too.
verify_gauss_primitive.txt and
verify_imprimitive.txt are what commit b5df8f0 printed for the
gauss-primitive and imprimitive suites at their default bounds, and
verify_imprimitive_findings.sha256 is the sha256 of the findings CSV that
`verify --suite imprimitive --out` wrote there (143,424 rows); the
acceptance tests compare them with their fixtures' runs, and the "Verify
suites" step of .github/workflows/tier1.yml diffs and checks them too.
verify_characters.txt, gauss_255255_vanishing.txt and
gauss_255255_reduced.txt are what commit f690dea printed for
`verify --suite characters` and for two characters mod 255255 =
3*5*7*11*13*17, six components, none of them all of n: one
of conductor 273 on the vanishing path, one of conductor 17 on the
reduced path; the "Verify suites" and "Console script" steps of
.github/workflows/tier1.yml diff them too.
histogram_2074757.txt, interval_2074757.txt, scan_sparse.txt,
interval_2146654199.txt and verify_bach.txt are what commit b10aa0e
printed, from its n-byte non-witness mask, for moduli whose few
non-witnesses are now sorted from the factorization: 2074757 (3,083 of
them), the scan of 2074757, 1000001 and 10001, and 2146654199 =
46327 * 46337 (92,665 of them; commit b10aa0e took 2 GB for it).
The acceptance test of the least-witness bound compares verify_bach.txt
with the results of its own run at the default bound, and the "Verify
suites" step of .github/workflows/tier1.yml diffs it too; the "Console
script" step diffs the others.
verify_arith.txt is what `verify --suite arith` prints at its default
bounds since the Mobius divisor identity left that suite and its seeded
semiprimes for Brent's rho came in; it is not among the commands here,
because that suite takes about 12 s, and the "Verify suites" step of
.github/workflows/tier1.yml diffs it instead.
sums_2074757.txt is what commit 89fa633 printed for
`sums --n 2074757 --k 3` from its witness list: the phase sums over the
2,071,674 witnesses of that modulus, in many blocks, that the sorted
non-witnesses now give.  weyl_2074757.txt holds `weyl --n 2074757 --k 10`;
the "Console script" step of .github/workflows/tier1.yml diffs both,
threaded and with WITNESS_THREADS=1.
The Weyl cells, |S_k| and |S_k| / #W, of weyl_200005.txt,
weyl_2074757.txt, scan.txt and scan_sparse.txt are not what any commit
printed: each is the long-double reference of tests/weyl_reference.py,
summed over every witness, rounded to 12 digits.  `weyl` and `scan` take
S_k as c_n(k) less the strong-liar sum, which holds those digits; the
witness sums that earlier commits printed were off by up to 1.5e-10,
the shared rounding of the angle fl(2 pi) * m / n over 2 * 10**6 terms.
weyl_1056331.txt, whose cells the reference confirmed, is as printed.
The D* cells of 200005 in scan.txt and of 2074757 in scan_sparse.txt are
the exact rational, a Fraction over every witness, rounded once; earlier
commits printed a float route that was off it in the 12th digit there.
verify_weyl_routes.txt is what `verify --suite weyl-routes` prints at its
default bounds.
The three sums_*.txt files print shared_factor_sum.error_budget as 0.0
since that sum, the exact closed form -c_n(k), carries no budget; every
other byte is as the commits above printed it.
bounds_1000036000099.txt is the bounds of 1000003 * 1000033, the one
command here past 2**31 whose factorization needs Brent's rho; its
counts were checked once against Monier's closed form over a
trial-division factorization, and least_witness = 2 against builtin pow.
The "Console script" step of .github/workflows/tier1.yml diffs it too.
witnesses_1056331_list.sha256 is the sha256 of what commit 03c8df0 printed
for `witnesses --n 1056331 --out -`, the witness list itself; the "Console
script" step of .github/workflows/tier1.yml compares it.
Any change to the numeric kernels, the agreement rule or the suite runner
must leave stdout identical: same counts, same floats to all 12 printed
digits, same verdicts, same order.
"""

import contextlib
import io
from pathlib import Path

import pytest

from mrwitness import cli

GOLDEN = Path(__file__).parent / "data" / "cli_stdout"

# 200005 = 5 * 13 * 17 * 181 (s = 2, so the sums report squares once);
# 1056331 = 727 * 1453, the paper's histogram modulus.
MODULI = (200005, 1056331)
SCAN_CONFIG = "n_values = 200005, 1056331\nk_max = 10\nbins = 1000\n"
SPARSE_SCAN_CONFIG = "n_values = 2074757, 1000001, 10001\nk_max = 10\nbins = 1000\n"


def _commands():
    for n in map(str, MODULI):
        yield f"witnesses_{n}", ["witnesses", "--n", n]
        yield f"bounds_{n}", ["bounds", "--n", n]
        yield f"histogram_{n}", ["histogram", "--n", n, "--bins", "1000", "--out", "-"]
        yield f"interval_{n}", ["interval", "--n", n, "--a", "0.125", "--b", "0.6"]
        yield f"weyl_{n}", ["weyl", "--n", n, "--k", "10"]
        yield f"sums_{n}", ["sums", "--n", n, "--k", "3"]
    yield "scan", ["scan", "--config", SCAN_CONFIG]
    # few non-witnesses: n / m is 673 at 2074757, 73 at 1000001, 43 at 10001
    yield "histogram_2074757", ["histogram", "--n", "2074757", "--bins", "1000", "--out", "-"]
    yield "interval_2074757", ["interval", "--n", "2074757", "--a", "0.125", "--b", "0.6"]
    yield "weyl_2074757", ["weyl", "--n", "2074757", "--k", "10"]
    yield "sums_2074757", ["sums", "--n", "2074757", "--k", "3"]
    yield "scan_sparse", ["scan", "--config", SPARSE_SCAN_CONFIG]
    yield "interval_2146654199", ["interval", "--n", "2146654199", "--a", "0.125", "--b", "0.6"]
    # 1000036000099 = 1000003 * 1000033: rho and Monier's counts past 2**31
    yield "bounds_1000036000099", ["bounds", "--n", "1000036000099"]
    yield "ramanujan_200005", ["ramanujan", "--n", "200005", "--k", "3"]
    yield "ramanujan_1056331", ["ramanujan", "--n", "1056331", "--k", "7"]
    # 6561 = 3**8 on all three paths (chi**3 has conductor 2187 = 6561/3);
    # 1024 = 2**10 reduced; 15 with a conductor-3 character, where l = 5
    # has a prime outside q and the reduction disagrees with the brute sum
    for name, n, char, k, power in (
        ("primitive_6561", 6561, 1, 2, 1),
        ("vanishing_6561", 6561, 3, 1, 1),
        ("reduced_6561", 6561, 1, 3, 3),
        ("reduced_1024", 1024, 2, 2, 1),
        ("disagrees_15", 15, 4, 5, 1),
    ):
        yield f"gauss_{name}", ["gauss", "--n", str(n), "--char", str(char), "--k", str(k),
                                "--power", str(power)]
    yield "gauss_255255_vanishing", ["gauss", "--n", "255255", "--char", "50000", "--k", "3"]
    yield "gauss_255255_reduced", ["gauss", "--n", "255255", "--char", "5", "--k", "30030"]
    yield "cancel_9", ["cancel", "--n", "9", "--alpha", "2", "--b", "7", "--k", "1"]
    yield "cancel_1024", ["cancel", "--n", "1024", "--alpha", "2", "--b", "9", "--k", "3"]
    yield "verify_trend", ["verify", "--suite", "trend"]
    yield "verify_figure1", ["verify", "--suite", "figure1"]
    yield "verify_characters", ["verify", "--suite", "characters"]
    yield "verify_weyl_routes", ["verify", "--suite", "weyl-routes"]


COMMANDS = dict(_commands())


def run_stdout(argv, tmp_dir: Path) -> str:
    """stdout of one in-process CLI call; scan's config text goes to a file."""
    if argv[0] == "scan":
        cfg = tmp_dir / "golden.cfg"
        cfg.write_text(argv[2])
        argv = ["scan", "--config", str(cfg)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == cli.EXIT_OK
    return buf.getvalue()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert run_stdout(COMMANDS[name], tmp_path).encode() == expected
