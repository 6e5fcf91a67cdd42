"""CLI stdout, byte for byte, against files captured from commit 0dea909.

The files under tests/data/cli_stdout/ hold what that commit printed for
each command below.  Any change to the numeric kernels must leave stdout
identical: same counts, same floats to all 12 printed digits, same order.
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


def _commands():
    for n in map(str, MODULI):
        yield f"witnesses_{n}", ["witnesses", "--n", n]
        yield f"bounds_{n}", ["bounds", "--n", n]
        yield f"histogram_{n}", ["histogram", "--n", n, "--bins", "1000", "--out", "-"]
        yield f"interval_{n}", ["interval", "--n", n, "--a", "0.125", "--b", "0.6"]
        yield f"weyl_{n}", ["weyl", "--n", n, "--k", "10"]
        yield f"sums_{n}", ["sums", "--n", n, "--k", "3"]
    yield "scan", ["scan", "--config", SCAN_CONFIG]


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
