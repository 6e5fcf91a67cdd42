import cmath
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from mrwitness import cli, concurrency, suites


def run_cli(*argv):
    """In-process invocation capturing stdout; returns (exit_code, text)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class TestBasicCommands:
    def test_decompose(self):
        code, out = run_cli("decompose", "--n", "9")
        assert code == 0 and out == "d=1 s=3\n"

    def test_classify(self):
        code, out = run_cli("classify", "--n", "9", "--w", "8")
        assert code == 0 and out == "w=8 class=minus-one stage=0\n"
        code, out = run_cli("classify", "--n", "9", "--w", "6")
        assert code == 0 and out == "w=6 class=non-coprime gcd=3\n"

    def test_witnesses_counts(self):
        code, out = run_cli("witnesses", "--n", "9")
        assert code == 0
        assert "witnesses=4" in out and "non_coprime=3" in out

    def test_witnesses_prime_is_domain_error(self, capsys):
        code, _ = run_cli("witnesses", "--n", "7")
        assert code == 1
        assert "n is prime: witness set empty" in capsys.readouterr().err

    def test_gauss_and_ramanujan_past_the_byte_budget_exit_1(self, capsys, monkeypatch):
        """At 2146654199 the bytes per residue of the n-sized arrays are
        refused before the first of them is allocated: the 24 B of the
        character values of `gauss` (52 GB) and the 16 B of the ramp and
        its gcds of `ramanujan` (34 GB)."""
        from mrwitness import characters, expsums

        n = 2146654199

        def refused(size, *argv):
            assert run_cli(*argv) == (1, ""), argv
            assert f" {size} bytes, past the budget" in capsys.readouterr().err

        def fail(*args):
            raise AssertionError("reached past the budget check")

        # gauss builds the value table, and ramanujan factors n, just
        # before their first n-sized array: a late check fails here
        monkeypatch.setattr(characters.DirichletCharacter, "value_table", fail)
        monkeypatch.setattr(expsums, "factorize", fail)
        refused(24 * n, "gauss", "--n", str(n), "--char", "1", "--k", "1")
        refused(16 * n, "ramanujan", "--n", str(n), "--k", "1")

    def test_weyl_at_2146654199_sums_two_liars(self):
        """2146654199 = 46327 * 46337 has 2 strong liars, 1 and n - 1, so
        S_k = c_n(k) - 2 cos(2 pi k / n), two terms per k."""
        from mrwitness import WitnessClass, classify, classify_all
        from mrwitness.arith import factorize
        from mrwitness.expsums import ramanujan_closed

        n = 2146654199
        counts = classify_all(n).counts
        assert counts.strong_liars == 2
        assert classify(n, 1).category is WitnessClass.DTH_ROOT
        assert classify(n, n - 1).category is WitnessClass.MINUS_ONE
        code, out = run_cli("weyl", "--n", str(n), "--k", "10")
        assert code == 0
        fac = factorize(n)
        want = ["k,magnitude,ratio"]
        for k in range(1, 11):
            mag = abs(ramanujan_closed(fac, k) - 2 * math.cos(2 * math.pi * k / n))
            want.append(f"{k},{mag:.12g},{mag / counts.witness:.12g}")
        assert out.splitlines() == want

    def test_cancel_past_the_character_average_budget(self, capsys):
        """At 2146654199 = 46327 * 46337 the 4 square roots of 4 are summed
        one by one, and the character average, whose Gauss sums need 64 B
        per residue, is skipped with a note on stderr.  At alpha = lambda(n)
        every unit is a solution: the 8 B candidates of 46327 * 46336 of
        them are refused before they are built."""
        p, q = 46327, 46337
        n = p * q
        code, out = run_cli("cancel", "--n", str(n), "--alpha", "2", "--b", "4", "--k", "1")
        assert code == 0
        assert f"character average skipped: the Gauss sums of n = {n} need {64 * n} bytes" in capsys.readouterr().err
        roots = [a + p * ((b - a) * pow(p, -1, q) % q) for a in (2, p - 2) for b in (2, q - 2)]
        assert all(w * w % n == 4 for w in roots)
        want = sum(cmath.exp(2j * math.pi * w / n) for w in roots)
        got = dict(line.split("=") for line in out.splitlines())
        assert list(got) == ["solution_count", "direct_re", "direct_im", "sqrt_n_ratio"]
        assert int(got["solution_count"]) == 4
        assert abs(complex(float(got["direct_re"]), float(got["direct_im"])) - want) < 1e-9
        lam = (p - 1) * (q - 1) // 2  # lambda(n): every unit solves w**lam = 1
        tracemalloc.start()
        try:
            assert run_cli("cancel", "--n", str(n), "--alpha", str(lam), "--b", "1", "--k", "1") == (1, "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"need {8 * p * (q - 1)} bytes" in capsys.readouterr().err
        assert peak < 16 * 2**20

    def test_power_tables_at_a_prime_near_2_31_exit_1(self, capsys):
        """`cancel` and `sums` tabulate w**e mod each prime power of n, here
        the one component 2147483629 at 9 B per residue: refused before
        any of it is built."""
        n = 2147483629
        for argv in (["cancel", "--n", str(n), "--alpha", "2", "--b", "4", "--k", "1"],
                     ["sums", "--n", str(n), "--k", "1"]):
            tracemalloc.start()
            try:
                assert run_cli(*argv) == (1, "")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert f"of n = {n} need {9 * n} bytes" in capsys.readouterr().err
            assert peak < 16 * 2**20

    def test_cancel_past_2_31_exit_1(self, capsys):
        """65537 * 65539 has 4 square roots of 4 among 131,074 candidates,
        but its k = -1 products (n - 1) * w overflow int64: refused."""
        n = 65537 * 65539
        assert run_cli("cancel", "--n", str(n), "--alpha", "2", "--b", "4", "--k", "-1") == (1, "")
        assert f"cancellation sums support n < 2**31, got {n}" in capsys.readouterr().err

    def test_statistics_of_a_prime_near_2_31_exit_1(self, capsys, monkeypatch):
        """Refused from Monier's counts, not by a 16 GiB liar allocation."""
        from mrwitness import _scan

        def fail(*args):
            raise AssertionError("the liar sets were built")

        monkeypatch.setattr(_scan, "liar_sets", fail)
        n = "2147483629"
        for argv in (["histogram", "--n", n, "--bins", "10", "--out", "-"],
                     ["interval", "--n", n, "--a", "0.1", "--b", "0.2"],
                     ["weyl", "--n", n, "--k", "1"]):
            code, out = run_cli(*argv)
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == f"error: {n} has no witnesses\n"

    def test_bounds(self):
        code, out = run_cli("bounds", "--n", "9")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["strong_liar_count"] == "2"
        assert lines["rabin_ok_liar_def"] == "true"
        assert lines["least_witness"] == "2"
        assert lines["bach_ok"] == "true"
        assert lines["paper_witness_fraction"] == "1/2"

    # p * q past 2**31.  Every odd n here has s = 1, so the strong liars
    # are the d-th roots and their negatives: 2 * gcd(p - 1, d) * gcd(q - 1, d).
    # 1000036000099: gcd(1000002, d) = gcd(1000032, d) = 3, so 2 * 3 * 3 = 18;
    # 999999943999999559: both gcds are 1, so only +-1 are liars: 2.
    @pytest.mark.parametrize("p, q, liars", [
        (1000003, 1000033, 18),
        (999999937, 1000000007, 2),
    ])
    def test_counts_past_2_31(self, p, q, liars):
        n = p * q
        for command, keys in (("bounds", ("witness_count", "strong_liar_count")),
                              ("witnesses", ("witnesses", "dth_root", "minus_one", "non_coprime"))):
            t0 = time.perf_counter()
            code, out = run_cli(command, "--n", str(n))
            assert code == 0 and time.perf_counter() - t0 < 1.0
            kv = {k: int(v) for k, v in (line.split("=", 1) for line in out.splitlines())
                  if k in keys}
            if command == "bounds":
                assert kv == {"witness_count": n - (p + q - 1) - liars, "strong_liar_count": liars}
            else:
                assert kv["dth_root"] + kv["minus_one"] == liars
                assert kv["non_coprime"] == p + q - 1
                assert kv["witnesses"] + liars + kv["non_coprime"] == n

    def test_witness_list_past_2_31_fails_before_any_output(self, tmp_path, capsys):
        code, out = run_cli("witnesses", "--n", str(2**31 + 1), "--out", str(tmp_path / "w.csv"))
        assert code == 1 and out == ""
        assert "2**31" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    def test_weyl_frequency_limit_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.equidist, "_phase_sums", lambda *a: pytest.fail("sums ran"))
        code, out = run_cli("weyl", "--n", "200005", "--k", "1000001")
        assert code == 1 and out == ""
        assert "k_max is limited to 1000000" in capsys.readouterr().err

    def test_weyl(self):
        code, out = run_cli("weyl", "--n", "9", "--k", "2")
        rows = out.strip().splitlines()
        assert code == 0 and rows[0] == "k,magnitude,ratio"
        assert len(rows) == 3

    def test_interval(self):
        code, out = run_cli("interval", "--n", "9", "--a", "0", "--b", "0.5")
        assert code == 0 and "fraction=0.5" in out

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose"])  # missing --n
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestParser:
    def test_built_once_across_calls(self):
        cli.build_parser.cache_clear()
        for argv in (("decompose", "--n", "9"), ("bounds", "--n", "9"), ("witnesses", "--n", "15")):
            assert run_cli(*argv)[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("bad", [
        ("histogram", "--n", "200005", "--bins", "1000"),  # missing --out
        ("histogram", "--n", "200005", "--bins", "x", "--out", "-"),
        ("interval", "--n", "200005", "--a", "0.125"),
    ])
    def test_usage_error_leaves_the_parser_intact(self, bad):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(bad))
        assert exc.value.code == 2
        golden = Path(__file__).parent / "data" / "cli_stdout"
        for name, argv in (
            ("histogram_200005", ("histogram", "--n", "200005", "--bins", "1000", "--out", "-")),
            ("interval_200005", ("interval", "--n", "200005", "--a", "0.125", "--b", "0.6")),
        ):
            code, out = run_cli(*argv)
            assert code == 0 and out.encode() == (golden / f"{name}.txt").read_bytes()


class TestDataCommands:
    def test_histogram_csv(self, tmp_path):
        out_path = tmp_path / "h.csv"
        code, out = run_cli("histogram", "--n", "9", "--bins", "2", "--out", str(out_path))
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows == [["bin_index", "count"], ["0", "2"], ["1", "2"]]
        assert "total_witnesses=4" in out

    def test_histogram_bins_past_the_limit_is_domain_error(self, capsys):
        code, out = run_cli("histogram", "--n", "9", "--bins", str(cli.equidist.MAX_BINS + 1), "--out", "-")
        assert code == 1 and out == ""
        assert f"bins is limited to {cli.equidist.MAX_BINS}" in capsys.readouterr().err

    def test_sums_json_key_order(self):
        code, out = run_cli("sums", "--n", "9", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "n",
            "k",
            "witness_sum",
            "nonwitness_sum",
            "shared_factor_sum",
            "dth_root_sum",
            "minus_one_sum",
            "per_stage_sums",
            "stage_duplicates",
            "residual_total",
            "residual_partition",
        ]
        assert payload["residual_total"] < 1e-9
        assert list(payload["witness_sum"]) == ["re", "im", "term_count", "error_budget"]

    def test_json_outputs_take_dash_for_stdout(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli("sums", "--n", "9", "--k", "1", "--out", "-")
        assert code == 0 and json.loads(out)["n"] == 9
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_values = 15\nk_max = 2\noutput_format = json\noutput_path = -\n")
        code, out = run_cli("scan", "--config", str(cfg))
        assert code == 0 and [row["n"] for row in json.loads(out)] == [15]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["exp.cfg"]

    def test_ramanujan(self):
        code, out = run_cli("ramanujan", "--n", "9", "--k", "3")
        assert code == 0
        assert "closed=-3" in out and "agrees=true" in out

    def test_gauss(self):
        code, out = run_cli("gauss", "--n", "9", "--char", "3", "--k", "1")
        assert code == 0
        assert "path=vanishing" in out and "agrees_with_brute=true" in out

    def test_gauss_power_flag(self):
        # chi_1^3 = chi_3 mod 9
        code, out = run_cli("gauss", "--n", "9", "--char", "1", "--k", "1", "--power", "3")
        assert code == 0 and "char_index=3" in out

    def test_cancel(self):
        code, out = run_cli("cancel", "--n", "9", "--alpha", "2", "--b", "7", "--k", "1")
        assert code == 0
        assert "solution_count=2" in out and "agrees=true" in out

    def test_determinism(self, tmp_path):
        a = run_cli("sums", "--n", "45", "--k", "3")
        b = run_cli("sums", "--n", "45", "--k", "3")
        assert a == b
        h1 = tmp_path / "a.csv"
        h2 = tmp_path / "b.csv"
        run_cli("histogram", "--n", "225", "--bins", "7", "--out", str(h1))
        run_cli("histogram", "--n", "225", "--bins", "7", "--out", str(h2))
        assert h1.read_bytes() == h2.read_bytes()


class TestScanCommand:
    def test_scan_csv(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out_path = tmp_path / "rows.csv"
        cfg.write_text(
            "# demo experiment\n"
            "n_values = 9, 15, 7\n"
            "k_max = 2\n"
            "bins = 2\n"
            f"output_path = {out_path}\n"
            "output_format = csv\n"
        )
        code, _ = run_cli("scan", "--config", str(cfg))
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == [
            "n",
            "witness_count",
            "witness_fraction",
            "star_discrepancy",
            "least_witness",
            "weyl_ratio_1",
            "weyl_ratio_2",
            "flatness",
            "error",
        ]
        assert rows[1][0] == "9" and rows[1][1] == "4"
        assert rows[3][0] == "7" and rows[3][-1] != ""  # error row, scan continued
        assert "runtime" not in rows[0]  # timing is stderr-only

    def test_scan_json_and_magnitudes(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_magnitudes = 1000\nk_max = 1\noutput_format = json\n")
        code, out = run_cli("scan", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["n"] == 1001

    def test_scan_range(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_range = 9..27\nk_max = 1\n")
        code, out = run_cli("scan", "--config", str(cfg))
        assert code == 0
        ns = [row.split(",")[0] for row in out.strip().splitlines()[1:]]
        assert ns == ["9", "15", "21", "25", "27"]

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        """Every key is checked before the first row runs."""
        cfg = tmp_path / "exp.cfg"
        out_path = tmp_path / "rows.csv"
        for text in (
            "nonsense_key = 1\nn_values = 9\n",
            "k_max = 2\n",  # no n source
            "n_values = 9\nchecks = figure2\n",  # unknown suite
            "n_values = 9\nn_range = 9..27\n",  # two n sources
            "n_values = 9\nthreads = 2\n",  # workers come from WITNESS_THREADS only
            "n_values = 9\nk = 3\n",  # no abbreviation of k_max
            "n_values = 9\nk_max = 0\n",
            "n_values = 9\nk_max = 1000001\n",  # past expsums.MAX_FREQUENCY
            "n_values = 9\nbins = 1000001\n",  # past equidist.MAX_BINS
            "n_values = 9\noutput_format = xml\n",
        ):
            cfg.write_text(text + f"output_path = {out_path}\n")
            code, out = run_cli("scan", "--config", str(cfg))
            err = capsys.readouterr().err
            assert code == 2 and out == "", text
            assert err.startswith(f"config error: {cfg}") and "scan n=" not in err, text
            assert not out_path.exists(), text

    def test_bad_output_path_is_usage_error(self, tmp_path, capsys, monkeypatch):
        """An output path that cannot be opened stops the scan before its first row."""
        monkeypatch.setattr(cli.equidist, "scan", lambda *a, **kw: pytest.fail("scan ran"))
        cfg = tmp_path / "exp.cfg"
        for path in ("", tmp_path / "missing" / "rows.csv"):
            cfg.write_text(f"n_values = 9\noutput_path = {path}\n")
            code, out = run_cli("scan", "--config", str(cfg))
            err = capsys.readouterr().err
            assert code == 2 and out == "", path
            assert err.startswith("config error: "), path
        assert not (tmp_path / "missing").exists()

    def test_scan_checks_run(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_values = 9\nchecks = figure1\n")
        code, out = run_cli("scan", "--config", str(cfg))
        assert code == 0
        assert "PASS figure1" in out


class TestVerifyCommand:
    def test_single_suite_pass(self):
        code, out = run_cli("verify", "--suite", "figure1")
        assert code == 0
        assert out.startswith("PASS figure1")

    def test_findings_csv(self, tmp_path):
        out_path = tmp_path / "findings.csv"
        code, out = run_cli("verify", "--suite", "trend", "--out", str(out_path))
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0][0] == "suite"
        assert len(rows) == 5  # header + one row per magnitude

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_stdout_does_not_depend_on_the_clock(self, monkeypatch, capsys):
        """Two fake clocks ticking at different rates: stdout is the same,
        only the elapsed line on stderr moves."""
        outs, errs = [], []
        for step in (1e-3, 7.0):
            ticks = itertools.count()
            monkeypatch.setattr(suites, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * step))
            code, out = run_cli("verify", "--suite", "figure1")
            assert code == 0
            outs.append(out)
            errs.append(capsys.readouterr().err)
        assert outs[0] == outs[1]
        assert errs == ["suite figure1 elapsed 0.0s\n", "suite figure1 elapsed 21.0s\n"]

    def test_one_elapsed_line_per_suite_function(self, monkeypatch, capsys):
        """A full verify with every suite function stubbed: suites that
        share a function share one stderr line, naming both results."""
        stubs = {}
        for name, fn in suites._REGISTRY.items():
            stubs.setdefault(fn, []).append(name)
        registry = {}
        for names in stubs.values():
            def stub(names=names):
                return [suites.SuiteResult(name, 1, 0, "") for name in names]
            registry.update(dict.fromkeys(names, stub))
        monkeypatch.setattr(suites, "_REGISTRY", registry)
        ticks = itertools.count()
        monkeypatch.setattr(suites, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * 2.0))
        code, out = run_cli("verify")
        assert code == 0 and len(out.splitlines()) == len(suites.SUITE_NAMES) == 15
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(stubs) == 13
        assert all(line.endswith(" elapsed 2.0s") for line in err)
        assert "suite partition, rabin elapsed 2.0s" in err
        assert "suite cancellation, additivity elapsed 2.0s" in err


class TestEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mrwitness.cli", "decompose", "--n", "25"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "d=3 s=3\n"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader left after `allowed` characters: a write past
    them raises, and so does a flush once `allowed` is None.  It has no
    file descriptor, so main's devnull redirect is skipped."""

    def __init__(self, allowed):
        super().__init__()
        self.allowed = allowed

    def write(self, text):
        if self.allowed is not None and self.tell() + len(text) > self.allowed:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.allowed is None:
            raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """`witnesses --out - | head -5`: a reader that leaves early is not a
    program error, so main exits EXIT_PIPE with nothing on stderr."""

    @pytest.mark.parametrize("allowed", [0, 60, None], ids=["counts", "list", "flush"])
    def test_exits_quietly(self, allowed, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(allowed))
        assert cli.main(["witnesses", "--n", "200005", "--out", "-"]) == cli.EXIT_PIPE == 141
        assert capsys.readouterr().err == ""


# (WITNESS_THREADS, the worker count it gives with 5 CPUs)
_PRECEDENCE = [
    ("4", 4),
    ("0", 5),  # not a positive integer: then the CPU count
    ("four", 5),
    (None, 5),
]


class TestThreads:
    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        for env, expected in _PRECEDENCE:
            if env is None:
                monkeypatch.delenv("WITNESS_THREADS", raising=False)
            else:
                monkeypatch.setenv("WITNESS_THREADS", env)
            assert concurrency.thread_count() == expected, env
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert concurrency.thread_count() == 1

    def test_flag_is_gone(self):
        """The worker count has one setting, WITNESS_THREADS: --threads is
        a usage error."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["--threads", "1", "decompose", "--n", "9"])
        assert exc.value.code == 2

    @staticmethod
    def _check_precedence(call, env, expected, monkeypatch):
        """The pools that `call` starts are sized by the one rule."""
        if env is None:
            monkeypatch.delenv("WITNESS_THREADS", raising=False)
        else:
            monkeypatch.setenv("WITNESS_THREADS", env)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        workers = []
        original = concurrency.thread_count

        def thread_count():
            workers.append(original())
            return workers[-1]

        monkeypatch.setattr(concurrency, "thread_count", thread_count)
        assert run_cli(*call)[0] == 0
        assert workers == [expected]

    @pytest.mark.parametrize("env, expected", _PRECEDENCE)
    def test_scan_worker_precedence(self, env, expected, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_values = 9, 15\nk_max = 2\n")
        self._check_precedence(["scan", "--config", str(cfg)], env, expected, monkeypatch)

    @pytest.mark.parametrize("env, expected", _PRECEDENCE)
    def test_weyl_worker_precedence(self, env, expected, monkeypatch):
        """The phase-sum blocks of the liar sum: the 263,538 liars of
        1056331 at 10 ks are more terms than n, so they gather, in 16
        blocks."""
        self._check_precedence(["weyl", "--n", "1056331", "--k", "10"], env, expected, monkeypatch)

    @pytest.mark.parametrize("env, expected", _PRECEDENCE)
    def test_sums_worker_precedence(self, env, expected, monkeypatch):
        """The phase-sum blocks of the witness sum: 34510 witnesses at 40001
        make two; the other sets fit in one block each."""
        self._check_precedence(["sums", "--n", "40001", "--k", "2"], env, expected, monkeypatch)
