import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import osrb_lab
from helpers import run_capped
from osrb_lab import binning, measures, wiretap
from osrb_lab.cli import (
    OSRB_FIELDS,
    ValidationError,
    emit_records_with_header,
    main,
    parse_n_range,
)
from osrb_lab.measures import Channel, JointPmf, Pmf


@pytest.fixture
def files(tmp_path):
    Pmf.uniform(["a", "b"]).save(tmp_path / "half.json")
    Pmf(("a", "b"), (0.75, 0.25)).save(tmp_path / "skew.json")
    Pmf(("a", "b"), (1.0, 0.0)).save(tmp_path / "point.json")
    JointPmf(("x0", "x1"), ("z0", "z1"),
             np.array([[0.75, 0.25], [0.25, 0.75]]) * 0.5).save(tmp_path / "flip.json")
    Channel.bsc(0.1, ("a", "b")).save(tmp_path / "main.json")
    Channel.bsc(0.3, ("a", "b")).save(tmp_path / "eve.json")
    Pmf.uniform(["a", "b"]).save(tmp_path / "uniform.json")
    return tmp_path


def path(base, name):
    return str(base / name)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_transcript(subcommand):
    """(argv, stdout) of the README's ``$ osrb-lab <subcommand>`` example."""
    with open(README) as fh:
        text = fh.read()
    for block in re.findall(r"```sh\n\$ osrb-lab (.*?)```", text, re.S):
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)
        while command.rstrip().endswith("\\"):
            command = command.rstrip()[:-1] + lines.pop(0)
        argv = shlex.split(command)
        if argv[0] == subcommand:
            return argv, "".join(lines)
    raise AssertionError(f"README has no transcript for {subcommand!r}")


class TestReadmeTranscripts:
    @pytest.mark.parametrize("subcommand", ["measure", "osrb", "rates"])
    def test_stdout_matches_readme(self, files, capsys, monkeypatch, subcommand):
        argv, stdout = readme_transcript(subcommand)
        monkeypatch.chdir(files)
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout


class TestMeasure:
    def test_tsallis_worked_value(self, files, capsys):
        rc = main(["measure", "--p", path(files, "half.json"),
                   "--q", path(files, "skew.json"),
                   "--kind", "tsallis", "--alpha", "2"])
        assert rc == 0
        assert capsys.readouterr().out == "0.333333\n"

    def test_infinite_value_renders_inf(self, files, capsys):
        rc = main(["measure", "--p", path(files, "half.json"),
                   "--q", path(files, "point.json"), "--kind", "kl"])
        assert rc == 0
        assert capsys.readouterr().out == "inf\n"

    def test_missing_alpha_rejected(self, files, capsys):
        rc = main(["measure", "--p", path(files, "half.json"),
                   "--q", path(files, "skew.json"), "--kind", "renyi"])
        assert rc == 2
        assert "--alpha" in capsys.readouterr().err

    def test_missing_file_names_path(self, files, capsys):
        rc = main(["measure", "--p", path(files, "absent.json"),
                   "--q", path(files, "skew.json"), "--kind", "tv"])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,message", [
        ({"labels": ["a", "b"]}, "missing key 'probs'"),
        ([0.5, 0.5], "expected a JSON object"),
        ({"labels": 2, "probs": [1.0]}, "labels must be a list"),
        ({"labels": ["a", "b"], "probs": {"a": 1.0}}, "array of numbers"),
        ({"labels": "ab", "probs": [0.5, 0.5]}, "labels must be a list, not a string"),
    ])
    def test_malformed_pmf_file_exits_2(self, files, capsys, doc, message):
        (files / "bad.json").write_text(json.dumps(doc))
        rc = main(["measure", "--p", path(files, "bad.json"),
                   "--q", path(files, "skew.json"), "--kind", "tv"])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name,doc,argv", [
        ("Pmf", {"labels": ["a", "b"], "probs": [True, False]},
         ["measure", "--p", "bad.json", "--q", "half.json", "--kind", "kl"]),
        ("JointPmf", {"row_labels": ["x0", "x1"], "col_labels": ["z0", "z1"],
                      "probs": [[True, False], [False, False]]},
         ["osrb", "--joint", "bad.json", "--alpha", "2", "--rate", "0.5", "--n", "2"]),
        ("Channel", {"row_labels": ["a", "b"], "col_labels": ["a", "b"],
                     "probs": [[True, False], [False, True]]},
         ["rates", "--task", "secrecy", "--alpha", "2", "--main", "bad.json",
          "--eve", "eve.json", "--input", "uniform.json"]),
    ])
    def test_boolean_probabilities_exit_2(self, files, capsys, monkeypatch, name, doc, argv):
        # a pmf of [true, false] used to load as a point mass: KL 1.000000
        (files / "bad.json").write_text(json.dumps(doc))
        monkeypatch.chdir(files)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name}: probabilities must be numbers, not booleans" in captured.err


EXACT_ROWS = [
    (2, 2, "0.390625"),
    (3, 3, "0.48828125"),
    (4, 4, "0.457763671875"),
    (5, 6, "0.476837158203"),
    (6, 8, "0.417232513428"),
    (7, 11, "0.372529029846"),
    (8, 15, "0.325962901115"),
    (9, 20, "0.276486389339"),
    (10, 28, "0.245563569479"),
    (11, 39, "0.216004991671"),
    (12, 54, "0.188293824976"),
]


class TestOsrb:
    def test_exact_sweep_csv_bytes(self, files, capsys):
        out = path(files, "exact.csv")
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2", "--rate", "0.478", "--n", "2..12",
                   "--mode", "exact", "--out", out])
        assert rc == 0
        expect = "n,rate,alpha,m,trials,mean,stderr,seed\n"
        for n, m, mean in EXACT_ROWS:
            expect += f"{n},0.478,2,{m},0,{mean},0,0\n"
        with open(out) as fh:
            assert fh.read() == expect
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 11
        assert printed[0] == "n=2 m=2 mean=0.390625 stderr=0"

    def test_exact_large_blocklength_stays_finite(self, files, capsys):
        out = path(files, "big.csv")
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "5", "--rate", "0.9", "--n", "320",
                   "--mode", "exact", "--out", out])
        assert rc == 0
        with open(out) as fh:
            row = fh.read().splitlines()[1].split(",")
        assert row[3] == str(math.ceil(2.0 ** 288))
        assert row[5] == "7.13268947524e+146"

    def test_exact_beyond_float_range_exits_3(self, files, capsys):
        eps = 2.0 ** -20
        JointPmf(("x0", "x1"), ("z0", "z1"),
                 [[0.5 - eps, eps], [eps, 0.5 - eps]]).save(files / "sharp.json")
        rc = main(["osrb", "--joint", path(files, "sharp.json"),
                   "--alpha", "5", "--rate", "0.9", "--n", "320", "--mode", "exact"])
        assert rc == 3
        assert "float range" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "enum", "mc"])
    def test_bin_count_beyond_float_range_exits_3(self, files, mode):
        # n * rate = 1200: 2^(n * rate) is not a float
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(osrb_lab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "osrb_lab.cli", "osrb", "--joint", path(files, "flip.json"),
             "--alpha", "2", "--rate", "4", "--n", "300", "--mode", mode],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert "bin count m" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_enum_agrees_with_exact(self, files, capsys):
        args = ["osrb", "--joint", path(files, "flip.json"), "--alpha", "2",
                "--rate", "0.5", "--n", "2,3"]
        out_a = path(files, "a.csv")
        out_b = path(files, "b.csv")
        assert main(args + ["--mode", "exact", "--out", out_a]) == 0
        assert main(args + ["--mode", "enum", "--out", out_b]) == 0
        rows_a = read_csv(out_a)
        rows_b = read_csv(out_b)
        assert len(rows_a) == len(rows_b) == 2
        for ra, rb in zip(rows_a, rows_b):
            assert float(ra["mean"]) == pytest.approx(float(rb["mean"]), rel=1e-9)

    def test_mc_reports_spread_and_thread_invariance(self, files, capsys):
        args = ["osrb", "--joint", path(files, "flip.json"), "--alpha", "2",
                "--rate", "0.5", "--n", "4", "--mode", "mc",
                "--trials", "64", "--seed", "9"]
        out1 = path(files, "mc1.csv")
        assert main(args + ["--threads", "1", "--out", out1]) == 0
        for threads in ("3", "4"):
            out = path(files, f"mc{threads}.csv")
            assert main(args + ["--threads", threads, "--out", out]) == 0
            with open(out1) as fa, open(out) as fb:
                assert fa.read() == fb.read()
        (rec,) = read_csv(out1)
        assert float(rec["stderr"]) > 0.0
        assert rec["trials"] == "64"

    def test_fractional_order_rejected_for_exact_mode(self, files, capsys):
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2.5", "--rate", "0.5", "--n", "3",
                   "--mode", "exact"])
        assert rc == 2

    def test_nan_rate_rejected(self, files, capsys):
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2", "--rate", "nan", "--n", "3", "--mode", "exact"])
        assert rc == 2
        assert "--rate" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["inf", "1e309"])
    def test_infinite_rate_rejected(self, files, capsys, rate):
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2", "--rate", rate, "--n", "3"])
        assert rc == 2
        assert "--rate" in capsys.readouterr().err

    def test_bad_trials_rejected(self, files, capsys):
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2", "--rate", "0.5", "--n", "3",
                   "--mode", "mc", "--trials", "0"])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_guard_exit_code(self, files, capsys):
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2", "--rate", "0.5", "--n", "14",
                   "--mode", "enum"])
        assert rc == 3

    def test_enum_guard_checked_before_product_is_built(self, files, capsys, monkeypatch):
        # 13^4096 binnings: the guard fires without building the 2^24-entry product
        def refuse(self, n):
            raise AssertionError("product_power called")
        monkeypatch.setattr(JointPmf, "product_power", refuse)
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2", "--rate", "0.3", "--n", "12", "--mode", "enum"])
        assert rc == 3
        assert "enumeration of 13^4096 binnings exceeds guard" in capsys.readouterr().err

    def test_mc_trial_arrays_guard_exits_3(self, files):
        # m = 2^40 bins: the one-hot alone would be 2^44 floats (128 TiB);
        # the address-space cap keeps a missing guard from touching memory
        proc = run_capped(["osrb", "--joint", path(files, "flip.json"), "--alpha", "2",
                           "--rate", "10", "--n", "4", "--mode", "mc"],
                          cap=4 * 2 ** 30, timeout=60)
        assert proc.returncode == 3
        assert (f"mc at m = {2 ** 40}: arrays {2 ** 40} x 2^4 "
                f"and {2 ** 40} x 2^4 exceed guard") in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("rate,mode,message", [
        ("0", "enum", "product_power: 4^1000000000 entries exceed guard"),
        ("1e-7", "enum", "enumeration of 1267650600228229401496703205376^(2^1000000000) "
                         "binnings exceeds guard"),
        ("0", "mc", "sequence alphabet 2^1000000000 exceeds guard"),
    ])
    def test_huge_blocklength_guard_exits_3_quickly(self, files, rate, mode, message):
        # the guards compare exponents: 2^(10^9) alone takes seconds to form
        proc = run_capped(["osrb", "--joint", path(files, "flip.json"), "--alpha", "2",
                           "--rate", rate, "--n", "1000000000", "--mode", mode])
        assert proc.returncode == 3
        assert f"error: {message}\n" == proc.stderr

    def test_one_letter_joint_mc_at_huge_blocklength(self, files):
        # a 1 x 1 joint passes every guard at any n: its Kronecker powers
        # take no n-fold product, and every trial's divergence is 0
        JointPmf(("x",), ("z",), [[1.0]]).save(files / "one.json")
        proc = run_capped(["osrb", "--joint", path(files, "one.json"), "--alpha", "2",
                           "--rate", "0", "--n", "300000000", "--mode", "mc"])
        assert proc.returncode == 0
        assert proc.stdout == "n=300000000 m=1 mean=0 stderr=0\n"

    def test_mc_runs_beyond_product_joint_guard(self, files, capsys):
        # (2 x 2)^14 = 2^28 product entries exceed MATRIX_GUARD; the
        # per-trial arrays are 19 x 2^14
        rc = main(["osrb", "--joint", path(files, "flip.json"), "--alpha", "2",
                   "--rate", "0.3", "--n", "14", "--mode", "mc", "--trials", "4",
                   "--seed", "0", "--threads", "1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("n=14 m=19 mean=")

    def test_n_range_parsing(self):
        assert parse_n_range("4") == [4]
        assert parse_n_range("2..5") == [2, 3, 4, 5]
        assert parse_n_range("2,4,8") == [2, 4, 8]
        for bad in ("0", "5..2", "x", "1,0"):
            with pytest.raises(ValidationError):
                parse_n_range(bad)


class TestFlagParseErrors:
    @pytest.mark.parametrize("argv, flag, reason", [
        (["osrb", "--alpha", "-1", "--rate", "0.5", "--n", "3"],
         "--alpha", "order must be a positive real or inf, got -1.0"),
        (["osrb", "--alpha", "2", "--rate", "0.5", "--n", "3..1"],
         "--n", "cannot parse blocklength range '3..1'"),
        (["rates", "--task", "threshold", "--alpha", "2,x"],
         "--alpha", "could not convert string to float: 'x'"),
        (["rates", "--task", "threshold", "--alpha", ","],
         "--alpha", "expected at least one order"),
        (["osrb", "--alpha", "2", "--rate", "0.5", "--n", "3", "--threads", "-1"],
         "--threads", "thread count must be >= 0, got -1"),
        (["osrb", "--alpha", "2", "--rate", "0.5", "--n", "3", "--mode", "mc",
          "--threads", "-2"],
         "--threads", "thread count must be >= 0, got -2"),
        (["wiretap", "--threads", "-1"],
         "--threads", "thread count must be >= 0, got -1"),
    ], ids=["osrb-alpha-negative", "osrb-n-reversed", "rates-alpha-not-a-number",
            "rates-alpha-empty-list", "osrb-exact-threads-negative",
            "osrb-mc-threads-negative", "wiretap-threads-negative"])
    def test_rejected_flag_reports_reason(self, files, capsys, argv, flag, reason):
        # argparse prints "argument <flag>: <reason>" on the last stderr
        # line, above it only the usage text
        source = "--config" if argv[0] == "wiretap" else "--joint"
        argv = argv[:1] + [source, path(files, "flip.json")] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert last.endswith(f"error: argument {flag}: {reason}")
        assert last.count(flag) == 1
        assert "_parse_" not in err and "parse_n_range" not in err


RATES_CSV = (
    "task,encoder,alpha,value_bits,flags\n"
    "secrecy,deterministic,1,0.412295305641,\n"
    "secrecy,deterministic,2,0.316879601058,\n"
    "secrecy,deterministic,inf,0.0455775792405,\n"
)


class TestRates:
    def test_secrecy_csv_bytes(self, files, capsys):
        out = path(files, "rates.csv")
        rc = main(["rates", "--task", "secrecy", "--encoder", "deterministic",
                   "--alpha", "1,2,inf", "--input", path(files, "half.json"),
                   "--main", path(files, "main.json"),
                   "--eve", path(files, "eve.json"), "--out", out])
        assert rc == 0
        with open(out) as fh:
            assert fh.read() == RATES_CSV
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].endswith("alpha=inf value=0.0455775792405")

    def test_negative_rate_warns_on_stderr(self, files, capsys):
        rc = main(["rates", "--task", "secrecy", "--encoder", "deterministic",
                   "--alpha", "2", "--input", path(files, "half.json"),
                   "--main", path(files, "eve.json"),
                   "--eve", path(files, "main.json")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "negative" in captured.err
        assert "[negative_rate]" in captured.out

    def test_threshold_needs_joint(self, files, capsys):
        rc = main(["rates", "--task", "threshold", "--encoder", "iid",
                   "--alpha", "2"])
        assert rc == 2
        assert "--joint" in capsys.readouterr().err

    def test_threshold_iid_value(self, files, capsys):
        rc = main(["rates", "--task", "threshold", "--encoder", "iid",
                   "--alpha", "2", "--joint", path(files, "flip.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "value=0.678071905113" in out

    @pytest.mark.parametrize("alpha,code,out", [
        ("1.000000000001", 2, ""),
        ("1.0000000001", 2, ""),
        ("1.00000001", 0, "task=threshold encoder=stochastic alpha=1.00000001 "
                          "value=0.915887962625\n"),
    ])
    def test_stochastic_threshold_order_one_window(self, files, capsys, alpha, code, out):
        # inside (1, 1 + 1e-9] the r' solve used to run at c = a/(a - 1)
        # near 10^12 and stop after 0 steps (0.91581291822)
        Pmf(("u0", "u1"), (0.4, 0.6)).save(files / "pu.json")
        Channel(("u0", "u1"), ("a", "b"), [[0.9, 0.1], [0.2, 0.8]]).save(files / "chxu.json")
        rc = main(["rates", "--task", "threshold", "--encoder", "stochastic",
                   "--alpha", alpha, "--pu", path(files, "pu.json"),
                   "--chxu", path(files, "chxu.json"), "--eve", path(files, "eve.json")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (code, out)
        if code == 2:
            assert captured.err == "error: r_prime needs order > 1 or INFINITY\n"

    def test_stochastic_guard_exit_code(self, files, capsys):
        labels = tuple(f"u{i}" for i in range(9))
        Pmf.uniform(labels).save(files / "big.json")
        Channel(labels, ("a", "b"), np.full((9, 2), 0.5)).save(files / "bigch.json")
        rc = main(["rates", "--task", "threshold", "--encoder", "stochastic",
                   "--alpha", "2", "--pu", path(files, "big.json"),
                   "--chxu", path(files, "bigch.json"),
                   "--eve", path(files, "eve.json")])
        assert rc == 3

    @pytest.mark.parametrize("encoder", ["bogus", "iid", "typical"])
    def test_secrecy_rejects_other_encoders(self, files, capsys, encoder):
        # secrecy takes deterministic (the default) or stochastic; any other
        # encoder used to run the deterministic branch and exit 0
        rc = main(["rates", "--task", "secrecy", "--encoder", encoder, "--alpha", "2",
                   "--input", path(files, "half.json"), "--main", path(files, "main.json"),
                   "--eve", path(files, "eve.json")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"error: unknown encoder {encoder!r}\n"

    @pytest.mark.parametrize("task,encoder,flags", [
        ("threshold", None, {"joint": "flip.json"}),
        ("threshold", "typical", {"input": "half.json", "eve": "eve.json"}),
        ("threshold", "stochastic", {"pu": "pu.json", "chxu": "chxu.json", "eve": "eve.json"}),
        ("secrecy", None, {"input": "half.json", "main": "main.json", "eve": "eve.json"}),
        ("secrecy", "deterministic", {"input": "half.json", "main": "eve.json",
                                      "eve": "eve.json"}),
        ("secrecy", "stochastic", {"pu": "pu.json", "chxu": "chxu.json",
                                   "main": "main.json", "eve": "eve.json"}),
    ])
    def test_each_input_file_loaded_once(self, files, capsys, monkeypatch, task, encoder, flags):
        # three orders, one read of each distinct input file
        Pmf(("u0", "u1"), (0.4, 0.6)).save(files / "pu.json")
        Channel(("u0", "u1"), ("a", "b"), [[0.9, 0.1], [0.2, 0.8]]).save(files / "chxu.json")
        opened = []
        load = measures._JsonForm.load.__func__

        def counted(cls, file):
            opened.append(str(file))
            return load(cls, file)

        monkeypatch.setattr(measures._JsonForm, "load", classmethod(counted))
        argv = ["rates", "--task", task, "--alpha", "2,4,inf"]
        if encoder is not None:
            argv += ["--encoder", encoder]
        for flag, name in flags.items():
            argv += [f"--{flag}", path(files, name)]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert sorted(opened) == sorted({path(files, name) for name in flags.values()})


# One interpreter runs a sequence of commands through one parser; each must
# give what it gives in a fresh interpreter.  Prints, per argv, the exit
# code, stdout, stderr and the bytes of the record file ("" if none).
SEQUENCE_RUNNER = """
import contextlib, io, json, os, sys
from osrb_lab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    record = ""
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1]) as fh:
            record = fh.read()
        os.unlink(argv[argv.index("--out") + 1])
    results.append([code, out.getvalue(), err.getvalue(), record])
print(json.dumps(results))
"""


class TestZeroValues:
    def test_zero_values_print_without_sign(self, files, capsys):
        # H_alpha(X|Z) = 0 on a noiseless joint, a point-mass input, and a
        # pmf pair one ulp apart at order 0.5 used to print -0
        JointPmf(("x0", "x1"), ("z0", "z1"), [[0.5, 0.0], [0.0, 0.5]]).save(files / "diag.json")
        Pmf(("a", "b"), (0.5000000000000001, 0.4999999999999999)).save(files / "near.json")
        out = path(files, "zero.csv")
        runs = [
            ["rates", "--task", "threshold", "--alpha", "2,inf",
             "--joint", path(files, "diag.json"), "--out", out],
            ["rates", "--task", "threshold", "--encoder", "typical", "--alpha", "2,inf",
             "--input", path(files, "point.json"), "--eve", path(files, "eve.json")],
            ["rates", "--task", "secrecy", "--alpha", "2,inf", "--input", path(files, "point.json"),
             "--main", path(files, "main.json"), "--eve", path(files, "eve.json")],
        ] + [["measure", "--kind", kind, "--alpha", "0.5", "--p", path(files, "half.json"),
              "--q", path(files, "near.json")] for kind in ("renyi", "tsallis")]
        printed = []
        for argv in runs:
            assert main(argv) == 0
            printed += capsys.readouterr().out.splitlines()
        with open(out) as fh:
            records = fh.read()
        assert "-0" not in records and "-0" not in "\n".join(printed)
        assert records.splitlines()[1:] == ["threshold,iid_deterministic,2,0,",
                                            "threshold,iid_deterministic,inf,0,"]
        assert [line.split()[-1] for line in printed[:6]] == ["value=0"] * 6
        assert printed[6:] == ["0.000000", "0.000000"]

    def test_integer_orders_of_near_equal_pmfs_print_without_sign(self, files, capsys):
        # q moves p = (0.1, 0.2, 0.7) by an ulp or two: the power sum minus
        # one gave T_2 = -1.1e-16 and D_3 = -1.6e-16, printed as -0.000000;
        # the f-sum's terms are each nonnegative
        Pmf(("a", "b", "c"), (0.1, 0.2, 0.7)).save(files / "p.json")
        q = (0.10000000000000002, 0.2000000000000001, 0.7)
        Pmf(("a", "b", "c"), q).save(files / "q.json")
        assert Pmf.load(files / "q.json").probs.tolist() == list(q)
        for kind, alpha in (("tsallis", "2"), ("renyi", "3")):
            assert main(["measure", "--kind", kind, "--alpha", alpha,
                         "--p", path(files, "p.json"), "--q", path(files, "q.json")]) == 0
            assert capsys.readouterr().out == "0.000000\n"


class TestDivergenceFunnel:
    def test_osrb_and_wiretap_never_call_one_shot_divergences(self, files, capsys, monkeypatch):
        # enum, mc and the wiretap sweep score their tables with their own
        # divergence kernels: with binning's and wiretap's tsallis_raw and
        # d_infinity_raw raising, osrb in every mode and two small wiretap
        # sweeps print what they print unpatched
        JointPmf(("u0", "u1"), ("a", "b"), [[0.4, 0.1], [0.1, 0.4]]).save(files / "ux.json")
        osrb = ["osrb", "--joint", path(files, "flip.json"), "--rate", "0.5"]
        runs = [osrb + ["--mode", "exact", "--alpha", "2", "--n", "1..3"]]
        runs += [osrb + ["--mode", "enum", "--alpha", a, "--n", "1,2"]
                 for a in ("0.5", "1", "2", "inf")]
        runs += [osrb + ["--mode", "mc", "--alpha", a, "--n", "4", "--trials", "16"]
                 for a in ("0.5", "1", "2", "inf")]
        for encoder, alpha, source, eps in (("deterministic", 1, "half.json", 0.9),
                                            ("stochastic", "inf", "ux.json", 0.3)):
            doc = {"n": [3, 4], "r1": 0.25, "r2": 0.25, "alpha": alpha, "encoder": encoder,
                   "codes": 2, "seed": 5, "eps": eps, "source": source,
                   "main": "main.json", "eve": "eve.json"}
            cfg = files / f"{encoder}-cfg.json"
            cfg.write_text(json.dumps(doc))
            runs.append(["wiretap", "--config", str(cfg)])

        def printed():
            for argv in runs:
                assert main(argv) == 0
            return capsys.readouterr().out

        unpatched = printed()

        def one_shot(*args, **kwargs):
            raise AssertionError("one-shot divergence called")
        for module in (binning, wiretap):
            monkeypatch.setattr(module, "tsallis_raw", one_shot)
            monkeypatch.setattr(module, "d_infinity_raw", one_shot)
        assert printed() == unpatched
        assert unpatched.count("\n") == 3 + 8 + 4 + 8


class TestParserReuse:
    def test_command_sequence_matches_fresh_interpreters(self, files):
        Pmf(("u0", "u1"), (0.4, 0.6)).save(files / "pu.json")
        Channel(("u0", "u1"), ("a", "b"), [[0.9, 0.1], [0.2, 0.8]]).save(files / "chxu.json")
        (files / "cfg.json").write_text(json.dumps(
            {"n": [3], "r1": 0.25, "r2": 0.25, "alpha": 2, "encoder": "deterministic",
             "codes": 2, "seed": 5, "eps": 0.9, "source": "half.json",
             "main": "main.json", "eve": "eve.json"}))
        sequence = [
            ["osrb", "--joint", "flip.json", "--alpha", "2", "--rate", "0.5", "--n", "2..4",
             "--out", "osrb.csv"],
            ["osrb", "--joint", "flip.json", "--alpha", "-1", "--rate", "0.5", "--n", "2"],
            ["rates", "--task", "secrecy", "--encoder", "stochastic", "--alpha", "2,inf",
             "--pu", "pu.json", "--chxu", "chxu.json", "--main", "main.json",
             "--eve", "eve.json", "--out", "rates.json", "--format", "json"],
            ["wiretap", "--config", "cfg.json", "--out", "wiretap.csv"],
            # no --encoder: the threshold default, not the previous call's value
            ["rates", "--task", "threshold", "--alpha", "1,inf", "--joint", "flip.json",
             "--out", "rates.csv"],
        ]

        def run(argvs):
            proc = run_capped([json.dumps(argvs)], cwd=files, timeout=60, code=SEQUENCE_RUNNER)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        together = run(sequence)
        fresh = [run([argv])[0] for argv in sequence]
        assert together == fresh
        assert [code for code, *_ in together] == [0, 2, 0, 0, 0]
        assert "argument --alpha" in together[1][2]
        assert "encoder=iid_deterministic" in together[4][1]


WIRETAP_STDOUT = {
    "deterministic": (
        "n=3 code_seed=15476879416711232510 f_star=1 leakage=0.2112 error=0.14 discards=1\n"
        "n=3 code_seed=10963955955182814549 f_star=2 leakage=0.2704 error=0.11 discards=2\n"
        "n=3 code_seed=1518456133078490432 f_star=2 leakage=0.2479744 error=0.1126 discards=2\n"
        "n=4 code_seed=14357266950977562564 f_star=1 leakage=0.231174948571 "
        "error=0.134285714286 discards=0\n"
        "n=4 code_seed=3962987195635214537 f_star=1 leakage=0.123584512 error=0.14 discards=0\n"
        "n=4 code_seed=9448182812297920148 f_star=2 leakage=0.14448384 error=0.184 discards=0\n"
    ),
    "stochastic": (
        "n=3 code_seed=6133937576094328181 f_star=1 leakage=0.39113420257 "
        "error=0.3224 discards=3\n"
        "n=3 code_seed=973833627706693418 f_star=2 leakage=0.92273980404 "
        "error=0.2093 discards=3\n"
        "n=4 code_seed=9193015089428196706 f_star=1 leakage=1.18019095647 "
        "error=0.147553199631 discards=0\n"
        "n=4 code_seed=14784408498195538204 f_star=2 leakage=0.450707257303 "
        "error=0.390072344086 discards=0\n"
    ),
}


class TestWiretapCommand:
    def test_sweep_csv_and_thread_invariance(self, files, capsys):
        Pmf(("a", "b"), (0.6, 0.4)).save(files / "wsrc.json")
        doc = {"n": [3, 4], "r1": 0.25, "r2": 0.25, "alpha": 2,
               "encoder": "deterministic", "codes": 2, "seed": 5, "eps": 0.9,
               "source": "wsrc.json", "main": "main.json", "eve": "eve.json"}
        cfg = files / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out1 = path(files, "w1.csv")
        out3 = path(files, "w3.csv")
        assert main(["wiretap", "--config", str(cfg), "--threads", "1",
                     "--out", out1]) == 0
        assert main(["wiretap", "--config", str(cfg), "--threads", "3",
                     "--out", out3]) == 0
        with open(out1) as fa, open(out3) as fb:
            text = fa.read()
            assert text == fb.read()
        lines = text.splitlines()
        assert lines[0] == "n,r1,r2,alpha,encoder,code_seed,f_star,leakage,error_prob,discards"
        assert len(lines) == 5
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 8
        assert all("leakage=" in ln for ln in printed[:4])

    def test_independent_eavesdropper_at_infinite_order(self, files, capsys):
        # BSC(0.5) leaks nothing; D_inf rounding used to come back as a
        # negative leakage that the record check rejected with exit 2
        Channel.bsc(0.5, ("a", "b")).save(files / "flat.json")
        doc = {"n": [4], "r1": 0, "r2": 0.25, "alpha": "inf",
               "encoder": "deterministic", "codes": 1, "seed": 0, "eps": 0.9,
               "source": "half.json", "main": "main.json", "eve": "flat.json"}
        cfg = files / "flat-cfg.json"
        cfg.write_text(json.dumps(doc))
        out = path(files, "flat.csv")
        assert main(["wiretap", "--config", str(cfg), "--out", out]) == 0
        (rec,) = read_csv(out)
        assert 0.0 <= float(rec["leakage"]) < 1e-12

    def test_exact_dither_tie_goes_to_lowest_f(self, files, capsys):
        # with an independent eavesdropper and one message every dither
        # scores 0 in exact arithmetic, so the lowest f must win whatever
        # rounding residue the scores carry
        Channel.bsc(0.5, ("a", "b")).save(files / "flat.json")
        doc = {"n": [4], "r1": 0, "r2": 0.25, "alpha": "inf",
               "encoder": "deterministic", "codes": 1, "seed": 0, "eps": 0.9,
               "source": "half.json", "main": "main.json", "eve": "flat.json"}
        cfg = files / "tie-cfg.json"
        cfg.write_text(json.dumps(doc))
        out = path(files, "tie.csv")
        assert main(["wiretap", "--config", str(cfg), "--out", out]) == 0
        (rec,) = read_csv(out)
        assert rec["f_star"] == "1"
        assert float(rec["error_prob"]) == 0.0
        assert 0.0 <= float(rec["leakage"]) < 1e-12
        # residue within RESIDUE of zero is reported as exactly zero
        assert capsys.readouterr().out == (
            "n=4 code_seed=10202600533580206555 f_star=1 leakage=0 error=0 discards=0\n")

    @pytest.mark.parametrize("encoder", ["deterministic", "stochastic"])
    def test_stdout_is_pinned(self, files, capsys, encoder):
        JointPmf(("u0", "u1"), ("a", "b"), [[0.4, 0.1], [0.1, 0.4]]).save(files / "ux.json")
        doc = {"n": [3, 4], "r1": 0.25, "r2": 0.25, "alpha": 2,
               "encoder": encoder, "codes": 3, "seed": 5, "eps": 0.9,
               "source": "half.json", "main": "main.json", "eve": "eve.json"}
        if encoder == "stochastic":
            doc.update(alpha="inf", codes=2, seed=3, eps=0.3, source="ux.json")
        cfg = files / "pin-cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["wiretap", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == WIRETAP_STDOUT[encoder]

    @pytest.mark.parametrize("field,doc", [
        ("source", {"labels": ["a", "b"]}),
        ("main/eve", [[0.9, 0.1], [0.1, 0.9]]),
    ])
    def test_malformed_input_file_exits_2(self, files, capsys, field, doc):
        (files / "bad.json").write_text(json.dumps(doc))
        cfg_doc = {"n": [3], "r1": 0.25, "r2": 0.25, "alpha": 2,
                   "encoder": "deterministic", "codes": 1, "seed": 5, "eps": 0.9,
                   "source": "half.json", "main": "main.json", "eve": "eve.json"}
        cfg_doc["source" if field == "source" else "main"] = "bad.json"
        cfg = files / "bad-cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        rc = main(["wiretap", "--config", str(cfg)])
        assert rc == 2
        assert f"config field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("encoder,source,eps,message", [
        ("deterministic", "half.json", 0.9, "sequence alphabet 2^1000000000 exceeds guard"),
        ("stochastic", "ux.json", 0.3, "pair alphabet (2*2)^1000000000 exceeds guard"),
    ])
    def test_huge_blocklength_guard_exits_3_quickly(self, files, encoder, source, eps, message):
        JointPmf(("u0", "u1"), ("a", "b"), [[0.4, 0.1], [0.1, 0.4]]).save(files / "ux.json")
        doc = {"n": [1000000000], "r1": 0.25, "r2": 0.25, "alpha": 2, "encoder": encoder,
               "codes": 1, "seed": 5, "eps": eps, "source": source,
               "main": "main.json", "eve": "eve.json"}
        (files / "huge.json").write_text(json.dumps(doc))
        proc = run_capped(["wiretap", "--config", "huge.json"], cwd=files)
        assert proc.returncode == 3
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("rate,m", [(1.9, 2 ** 19), (3.2, 2 ** 32)])
    def test_cell_grid_guard_exits_3(self, files, rate, m):
        # 1,024 members binned into m x m cells: refused before the labels
        # are drawn, with no numpy allocation or overflow error
        doc = {"n": [10], "r1": rate, "r2": rate, "alpha": 2, "encoder": "deterministic",
               "codes": 1, "seed": 5, "eps": 0.9, "source": "half.json",
               "main": "main.json", "eve": "eve.json"}
        (files / "grid.json").write_text(json.dumps(doc))
        proc = run_capped(["wiretap", "--config", "grid.json"], cwd=files)
        assert proc.returncode == 3
        assert proc.stderr == f"error: bin grid m1 x m2 = {m} x {m} exceeds guard {2 ** 26}\n"
        assert proc.stdout == ""

    def test_sweeps_leave_numpy_ma_unimported(self, files):
        # a deterministic and a stochastic sweep in a fresh interpreter;
        # np.unique would import numpy.ma inside every pass
        JointPmf(("u0", "u1"), ("a", "b"), [[0.4, 0.1], [0.1, 0.4]]).save(files / "ux.json")
        configs = []
        for encoder, extra in (("deterministic", {"source": "half.json", "eps": 0.9}),
                               ("stochastic", {"source": "ux.json", "eps": 0.3})):
            doc = dict({"n": [3, 4], "r1": 0.25, "r2": 0.25, "alpha": 2, "encoder": encoder,
                        "codes": 2, "seed": 5, "main": "main.json", "eve": "eve.json"}, **extra)
            (files / f"{encoder}.json").write_text(json.dumps(doc))
            configs.append(f"{encoder}.json")
        code = ("import sys; from osrb_lab.cli import main; "
                "rcs = [main(['wiretap', '--config', c]) for c in sys.argv[1:]]; "
                "print(rcs, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(osrb_lab.__file__)))
        out = subprocess.run([sys.executable, "-c", code, *configs], env=env, cwd=files,
                             check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[0, 0] False"

    def test_missing_config(self, files, capsys):
        rc = main(["wiretap", "--config", path(files, "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_config_field_error_message(self, files, capsys):
        cfg = files / "bad.json"
        cfg.write_text(json.dumps({"n": [2], "r1": -1}))
        rc = main(["wiretap", "--config", str(cfg)])
        assert rc == 2
        assert "config field" in capsys.readouterr().err


class TestRecordFiles:
    def test_json_round_trip_with_infinities(self, tmp_path):
        records = [
            {"n": 4, "value": math.inf, "note": "top"},
            {"n": 5, "value": -math.inf, "note": "bottom"},
            {"n": 6, "value": 0.25, "note": "mid"},
        ]
        out = tmp_path / "records.json"
        emit_records_with_header(records, "json", out, ("n", "value", "note"))
        with open(out) as fh:
            text = fh.read()
        assert text == (
            '[\n  {\n    "n": 4,\n    "value": "inf",\n    "note": "top"\n  },\n'
            '  {\n    "n": 5,\n    "value": "-inf",\n    "note": "bottom"\n  },\n'
            '  {\n    "n": 6,\n    "value": 0.25,\n    "note": "mid"\n  }\n]\n')
        assert [rec["value"] for rec in json.loads(text)] == ["inf", "-inf", 0.25]

    def test_empty_csv_keeps_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_records_with_header([], "csv", out, OSRB_FIELDS)
        with open(out) as fh:
            assert fh.read() == "n,rate,alpha,m,trials,mean,stderr,seed\n"

    def test_csv_cells_recover_types(self, tmp_path):
        out = tmp_path / "cells.csv"
        emit_records_with_header([{"a": 3, "b": math.inf, "c": 1 / 3, "d": "x"}],
                                 "csv", out, ("a", "b", "c", "d"))
        with open(out) as fh:
            assert fh.read() == "a,b,c,d\n3,inf,0.333333333333,x\n"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "rec.csv"
        emit_records_with_header([{"a": 1}], "csv", out, ("a",))
        emit_records_with_header([{"a": 2}], "csv", out, ("a",))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.csv"]
        with open(out) as fh:
            assert fh.read() == "a\n2\n"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_records_with_header([{"a": 1}], "tsv", tmp_path / "x.tsv", ("a",))
