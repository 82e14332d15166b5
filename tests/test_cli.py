import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import osrb_lab
from osrb_lab.cli import (
    OSRB_FIELDS,
    ValidationError,
    emit_records,
    emit_records_with_header,
    load_records,
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
    return tmp_path


def path(base, name):
    return str(base / name)


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
        rows_a = load_records(out_a)
        rows_b = load_records(out_b)
        for ra, rb in zip(rows_a, rows_b):
            assert ra["mean"] == pytest.approx(rb["mean"], rel=1e-9)

    def test_mc_reports_spread_and_thread_invariance(self, files, capsys, monkeypatch):
        args = ["osrb", "--joint", path(files, "flip.json"), "--alpha", "2",
                "--rate", "0.5", "--n", "4", "--mode", "mc",
                "--trials", "64", "--seed", "9"]
        out1 = path(files, "mc1.csv")
        out3 = path(files, "mc3.csv")
        assert main(args + ["--threads", "1", "--out", out1]) == 0
        assert main(args + ["--threads", "3", "--out", out3]) == 0
        with open(out1) as fa, open(out3) as fb:
            assert fa.read() == fb.read()
        rec = load_records(out1)[0]
        assert rec["stderr"] > 0.0
        assert rec["trials"] == 64
        monkeypatch.setenv("OSRB_LAB_THREADS", "2")
        out_env = path(files, "mcenv.csv")
        assert main(args + ["--out", out_env]) == 0
        with open(out1) as fa, open(out_env) as fb:
            assert fa.read() == fb.read()

    def test_fractional_order_rejected_for_exact_mode(self, files, capsys):
        rc = main(["osrb", "--joint", path(files, "flip.json"),
                   "--alpha", "2.5", "--rate", "0.5", "--n", "3",
                   "--mode", "exact"])
        assert rc == 2

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

    def test_n_range_parsing(self):
        assert parse_n_range("4") == [4]
        assert parse_n_range("2..5") == [2, 3, 4, 5]
        assert parse_n_range("2,4,8") == [2, 4, 8]
        for bad in ("0", "5..2", "x", "1,0"):
            with pytest.raises(ValidationError):
                parse_n_range(bad)


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

    def test_stochastic_guard_exit_code(self, files, capsys):
        labels = tuple(f"u{i}" for i in range(9))
        Pmf.uniform(labels).save(files / "big.json")
        Channel(labels, ("a", "b"), np.full((9, 2), 0.5)).save(files / "bigch.json")
        rc = main(["rates", "--task", "threshold", "--encoder", "stochastic",
                   "--alpha", "2", "--pu", path(files, "big.json"),
                   "--chxu", path(files, "bigch.json"),
                   "--eve", path(files, "eve.json")])
        assert rc == 3


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
        emit_records(records, "json", out)
        assert load_records(out) == records

    def test_empty_csv_keeps_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_records_with_header([], "csv", out, OSRB_FIELDS)
        with open(out) as fh:
            assert fh.read() == "n,rate,alpha,m,trials,mean,stderr,seed\n"
        assert load_records(out) == []

    def test_csv_cells_recover_types(self, tmp_path):
        out = tmp_path / "cells.csv"
        emit_records([{"a": 3, "b": math.inf, "c": 0.5, "d": "x"}], "csv", out)
        rec = load_records(out)[0]
        assert rec == {"a": 3, "b": math.inf, "c": 0.5, "d": "x"}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "rec.csv"
        emit_records([{"a": 1}], "csv", out)
        emit_records([{"a": 2}], "csv", out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.csv"]
        assert load_records(out) == [{"a": 2}]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_records([{"a": 1}], "tsv", tmp_path / "x.tsv")
