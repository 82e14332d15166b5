"""Batch front-end: subcommands, config parsing, CSV/JSON emission.

Four subcommands: ``measure`` (single divergence values), ``osrb``
(binning divergence sweeps, exact or Monte Carlo), ``rates`` (thresholds
and secrecy rates), ``wiretap`` (coding sweeps from a JSON config).
Outputs are written atomically (temp file + rename) with LF endings and
floats at 12 significant digits; "inf" denotes the INFINITY order in
every flag, config and output cell.  Exit codes: 0 success, 2 validation
failure, 3 numeric guard violation.  All randomness flows from the
top-level --seed through labeled substreams, so results do not depend on
the machine's thread count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import binning, rates, wiretap
from .measures import (
    Channel,
    GuardError,
    JointPmf,
    Pmf,
    _atomic_write_text,
    check_alpha,
    d_infinity,
    kl_divergence,
    parse_alpha,
    renyi_divergence,
    total_variation,
    tsallis_divergence,
)

OSRB_FIELDS = ("n", "rate", "alpha", "m", "trials", "mean", "stderr", "seed")
RATES_FIELDS = ("task", "encoder", "alpha", "value_bits", "flags")

MEASURE_KINDS = ("tsallis", "renyi", "kl", "tv", "dinf")


class ValidationError(ValueError, argparse.ArgumentTypeError):
    """A config or flag problem; maps to exit code 2.  Raised in a
    ``type=`` function, argparse prints its message after the flag name."""


# ---------------------------------------------------------------------------
# Value formatting and record files


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.12g" % v
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def emit_records_with_header(records: list[dict], fmt: str, path, fieldnames) -> None:
    """Write records as CSV under the header ``fieldnames`` or as a JSON array.

    CSV columns follow ``fieldnames``, so an empty run still writes its
    header.  Floats use 12 significant digits in CSV and native JSON
    numbers otherwise; infinities render as "inf"/"-inf" in both.
    """
    if fmt == "json":
        doc = [{k: _jsonable(v) for k, v in rec.items()} for rec in records]
        _atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
        return
    if fmt != "csv":
        raise ValidationError(f"unknown output format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for rec in records:
        writer.writerow([_format_value(rec[k]) for k in fieldnames])
    _atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _load_pmf(path) -> Pmf:
    _require_file(path)
    return Pmf.load(path)


def _load_joint(path) -> JointPmf:
    _require_file(path)
    return JointPmf.load(path)


def _load_channel(path) -> Channel:
    _require_file(path)
    return Channel.load(path)


def _require_file(path) -> None:
    if not os.path.exists(path):
        raise ValidationError(f"input file not found: {path}")


def _parse_alpha_flag(text: str) -> float:
    try:
        return check_alpha(parse_alpha(text))
    except ValueError as exc:
        raise ValidationError(str(exc))


def _parse_alpha_list(text: str) -> list[float]:
    vals = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece:
            vals.append(_parse_alpha_flag(piece))
    if not vals:
        raise ValidationError("expected at least one order")
    return vals


def _parse_threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"invalid int value: {text!r}")
    if value < 0:
        raise ValidationError(f"thread count must be >= 0, got {value}")
    return value


def parse_n_range(text: str) -> list[int]:
    """Blocklength flag: "4", "2..12", or a comma list "2,4,8"."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if lo < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        if "," in text:
            vals = [int(p) for p in text.split(",") if p.strip()]
            if not vals or any(v < 1 for v in vals):
                raise ValueError
            return vals
        v = int(text)
        if v < 1:
            raise ValueError
        return [v]
    except ValueError:
        raise ValidationError(f"cannot parse blocklength range {text!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_measure(opts: dict) -> int:
    p = _load_pmf(opts["p"])
    q = _load_pmf(opts["q"])
    kind = opts["kind"]
    alpha = opts.get("alpha")
    if kind in ("tsallis", "renyi") and alpha is None:
        raise ValidationError(f"--alpha is required for kind {kind!r}")
    if kind == "tsallis":
        value = tsallis_divergence(p, q, alpha)
    elif kind == "renyi":
        value = renyi_divergence(p, q, alpha)
    elif kind == "kl":
        value = kl_divergence(p, q)
    elif kind == "tv":
        value = total_variation(p, q)
    elif kind == "dinf":
        value = d_infinity(p, q)
    else:
        raise ValidationError(f"unknown measure kind {kind!r}")
    print("%.6f" % value if math.isfinite(value) else _format_value(value))
    return 0


def _cmd_osrb(opts: dict) -> int:
    j = _load_joint(opts["joint"])
    alpha = opts["alpha"]
    rate = opts["rate"]
    if not 0.0 <= rate <= sys.float_info.max:  # also rejects NaN
        raise ValidationError("--rate must be a finite nonnegative number")
    ns = opts["n"]
    mode = opts["mode"]
    trials = opts["trials"]
    seed = opts["seed"]
    if trials < 1:
        raise ValidationError("--trials must be >= 1")
    records = []
    for n in ns:
        m = binning.m_from_rate(n, rate)
        if mode == "exact":
            mean = binning.expected_tsallis_exact_iid(j, n, m, alpha)
            stderr, used_trials = 0.0, 0
        elif mode == "enum":
            mean = binning.expected_divergence_enum(j, n, m, alpha)
            stderr, used_trials = 0.0, 0
        elif mode == "mc":
            mean, stderr = binning.expected_divergence_mc(j, n, rate, alpha, trials, seed)
            used_trials = trials
        else:
            raise ValidationError(f"unknown mode {mode!r}")
        rec = {
            "n": n, "rate": rate, "alpha": alpha, "m": m,
            "trials": used_trials, "mean": mean, "stderr": stderr,
            "seed": seed,
        }
        records.append(rec)
        print(f"n={n} m={m} mean={_format_value(mean)} stderr={_format_value(stderr)}")
    _maybe_emit(records, opts, OSRB_FIELDS)
    return 0


def _threshold_report(opts: dict, alpha: float, load) -> rates.RateReport:
    encoder = opts["encoder"]
    if encoder == "iid":
        if opts.get("joint") is None:
            raise ValidationError("--joint is required for the iid encoder")
        return rates.osrb_threshold_iid(load(_load_joint, opts["joint"]), alpha)
    if encoder == "typical":
        if opts.get("input") is None or opts.get("eve") is None:
            raise ValidationError("--input and --eve are required for the typical encoder")
        return rates.osrb_threshold_typical(
            load(_load_pmf, opts["input"]), load(_load_channel, opts["eve"]), alpha)
    if encoder == "stochastic":
        for flag in ("pu", "chxu", "eve"):
            if opts.get(flag) is None:
                raise ValidationError(f"--{flag} is required for the stochastic encoder")
        return rates.osrb_threshold_stochastic(
            load(_load_pmf, opts["pu"]), load(_load_channel, opts["chxu"]),
            load(_load_channel, opts["eve"]), alpha)
    raise ValidationError(f"unknown encoder {encoder!r}")


def _secrecy_report(opts: dict, alpha: float, load) -> rates.RateReport:
    encoder = opts["encoder"]
    if encoder not in ("deterministic", "stochastic"):
        raise ValidationError(f"unknown encoder {encoder!r}")
    if opts.get("main") is None or opts.get("eve") is None:
        raise ValidationError("--main and --eve are required for secrecy rates")
    main = load(_load_channel, opts["main"])
    eve = load(_load_channel, opts["eve"])
    if encoder == "stochastic":
        for flag in ("pu", "chxu"):
            if opts.get(flag) is None:
                raise ValidationError(f"--{flag} is required for the stochastic encoder")
        source = (load(_load_pmf, opts["pu"]), load(_load_channel, opts["chxu"]))
        return rates.secrecy_rate(main, eve, source, alpha, encoder="stochastic")
    if opts.get("input") is None:
        raise ValidationError("--input is required for the deterministic encoder")
    return rates.secrecy_rate(main, eve, load(_load_pmf, opts["input"]), alpha)


def _cmd_rates(opts: dict) -> int:
    """One record per order; each input file is loaded once per command,
    at the first order that needs it, so errors surface in the same order
    as when every order loaded its own inputs."""
    task = opts["task"]
    if task == "threshold":
        report_at, default_encoder = _threshold_report, "iid"
    elif task == "secrecy":
        report_at, default_encoder = _secrecy_report, "deterministic"
    else:
        raise ValidationError(f"unknown task {task!r}")
    if opts.get("encoder") is None:
        opts = dict(opts, encoder=default_encoder)
    # load(loader, path) calls each loader once per path in this command;
    # the loaded types are immutable, so the orders can share them
    load = functools.cache(lambda loader, path: loader(path))
    records = []
    for alpha in opts["alphas"]:
        report = report_at(opts, alpha, load)
        flags = "|".join(report.flags)
        records.append({
            "task": task, "encoder": report.encoder,
            "alpha": alpha, "value_bits": report.rate_bits, "flags": flags,
        })
        line = (f"task={task} encoder={report.encoder} "
                f"alpha={_format_value(alpha)} value={_format_value(report.rate_bits)}")
        if flags:
            line += f" [{flags}]"
        print(line)
        if "negative_rate" in report.flags:
            print("warning: computed rate is negative (no positive rate "
                  "is claimed at this order)", file=sys.stderr)
    _maybe_emit(records, opts, RATES_FIELDS)
    return 0


def _cmd_wiretap(opts: dict) -> int:
    _require_file(opts["config"])
    config = wiretap.SweepConfig.from_json(opts["config"])
    records = wiretap.sweep_experiment(config)
    rows = [rec.to_row() for rec in records]
    for rec in rows:
        print(f"n={rec['n']} code_seed={rec['code_seed']} f_star={rec['f_star']} "
              f"leakage={_format_value(rec['leakage'])} "
              f"error={_format_value(rec['error_prob'])} discards={rec['discards']}")
    _maybe_emit(rows, opts, wiretap.RECORD_FIELDS)
    return 0


def _maybe_emit(records: list[dict], opts: dict, fieldnames) -> None:
    path = opts.get("out")
    if path is None:
        return
    emit_records_with_header(records, opts.get("format", "csv"), path, fieldnames)


# ---------------------------------------------------------------------------
# Parser assembly and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osrb-lab",
        description="Divergence measures, random-binning statistics, "
                    "rate thresholds and wiretap sweeps on finite alphabets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    m = sub.add_parser("measure", help="one divergence value between two pmf files")
    m.add_argument("--p", required=True, help="first pmf (JSON)")
    m.add_argument("--q", required=True, help="second pmf (JSON)")
    m.add_argument("--kind", choices=MEASURE_KINDS, default="tsallis")
    m.add_argument("--alpha", type=_parse_alpha_flag, default=None,
                   help="order (number or 'inf')")

    o = sub.add_parser("osrb", help="expected binning divergence over blocklengths")
    o.add_argument("--joint", required=True, help="joint pmf of (X, Z) (JSON)")
    o.add_argument("--alpha", type=_parse_alpha_flag, required=True)
    o.add_argument("--rate", type=float, required=True, help="bits per symbol")
    o.add_argument("--n", type=parse_n_range, required=True,
                   help="blocklengths: '4', '2..12', or '2,4,8'")
    o.add_argument("--mode", choices=("exact", "mc", "enum"), default="exact")
    o.add_argument("--trials", type=int, default=256)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--threads", type=_parse_threads, default=None,
                   help="accepted for compatibility; no osrb value depends on it")
    o.add_argument("--out", default=None)
    o.add_argument("--format", choices=("csv", "json"), default="csv")

    r = sub.add_parser("rates", help="rate thresholds and secrecy rates")
    r.add_argument("--task", choices=("threshold", "secrecy"), required=True)
    r.add_argument("--encoder", default=None,
                   help="threshold: iid (default)|typical|stochastic; "
                        "secrecy: deterministic (default)|stochastic")
    r.add_argument("--alpha", dest="alphas", type=_parse_alpha_list, required=True,
                   help="comma list of orders, e.g. '1,2,inf'")
    r.add_argument("--joint", default=None, help="joint pmf of (X, Z) (JSON)")
    r.add_argument("--input", default=None, help="input pmf (JSON)")
    r.add_argument("--pu", default=None, help="auxiliary pmf (JSON)")
    r.add_argument("--chxu", default=None, help="U->X channel (JSON)")
    r.add_argument("--main", default=None, help="main channel (JSON)")
    r.add_argument("--eve", default=None, help="eavesdropper channel (JSON)")
    r.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; no rates value depends on it")
    r.add_argument("--out", default=None)
    r.add_argument("--format", choices=("csv", "json"), default="csv")

    w = sub.add_parser("wiretap", help="wiretap coding sweep from a JSON config")
    w.add_argument("--config", required=True)
    w.add_argument("--threads", type=_parse_threads, default=None,
                   help="accepted for compatibility; no wiretap value depends on it")
    w.add_argument("--out", default=None)
    w.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def run(subcommand: str, options: dict) -> int:
    """Dispatch a subcommand with its options; returns the process exit code."""
    handlers = {
        "measure": _cmd_measure,
        "osrb": _cmd_osrb,
        "rates": _cmd_rates,
        "wiretap": _cmd_wiretap,
    }
    try:
        handler = handlers[subcommand]
    except KeyError:
        print(f"error: unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    try:
        return handler(options)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    opts = vars(args).copy()
    sub = opts.pop("subcommand")
    return run(sub, opts)


if __name__ == "__main__":
    sys.exit(main())
