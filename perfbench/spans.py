"""Span tracing of osrb_lab from outside the package.

``Tracer.install()`` replaces names that one module of the package calls
in another (and the CLI's calls into each module) with wrappers that
record a span per call: name, start, end, parent span, thread and phase,
plus a few size attributes taken from the arguments or the result after
the clock has stopped.  ``uninstall()`` puts every original object back.
A name that no longer exists is listed in ``missing`` and skipped.

Spans stay in memory; the pass runner returns them to the parent, which
derives the per-layer metrics with ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time


# Size attributes of a span, from the call's bound arguments and its result.
# binning.mc cells are computed: trials x |X|^n x |Z|^n.

def _mc_cells(a, result):
    j = a["j"]
    nx, nz = j.shape
    return {"cells": int(a["trials"]) * nx ** int(a["n"]) * nz ** int(a["n"])}


def _kernel_cells(a, result):
    xs, _ = a["jts"].conditional(a["u_seq"])
    return {"cells": int(xs.size) * int(result.size)}


def _dither_fill(a, result):
    code = a["code"]
    return {"populated": len(set(code.f_label.tolist())), "m2": int(code.m2)}


def _rate_report(a, result):
    trace = result.optimizer_trace
    if trace is None:
        return {"solve": False}
    return {"solve": True, "converged": bool(trace.get("converged"))}


def _probs_bytes(a, result):
    return {"bytes": int(result.probs.nbytes)}


def _code_discards(a, result):
    return {"discards": int(result.discards)}


def _set_members(a, result):
    return {"members": int(result.size)}


def _lik_cells(a, result):
    return {"cells": int(a["in_digits"].shape[0]) * int(a["out_count"])}


# (owner, attribute, span name, attribute extractor)
WRAPS = (
    ("osrb_lab.cli", "main", "cli.main", None),
    ("osrb_lab.cli", "_load_pmf", "cli.load", None),
    ("osrb_lab.cli", "_load_joint", "cli.load", None),
    ("osrb_lab.cli", "_load_channel", "cli.load", None),
    ("osrb_lab.wiretap", "SweepConfig.from_json", "cli.load", None),
    ("osrb_lab.cli", "emit_records_with_header", "cli.emit", None),
    ("osrb_lab.binning", "expected_tsallis_exact_iid", "binning.exact", None),
    ("osrb_lab.binning", "expected_divergence_enum", "binning.enum", None),
    ("osrb_lab.binning", "expected_divergence_mc", "binning.mc", _mc_cells),
    ("osrb_lab.measures", "JointPmf.product_power", "measures.product_power", _probs_bytes),
    ("osrb_lab.binning", "tsallis_raw", "measures.divergence", None),
    ("osrb_lab.binning", "d_infinity_raw", "measures.divergence", None),
    ("osrb_lab.wiretap", "tsallis_raw", "measures.divergence", None),
    ("osrb_lab.wiretap", "d_infinity_raw", "measures.divergence", None),
    ("osrb_lab.rates", "osrb_threshold_iid", "rates.call", _rate_report),
    ("osrb_lab.rates", "osrb_threshold_typical", "rates.call", _rate_report),
    ("osrb_lab.rates", "osrb_threshold_stochastic", "rates.call", _rate_report),
    ("osrb_lab.rates", "secrecy_rate", "rates.call", _rate_report),
    ("osrb_lab.wiretap", "sweep_experiment", "wiretap.sweep", None),
    ("osrb_lab.wiretap", "build_code", "wiretap.build_code", _code_discards),
    ("osrb_lab.wiretap", "select_f", "wiretap.select_f", _dither_fill),
    ("osrb_lab.wiretap", "typical_set", "typicality.typical_set", _set_members),
    ("osrb_lab.wiretap", "joint_typical_set", "typicality.joint_typical_set", None),
    ("osrb_lab.wiretap", "_channel_log_likelihoods", "typicality.likelihood", _lik_cells),
    ("osrb_lab.wiretap", "s_kernel_row", "typicality.likelihood", _kernel_cells),
)

# Thread-pool helpers: not spans, but the wrapper hands the caller's span
# to the worker threads so that their spans get the right parent.
POOLS = (("osrb_lab.binning", "_map_indexed"), ("osrb_lab.wiretap", "_map_indexed"))


def _resolve(module: str, path: str):
    """(owner, attribute name, raw object) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Installs span wrappers and collects the spans they record."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.attr_errors: list[str] = []
        self.phase = "main"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for module, path, name, extractor in WRAPS:
            self._patch(module, path, lambda f, n=name, e=extractor: self._span_wrapper(f, n, e))
        for module, path in POOLS:
            self._patch(module, path, self._pool_wrapper)

    def uninstall(self) -> bool:
        """Restore every patched name; True when all originals are back."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        ok = all(vars(owner).get(attr) is raw for owner, attr, raw in self._patches)
        self._patches.clear()
        return ok

    def _patch(self, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _span_wrapper(self, func, name: str, extract):
        tracer = self
        signature = inspect.signature(func) if extract else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = {"id": next(tracer._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "thread": threading.get_ident(), "phase": tracer.phase}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    span.update(extract(bound.arguments, result))
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    tracer.attr_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def _pool_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(fn, count, threads):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None:
                return func(fn, count, threads)
            parent["threads"] = int(threads)

            def in_worker(i):
                local = tracer._stack()
                if local:
                    return fn(i)
                local.append(parent)
                try:
                    return fn(i)
                finally:
                    local.pop()

            return func(in_worker, count, threads)

        return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer values (name -> number) of one traced pass.

    Times sum span durations, so spans on pool threads add up as busy
    time.  ``self_s`` is a span's duration minus the union of its child
    spans' intervals.  Speed-ups compare the ``baseline`` phase (the same
    jobs at one thread) with the ``main`` phase.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def pick(name, phase="main", **where):
        return [s for s in spans if s["name"] == name and s["phase"] == phase
                and all(s.get(k) == v for k, v in where.items())]

    def busy(items):
        return sum(s["end"] - s["start"] for s in items)

    def self_time(items):
        return sum(s["end"] - s["start"] - _union_length(
            [(c["start"], c["end"]) for c in children.get(s["id"], ())], s["start"], s["end"])
            for s in items)

    def total(items, key):
        return sum(s.get(key, 0) for s in items)

    m = {}
    for name in ("measures.product_power", "measures.divergence", "binning.exact",
                 "binning.enum", "typicality.typical_set", "typicality.joint_typical_set",
                 "typicality.likelihood", "wiretap.build_code", "wiretap.select_f"):
        items = pick(name)
        m[f"{name}.calls"] = len(items)
        m[f"{name}.s"] = busy(items)
    m["measures.product_power.bytes_computed"] = total(pick("measures.product_power"), "bytes")
    m["typicality.typical_set.members"] = total(pick("typicality.typical_set"), "members")
    m["typicality.likelihood.cells_computed"] = total(pick("typicality.likelihood"), "cells")

    mc = pick("binning.mc")
    m["binning.mc.calls"] = len(mc)
    m["binning.mc.s"] = busy(mc)
    m["binning.mc.self_s"] = self_time(mc)
    m["binning.mc.cells"] = total(mc, "cells")
    m["binning.mc.cells_per_s"] = _ratio(m["binning.mc.cells"], m["binning.mc.s"])
    m["binning.mc.threads"] = max((s.get("threads", 1) for s in mc), default=0)
    m["binning.mc.thread_speedup"] = _ratio(busy(pick("binning.mc", "baseline")), busy(mc))

    solves = pick("rates.call", solve=True)
    m["rates.solve.calls"] = len(solves)
    m["rates.solve.s"] = busy(solves)
    m["rates.solve.p50_s"] = (statistics.median(s["end"] - s["start"] for s in solves)
                              if solves else 0.0)
    m["rates.converged_ratio"] = _ratio(len(pick("rates.call", solve=True, converged=True)),
                                        len(solves))

    codes = pick("wiretap.build_code")
    m["wiretap.code_accept_ratio"] = _ratio(len(codes), len(codes) + total(codes, "discards"))
    sel = pick("wiretap.select_f")
    m["wiretap.select_f.self_s"] = self_time(sel)
    m["wiretap.dither_fill_ratio"] = _ratio(total(sel, "populated"), total(sel, "m2"))
    m["wiretap.thread_speedup"] = _ratio(busy(pick("wiretap.sweep", "baseline")),
                                         busy(pick("wiretap.sweep")))

    m["cli.load.s"] = busy(pick("cli.load"))
    m["cli.emit.s"] = busy(pick("cli.emit"))
    return m
