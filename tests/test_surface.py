"""The names the benchmark's span tracer wraps from outside the package, and
the package's public names, stay importable."""

import importlib.util
from pathlib import Path

import osrb_lab

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = load_spans()
    names = [wrap[:2] for wrap in spans.WRAPS] + list(spans.POOLS)
    assert names
    missing = [name for name in names if spans._resolve(*name) is None]
    assert missing == []


def test_public_names_importable():
    missing = []
    for name in osrb_lab.__all__:
        try:
            exec(f"from osrb_lab import {name}", {})
        except ImportError:
            missing.append(name)
    assert missing == []
