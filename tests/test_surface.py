"""The names the benchmark's span tracer wraps from outside the package
stay importable and its attribute extractors keep working on them, and the
package's public names stay importable."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import osrb_lab
from osrb_lab import cli, wiretap
from osrb_lab.measures import Channel, JointPmf, Pmf
from osrb_lab.typicality import JointTypicalSet

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


def test_tracer_extractors_run_on_small_sweeps(tmp_path, capsys, monkeypatch):
    # one deterministic and one stochastic sweep through the CLI under the
    # tracer: no wrapped name is missing, no extractor fails, and every
    # likelihood span counts rows x 2^n cells.  Per n the eve rows are one
    # build over every member and the main rows one or two builds over the
    # members selection can score, recorded here.  A deterministic build
    # is one table over its members; a stochastic one is one table over
    # the union of the u members' x sets plus one reduction per u member
    # over its own x set
    builds = []

    def recording(source, ch, pos=None, out=None, union=None):
        builds.append((source, ch, pos))
        return likelihood_rows(source, ch, pos, out, union)

    likelihood_rows = wiretap._likelihood_rows
    monkeypatch.setattr(wiretap, "_likelihood_rows", recording)
    spans = load_spans()
    source = Pmf(("a", "b"), (0.6, 0.4))
    joint = JointPmf(("u0", "u1"), ("a", "b"), [[0.4, 0.1], [0.1, 0.4]])
    source.save(tmp_path / "src.json")
    joint.save(tmp_path / "ux.json")
    Channel.bsc(0.1, ("a", "b")).save(tmp_path / "main.json")
    Channel.bsc(0.3, ("a", "b")).save(tmp_path / "eve.json")
    sweeps = [("deterministic", "src.json", 0.9), ("stochastic", "ux.json", 0.3)]
    ns = [3, 4]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for encoder, path, eps in sweeps:
            doc = {"n": ns, "r1": 0.25, "r2": 0.25, "alpha": 2, "encoder": encoder,
                   "codes": 2, "seed": 5, "eps": eps, "source": path,
                   "main": "main.json", "eve": "eve.json"}
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            assert cli.main(["wiretap", "--config", str(tmp_path / "cfg.json"),
                             "--threads", "1"]) == 0
    finally:
        restored = tracer.uninstall()
    capsys.readouterr()
    assert restored
    assert tracer.missing == []
    assert tracer.attr_errors == []
    # eve is BSC(0.3) and main BSC(0.1)
    eve = [pos for _, ch, pos in builds if ch.rows[0, 0] == 0.7]
    main = [pos for _, ch, pos in builds if ch.rows[0, 0] == 0.9]
    assert len(eve) == 2 * len(ns) and all(pos is None for pos in eve)
    assert 2 * len(ns) <= len(main) <= 4 * len(ns) and all(pos.size for pos in main)
    want = []
    for ts, _, pos in builds:
        if isinstance(ts, JointTypicalSet):
            x_sets = ts.x_members if pos is None else [ts.x_members[i] for i in pos]
            union = np.unique(np.concatenate(x_sets)).size
            want += [union * 2 ** ts.n] + [xs.size * 2 ** ts.n for xs in x_sets]
        else:
            want.append((ts.size if pos is None else pos.size) * 2 ** ts.n)
    cells = [s["cells"] for s in tracer.spans if s["name"] == "typicality.likelihood"]
    assert sorted(cells) == sorted(want)
    assert spans.layer_metrics(tracer.spans)["typicality.likelihood.calls"] == len(want)


def test_public_names_importable():
    missing = []
    for name in osrb_lab.__all__:
        try:
            exec(f"from osrb_lab import {name}", {})
        except ImportError:
            missing.append(name)
    assert missing == []
