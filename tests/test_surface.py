"""The names the benchmark's span tracer wraps from outside the package
stay importable and its attribute extractors keep working on them, and the
package's public names stay importable."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import osrb_lab
from osrb_lab import cli
from osrb_lab.measures import Channel, JointPmf, Pmf
from osrb_lab.typicality import joint_typical_set, typical_set

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


def test_tracer_extractors_run_on_small_sweeps(tmp_path, capsys):
    # one deterministic and one stochastic sweep through the CLI under the
    # tracer: no wrapped name is missing, no extractor fails, and every
    # likelihood span counts rows x 2^n cells.  Per (n, channel) the
    # deterministic rows are one table over the typical members; the
    # stochastic ones are one table over the union of the u members' x
    # sets plus one reduction per u member over its own x set
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
    want = []
    for n in ns:
        # eve and main rows, each built once per n
        want += [typical_set(source, n, 0.9).size * 2 ** n] * 2
        x_members = joint_typical_set(joint, n, 0.3).x_members
        union = np.unique(np.concatenate(x_members)).size
        want += ([union * 2 ** n] + [xs.size * 2 ** n for xs in x_members]) * 2
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
