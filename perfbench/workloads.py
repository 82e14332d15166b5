"""Seeded inputs for the benchmark workloads.

``build(workload, seed, workdir, threads)`` writes the pmf, joint, channel
and sweep-config JSON files a workload needs into ``workdir`` and returns
its CLI jobs.  The program sees only those files and the argv; everything
a check needs to know about the inputs travels in ``Job.meta``.

Where a seeded choice would change how much work a job does, the input is
held fixed, so that wall time measures the code rather than the draw:

* the smoothing-channel solves of ``rates-optimizer`` run on fixed
  instances with a fixed start seed.  Which random starts stall at the
  iteration cap decides a solve's time: across random instances the pass
  time varied threefold, and across start seeds on fixed instances by
  +-20%.  The seed draws the closed-form rows' laws instead;
* the wiretap source laws and channels are fixed (typical-set sizes follow
  the source law); the seed reaches the program as the sweep ``seed``,
  which draws every code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("osrb-sweep", "rates-optimizer", "wiretap-shared", "wiretap-single")

# Pinned joint of the acceptance suite: X uniform, Z a 0.25-flip of X.
FLIP = [[0.375, 0.125], [0.125, 0.375]]

# Blocklengths 1..320 at a stride that grows with n: every n of the
# enumeration range, then the large-n region where the partition formula
# loses precision.
EXACT_N = list(range(1, 17)) + [20, 24, 32, 40, 48, 64, 80, 96, 128, 160, 192, 256, 320]
EXACT_RATE = 0.3          # below every threshold of FLIP; enum stays at m = 2
MC_CELLS = (              # (n, rate, alpha): m = 8 and m = 132
    (10, 0.3, "2"), (10, 0.3, "inf"), (8, 0.88, "2"), (8, 0.88, "inf"))
MC_TRIALS = 256
RATE_ALPHAS = "1.5,2,4,inf"
CRITERION6_SEED = 314     # instance generator of acceptance criterion 6
OPTIMIZER_SEED = "0"      # random starts of every smoothing-channel solve

BSC_MAIN, BSC_EVE = 0.1, 0.3
# (U, X) joint of the stochastic wiretap encoder; dyadic, so it loads exactly.
UX_JOINT = [[0.3125, 0.125], [0.1875, 0.375]]


@dataclass
class Job:
    """One CLI invocation: argv for ``osrb_lab.cli.main`` plus check data."""

    name: str
    kind: str                 # exact | enum | mc | rates | wiretap
    argv: list
    out: str
    meta: dict = field(default_factory=dict)
    threaded: bool = False    # takes --threads; re-run at 1 thread when traced


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _sub_seed(seed: int, tag: int) -> int:
    return int(_rng(seed, tag).integers(0, 2 ** 31))


def _dyadic_joint(rng, rows: int, cols: int, scale: int = 2 ** 16) -> list:
    """Random joint whose entries are multiples of 1/scale summing to one."""
    w = rng.dirichlet([2.0] * (rows * cols))
    counts = np.maximum(1, np.floor(w * scale).astype(np.int64))
    counts[np.argmax(counts)] += scale - counts.sum()
    return (counts / scale).reshape(rows, cols).tolist()


def _write(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _joint_doc(probs, rows, cols) -> dict:
    return {"row_labels": list(rows), "col_labels": list(cols),
            "probs": [[float(v) for v in r] for r in probs]}


def _pmf_doc(probs, labels) -> dict:
    return {"labels": list(labels), "probs": [float(v) for v in probs]}


def _bsc(p: float) -> list:
    return [[1.0 - p, p], [p, 1.0 - p]]


def _labels(prefix: str, k: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(k))


def _osrb_jobs(seed: int, d: str, threads: int) -> list[Job]:
    j3 = _dyadic_joint(_rng(seed, 1), 3, 2)
    joints = {"flip": FLIP, "j3": j3}
    paths = {k: _write(os.path.join(d, f"{k}.json"),
                       _joint_doc(v, _labels("x", len(v)), _labels("z", 2)))
             for k, v in joints.items()}
    n_list = ",".join(str(n) for n in EXACT_N)
    mc_seed = _sub_seed(seed, 2)
    jobs = []

    def osrb(name, kind, joint, alpha, rate, n, extra=(), **meta):
        out = os.path.join(d, f"{name}.json")
        argv = ["osrb", "--joint", paths[joint], "--alpha", alpha, "--rate", str(rate),
                "--n", n, "--mode", kind, "--out", out, "--format", "json", *extra]
        jobs.append(Job(name, kind, argv, out,
                        dict(joint=joints[joint], alpha=alpha, rate=rate, **meta),
                        threaded=kind == "mc"))

    for joint in ("flip", "j3"):
        for alpha in ("2", "3", "4", "5"):
            osrb(f"exact-{joint}-a{alpha}", "exact", joint, alpha, EXACT_RATE, n_list)
    osrb("enum-flip-a2", "enum", "flip", "2", EXACT_RATE, "1..3", exact_job="exact-flip-a2")
    osrb("enum-j3-a3", "enum", "j3", "3", EXACT_RATE, "1..2", exact_job="exact-j3-a3")
    for n, rate, alpha in MC_CELLS:
        osrb(f"mc-n{n}-a{alpha}", "mc", "flip", alpha, rate, str(n),
             ("--trials", str(MC_TRIALS), "--seed", str(mc_seed), "--threads", str(threads)))
    return jobs


def _instance(rng, k: int):
    """Smoothing-channel instance drawn as in acceptance criterion 6."""
    pu = rng.dirichlet([2.5] * k)
    cxu = rng.dirichlet([2.5] * k, size=k)
    czx = rng.dirichlet([2.5] * k, size=k)
    return pu, cxu, czx


def _rates_jobs(seed: int, d: str) -> list[Job]:
    fixed = np.random.default_rng(CRITERION6_SEED)
    binary = [_instance(fixed, 2) for _ in range(3)]
    ternary = _instance(fixed, 3)
    main = np.asarray(_bsc(0.05))
    jobs = []

    def files(tag, pu, cxu, czx):
        k = len(pu)
        u, x, z = _labels("u", k), _labels("x", k), _labels("z", k)
        return {
            "pu": _write(os.path.join(d, f"{tag}-pu.json"), _pmf_doc(pu, u)),
            "chxu": _write(os.path.join(d, f"{tag}-chxu.json"), _joint_doc(cxu, u, x)),
            "eve": _write(os.path.join(d, f"{tag}-eve.json"), _joint_doc(czx, x, z)),
        }

    def rates(name, task, encoder, alphas, flags, **meta):
        out = os.path.join(d, f"{name}.json")
        argv = ["rates", "--task", task, "--encoder", encoder, "--alpha", alphas]
        for flag, path in flags.items():
            argv += [f"--{flag}", path]
        argv += ["--seed", OPTIMIZER_SEED, "--out", out, "--format", "json"]
        jobs.append(Job(name, "rates", argv, out, dict(task=task, encoder=encoder, **meta)))

    for i, (pu, cxu, czx) in enumerate(binary[:2]):
        rates(f"threshold-stochastic-b{i}", "threshold", "stochastic", RATE_ALPHAS,
              files(f"b{i}", pu, cxu, czx), pu=pu, cxu=cxu, czx=czx)
    pu, cxu, czx = binary[2]
    flags = files("b2", pu, cxu, czx)
    flags["main"] = _write(os.path.join(d, "b2-main.json"),
                           _joint_doc(main, _labels("x", 2), _labels("y", 2)))
    rates("secrecy-stochastic-b2", "secrecy", "stochastic", RATE_ALPHAS, flags,
          pu=pu, cxu=cxu, czx=czx, main=main)
    pu, cxu, czx = ternary
    rates("threshold-stochastic-t0", "threshold", "stochastic", "2",
          files("t0", pu, cxu, czx), pu=pu, cxu=cxu, czx=czx)

    # Closed-form rows on seeded laws: no optimizer, checked to 1e-9.
    rng = _rng(seed, 4)
    joint = _dyadic_joint(rng, 3, 2)
    jpath = _write(os.path.join(d, "iid-joint.json"),
                   _joint_doc(joint, _labels("x", 3), _labels("z", 2)))
    rates("threshold-iid", "threshold", "iid", "0.5,1,2,inf", {"joint": jpath},
          joint=joint)
    px = rng.dirichlet([3.0] * 3)
    ch = rng.dirichlet([3.0] * 2, size=3)
    ppath = _write(os.path.join(d, "typ-input.json"), _pmf_doc(px, _labels("x", 3)))
    cpath = _write(os.path.join(d, "typ-eve.json"),
                   _joint_doc(ch, _labels("x", 3), _labels("z", 2)))
    rates("threshold-typical", "threshold", "typical", "2,inf",
          {"input": ppath, "eve": cpath}, px=px, eve=ch)
    px = rng.dirichlet([3.0] * 2)
    ym, ye = _bsc(float(rng.uniform(0.02, 0.15))), _bsc(float(rng.uniform(0.2, 0.35)))
    labels = _labels("x", 2)
    flags = {
        "input": _write(os.path.join(d, "sec-input.json"), _pmf_doc(px, labels)),
        "main": _write(os.path.join(d, "sec-main.json"), _joint_doc(ym, labels, labels)),
        "eve": _write(os.path.join(d, "sec-eve.json"), _joint_doc(ye, labels, labels)),
    }
    rates("secrecy-deterministic", "secrecy", "deterministic", "0.5,1,2,inf", flags,
          px=px, main=np.asarray(ym), eve=np.asarray(ye))
    return jobs


def criterion8_rates() -> tuple[float, float, float]:
    """(r1 below, r1 above, r2) of acceptance criterion 8, in bits.

    With a uniform input, p(x|z) of a BSC is its row, so H_2(X|Z) and
    H(X|Y) are functions of the crossover probability alone.
    """
    q, p = BSC_EVE, BSC_MAIN
    h2 = -math.log2(q * q + (1 - q) * (1 - q))
    r2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p)) + 0.15
    return h2 - 0.15 - r2, h2 + 0.15 - r2, r2


def _wiretap_files(d: str) -> dict:
    ab = ("a", "b")
    return {
        "uniform": _write(os.path.join(d, "uniform.json"), _pmf_doc([0.5, 0.5], ab)),
        "ux": _write(os.path.join(d, "ux.json"), _joint_doc(UX_JOINT, ("u0", "u1"), ab)),
        "main": _write(os.path.join(d, "main.json"), _joint_doc(_bsc(BSC_MAIN), ab, ab)),
        "eve": _write(os.path.join(d, "eve.json"), _joint_doc(_bsc(BSC_EVE), ab, ab)),
    }


def _wiretap_job(name, d, threads, files, **cfg) -> Job:
    doc = dict(cfg, main=files["main"], eve=files["eve"])
    path = _write(os.path.join(d, f"{name}-config.json"), doc)
    out = os.path.join(d, f"{name}.json")
    argv = ["wiretap", "--config", path, "--threads", str(threads),
            "--out", out, "--format", "json"]
    meta = dict(cfg, main=_bsc(BSC_MAIN), eve=_bsc(BSC_EVE),
                source=[0.5, 0.5] if cfg["encoder"] == "deterministic" else UX_JOINT)
    return Job(name, "wiretap", argv, out, meta, threaded=True)


def _wiretap_shared_jobs(seed: int, d: str, threads: int) -> list[Job]:
    files = _wiretap_files(d)
    below, above, r2 = criterion8_rates()
    return [
        _wiretap_job(f"shared-{tag}", d, threads, files, n=[4, 6, 8, 10], r1=r1, r2=r2,
                     alpha=2, encoder="deterministic", codes=8,
                     seed=_sub_seed(seed, 5 + k), eps=0.6, source=files["uniform"])
        for k, (tag, r1) in enumerate((("below", below), ("above", above)))
    ]


def _wiretap_single_jobs(seed: int, d: str, threads: int) -> list[Job]:
    files = _wiretap_files(d)
    below, _, r2 = criterion8_rates()
    return [
        _wiretap_job("single-deterministic", d, threads, files, n=[4, 6, 8, 10, 11],
                     r1=below, r2=r2, alpha=2, encoder="deterministic", codes=1,
                     seed=_sub_seed(seed, 7), eps=0.6, source=files["uniform"]),
        _wiretap_job("single-stochastic", d, threads, files, n=[4, 5, 6, 7],
                     r1=0.2, r2=0.2, alpha="inf", encoder="stochastic", codes=1,
                     seed=_sub_seed(seed, 8), eps=0.3, source=files["ux"]),
    ]


def build(workload: str, seed: int, workdir: str, threads: int) -> list[Job]:
    """Write the workload's input files under workdir and return its jobs."""
    if workload == "osrb-sweep":
        return _osrb_jobs(seed, workdir, threads)
    if workload == "rates-optimizer":
        return _rates_jobs(seed, workdir)
    if workload == "wiretap-shared":
        return _wiretap_shared_jobs(seed, workdir, threads)
    if workload == "wiretap-single":
        return _wiretap_single_jobs(seed, workdir, threads)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
