"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test evaluates every sub-condition of its criterion, prints a single
[PASS]/[FAIL] line on the real terminal (bypassing capture), then asserts.
A failing criterion therefore stays visible in the summary while the
verdict lines give the one-look overview.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from helpers import order_two_transition_problems, random_joint, random_pmf
from osrb_lab import binning, cli, rates
from osrb_lab.binning import derive_seed
from osrb_lab.measures import (
    Channel,
    JointPmf,
    Pmf,
    cond_renyi_entropy,
    conditional_entropy,
    is_singleton,
    mutual_information,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    total_variation,
    tsallis_divergence,
)
from osrb_lab.typicality import typical_set
from osrb_lab.wiretap import MAX_ATTEMPTS, build_code, select_f

ALPHAS = (0.5, 0.9, 1.1, 2.0, 3.0, 8.0)

FLIP = JointPmf(("x0", "x1"), ("z0", "z1"),
                np.array([[0.75, 0.25], [0.25, 0.75]]) * 0.5)
MAIN = Channel.bsc(0.1, ("a", "b"))
EVE = Channel.bsc(0.3, ("a", "b"))
UNIFORM2 = Pmf.uniform(["a", "b"])


def verdict(capsys, num, desc, problems, elapsed, limit):
    if elapsed >= limit:
        problems.append(f"runtime {elapsed:.1f}s exceeds {limit:.0f}s")
    ok = not problems
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} "
              f"({elapsed:.1f}s)")
    assert ok, f"criterion {num}: " + "; ".join(problems[:6])


def corpus_joints(count=100, seed=101):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nx = int(rng.integers(2, 4))
        nz = int(rng.integers(2, 4))
        out.append(random_joint(rng, nx, nz))
    return out


def test_criterion_01(capsys):
    t0 = time.time()
    problems = []
    for i, j in enumerate(corpus_joints()):
        for m in (2, 3):
            for a in (2, 3, 4):
                exact = binning.expected_tsallis_exact_iid(j, 1, m, a)
                enum = binning.expected_divergence_enum(j, m, a)
                if abs(exact - enum) > 1e-10 * max(1.0, abs(enum)):
                    problems.append(
                        f"joint {i} m={m} a={a}: {exact!r} vs {enum!r}")
    verdict(capsys, 1, "exact partition formula matches full enumeration",
            problems, time.time() - t0, 10.0)


def test_criterion_02(capsys):
    t0 = time.time()
    problems = []
    for i, j in enumerate(corpus_joints()):
        h2 = cond_renyi_entropy(j, 2)
        for m in (2, 3):
            closed = (m - 1) * 2.0 ** (-h2)
            enum = binning.expected_divergence_enum(j, m, 2)
            if abs(closed - enum) > 1e-12:
                problems.append(f"joint {i} m={m}: {closed!r} vs {enum!r}")
    worked = (2 - 1) * 2.0 ** (-cond_renyi_entropy(FLIP, 2))
    if abs(worked - 0.625) > 1e-12:
        problems.append(f"worked instance gave {worked!r}, not 0.625")
    if abs(binning.expected_divergence_enum(FLIP, 2, 2) - 0.625) > 1e-12:
        problems.append("worked instance enumeration missed 0.625")
    verdict(capsys, 2, "order-2 closed form (M-1) 2^(-H2) matches enumeration",
            problems, time.time() - t0, 1.0)


def test_criterion_03(capsys):
    t0 = time.time()
    problems = order_two_transition_problems(FLIP, -0.2)
    verdict(capsys, 3, "order-2 phase transition around the entropy threshold",
            problems, time.time() - t0, 5.0)


def test_criterion_04(capsys):
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(202)

    def note(name, count):
        if count:
            problems.append(f"{name}: {count} failures")

    fails = 0
    for _ in range(200):
        px = random_pmf(rng, 3)
        pz = random_pmf(rng, int(rng.integers(2, 4)))
        j = JointPmf(px.labels, pz.labels, np.outer(px.probs, pz.probs))
        if any(abs(cond_renyi_entropy(j, a) - renyi_entropy(px, a)) > 1e-9
               for a in ALPHAS):
            fails += 1
    note("independence reduces to marginal entropy", fails)

    fails = strict_fails = 0
    for _ in range(200):
        j = random_joint(rng, 3, 3)
        vals = [cond_renyi_entropy(j, a) for a in ALPHAS]
        if any(lo < hi - 1e-9 for lo, hi in zip(vals, vals[1:])):
            fails += 1
        if not is_singleton(j) and vals[0] - vals[-1] <= 1e-9:
            strict_fails += 1
    note("nonincreasing in order", fails)
    note("strict decrease margin for non-singleton joints", strict_fails)

    fails = 0
    for _ in range(200):
        j = random_joint(rng, 3, 2)
        h = conditional_entropy(j)
        if any(abs(cond_renyi_entropy(j, a) - h) > 1e-3
               for a in (1.0 - 1e-4, 1.0 + 1e-4)):
            fails += 1
    note("continuity at order one", fails)

    fails = 0
    for _ in range(200):
        px = random_pmf(rng, 3)
        ch_xy = Channel(px.labels, ("y0", "y1", "y2"),
                        rng.dirichlet([2.0] * 3, size=3))
        ch_yz = Channel(("y0", "y1", "y2"), ("z0", "z1"),
                        rng.dirichlet([2.0] * 2, size=3))
        j_xy = ch_xy.joint(px)
        j_xz = ch_xy.then(ch_yz).joint(px)
        if any(cond_renyi_entropy(j_xy, a) > cond_renyi_entropy(j_xz, a) + 1e-9
               for a in ALPHAS if a > 1.0):
            fails += 1
    note("data processing", fails)

    fails = 0
    for _ in range(200):
        conds = np.array([random_pmf(rng, 3).probs for _ in range(2)]).T
        pz0 = random_pmf(rng, 2).probs
        pz1 = random_pmf(rng, 2).probs
        lam = float(rng.uniform())
        mix = lam * pz0 + (1.0 - lam) * pz1

        def joint_of(pz):
            probs = conds * pz[None, :]
            return JointPmf(("x0", "x1", "x2"), ("z0", "z1"), probs)

        for a in (a for a in ALPHAS if a > 1.0):
            blend = (lam * cond_renyi_entropy(joint_of(pz0), a)
                     + (1.0 - lam) * cond_renyi_entropy(joint_of(pz1), a))
            if cond_renyi_entropy(joint_of(mix), a) > blend + 1e-9:
                fails += 1
                break
    note("convexity in the side-information law", fails)

    fails = 0
    for _ in range(200):
        j = random_joint(rng, 3, 2)
        pz, cond = j.col_conditionals()
        target = -math.log2(float(np.max(cond[:, pz > 0])))
        if abs(cond_renyi_entropy(j, 1e4) - target) > 1e-3:
            fails += 1
    note("large orders reach the min-entropy", fails)

    fails = 0
    for _ in range(200):
        j = random_joint(rng, 3, 2)
        base = {a: cond_renyi_entropy(j, a) for a in ALPHAS}
        for n in (2, 3):
            jn = j.product_power(n)
            if any(abs(cond_renyi_entropy(jn, a) - n * base[a]) > 1e-9
                   for a in ALPHAS):
                fails += 1
                break
    note("additivity over product joints", fails)

    fails = 0
    for _ in range(200):
        j = random_joint(rng, 3, 3)
        if any(cond_renyi_entropy(j, a) < 0.0 for a in ALPHAS):
            fails += 1
    note("nonnegativity", fails)

    fails = 0
    for _ in range(200):
        pz = random_pmf(rng, 3)
        j = JointPmf(("a", "b"), pz.labels, np.outer([0.5, 0.5], pz.probs))
        vals = [cond_renyi_entropy(j, a) for a in ALPHAS]
        if max(vals) - min(vals) > 1e-12:
            fails += 1
    note("singleton joints are constant in the order", fails)

    verdict(capsys, 4, "nine-property suite for the conditional entropy",
            problems, time.time() - t0, 30.0)


def test_criterion_05(capsys):
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(303)

    fails = 0
    for _ in range(500):
        p = random_pmf(rng, 4)
        q = random_pmf(rng, 4, floor=1e-3)
        if any(tsallis_divergence(p, q, a)
               < renyi_divergence(p, q, a, bits=False) - 1e-12
               for a in (1.5, 2.0, 6.0)):
            fails += 1
        if any(tsallis_divergence(p, q, a)
               > renyi_divergence(p, q, a, bits=False) + 1e-12
               for a in (0.3, 0.7)):
            fails += 1
    if fails:
        problems.append(f"log-free vs log divergence ordering: {fails} failures")

    fails = 0
    orders = (0.3, 0.8, 1.0, 1.5, 3.0, 10.0, math.inf)
    for _ in range(500):
        p = random_pmf(rng, 4)
        q = random_pmf(rng, 4, floor=1e-3)
        vals = [renyi_divergence(p, q, a) for a in orders]
        if any(lo > hi + 1e-9 for lo, hi in zip(vals, vals[1:])):
            fails += 1
    if fails:
        problems.append(f"order monotonicity: {fails} failures")

    fails = 0
    for _ in range(500):
        j = random_joint(rng, 3, 3)
        prod = np.outer(j.row_marginal().probs, j.col_marginal().probs)
        tv = 0.5 * float(np.abs(j.probs - prod).sum())
        bound = math.sqrt(0.5 * mutual_information(j) * math.log(2.0))
        if tv > bound + 1e-9:
            fails += 1
    if fails:
        problems.append(f"Pinsker: {fails} failures")

    fails = 0
    for _ in range(500):
        j = random_joint(rng, 3, 3)
        px, rows = j.row_conditionals()
        pz = j.col_marginal()
        hx = shannon_entropy(j.row_marginal())
        for a in (1.5, 2.0, 4.0, math.inf):
            mean_div = sum(
                px[x] * renyi_divergence(Pmf(pz.labels, rows[x]), pz, a)
                for x in range(3) if px[x] > 0)
            if cond_renyi_entropy(j, a) > hx - mean_div + 1e-9:
                fails += 1
                break
    if fails:
        problems.append(f"entropy vs mean output divergence: {fails} failures")

    verdict(capsys, 5, "divergence inequality families on random instances",
            problems, time.time() - t0, 30.0)


def test_criterion_06(capsys):
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(314)
    fails = anchor_fails = 0
    for i in range(50):
        pu = Pmf(("u0", "u1"), rng.dirichlet([2.5, 2.5]))
        cxu = Channel(("u0", "u1"), ("x0", "x1"), rng.dirichlet([2.5, 2.5], size=2))
        czx = Channel(("x0", "x1"), ("z0", "z1"), rng.dirichlet([2.5, 2.5], size=2))
        iuz = mutual_information(cxu.then(czx).joint(pu))
        for a in (1.5, 2.0, 4.0, math.inf):
            val, _ = rates.r_prime(pu, cxu, czx, a)
            grid = rates.r_prime_grid_oracle(pu, cxu, czx, a, step=0.01)
            if val < grid - (1e-3 + 0.01):
                fails += 1
            if val < iuz - 1e-9:
                anchor_fails += 1
    if fails:
        problems.append(f"{fails} instances fell below the grid oracle")
    if anchor_fails:
        problems.append(f"{anchor_fails} instances fell below I(U;Z)")

    indep_fails = 0
    for k in range(5):
        row = rng.dirichlet([3.0, 3.0])
        flat = Channel(("x0", "x1"), ("z0", "z1"), np.tile(row, (2, 1)))
        pu = Pmf(("u0", "u1"), rng.dirichlet([3.0, 3.0]))
        cxu = Channel(("u0", "u1"), ("x0", "x1"), rng.dirichlet([3.0, 3.0], size=2))
        val, _ = rates.r_prime(pu, cxu, flat, 2)
        if abs(val) > 1e-6:
            indep_fails += 1
    if indep_fails:
        problems.append(f"{indep_fails} independent-output instances nonzero")

    verdict(capsys, 6, "smoothing-channel optimizer against the grid oracle",
            problems, time.time() - t0, 300.0)


def test_criterion_07(capsys):
    t0 = time.time()
    problems = []
    for a, expect in ((1, 0.4123), (2, 0.3169), (math.inf, 0.0456)):
        got = rates.secrecy_rate(MAIN, EVE, UNIFORM2, a).rate_bits
        if abs(got - expect) > 1e-4:
            problems.append(f"order {a}: {got:.6f} vs {expect}")
    at_one = rates.secrecy_rate(MAIN, EVE, UNIFORM2, 1).rate_bits
    near = rates.secrecy_rate(MAIN, EVE, UNIFORM2, 1.001).rate_bits
    if abs(near - at_one) > 5e-3:
        problems.append(f"continuity gap {abs(near - at_one):.2e}")
    verdict(capsys, 7, "wiretap secrecy rates for the 0.1/0.3 channel pair",
            problems, time.time() - t0, 1.0)


def test_criterion_08(capsys):
    t0 = time.time()
    problems = []
    threshold = cond_renyi_entropy(EVE.joint(UNIFORM2), 2)
    r2 = conditional_entropy(MAIN.joint(UNIFORM2).swapped()) + 0.15

    def medians(r1, tag):
        leak, err, notes = [], [], []
        for n in (4, 6, 8, 10):
            ts = typical_set(UNIFORM2, n, 0.6)
            per_leak, per_err = [], []
            fallbacks = 0
            for k in range(32):
                seed = derive_seed(0, f"bench:{tag}:n={n}", k)
                code = build_code(ts, r1, r2, seed)
                fallbacks += code.discards == MAX_ATTEMPTS
                f_star, recs = select_f(code, MAIN, EVE, 2)
                per_leak.append(recs[f_star - 1].leakage)
                per_err.append(recs[f_star - 1].error_prob)
            leak.append(float(np.median(per_leak)))
            err.append(float(np.median(per_err)))
            notes.append(f"n={n} log2(m1*m2)/n={math.log2(code.m1 * code.m2) / n:.3f}"
                         f" log2(m2)/n={math.log2(code.m2) / n:.3f}"
                         f" fallback codes={fallbacks}/32")
        return leak, err, f"{tag} threshold {threshold:.3f}: " + ", ".join(notes)

    below_leak, below_err, below_notes = medians(threshold - 0.15 - r2, "below")
    above_leak, _, above_notes = medians(threshold + 0.15 - r2, "above")
    if not all(a >= b for a, b in zip(below_leak, below_leak[1:])):
        problems.append("below-threshold median leakage not nonincreasing: "
                        + ", ".join("%.4f" % v for v in below_leak))
    if not all(a >= b for a, b in zip(below_err, below_err[1:])):
        problems.append("below-threshold median error not nonincreasing: "
                        + ", ".join("%.4f" % v for v in below_err))
    if not all(a <= b for a, b in zip(above_leak, above_leak[1:])):
        problems.append("above-threshold median leakage not nondecreasing: "
                        + ", ".join("%.4f" % v for v in above_leak))
    if problems:
        problems += [below_notes, above_notes]
    verdict(capsys, 8, "wiretap sweep leakage and error trends over blocklength",
            problems, time.time() - t0, 300.0)


def test_criterion_09(capsys):
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(2024)
    qualified = violations = 0
    for _ in range(100):
        kx = int(rng.integers(6, 9))
        kz = int(rng.integers(2, 4))
        cond = rng.dirichlet([30.0] * kz, size=kx)
        px = rng.dirichlet([80.0] * kx)
        j = JointPmf(tuple(f"x{v}" for v in range(kx)),
                     tuple(f"z{v}" for v in range(kz)), px[:, None] * cond)
        bound, ok = rates.dinf_one_shot_bound(j, 2)
        if ok:
            qualified += 1
            if binning.expected_divergence_enum(j, 2, math.inf) > bound:
                violations += 1
    if qualified < 30:
        problems.append(f"only {qualified} instances met the side condition")
    if violations:
        problems.append(f"{violations} one-shot bound violations")

    j = EVE.joint(UNIFORM2)
    assert 0.1 < cond_renyi_entropy(j, math.inf) - 0.2
    means = [binning.expected_divergence_mc(j, n, 0.1, math.inf, 400, 7)[0]
             for n in range(2, 11)]
    if not all(a >= b for a, b in zip(means, means[1:])):
        problems.append("sampled max-ratio means not nonincreasing: "
                        + ", ".join("%.4f" % v for v in means))
    verdict(capsys, 9, "one-shot max-ratio bound and its decay below threshold",
            problems, time.time() - t0, 120.0)


def test_criterion_10(capsys, tmp_path, monkeypatch):
    t0 = time.time()
    problems = []
    Pmf(("a", "b"), (0.6, 0.4)).save(tmp_path / "src.json")
    MAIN.save(tmp_path / "main.json")
    EVE.save(tmp_path / "eve.json")
    flip_path = tmp_path / "flip.json"
    FLIP.save(flip_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": [3, 4], "r1": 0.25, "r2": 0.25, "alpha": 2,
        "encoder": "deterministic", "codes": 3, "seed": 5, "eps": 0.9,
        "source": "src.json", "main": "main.json", "eve": "eve.json"}))

    def run(args, out, env_threads=None, flag_threads=None):
        if env_threads is None:
            monkeypatch.delenv("OSRB_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("OSRB_LAB_THREADS", str(env_threads))
        full = list(args) + ["--out", str(out)]
        if flag_threads is not None:
            full += ["--threads", str(flag_threads)]
        assert cli.main(full) == 0
        with open(out) as fh:
            return fh.read()

    wargs = ["wiretap", "--config", str(cfg)]
    base = run(wargs, tmp_path / "w_a.csv", env_threads=1)
    for k, variant in enumerate((
            run(wargs, tmp_path / "w_b.csv", env_threads=4),
            run(wargs, tmp_path / "w_c.csv", flag_threads=2))):
        if variant != base:
            problems.append(f"wiretap sweep bytes differ in variant {k}")

    oargs = ["osrb", "--joint", str(flip_path), "--alpha", "2", "--rate", "0.5",
             "--n", "4,6", "--mode", "mc", "--trials", "64", "--seed", "9"]
    base = run(oargs, tmp_path / "o_a.csv", env_threads=1)
    for k, variant in enumerate((
            run(oargs, tmp_path / "o_b.csv", env_threads=4),
            run(oargs, tmp_path / "o_c.csv", flag_threads=3))):
        if variant != base:
            problems.append(f"sampling sweep bytes differ in variant {k}")
    verdict(capsys, 10, "sweep outputs byte-identical at any thread count",
            problems, time.time() - t0, 60.0)
