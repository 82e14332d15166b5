import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from helpers import channel_log_likelihoods_reference, label_masses, s_kernel_row_reference
from osrb_lab import wiretap
from osrb_lab.binning import derive_seed, m_from_rate
from osrb_lab.measures import Channel, JointPmf, Pmf, check_alpha
from osrb_lab.typicality import (
    EmptyTypicalSetError,
    _channel_log_likelihoods,
    index_digits,
    joint_typical_set,
    typical_set,
)
from osrb_lab.wiretap import (
    BLOCK_CELLS,
    MAX_ATTEMPTS,
    RECORD_FIELDS,
    EmptyBinError,
    ExperimentRecord,
    LeakageRecord,
    SweepConfig,
    WiretapCode,
    _dither_leakages,
    _leakage_tables,
    _likelihood_rows,
    build_code,
    decode,
    encode,
    error_prob,
    leakage,
    select_f,
    sweep_experiment,
)

UNIFORM2 = Pmf.uniform(["a", "b"])
MAIN = Channel.bsc(0.05, ("a", "b"))
EVE = Channel.bsc(0.3, ("a", "b"))


def hand_code(ts, m_label, f_label, m1, m2, kind="deterministic", seed=0):
    return WiretapCode(kind, ts.n, math.log2(m1) / ts.n, math.log2(m2) / ts.n,
                       m1, m2, ts, np.asarray(m_label), np.asarray(f_label),
                       seed, 0, 0)


class TestBuildCode:
    def test_zero_rates_single_bin(self):
        ts = typical_set(UNIFORM2, 3, 0.9)
        code = build_code(ts, 0.0, 0.0, 0)
        assert (code.m1, code.m2) == (1, 1)
        assert np.all(code.m_label == 1) and np.all(code.f_label == 1)
        assert code.empty_bins == 0

    def test_rate_bookkeeping(self):
        ts = typical_set(UNIFORM2, 5, 0.9)
        code = build_code(ts, 0.3, 0.45, 1)
        assert code.m1 == m_from_rate(5, 0.3)
        assert code.m2 == m_from_rate(5, 0.45)
        assert math.log2(code.m1) / 5 >= 0.3 - 1e-12
        assert math.log2(code.m2) / 5 >= 0.45 - 1e-12

    def test_replay_determinism(self):
        ts = typical_set(UNIFORM2, 8, 0.9)
        a = build_code(ts, 0.25, 0.25, 17)
        b = build_code(ts, 0.25, 0.25, 17)
        c = build_code(ts, 0.25, 0.25, 18)
        assert np.array_equal(a.m_label, b.m_label)
        assert np.array_equal(a.f_label, b.f_label)
        assert not (np.array_equal(a.m_label, c.m_label)
                    and np.array_equal(a.f_label, c.f_label))

    def test_label_marginal_uniformity(self):
        # 16384 members into four message bins; Philox labels should pass
        # a chi-square uniformity check at the 0.001 level (df = 3)
        ts = typical_set(UNIFORM2, 14, 0.9)
        code = build_code(ts, 2 / 14, 0.0, 11)
        counts = np.bincount(code.m_label, minlength=5)[1:]
        chi2 = float(((counts - 4096.0) ** 2 / 4096.0).sum())
        assert chi2 < 16.27

    def test_sparse_grid_keeps_fewest_empty_attempt(self):
        # four members cannot fill a 4 x 4 grid, so every attempt is
        # rejected and the best one is kept with the full discard budget
        ts = typical_set(UNIFORM2, 2, 0.9)
        code = build_code(ts, 1.0, 1.0, 0)
        assert (code.m1, code.m2) == (4, 4)
        assert code.discards == MAX_ATTEMPTS
        assert code.empty_bins >= 12
        assert code.empty_bins == int(np.sum(label_masses(code) == 0.0))
        with pytest.raises(TypeError):
            build_code(ts, 1.0, 1.0, 0, max_attempts=5)

    def test_rejects_bad_source_and_rates(self):
        ts = typical_set(UNIFORM2, 3, 0.9)
        with pytest.raises(ValueError):
            build_code(UNIFORM2, 0.1, 0.1, 0)
        with pytest.raises(ValueError):
            build_code(ts, -0.1, 0.0, 0)


class TestEncodeDecode:
    def test_single_member_bin_returns_member(self):
        ts = typical_set(UNIFORM2, 2, 0.9)
        code = hand_code(ts, [1, 2, 3, 4], [1, 1, 1, 1], 4, 1)
        for m in range(1, 5):
            assert encode(code, m, 1, seed=9) == int(ts.members[m - 1])

    def test_two_member_bin_follows_tilted_ratio(self):
        # members "aa" and "ab" share a bin with tilted weights 0.7 / 0.3
        ts = typical_set(Pmf(("a", "b"), (0.7, 0.3)), 2, 0.9)
        code = hand_code(ts, [1, 1, 2, 2], [1, 1, 1, 1], 2, 1)
        draws = np.array([encode(code, 1, 1, seed=t) for t in range(10000)])
        frac = float(np.mean(draws == 0))
        sigma = math.sqrt(0.7 * 0.3 / 10000)
        assert abs(frac - 0.7) < 3 * sigma

    def test_empty_bin_raises(self):
        ts = typical_set(UNIFORM2, 1, 0.9)
        code = hand_code(ts, [1, 1], [1, 1], 2, 1)
        with pytest.raises(EmptyBinError):
            encode(code, 2, 1, seed=0)
        with pytest.raises(ValueError):
            encode(code, 3, 1, seed=0)

    def test_noiseless_decode_recovers_message(self):
        ts = typical_set(UNIFORM2, 3, 0.9)
        code = build_code(ts, 2 / 3, 0.0, 4)
        clean = Channel.identity(("a", "b"))
        for m in range(1, code.m1 + 1):
            if code.bin_positions(m, 1).size == 0:
                continue
            x = encode(code, m, 1, seed=m)
            m_hat, member = decode(code, 1, x, clean)
            assert (m_hat, member) == (m, x)

    def test_decode_empty_dither_returns_none(self):
        ts = typical_set(UNIFORM2, 1, 0.9)
        code = hand_code(ts, [1, 1], [1, 1], 1, 2)
        assert decode(code, 2, 0, Channel.identity(("a", "b"))) == (None, None)

    @pytest.mark.parametrize("y_seq", [-1, 2 ** 4])
    def test_decode_rejects_receiver_sequence_out_of_range(self, y_seq):
        code = build_code(typical_set(UNIFORM2, 4, 0.9), 0.25, 0.25, 0)
        with pytest.raises(ValueError, match="receiver sequence"):
            decode(code, 1, y_seq, MAIN)

    def test_stochastic_copy_joint_reduces_to_deterministic(self):
        # diagonal p(u, x) forces x = u at encoding and an identity-like
        # smoothed kernel at decoding
        diag = JointPmf(("u0", "u1"), ("x0", "x1"), [[0.5, 0.0], [0.0, 0.5]])
        jts = joint_typical_set(diag, 2, 0.2)
        code = build_code(jts, 0.5, 0.0, 3)
        clean = Channel(("x0", "x1"), ("z0", "z1"), [[1, 0], [0, 1]])
        for m in range(1, code.m1 + 1):
            if code.bin_positions(m, 1).size == 0:
                continue
            x, u = encode(code, m, 1, seed=m)
            assert x == u
            assert decode(code, 1, x, clean) == (m, u)


class TestLeakage:
    def test_single_letter_worked_value(self):
        # two messages, one dither: p(m, z) has four entries and the
        # order-2 divergence against uniform x i.i.d. output is 0.16
        ts = typical_set(UNIFORM2, 1, 0.9)
        code = hand_code(ts, [1, 2], [1, 1], 2, 1)
        assert leakage(code, 1, EVE, 2) == pytest.approx(0.16, abs=1e-12)

    def test_single_message_matches_direct_enumeration(self):
        p = Pmf(("a", "b"), (0.6, 0.4))
        ts = typical_set(p, 2, 0.9)
        code = hand_code(ts, [1, 1, 1, 1], [1, 1, 1, 1], 1, 1)
        got = leakage(code, 1, EVE, 2)
        # independent route: explicit sums over the four z sequences
        w = np.exp(ts.log_probs)
        rows = EVE.rows
        p_z = np.zeros(4)
        q_z = np.zeros(4)
        q1 = EVE.output(p).probs
        for z0 in range(2):
            for z1 in range(2):
                z = 2 * z0 + z1
                for i, x in enumerate(ts.members):
                    x0, x1 = divmod(int(x), 2)
                    p_z[z] += w[i] * rows[x0, z0] * rows[x1, z1]
                q_z[z] = q1[z0] * q1[z1]
        expect = float(np.sum(p_z ** 2 / q_z) - 1.0)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_uninformative_eavesdropper_equal_bins(self):
        flat = Channel(("a", "b"), ("z0", "z1"), [[0.6, 0.4], [0.6, 0.4]])
        ts = typical_set(UNIFORM2, 2, 0.9)
        code = hand_code(ts, [1, 1, 2, 2], [1, 1, 1, 1], 2, 1)
        assert leakage(code, 1, flat, 2) == pytest.approx(0.0, abs=1e-12)
        assert leakage(code, 1, flat, math.inf) == pytest.approx(0.0, abs=1e-9)

    def test_independent_eavesdropper_never_negative_at_infinite_order(self):
        # BSC(0.5) output is independent of the input, so every induced
        # law equals the reference up to rounding; D_inf must not report
        # that rounding as a negative leakage
        flat = Channel.bsc(0.5, ("a", "b"))
        ts = typical_set(UNIFORM2, 4, 0.9)
        for seed in range(5):
            code = build_code(ts, 0.0, 0.25, seed)
            _, recs = select_f(code, MAIN, flat, math.inf)
            for rec in recs:
                if code.f_positions(rec.f).size:
                    assert 0.0 <= rec.leakage < 1e-12
                    assert 0.0 <= leakage(code, rec.f, flat, math.inf) < 1e-12

    def test_nonnegative_across_orders(self):
        ts = typical_set(UNIFORM2, 4, 0.9)
        code = build_code(ts, 0.25, 0.25, 2)
        for a in (1, 2, 4, math.inf):
            for f in range(1, code.m2 + 1):
                if code.f_positions(f).size:
                    assert leakage(code, f, EVE, a) >= 0.0

    def test_empty_dither_rejected(self):
        ts = typical_set(UNIFORM2, 1, 0.9)
        code = hand_code(ts, [1, 1], [1, 1], 1, 2)
        with pytest.raises(ValueError):
            leakage(code, 2, EVE, 2)
        with pytest.raises(ValueError):
            error_prob(code, 2, MAIN)


class TestErrorAndSelection:
    def test_error_prob_small_for_clean_main(self):
        ts = typical_set(UNIFORM2, 4, 0.9)
        for seed in range(3):
            code = build_code(ts, 0.25, 0.5, seed)
            f_star, recs = select_f(code, MAIN, EVE, 2)
            assert recs[f_star - 1].error_prob < 0.2

    def test_single_dither_selected(self):
        ts = typical_set(UNIFORM2, 3, 0.9)
        code = build_code(ts, 1 / 3, 0.0, 6)
        f_star, recs = select_f(code, MAIN, EVE, 2)
        assert f_star == 1
        assert len(recs) == 1

    def test_selection_minimizes_combined_score(self):
        ts = typical_set(UNIFORM2, 4, 0.9)
        code = build_code(ts, 0.25, 0.5, 9)
        f_star, recs = select_f(code, MAIN, EVE, 2)
        scores = [r.leakage + r.error_prob for r in recs]
        assert scores[f_star - 1] == min(scores)

    def test_symmetric_tie_picks_lowest_dither(self):
        ts = typical_set(UNIFORM2, 2, 0.9)
        code = hand_code(ts, [1, 2, 1, 2], [1, 1, 2, 2], 2, 2)
        f_star, recs = select_f(code, MAIN, EVE, 2)
        assert recs[0].leakage == pytest.approx(recs[1].leakage, abs=1e-12)
        assert f_star == 1

    def test_empty_dither_scores_worst(self):
        ts = typical_set(UNIFORM2, 2, 0.9)
        code = hand_code(ts, [1, 2, 1, 2], [2, 2, 2, 2], 2, 2)
        f_star, recs = select_f(code, MAIN, EVE, 2)
        assert f_star == 2
        assert recs[0].leakage == math.inf
        assert recs[0].error_prob == 1.0

    def test_label_masses_concentrate_with_blocklength(self):
        # four cells held fixed while the member count grows; the tilted
        # cell masses settle toward uniform
        p = Pmf(("a", "b"), (0.7, 0.3))

        def tv(n, seed):
            ts = typical_set(p, n, 0.1)
            code = build_code(ts, 1.0 / n, 1.0 / n, seed)
            masses = label_masses(code).ravel()
            return 0.5 * float(np.abs(masses - 0.25).sum())

        worst10 = max(tv(10, s) for s in range(8))
        worst14 = max(tv(14, s) for s in range(8))
        assert worst14 < worst10 < 0.2
        assert worst14 < 0.03


def cross_path_codes(kind):
    if kind == "deterministic":
        ts = typical_set(Pmf(("a", "b"), (0.6, 0.4)), 4, 0.9)
        return [build_code(ts, 0.25, 0.5, seed) for seed in range(3)]
    j = JointPmf(("u0", "u1"), ("a", "b"), [[0.30, 0.20], [0.15, 0.35]])
    jts = joint_typical_set(j, 3, 0.5)
    return [build_code(jts, 1 / 3, 1 / 3, seed) for seed in range(3)]


def decoded_miss_mass(code, f, main):
    """Miss mass of ``decode`` under f, summed over every receiver sequence
    with likelihoods taken letter by letter (smoothed kernel for u)."""
    labeled = code.source if code.kind == "deterministic" else code.source.u_set
    pos = code.f_positions(f)
    weights = np.exp(labeled.log_probs[pos])
    weights /= weights.sum()
    k = len(main.out_labels)
    miss = 0.0
    for y in range(k ** code.n):
        m_hat, _ = decode(code, f, y, main)
        y_digits = index_digits([y], k, code.n)[0]
        for w, i in zip(weights, pos):
            if code.m_label[i] == m_hat:
                continue
            member = int(labeled.members[i])
            if code.kind == "deterministic":
                x_digits = index_digits([member], len(main.in_labels), code.n)[0]
                lik = math.prod(main.rows[x, z] for x, z in zip(x_digits, y_digits))
            else:
                lik = s_kernel_row_reference(code.source, main, member)[y]
            miss += w * lik
    return miss


class TestCrossPath:
    @pytest.mark.parametrize("alpha", [1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_select_f_matches_single_dither_scores(self, kind, alpha):
        for code in cross_path_codes(kind):
            _, recs = select_f(code, MAIN, EVE, alpha)
            populated = [f for f in range(1, code.m2 + 1) if code.f_positions(f).size]
            assert populated
            for f in populated:
                assert recs[f - 1].leakage == leakage(code, f, EVE, alpha)
                assert recs[f - 1].error_prob == error_prob(code, f, MAIN)

    @pytest.mark.parametrize("alpha", [0.5, 1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_select_f_leakage_is_leakage_bit_for_bit(self, kind, alpha):
        # select_f scores every dither with one divergence kernel of the
        # code's target; leakage() builds a one-shot kernel per call
        got, want = [], []
        for code in cross_path_codes(kind):
            _, recs = select_f(code, MAIN, EVE, alpha)
            for f in range(1, code.m2 + 1):
                if code.f_positions(f).size:
                    got.append(recs[f - 1].leakage)
                    want.append(leakage(code, f, EVE, alpha))
        assert max(want) > 0.0
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_error_prob_is_miss_mass_of_decode(self, kind):
        for code in cross_path_codes(kind):
            for f in range(1, code.m2 + 1):
                if code.f_positions(f).size:
                    assert error_prob(code, f, MAIN) == pytest.approx(
                        decoded_miss_mass(code, f, MAIN), abs=1e-12)


class TestSharedRows:
    @pytest.mark.parametrize("alpha", [1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_shared_rows_change_nothing(self, kind, alpha):
        for code in cross_path_codes(kind):
            shared = (_dither_leakages(code, EVE, check_alpha(alpha),
                                       _likelihood_rows(code.source, EVE)),
                      _likelihood_rows(code.source, MAIN))
            assert select_f(code, MAIN, EVE, alpha, shared=shared) == \
                select_f(code, MAIN, EVE, alpha)

    def test_blocked_rows_match_one_shot_build(self):
        n = 11
        ts = typical_set(Pmf(("a", "b"), (0.6, 0.4)), n, 0.9)
        rows = _likelihood_rows(ts, EVE)
        assert ts.size > 2 * (BLOCK_CELLS // 2 ** n)
        one_shot = np.exp(_channel_log_likelihoods(EVE, index_digits(ts.members, 2, n), 2 ** n, n))
        assert np.array_equal(rows.view(np.int64), one_shot.view(np.int64))

    @pytest.mark.parametrize("block_rows", [7, None])
    def test_blocked_rows_match_reference_exp(self, monkeypatch, block_rows):
        # a ternary source through a 3-in, 2-out channel with a zero entry;
        # 7-row blocks leave a ragged last block, None keeps one block
        n = 6
        ts = typical_set(Pmf(("a", "b", "c"), (0.5, 0.3, 0.2)), n, 0.9)
        ch = Channel(("a", "b", "c"), ("y", "z"), [[0.9, 0.1], [0.0, 1.0], [0.35, 0.65]])
        if block_rows is not None:
            monkeypatch.setattr(wiretap, "BLOCK_CELLS", block_rows * 2 ** n)
            assert ts.size % block_rows
        rows = _likelihood_rows(ts, ch)
        want = np.exp(channel_log_likelihoods_reference(
            ch, index_digits(ts.members, 3, n), 2 ** n, n))
        assert np.array_equal(rows.view(np.int64), want.view(np.int64))

    def test_deterministic_rows_peak_memory(self):
        # tracemalloc peak above the returned rows at n = 11 (2,048 members
        # in 512-row blocks): 3.7 MiB; extending each block's rows one
        # position at a time, without shared prefixes, peaks at 12.2 MiB,
        # and gathering the whole last level's parent rows at once at 6.2
        ts = typical_set(UNIFORM2, 11, 0.6)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows = _likelihood_rows(ts, EVE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (2 ** 11, 2 ** 11)
        assert peak - base - rows.nbytes <= 5 * 2 ** 20

    def test_stochastic_rows_match_per_u_kernel_bit_for_bit(self):
        # seeded (U, X) joints with zero entries through channels with 2 or
        # 3 outputs and zeroed cells, n = 1..7: the rows from one shared
        # table equal the per-u kernel's, over every member and over an
        # unsorted subset of positions, as int64 bit patterns
        rng = np.random.default_rng(1601)
        compared = 0
        for kx, kz in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for n in range(1, 8 if kx == 2 else 6):
                probs = rng.uniform(0.05, 1.0, size=(2, kx))
                probs[rng.integers(2), rng.integers(kx)] = 0.0
                joint = JointPmf(("u0", "u1"), tuple(f"x{i}" for i in range(kx)),
                                 probs / probs.sum())
                w = rng.dirichlet(np.ones(kz), size=kx)
                zero = rng.random(w.shape) < 0.3
                zero[np.arange(kx), rng.integers(kz, size=kx)] = False
                w = np.where(zero, 0.0, w)
                ch = Channel(joint.col_labels, tuple(f"z{i}" for i in range(kz)),
                             w / w.sum(axis=1, keepdims=True))
                try:
                    jts = joint_typical_set(joint, n, 0.3)
                except EmptyTypicalSetError:
                    continue
                members = jts.u_set.members
                subset = rng.permutation(members.size)[:max(1, members.size // 2)]
                for pos in (None, subset):
                    got = _likelihood_rows(jts, ch, pos)
                    us = members if pos is None else members[pos]
                    want = np.stack([s_kernel_row_reference(jts, ch, int(u)) for u in us])
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                    compared += 1
        assert compared >= 30

    @pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 1])
    def test_leakage_tables_match_per_dither_add_at(self, monkeypatch, block_cells):
        monkeypatch.setattr(wiretap, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(3)
        for code in cross_path_codes("deterministic"):
            rows = _likelihood_rows(code.source, EVE)
            weights = rng.uniform(0.01, 1.0, size=code.member_count)
            dithers = [f for f in range(1, code.m2 + 1) if code.f_positions(f).size]
            tables = list(_leakage_tables(code, np.arange(code.member_count), weights,
                                          rows, dithers))
            assert [f for f, _ in tables] == dithers
            for f, table in tables:
                pos = code.f_positions(f)
                ref = np.zeros((code.m1, rows.shape[1]))
                np.add.at(ref, code.m_label[pos] - 1, weights[pos, None] * rows[pos])
                assert np.array_equal(table.view(np.int64), ref.view(np.int64))

    def test_sweep_repeated_n_and_thread_count(self, sweep_dir):
        base, doc = sweep_dir
        cfg = SweepConfig.from_dict(dict(doc, n=[3, 4, 3]), str(base))
        records = sweep_experiment(cfg)
        assert records == sweep_experiment(cfg)
        assert records[6:] == records[:3]
        assert records[:6] == sweep_experiment(SweepConfig.from_dict(doc, str(base)))


class TestRecords:
    def test_leakage_record_validation(self):
        with pytest.raises(ValueError):
            LeakageRecord(1, 2.0, -0.5, 0.1, 4, 0)
        with pytest.raises(ValueError):
            LeakageRecord(1, 2.0, 0.5, 1.5, 4, 0)

    def test_experiment_record_row_order(self):
        rec = ExperimentRecord(4, 0.25, 0.25, 2.0, "deterministic",
                               123, 1, 0.5, 0.1, 0)
        assert tuple(rec.to_row()) == RECORD_FIELDS


@pytest.fixture
def sweep_dir(tmp_path):
    Pmf(("a", "b"), (0.6, 0.4)).save(tmp_path / "src.json")
    Channel.bsc(0.05, ("a", "b")).save(tmp_path / "main.json")
    Channel.bsc(0.3, ("a", "b")).save(tmp_path / "eve.json")
    doc = {"n": [3, 4], "r1": 0.25, "r2": 0.25, "alpha": 2,
           "encoder": "deterministic", "codes": 3, "seed": 5, "eps": 0.9,
           "source": "src.json", "main": "main.json", "eve": "eve.json"}
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump(doc, fh)
    return tmp_path, doc


class TestSweep:
    def test_end_to_end_records(self, sweep_dir):
        base, _ = sweep_dir
        cfg = SweepConfig.from_json(base / "cfg.json")
        records = sweep_experiment(cfg)
        assert len(records) == 6
        assert [r.n for r in records] == [3, 3, 3, 4, 4, 4]
        for i, rec in enumerate(records[:3]):
            assert rec.code_seed == derive_seed(5, "wiretap:n=3", i)
        assert all(r.leakage >= 0.0 and 0.0 <= r.error_prob <= 1.0
                   for r in records)

    @pytest.mark.parametrize("alpha", [2, math.inf])
    @pytest.mark.parametrize("encoder", ["deterministic", "stochastic"])
    def test_records_are_standalone_select_f_bit_for_bit(self, sweep_dir, encoder, alpha):
        # three codes per n share each n's eve rows, then its main rows;
        # every record must be that of build_code plus a select_f of its own
        base, doc = sweep_dir
        if encoder == "stochastic":
            JointPmf(("u0", "u1"), ("a", "b"), [[0.30, 0.20], [0.15, 0.35]]).save(base / "ux.json")
            doc = dict(doc, encoder=encoder, source="ux.json", eps=0.5, r1=1 / 3, r2=1 / 3)
        cfg = SweepConfig.from_dict(dict(doc, alpha=alpha), str(base))
        assert cfg.codes == 3
        records = sweep_experiment(cfg)
        want = []
        for n in cfg.n_values:
            source = (typical_set(cfg.source, n, cfg.eps) if encoder == "deterministic"
                      else joint_typical_set(cfg.source, n, cfg.eps))
            for i in range(cfg.codes):
                code = build_code(source, cfg.r1, cfg.r2, derive_seed(cfg.seed, f"wiretap:n={n}", i))
                f_star, recs = select_f(code, cfg.main, cfg.eve, alpha)
                want.append((code.seed, f_star, recs[f_star - 1].leakage.hex(),
                             recs[f_star - 1].error_prob.hex(), code.discards))
        got = [(r.code_seed, r.f_star, r.leakage.hex(), r.error_prob.hex(), r.discards)
               for r in records]
        assert got == want
        assert len({f for _, f, *_ in got}) > 1

    def test_n11_step_peak_memory(self):
        # criterion 8's below-threshold code at n = 11 (2,048 members, two
        # 32 MiB likelihood tables): with one channel's rows alive at a
        # time the step's tracemalloc peak above its start is 43.6 MiB;
        # holding the eve and main rows together it is 75.6 MiB
        uniform = Pmf.uniform(["a", "b"])
        cfg = SweepConfig((11,), 0.017, 0.619, 2.0, "deterministic", 1, 0, 0.6, uniform,
                          Channel.bsc(0.1, ("a", "b")), Channel.bsc(0.3, ("a", "b")))
        ts = typical_set(uniform, 11, 0.6)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            [record] = wiretap._run_codes(cfg, ts, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.size == 2 ** 11 and record.n == 11
        assert peak - base <= 48 * 2 ** 20

    def test_empty_n_list_gives_no_records(self, sweep_dir):
        base, doc = sweep_dir
        doc = dict(doc, n=[])
        cfg = SweepConfig.from_dict(doc, str(base))
        assert sweep_experiment(cfg) == []

    @pytest.mark.parametrize("field,value", [
        ("n", [0]),
        ("n", "4"),
        ("r1", -0.5),
        ("r2", "x"),
        ("alpha", "huge"),
        ("encoder", "mixed"),
        ("codes", 0),
        ("seed", -1),
        ("eps", 0),
        ("source", "missing.json"),
        ("main", "missing.json"),
        ("n", [True, 4]),
        ("alpha", True),
        ("eps", math.inf),
        ("eps", math.nan),
        ("r1", math.nan),
        ("r1", math.inf),
        ("r2", math.inf),
        pytest.param("r2", 10 ** 400, id="r2-int-beyond-float-range"),
    ])
    def test_config_validation_names_the_field(self, sweep_dir, field, value):
        base, doc = sweep_dir
        doc = dict(doc, **{field: value})
        with pytest.raises(ValueError, match=f"config field '{field}'"):
            SweepConfig.from_dict(doc, str(base))

    def test_alphabet_mismatch_rejected(self, sweep_dir):
        base, doc = sweep_dir
        Channel.bsc(0.05, ("p", "q")).save(base / "badmain.json")
        doc = dict(doc, main="badmain.json")
        with pytest.raises(ValueError, match="main"):
            SweepConfig.from_dict(doc, str(base))

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            SweepConfig.from_json(bad)
