import json
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import (
    build_code_attempts_reference,
    channel_log_likelihoods_reference,
    counted_table_calls,
    dither_leakages_reference,
    label_masses,
    leakage_target_reference,
    s_kernel_row_reference,
    select_f_reference,
)
from osrb_lab import cli, wiretap
from osrb_lab.binning import derive_seed, m_from_rate
from osrb_lab.measures import (
    Channel,
    GuardError,
    JointPmf,
    Pmf,
    check_alpha,
    cond_renyi_entropy,
    conditional_entropy,
    d_infinity_raw,
    tsallis_raw,
)
from osrb_lab.typicality import (
    EmptyTypicalSetError,
    _channel_log_likelihoods,
    index_digits,
    joint_typical_set,
    typical_set,
)
from osrb_lab.wiretap import (
    ADD_CELLS,
    BLOCK_CELLS,
    MAX_ATTEMPTS,
    MAX_EMPTY_FRAC,
    RECORD_FIELDS,
    EmptyBinError,
    ExperimentRecord,
    LeakageRecord,
    SweepConfig,
    WiretapCode,
    _dither_leakages,
    _leakage_kernel,
    _likelihood_rows,
    _miss_kernel,
    _scored_main_rows,
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

    @pytest.mark.parametrize("n,r1,r2", [(4, 0.25, 0.5), (6, 0.017, 0.619),
                                         (8, 0.317, 0.619), (10, 0.317, 0.619)])
    def test_attempts_match_per_attempt_reference(self, n, r1, r2):
        # one re-keyed generator and a bincount of the cells must give the
        # labels and empty cells of a new generator and grid per attempt;
        # the first attempt within budget wins, else the fewest empty cells
        # (earliest on ties) with every attempt discarded
        ts = typical_set(UNIFORM2, n, 0.6)
        m1, m2 = m_from_rate(n, r1), m_from_rate(n, r2)
        for seed in (0, 7, 2 ** 63 + 5):
            code = build_code(ts, r1, r2, seed)
            tries = build_code_attempts_reference(ts.size, m1, m2, seed, MAX_ATTEMPTS)
            ok = [k for k, t in enumerate(tries) if t[2] <= MAX_EMPTY_FRAC * m1 * m2]
            pick = ok[0] if ok else min(range(MAX_ATTEMPTS), key=lambda k: tries[k][2])
            assert code.discards == (ok[0] if ok else MAX_ATTEMPTS)
            assert np.array_equal(code.m_label, tries[pick][0])
            assert np.array_equal(code.f_label, tries[pick][1])
            assert code.empty_bins == tries[pick][2]

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

    @pytest.mark.parametrize("r", [1.9, 3.2])
    def test_cell_grid_guard_before_labels(self, r):
        # 2^19 x 2^19 and 2^32 x 2^32 cells for 1,024 members: the grid is
        # refused before any label or cell count is formed
        ts = typical_set(UNIFORM2, 10, 0.9)
        m = m_from_rate(10, r)
        with pytest.raises(GuardError, match=f"bin grid m1 x m2 = {m} x {m} exceeds guard"):
            build_code(ts, r, r, 0)

    def test_cell_grid_guard_edge(self, monkeypatch):
        monkeypatch.setattr(wiretap, "MATRIX_GUARD", 16)
        ts = typical_set(UNIFORM2, 4, 0.9)
        assert build_code(ts, 0.5, 0.5, 0).m1 * 4 == 16
        with pytest.raises(GuardError, match="bin grid m1 x m2 = 8 x 4 exceeds guard 16"):
            build_code(ts, 0.75, 0.5, 0)

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
            _, rec = select_f(code, MAIN, flat, math.inf)
            assert 0.0 <= rec.leakage < 1e-12
            _, recs = select_f_reference(code, MAIN, flat, math.inf)
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
            f_star, rec = select_f(code, MAIN, EVE, 2)
            assert rec.f == f_star
            assert rec.error_prob < 0.2

    def test_single_dither_selected(self):
        ts = typical_set(UNIFORM2, 3, 0.9)
        code = build_code(ts, 1 / 3, 0.0, 6)
        f_star, rec = select_f(code, MAIN, EVE, 2)
        assert code.m2 == 1
        assert f_star == rec.f == 1

    def test_selection_minimizes_combined_score(self):
        ts = typical_set(UNIFORM2, 4, 0.9)
        code = build_code(ts, 0.25, 0.5, 9)
        f_star, rec = select_f(code, MAIN, EVE, 2)
        scores = [leakage(code, f, EVE, 2) + error_prob(code, f, MAIN)
                  for f in range(1, code.m2 + 1) if code.f_positions(f).size]
        assert rec.leakage + rec.error_prob == min(scores)

    def test_symmetric_tie_picks_lowest_dither(self):
        ts = typical_set(UNIFORM2, 2, 0.9)
        code = hand_code(ts, [1, 2, 1, 2], [1, 1, 2, 2], 2, 2)
        f_star, _ = select_f(code, MAIN, EVE, 2)
        assert leakage(code, 1, EVE, 2) == pytest.approx(leakage(code, 2, EVE, 2), abs=1e-12)
        assert f_star == 1

    def test_empty_dither_scores_worst(self):
        ts = typical_set(UNIFORM2, 2, 0.9)
        code = hand_code(ts, [1, 2, 1, 2], [2, 2, 2, 2], 2, 2)
        f_star, rec = select_f(code, MAIN, EVE, 2)
        assert f_star == rec.f == 2

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
            f_star, recs = select_f_reference(code, MAIN, EVE, alpha)
            assert select_f(code, MAIN, EVE, alpha) == (f_star, recs[f_star - 1])
            populated = [f for f in range(1, code.m2 + 1) if code.f_positions(f).size]
            assert populated
            for f in populated:
                assert recs[f - 1].leakage == leakage(code, f, EVE, alpha)
                assert recs[f - 1].error_prob == error_prob(code, f, MAIN)

    @pytest.mark.parametrize("alpha", [0.5, 1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_select_f_leakage_is_leakage_bit_for_bit(self, kind, alpha):
        # the full scan scores every dither by the per-dither reference;
        # leakage() takes its one dither through the compact table
        got, want = [], []
        for code in cross_path_codes(kind):
            _, recs = select_f_reference(code, MAIN, EVE, alpha)
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


def counted_miss_kernel(monkeypatch):
    """Patch ``wiretap._miss_kernel`` with a wrapper that counts its calls;
    returns the one-element call count list."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return _miss_kernel(*args)

    monkeypatch.setattr(wiretap, "_miss_kernel", counting)
    return calls


def assert_matches_full_scan(code, main, eve, alpha):
    """select_f gives the full scan's f* and that dither's leakage and
    error bit for bit; returns the populated dither count."""
    f_star, rec = select_f(code, main, eve, alpha)
    ref_f, recs = select_f_reference(code, main, eve, alpha)
    ref = recs[ref_f - 1]
    assert (f_star, rec.leakage.hex(), rec.error_prob.hex()) == \
        (ref_f, ref.leakage.hex(), ref.error_prob.hex())
    assert rec == ref
    return len(set(code.f_label.tolist()))


class TestPrunedSelection:
    @pytest.mark.parametrize("alpha", [0.5, 1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_matches_full_scan_reference(self, kind, alpha):
        # seeded codes and the hand-built symmetric tie through BSC(0.3),
        # and through BSC(0.5), where every dither leaks 0 up to rounding
        # and the scores tie at the error
        flat = Channel.bsc(0.5, ("a", "b"))
        if kind == "deterministic":
            ts = typical_set(Pmf(("a", "b"), (0.6, 0.4)), 6, 0.9)
            codes = [build_code(ts, 0.25, 0.5, seed) for seed in range(3)]
            codes += [build_code(typical_set(UNIFORM2, 4, 0.9), 0.0, 0.25, seed)
                      for seed in range(3)]
            codes.append(hand_code(typical_set(UNIFORM2, 2, 0.9),
                                   [1, 2, 1, 2], [1, 1, 2, 2], 2, 2))
        else:
            j = JointPmf(("u0", "u1"), ("a", "b"), [[0.30, 0.20], [0.15, 0.35]])
            codes = [build_code(joint_typical_set(j, n, 0.5), 0.25, 0.5, seed)
                     for n in (3, 4) for seed in range(3)]
        for code in codes:
            for eve in (EVE, flat):
                assert assert_matches_full_scan(code, MAIN, eve, alpha) > 1

    def test_scores_under_half_of_populated_dithers(self, monkeypatch):
        # criterion 8's first below-threshold code at n = 10: 74 populated
        # dithers, of which the leakage order leaves few worth an error score
        uniform = Pmf.uniform(["a", "b"])
        main, eve = Channel.bsc(0.1, ("a", "b")), Channel.bsc(0.3, ("a", "b"))
        r2 = conditional_entropy(main.joint(uniform).swapped()) + 0.15
        r1 = cond_renyi_entropy(eve.joint(uniform), 2) - 0.15 - r2
        code = build_code(typical_set(uniform, 10, 0.6), r1, r2,
                          derive_seed(0, "bench:below:n=10", 0))
        calls = counted_miss_kernel(monkeypatch)
        select_f(code, main, eve, 2)
        scored = calls[0]
        monkeypatch.undo()
        populated = assert_matches_full_scan(code, main, eve, 2)
        assert populated == 74
        assert 1 <= scored and 2 * scored < populated

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_stochastic_single_config_scores_every_dither(self, monkeypatch, n):
        # the stochastic sweep of r1 = r2 = 0.2 at order infinity through
        # BSC(0.1) / BSC(0.3), config seed 1545220602: m2 <= 3 dithers, and
        # none of them is left unscored (other seeds skip one now and then)
        ux = JointPmf(("u0", "u1"), ("a", "b"), [[0.3125, 0.125], [0.1875, 0.375]])
        main, eve = Channel.bsc(0.1, ("a", "b")), Channel.bsc(0.3, ("a", "b"))
        code = build_code(joint_typical_set(ux, n, 0.3), 0.2, 0.2,
                          derive_seed(1545220602, f"wiretap:n={n}", 0))
        calls = counted_miss_kernel(monkeypatch)
        select_f(code, main, eve, math.inf)
        scored = calls[0]
        monkeypatch.undo()
        assert code.m2 <= 3
        assert scored == assert_matches_full_scan(code, main, eve, math.inf)


Z_EVE = Channel(("a", "b"), ("y", "z"), [[1.0, 0.0], [0.25, 0.75]])
ERASURE_EVE = Channel(("a", "b"), ("0", "e", "1"), [[0.6, 0.4, 0.0], [0.0, 0.4, 0.6]])


class TestSharedRows:
    @pytest.mark.parametrize("alpha", [1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_shared_rows_change_nothing(self, kind, alpha):
        # the three codes share one source: main rows of their scored
        # dithers built once for all of them with each code's first dither
        # scored, and the full main table with the identity map and no
        # dither scored, each give the standalone selection and the full
        # scan's f* record
        codes = cross_path_codes(kind)
        source = codes[0].source
        assert all(code.source is source for code in codes)
        leakages = _dither_leakages(codes, EVE, _leakage_kernel(codes[0], EVE, check_alpha(alpha)))
        main_rows, slot, firsts = _scored_main_rows(source, MAIN, list(zip(codes, leakages)))
        full = _likelihood_rows(source, MAIN)
        every = np.arange(full.shape[0])
        for code, leaks, first in zip(codes, leakages, firsts):
            f_star, recs = select_f_reference(code, MAIN, EVE, alpha)
            want = (f_star, recs[f_star - 1])
            assert select_f(code, MAIN, EVE, alpha, shared=(leaks, main_rows, slot, first)) == want
            assert select_f(code, MAIN, EVE, alpha, shared=(leaks, full, every, {})) == want
            assert select_f(code, MAIN, EVE, alpha) == want

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
        # the stacks that _dither_leakages hands the kernel hold every
        # occupied (f, m) cell in (k, f, m) order, k the dither's occupied
        # cell count, one (dithers, k, k^n) stack per k in increasing k, and
        # each cell is np.add.at's over the reference's restricted weights,
        # as int64 bit patterns; at 1 the eve rows come one member per
        # block and the adds one row per chunk.  No table takes the
        # per-table call, every value equals the per-dither reference bit
        # for bit, and at INFINITY the one-shot divergence of the full
        # (m1, k^n) table too.  At the integer orders the full table's
        # m1 - k zero rows are (m1 - k) k^n terms, which the compact table
        # adds as one product, so there the two agree within 2e-15
        # relative.  The cross-path codes occupy every cell; the 4 x 4
        # grids on 16 members give dithers of 1 to 4 occupied cells
        monkeypatch.setattr(wiretap, "BLOCK_CELLS", block_cells)
        monkeypatch.setattr(wiretap, "ADD_CELLS", min(ADD_CELLS, block_cells))
        stacks = []
        counts = counted_table_calls(monkeypatch, stacks)
        codes = cross_path_codes("deterministic") + cross_path_codes("stochastic")
        codes += [build_code(codes[0].source, 0.5, 0.5, seed) for seed in range(3)]
        for eve in (EVE, Z_EVE, ERASURE_EVE):
            for code in codes:
                rows = _likelihood_rows(code.source, eve)
                width = rows.shape[1]
                occupied = set(zip(code.f_label.tolist(), code.m_label.tolist()))
                k = Counter(f for f, _ in occupied)
                cells = sorted(occupied, key=lambda fm: (k[fm[0]], fm))
                per_dither = {}
                for f, (pos, weights, _) in dither_leakages_reference(code, eve, 2, rows).items():
                    ref = np.zeros((code.m1, width))
                    np.add.at(ref, code.m_label[pos] - 1, weights[:, None] * rows[pos])
                    per_dither[f] = ref
                target = leakage_target_reference(code, eve)
                for alpha in (2, 3, 5, math.inf):
                    stacks.clear()
                    counts["call"] = 0
                    [got] = _dither_leakages([code], eve, _leakage_kernel(code, eve, alpha))
                    assert counts["call"] == 0
                    groups = sorted(Counter(k.values()).items())
                    assert [stack.shape for stack in stacks] == \
                        [(group, size, width) for size, group in groups]
                    table = np.concatenate([stack.reshape(-1, width) for stack in stacks])
                    assert len(table) == len(cells)
                    for row, (f, m) in zip(table, cells):
                        assert np.array_equal(row.view(np.int64),
                                              per_dither[f][m - 1].view(np.int64))
                    assert sorted(got) == sorted(k)
                    want = dither_leakages_reference(code, eve, alpha, rows)
                    for f, ref in per_dither.items():
                        assert got[f][2] == want[f][2]
                        full = (d_infinity_raw(ref, target) if alpha == math.inf
                                else tsallis_raw(ref, target, alpha))
                        full = wiretap._residue_clamped(full)
                        if alpha == math.inf:
                            assert got[f][2] == full
                        else:
                            assert abs(got[f][2] - full) <= 2e-15 * full
        assert counts["batched"]

    def test_sweep_repeated_n_and_thread_count(self, sweep_dir):
        base, doc = sweep_dir
        cfg = SweepConfig.from_dict(dict(doc, n=[3, 4, 3]), str(base))
        records = sweep_experiment(cfg)
        assert records == sweep_experiment(cfg)
        assert records[6:] == records[:3]
        assert records[:6] == sweep_experiment(SweepConfig.from_dict(doc, str(base)))


class TestCompactTable:
    @pytest.mark.parametrize("kind", ["deterministic-0.6", "deterministic-uniform", "stochastic"])
    def test_dither_leakages_match_reference_on_grid(self, monkeypatch, kind):
        # a source x {BSC, Z-channel with a zero entry, binary erasure with
        # 3 outputs} x 3 rate pairs x 3 seeds x 5 orders: positions,
        # weights and leakages equal the per-dither reference bit for bit,
        # the dithers come in the reference's (leakage, f) order, and both
        # the batched tables and the per-table call ran
        if kind == "deterministic-0.6":
            source = typical_set(Pmf(("a", "b"), (0.6, 0.4)), 6, 0.9)
        elif kind == "deterministic-uniform":
            source = typical_set(UNIFORM2, 7, 0.6)
        else:
            source = joint_typical_set(
                JointPmf(("u0", "u1"), ("a", "b"), [[0.30, 0.20], [0.15, 0.35]]), 4, 0.5)
        counts = counted_table_calls(monkeypatch)
        compared = 0
        for eve in (EVE, Z_EVE, ERASURE_EVE):
            rows = _likelihood_rows(source, eve)
            for r1, r2 in ((0.25, 0.5), (0.1, 0.7), (0.5, 0.25)):
                for seed in range(3):
                    code = build_code(source, r1, r2, seed)
                    for alpha in (0.5, 1.0, 2.0, 3.0, math.inf):
                        [got] = _dither_leakages([code], eve, _leakage_kernel(code, eve, alpha))
                        want = dither_leakages_reference(code, eve, alpha, rows)
                        assert list(got) == sorted(want, key=lambda f: (want[f][2], f))
                        for f, (pos, weights, leak) in got.items():
                            ref_pos, ref_weights, ref_leak = want[f]
                            assert np.array_equal(pos, ref_pos)
                            assert np.array_equal(weights.view(np.int64),
                                                  ref_weights.view(np.int64))
                            assert leak.hex() == ref_leak.hex()
                            compared += 1
        assert compared > 400
        assert counts["batched"] and counts["call"]

    @pytest.mark.parametrize("block_rows", [1, 3, 7, None])
    def test_streamed_leakages_match_reference_across_blocks(self, monkeypatch, block_rows):
        # 3 codes per source, their occupied cells together fewer than the
        # members, so the eve rows stream in blocks of block_rows rows (None:
        # every member's, one build over pos=None) into all three tables:
        # positions, weights and leakages equal the per-dither reference
        # bit for bit at orders 0.5, 1, 2 and inf, for deterministic and
        # stochastic sources through a BSC, a Z-channel and an erasure
        # channel with 3 outputs
        sources = [typical_set(Pmf(("a", "b"), (0.6, 0.4)), n, 0.9) for n in (5, 6)]
        joint = JointPmf(("u0", "u1"), ("a", "b"), [[0.30, 0.20], [0.15, 0.35]])
        sources += [joint_typical_set(joint, n, 0.5) for n in (4, 5)]
        compared = 0
        for source in sources:
            codes = [build_code(source, 0.25, 0.25, seed) for seed in range(3)]
            count = codes[0].member_count
            cells = sum(len(set(zip(c.f_label.tolist(), c.m_label.tolist()))) for c in codes)
            assert cells <= count
            for eve in (EVE, Z_EVE, ERASURE_EVE):
                width = len(eve.out_labels) ** source.n
                monkeypatch.setattr(wiretap, "BLOCK_CELLS", (block_rows or count) * width)
                rows = _likelihood_rows(source, eve)
                for alpha in (0.5, 1.0, 2.0, math.inf):
                    builds = counted_row_builds(monkeypatch, eve)
                    got = _dither_leakages(codes, eve, _leakage_kernel(codes[0], eve, alpha))
                    if block_rows is None:
                        assert builds == [None]
                    else:
                        assert [pos.tolist() for pos in builds] == \
                            [list(range(lo, min(lo + block_rows, count)))
                             for lo in range(0, count, block_rows)]
                    for code, leaks in zip(codes, got):
                        want = dither_leakages_reference(code, eve, alpha, rows)
                        assert list(leaks) == sorted(want, key=lambda f: (want[f][2], f))
                        for f, (pos, weights, leak) in leaks.items():
                            ref_pos, ref_weights, ref_leak = want[f]
                            assert np.array_equal(pos, ref_pos)
                            assert np.array_equal(weights.view(np.int64),
                                                  ref_weights.view(np.int64))
                            assert leak.hex() == ref_leak.hex()
                            compared += 1
        assert compared == 396

    def test_stochastic_union_table_built_once_across_blocks(self, monkeypatch):
        # 3 stochastic codes streamed 3 eve rows per block: one
        # log-likelihood table over every member's x set serves all ten
        # blocks, and the rows each block adds are the per-u kernel's bit
        # for bit
        joint = JointPmf(("u0", "u1"), ("a", "b"), [[0.30, 0.20], [0.15, 0.35]])
        source = joint_typical_set(joint, 5, 0.5)
        codes = [build_code(source, 0.25, 0.25, seed) for seed in range(3)]
        width = len(ERASURE_EVE.out_labels) ** source.n
        monkeypatch.setattr(wiretap, "BLOCK_CELLS", 3 * width)
        builds = []

        def counted(*args, **kwargs):
            builds.append(args[1].shape[0])
            return _channel_log_likelihoods(*args, **kwargs)
        monkeypatch.setattr(wiretap, "_channel_log_likelihoods", counted)
        added = {}
        add = wiretap._LeakageTable.add

        def recording(self, lo, rows):
            added[lo] = rows.copy()
            return add(self, lo, rows)
        monkeypatch.setattr(wiretap._LeakageTable, "add", recording)
        _dither_leakages(codes, ERASURE_EVE, _leakage_kernel(codes[0], ERASURE_EVE, 2.0))
        members = source.u_set.members
        union = np.unique(np.concatenate(source.x_members))
        assert builds == [union.size]
        assert sorted(added) == list(range(0, members.size, 3)) and len(added) == 10
        got = np.concatenate([added[lo] for lo in sorted(added)])
        want = np.stack([s_kernel_row_reference(source, ERASURE_EVE, int(u)) for u in members])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_codes_with_more_cells_than_members_take_one_block(self, monkeypatch):
        # 3 codes of 6 x 6 grids on 32 members: their occupied cells
        # outnumber the members, so the eve rows are one build over every
        # member even at one row per block, and each code's table is made,
        # reduced and dropped in turn
        source = typical_set(Pmf(("a", "b"), (0.6, 0.4)), 5, 0.9)
        codes = [build_code(source, 0.5, 0.5, seed) for seed in range(3)]
        assert sum(len(set(zip(c.f_label.tolist(), c.m_label.tolist()))) for c in codes) > 32
        monkeypatch.setattr(wiretap, "BLOCK_CELLS", 1)
        builds = counted_row_builds(monkeypatch, EVE)
        got = _dither_leakages(codes, EVE, _leakage_kernel(codes[0], EVE, 2.0))
        monkeypatch.undo()
        assert builds == [None]
        rows = _likelihood_rows(source, EVE)
        for code, leaks in zip(codes, got):
            want = dither_leakages_reference(code, EVE, 2.0, rows)
            assert {f: leak.hex() for f, (_, _, leak) in leaks.items()} == \
                {f: leak.hex() for f, (_, _, leak) in want.items()}

    def test_size_guard_covers_every_member_before_any_block(self, monkeypatch, sweep_dir):
        # 16 members x 16 outputs is one cell over the guard while a block
        # of 3 rows is far below it: no eve row is built and the sweep
        # exits 3 with the guard's message, as a one-block build would
        source = typical_set(UNIFORM2, 4, 0.9)
        code = build_code(source, 0.25, 0.25, 0)
        assert code.member_count * 2 ** 4 == 256
        monkeypatch.setattr(wiretap, "BLOCK_CELLS", 3 * 2 ** 4)
        monkeypatch.setattr(wiretap, "MATRIX_GUARD", 255)
        builds = counted_row_builds(monkeypatch, EVE)
        with pytest.raises(GuardError, match="likelihood matrix exceeds the size guard"):
            _dither_leakages([code], EVE, _leakage_kernel(code, EVE, 2.0))
        assert builds == []
        base, doc = sweep_dir
        (base / "uniform.json").write_text(json.dumps({"labels": ["a", "b"], "probs": [0.5, 0.5]}))
        (base / "guard.json").write_text(json.dumps(dict(doc, n=[4], source="uniform.json",
                                                         codes=1)))
        assert cli.main(["wiretap", "--config", str(base / "guard.json")]) == 3

    def test_dither_leakages_peak_memory(self):
        # criterion 8's below-threshold code at n = 11 (113 dithers in 226
        # occupied cells of 2,048 outputs, a 3.5 MiB table): the
        # tracemalloc peak above the start is 15.2 MiB, the table, one
        # block of BLOCK_CELLS eve row cells (8 MiB) and 3.6 MiB of the
        # block's row build (its prefix levels), the index arrays and two
        # chunks of ADD_CELLS floats; the leakages of the full 32 MiB eve
        # table peaked at 4.7 MiB above that table
        uniform = Pmf.uniform(["a", "b"])
        eve = Channel.bsc(0.3, ("a", "b"))
        ts = typical_set(uniform, 11, 0.6)
        code = build_code(ts, 0.017, 0.619, derive_seed(0, "wiretap:n=11", 0))
        kernel = _leakage_kernel(code, eve, 2.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            [leaks] = _dither_leakages([code], eve, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = len(set(zip(code.f_label.tolist(), code.m_label.tolist())))
        assert len(leaks) == 113 and cells == 226
        assert peak - base <= (cells * 2 ** 11 + BLOCK_CELLS) * 8 + 4 * 2 ** 20


def counted_row_builds(monkeypatch, channel):
    """Patch ``wiretap._likelihood_rows`` with a wrapper that records the
    positions of every build through ``channel``; returns that list."""
    builds = []

    def recording(source, ch, pos=None, out=None, union=None):
        if ch is channel:
            builds.append(pos)
        return _likelihood_rows(source, ch, pos, out, union)

    monkeypatch.setattr(wiretap, "_likelihood_rows", recording)
    return builds


class TestScoredMainRows:
    def test_n11_step_builds_main_rows_of_candidate_dithers_only(self, monkeypatch):
        # criterion 8's below-threshold code at n = 11 (the step of
        # test_n11_step_peak_memory): the main rows come from two builds,
        # the first dither in (leakage, f) order and then every dither
        # whose leakage is within its score plus RESIDUE, here 27 + 152 of
        # 2,048 members; the bound is taken from per-dither references
        uniform = Pmf.uniform(["a", "b"])
        main, eve = Channel.bsc(0.1, ("a", "b")), Channel.bsc(0.3, ("a", "b"))
        cfg = SweepConfig((11,), 0.017, 0.619, 2.0, "deterministic", 1, 0, 0.6, uniform,
                          main, eve)
        ts = typical_set(uniform, 11, 0.6)
        builds = counted_row_builds(monkeypatch, main)
        [record] = wiretap._run_codes(cfg, ts, 11)
        monkeypatch.undo()
        code = build_code(ts, cfg.r1, cfg.r2, derive_seed(0, "wiretap:n=11", 0))
        leaks = dither_leakages_reference(code, eve, 2.0, _likelihood_rows(ts, eve))
        first, (first_pos, _, first_leak) = min(leaks.items(), key=lambda kv: (kv[1][2], kv[0]))
        bound = (first_leak + error_prob(code, first, main)) + wiretap.RESIDUE
        candidates = np.concatenate([pos for pos, _, leak in leaks.values() if leak <= bound])
        assert [pos.size for pos in builds] == [27, 152]
        assert np.array_equal(builds[0], np.sort(first_pos))
        built = np.concatenate(builds)
        assert np.array_equal(np.sort(built), np.sort(candidates))
        f_star, recs = select_f_reference(code, main, eve, 2.0)
        assert (record.f_star, record.leakage, record.error_prob) == \
            (f_star, recs[f_star - 1].leakage, recs[f_star - 1].error_prob)

    def test_empty_second_build_is_skipped(self, monkeypatch):
        # the stochastic wiretap-single code at n = 4, config seed
        # 1818613427: the first dither's score bounds out the other one, so
        # no second build runs (a build over no members has no x sets)
        ux = JointPmf(("u0", "u1"), ("a", "b"), [[0.3125, 0.125], [0.1875, 0.375]])
        main, eve = Channel.bsc(0.1, ("a", "b")), Channel.bsc(0.3, ("a", "b"))
        code = build_code(joint_typical_set(ux, 4, 0.3), 0.2, 0.2,
                          derive_seed(1818613427, "wiretap:n=4", 0))
        builds = counted_row_builds(monkeypatch, main)
        f_star, rec = select_f(code, main, eve, math.inf)
        monkeypatch.undo()
        assert code.m2 == 2 and len(builds) == 1
        assert builds[0].size < code.member_count
        ref_f, recs = select_f_reference(code, main, eve, math.inf)
        assert (f_star, rec) == (ref_f, recs[ref_f - 1])

    def test_visited_dither_without_row_raises(self):
        # one message through BSC(0.5): every dither leaks 0, so selection
        # visits them all, the lowest f first; with rows built for that
        # dither alone the second one visited has members whose slot is -1
        ts = typical_set(UNIFORM2, 4, 0.9)
        code = build_code(ts, 0.0, 0.25, 0)
        flat = Channel.bsc(0.5, ("a", "b"))
        [leaks] = _dither_leakages([code], flat, _leakage_kernel(code, flat, 2.0))
        assert len(leaks) > 1 and not any(leak for _, _, leak in leaks.values())
        first = leaks[min(leaks)][0]
        slot = np.full(code.member_count, -1)
        slot[first] = np.arange(first.size)
        rows = _likelihood_rows(ts, MAIN, first)
        for shared in ((leaks, rows, slot, {}), (leaks, rows[:0], np.full(code.member_count, -1), {})):
            with pytest.raises(ValueError, match="without a main likelihood row"):
                select_f(code, MAIN, flat, 2.0, shared=shared)

    def test_main_phase_peak_memory(self):
        # criterion 8's below-threshold code at n = 11: the tracemalloc
        # peak of its main phase (_scored_main_rows, then select_f) above
        # its start is 5.07 MiB, while the second build writes into the
        # 179 rows (2.80 MiB) next to the first build's 27; joining the
        # two builds by a copy peaked at 5.61, and the full 2,048-row main
        # table at 35.57
        uniform = Pmf.uniform(["a", "b"])
        main, eve = Channel.bsc(0.1, ("a", "b")), Channel.bsc(0.3, ("a", "b"))
        ts = typical_set(uniform, 11, 0.6)
        code = build_code(ts, 0.017, 0.619, derive_seed(0, "wiretap:n=11", 0))
        [leaks] = _dither_leakages([code], eve, _leakage_kernel(code, eve, 2.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows, slot, [first] = _scored_main_rows(ts, main, [(code, leaks)])
            select_f(code, main, eve, 2.0, shared=(leaks, rows, slot, first))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (179, 2 ** 11)
        assert peak - base <= 6.3 * 2 ** 20


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
        # every record must be that of build_code plus a full-scan
        # selection of its own
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
                f_star, recs = select_f_reference(code, cfg.main, cfg.eve, alpha)
                want.append((code.seed, f_star, recs[f_star - 1].leakage.hex(),
                             recs[f_star - 1].error_prob.hex(), code.discards))
        got = [(r.code_seed, r.f_star, r.leakage.hex(), r.error_prob.hex(), r.discards)
               for r in records]
        assert got == want
        assert len({f for _, f, *_ in got}) > 1

    def test_n11_step_peak_memory(self):
        # criterion 8's below-threshold code at n = 11 (2,048 members, a
        # 32 MiB eve likelihood table if built whole): with the eve rows
        # streamed in 8 MiB blocks into the 3.5 MiB compact table the
        # step's tracemalloc peak above its start is 16.0 MiB; building the
        # whole eve table first it was 37.5, and holding the eve and main
        # rows together 75.6
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
        assert peak - base <= 17 * 2 ** 20

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
