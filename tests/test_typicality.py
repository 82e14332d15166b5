import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

from helpers import (
    channel_log_likelihoods_reference,
    dyadic_joint,
    joint_typical_oracle,
    joint_typical_reference,
    random_pmf,
    run_capped,
    s_kernel_row_reference,
)
from osrb_lab import typicality
from osrb_lab.measures import Channel, GuardError, JointPmf, Pmf
from osrb_lab.typicality import (
    EmptyTypicalSetError,
    _channel_log_likelihoods,
    _typical_count_rows,
    index_digits,
    joint_typical_set,
    typical_set,
)
from osrb_lab.wiretap import _likelihood_rows


class TestIndexing:
    def test_digits_msb_first(self):
        digits = index_digits(np.array([6]), 2, 3)
        assert digits.tolist() == [[1, 1, 0]]

    def test_round_trip(self, rng):
        for k, n in [(2, 5), (3, 4), (4, 3)]:
            idx = rng.integers(0, k ** n, size=20)
            digits = index_digits(idx, k, n)
            back = (digits @ k ** np.arange(n - 1, -1, -1)).tolist()
            assert back == idx.tolist()


def window_brute_force(p: float, n: int, eps: float) -> list[bool]:
    """|c - n p| < n eps for c = 0..n, one Fraction comparison per count."""
    return [abs(c - n * Fraction(p)) < n * Fraction(eps) for c in range(n + 1)]


class TestTypicalWindow:
    @staticmethod
    def allowed(p: float, n: int, eps: float) -> list[bool]:
        # a one-symbol row per count c = 0..n reads the window's table
        counts = np.arange(n + 1, dtype=np.int16)[:, None]
        return _typical_count_rows(counts, np.array([p]), n, eps).tolist()

    @pytest.mark.parametrize("eps", [0.05, 0.15, 0.3, 0.6])
    def test_matches_per_count_fraction_on_seeded_joints(self, eps):
        # the cells of the joint-oracle grid's dyadic joints, at the pair
        # window 2 * eps and at eps, n = 1..12
        rng = np.random.default_rng(2024)
        for ku, kx in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for p in dyadic_joint(rng, ku, kx).probs.ravel().tolist() + [0.0, 1.0]:
                for n in range(1, 13):
                    for e in (eps, 2 * eps):
                        assert self.allowed(p, n, e) == window_brute_force(p, n, e)

    def test_integer_window_ends_stay_excluded(self):
        # p and eps multiples of 1/8 at n = 8k put n p - n eps and n p + n eps
        # on integers, which the strict window leaves out
        edges = 0
        for p in [i / 8 for i in range(9)]:
            for eps in [i / 8 for i in range(1, 9)]:
                for n in (8, 16, 24):
                    want = window_brute_force(p, n, eps)
                    assert self.allowed(p, n, eps) == want
                    lo, hi = n * (p - eps), n * (p + eps)
                    edges += sum(0 <= c <= n and not want[int(c)] for c in (lo, hi))
        assert edges > 100

    def test_rows_need_every_symbol_inside(self):
        counts = np.array([[2, 2], [1, 3], [3, 1], [0, 4]], dtype=np.int16)
        got = _typical_count_rows(counts, np.array([0.5, 0.5]), 4, 0.25)
        assert got.tolist() == [True, False, False, False]

    def test_one_letter_sets_at_a_million_finish_capped(self):
        # the window's ends, not a comparison per count, and no digit loop
        # for a one-letter alphabet: both sets finish well within 2 s
        code = ("from osrb_lab.measures import JointPmf, Pmf\n"
                "from osrb_lab.typicality import joint_typical_set, typical_set\n"
                "ts = typical_set(Pmf(('a',), (1.0,)), 10 ** 6, 0.1)\n"
                "jts = joint_typical_set(JointPmf(('u',), ('x',), [[1.0]]), 10 ** 6, 0.1)\n"
                "print(ts.members.tolist(), ts.mass, jts.x_members[0].tolist())\n")
        proc = run_capped([], code=code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0] 1.0 [0]\n"


class TestTypicalSet:
    def test_binary_balanced_window(self):
        ts = typical_set(Pmf.uniform(["a", "b"]), 2, 0.3)
        assert ts.members.tolist() == [1, 2]  # "ab" and "ba"
        assert np.allclose(np.exp(ts.log_probs), 0.5)
        assert ts.mass == pytest.approx(0.5, abs=1e-12)
        # at eps = 0.5 the counts 0 and 2 sit exactly on the strict bound
        assert typical_set(Pmf.uniform(["a", "b"]), 2, 0.5).members.tolist() == [1, 2]

    def test_vacuous_window_recovers_iid_law(self):
        p = Pmf(("a", "b"), (0.8, 0.2))
        ts = typical_set(p, 3, 0.9)
        assert ts.size == 8
        assert ts.mass == pytest.approx(1.0, abs=1e-12)
        # sequence "aab" has index 1 and iid probability 0.8*0.8*0.2
        assert math.exp(ts.log_probs[ts.position(1)]) == pytest.approx(0.128, abs=1e-12)

    def test_point_mass_sequence_index(self):
        ts = typical_set(Pmf(("a", "b"), (0.05, 0.95)), 4, 0.1)
        assert ts.members.tolist() == [15]  # "bbbb"
        assert ts.log_probs.tolist() == [0.0]

    def test_empty_window_raises(self):
        with pytest.raises(EmptyTypicalSetError):
            typical_set(Pmf(("a", "b"), (0.9, 0.1)), 3, 0.05)

    def test_tilted_law_normalized(self, rng):
        for _ in range(10):
            p = random_pmf(rng, 3)
            try:
                ts = typical_set(p, 5, 0.2)
            except EmptyTypicalSetError:
                continue
            assert logsumexp(ts.log_probs) == pytest.approx(0.0, abs=1e-12)

    def test_membership_interface(self):
        ts = typical_set(Pmf.uniform(["a", "b"]), 2, 0.3)
        assert 1 in ts
        assert 0 not in ts
        assert ts.position(2) == 1
        with pytest.raises(ValueError):
            ts.position(0)
        # first and last member, a non-member between two members, and
        # values below, at and far beyond the index range 0..k^n - 1
        ts = typical_set(Pmf.uniform(["a", "b"]), 4, 0.2)
        assert ts.members.tolist() == [3, 5, 6, 9, 10, 12]
        assert ts.position(3) == 0 and ts.position(12) == 5
        for outside in (7, -1, 2 ** 4, 2 ** 70):
            assert outside not in ts
            with pytest.raises(ValueError):
                ts.position(outside)

    def test_mass_grows_along_doubling_blocklengths(self):
        # the window is fixed; over n in {4, 8, 16} the captured mass rises
        p = Pmf(("a", "b"), (0.8, 0.2))
        masses = [typical_set(p, n, 0.1).mass for n in (4, 8, 16)]
        assert masses[0] < masses[1] < masses[2]

    def test_guard_on_sequence_count(self):
        with pytest.raises(GuardError):
            typical_set(Pmf.uniform(["a", "b", "c", "d"]), 14, 0.2)

    def test_one_letter_alphabet_counts_beyond_int16(self):
        # the one sequence counts its letter n = 40000 times, past int16
        ts = typical_set(Pmf(("a",), (1.0,)), 40000, 0.1)
        assert ts.members.tolist() == [0]
        assert ts.log_probs.tolist() == [0.0]
        assert ts.mass == 1.0


def diag_joint():
    return JointPmf(("u0", "u1"), ("x0", "x1"), [[0.5, 0.0], [0.0, 0.5]])


class TestJointTypicalSet:
    def test_copy_channel_diagonal_pairs(self):
        jts = joint_typical_set(diag_joint(), 2, 0.2)
        assert [xs.size for xs in jts.x_members] == [1, 1]
        pairs, log_probs = set(), []
        for u, lu in zip(jts.u_set.members, jts.u_set.log_probs):
            xs, lx = jts.conditional(int(u))
            pairs.update((int(u), int(x)) for x in xs)
            log_probs.extend(lu + lx)
        assert pairs == {(1, 1), (2, 2)}
        assert logsumexp(log_probs) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_laws_normalized(self):
        j = JointPmf(("u0", "u1"), ("x0", "x1"),
                     [[0.30, 0.20], [0.15, 0.35]])
        jts = joint_typical_set(j, 4, 0.4)
        for u in jts.u_set.members:
            xs, logs = jts.conditional(int(u))
            assert xs.size > 0
            assert logsumexp(logs) == pytest.approx(0.0, abs=1e-10)

    def test_one_letter_alphabets_count_beyond_int16(self):
        jts = joint_typical_set(JointPmf(("u",), ("x",), [[1.0]]), 40000, 0.1)
        assert jts.u_set.members.tolist() == [0]
        xs, logs = jts.conditional(0)
        assert xs.tolist() == [0]
        assert logs.tolist() == [0.0]

    def test_empty_conditional_raises(self):
        # the U marginal is (2/3, 1/3) so c_u0 = 2 is typical at n = 3 for
        # any eps, but the u1 row splits its mass 50/50 and a single slot
        # cannot sit within the 2*eps pair window when eps is small
        j = JointPmf(("u0", "u1"), ("x0", "x1"),
                     [[1 / 3, 1 / 3], [1 / 6, 1 / 6]])
        with pytest.raises(EmptyTypicalSetError, match="conditionally typical"):
            joint_typical_set(j, 3, 0.08)


class TestJointTypicalOracle:
    @pytest.mark.parametrize("eps", [0.05, 0.15, 0.3, 0.6])
    def test_matches_fraction_brute_force(self, eps):
        # seeded dyadic joints, the second of each shape with a zero cell;
        # members and conditional laws against exhaustive pair enumeration
        rng = np.random.default_rng(2024)
        built = 0
        for ku, kx in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for zero_cell in (False, True):
                probs = dyadic_joint(rng, ku, kx).probs.copy()
                if zero_cell:
                    probs[0, 1] += probs[0, 0]
                    probs[0, 0] = 0.0
                j = JointPmf(tuple(f"u{i}" for i in range(ku)),
                             tuple(f"x{i}" for i in range(kx)), probs)
                for n in range(1, 4 if ku * kx == 9 else 5):
                    want = joint_typical_oracle(j, n, eps)
                    if want is None:
                        with pytest.raises(EmptyTypicalSetError):
                            joint_typical_set(j, n, eps)
                        continue
                    jts = joint_typical_set(j, n, eps)
                    assert jts.u_set.members.tolist() == sorted(want)
                    for u, xs, logs in zip(jts.u_set.members, jts.x_members,
                                           jts.x_log_probs):
                        want_xs, want_law = want[int(u)]
                        assert xs.tolist() == want_xs
                        for got, expect in zip(np.exp(logs).tolist(), want_law):
                            assert math.isclose(got, expect, rel_tol=1e-12)
                    built += 1
        assert built > 0


class TestJointTypicalReference:
    @pytest.mark.parametrize("eps", [0.05, 0.15, 0.3, 0.6])
    def test_pair_sequence_build_matches_per_u_loop(self, eps):
        # seeded joints, the second of each shape with a zero cell, at
        # blocklengths past the Fraction oracle's; log laws as bit patterns
        rng = np.random.default_rng(77)
        built = 0
        for (ku, kx), n_max in [((2, 2), 8), ((2, 3), 6), ((3, 2), 6), ((3, 3), 5)]:
            for zero_cell in (False, True):
                probs = rng.dirichlet(np.ones(ku * kx)).reshape(ku, kx)
                if zero_cell:
                    probs[0, 1] += probs[0, 0]
                    probs[0, 0] = 0.0
                j = JointPmf(tuple(f"u{i}" for i in range(ku)),
                             tuple(f"x{i}" for i in range(kx)), probs)
                for n in range(1, n_max + 1):
                    try:
                        want = joint_typical_reference(j, n, eps)
                    except EmptyTypicalSetError:
                        with pytest.raises(EmptyTypicalSetError):
                            joint_typical_set(j, n, eps)
                        continue
                    got = joint_typical_set(j, n, eps)
                    assert np.array_equal(got.u_set.members, want.u_set.members)
                    assert len(got.x_members) == len(want.x_members)
                    for a, b in zip(got.x_members, want.x_members):
                        assert np.array_equal(a, b)
                    for a, b in zip(got.x_log_probs, want.x_log_probs):
                        assert np.array_equal(a.view(np.int64), b.view(np.int64))
                    built += 1
        assert built > 0


class TestSmoothedKernel:
    def test_rows_are_distributions(self):
        j = JointPmf(("u0", "u1"), ("x0", "x1"),
                     [[0.30, 0.20], [0.15, 0.35]])
        jts = joint_typical_set(j, 3, 0.5)
        ch = Channel(("x0", "x1"), ("z0", "z1"), [[0.8, 0.2], [0.2, 0.8]])
        for row in _likelihood_rows(jts, ch):
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert row.min() >= 0.0

    def test_single_letter_matches_matrix_product(self):
        # with a vacuous window at n=1 the kernel is p(x|u) composed with
        # the channel, i.e. a plain matrix product
        j = JointPmf(("u0", "u1"), ("x0", "x1"),
                     [[0.30, 0.20], [0.15, 0.35]])
        jts = joint_typical_set(j, 1, 0.95)
        ch = Channel(("x0", "x1"), ("z0", "z1"), [[0.9, 0.1], [0.25, 0.75]])
        pu, cond_rows = j.row_conditionals()
        expected = cond_rows @ ch.rows
        assert jts.u_set.members.tolist() == [0, 1]
        assert np.allclose(_likelihood_rows(jts, ch), expected, atol=1e-12)

    def test_output_alphabet_guard(self):
        # 4^11 output sequences exceed the 2^20 guard
        jts = joint_typical_set(JointPmf(("u0",), ("x0", "x1"), [[0.5, 0.5]]), 11, 0.9)
        ch = Channel(("x0", "x1"), ("z0", "z1", "z2", "z3"), np.full((2, 4), 0.25))
        with pytest.raises(GuardError):
            _likelihood_rows(jts, ch)


class TestChannelLikelihoods:
    def test_prefix_extension_matches_per_position_reference(self):
        # seeded channels with k_in != k_out and zeroed entries (log -inf),
        # for 0, 1 and many input rows; compared as int64 bit patterns
        rng = np.random.default_rng(909)
        compared = 0
        for k_in, k_out in [(2, 3), (3, 2), (4, 5), (2, 2)]:
            for n in range(1, 9):
                out_count = k_out ** n
                if out_count > 7000:
                    continue
                rows = rng.dirichlet(np.ones(k_out), size=k_in)
                zero = rng.random(rows.shape) < 0.3
                zero[np.arange(k_in), rng.integers(k_out, size=k_in)] = False
                rows = np.where(zero, 0.0, rows)
                ch = Channel(tuple(f"x{i}" for i in range(k_in)),
                             tuple(f"z{i}" for i in range(k_out)),
                             rows / rows.sum(axis=1, keepdims=True))
                for count in (0, 1, 40):
                    digits = rng.integers(0, k_in, size=(count, n))
                    got = _channel_log_likelihoods(ch, digits, out_count, n)
                    want = channel_log_likelihoods_reference(ch, digits, out_count, n)
                    assert got.shape == (count, out_count)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                    compared += 1
        assert compared == 3 * 29

    @pytest.mark.parametrize("gather", [typicality.GATHER_CELLS, 4])
    @pytest.mark.parametrize("k_in, k_out", [(1, 3), (3, 1), (1, 1)])
    def test_one_letter_alphabets_match_per_position_reference(self, monkeypatch,
                                                                k_in, k_out, gather):
        # one input letter makes one prefix per level, one output letter
        # makes each letter's add cover whole rows; a gather of 4 cells
        # splits the last level into many blocks, the final one partial
        monkeypatch.setattr(typicality, "GATHER_CELLS", gather)
        rng = np.random.default_rng(1801)
        rows = rng.dirichlet(np.ones(k_out), size=k_in)
        if k_out > 1:
            rows[0, 1] = 0.0
        ch = Channel(tuple(f"x{i}" for i in range(k_in)),
                     tuple(f"z{i}" for i in range(k_out)),
                     rows / rows.sum(axis=1, keepdims=True))
        for n in range(1, 7):
            out_count = k_out ** n
            for count in (0, 1, 40):
                digits = rng.integers(0, k_in, size=(count, n))
                got = _channel_log_likelihoods(ch, digits, out_count, n)
                want = channel_log_likelihoods_reference(ch, digits, out_count, n)
                assert got.shape == (count, out_count)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_unsorted_repeated_rows_share_prefixes(self):
        # 600 rows drawn from 40 ternary sequences, unsorted and repeated,
        # so the prefix table is shared at every depth; rows come back in
        # input order, bit for bit the per-position sum
        rng = np.random.default_rng(1602)
        n = 7
        ch = Channel(("x0", "x1", "x2"), ("z0", "z1", "z2"),
                     [[0.7, 0.3, 0.0], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        pool = rng.integers(0, 3, size=(40, n))
        digits = pool[rng.integers(0, 40, size=600)]
        assert np.unique(digits[:, :3], axis=0).shape[0] < 27
        got = _channel_log_likelihoods(ch, digits, 3 ** n, n)
        want = channel_log_likelihoods_reference(ch, digits, 3 ** n, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rejects_output_count_of_another_blocklength(self):
        ch = Channel(("x0", "x1"), ("z0", "z1", "z2"), np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError, match="output count"):
            _channel_log_likelihoods(ch, np.zeros((2, 3), dtype=np.int64), 3 ** 4, 3)
