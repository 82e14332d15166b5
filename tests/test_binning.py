import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    dyadic_joint,
    enum_reference,
    exact_mean_oracle,
    exact_mean_reference,
    mc_reference,
    order_two_transition_problems,
    random_joint,
)
from osrb_lab.measures import GuardError, JointPmf, cond_renyi_entropy
from osrb_lab.binning import (
    _KronTables,
    _aggregate,
    _exact_terms,
    _kron_power,
    bin_cumulant_coefficients,
    derive_seed,
    expected_divergence_enum,
    expected_divergence_mc,
    expected_tsallis_exact_iid,
    m_from_rate,
    philox_rng,
    set_partitions,
)

FLIP = JointPmf(("x0", "x1"), ("z0", "z1"),
                np.array([[0.75, 0.25], [0.25, 0.75]]) * 0.5)
ENUM_ALPHAS = (0.5, 1.0, 1.0 + 5e-7, 2.0, 3.0, 7.5, math.inf)
# blocklengths of the benchmark's exact jobs (perfbench/workloads.py EXACT_N)
EXACT_N = list(range(1, 17)) + [20, 24, 32, 40, 48, 64, 80, 96, 128, 160, 192, 256, 320]


class TestSampling:
    def test_derive_seed_distinct_labels(self):
        seeds = {derive_seed(1, "a", i) for i in range(10)}
        seeds |= {derive_seed(1, "b", i) for i in range(10)}
        assert len(seeds) == 20
        assert derive_seed(1, "a", 3) == derive_seed(1, "a", 3)

    def test_philox_streams_differ(self):
        a = philox_rng(1, 0).integers(0, 1 << 30, size=4)
        b = philox_rng(1, 1).integers(0, 1 << 30, size=4)
        assert not np.array_equal(a, b)

    def test_m_from_rate_ceiling(self):
        assert m_from_rate(4, 0.5) == 4
        assert m_from_rate(3, 0.5) == 3  # ceil(2^1.5)
        assert m_from_rate(5, 0.0) == 1
        with pytest.raises(ValueError, match="rate must be >= 0"):
            m_from_rate(3, math.nan)


class TestInduced:
    def test_single_bin_divergence_zero(self, rng):
        j = random_joint(rng, 3, 2)
        assert expected_divergence_enum(j, 1, 1, 2.0) == 0.0
        assert expected_divergence_enum(j, 1, 1, math.inf) == 0.0

    def test_matches_direct_formula(self, rng):
        # order 2, three items in two bins: the mean of the direct sum
        # over all 2^3 binnings
        j = random_joint(rng, 3, 2)
        ref = j.probs.sum(axis=0) / 2.0
        direct = []
        for labels in itertools.product(range(2), repeat=3):
            agg = np.zeros((2, 2))
            for i, lab in enumerate(labels):
                agg[lab] += j.probs[i]
            direct.append(sum(agg[m, z] ** 2 / ref[z]
                              for m in range(2) for z in range(2) if ref[z] > 0) - 1.0)
        mean = math.fsum(direct) / len(direct)
        assert expected_divergence_enum(j, 1, 2, 2.0) == pytest.approx(mean, rel=1e-12)

    def test_table_is_item_order_sum_bit_for_bit(self):
        # non-dyadic rows summed in another order (a one-hot matmul, say)
        # round differently in the low bits of many cells
        j = random_joint(np.random.default_rng(0), 3, 2).product_power(6)
        m = 132
        assignment = philox_rng(0, 0).integers(1, m + 1, size=j.shape[0], dtype=np.int64)
        agg = [[0.0] * j.shape[1] for _ in range(m)]
        for row, lab in zip(j.probs.tolist(), assignment.tolist()):
            for z, p in enumerate(row):
                agg[lab - 1][z] += p
        got = _aggregate((assignment - 1)[None], j.probs, m)
        assert got.shape == (1, m, j.shape[1])
        assert np.array_equal(got[0], np.array(agg))

    @pytest.mark.parametrize("case", range(7))
    def test_enum_matches_one_shot_reference_bit_for_bit(self, case):
        # FLIP and six seeded two-letter joints, the last three with a zero
        # cell and case 5 also with a zero column, so that its reference
        # has a zero: at n = 1..3, m = 1..3 and seven orders the mean is
        # .hex()-equal to the one-shot divergence of every binning's table,
        # summed and divided as enum does.  The 3^8 binnings of n = 3,
        # m = 3 run on FLIP only, to keep the test short.  A three-letter
        # joint at n = 3 raises the same guard error on both
        j = FLIP
        if case:
            probs = random_joint(np.random.default_rng([25, case]), 2, case % 3 + 2).probs.copy()
            if case >= 4:
                probs[case % 2, 0] = 0.0
            if case == 5:
                probs[:, -1] = 0.0
            j = JointPmf(FLIP.row_labels, tuple(f"z{i}" for i in range(probs.shape[1])),
                         probs / probs.sum())
        for n, m, alpha in itertools.product((1, 2, 3), (1, 2, 3), ENUM_ALPHAS):
            if case and (n, m) == (3, 3):
                continue
            want = enum_reference(j, n, m, alpha)
            assert expected_divergence_enum(j, n, m, alpha).hex() == want.hex(), (n, m, alpha)
        big = JointPmf(("x0", "x1", "x2"), ("z0", "z1"), np.full((3, 2), 1 / 6))
        for m in (2, 3):
            with pytest.raises(GuardError):
                enum_reference(big, 3, m, 2.0)
            with pytest.raises(GuardError):
                expected_divergence_enum(big, 3, m, 2.0)

    @pytest.mark.parametrize("cells", [1, 50, 2 ** 16])
    def test_enum_chunks_change_no_bit(self, monkeypatch, cells):
        # one binning per stack, stacks that end inside a binning's table
        # and the default: the mean is the reference's bit for bit
        monkeypatch.setattr("osrb_lab.binning.ENUM_CELLS", cells)
        j3 = random_joint(np.random.default_rng(11), 3, 2)
        for j, n, m in ((FLIP, 2, 3), (j3, 1, 3), (j3, 2, 2)):
            for alpha in ENUM_ALPHAS:
                want = enum_reference(j, n, m, alpha)
                assert expected_divergence_enum(j, n, m, alpha).hex() == want.hex(), (
                    n, m, alpha)

    @pytest.mark.parametrize("alpha", [0.5, 2, 3, math.inf])
    def test_enum_peak_memory(self, alpha):
        # FLIP at n = 4, m = 2: 65,536 binnings of 32 cells, 16 MiB as one
        # stack; in stacks of ENUM_CELLS cells (512 KiB) with their bin
        # digits and the f-sum's accumulator it stays under 3 MiB
        expected_divergence_enum(FLIP, 1, 2, alpha)
        tracemalloc.start()
        try:
            expected_divergence_enum(FLIP, 4, 2, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20


class TestPartitionMachinery:
    def test_set_partition_bell_numbers(self):
        for k, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(list(set_partitions(k))) == bell

    def test_cumulant_coefficients_closed_forms(self):
        for m in range(1, 12):
            assert bin_cumulant_coefficients(m, 5) == [
                1,
                m - 1,
                (m - 1) * (m - 2),
                (m - 1) * (m * m - 6 * m + 6),
                (m - 1) * (m - 2) * (m * m - 12 * m + 12),
            ]
        assert bin_cumulant_coefficients(2, 4)[3] == -2
        assert bin_cumulant_coefficients(3, 5)[4] == -30


class TestExactExpectation:
    def test_worked_four_binning_case(self):
        # two items, two bins: the four equally likely binnings average to
        # (M - 1) * 2^(-H2) = 0.625 at order two
        assert expected_tsallis_exact_iid(FLIP, 1, 2, 2) == pytest.approx(0.625, abs=1e-12)
        assert expected_divergence_enum(FLIP, 1, 2, 2) == pytest.approx(0.625, abs=1e-12)

    def test_closed_form_order_two(self, rng):
        for _ in range(20):
            j = random_joint(rng, 3, 3)
            for m in (2, 3):
                closed = (m - 1) * 2.0 ** (-cond_renyi_entropy(j, 2))
                assert expected_tsallis_exact_iid(j, 1, m, 2) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    def test_exact_matches_enumeration(self, rng, alpha):
        for _ in range(8):
            j = random_joint(rng, 3, 2)
            for m in (2, 3):
                exact = expected_tsallis_exact_iid(j, 1, m, alpha)
                enum = expected_divergence_enum(j, 1, m, alpha)
                assert exact == pytest.approx(enum, rel=1e-10)

    def test_iid_matches_materialized_product(self, rng):
        for _ in range(5):
            j = random_joint(rng, 2, 2)
            for n in (2, 3):
                jn = j.product_power(n)
                for m in (2, 3):
                    fast = expected_tsallis_exact_iid(j, n, m, 2)
                    slow = expected_tsallis_exact_iid(jn, 1, m, 2)
                    assert fast == pytest.approx(slow, rel=1e-10)

    @pytest.mark.parametrize("gap", [-0.2, 0.2])
    def test_iid_order_two_identity_at_criterion_counts(self, gap):
        # 2^(-H2(X|Z)) = sum_z sum_x p(x,z)^2 / p(z), in exact arithmetic
        p = [[Fraction(3, 8), Fraction(1, 8)], [Fraction(1, 8), Fraction(3, 8)]]
        base = sum(sum(p[x][z] ** 2 for x in range(2)) / sum(p[x][z] for x in range(2))
                   for z in range(2))
        assert base == Fraction(5, 8)
        h2 = cond_renyi_entropy(FLIP, 2)
        for n in range(2, 13):
            m = m_from_rate(n, h2 + gap)
            exact = (m - 1) * base ** n
            assert expected_tsallis_exact_iid(FLIP, n, m, 2) == pytest.approx(
                float(exact), rel=1e-12)

    @pytest.mark.parametrize("joint_seed", [None, 0, 1, 2])
    def test_iid_matches_fraction_oracle(self, joint_seed):
        # dyadic joints are the same law in float and in Fraction arithmetic
        j = FLIP if joint_seed is None else dyadic_joint(np.random.default_rng(joint_seed), 3, 2)
        for alpha in (2, 3, 4, 5):
            for n in (1, 2, 12, 40, 120, 160, 320):
                for rate in (0.3, 0.9):
                    m = m_from_rate(n, rate)
                    exact = exact_mean_oracle(j, n, m, alpha)
                    got = expected_tsallis_exact_iid(j, n, m, alpha)
                    assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 12) * exact, (
                        f"n={n} m={m} a={alpha}: {got!r} vs {float(exact)!r}")

    def test_single_bin_mean_is_exactly_zero(self, rng):
        joints = [FLIP] + [random_joint(rng, 3, 2) for _ in range(20)]
        for j in joints:
            for alpha in (2, 3, 4, 5):
                assert expected_tsallis_exact_iid(j, 1, 1, alpha) == 0.0
                assert expected_tsallis_exact_iid(j, 40, 1, alpha) == 0.0

    def test_beyond_float_range_raises_guard(self):
        # near-deterministic columns keep every G_rho close to one, so the
        # m^4 coefficient at m = 2^288 leaves float range
        eps = 2.0 ** -20
        j = JointPmf(("x0", "x1"), ("z0", "z1"),
                     [[0.5 - eps, eps], [eps, 0.5 - eps]])
        with pytest.raises(GuardError):
            expected_tsallis_exact_iid(j, 320, m_from_rate(320, 0.9), 5)

    def test_iid_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            expected_tsallis_exact_iid(FLIP, 2, 2, 6)
        with pytest.raises(ValueError):
            expected_tsallis_exact_iid(FLIP, 1, 2, 1)

    def test_enum_guard(self):
        big = JointPmf(tuple(f"x{i}" for i in range(8)), ("z",),
                       np.full((8, 1), 0.125))
        with pytest.raises(GuardError):
            expected_divergence_enum(big, 1, 10, 2)

    @pytest.mark.parametrize("k,n,m,guarded", [
        (2, 4, 2, False), (2, 4, 3, True),   # 2^16 <= 10^6 < 3^16
        (3, 2, 4, False), (3, 2, 5, True),   # 4^9 <= 10^6 < 5^9
        (2, 5, 1, False), (2, 5, 2, True),   # 32 items: any m >= 2 is over
        (2, 40, 2, True),                    # 2^(2^40) is never formed
    ])
    def test_enum_guard_before_product(self, monkeypatch, k, n, m, guarded):
        class Built(Exception):
            pass

        def built(self, n):
            raise Built
        monkeypatch.setattr(JointPmf, "product_power", built)
        j = JointPmf(tuple(f"x{i}" for i in range(k)), ("z",), np.full((k, 1), 1.0 / k))
        with pytest.raises(GuardError if guarded else Built):
            expected_divergence_enum(j, n, m, 2)

    def test_large_order_stability(self):
        # the log-domain path keeps huge orders finite on the exact side
        v = expected_tsallis_exact_iid(FLIP, 1, 2, 5)
        assert math.isfinite(v)
        assert v > 0


class TestExactSetupCache:
    """The mean from per-joint terms computed once against the per-call
    evaluation kept in tests/helpers.py."""

    @staticmethod
    def outcome(fn, j, n, m, alpha):
        try:
            return fn(j, n, m, alpha).hex()
        except GuardError as exc:
            return f"GuardError: {exc}"

    def test_matches_per_call_reference_bit_for_bit(self):
        # the benchmark's exact blocklengths, orders 2..5 and three rates on
        # FLIP, a seeded dyadic 3x2 joint and a near-deterministic joint
        # with a zero column, whose m^4 term leaves float range at n = 320
        eps = 2.0 ** -20
        joints = [FLIP, dyadic_joint(np.random.default_rng(28), 3, 2),
                  JointPmf(("x0", "x1"), ("z0", "z1", "z2"),
                           [[0.5 - eps, eps, 0.0], [eps, 0.5 - eps, 0.0]])]
        guarded = []
        for j, n, alpha, rate in itertools.product(joints, EXACT_N, (2, 3, 4, 5),
                                                   (0.05, 0.3, 0.9)):
            m = m_from_rate(n, rate)
            want = self.outcome(exact_mean_reference, j, n, m, alpha)
            assert self.outcome(expected_tsallis_exact_iid, j, n, m, alpha) == want, (
                n, m, alpha)
            if want.startswith("GuardError"):
                guarded.append((joints.index(j), n, alpha, rate))
        assert guarded == [(2, 320, 5, 0.9)]

    def test_argument_checks_come_first(self):
        for n, m, alpha in ((2, 2, 6), (2, 2, 1.5), (0, 2, 2), (2, 0, 3)):
            with pytest.raises(ValueError) as want:
                exact_mean_reference(FLIP, n, m, alpha)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                expected_tsallis_exact_iid(FLIP, n, m, alpha)

    def test_joints_with_equal_labels_never_share_an_entry(self):
        # JointPmf compares by identity: a second joint with the same labels,
        # or the same probabilities, gets its own terms
        other = JointPmf(FLIP.row_labels, FLIP.col_labels, [[0.25, 0.25], [0.0625, 0.4375]])
        twin = JointPmf(FLIP.row_labels, FLIP.col_labels, FLIP.probs)
        _exact_terms.cache_clear()
        for j in (FLIP, other, twin, other, FLIP):
            for n, m in ((1, 2), (12, 7), (40, 1000)):
                want = exact_mean_reference(j, n, m, 3)
                assert expected_tsallis_exact_iid(j, n, m, 3).hex() == want.hex()
        info = _exact_terms.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        assert expected_tsallis_exact_iid(FLIP, 12, 7, 3) != expected_tsallis_exact_iid(
            other, 12, 7, 3)

    def test_cache_is_bounded(self):
        _exact_terms.cache_clear()
        rng = np.random.default_rng(3)
        for _ in range(40):
            j = random_joint(rng, 2, 3)
            assert expected_tsallis_exact_iid(j, 5, 3, 2).hex() == (
                exact_mean_reference(j, 5, 3, 2).hex())
        info = _exact_terms.cache_info()
        assert info.currsize <= info.maxsize <= 16


class TestOrderTwoTransitionCheck:
    def test_flags_gap_too_close_to_threshold(self):
        # at rate H2 - 0.05 the prefactor-free mean only falls by 0.564
        problems = order_two_transition_problems(FLIP, -0.05)
        assert problems == ["total decrease factor 0.564 exceeds 2^-1.5"]


class TestMonteCarlo:
    def test_mean_matches_enum_within_sigma(self, rng):
        j = random_joint(rng, 2, 2)
        exact = expected_tsallis_exact_iid(j, 2, 2, 2)
        mean, se = expected_divergence_mc(j, 2, 0.5, 2, trials=400, seed=3)
        assert abs(mean - exact) < 5 * max(se, 1e-6)

    def test_seed_sensitivity(self, rng):
        j = random_joint(rng, 2, 2)
        a = expected_divergence_mc(j, 3, 0.6, 2, trials=64, seed=1)
        b = expected_divergence_mc(j, 3, 0.6, 2, trials=64, seed=2)
        assert a != b

    def test_infinite_order_supported(self, rng):
        j = random_joint(rng, 2, 2)
        mean, se = expected_divergence_mc(j, 2, 0.5, math.inf, trials=64, seed=4)
        assert mean >= 0.0
        assert se >= 0.0

    def test_below_order_one_vanishing_split(self):
        """Order 0.5 divergence decays under the conditional-entropy
        threshold and stays bounded away from zero above it."""
        above = [expected_divergence_mc(FLIP, n, 1.0, 0.5, trials=200, seed=9)[0]
                 for n in range(2, 7)]
        below = [expected_divergence_mc(FLIP, n, 0.55, 0.5, trials=200, seed=9)[0]
                 for n in range(2, 7)]
        assert all(v >= 0.3 for v in above)
        assert all(later >= earlier for earlier, later in zip(above, above[1:]))
        assert all(later < earlier for earlier, later in zip(below, below[1:]))
        assert below[-1] < 0.5 * below[0]


class TestMonteCarloKernel:
    """The factored per-trial table against the item-order sum over the
    materialized product joint."""

    @staticmethod
    def tables(j, n, m, seed):
        assignment = philox_rng(seed, m).integers(1, m + 1, size=j.shape[0] ** n,
                                                  dtype=np.int64)
        high = _kron_power(j.probs, n // 2)
        low = _kron_power(j.probs, n - n // 2)
        return (_KronTables(high, low, m)(assignment - 1),
                _aggregate((assignment - 1)[None], j.product_power(n).probs, m)[0])

    @pytest.mark.parametrize("m", [1, 2, 8, 132])
    def test_flip_tables_bit_for_bit(self, m):
        # every partial sum is a multiple of 8^-n below 1, so exact in float64
        for n in range(1, 11):
            got, ref = self.tables(FLIP, n, m, n)
            assert got.tobytes() == ref.tobytes(), n

    def test_non_dyadic_tables_within_relative_tolerance(self):
        # 40 laws x 4 bin counts; BLAS sums in its own order, so only the
        # last bits may move, and a cell is 0 exactly where the sum is 0
        rng = np.random.default_rng(2023)
        for case in range(40):
            kx, kz = (int(v) for v in rng.integers(2, 4, size=2))
            n = int(rng.integers(2, 7))
            j = random_joint(rng, kx, kz)
            for m in (2, 8, 132, 1783):
                got, ref = self.tables(j, n, m, case)
                assert np.array_equal(got == 0.0, ref == 0.0), (case, m)
                pos = ref > 0.0
                assert np.all(np.abs(got[pos] - ref[pos]) <= 1e-13 * ref[pos]), (case, m)

    def test_one_entry_kron_power_matches_the_product(self):
        # answered without the k factors, bit for bit the reduce over them
        for a in (np.array([1.0]), np.array([[1.0]])):
            for k in (0, 1, 2, 7, 64):
                want = functools.reduce(np.kron, [a] * k, np.ones((1,) * a.ndim))
                got = _kron_power(a, k)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_never_builds_product_joint(self, monkeypatch, rng):
        def refuse(self, n):
            raise AssertionError("product_power called")
        j = random_joint(rng, 3, 2)
        monkeypatch.setattr(JointPmf, "product_power", refuse)
        for n in (1, 2, 5):
            mean, se = expected_divergence_mc(j, n, 0.4, 2, trials=8, seed=0)
            assert mean > 0.0 and se > 0.0

    @pytest.mark.parametrize("alpha,expected", [
        (2, (0.06376225112580869, 0.0005779823772955046)),
        (math.inf, (1.1001788935111678, 0.008526587688328147)),
    ])
    def test_flip_values_pinned(self, alpha, expected):
        # the values of the product-joint kernel this one replaced; at
        # order 2 the f-sum's, within 1e-13 relative of the values of the
        # log-sum-exp form that the f-sum replaced
        got = expected_divergence_mc(FLIP, 10, 0.3, alpha, 64, 0)
        assert got == expected
        log_form = {2: (0.06376225112580801, 0.0005779823772955073)}.get(alpha, expected)
        assert all(abs(g - w) <= 1e-13 * w for g, w in zip(got, log_form))

    @pytest.mark.parametrize("alpha", [1, 1 + 5e-7])
    def test_order_one_values_pinned(self, alpha):
        # orders within ALPHA_ONE_WINDOW of one take the KL branch
        assert expected_divergence_mc(FLIP, 6, 0.3, alpha, 8, 0) == (
            0.09257499503559685, 0.006003214550212958)
        assert expected_divergence_enum(FLIP, 2, 2, alpha) == 0.23433536509337777

    def test_matches_per_trial_reference_bit_for_bit(self):
        # reused one-hot, GEMM outputs, generator and divergence scratch
        # against a loop that builds each of them per trial
        rng = np.random.default_rng(15)
        cases = []
        for _ in range(40):
            kx, kz = (int(v) for v in rng.integers(2, 4, size=2))
            cases.append((random_joint(rng, kx, kz), int(rng.integers(1, 7))))
        # a zero-mass column and zero cells: compacted terms, D_inf off the support
        cases.append((JointPmf(("a", "b", "c"), ("u", "v", "w"),
                               [[0.3, 0.0, 0.0], [0.2, 0.1, 0.0], [0.0, 0.4, 0.0]]), 3))
        for case, (j, n) in enumerate(cases):
            for rate in (0, 0.1, 0.5, 1, 1.5):
                for alpha in (0.5, 1, 1.5, 2, 3, math.inf):
                    got = expected_divergence_mc(j, n, rate, alpha, 3, case)
                    assert got == mc_reference(j, n, rate, alpha, 3, case), (case, rate, alpha)

    @pytest.mark.parametrize("alpha,parent_mib", [(2, 130.9), (math.inf, 100.0)])
    def test_peak_memory_with_reused_buffers(self, alpha, parent_mib):
        # m = 777: each table-sized array is 24.3 MiB; the per-trial loop
        # this replaced peaked at parent_mib
        tracemalloc.start()
        try:
            expected_divergence_mc(FLIP, 12, 0.8, alpha, 3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_mib * 2 ** 20

    def test_peak_memory(self):
        # the 2^24-entry product joint alone would be 128 MiB
        tracemalloc.start()
        try:
            expected_divergence_mc(FLIP, 12, 0.3, 2, 4, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    @pytest.mark.parametrize("n,rate,guarded", [
        (4, 10.0, True),     # m = 2^40
        (12, 1.5, True),     # m = 2^18: 2^30 one-hot entries
        (12, 1.16, False),   # m = 15,501 < 2^26 / 2^12 = 16,384
        (12, 1.17, True),    # m = 16,845
    ])
    def test_trial_arrays_guarded_before_first_trial(self, monkeypatch, n, rate, guarded):
        class Drawn(Exception):
            pass

        def drawn(seed, stream=0):
            raise Drawn
        monkeypatch.setattr("osrb_lab.binning.philox_rng", drawn)
        with pytest.raises(GuardError if guarded else Drawn) as err:
            expected_divergence_mc(FLIP, n, rate, 2, trials=4, seed=0)
        if guarded:
            assert f"mc at m = {m_from_rate(n, rate)}: " in str(err.value)
