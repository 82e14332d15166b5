import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from helpers import (
    binary_entropy,
    counted_table_calls,
    divergence_reference,
    f_divergence_fraction,
    logsumexp_reference,
    near_equal_pairs,
    product_power_oracle,
    random_channel,
    random_joint,
    random_pmf,
)
from osrb_lab.measures import (
    ALPHA_ONE_WINDOW,
    FSUM_CHUNK,
    AlphabetMismatchError,
    Channel,
    InfiniteOrderError,
    JointPmf,
    NormalizationError,
    Pmf,
    _DivergenceKernel,
    _one_shot,
    check_alpha,
    cond_renyi_entropy,
    conditional_entropy,
    d_infinity,
    d_infinity_raw,
    is_singleton,
    kl_divergence,
    logsumexp,
    mutual_information,
    parse_alpha,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    _exact_sum,
    total_variation,
    tsallis_divergence,
    tsallis_raw,
)

HALF = Pmf(("a", "b"), (0.5, 0.5))
SKEW = Pmf(("a", "b"), (0.25, 0.75))


def make_cond_joint(pz, conds):
    """Joint from p(z) and per-z columns p(x|z)."""
    pz = np.asarray(pz, dtype=float)
    conds = np.asarray(conds, dtype=float)  # shape (|X|, |Z|)
    probs = conds * pz[None, :]
    rows = tuple(f"x{i}" for i in range(conds.shape[0]))
    cols = tuple(f"z{i}" for i in range(conds.shape[1]))
    return JointPmf(rows, cols, probs)


# the running conditional: p(z) uniform, p(x|z=0)=(0.75,0.25), p(x|z=1)=(0.25,0.75)
FLIP_JOINT = make_cond_joint([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]])


class TestTypes:
    def test_pmf_normalizes_and_freezes(self):
        p = Pmf(("a", "b", "c"), (0.2, 0.3, 0.5))
        assert math.fsum(p.probs.tolist()) == 1.0
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_pmf_rejects_bad_mass(self):
        with pytest.raises(NormalizationError):
            Pmf(("a", "b"), (0.6, 0.6))

    def test_pmf_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(("a", "b"), (-0.1, 1.1))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Pmf(("a", "a"), (0.5, 0.5))

    def test_point_mass_and_uniform(self):
        assert Pmf.point_mass(["a", "b"], "b").prob("b") == 1.0
        u = Pmf.uniform(["a", "b", "c", "d"])
        assert np.allclose(u.probs, 0.25)

    def test_pmf_round_trip(self, tmp_path):
        p = Pmf(("a", "b"), (0.3, 0.7))
        path = tmp_path / "p.json"
        p.save(path)
        q = Pmf.load(path)
        assert q.labels == p.labels
        assert np.array_equal(q.probs, p.probs)

    def test_load_renormalizes_within_window_only(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "probs": [0.5, 0.5 + 5e-10]}))
        p = Pmf.load(path)
        assert math.fsum(p.probs.tolist()) == 1.0
        path.write_text(json.dumps({"labels": ["a", "b"], "probs": [0.5, 0.51]}))
        with pytest.raises(NormalizationError):
            Pmf.load(path)

    @pytest.mark.parametrize("cls,probs,off", [
        (JointPmf, [[0.25, 0.25], [0.25, 0.25 + 5e-10]], [[0.25, 0.25], [0.25, 0.26]]),
        (Channel, [[0.5, 0.5 + 5e-10], [0.3, 0.7]], [[0.5, 0.5], [0.3, 0.71]]),
    ])
    def test_joint_and_channel_load_renormalize_within_window_only(
            self, tmp_path, cls, probs, off):
        path = tmp_path / "j.json"
        doc = {"row_labels": ["a", "b"], "col_labels": ["x", "y"], "probs": probs}
        path.write_text(json.dumps(doc))
        loaded = cls.load(path)
        arr = loaded.probs if cls is JointPmf else loaded.rows
        masses = [arr.ravel().tolist()] if cls is JointPmf else arr.tolist()
        assert all(math.fsum(m) == 1.0 for m in masses)
        with pytest.raises(NormalizationError):
            cls(("a", "b"), ("x", "y"), probs)
        path.write_text(json.dumps(dict(doc, probs=off)))
        with pytest.raises(NormalizationError):
            cls.load(path)

    @pytest.mark.parametrize("cls,doc,key", [
        (Pmf, {"labels": ["a"]}, "probs"),
        (JointPmf, {"row_labels": ["a"], "probs": [[1.0]]}, "col_labels"),
        (Channel, {"col_labels": ["x"], "probs": [[1.0]]}, "row_labels"),
    ])
    def test_from_dict_names_missing_key(self, cls, doc, key):
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            cls.from_dict(doc)
        with pytest.raises(ValueError, match="JSON object"):
            cls.from_dict([doc])

    @pytest.mark.parametrize("cls,doc", [
        (Pmf, {"labels": ["a", "b"], "probs": [True, False]}),
        (Pmf, {"labels": ["a", "b"], "probs": [0.5, True]}),
        (JointPmf, {"row_labels": ["a", "b"], "col_labels": ["x", "y"],
                    "probs": [[0.5, 0.0], [0.0, True]]}),
        (Channel, {"row_labels": ["a", "b"], "col_labels": ["x", "y"],
                   "probs": [[True, False], [0.5, 0.5]]}),
    ])
    def test_load_rejects_boolean_probabilities(self, tmp_path, cls, doc):
        # numpy reads true/false as 1.0/0.0, so a point mass would load
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{cls.__name__}: probabilities must be "
                                             "numbers, not booleans"):
            cls.load(path)

    @pytest.mark.parametrize("labels", ["ab", b"ab"])
    def test_string_alphabet_rejected(self, labels):
        with pytest.raises(ValueError, match="not a string"):
            Pmf(labels, [0.5, 0.5])
        if isinstance(labels, str):
            with pytest.raises(ValueError, match="not a string"):
                Pmf.from_dict({"labels": labels, "probs": [0.5, 0.5]})
            with pytest.raises(ValueError, match="not a string"):
                Channel.from_dict({"row_labels": ["a", "b"], "col_labels": labels,
                                   "probs": [[1.0, 0.0], [0.0, 1.0]]})

    def test_joint_marginals(self, rng):
        j = random_joint(rng, 3, 2)
        assert math.isclose(j.row_marginal().probs.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(j.col_marginal().probs.sum(), 1.0, abs_tol=1e-12)

    def test_channel_rows_are_distributions(self):
        with pytest.raises(ValueError):
            Channel(("a",), ("x", "y"), [[0.6, 0.6]])

    def test_channel_bsc_output(self):
        out = Channel.bsc(0.3).output(Pmf.uniform(["0", "1"]))
        assert np.allclose(out.probs, 0.5)

    def test_channel_round_trip(self, tmp_path):
        ch = Channel.bsc(0.25)
        path = tmp_path / "ch.json"
        ch.save(path)
        again = Channel.load(path)
        assert np.array_equal(again.rows, ch.rows)

    def test_product_power_orders_msb_first(self):
        j = JointPmf(("a", "b"), ("u", "v"), [[0.4, 0.1], [0.2, 0.3]])
        j2 = j.product_power(2)
        assert j2.row_labels[1] == "a,b"
        idx = j2.row_labels.index("a,b")
        cdx = j2.col_labels.index("u,v")
        assert math.isclose(j2.probs[idx, cdx], 0.4 * 0.3, rel_tol=1e-12)

    def test_product_power_matches_kron_oracle_bit_for_bit(self):
        # non-dyadic joints, up to 2^18 entries (several exact-sum chunks)
        rng = np.random.default_rng(2024)
        for kx in (2, 3, 4):
            for kz in (2, 3, 4):
                j = random_joint(rng, kx, kz)
                n = 1
                while (kx * kz) ** n <= 2 ** 18:
                    got = j.product_power(n).probs
                    assert got.tobytes() == product_power_oracle(j, n).tobytes(), (kx, kz, n)
                    n += 1

    def test_product_power_peak_memory(self):
        # the product array, divided in place, and the previous Kronecker
        # power (a quarter of it); a normalized copy would read about 2.3x
        # and a list of one Python float per entry about 6x
        flip = JointPmf(("0", "1"), ("0", "1"), [[0.375, 0.125], [0.125, 0.375]])
        tracemalloc.start()
        try:
            result = flip.product_power(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * result.probs.nbytes

    @pytest.mark.parametrize("make,message", [
        (lambda: Pmf(("a", "b"), (0.6, 0.6)),
         "Pmf: mass 1.2 deviates from 1 by more than 1e-12"),
        (lambda: Pmf.from_dict({"labels": ["a", "b"], "probs": [0.5, 0.51]}),
         "Pmf: mass 1.01 deviates from 1 by more than 1e-09"),
        (lambda: JointPmf(tuple(f"x{i}" for i in range(2 ** 9)),
                          tuple(f"z{i}" for i in range(2 ** 8)),
                          np.full((2 ** 9, 2 ** 8), 2.0 ** -16)),
         "JointPmf: mass 2.0 deviates from 1 by more than 1e-12"),
        (lambda: Channel(("a", "b"), ("x", "y"), [[0.5, 0.5], [0.3, 0.71]]),
         "Channel: row 1 mass 1.01 deviates from 1 by more than 1e-12"),
        (lambda: Channel.from_dict({"row_labels": ["a", "b"], "col_labels": ["x", "y"],
                                    "probs": [[0.5, 0.5], [0.3, 0.71]]}),
         "Channel: row 1 mass 1.01 deviates from 1 by more than 1e-09"),
    ], ids=["pmf", "pmf-load", "joint-multi-chunk", "channel-row", "channel-row-load"])
    def test_normalization_error_messages(self, make, message):
        with pytest.raises(NormalizationError) as err:
            make()
        assert str(err.value) == message

    def test_alpha_parsing(self):
        assert parse_alpha("inf") == math.inf
        assert parse_alpha("2") == 2.0
        with pytest.raises(ValueError):
            check_alpha(0.0)
        with pytest.raises(ValueError):
            check_alpha(-2)


class TestEntropies:
    def test_uniform_binary(self):
        assert shannon_entropy(HALF) == 1.0

    def test_point_mass(self):
        assert shannon_entropy(Pmf.point_mass(["a", "b"], "a")) == 0.0

    def test_skewed(self):
        assert abs(shannon_entropy(Pmf(("a", "b"), (0.1, 0.9))) - 0.4690) < 1e-4

    def test_conditional_entropy_independent(self):
        j = JointPmf(("a", "b"), ("u", "v"), [[0.25, 0.25], [0.25, 0.25]])
        assert math.isclose(conditional_entropy(j), 1.0, abs_tol=1e-12)

    def test_conditional_entropy_functional(self):
        j = JointPmf(("a", "b"), ("u", "v"), [[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy(j) == 0.0

    def test_conditional_entropy_bsc(self):
        j = make_cond_joint([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]])
        assert abs(conditional_entropy(j) - 0.8113) < 1e-4

    def test_mutual_information_cases(self):
        prod = JointPmf(("a", "b"), ("u", "v"), [[0.25, 0.25], [0.25, 0.25]])
        assert mutual_information(prod) == 0.0
        ident = JointPmf(("a", "b"), ("u", "v"), [[0.5, 0.0], [0.0, 0.5]])
        assert math.isclose(mutual_information(ident), 1.0, abs_tol=1e-12)
        j = Channel.bsc(0.3).joint(Pmf.uniform(["0", "1"]))
        assert abs(mutual_information(j) - (1.0 - binary_entropy(0.3))) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 2, 7, math.inf])
    def test_renyi_entropy_uniform(self, alpha):
        p = Pmf.uniform([f"s{i}" for i in range(8)])
        assert abs(renyi_entropy(p, alpha) - 3.0) < 1e-12

    def test_renyi_entropy_values(self):
        p = Pmf(("a", "b"), (0.75, 0.25))
        assert abs(renyi_entropy(p, 2) - 0.6781) < 1e-4
        assert abs(renyi_entropy(p, math.inf) - math.log2(4.0 / 3.0)) < 1e-6

    def test_cond_renyi_independent_equals_renyi(self, rng):
        for _ in range(25):
            px = random_pmf(rng, 3)
            pz = random_pmf(rng, 2)
            j = JointPmf(px.labels, pz.labels, np.outer(px.probs, pz.probs))
            for a in (0.5, 2.0, 5.0, math.inf):
                assert abs(cond_renyi_entropy(j, a) - renyi_entropy(px, a)) < 1e-9

    def test_cond_renyi_worked_values(self):
        assert abs(cond_renyi_entropy(FLIP_JOINT, 2) + math.log2(0.625)) < 1e-6
        assert abs(cond_renyi_entropy(FLIP_JOINT, math.inf) - math.log2(4.0 / 3.0)) < 1e-6

    def test_cond_renyi_order_one_is_shannon(self):
        assert cond_renyi_entropy(FLIP_JOINT, 1.0) == conditional_entropy(FLIP_JOINT)

    def test_is_singleton(self):
        uni = JointPmf(("a", "b"), ("u", "v"), [[0.25, 0.25], [0.25, 0.25]])
        assert is_singleton(uni)
        assert not is_singleton(FLIP_JOINT)
        single_x = JointPmf(("a",), ("u", "v"), [[0.5, 0.5]])
        assert is_singleton(single_x)


class TestDivergences:
    def test_total_variation(self):
        assert total_variation(HALF, HALF) == 0.0
        p1 = Pmf.point_mass(["a", "b"], "a")
        p2 = Pmf.point_mass(["a", "b"], "b")
        assert total_variation(p1, p2) == 1.0
        assert abs(total_variation(HALF, SKEW) - 0.25) < 1e-12

    def test_kl_divergence(self):
        assert kl_divergence(HALF, HALF) == 0.0
        point = Pmf(("a", "b"), (1.0, 0.0))
        assert math.isclose(kl_divergence(point, HALF), 1.0, abs_tol=1e-12)
        degenerate = Pmf(("a", "b"), (0.0, 1.0))
        assert kl_divergence(HALF, degenerate) == math.inf

    def test_renyi_divergence_worked(self):
        assert renyi_divergence(HALF, SKEW, 2) == pytest.approx(math.log2(4.0 / 3.0), abs=1e-6)
        assert renyi_divergence(HALF, HALF, 3.7) == 0.0

    def test_renyi_divergence_alpha_one_window(self):
        kl = renyi_divergence(HALF, SKEW, 1.0)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(renyi_divergence(HALF, SKEW, a) - kl) < 1e-3

    def test_tsallis_worked(self):
        assert tsallis_divergence(HALF, SKEW, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert tsallis_divergence(HALF, SKEW, 1) == pytest.approx(0.1438, abs=1e-4)

    def test_tsallis_rejects_infinite_order(self):
        with pytest.raises(InfiniteOrderError):
            tsallis_divergence(HALF, SKEW, math.inf)

    def test_d_infinity_worked(self):
        assert d_infinity(HALF, SKEW) == pytest.approx(1.0, abs=1e-12)
        degenerate = Pmf(("a", "b"), (0.0, 1.0))
        assert d_infinity(HALF, degenerate) == math.inf

    def test_raw_divergences_match_masked_reference_bit_for_bit(self):
        # zeros in p, in q and in both, equal arrays, one-cell arrays
        rng = np.random.default_rng(15)
        for case in range(400):
            k = int(rng.integers(1, 40))
            p, q = rng.uniform(size=k), rng.uniform(size=k)
            for v in (p, q):
                if rng.random() < 0.4:
                    v[rng.random(k) < 0.3] = 0.0
                v[int(rng.integers(0, k))] += 0.1
            p, q = p / p.sum(), q / q.sum()
            if rng.random() < 0.1:
                q = p.copy()
            if rng.random() < 0.5:
                p, q = p.reshape(1, k), q.reshape(1, k)
            for alpha in (0.3, 1, 1 + 5e-7, 2, 7.5):
                assert tsallis_raw(p, q, alpha) == divergence_reference(p, q, alpha), (case, alpha)
            for bits in (True, False):
                assert (d_infinity_raw(p, q, bits=bits)
                        == divergence_reference(p, q, math.inf, bits=bits)), case

    def test_kernel_tables_match_one_shot_per_table_bit_for_bit(self, monkeypatch):
        # stacks of g tables of r rows of k cells, r up to the scratch's
        # rows, against a reference row with and without zeros: each value
        # is the one-shot divergence of the table and the broadcast
        # reference (KL in nats at and near order one) and none is NaN.
        # The stacks hold tables with a zero cell, with a zero row, zero
        # where the reference is zero, positive there (outside the
        # support), whose first cell is the reference's and equal to the
        # broadcast reference.  At INFINITY, at order one and at the
        # integer orders 2..5 every table is evaluated with the stack, and
        # the r < rows tables there stand for their tables with rows - r
        # zero rows; at other orders exactly the tables with a zero cell,
        # one starting with the reference's first cell, and every table
        # against a reference with a zero take the call.  Each value is
        # also the kernel's own call on that table
        counts = counted_table_calls(monkeypatch)
        rng = np.random.default_rng(22)
        whole = {"batched": 0, "call": 0}
        for case in range(80):
            k = int(rng.integers(2, 120))
            row = rng.uniform(0.05, 1.0, size=k)
            if case % 5 == 4:
                row[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
            rows = int(rng.integers(1, 5))
            row /= row.sum() * rows
            r, g = int(rng.integers(1, rows + 1)), int(rng.integers(1, 30))
            p = rng.uniform(size=(g, r, k)) / (r * k)
            p[rng.random(g) < 0.2, int(rng.integers(r)), int(rng.integers(k))] = 0.0
            if r > 1:
                p[rng.random(g) < 0.1, int(rng.integers(r))] = 0.0
            p[np.ix_(rng.random(g) < 0.5, np.arange(r), row == 0.0)] = 0.0
            p[rng.random(g) < 0.1, 0, 0] = row[0]
            p[rng.random(g) < 0.1] = row
            calls = sum(not (row.min() > 0.0 and table.min() > 0.0 and table[0, 0] != row[0])
                        for table in p)
            for alpha in (0.3, 1, 1 + 5e-7, 2, 3, 4, 5, 7.5, math.inf):
                counts.update(batched=0, call=0)
                kernel = _DivergenceKernel(row, alpha, (rows, k))
                got = kernel.tables(p.copy())
                whole_stack = (math.isinf(alpha) or abs(alpha - 1.0) < ALPHA_ONE_WINDOW
                               or alpha in (2, 3, 4, 5))
                assert counts["call"] == (0 if whole_stack else calls), (case, alpha)
                for i, table in enumerate(p):
                    want = divergence_reference(table, np.broadcast_to(row, table.shape), alpha,
                                                omitted_rows=rows - r)
                    assert not math.isnan(got[i]), (case, alpha, i)
                    assert got[i].hex() == want.hex(), (case, alpha, i)
                    assert got[i].hex() == kernel(table.copy()).hex(), (case, alpha, i)
                if not whole_stack:
                    whole = {key: whole[key] + counts[key] for key in whole}
        assert whole["batched"] > 1000 and whole["call"] > 100

    def test_d_infinity_of_table_without_positive_cell_is_named(self):
        # an all-zero p has no support to take the max ratio over: a
        # ValueError that says so, not math.log2(0)'s "math domain error",
        # from the one-shot function in bits and nats and from a stack
        # with one such table among positive ones
        q = np.array([0.25, 0.25, 0.5])
        for bits in (True, False):
            with pytest.raises(ValueError, match="no positive cell"):
                d_infinity_raw(np.zeros(3), q, bits=bits)
        stack = np.stack([np.full((2, 3), 1 / 6), np.zeros((2, 3))])
        with pytest.raises(ValueError, match="no positive cell"):
            _DivergenceKernel(q / 2, math.inf, (2, 3)).tables(stack)
        assert d_infinity_raw(np.array([0.0, 0.0, 1.0]), q) == 1.0

    def test_alphabet_mismatch(self):
        other = Pmf(("x", "y"), (0.5, 0.5))
        with pytest.raises(AlphabetMismatchError):
            kl_divergence(HALF, other)

    def test_identity_is_exactly_zero(self, rng):
        for _ in range(25):
            p = random_pmf(rng, 4)
            for a in (0.5, 1.0, 2.0, 9.0):
                assert tsallis_divergence(p, p, a) == 0.0
                assert renyi_divergence(p, p, a) == 0.0
            assert d_infinity(p, p) == 0.0

    def test_nonnegative(self, rng):
        for _ in range(50):
            p = random_pmf(rng, 3)
            q = random_pmf(rng, 3, floor=1e-3)
            for a in (0.5, 1.0, 2.0, 4.0):
                assert tsallis_divergence(p, q, a) >= 0.0
                assert renyi_divergence(p, q, a) >= 0.0
            assert d_infinity(p, q) >= 0.0

    def test_support_conventions(self):
        p = Pmf(("a", "b", "c"), (0.5, 0.5, 0.0))
        q = Pmf(("a", "b", "c"), (0.5, 0.0, 0.5))
        assert tsallis_divergence(p, q, 2) == math.inf
        assert renyi_divergence(p, q, 2) == math.inf
        # below order one the q=0 term is dropped, the value stays finite
        assert math.isfinite(tsallis_divergence(p, q, 0.5))

    def test_extreme_order_stays_finite(self):
        v = renyi_divergence(HALF, SKEW, 1e4)
        assert math.isfinite(v)
        assert abs(v - d_infinity(HALF, SKEW)) < 1e-3


ALPHAS = (0.5, 0.9, 1.1, 2.0, 3.0, 8.0)


class TestIntegerOrderFSum:
    """The integer orders 2..5 as sums of nonnegative polynomial terms."""

    @staticmethod
    def stacks(pairs, rows, rng):
        """Per pair a kernel reference row q / rows and a stack of 3 tables
        of ``rows`` rows, each row a pmf within rounding of q, over rows."""
        for p, q in pairs:
            tables = [Pmf(q.labels, q.probs * (1.0 + rng.uniform(-4e-16, 4e-16, q.size))).probs
                      for _ in range(3 * rows)]
            yield q.probs / rows, np.reshape(tables, (3, rows, q.size)) / rows

    def test_near_equal_grid_never_negative(self):
        # 2,000 pairs within rounding of each other: the power sum minus
        # one that the f-sum replaced is negative on many of them, while
        # every Tsallis and Renyi value at the integer orders, one-shot or
        # from stacks of near-equal tables, and every D_inf is >= 0
        rng = np.random.default_rng(13)
        pairs = near_equal_pairs(rng, 2000)
        old_negative = sum(float(np.sum(p.probs ** 2 / q.probs)) - 1.0 < 0.0 for p, q in pairs)
        assert old_negative > 200
        for p, q in pairs:
            for alpha in (2, 3, 4, 5):
                assert tsallis_divergence(p, q, alpha) >= 0.0
                assert renyi_divergence(p, q, alpha) >= 0.0
                assert renyi_divergence(p, q, alpha, bits=False) >= 0.0
            assert d_infinity(p, q) >= 0.0 and d_infinity(q, p) >= 0.0
        for rows in (1, 2, 4):
            for row, stack in self.stacks(pairs[:300], rows, rng):
                for alpha in (2, 3, 4, 5):
                    kernel = _DivergenceKernel(row, alpha, (rows, row.size))
                    assert np.all(kernel.tables(stack.copy()) >= 0.0)
                    assert kernel.renyi(stack[0].copy()) >= 0.0
                kernel = _DivergenceKernel(row, math.inf, (rows, row.size))
                assert np.all(kernel.tables(stack.copy()) >= 0.0)

    def test_max_ratio_just_below_one_is_one(self):
        # a maximum ratio within 4 ulps below 1 reads exactly 1, so D_inf
        # is 0.0; further below it is left as it is
        q = np.array([0.25, 0.25, 0.5])
        for ulps in (1, 2, 4):
            p = q * (1.0 - ulps * np.finfo(float).eps)
            assert d_infinity_raw(p, q) == 0.0 and d_infinity_raw(p, q, bits=False) == 0.0
        assert d_infinity_raw(q * 0.5, q) == -1.0

    def test_renyi_finite_where_f_sum_overflows(self):
        # q puts 1e-90 (1e-300) where p puts 1e-10 (0.5): the f-sum
        # (alpha - 1) T_alpha exceeds float range from order 5 (3), while
        # D_alpha, its log, is finite; it is the exact value's within
        # 1e-12 relative, and inf only off q's support
        for (p1, q1) in ((1e-10, 1e-90), (0.5, 1e-300)):
            p, q = Pmf(("a", "b"), (p1, 1 - p1)), Pmf(("a", "b"), (q1, 1 - q1))
            for alpha in (2, 3, 4, 5):
                s = sum(Fraction(pi) ** alpha / Fraction(qi) ** (alpha - 1)
                        for pi, qi in zip(p.probs.tolist(), q.probs.tolist()))
                exact = (math.log(s.numerator) - math.log(s.denominator)) / (alpha - 1)
                got = renyi_divergence(p, q, alpha, bits=False)
                assert abs(got - exact) <= 1e-12 * exact, (p1, alpha)
            assert tsallis_divergence(p, q, 5) == math.inf
        off = Pmf(("a", "b"), (0.0, 1.0))
        assert renyi_divergence(HALF, off, 3) == math.inf

    def test_matches_fraction_oracle_on_three_regimes(self):
        # near-equal pairs, pairs 1e-6 apart and independent Dirichlet
        # pairs, one-shot and as r-row tables against a kernel of up to 4
        # rows, the omitted rows each adding the reference row's mass:
        # within 1e-15 relative of the same form in exact arithmetic,
        # and exactly 0.0 where the exact value is 0
        rng = np.random.default_rng(31)
        regimes = [near_equal_pairs(rng, 150), near_equal_pairs(rng, 150, spread=1e-6)]
        regimes.append([(Pmf(p.labels, rng.dirichlet(np.ones(p.size))), q)
                        for p, q in near_equal_pairs(rng, 150)])
        worst = 0.0
        for pairs in regimes:
            for p, q in pairs:
                rows = int(rng.integers(1, 5))
                r = int(rng.integers(1, rows + 1))
                table = np.tile(p.probs / rows, (r, 1))
                row = q.probs / rows
                for alpha in (2, 3, 4, 5):
                    cases = [(tsallis_divergence(p, q, alpha),
                              f_divergence_fraction(p.probs, q.probs, alpha)),
                             (_DivergenceKernel(row, alpha, (rows, q.size)).tables(
                                 table[None].copy())[0],
                              f_divergence_fraction(table, np.tile(row, (r, 1)), alpha,
                                                    omitted_rows=rows - r))]
                    for got, exact in cases:
                        if exact == 0:
                            assert got == 0.0
                            continue
                        err = abs(Fraction(got) - exact) / exact
                        assert err <= Fraction(1, 10 ** 15), (alpha, float(err))
                        worst = max(worst, float(err))
        assert worst > 0.0

    @pytest.mark.parametrize("alpha", [3, 4, 5])
    def test_stack_of_small_tables_takes_two_chunks(self, alpha):
        # 512 tables of 2 x 4 cells: the accumulator holds half the stack's
        # 1,024 rows, so the Horner loop runs twice, not once per row, and
        # every value is the per-table call's bit for bit
        rng = np.random.default_rng([28, alpha])
        row = rng.dirichlet(np.ones(4)) / 2
        stack = rng.dirichlet(np.ones(4), size=(512, 2)) / 2
        stack[:3] = row  # tables equal to the reference give exactly 0
        want = [_DivergenceKernel(row, alpha, (2, 4))(t.copy()).hex() for t in stack]
        kernel = _DivergenceKernel(row, alpha, (2, 4))
        got = kernel.tables(stack.copy())
        assert [v.hex() for v in got.tolist()] == want
        assert got[:3].tolist() == [0.0] * 3
        assert math.ceil(1024 / kernel.acc.shape[1]) == 2

    @pytest.mark.parametrize("alpha", [3, 4, 5])
    def test_one_shot_accumulator_is_two_rows(self, alpha):
        # a one-row table takes the (2, 1, k) accumulator that the kernel of
        # a (1, k) shape allocated when it was built
        p, q = Pmf.uniform("abcdef"), Pmf(tuple("abcdef"), [0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
        kernel, table = _one_shot(p.probs, q.probs, alpha)
        kernel(table)
        assert kernel.acc.shape == (2, 1, 6)
        assert renyi_divergence(p, q, alpha) == kernel.renyi(p.probs[None].copy())

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    def test_scratch_at_most_one_table(self, alpha):
        # a kernel of 64 rows of 4,096 cells (2 MiB a table) built and
        # scoring a stack of 8 tables of 32 rows in place: order 2
        # allocates no table-sized scratch, orders 3 and 5 an accumulator
        # of at most F_SUM_CELLS cells per half, which the stack is worked
        # through in chunks; beyond that, under 256 KiB (the row's exact
        # sum takes its 4,096 entries as Python floats)
        rng = np.random.default_rng(alpha)
        shape = (64, 4096)
        row = rng.dirichlet(np.ones(shape[1])) / shape[0]
        stack = rng.dirichlet(np.ones(shape[1]), size=(8, 32)) / shape[0]
        want = np.array([divergence_reference(t, np.broadcast_to(row, t.shape), alpha,
                                              omitted_rows=shape[0] - 32) for t in stack])
        table_bytes = shape[0] * shape[1] * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = _DivergenceKernel(row, alpha, shape).tables(stack)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak <= (table_bytes if alpha > 2 else 0) + 2 ** 18


class TestCondRenyiProperties:
    """The conditional Renyi entropy property suite on random joints."""

    def test_nonincreasing_in_alpha(self, rng):
        for _ in range(40):
            j = random_joint(rng, 3, 3)
            vals = [cond_renyi_entropy(j, a) for a in ALPHAS]
            for lo, hi in zip(vals, vals[1:]):
                assert lo >= hi - 1e-9
            if not is_singleton(j):
                assert vals[0] - vals[-1] > 1e-9

    def test_alpha_near_one_continuity(self, rng):
        for _ in range(40):
            j = random_joint(rng, 3, 2)
            h = conditional_entropy(j)
            for a in (1.0 - 1e-4, 1.0 + 1e-4):
                assert abs(cond_renyi_entropy(j, a) - h) < 1e-3

    def test_data_processing(self, rng):
        # Markov chain X - Y - Z: degrading the side information can only
        # raise the conditional entropy.
        for _ in range(40):
            px = random_pmf(rng, 3)
            ch_xy = random_channel(rng, px.labels, ("y0", "y1", "y2"), floor=1e-3)
            ch_yz = random_channel(rng, ("y0", "y1", "y2"), ("z0", "z1"), floor=1e-3)
            j_xy = ch_xy.joint(px)
            j_xz = ch_xy.then(ch_yz).joint(px)
            for a in (1.1, 2.0, 8.0):
                assert cond_renyi_entropy(j_xy, a) <= cond_renyi_entropy(j_xz, a) + 1e-9

    def test_convexity_in_pz(self, rng):
        for _ in range(40):
            conds = np.array([random_pmf(rng, 3).probs for _ in range(2)]).T
            pz0 = random_pmf(rng, 2).probs
            pz1 = random_pmf(rng, 2).probs
            lam = rng.uniform()
            mix = lam * pz0 + (1.0 - lam) * pz1
            for a in (1.1, 2.0, 8.0):
                blend = lam * cond_renyi_entropy(make_cond_joint(pz0, conds), a) \
                    + (1.0 - lam) * cond_renyi_entropy(make_cond_joint(pz1, conds), a)
                assert cond_renyi_entropy(make_cond_joint(mix, conds), a) <= blend + 1e-9

    def test_large_order_approaches_min_entropy(self, rng):
        for _ in range(20):
            j = random_joint(rng, 3, 2)
            pz, cond = j.col_conditionals()
            target = -math.log2(float(np.max(cond[:, pz > 0])))
            assert abs(cond_renyi_entropy(j, 1e4) - target) < 1e-3

    def test_additivity_over_products(self, rng):
        for _ in range(15):
            j = random_joint(rng, 3, 2)
            for n in (2, 3):
                jn = j.product_power(n)
                for a in (0.5, 2.0, 8.0):
                    assert abs(cond_renyi_entropy(jn, a) - n * cond_renyi_entropy(j, a)) < 1e-9

    def test_nonnegative(self, rng):
        for _ in range(40):
            j = random_joint(rng, 3, 3)
            for a in ALPHAS:
                assert cond_renyi_entropy(j, a) >= 0.0

    def test_singleton_constant_in_alpha(self, rng):
        for _ in range(10):
            pz = random_pmf(rng, 3)
            j = JointPmf(("a", "b"), pz.labels,
                         np.outer([0.5, 0.5], pz.probs))
            vals = [cond_renyi_entropy(j, a) for a in ALPHAS]
            assert max(vals) - min(vals) < 1e-12


FORM_ORDERS = (0.5, 2.0, 3.0, math.inf)


def seeded_joints(seed, count=12):
    """Random joints of 2..4 x letters and 2..3 z letters, a quarter of
    them with one zeroed cell."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        probs = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4))).probs.copy()
        if k % 4 == 3:
            probs[0, 0] = 0.0
            probs /= probs.sum()
        out.append(JointPmf(tuple(f"x{i}" for i in range(probs.shape[0])),
                            tuple(f"z{i}" for i in range(probs.shape[1])), probs))
    return out


class TestCondRenyiForm:
    """The p(z)-averaged form log2|X| - D_a(P_XZ || U_X x P_Z), against
    Arimoto's and through three of its properties at a in FORM_ORDERS."""

    def test_is_log_size_minus_divergence_from_uniform_times_pz(self):
        for j in seeded_joints(2014):
            kx = j.probs.shape[0]
            labels = tuple(f"{x}{z}" for x in j.row_labels for z in j.col_labels)
            p = Pmf(labels, j.probs.ravel())
            q = Pmf(labels, np.outer(np.full(kx, 1.0 / kx), j.probs.sum(axis=0)).ravel())
            for a in FORM_ORDERS:
                assert abs(cond_renyi_entropy(j, a)
                           - (math.log2(kx) - renyi_divergence(p, q, a))) < 1e-9

    def test_is_not_arimoto_form(self):
        # Arimoto's (a/(1-a)) log2 sum_z (sum_x p(x,z)^a)^(1/a) is never
        # below the p(z)-averaged form, and above it on skewed joints
        gaps = []
        for j in seeded_joints(2014):
            for a in (0.5, 2.0, 3.0):
                arimoto = a / (1.0 - a) * math.log2(
                    float(np.sum(np.sum(j.probs ** a, axis=0) ** (1.0 / a))))
                gaps.append(arimoto - cond_renyi_entropy(j, a))
        assert min(gaps) > -1e-12
        assert max(gaps) > 1e-2

    def test_nonincreasing_in_order(self):
        for j in seeded_joints(2015):
            vals = [cond_renyi_entropy(j, a) for a in FORM_ORDERS]
            for lo, hi in zip(vals, vals[1:]):
                assert lo >= hi - 1e-12

    def test_additive_on_product_joints(self):
        first, second = seeded_joints(2016), seeded_joints(2017)
        for j1, j2 in zip(first, second):
            probs = np.einsum("ab,cd->acbd", j1.probs, j2.probs).reshape(
                j1.probs.shape[0] * j2.probs.shape[0], -1)
            prod = JointPmf(tuple(f"{a}{b}" for a in j1.row_labels for b in j2.row_labels),
                            tuple(f"{a}{b}" for a in j1.col_labels for b in j2.col_labels),
                            probs)
            for a in FORM_ORDERS:
                assert abs(cond_renyi_entropy(prod, a)
                           - cond_renyi_entropy(j1, a) - cond_renyi_entropy(j2, a)) < 1e-9

    def test_merging_x_letters_never_raises(self):
        merged_count = 0
        for j in seeded_joints(2018):
            kx = j.probs.shape[0]
            for i in range(kx):
                for k in range(i + 1, kx):
                    keep = [r for r in range(kx) if r not in (i, k)]
                    probs = np.vstack([j.probs[keep], j.probs[i] + j.probs[k]])
                    merged = JointPmf(tuple(f"x{r}" for r in range(kx - 1)), j.col_labels, probs)
                    for a in FORM_ORDERS:
                        assert cond_renyi_entropy(merged, a) <= cond_renyi_entropy(j, a) + 1e-12
                    merged_count += 1
        assert merged_count >= 12


class TestInequalities:
    def test_tsallis_vs_renyi_in_nats(self, rng):
        for _ in range(60):
            p = random_pmf(rng, 4)
            q = random_pmf(rng, 4, floor=1e-3)
            for a in (1.5, 2.0, 6.0):
                assert tsallis_divergence(p, q, a) >= renyi_divergence(p, q, a, bits=False) - 1e-12
            for a in (0.3, 0.7):
                assert tsallis_divergence(p, q, a) <= renyi_divergence(p, q, a, bits=False) + 1e-12

    def test_renyi_monotone_in_alpha(self, rng):
        orders = (0.3, 0.8, 1.0, 1.5, 3.0, 10.0, math.inf)
        for _ in range(60):
            p = random_pmf(rng, 4)
            q = random_pmf(rng, 4, floor=1e-3)
            vals = [renyi_divergence(p, q, a) for a in orders]
            for lo, hi in zip(vals, vals[1:]):
                assert lo <= hi + 1e-9

    def test_pinsker(self, rng):
        for _ in range(60):
            j = random_joint(rng, 3, 3)
            prod = JointPmf(j.row_labels, j.col_labels,
                            np.outer(j.row_marginal().probs, j.col_marginal().probs))
            tv = 0.5 * float(np.abs(j.probs - prod.probs).sum())
            assert tv <= math.sqrt(0.5 * mutual_information(j) * math.log(2.0)) + 1e-9

    def test_entropy_vs_output_divergence_bound(self, rng):
        # H~_a(X|Z) <= H(X) - sum_x p(x) D_a(p(z|x) || p(z)), a > 1
        for _ in range(60):
            j = random_joint(rng, 3, 3)
            px, rows = j.row_conditionals()
            pz = j.col_marginal()
            for a in (1.5, 2.0, 4.0, math.inf):
                mean_div = sum(
                    px[x] * renyi_divergence(Pmf(pz.labels, rows[x]), pz, a)
                    for x in range(3) if px[x] > 0)
                lhs = cond_renyi_entropy(j, a)
                rhs = shannon_entropy(j.row_marginal()) - mean_div
                assert lhs <= rhs + 1e-9

    def test_product_correlation_of_monotone_steps(self, rng):
        # nondecreasing nonnegative functions of a common random symbol are
        # positively correlated under any pmf on the reals
        for _ in range(60):
            k = 5
            p = random_pmf(rng, k)
            fs = np.sort(rng.uniform(0.0, 2.0, size=(3, k)), axis=1)
            mean_prod = float(np.sum(p.probs * np.prod(fs, axis=0)))
            prod_means = float(np.prod(fs @ p.probs))
            assert mean_prod >= prod_means - 1e-12


def _same_bits(ours, ref):
    ours, ref = np.asarray(ours), np.asarray(ref)
    return (ours.shape == ref.shape and ours.dtype == ref.dtype
            and np.array_equal(ours.view(np.int64), ref.view(np.int64)))


class TestLogSumExp:
    """The numpy logsumexp against scipy.special.logsumexp, bit for bit."""

    def test_one_dimensional_bits(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            size = int(rng.integers(1, 40))
            a = rng.normal(scale=float(rng.choice([0.1, 1.0, 30.0, 800.0])), size=size)
            if rng.random() < 0.3:
                a[rng.random(size) < 0.3] = -np.inf
            if rng.random() < 0.3:
                a[rng.integers(0, size, size=3)] = a.max()
            if rng.random() < 0.3:
                a = np.round(a, 1)
            ours, ref = logsumexp(a), scipy_logsumexp(a)
            assert type(ours) is type(ref)
            assert _same_bits(ours, ref), a

    @pytest.mark.parametrize("a", [
        [3.0], [-np.inf], [-np.inf, -np.inf, -np.inf], [1.0, 1.0],
        [0.5, 0.5, -np.inf, 0.5], [np.inf, 1.0], [-745.0, -746.0],
    ])
    def test_edge_cases_bits(self, a):
        ours, ref = logsumexp(np.array(a)), scipy_logsumexp(np.array(a))
        assert type(ours) is type(ref)
        assert _same_bits(ours, ref)

    def test_one_dimensional_steps_match_reference_bits(self):
        # the in-place 1-D steps against the fresh-array evaluation
        rng = np.random.default_rng(15)
        cases = [[3.0], [-np.inf], [-np.inf] * 3, [2.0, 2.0, 2.0], [np.inf, 1.0],
                 [np.inf, -np.inf], [np.nan, 1.0], [1.0, np.nan, np.inf], [-np.nan, 0.0]]
        for _ in range(3000):
            size = int(rng.integers(1, 60))
            a = rng.normal(scale=float(rng.choice([0.1, 1.0, 30.0, 800.0])), size=size)
            if rng.random() < 0.3:
                a[rng.random(size) < 0.3] = -np.inf
            if rng.random() < 0.3:
                a[rng.integers(0, size, size=3)] = a.max()
            for special in (np.inf, np.nan):
                if rng.random() < 0.05:
                    a[rng.integers(0, size)] = special
            cases.append(a)
        for a in cases:
            ours, ref = logsumexp(np.array(a)), logsumexp_reference(np.array(a))
            assert type(ours) is type(ref)
            assert _same_bits(ours, ref), a

    def test_axis_zero_bits(self):
        # random columns, then columns with +inf, nan or only -inf next to
        # finite ones: a column whose max is not finite takes the fallback,
        # the others keep the shifted sum
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(400):
            a = rng.normal(scale=5.0, size=(int(rng.integers(1, 20)), int(rng.integers(1, 20))))
            if rng.random() < 0.3:
                a[rng.random(a.shape) < 0.3] = -np.inf
            if rng.random() < 0.3:
                a = np.round(a)
            if rng.random() < 0.1:
                a[:, 0] = -np.inf
            cases.append(a)
        cases += [np.array([[np.inf, 1.0, -np.inf], [0.0, 2.0, -np.inf]]),
                  np.array([[np.nan, 1.0], [0.0, 1.0]]),
                  np.array([[-np.inf, np.inf, np.nan], [-np.inf, np.inf, 0.0]]),
                  np.full((3, 2), -np.inf)]
        for _ in range(300):
            a = rng.normal(scale=5.0, size=(int(rng.integers(1, 12)), int(rng.integers(2, 12))))
            a[:, rng.random(a.shape[1]) < 0.3] = -np.inf
            for special in (np.inf, np.nan):
                a[np.ix_(rng.random(a.shape[0]) < 0.5, rng.random(a.shape[1]) < 0.3)] = special
            cases.append(a)
        for a in cases:
            ours = logsumexp(a, axis=0)
            assert _same_bits(ours, scipy_logsumexp(a, axis=0)), a
            assert _same_bits(ours, logsumexp_reference(a, axis=0)), a
            assert _same_bits(logsumexp(a), scipy_logsumexp(a)), a

    def test_cli_import_leaves_scipy_out(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "import sys, osrb_lab.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestExactSum:
    @pytest.mark.parametrize("size", [0, 1, FSUM_CHUNK - 1, FSUM_CHUNK, FSUM_CHUNK + 1,
                                      3 * FSUM_CHUNK + 7])
    def test_equals_fsum_of_list(self, rng, size):
        # magnitudes spread over 40 decades, so rounding order would show
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size=size)
        assert _exact_sum(values) == math.fsum(values.tolist())
        grid = values[: size - size % 7].reshape(7, -1).T  # a non-contiguous view
        assert _exact_sum(grid) == math.fsum(grid.ravel().tolist())

    def test_kl_and_total_variation_bits(self, rng):
        size = 3 * FSUM_CHUNK + 5
        labels = tuple(str(i) for i in range(size))
        p = Pmf(labels, rng.dirichlet(np.full(size, 0.5)))
        q = Pmf(labels, rng.dirichlet(np.full(size, 0.5)))
        pos = p.probs > 0.0
        pp, qq = p.probs[pos], q.probs[pos]
        assert kl_divergence(p, q, bits=False) == math.fsum((pp * np.log(pp / qq)).tolist())
        assert total_variation(p, q) == 0.5 * math.fsum(np.abs(p.probs - q.probs).tolist())
