import math

import numpy as np
import pytest

from helpers import (
    criterion_six_instances,
    random_joint,
    smoothing_objective,
    sparse_smoothing_instance,
)
from osrb_lab.measures import (
    Channel,
    GuardError,
    JointPmf,
    Pmf,
    cond_renyi_entropy,
    mutual_information,
)
from osrb_lab.rates import (
    IID_DETERMINISTIC,
    STOCHASTIC,
    TYPICAL_DETERMINISTIC,
    dinf_one_shot_bound,
    osrb_threshold_iid,
    osrb_threshold_stochastic,
    osrb_threshold_typical,
    r_prime,
    r_prime_grid_oracle,
    secrecy_rate,
    secrecy_rate_iid_variant,
)

UNIFORM2 = Pmf.uniform(["0", "1"])
COPY = Channel.identity(("0", "1"))
BSC01 = Channel.bsc(0.1)
BSC03 = Channel.bsc(0.3)


def h2(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def channel_of(j):
    _, cond = j.row_conditionals()
    return Channel(j.row_labels, j.col_labels, cond)


class TestThresholds:
    def test_iid_worked_values(self):
        j = BSC03.joint(UNIFORM2)
        # H-tilde_2(X|Z) = -log2(0.7^2 + 0.3^2) for the symmetric pair
        assert osrb_threshold_iid(j, 2).rate_bits == pytest.approx(
            -math.log2(0.58), abs=1e-12)
        assert osrb_threshold_iid(j, 1).rate_bits == pytest.approx(
            h2(0.3), abs=1e-12)
        assert osrb_threshold_iid(j, math.inf).rate_bits == pytest.approx(
            -math.log2(0.7), abs=1e-12)

    def test_encoder_labels(self):
        j = BSC03.joint(UNIFORM2)
        assert osrb_threshold_iid(j, 2).encoder == IID_DETERMINISTIC
        assert osrb_threshold_typical(UNIFORM2, BSC03, 2).encoder == TYPICAL_DETERMINISTIC

    def test_typical_matches_iid_for_symmetric_pair(self):
        got = osrb_threshold_typical(UNIFORM2, BSC03, 2).rate_bits
        assert got == pytest.approx(-math.log2(0.58), abs=1e-9)

    def test_typical_rejects_low_orders(self):
        for a in (0.5, 1.0):
            with pytest.raises(ValueError):
                osrb_threshold_typical(UNIFORM2, BSC03, a)

    def test_iid_never_exceeds_typical(self, rng):
        # the conditional Renyi entropy sits below H(X) minus the mean
        # output divergence, so the i.i.d. threshold is the weaker one
        for _ in range(30):
            j = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            p_x = j.row_marginal()
            ch = channel_of(j)
            for a in (1.5, 2.0, 4.0, math.inf):
                lo = osrb_threshold_iid(j, a).rate_bits
                hi = osrb_threshold_typical(p_x, ch, a).rate_bits
                assert lo <= hi + 1e-9

    def test_stochastic_worked_value(self):
        rep = osrb_threshold_stochastic(UNIFORM2, COPY, BSC03, 2)
        assert rep.rate_bits == pytest.approx(-math.log2(0.58), abs=1e-6)
        assert rep.encoder == STOCHASTIC
        assert rep.components["I(U;Z)"] == pytest.approx(1 - h2(0.3), abs=1e-9)
        assert set(rep.flags) <= {"optimizer_not_converged"}
        assert rep.optimizer_trace["converged"]
        assert rep.optimizer_trace["gap"] <= 1e-9


class TestRPrime:
    def test_copy_channel_matches_mean_divergence(self):
        # with U = X the objective maximum equals the mean output
        # divergence of the eavesdropper channel
        from osrb_lab.measures import renyi_divergence

        out = BSC03.output(UNIFORM2)
        for a in (1.5, 2.0, 4.0, math.inf):
            val, tilt = r_prime(UNIFORM2, COPY, BSC03, a)
            mean = sum(
                0.5 * renyi_divergence(Pmf(("0", "1"), BSC03.rows[i]), out, a, bits=True)
                for i in range(2))
            assert val == pytest.approx(mean, abs=1e-6)
            assert np.allclose(tilt.t.sum(axis=2), 1.0, atol=1e-9)

    def test_point_mass_u_gives_zero(self):
        pu = Pmf(("u",), (1.0,))
        ch = Channel(("u",), ("0", "1"), [[0.6, 0.4]])
        val, _ = r_prime(pu, ch, BSC03, 2)
        assert abs(val) <= 1e-9

    def test_independent_output_gives_zero(self):
        flat = Channel(("0", "1"), ("z0", "z1"), [[0.7, 0.3], [0.7, 0.3]])
        val, _ = r_prime(UNIFORM2, COPY, flat, 2)
        assert abs(val) <= 1e-6

    def test_value_at_least_feasible_point(self, rng):
        for _ in range(5):
            pu = Pmf(("u0", "u1"), rng.dirichlet([3, 3]))
            cxu = Channel(("u0", "u1"), ("x0", "x1"), rng.dirichlet([3, 3], size=2))
            czx = Channel(("x0", "x1"), ("z0", "z1"), rng.dirichlet([3, 3], size=2))
            val, _ = r_prime(pu, cxu, czx, 2)
            iuz = mutual_information(cxu.then(czx).joint(pu))
            assert val >= iuz - 1e-9

    def test_grid_oracle_agreement(self, rng):
        for _ in range(4):
            pu = Pmf(("u0", "u1"), rng.dirichlet([3, 3]))
            cxu = Channel(("u0", "u1"), ("x0", "x1"), rng.dirichlet([3, 3], size=2))
            czx = Channel(("x0", "x1"), ("z0", "z1"), rng.dirichlet([3, 3], size=2))
            val, _ = r_prime(pu, cxu, czx, 2)
            grid = r_prime_grid_oracle(pu, cxu, czx, 2, step=0.02)
            assert val >= grid - 1e-9
            assert val - grid <= 5e-3

    def test_rejects_low_orders(self):
        for a in (0.5, 1.0):
            with pytest.raises(ValueError):
                r_prime(UNIFORM2, COPY, BSC03, a)

    def test_rejects_removed_start_options(self):
        for stale in ({"starts": 4}, {"seed": 0}, {"ftol": 1e-12}):
            with pytest.raises(TypeError):
                r_prime(UNIFORM2, COPY, BSC03, 2, **stale)
            with pytest.raises(TypeError):
                osrb_threshold_stochastic(UNIFORM2, COPY, BSC03, 2, **stale)
            with pytest.raises(TypeError):
                secrecy_rate(BSC01, BSC03, (UNIFORM2, COPY), 2,
                             encoder="stochastic", **stale)

    def test_criterion_six_instances_converge(self):
        for pu, cxu, czx, a in criterion_six_instances():
            rep = osrb_threshold_stochastic(pu, cxu, czx, a)
            assert "optimizer_not_converged" not in rep.flags
            assert rep.optimizer_trace["gap"] <= 1e-9

    @pytest.mark.parametrize("zero_frac", [0.0, 0.3])
    def test_certificate_bounds_random_channels(self, zero_frac):
        # r' + gap must bound the objective of every feasible channel: random
        # ones, and those a random local search reaches from the returned
        # argmax; the argmax must score the reported value, at least I(U;Z)
        rng = np.random.default_rng(2718)
        for _ in range(12):
            pu, cxu, czx = sparse_smoothing_instance(rng, zero_frac)
            iuz = mutual_information(cxu.then(czx).joint(pu))
            rows = np.argwhere(pu.probs[:, None] * cxu.rows > 0.0)
            for a in (1.5, 2.0, 4.0, math.inf):
                val, tilt = r_prime(pu, cxu, czx, a)
                rep = osrb_threshold_stochastic(pu, cxu, czx, a)
                bound = val + rep.optimizer_trace["gap"] + 1e-12
                assert rep.components["r_prime"] == val
                assert rep.optimizer_trace["converged"] == (rep.optimizer_trace["gap"] <= 1e-9)
                assert val >= iuz - 1e-9
                t = tilt.t.copy()
                best = smoothing_objective(pu, cxu, czx, a, t)
                assert best == pytest.approx(val, abs=1e-9)
                noise = rng.dirichlet(np.ones(czx.rows.shape[1]), size=t.shape[:2]) * (czx.rows > 0.0)
                assert smoothing_objective(
                    pu, cxu, czx, a, noise / noise.sum(axis=2, keepdims=True)) <= bound
                for _ in range(30):
                    # move a fraction of t(z2|u,x) to z1 inside supp p(z|x)
                    u, x = rows[rng.integers(len(rows))]
                    z1, z2 = rng.choice(np.flatnonzero(czx.rows[x] > 0.0), 2)
                    cand = t.copy()
                    move = cand[u, x, z2] * 10.0 ** -rng.integers(0, 4)
                    cand[u, x, z2] -= move
                    cand[u, x, z1] += move
                    score = smoothing_objective(pu, cxu, czx, a, cand)
                    if score > best:
                        t, best = cand, score
                assert best <= bound

    def test_alphabet_guard(self):
        labels = tuple(f"u{i}" for i in range(9))
        pu = Pmf.uniform(labels)
        ch = Channel(labels, ("0", "1"), np.full((9, 2), 0.5))
        with pytest.raises(GuardError):
            r_prime(pu, ch, BSC03, 2)

    def test_grid_oracle_input_checks(self):
        with pytest.raises(ValueError):
            r_prime_grid_oracle(UNIFORM2, COPY, BSC03, 2, step=0.004)
        with pytest.raises(ValueError):
            r_prime_grid_oracle(UNIFORM2, COPY, BSC03, 2, step=0.06)
        pu3 = Pmf.uniform(["a", "b", "c"])
        ch3 = Channel(("a", "b", "c"), ("0", "1"), np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            r_prime_grid_oracle(pu3, ch3, BSC03, 2)


class TestSecrecy:
    def test_order_one(self):
        rep = secrecy_rate(BSC01, BSC03, UNIFORM2, 1)
        assert rep.rate_bits == pytest.approx(h2(0.3) - h2(0.1), abs=1e-12)
        assert rep.flags == ()

    def test_order_two(self):
        rep = secrecy_rate(BSC01, BSC03, UNIFORM2, 2)
        expect = (1 - h2(0.1)) - math.log2(2 * 0.58)
        assert rep.rate_bits == pytest.approx(expect, abs=1e-12)

    def test_order_infinity(self):
        rep = secrecy_rate(BSC01, BSC03, UNIFORM2, math.inf)
        expect = (1 - h2(0.1)) - math.log2(2 * 0.7)
        assert rep.rate_bits == pytest.approx(expect, abs=1e-12)

    def test_continuity_near_order_one(self):
        at_one = secrecy_rate(BSC01, BSC03, UNIFORM2, 1).rate_bits
        near = secrecy_rate(BSC01, BSC03, UNIFORM2, 1.001).rate_bits
        assert abs(near - at_one) < 5e-3

    def test_below_order_one_branch(self):
        # H(X|Z) - H(X|Y) for the symmetric pair equals the order-one rate
        rep = secrecy_rate(BSC01, BSC03, UNIFORM2, 0.5)
        assert rep.rate_bits == pytest.approx(h2(0.3) - h2(0.1), abs=1e-12)
        assert "H(X|Z)" in rep.components

    def test_below_order_one_branch_skewed_input(self):
        # input (0.8, 0.2): P(Z=0) = 0.62 and P(Y=0) = 0.74, so
        # H(X|Z) = h(0.2) + h(0.3) - h(0.62) and H(X|Y) = h(0.2) + h(0.1) - h(0.74)
        rep = secrecy_rate(BSC01, BSC03, Pmf(("0", "1"), (0.8, 0.2)), 0.5)
        hxz = h2(0.2) + h2(0.3) - h2(0.62)
        hxy = h2(0.2) + h2(0.1) - h2(0.74)
        assert rep.components["H(X|Z)"] == pytest.approx(hxz, abs=1e-12)
        assert rep.components["H(X|Y)"] == pytest.approx(hxy, abs=1e-12)
        assert rep.rate_bits == pytest.approx(hxz - hxy, abs=1e-12)
        assert rep.rate_bits == pytest.approx(0.2810, abs=1e-4)

    def test_negative_rate_flagged_not_clipped(self):
        rep = secrecy_rate(BSC03, BSC01, UNIFORM2, 2)
        assert rep.rate_bits < -0.5
        assert "negative_rate" in rep.flags

    def test_stochastic_copy_matches_deterministic(self):
        rep = secrecy_rate(BSC01, BSC03, (UNIFORM2, COPY), 2, encoder="stochastic")
        det = secrecy_rate(BSC01, BSC03, UNIFORM2, 2).rate_bits
        assert rep.rate_bits == pytest.approx(det, abs=1e-6)
        assert rep.components["I(U;Y)"] == pytest.approx(1 - h2(0.1), abs=1e-9)

    def test_stochastic_rejects_low_orders(self):
        with pytest.raises(ValueError):
            secrecy_rate(BSC01, BSC03, (UNIFORM2, COPY), 1, encoder="stochastic")

    def test_stochastic_auxiliary_guard(self):
        labels = ("u0", "u1", "u2", "u3")
        pu = Pmf.uniform(labels)
        ch = Channel(labels, ("0", "1"), np.full((4, 2), 0.5))
        with pytest.raises(GuardError):
            secrecy_rate(BSC01, BSC03, (pu, ch), 2, encoder="stochastic")

    def test_unknown_encoder(self):
        with pytest.raises(ValueError):
            secrecy_rate(BSC01, BSC03, UNIFORM2, 2, encoder="typical")

    def test_iid_variant_skewed_input(self):
        # Z from input (0.8, 0.2) through BSC(0.3); main channel BSC(0.1):
        # P(Y=0) = 0.74, so H(X|Y) = h(0.2) + h(0.1) - h(0.74) = 0.3642
        p_x = Pmf(("0", "1"), (0.8, 0.2))
        rep = secrecy_rate_iid_variant(BSC03.joint(p_x), BSC01, 2)
        hxy = h2(0.2) + h2(0.1) - h2(0.74)
        assert rep.components["H(X|Y)"] == pytest.approx(hxy, abs=1e-12)
        assert rep.components["H(X|Y)"] == pytest.approx(0.3642, abs=1e-4)
        assert rep.rate_bits == pytest.approx(
            cond_renyi_entropy(BSC03.joint(p_x), 2) - hxy, abs=1e-12)

    def test_iid_variant_equals_typical_for_symmetric_pair(self):
        j = BSC03.joint(UNIFORM2)
        weak = secrecy_rate_iid_variant(j, BSC01, 2).rate_bits
        strong = secrecy_rate(BSC01, BSC03, UNIFORM2, 2).rate_bits
        assert weak == pytest.approx(strong, abs=1e-9)

    def test_report_serialization(self):
        doc = secrecy_rate(BSC01, BSC03, UNIFORM2, math.inf).to_dict()
        assert doc["alpha"] == "inf"
        assert isinstance(doc["flags"], list)
        assert "I(X;Y)" in doc["components"]


class TestOneShotBound:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            dinf_one_shot_bound(BSC03.joint(UNIFORM2), 0)

    def test_binary_side_condition_fails(self):
        # 2 * log2(4) * 0.7 = 2.8 sits above one, so the bound is not claimed
        bound, ok = dinf_one_shot_bound(BSC03.joint(UNIFORM2), 2)
        assert not ok
        assert bound == pytest.approx(2 * math.sqrt(2.8), abs=1e-9)

    def test_near_uniform_senary_input_qualifies(self):
        rng = np.random.default_rng(42)
        cond = rng.dirichlet([30, 30], size=6)
        probs = np.full(6, 1 / 6)[:, None] * cond
        j = JointPmf(tuple(f"x{i}" for i in range(6)), ("z0", "z1"), probs)
        bound, ok = dinf_one_shot_bound(j, 2)
        assert ok
        radicand = 2 * math.log2(4) * 2.0 ** (-cond_renyi_entropy(j, math.inf))
        assert bound == pytest.approx(2 * math.sqrt(radicand), abs=1e-12)
