"""Randomized instance generators and checks shared across the test modules."""

import math
from fractions import Fraction

import numpy as np

from osrb_lab.binning import expected_tsallis_exact_iid, m_from_rate
from osrb_lab.measures import Channel, JointPmf, Pmf, cond_renyi_entropy


def random_joint(rng, nx, nz, marginal_floor=1e-3):
    """Random joint pmf with every marginal entry at least the floor."""
    while True:
        probs = rng.uniform(0.0, 1.0, size=(nx, nz))
        probs /= probs.sum()
        if probs.sum(axis=1).min() >= marginal_floor and probs.sum(axis=0).min() >= marginal_floor:
            rows = tuple(f"x{i}" for i in range(nx))
            cols = tuple(f"z{i}" for i in range(nz))
            return JointPmf(rows, cols, probs)


def dyadic_joint(rng, nx, nz, scale=2 ** 10):
    """Random joint whose entries are positive multiples of 1/scale.

    Each entry is exact in binary floating point and the entries sum to
    exactly one, so the joint means the same law in float and in rational
    arithmetic.
    """
    counts = rng.multinomial(scale - nx * nz, rng.dirichlet(np.ones(nx * nz))) + 1
    rows = tuple(f"x{i}" for i in range(nx))
    cols = tuple(f"z{i}" for i in range(nz))
    return JointPmf(rows, cols, counts.reshape(nx, nz) / scale)


def _restricted_growth_partitions(k):
    """Set partitions of range(k), as lists of blocks, from restricted growth
    strings: position i joins any block opened so far, or opens the next."""
    def grow(labels):
        if len(labels) == k:
            blocks = [[] for _ in range(max(labels, default=-1) + 1)]
            for i, b in enumerate(labels):
                blocks[b].append(i)
            yield blocks
            return
        for b in range(max(labels, default=-1) + 2):
            yield from grow(labels + [b])
    yield from grow([])


def exact_mean_oracle(joint, n, m, alpha):
    """Expected Tsallis divergence of the binned n-fold extension, as a Fraction.

    Evaluates the equality-pattern double sum in rational arithmetic: each
    set partition pi of the alpha tuple positions (which positions share a
    symbol) has weight m^(alpha - |pi|), and the symbols of distinct blocks
    are forced apart by Moebius inclusion-exclusion over the partitions
    sigma of pi's blocks, with weight prod (-1)^(|C|-1) (|C|-1)!.  The unit
    term is subtracted at the end.  The joint's float entries are taken
    exactly, so pass a dyadic joint whose entries sum to exactly one.
    """
    cols = [[Fraction(float(v)) for v in col] for col in np.asarray(joint.probs).T]
    cols = [(sum(col), col) for col in cols if sum(col)]
    cond = [(pz, [v / pz for v in col]) for pz, col in cols]

    bases = {}

    def base_n(powers):
        key = tuple(sorted(powers))
        if key not in bases:
            bases[key] = sum(pz * math.prod(sum(v ** k for v in col) for k in key)
                             for pz, col in cond) ** n
        return bases[key]

    total = Fraction(0)
    for pi in _restricted_growth_partitions(alpha):
        sizes = [len(b) for b in pi]
        for sigma in _restricted_growth_partitions(len(sizes)):
            mu = math.prod((-1) ** (len(c) - 1) * math.factorial(len(c) - 1)
                           for c in sigma)
            powers = [sum(sizes[i] for i in c) for c in sigma]
            total += m ** (alpha - len(pi)) * mu * base_n(powers)
    return (total - 1) / (alpha - 1)


def random_pmf(rng, k, floor=0.0, prefix="s"):
    while True:
        v = rng.uniform(0.0, 1.0, size=k)
        v /= v.sum()
        if v.min() >= floor:
            return Pmf(tuple(f"{prefix}{i}" for i in range(k)), v)


def random_channel(rng, in_labels, out_labels, floor=0.0):
    rows = []
    for _ in in_labels:
        while True:
            v = rng.uniform(0.0, 1.0, size=len(out_labels))
            v /= v.sum()
            if v.min() >= floor:
                rows.append(v)
                break
    return Channel(tuple(in_labels), tuple(out_labels), np.array(rows))


def order_two_transition_problems(joint, below_gap):
    """Problems with the order-2 phase transition of ``joint``, n = 2..12.

    At order 2 the exact ensemble mean at M = m_from_rate(n, R) bins is
    E_n = (M - 1) 2^(-n H2(X|Z)) = (1 - 1/M) 2^(n (R_n - H2)) with the
    realized rate R_n = log2(M)/n.  The prefactor (1 - 1/M) runs from 1/2
    at M = 2 toward 1 and carries no exponent, so the below-threshold
    sweep (rate H2 + below_gap) is checked on E_n / (1 - 1/M): strictly
    decreasing, with a last/first ratio of at most 2^-1.5.  The
    above-threshold sweep (rate H2 + 0.2) must make E_n itself strictly
    increasing.  Returns a list of messages, empty on success.
    """
    problems = []
    h2 = cond_renyi_entropy(joint, 2)
    ns = range(2, 13)

    def sweep(rate):
        ms = [m_from_rate(n, rate) for n in ns]
        return ms, [expected_tsallis_exact_iid(joint, n, m, 2)
                    for n, m in zip(ns, ms)]

    ms, below = sweep(h2 + below_gap)
    scaled = [e / (1.0 - 1.0 / m) for e, m in zip(below, ms)]
    if not all(a > b for a, b in zip(scaled, scaled[1:])):
        problems.append(
            "below-threshold E_n / (1 - 1/M) not strictly decreasing: "
            + ", ".join("%.4f" % v for v in scaled))
    factor = scaled[-1] / scaled[0]
    if factor > 2.0 ** -1.5:
        problems.append(f"total decrease factor {factor:.3f} exceeds 2^-1.5")
    _, above = sweep(h2 + 0.2)
    if not all(a < b for a, b in zip(above, above[1:])):
        problems.append("above-threshold means are not strictly increasing: "
                        + ", ".join("%.4f" % v for v in above))
    return problems


def criterion_six_instances():
    """The 200 binary (p_u, p(x|u), p(z|x), alpha) solves of criterion 6,
    drawn in the same order from the same seed."""
    rng = np.random.default_rng(314)
    for _ in range(50):
        pu = Pmf(("u0", "u1"), rng.dirichlet([2.5, 2.5]))
        cxu = Channel(("u0", "u1"), ("x0", "x1"), rng.dirichlet([2.5, 2.5], size=2))
        czx = Channel(("x0", "x1"), ("z0", "z1"), rng.dirichlet([2.5, 2.5], size=2))
        for a in (1.5, 2.0, 4.0, math.inf):
            yield pu, cxu, czx, a


def sparse_smoothing_instance(rng, zero_frac):
    """Random (p_u, p(x|u), p(z|x)) with alphabets of 3..8 letters.

    Each entry of p_u and of the channels is zeroed with probability
    ``zero_frac``, keeping one entry per row, and rows are renormalized.
    """
    nu, nx, nz = (int(k) for k in rng.integers(3, 9, size=3))
    u, x, z = ([f"{p}{i}" for i in range(k)] for p, k in (("u", nu), ("x", nx), ("z", nz)))

    def rows(n_in, n_out):
        m = rng.dirichlet(np.ones(n_out), size=n_in)
        zero = rng.random(m.shape) < zero_frac
        zero[np.arange(n_in), rng.integers(n_out, size=n_in)] = False
        m = np.where(zero, 0.0, m)
        return m / m.sum(axis=1, keepdims=True)

    return Pmf(u, rows(1, nu)[0]), Channel(u, x, rows(nu, nx)), Channel(x, z, rows(nx, nz))


def smoothing_objective(pu, cxu, czx, alpha, t):
    """-c D(t || p(z|x) | p(u,x)) + D(t-bar || p(z) | p(u)) in bits, written
    out term by term; t must put no mass outside supp p(z|x)."""
    c = 1.0 if math.isinf(alpha) else alpha / (alpha - 1.0)
    p_u, p_xu, p_zx = pu.probs, cxu.rows, czx.rows
    p_z = (p_u @ p_xu) @ p_zx
    nx, nz = t.shape[1:]

    def kl(p, q):
        return sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0.0)

    penalty = gain = 0.0
    for iu in np.flatnonzero(p_u > 0.0):
        for ix in range(nx):
            penalty += p_u[iu] * p_xu[iu, ix] * kl(t[iu, ix], p_zx[ix])
        tbar = [sum(p_xu[iu, ix] * t[iu, ix, iz] for ix in range(nx)) for iz in range(nz)]
        gain += p_u[iu] * kl(tbar, p_z)
    return -c * penalty + gain
