"""Divergence statistics of the law a random binning induces.

A binning assigns each of ``n_items`` alphabet symbols (or sequences) an
independent uniform bin index in ``1..m``.  The induced joint over
(bin, side information) is compared against the ideal uniform-bin product
reference.  Expectations over the binning ensemble come in three flavors:
exhaustive enumeration, an exact set-partition formula for integer Tsallis
orders, and seeded Monte Carlo.

The exact formula is the moment-cumulant expansion of E[P(b|z)^alpha]
over the partition lattice: one signed term c_rho(m) G_rho^n per set
partition rho of the alpha tuple positions, where c_rho is a product of
scaled Bernoulli(1/m) cumulants.  The all-singletons term equals the
reference's unit mass and is dropped analytically, so small means are not
formed as a difference against 1; each term is built in the log domain.

Randomness: all draws use numpy's Philox counter-based generator keyed by
``(seed, stream)``, so trial substreams are reproducible.  Monte Carlo runs
its trials in order on one thread and reduces them with a fixed-shape
pairwise tree, so its means and standard errors stay bit-identical.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import Counter
from itertools import chain, count as iter_count

import numpy as np

from .measures import (
    MATRIX_GUARD,
    SEQ_GUARD,
    GuardError,
    JointPmf,
    _DivergenceKernel,
    _kron_power,
    _power_exceeds,
    check_alpha,
)
# unused; the benchmark's tracer resolves them
from .measures import d_infinity_raw, tsallis_raw  # noqa: F401

ENUM_GUARD = 10 ** 6     # max number of binnings an enumeration may visit
ENUM_CELLS = 2 ** 16     # table cells of one stack of enumerated binnings


def _mask64(value: int) -> int:
    return int(value) & 0xFFFFFFFFFFFFFFFF


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """Stable 64-bit child seed from (seed, label, index), via keyed blake2b."""
    h = hashlib.blake2b(
        f"{label}:{index}".encode(),
        key=_mask64(seed).to_bytes(8, "little"),
        digest_size=8,
    )
    return int.from_bytes(h.digest(), "little")


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox 4x64 generator keyed by (seed, stream)."""
    key = np.array([_mask64(seed), _mask64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def philox_streams(seed: int):
    """philox_rng(seed, 0), philox_rng(seed, 1), ... as one generator
    object, re-keyed in place for each next stream."""
    rng = philox_rng(seed, 0)
    fresh = rng.bit_generator.state
    yield rng
    for stream in iter_count(1):
        fresh["state"]["key"][1] = stream
        rng.bit_generator.state = fresh
        yield rng


# No caller is left: _map_indexed stays, here and imported by wiretap,
# only because the benchmark's tracer resolves both names.
def _map_indexed(fn, count: int, threads: int):
    """Apply fn to 0..count-1 in index order; ``threads`` is ignored."""
    return [fn(i) for i in range(count)]


def pairwise_sum(values) -> float:
    """Sum with a fixed-shape pairwise tree (order-independent rounding)."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def m_from_rate(n: int, rate: float) -> int:
    """Bin count for a rate in bits per symbol: ceil(2^(n * rate)).

    Raises GuardError once n * rate >= 1024, beyond float range."""
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    if not rate >= 0.0:  # also rejects NaN
        raise ValueError("rate must be >= 0")
    if n * rate >= 1024:
        raise GuardError(f"bin count m = ceil(2^({n} * {rate})) exceeds float range")
    return int(math.ceil(2.0 ** (n * rate)))


def _aggregate(bins: np.ndarray, probs: np.ndarray, m: int) -> np.ndarray:
    """Bin tables of a stack of g binnings, shape (g, m, probs.shape[1]):
    table t sums the rows probs[i] with bins[t, i] = b (0-based) into row b.
    Rows are added item by item in item order, one fancy add per item for
    the whole stack, so each cell is the item-order sum of ``np.add.at``."""
    g, items = bins.shape
    out = np.zeros((g * m, probs.shape[1]))
    first = np.arange(0, g * m, m)
    for i in range(items):
        out[first + bins[:, i]] += probs[i]
    return out.reshape(g, m, -1)


class _KronTables:
    """Bin tables of the joint ``high (x) low``, never formed: a GEMM of the
    bin one-hot against ``low``, then one against ``high``.  The one-hot
    and both products live as long as the object; each call clears the
    previous binning's ones.  On non-dyadic joints BLAS's order of addition
    moves the last bits against :func:`_aggregate`."""

    def __init__(self, high: np.ndarray, low: np.ndarray, m: int):
        self.high, self.low = high, low
        self.items = np.arange(high.shape[0] * low.shape[0])
        self.onehot = np.zeros((m, self.items.size))
        self.ones = self.items  # flat indices of the last ones set; at first, zeros
        self.lows = np.empty((m * high.shape[0], low.shape[1]))
        self.out = np.empty((m, high.shape[1], low.shape[1]))

    def __call__(self, bins: np.ndarray) -> np.ndarray:
        """Table P[b, z] of the binning that puts item i in bin bins[i] (0-based)."""
        m = self.onehot.shape[0]
        flat = self.onehot.reshape(-1)
        flat[self.ones] = 0.0
        self.ones = bins * self.items.size + self.items
        flat[self.ones] = 1.0
        np.matmul(self.onehot.reshape(-1, self.low.shape[0]), self.low, out=self.lows)
        np.matmul(self.high.T, self.lows.reshape(m, self.high.shape[0], -1), out=self.out)
        return self.out.reshape(m, -1)


def expected_divergence_enum(j: JointPmf, n: int, m: int, alpha) -> float:
    """Ensemble average over all m^(k^n) binnings of the n-fold extension of
    ``j`` (k source letters).  The guard is checked before the extension is
    built, and neither m^(k^n) nor k^n is formed once n alone puts any
    m >= 2 over it; a k^n past SEQ_GUARD is written as a power.  Binnings
    go in the order of ``itertools.product``, at most ``ENUM_CELLS`` table
    cells at a time, through :func:`_aggregate` into one stack, which one
    divergence kernel, built per call against the row p(z^n)/m, scores
    with :meth:`_DivergenceKernel.tables`; the mean is one ``math.fsum``."""
    a = check_alpha(alpha)
    if n < 1:
        raise ValueError("expected_divergence_enum: n must be >= 1")
    k = j.shape[0]
    if m > 1 and (_power_exceeds(k, n, ENUM_GUARD.bit_length() - 1)
                  or m ** k ** n > ENUM_GUARD):
        items = f"({k}^{n})" if _power_exceeds(k, n, SEQ_GUARD) else k ** n
        raise GuardError(f"enumeration of {m}^{items} binnings exceeds guard")
    jn = j if n == 1 else j.product_power(n)
    n_items = jn.shape[0]
    count = m ** n_items
    pz = jn.probs.sum(axis=0)
    divergence = _DivergenceKernel(pz / m, a, (m, pz.size))
    chunk = max(1, ENUM_CELLS // (m * pz.size))
    # the bin of item i in binning t is digit i of t in base m, item 0 leading
    places = m ** np.arange(n_items - 1, -1, -1, dtype=np.int64)

    def values(lo: int) -> list:
        bins = np.arange(lo, min(lo + chunk, count), dtype=np.int64)[:, None] // places % m
        return divergence.tables(_aggregate(bins, jn.probs, m)).tolist()

    return math.fsum(chain.from_iterable(map(values, range(0, count, chunk)))) / count


# ---------------------------------------------------------------------------
# Exact expectation for integer Tsallis orders


def set_partitions(items: int):
    """Yield set partitions of range(items) as tuples of blocks."""
    if items == 0:
        yield ()
        return

    def rec(idx, blocks):
        if idx == items:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(idx)
            yield from rec(idx + 1, blocks)
            b.pop()
        blocks.append([idx])
        yield from rec(idx + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def bin_cumulant_coefficients(m: int, max_order: int) -> list[int]:
    """c_s(m) = m^s kappa_s for s = 1..max_order, as exact integers.

    kappa_s is the s-th cumulant of a Bernoulli(1/m) bin indicator, whose
    raw moments all equal 1/m; the moment recursion, scaled by m^s, gives
    c_s = m^(s-1) - sum_{k<s} C(s-1, k-1) c_k m^(s-k-1).  So c_1 = 1,
    c_2 = m - 1, c_3 = (m - 1)(m - 2), and every c_s with s >= 2 vanishes
    at m = 1.
    """
    c = [0]
    for s in range(1, max_order + 1):
        c.append(m ** (s - 1) - sum(math.comb(s - 1, k - 1) * c[k] * m ** (s - k - 1)
                                    for k in range(1, s)))
    return c[1:]


@functools.cache
def _block_types(alpha: int) -> tuple:
    """((sorted block sizes, number of set partitions of range(alpha) with
    them), ...), in order of first appearance."""
    return tuple(Counter(tuple(sorted(len(b) for b in rho))
                         for rho in set_partitions(alpha)).items())


@functools.lru_cache(maxsize=8)
def _exact_terms(j: JointPmf, alpha: int) -> tuple:
    """The n- and m-free part of :func:`expected_tsallis_exact_iid` for the
    joint object ``j`` (JointPmf compares by identity) at ``alpha``: one
    (block sizes, count, log G_rho) per block type other than the unit
    one, with the power sums S_k(z) of j's positive columns."""
    pz, cond = j.col_conditionals()
    pos = pz > 0.0
    pz, cond = pz[pos], cond[:, pos]
    power_sums = {1: 1.0}  # S_1(z) = 1 exactly on every positive column
    power_sums.update((k, np.sum(cond ** k, axis=0)) for k in range(2, alpha + 1))
    return tuple(
        (sizes, count, math.log(math.fsum(pz * math.prod(power_sums[s] for s in sizes))))
        for sizes, count in _block_types(alpha) if sizes[-1] > 1)


def expected_tsallis_exact_iid(j: JointPmf, n: int, m: int, alpha: int) -> float:
    """Exact ensemble average for the n-fold i.i.d. extension of ``j``.

    Moment-cumulant expansion over the set partitions rho of the alpha
    tuple positions: E[sum_b P(b|z)^alpha] m^(alpha-1) is the sum over rho
    of prod_{B in rho} c_|B|(m) S_|B|(z), with S_k(z) = sum_x p(x|z)^k
    and c_s from :func:`bin_cumulant_coefficients`.  Power sums of a
    product joint factor per letter, so each rho contributes
    c_rho(m) G_rho^n with G_rho = sum_z p(z) prod_B S_|B|(z); no sequence
    alphabet is materialized.  The all-singletons rho is exactly the unit
    mass of the reference and is dropped analytically, so nothing cancels
    against 1, and m = 1 gives exactly 0.0.  Each term is formed in the
    log domain as exp(log|c_rho(m)| + n log G_rho); a term or sum beyond
    float range raises GuardError.  Every log G_rho depends on the joint
    and the order only, and is computed once per (joint object, order)
    (:func:`_exact_terms`, a small cache); a call forms the c_s(m) and at
    most one exp per block type.
    """
    a = float(alpha)
    if not (a.is_integer() and 2 <= a <= 5):
        raise ValueError("expected_tsallis_exact_iid: order must be an integer in 2..5")
    alpha = int(a)
    if n < 1:
        raise ValueError("expected_tsallis_exact_iid: n must be >= 1")
    if m < 1:
        raise ValueError("expected_tsallis_exact_iid: m must be >= 1")
    c = dict(enumerate(bin_cumulant_coefficients(m, alpha), start=1))
    terms = []
    try:
        for sizes, count, log_g in _exact_terms(j, alpha):
            coef = count * math.prod(c[s] for s in sizes)
            if coef == 0:
                continue  # a coefficient that vanishes at this m
            term = math.exp(math.log(abs(coef)) + n * log_g)
            terms.append(term if coef > 0 else -term)
        return math.fsum(terms) / (alpha - 1)
    except OverflowError:
        raise GuardError(f"exact mean at n={n}, log2(m)={math.log2(m):.1f}, "
                         f"order {alpha} exceeds float range")


# ---------------------------------------------------------------------------
# Monte Carlo


def expected_divergence_mc(
    j: JointPmf,
    n: int,
    rate: float,
    alpha,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the binning divergence.

    Bins the n-fold sequence extension of ``j`` at ``m = ceil(2^(n rate))``
    bins, without building it: the per-trial one-hot and bin table are
    checked against MATRIX_GUARD before the first trial.  Trial t draws its
    binning from the Philox substream keyed by (seed, t); trials run in
    index order.  The one-hot, both matrix products, the generator
    (``philox_streams``) and the divergence kernel's scratch are allocated
    once per call.
    """
    a = check_alpha(alpha)
    if trials < 1:
        raise ValueError("expected_divergence_mc: trials must be >= 1")
    kx, kz = j.shape
    if _power_exceeds(kx, n, SEQ_GUARD):
        raise GuardError(f"sequence alphabet {kx}^{n} exceeds guard")
    m = m_from_rate(n, rate)
    # m * max(kx, kz)^n > MATRIX_GUARD exactly when the power exceeds MATRIX_GUARD // m
    if _power_exceeds(max(kx, kz), n, MATRIX_GUARD // m):
        raise GuardError(f"mc at m = {m}: arrays {m} x {kx}^{n} and {m} x {kz}^{n} exceed guard")
    nx, nz = kx ** n, kz ** n
    high = _kron_power(j.probs, n // 2)
    low = _kron_power(j.probs, n - n // 2)
    pz = _kron_power(j.probs.sum(axis=0), n)

    tables = _KronTables(high, low, m)
    divergence = _DivergenceKernel(pz / m, a, (m, nz))
    values = []
    for _, rng in zip(range(trials), philox_streams(seed)):
        # the draws of integers(1, m + 1), less one
        bins = rng.integers(0, m, size=nx, dtype=np.int64)
        values.append(divergence(tables(bins)))
    mean = pairwise_sum(values) / trials
    if trials == 1:
        return mean, 0.0
    var = pairwise_sum((v - mean) ** 2 for v in values) / (trials - 1)
    return mean, math.sqrt(var / trials)
