"""Random binning maps and divergence statistics of the induced law.

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
``(seed, stream)``, so trial substreams are reproducible and independent
of execution order.  Monte Carlo reductions use a fixed-shape pairwise
tree, which keeps results bit-identical at any thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .measures import (
    GuardError,
    JointPmf,
    Pmf,
    _atomic_write_text,
    check_alpha,
    d_infinity_raw,
    tsallis_raw,
)

ENUM_GUARD = 10 ** 6     # max number of binnings an enumeration may visit
SEQ_GUARD = 2 ** 24      # max number of source sequences


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


def resolve_threads(explicit=None) -> int:
    """Thread budget: explicit argument, else OSRB_LAB_THREADS (0 = auto)."""
    if explicit is None:
        raw = os.environ.get("OSRB_LAB_THREADS", "0")
        try:
            explicit = int(raw)
        except ValueError:
            raise ValueError(f"OSRB_LAB_THREADS must be an integer, got {raw!r}")
    if explicit < 0:
        raise ValueError("thread count must be >= 0")
    if explicit == 0:
        return min(os.cpu_count() or 1, 8)
    return explicit


def _map_indexed(fn, count: int, threads: int):
    """Apply fn to 0..count-1, results in index order regardless of threads."""
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


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
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    if n * rate >= 1024:
        raise GuardError(f"bin count m = ceil(2^({n} * {rate})) exceeds float range")
    return int(math.ceil(2.0 ** (n * rate)))


@dataclass(frozen=True, eq=False)
class BinningMap:
    """Assignment of item index -> bin index in 1..m."""

    n_items: int
    m: int
    assignment: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=np.int64)
        if arr.shape != (self.n_items,):
            raise ValueError("BinningMap: assignment length must equal n_items")
        if self.m < 1:
            raise ValueError("BinningMap: m must be >= 1")
        if arr.size and (arr.min() < 1 or arr.max() > self.m):
            raise ValueError("BinningMap: bin indices must lie in 1..m")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)

    def to_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "m": self.m,
            "seed": self.seed,
            "assignment": [int(b) for b in self.assignment],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BinningMap":
        return cls(int(doc["n_items"]), int(doc["m"]),
                   np.asarray(doc["assignment"], dtype=np.int64), doc.get("seed"))

    def save(self, path) -> None:
        _atomic_write_text(path, json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "BinningMap":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def sample_binning(n_items: int, m: int, seed: int) -> BinningMap:
    """Draw one uniform binning; identical inputs give identical maps."""
    if n_items < 1:
        raise ValueError("sample_binning: n_items must be >= 1")
    if m < 1:
        raise ValueError("sample_binning: m must be >= 1")
    rng = philox_rng(seed, 0)
    assignment = rng.integers(1, m + 1, size=n_items, dtype=np.int64)
    return BinningMap(n_items, m, assignment, seed)


def _aggregate(assignment: np.ndarray, probs: np.ndarray, m: int) -> np.ndarray:
    """Sum joint rows into bins: P[b, z] = sum over items in bin b."""
    out = np.zeros((m, probs.shape[1]))
    np.add.at(out, assignment - 1, probs)
    return out


def _aggregate_fast(assignment: np.ndarray, probs: np.ndarray, m: int) -> np.ndarray:
    """BLAS-backed aggregation used by the Monte Carlo inner loop."""
    onehot = (assignment[:, None] == np.arange(1, m + 1)[None, :]).astype(float)
    return onehot.T @ probs


def induced_joint(b: BinningMap, j: JointPmf) -> JointPmf:
    """Joint law of (bin index, Z) induced by a binning of the X alphabet."""
    if b.n_items != j.shape[0]:
        raise ValueError("binning size does not match joint's X alphabet")
    agg = _aggregate(b.assignment, j.probs, b.m)
    return JointPmf(tuple(str(i) for i in range(1, b.m + 1)), j.col_labels, agg)


def _divergence_of_induced(agg: np.ndarray, pz: np.ndarray, m: int, alpha: float) -> float:
    """Divergence of P(b, z) from the uniform-bin reference (1/m) p(z)."""
    ref = np.broadcast_to(pz / m, agg.shape)
    if math.isinf(alpha):
        return d_infinity_raw(agg, ref, bits=True)
    return tsallis_raw(agg, ref, alpha)


def divergence_for_binning(b: BinningMap, j: JointPmf, alpha) -> float:
    """Tsallis divergence (or max-log-ratio in bits at INFINITY) between the
    induced (bin, Z) law and the uniform-bin product reference."""
    a = check_alpha(alpha)
    if b.n_items != j.shape[0]:
        raise ValueError("binning size does not match joint's X alphabet")
    agg = _aggregate(b.assignment, j.probs, b.m)
    pz = j.probs.sum(axis=0)
    return _divergence_of_induced(agg, pz, b.m, a)


def expected_divergence_enum(j: JointPmf, m: int, alpha) -> float:
    """Ensemble average by enumerating all m^(n_items) binnings."""
    a = check_alpha(alpha)
    n_items = j.shape[0]
    count = m ** n_items
    if count > ENUM_GUARD:
        raise GuardError(f"enumeration of {m}^{n_items} binnings exceeds guard")
    pz = j.probs.sum(axis=0)
    values = []
    for combo in iter_product(range(1, m + 1), repeat=n_items):
        agg = _aggregate(np.asarray(combo, dtype=np.int64), j.probs, m)
        values.append(_divergence_of_induced(agg, pz, m, a))
    return math.fsum(values) / count


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


def expected_tsallis_exact(j: JointPmf, m: int, alpha: int) -> float:
    """Exact ensemble average of the Tsallis divergence, integer order 2..5.

    The single-letter case of :func:`expected_tsallis_exact_iid`.  At
    order two it reduces to (m - 1) * sum_z p(z) S_2(z).
    """
    alpha = int(alpha)
    if not 2 <= alpha <= 5:
        raise ValueError("expected_tsallis_exact: order must be an integer in 2..5")
    if m < 1:
        raise ValueError("expected_tsallis_exact: m must be >= 1")
    return expected_tsallis_exact_iid(j, 1, m, alpha)


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
    float range raises GuardError.
    """
    a = float(alpha)
    if not (a.is_integer() and 2 <= a <= 5):
        raise ValueError("expected_tsallis_exact_iid: order must be an integer in 2..5")
    alpha = int(a)
    if n < 1:
        raise ValueError("expected_tsallis_exact_iid: n must be >= 1")
    if m < 1:
        raise ValueError("expected_tsallis_exact_iid: m must be >= 1")
    pz, cond = j.col_conditionals()
    pos = pz > 0.0
    pz, cond = pz[pos], cond[:, pos]
    power_sums = {1: 1.0}  # S_1(z) = 1 exactly on every positive column
    power_sums.update((k, np.sum(cond ** k, axis=0)) for k in range(2, alpha + 1))
    c = dict(enumerate(bin_cumulant_coefficients(m, alpha), start=1))
    block_types = Counter(tuple(sorted(len(b) for b in rho))
                          for rho in set_partitions(alpha))
    terms = []
    try:
        for sizes, count in block_types.items():
            coef = count * math.prod(c[s] for s in sizes)
            if sizes[-1] == 1 or coef == 0:
                continue  # the unit term, or a coefficient that vanishes at this m
            g = math.fsum(pz * math.prod(power_sums[s] for s in sizes))
            term = math.exp(math.log(abs(coef)) + n * math.log(g))
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
    threads: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the binning divergence.

    Bins the n-fold sequence extension of ``j`` at ``m = ceil(2^(n rate))``
    bins.  Trial t draws its binning from the Philox substream keyed by
    (seed, t), so the estimate does not depend on thread scheduling.
    """
    a = check_alpha(alpha)
    if trials < 1:
        raise ValueError("expected_divergence_mc: trials must be >= 1")
    nx = j.shape[0] ** n
    if nx > SEQ_GUARD:
        raise GuardError(f"sequence alphabet {j.shape[0]}^{n} exceeds guard")
    prod = j.product_power(n)
    m = m_from_rate(n, rate)
    probs = prod.probs
    pz = probs.sum(axis=0)

    def one_trial(t: int) -> float:
        rng = philox_rng(seed, t)
        assignment = rng.integers(1, m + 1, size=nx, dtype=np.int64)
        agg = _aggregate_fast(assignment, probs, m)
        return _divergence_of_induced(agg, pz, m, a)

    values = _map_indexed(one_trial, trials, resolve_threads(threads))
    mean = pairwise_sum(values) / trials
    if trials == 1:
        return mean, 0.0
    var = pairwise_sum((v - mean) ** 2 for v in values) / (trials - 1)
    return mean, math.sqrt(var / trials)
