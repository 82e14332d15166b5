"""Frequency-typical sets, tilted sequence laws, and the smoothed channel
kernel used by stochastic encoders.

Sequences over a K-letter alphabet are identified with integers in mixed
radix, most significant symbol first: position 0 of the sequence carries
weight K^(n-1).  Membership tests compare symbol counts against n*p and
n*eps as exact rationals built from the stored float values, so there are
no floating-point ties: the strict inequality |count/n - p| < eps is
unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import (
    SEQ_GUARD,
    Channel,
    GuardError,
    JointPmf,
    Pmf,
    _logsumexp_steps,
    _power_exceeds,
    logsumexp,
)


GATHER_CELLS = 2 ** 16       # parent-prefix cells gathered at once for the
                             # last level of a likelihood table


class EmptyTypicalSetError(ValueError):
    """No sequence satisfies the typicality constraint."""


def index_digits(indices, k: int, n: int) -> np.ndarray:
    """Mixed-radix digits (most significant first) of sequence indices."""
    idx = np.asarray(indices, dtype=np.int64)
    if k == 1:
        return np.zeros(idx.shape + (n,), dtype=np.int64)
    out = np.empty(idx.shape + (n,), dtype=np.int64)
    rem = idx.copy()
    for pos in range(n - 1, -1, -1):
        out[..., pos] = rem % k
        rem //= k
    return out


def _counts_matrix(count: int, k: int, n: int) -> np.ndarray:
    """Symbol counts for every sequence index 0..count-1, shape (count, k).

    Counts are int16 while n fits it and int64 beyond; a one-letter
    alphabet has the one sequence, whose count is n.
    """
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int64
    if k == 1:
        return np.full((count, 1), n, dtype=dtype)
    counts = np.zeros((count, k), dtype=dtype)
    idx = np.arange(count, dtype=np.int64)
    rem = idx.copy()
    for _ in range(n):
        # one increment per row, so no (row, symbol) index repeats
        counts[idx, rem % k] += 1
        rem //= k
    return counts


def _typical_count_rows(counts: np.ndarray, probs: np.ndarray, n: int, eps: float) -> np.ndarray:
    """Boolean mask of count rows within the strict eps frequency window.

    The window is a conjunction over symbols, and the counts c of symbol s
    with |c - n p_s| < n eps form one interval: from the least integer
    above n (p_s - eps) to the greatest below n (p_s + eps), both ends
    found in rational arithmetic.
    """
    bound = n * Fraction(float(eps))
    centers = [n * Fraction(float(p)) for p in probs]
    lo = np.array([math.floor(center - bound) + 1 for center in centers], dtype=np.int64)
    hi = np.array([math.ceil(center + bound) - 1 for center in centers], dtype=np.int64)
    within = counts >= lo
    within &= counts <= hi
    return np.all(within, axis=1)


@dataclass(frozen=True, eq=False)
class TypicalSet:
    """Strictly eps-typical sequences of a pmf, with the tilted law.

    ``members`` holds sequence indices in increasing order; ``log_probs``
    the tilted log probabilities in nats (i.i.d. law conditioned on the
    set and renormalized).  ``mass`` is the i.i.d. probability of the set.
    """

    base: Pmf
    n: int
    eps: float
    members: np.ndarray
    log_probs: np.ndarray
    mass: float

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    def position(self, seq: int) -> int:
        i = int(np.searchsorted(self.members, int(seq)))
        if i < self.size and self.members[i] == int(seq):
            return i
        raise ValueError(f"sequence {seq} is not in the typical set")

    def __contains__(self, seq) -> bool:
        try:
            self.position(seq)
        except ValueError:
            return False
        return True


def typical_set(p: Pmf, n: int, eps: float) -> TypicalSet:
    """Enumerate the strictly eps-typical sequences of p^n."""
    if n < 1:
        raise ValueError("typical_set: n must be >= 1")
    if eps <= 0.0:
        raise ValueError("typical_set: eps must be > 0")
    k = p.size
    if _power_exceeds(k, n, SEQ_GUARD):
        raise GuardError(f"sequence alphabet {k}^{n} exceeds guard")
    counts = _counts_matrix(k ** n, k, n)
    mask = _typical_count_rows(counts, p.probs, n, eps)
    members = np.nonzero(mask)[0].astype(np.int64)
    if members.size == 0:
        raise EmptyTypicalSetError(f"no {eps}-typical sequence at n={n}")
    with np.errstate(divide="ignore"):
        log_p = np.log(p.probs)
    member_counts = counts[members].astype(float)
    iid_log = member_counts @ np.where(np.isfinite(log_p), log_p, 0.0)
    zero_syms = np.nonzero(p.probs == 0.0)[0]
    if zero_syms.size:
        iid_log[member_counts[:, zero_syms].sum(axis=1) > 0] = -np.inf
    log_mass = float(logsumexp(iid_log))
    if not math.isfinite(log_mass):
        raise EmptyTypicalSetError("typical set carries zero i.i.d. mass")
    log_probs = iid_log - log_mass
    members.setflags(write=False)
    log_probs.setflags(write=False)
    return TypicalSet(p, n, float(eps), members, log_probs, math.exp(log_mass))


@dataclass(frozen=True, eq=False)
class JointTypicalSet:
    """Jointly typical (u, x) sequence pairs with the tilted product law.

    A pair qualifies when u is strictly eps-typical for the U marginal and
    its pair sequence (u_i, x_i) is strictly 2*eps-typical for p(u, x).
    The tilted law factorizes: the u factor is the tilted marginal law, and
    for each u the x factor is the i.i.d. conditional law renormalized over
    the conditional set of that u.
    """

    base: JointPmf
    n: int
    eps: float
    u_set: TypicalSet
    x_members: tuple[np.ndarray, ...]
    x_log_probs: tuple[np.ndarray, ...]

    def conditional(self, u_seq: int) -> tuple[np.ndarray, np.ndarray]:
        """(x members, conditional tilted log probs) for one u member."""
        i = self.u_set.position(u_seq)
        return self.x_members[i], self.x_log_probs[i]


def joint_typical_set(j: JointPmf, n: int, eps: float) -> JointTypicalSet:
    """Build the jointly typical pair set for a (U, X) joint."""
    if n < 1:
        raise ValueError("joint_typical_set: n must be >= 1")
    if eps <= 0.0:
        raise ValueError("joint_typical_set: eps must be > 0")
    ku, kx = j.shape
    k = ku * kx
    if _power_exceeds(k, n, SEQ_GUARD):
        raise GuardError(f"pair alphabet ({ku}*{kx})^{n} exceeds guard")
    u_set = typical_set(j.row_marginal(), n, eps)
    # letter i of the pair sequence is u_i * kx + x_i, so the pair index
    # of (u, x) is base(u) + offset(x) in radix k; 2 * eps is exact in
    # binary floating point, so the window is the rational n * 2 * eps
    pair_typical = _typical_count_rows(_counts_matrix(k ** n, k, n), j.probs.ravel(), n, 2 * eps)
    weights = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    x_digits = index_digits(np.arange(kx ** n), kx, n)
    offset = x_digits @ weights
    u_digits = index_digits(u_set.members, ku, n)
    bases = (u_digits * kx) @ weights

    _, cond_xu = j.row_conditionals()
    with np.errstate(divide="ignore"):
        log_cond = np.log(cond_xu)

    x_members = []
    x_log_probs = []
    for u, ud, base in zip(u_set.members, u_digits, bases):
        xs = np.nonzero(pair_typical[base + offset])[0]
        if xs.size == 0:
            raise EmptyTypicalSetError(
                f"u member {int(u)} has no conditionally typical x at n={n}")
        cond_log = np.sum(log_cond[ud, x_digits[xs]], axis=1)
        cond_mass = float(logsumexp(cond_log))
        if not math.isfinite(cond_mass):
            raise EmptyTypicalSetError(
                f"conditional set of u member {int(u)} carries zero mass")
        cond_log = cond_log - cond_mass
        xs.setflags(write=False)
        cond_log.setflags(write=False)
        x_members.append(xs)
        x_log_probs.append(cond_log)
    return JointTypicalSet(j, n, float(eps), u_set, tuple(x_members), tuple(x_log_probs))


def _drop_repeats(s: np.ndarray) -> np.ndarray:
    """A sorted 1-D array without its repeated entries, by an
    adjacent-difference mask (``np.unique`` imports ``numpy.ma``)."""
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _channel_log_likelihoods(ch: Channel, in_digits: np.ndarray, out_count: int, n: int,
                             out: np.ndarray | None = None) -> np.ndarray:
    """log prod_i p(z_i | x_i) for given input digit rows x all outputs z.

    A joint (input prefix, output prefix) table grows one position at a
    time over the distinct input prefixes of the rows: level pos is level
    pos - 1 gathered by parent prefix plus log p(z_pos | x_pos) for the new
    output digit z_pos, the next less significant digit, so the
    (prefix, z_pos) pairs come out in sequence order.  Each output letter
    is one add of the contiguous gathered rows and that letter's log column
    into the strided cells of the letter.  The last level is written
    straight into ``out`` (a new array when None), one row per input row in
    input order; rows may repeat and need not be sorted.  Each cell sums
    its n terms from 0.0 in position order, so the value is that of the
    per-position sum bit for bit.
    """
    kz = len(ch.out_labels)
    if kz ** n != out_count:
        raise ValueError(f"output count {out_count} is not {kz}^{n}")
    with np.errstate(divide="ignore"):
        log_rows = np.log(ch.rows)
    k_in = log_rows.shape[0]
    rows = in_digits.shape[0]
    if out is None:
        out = np.empty((rows, out_count))
    # each row's input prefix of length n - 1 in radix k_in; the distinct
    # prefixes of every length are the sorted distinct heads cut short
    heads = in_digits[:, :n - 1] @ (k_in ** np.arange(n - 2, -1, -1, dtype=np.int64))
    distinct = _drop_repeats(np.sort(heads))
    keys = np.zeros(1, dtype=np.int64)
    table = np.zeros((1, 1))
    for pos in range(n - 1):
        level = _drop_repeats(distinct // k_in ** (n - 2 - pos))
        gathered = table[np.searchsorted(keys, level // k_in)]
        cols = log_rows[level % k_in]
        table = np.empty((level.size, kz ** pos, kz))
        for c in range(kz):
            np.add(gathered, cols[:, c, None], out=table[:, :, c])
        table = table.reshape(level.size, kz ** (pos + 1))
        keys = level
    # the last level goes straight into out, GATHER_CELLS parent cells at a
    # time, so no temporary of out's size is built
    parent = np.searchsorted(keys, heads)
    last = log_rows[in_digits[:, n - 1]]
    out3 = out.reshape(rows, kz ** (n - 1), kz)
    step = max(1, GATHER_CELLS // kz ** (n - 1))
    for lo in range(0, rows, step):
        gathered = table[parent[lo:lo + step]]
        for c in range(kz):
            np.add(gathered, last[lo:lo + step, c, None], out=out3[lo:lo + step, :, c])
    return out


def s_kernel_row(jts: JointTypicalSet, u_seq: int, log_lik: np.ndarray,
                 table_xs: np.ndarray, work: np.ndarray, is_max: np.ndarray) -> np.ndarray:
    """S(z, u) over every output sequence z, as a probability vector.

    S averages the memoryless channel likelihood over the conditionally
    typical x sequences of u under the tilted conditional law, so each row
    sums to one.  ``log_lik`` holds the ``_channel_log_likelihoods`` rows
    of the increasing x sequences ``table_xs``, which cover u's
    conditional set.  u's rows are gathered from it into the scratch rows
    ``work`` (at least as many as u's set has members) and reduced there
    in place by ``logsumexp``'s steps, with the bool scratch ``is_max`` of
    work's shape; the caller reuses both across u, so neither the gather
    nor the reduction copies u's rows.
    """
    xs, cond_log = jts.conditional(u_seq)
    # the indices are in range; mode "raise" would gather into a buffer
    terms = np.take(log_lik, np.searchsorted(table_xs, xs), axis=0,
                    out=work[:xs.size], mode="clip")
    terms += cond_log[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        row = _logsumexp_steps(terms, is_max[:xs.size], axis=0)[0]
    return np.exp(row, out=row)
