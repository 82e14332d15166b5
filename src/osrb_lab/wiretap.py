"""Desk-scale wiretap coding simulator over typical sequence sets.

Each typical member carries a two-part label (m, f): the message bin and a
public dither bin, drawn independently and uniformly.  Conditioning the
tilted source law on a dither value f induces a joint law over the message
and the eavesdropper observation; leakage is the divergence of that law
from the uniform-message times i.i.d.-output product, computed exactly by
enumerating output sequences (finite orders use the log-free divergence,
which reduces to KL in nats at order one; INFINITY uses the max-log-ratio
divergence in bits).  A code's dithers are scored together: the occupied
(f, m) cells of every dither form one table, and the dithers with the same
number of occupied messages are one stack of tables, scored against the
row q / m1 of each message's reference, q the i.i.d. output law.  The
eavesdropper likelihood rows are streamed into those tables a block of
members at a time, so no full (members x k^n) eavesdropper table is built
unless the codes' tables together would outgrow it.
Decoding error is likewise exact: a posterior-mode
decoder over the members sharing f, enumerated over receiver sequences.
Exactness keeps sweep trends free of estimator noise; blocklengths are
capped accordingly.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .binning import derive_seed, m_from_rate, philox_rng, philox_streams
from .binning import _map_indexed  # noqa: F401 -- unused; the benchmark's tracer resolves it
from .measures import (
    MATRIX_GUARD,
    OUTPUT_GUARD,
    Channel,
    GuardError,
    JointPmf,
    Pmf,
    _DivergenceKernel,
    _kron_power,
    _logsumexp_steps,
    check_alpha,
    parse_alpha,
)
# unused; the benchmark's tracer resolves them
from .measures import d_infinity_raw, tsallis_raw  # noqa: F401
from .typicality import (
    JointTypicalSet,
    TypicalSet,
    _channel_log_likelihoods,
    _drop_repeats,
    index_digits,
    joint_typical_set,
    s_kernel_row,
    typical_set,
)

MEMBER_GUARD = 2 ** 20
BLOCK_CELLS = 2 ** 20        # cells per block of likelihood rows built at once
ADD_CELLS = 2 ** 16          # cells per chunk of member rows added into a leakage table
RESIDUE = 1e-12              # float residue: leakage within RESIDUE of 0 is 0, and
                             # dither scores this close count as tied

DETERMINISTIC = "deterministic"
STOCHASTIC = "stochastic"

MAX_ATTEMPTS = 20
MAX_EMPTY_FRAC = 0.05

RECORD_FIELDS = ("n", "r1", "r2", "alpha", "encoder", "code_seed",
                 "f_star", "leakage", "error_prob", "discards")


class EmptyBinError(ValueError):
    """An encoding request addressed an (m, f) bin with no members."""


@dataclass(frozen=True, eq=False)
class WiretapCode:
    """A two-index binning of a typical set.

    ``kind`` is "deterministic" (members are x sequences of a TypicalSet)
    or "stochastic" (members are the u sequences of a JointTypicalSet and
    transmission draws x through the tilted conditional).  ``m_label`` and
    ``f_label`` assign each member its bin pair, values in [1..m1] and
    [1..m2].  ``discards`` counts rejected binning attempts and
    ``empty_bins`` the empty cells of the accepted (m1 x m2) grid.
    """

    kind: str
    n: int
    r1: float
    r2: float
    m1: int
    m2: int
    source: object
    m_label: np.ndarray
    f_label: np.ndarray
    seed: int
    discards: int
    empty_bins: int

    def __post_init__(self):
        if self.kind not in (DETERMINISTIC, STOCHASTIC):
            raise ValueError(f"unknown code kind {self.kind!r}")
        m = np.asarray(self.m_label, dtype=np.int64)
        f = np.asarray(self.f_label, dtype=np.int64)
        count = self._labeled.size
        if m.shape != (count,) or f.shape != (count,):
            raise ValueError("label arrays must cover every member exactly once")
        if m.min(initial=1) < 1 or m.max(initial=1) > self.m1:
            raise ValueError("message labels out of range")
        if f.min(initial=1) < 1 or f.max(initial=1) > self.m2:
            raise ValueError("dither labels out of range")
        m = m.copy()
        f = f.copy()
        m.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "m_label", m)
        object.__setattr__(self, "f_label", f)

    @property
    def _labeled(self) -> TypicalSet:
        """The typical set whose members carry the (m, f) labels: the x
        sequences of a deterministic code, the u sequences of a stochastic one."""
        return self.source.u_set if self.kind == STOCHASTIC else self.source

    @property
    def member_count(self) -> int:
        return int(self.m_label.shape[0])

    def bin_positions(self, m: int, f: int) -> np.ndarray:
        """Member positions labeled (m, f)."""
        return np.nonzero((self.m_label == m) & (self.f_label == f))[0]

    def f_positions(self, f: int) -> np.ndarray:
        """Member positions whose dither label is f."""
        return np.nonzero(self.f_label == f)[0]


def build_code(source, r1: float, r2: float, seed: int) -> WiretapCode:
    """Draw a two-index binning of the given typical set.

    ``source`` is a TypicalSet (deterministic encoding over x sequences)
    or a JointTypicalSet (stochastic encoding; the binning acts on u
    sequences).  Bin counts follow the ceiling convention m = ceil(2^(n
    r)), and an m1*m2 grid of more than MATRIX_GUARD cells raises
    GuardError before any label is drawn.  An attempt is rejected when
    more than ``MAX_EMPTY_FRAC`` of the grid cells are empty; after
    ``MAX_ATTEMPTS`` rejections the attempt with the fewest empty cells
    (earliest on ties) is kept and ``discards`` records the full attempt
    budget.  Attempt k draws from the Philox substream keyed by (seed,
    k), through ``philox_streams``.
    """
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError("rates must be nonnegative")
    if isinstance(source, JointTypicalSet):
        kind = STOCHASTIC
        members = source.u_set.members
    elif isinstance(source, TypicalSet):
        kind = DETERMINISTIC
        members = source.members
    else:
        raise ValueError("source must be a TypicalSet or JointTypicalSet")
    n = source.n
    count = int(members.shape[0])
    if count > MEMBER_GUARD:
        raise GuardError(f"member count {count} exceeds guard {MEMBER_GUARD}")
    m1 = m_from_rate(n, r1)
    m2 = m_from_rate(n, r2)
    if m1 * m2 > MATRIX_GUARD:
        raise GuardError(f"bin grid m1 x m2 = {m1} x {m2} exceeds guard {MATRIX_GUARD}")
    budget = MAX_EMPTY_FRAC * m1 * m2
    best = None
    for attempt, rng in zip(range(MAX_ATTEMPTS), philox_streams(seed)):
        m_label = rng.integers(1, m1 + 1, size=count)
        f_label = rng.integers(1, m2 + 1, size=count)
        occupied = np.count_nonzero(np.bincount((m_label - 1) * m2 + (f_label - 1)))
        empty = m1 * m2 - int(occupied)
        if empty <= budget:
            return WiretapCode(kind, n, r1, r2, m1, m2, source,
                               m_label, f_label, seed, attempt, empty)
        if best is None or empty < best[0]:
            best = (empty, m_label, f_label)
    empty, m_label, f_label = best
    return WiretapCode(kind, n, r1, r2, m1, m2, source,
                       m_label, f_label, seed, MAX_ATTEMPTS, empty)


def _restricted_weights(log_probs: np.ndarray) -> np.ndarray:
    """exp(log_probs - logsumexp(log_probs)) along the last axis of a 1-D or
    2-D array: the tilted law of each row's members restricted to them,
    with one axis-1 log-sum-exp for every row."""
    work = np.array(log_probs, dtype=float, ndmin=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total = _logsumexp_steps(work, np.empty(work.shape, dtype=bool), axis=1)
    if not np.isfinite(total).all():
        raise ValueError("bin carries zero tilted mass")
    return np.exp(log_probs - total.reshape(log_probs.shape[:-1] + (1,)))


def encode(code: WiretapCode, m: int, f: int, seed: int):
    """Sample a transmission for message m under dither f.

    Draws a member of bin (m, f) from the tilted law restricted to the
    bin.  Deterministic codes return the x sequence index; stochastic
    codes then draw x from the tilted conditional of the chosen u and
    return the pair ``(x_seq, u_seq)``.
    """
    if not (1 <= m <= code.m1 and 1 <= f <= code.m2):
        raise ValueError("bin label out of range")
    pos = code.bin_positions(m, f)
    if pos.size == 0:
        raise EmptyBinError(f"bin ({m}, {f}) has no members")
    weights = _restricted_weights(code._labeled.log_probs[pos])
    rng = philox_rng(seed, 0)
    choice = int(pos[rng.choice(pos.size, p=weights)])
    member = int(code._labeled.members[choice])
    if code.kind == DETERMINISTIC:
        return member
    xs, x_log = code.source.conditional(member)
    x = int(xs[rng.choice(xs.size, p=np.exp(x_log))])
    return x, member


def decode(code: WiretapCode, f: int, y_seq: int, main: Channel):
    """Posterior-mode decoding of a receiver sequence under dither f.

    Scores every member labeled (. , f) by tilted prior times channel
    likelihood of ``y_seq`` and returns ``(m_hat, member_seq)`` for the
    best one, ties to the lowest member index.  For stochastic codes the
    likelihood is the smoothed kernel and ``member_seq`` is the u
    sequence.  Returns ``(None, None)`` when no member carries f.
    """
    if not 1 <= f <= code.m2:
        raise ValueError("dither label out of range")
    y_seq = int(y_seq)
    if not 0 <= y_seq < len(main.out_labels) ** code.n:
        raise ValueError(f"receiver sequence {y_seq} out of range")
    pos = code.f_positions(f)
    if pos.size == 0:
        return None, None
    rows = _likelihood_rows(code.source, main, pos)[:, [y_seq]]
    best = int(pos[_decisions(code, pos, rows)[0]])
    return int(code.m_label[best]), int(code._labeled.members[best])


def _output_count(ch: Channel, n: int, rows: int) -> int:
    """k^n, the output sequences of ``ch`` at blocklength n, once the size
    guards admit ``rows`` likelihood rows over them."""
    k_out = len(ch.out_labels)
    out_count = k_out ** n
    if out_count > OUTPUT_GUARD:
        raise GuardError(f"output alphabet {k_out}^{n} exceeds guard")
    if rows * out_count > MATRIX_GUARD:
        raise GuardError("likelihood matrix exceeds the size guard")
    return out_count


def _union_log_likelihoods(source: JointTypicalSet, ch: Channel,
                           pos: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(xs, table): the increasing union xs of the x sets of the u members
    at ``pos`` (every member when None) and its ``_channel_log_likelihoods``
    rows through ``ch``, the table that stochastic rows are reduced from."""
    if ch.in_labels != source.base.col_labels:
        raise ValueError("channel input must match the joint's X alphabet")
    x_sets = source.x_members if pos is None else [source.x_members[i] for i in pos]
    xs = _drop_repeats(np.sort(np.concatenate(x_sets)))
    n = source.n
    out_count = len(ch.out_labels) ** n
    if xs.size * out_count > MATRIX_GUARD:
        raise GuardError("likelihood table exceeds the size guard")
    return xs, _channel_log_likelihoods(ch, index_digits(xs, source.base.shape[1], n),
                                        out_count, n)


def _likelihood_rows(source, ch: Channel, pos: np.ndarray | None = None,
                     out: np.ndarray | None = None,
                     union: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """P(output sequence | member) rows over every output sequence.

    ``source`` is a code's TypicalSet or JointTypicalSet and ``pos`` the
    labeled member positions (all members when None).  The rows are written
    into ``out`` when given, else into a new array.  Deterministic rows
    are exp of ``_channel_log_likelihoods``, built a block of members at a
    time: its last level is written into the block and the exp taken in
    place.  Stochastic rows are
    ``s_kernel_row`` of each u member, reduced in two scratch buffers from
    ``union``, an ``_union_log_likelihoods`` table that covers the
    members' x sets, or when None one built over exactly those.
    """
    stochastic = isinstance(source, JointTypicalSet)
    labeled = source.u_set if stochastic else source
    members = labeled.members if pos is None else labeled.members[pos]
    n = source.n
    out_count = _output_count(ch, n, members.size)
    rows = np.empty((members.size, out_count)) if out is None else out
    if stochastic:
        xs, table = _union_log_likelihoods(source, ch, pos) if union is None else union
        at = range(members.size) if pos is None else pos
        work = np.empty((max(source.x_members[i].size for i in at), out_count))
        is_max = np.empty(work.shape, dtype=bool)
        for i, u in enumerate(members):
            rows[i] = s_kernel_row(source, int(u), table, xs, work, is_max)
        return rows
    if ch.in_labels != labeled.base.labels:
        raise ValueError("channel input alphabet does not match the source")
    step = max(1, BLOCK_CELLS // out_count)
    for lo in range(0, members.size, step):
        block = rows[lo:lo + step]
        digits = index_digits(members[lo:lo + step], labeled.base.size, n)
        np.exp(_channel_log_likelihoods(ch, digits, out_count, n, out=block), out=block)
    return rows


def _decisions(code: WiretapCode, pos: np.ndarray, main_rows: np.ndarray) -> np.ndarray:
    """Posterior-mode decision for every receiver column of ``main_rows``.

    ``pos`` are member positions and ``main_rows`` their likelihood rows;
    the result indexes ``pos``: the argmax of tilted prior times
    likelihood, ties to the lowest member.
    """
    prior = np.exp(code._labeled.log_probs[pos])
    return np.argmax(prior[:, None] * main_rows, axis=0)


class _LeakageTable:
    """One code's table of the occupied (f, m) cells of p(m, z^n | f), every
    dither's, over the members at ``pos`` (every member when None), filled
    a block of eve likelihood rows at a time.

    Member i of ``pos`` has the 0-based labels (m0, f0), its tilted law
    restricted to its dither ``weights[i]``, one ``_restricted_weights``
    per set of dithers with equal member counts, and its cell f0 * m1 + m0
    at row ``slots[i]`` of the table.  The rows are in (k, f, m) order, k
    the dither's occupied cell count, so the dithers of equal k form one
    (dithers, k, k^n) stack for ``kernel.tables``, and each leakage is the
    kernel's call on the dither's k rows, bit for bit.  Those rows are its
    (m1, k^n) table less the zero rows of unoccupied messages.  Such rows
    add no term at INFINITY, at order one or at the log power sum's
    orders, so there the leakage is the full table's bit for bit; at the
    integer orders 2..5 each adds its reference mass, which the kernel
    adds as one product, within 2e-15 relative of the full table's sum.
    """

    def __init__(self, code: WiretapCode, pos: np.ndarray | None):
        m0, f0 = code.m_label - 1, code.f_label - 1
        log_probs = code._labeled.log_probs
        if pos is not None:
            m0, f0, log_probs = m0[pos], f0[pos], log_probs[pos]
        by_f = np.argsort(f0, kind="stable")
        heads = np.flatnonzero(np.diff(f0[by_f], prepend=-1))
        if not heads.size:
            raise ValueError("every dither value is empty")
        counts = np.diff(heads, append=by_f.size)
        self.weights = np.empty(f0.size)
        for count in set(counts.tolist()):
            members = by_f[heads[counts == count, None] + np.arange(count)]
            self.weights[members] = _restricted_weights(log_probs[members])
        self.members = dict(zip((f0[by_f[heads]] + 1).tolist(), np.split(by_f, heads[1:])))
        self.pos = pos
        cells, cell_of = np.unique(f0 * code.m1 + m0, return_inverse=True)
        f_heads = np.flatnonzero(np.diff(cells // code.m1, prepend=-1))
        self.k = np.diff(f_heads, append=cells.size)
        by_k = np.argsort(np.repeat(self.k, self.k), kind="stable")
        slot = np.empty(cells.size, dtype=np.int64)
        slot[by_k] = np.arange(cells.size)
        self.slots = slot[cell_of]
        self.dithers = (cells[f_heads[np.argsort(self.k, kind="stable")]] // code.m1 + 1).tolist()
        self.size = cells.size
        self.table = None

    def add(self, lo: int, rows: np.ndarray):
        """Add weights[i] * rows[i - lo] into row slots[i] of the table for
        the members i = lo, lo + 1, ... whose eve rows ``rows`` holds.  The
        table starts at zero and every product is >= 0, so a cell's first
        add is exact (rank 0 of the first block is written, not added);
        the block's members go in rank order, rank i the count of the
        block's earlier members in i's cell, one rank and ADD_CELLS cells
        per fancy add at most, so no cell repeats within an add and every
        cell sums its members in the order ``np.add.at`` would, over blocks
        taken in member order."""
        fresh = self.table is None
        if fresh:
            self.table = np.zeros((self.size, rows.shape[1]))
        slots = self.slots[lo:lo + rows.shape[0]]
        weights = self.weights[lo:lo + rows.shape[0]]
        order = np.argsort(slots, kind="stable")
        by_slot = slots[order]
        first = np.empty(order.size, dtype=bool)
        first[:1] = True
        np.not_equal(by_slot[1:], by_slot[:-1], out=first[1:])
        rank = np.arange(order.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
        by_rank = np.argsort(rank, kind="stable")
        order, rank = order[by_rank], rank[by_rank]
        step = max(1, ADD_CELLS // rows.shape[1])
        for same_rank in np.split(order, np.flatnonzero(np.diff(rank)) + 1):
            for start in range(0, same_rank.size, step):
                part = same_rank[start:start + step]
                contrib = np.take(rows, part, axis=0)
                contrib *= weights[part, None]
                if fresh:
                    self.table[slots[part]] = contrib
                else:
                    self.table[slots[part]] += contrib
            fresh = False

    def leakages(self, kernel: _DivergenceKernel) -> dict:
        """``{f: (positions, restricted weights, leakage)}`` of every dither,
        in (leakage, f) order, each leakage clamped by ``_residue_clamped``;
        the table is reduced one equal-k stack at a time and dropped."""
        table, self.table = self.table, None
        values = []
        lo = 0
        for size, group in zip(*np.unique(self.k, return_counts=True)):
            values += kernel.tables(table[lo:lo + size * group].reshape(group, size, -1)).tolist()
            lo += size * group
        out = {}
        for leak, f in sorted(zip(map(_residue_clamped, values), self.dithers)):
            members = self.members[f]
            out[f] = (members if self.pos is None else self.pos[members],
                      self.weights[members], leak)
        return out


def _dither_leakages(codes: list[WiretapCode], eve: Channel, kernel: _DivergenceKernel,
                     pos: np.ndarray | None = None) -> list[dict]:
    """Per code of ``codes``, all of one source, ``{f: (positions,
    restricted weights, leakage)}`` of every dither populated among the
    members at ``pos`` (every member when None), in (leakage, f) order, the
    order in which ``select_f`` visits them: the members carrying f, their
    tilted law restricted to f, and the leakage under f at the order of
    ``kernel``, a ``_leakage_kernel`` of the codes.

    The size guards apply to the eve rows of every member before any is
    built.  The rows are then built in blocks of BLOCK_CELLS cells, in
    member order, into one reused buffer, and each block is added into
    every code's ``_LeakageTable`` before the next is built; a table is
    reduced after the last block.  When the codes' occupied cells together
    outnumber the members, the whole member set is one block, and each
    code's table is filled, reduced and dropped before the next code's is
    made.  A stochastic source's log-likelihood table is built once, over
    the x sets of every member at ``pos``, and serves every block.  A row
    does not depend on the rows built with it, so every leakage is bit for
    bit that of the full eve table."""
    source = codes[0].source
    count = codes[0].member_count if pos is None else pos.size
    out_count = _output_count(eve, source.n, count)
    tables = [_LeakageTable(code, pos) for code in codes]
    union = (_union_log_likelihoods(source, eve, pos)
             if isinstance(source, JointTypicalSet) else None)
    whole = sum(table.size for table in tables) > count
    step = count if whole else max(1, BLOCK_CELLS // out_count)
    positions = np.arange(count) if pos is None else pos
    rows = np.empty((min(step, count), out_count))
    leaks = []
    for lo in range(0, count, step):
        block = rows[:count - lo]
        at = pos if step >= count else positions[lo:lo + step]
        _likelihood_rows(source, eve, at, out=block, union=union)
        for table in tables:
            table.add(lo, block)
            if lo + step >= count:
                leaks.append(table.leakages(kernel))
    return leaks


def _residue_clamped(value: float) -> float:
    """RESIDUE is the absolute tolerance of a reported leakage: any value
    with |value| < RESIDUE is float residue and is reported as 0.0, at
    every order."""
    return 0.0 if abs(value) < RESIDUE else value


def _leakage_kernel(code: WiretapCode, eve: Channel, a: float) -> _DivergenceKernel:
    """The order-``a`` divergence kernel of the leakage target, uniform
    messages times the i.i.d. output law q of the single-letter X marginal:
    the row q / m1 of every message's k^n cells, with scratch for tables of
    up to m1 such rows.  It depends on the code only through its source, n
    and m1, which every code of a sweep's n shares."""
    x_law = code.source.base
    if code.kind == STOCHASTIC:
        # Pmf() renormalizes the marginal once more; recorded leakages
        # depend on those last bits
        x_law = Pmf(x_law.col_labels, x_law.col_marginal().probs)
    q = _kron_power(eve.output(x_law).probs, code.n)
    return _DivergenceKernel(q / code.m1, a, (code.m1, q.size))


def _miss_kernel(code: WiretapCode, pos: np.ndarray, weights: np.ndarray,
                 main_rows: np.ndarray) -> float:
    """Mass of the (member, y) pairs under f that ``_decisions`` decodes to
    a wrong message.  ``pos`` are the members carrying f, ``weights`` their
    tilted law restricted to f and ``main_rows`` their likelihood rows."""
    labels = code.m_label[pos]
    m_hat = labels[_decisions(code, pos, main_rows)]
    correct = np.sum(main_rows * (m_hat[None, :] == labels[:, None]), axis=1)
    return min(max(1.0 - float(np.dot(weights, correct)), 0.0), 1.0)


def _dither_members(code: WiretapCode, f: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, restricted tilted weights) of the members carrying f."""
    if not 1 <= f <= code.m2:
        raise ValueError("dither label out of range")
    pos = code.f_positions(f)
    if pos.size == 0:
        raise ValueError(f"no member carries dither {f}")
    return pos, _restricted_weights(code._labeled.log_probs[pos])


def leakage(code: WiretapCode, f: int, eve: Channel, alpha) -> float:
    """Exact divergence of the induced (message, z-sequence) law under f.

    The tilted source law conditioned on dither f induces p(m, z^n | f);
    the reference is uniform messages times the i.i.d. single-letter
    output law.  Computed by full enumeration of z sequences.
    """
    a = check_alpha(alpha)
    pos, _ = _dither_members(code, f)
    [leaks] = _dither_leakages([code], eve, _leakage_kernel(code, eve, a), pos)
    return leaks[f][2]


def error_prob(code: WiretapCode, f: int, main: Channel) -> float:
    """Exact decoding error probability under dither f.

    The induced law draws a member from the tilted law conditioned on f;
    the posterior-mode decoder of ``decode`` is applied to every receiver
    sequence and the miss mass is accumulated exactly.
    """
    pos, weights = _dither_members(code, f)
    return _miss_kernel(code, pos, weights, _likelihood_rows(code.source, main, pos))


@dataclass(frozen=True)
class LeakageRecord:
    """Leakage and decoding error of one dither value."""

    f: int
    alpha: float
    leakage: float
    error_prob: float
    n: int
    seed: int

    def __post_init__(self):
        if self.leakage < 0.0:
            raise ValueError("leakage must be nonnegative")
        if not 0.0 <= self.error_prob <= 1.0:
            raise ValueError("error_prob must lie in [0, 1]")


def _main_rows_of(main_rows: np.ndarray, slot: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The main likelihood rows of the members at ``pos``: row ``slot[i]``
    of ``main_rows`` for member i.  A member without a built row (slot -1)
    raises; row -1 is never read."""
    at = slot[pos]
    if (at < 0).any():
        raise ValueError("a scored dither has members without a main likelihood row")
    return main_rows[at]


def _scored_main_rows(source, main: Channel, scored: list) -> tuple[np.ndarray, np.ndarray, list]:
    """``(main_rows, slot, firsts)``: main likelihood rows of the members
    of every dither that ``select_f`` can score, for codes of one source,
    with ``slot`` mapping a member position to its row (-1 where none is
    built), and per code ``{f: (leakage, error)}`` of its first dither.
    ``scored`` pairs each code with its ``_dither_leakages``.

    Two ``_likelihood_rows`` builds serve every code.  The first covers
    each code's first dither in (leakage, f) order, which ``select_f``
    always scores, and scores it; ``(leak + err) + RESIDUE`` then bounds
    the leakage of any dither that ``select_f`` visits, since its best
    score is never above that first dither's.  The second covers the
    members of the dithers within that bound not built yet, read in
    (leakage, f) order up to the first dither past it, and is skipped when
    there are none.  Each row is the per-position sum whatever rows
    are built with it, so the scores are those of rows over every member."""
    slot = np.full(scored[0][0].member_count, -1, dtype=np.int64)
    wanted = np.zeros(slot.size, dtype=bool)
    heads = [next(iter(leaks.items())) for _, leaks in scored]
    for _, (pos, _, _) in heads:
        wanted[pos] = True
    built = np.flatnonzero(wanted)
    slot[built] = np.arange(built.size)
    first_rows = _likelihood_rows(source, main, built)
    firsts = []
    for (code, leaks), (f, (pos, weights, leak)) in zip(scored, heads):
        err = _miss_kernel(code, pos, weights, _main_rows_of(first_rows, slot, pos))
        firsts.append({f: (leak, err)})
        bound = (leak + err) + RESIDUE
        for members, _, other in leaks.values():
            if other > bound:
                break
            wanted[members] = True
    more = np.flatnonzero(wanted & (slot < 0))
    if not more.size:
        return first_rows, slot, firsts
    slot[more] = np.arange(built.size, built.size + more.size)
    main_rows = np.empty((built.size + more.size, first_rows.shape[1]))
    main_rows[:built.size] = first_rows
    del first_rows
    _likelihood_rows(source, main, more, out=main_rows[built.size:])
    return main_rows, slot, firsts


def select_f(code: WiretapCode, main: Channel, eve: Channel, alpha, *, shared=None):
    """Pick the dither value f* of a code and return ``(f_star, record)``.

    f_star is the lowest populated f whose leakage + error_prob lies
    within RESIDUE of the minimum over the populated dithers, and record
    its LeakageRecord.  Decoding error is scored only for dithers whose
    leakage can still win: the populated dithers are visited in (leakage,
    f) order, and scoring stops at the first whose leakage exceeds the
    best score so far plus RESIDUE.  Error lies in [0, 1] and adding it
    never lowers a float, so every unscored dither scores above the
    minimum plus RESIDUE, and f_star is that of scoring every dither.
    ``leakage`` and ``error_prob`` score any single dither.  ``shared`` is
    passed by a caller that shares likelihood rows across codes: the
    code's ``_dither_leakages`` at this order, visited in its (leakage, f)
    order, main rows and their position -> row map, and ``{f: (leakage,
    error)}`` of dithers already scored, which are not scored again: those
    of ``_scored_main_rows`` of a list of codes that includes this one, or
    any rows and map that cover the dithers visited (one without a row
    raises).  When None all four are built here: the code's leakages from
    eve rows streamed into its compact table, then the main rows.
    """
    a = check_alpha(alpha)
    if shared is None:
        [leakages] = _dither_leakages([code], eve, _leakage_kernel(code, eve, a))
        main_rows, slot, [first] = _scored_main_rows(code.source, main, [(code, leakages)])
        shared = (leakages, main_rows, slot, first)
    leakages, main_rows, slot, scores = shared
    scores = dict(scores)
    best = min((leak + err for leak, err in scores.values()), default=math.inf)
    for f, (pos, weights, leak) in leakages.items():
        if leak > best + RESIDUE:
            break
        if f not in scores:
            err = _miss_kernel(code, pos, weights, _main_rows_of(main_rows, slot, pos))
            scores[f] = (leak, err)
            best = min(best, leak + err)
    f_star = min(f for f, (leak, err) in scores.items() if leak + err <= best + RESIDUE)
    return f_star, LeakageRecord(f_star, a, *scores[f_star], code.n, code.seed)


# ---------------------------------------------------------------------------
# Sweep plumbing


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a wiretap sweep, in CSV column order."""

    n: int
    r1: float
    r2: float
    alpha: float
    encoder: str
    code_seed: int
    f_star: int
    leakage: float
    error_prob: float
    discards: int

    def to_row(self) -> dict:
        return {name: getattr(self, name) for name in RECORD_FIELDS}


def _config_error(field: str, message: str) -> ValueError:
    return ValueError(f"config field {field!r}: {message}")


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Validated wiretap sweep configuration.

    The JSON document mirrors the record fields plus file paths: keys
    ``n`` (list), ``r1``, ``r2``, ``alpha`` (number or "inf"),
    ``encoder``, ``codes``, ``seed``, ``eps``, ``source`` (pmf path for
    the deterministic encoder, joint pmf path over (U, X) for the
    stochastic one), ``main`` and ``eve`` (channel paths, input alphabet
    X).  Relative paths resolve against the config file's directory.
    """

    n_values: tuple[int, ...]
    r1: float
    r2: float
    alpha: float
    encoder: str
    codes: int
    seed: int
    eps: float
    source: object
    main: Channel
    eve: Channel

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "SweepConfig":
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")

        def resolve(field):
            path = doc.get(field)
            if not isinstance(path, str) or not path:
                raise _config_error(field, "expected a file path string")
            full = path if os.path.isabs(path) else os.path.join(base_dir, path)
            if not os.path.exists(full):
                raise _config_error(field, f"file not found: {full}")
            return full

        ns = doc.get("n")
        if not isinstance(ns, list) or any(
                not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in ns):
            raise _config_error("n", "expected a list of integers >= 1")
        rates = {}
        for field in ("r1", "r2"):
            v = doc.get(field)
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or not 0 <= v <= sys.float_info.max):  # also rejects NaN
                raise _config_error(field, "expected a finite nonnegative number")
            rates[field] = float(v)
        alpha = doc.get("alpha")
        if isinstance(alpha, bool):
            raise _config_error("alpha", "expected a number or 'inf'")
        try:
            a = check_alpha(parse_alpha(alpha))
        except (ValueError, TypeError) as exc:
            raise _config_error("alpha", str(exc))
        encoder = doc.get("encoder")
        if encoder not in (DETERMINISTIC, STOCHASTIC):
            raise _config_error("encoder", "expected 'deterministic' or 'stochastic'")
        codes = doc.get("codes")
        if not isinstance(codes, int) or isinstance(codes, bool) or codes < 1:
            raise _config_error("codes", "expected an integer >= 1")
        seed = doc.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise _config_error("seed", "expected a nonnegative integer")
        eps = doc.get("eps")
        if (not isinstance(eps, (int, float)) or isinstance(eps, bool)
                or not 0 < eps <= sys.float_info.max):
            raise _config_error("eps", "expected a finite positive number")
        try:
            if encoder == DETERMINISTIC:
                source = Pmf.load(resolve("source"))
            else:
                source = JointPmf.load(resolve("source"))
        except ValueError as exc:
            raise _config_error("source", str(exc))
        try:
            main = Channel.load(resolve("main"))
            eve = Channel.load(resolve("eve"))
        except ValueError as exc:
            raise _config_error("main/eve", str(exc))
        x_labels = source.labels if encoder == DETERMINISTIC else source.col_labels
        if main.in_labels != x_labels:
            raise _config_error("main", "input alphabet does not match the source")
        if eve.in_labels != x_labels:
            raise _config_error("eve", "input alphabet does not match the source")
        return cls(tuple(ns), rates["r1"], rates["r2"], a, encoder,
                   codes, seed, float(eps), source, main, eve)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {path}: invalid JSON ({exc})")
        return cls.from_dict(doc, os.path.dirname(os.path.abspath(path)))


def _run_codes(config: SweepConfig, source, n: int) -> list[ExperimentRecord]:
    """Every code of one n, in code order, in two phases that share one
    channel's likelihood rows at a time: one leakage kernel and the eve
    rows, streamed in blocks into every code's compact table
    (``_dither_leakages``), give every code's dither leakages, then main
    rows of only the members that selection can score
    (``_scored_main_rows``, two builds for every code) give every code's
    f* and the decoding errors it needs through ``select_f``."""
    codes = [build_code(source, config.r1, config.r2,
                        derive_seed(config.seed, f"wiretap:n={n}", i))
             for i in range(config.codes)]
    kernel = _leakage_kernel(codes[0], config.eve, config.alpha)
    leakages = _dither_leakages(codes, config.eve, kernel)
    main_rows, slot, firsts = _scored_main_rows(source, config.main, list(zip(codes, leakages)))
    main_rows.setflags(write=False)
    records = []
    for code, leaks, first in zip(codes, leakages, firsts):
        f_star, rec = select_f(code, config.main, config.eve, config.alpha,
                               shared=(leaks, main_rows, slot, first))
        records.append(ExperimentRecord(n, config.r1, config.r2, config.alpha,
                                        config.encoder, code.seed, f_star,
                                        rec.leakage, rec.error_prob, code.discards))
    return records


def sweep_experiment(config: SweepConfig) -> list[ExperimentRecord]:
    """Run the configured sweep: per n, build codes and select dithers.

    The sweep goes n by n, on one thread.  An n's eve likelihood rows are
    built once, a block of members at a time, each block added into every
    code's leakage table and overwritten by the next; its main rows are
    built next, for the members of the dithers that selection can score,
    in two builds shared by the codes' error scores (``_run_codes``).
    Records come back ordered by (n, code index).
    """
    sources = {}
    for n in config.n_values:
        if n not in sources:
            if config.encoder == DETERMINISTIC:
                sources[n] = typical_set(config.source, n, config.eps)
            else:
                sources[n] = joint_typical_set(config.source, n, config.eps)
    records = []
    for n in config.n_values:
        records.extend(_run_codes(config, sources[n], n))
    return records
