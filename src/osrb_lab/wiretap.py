"""Desk-scale wiretap coding simulator over typical sequence sets.

Each typical member carries a two-part label (m, f): the message bin and a
public dither bin, drawn independently and uniformly.  Conditioning the
tilted source law on a dither value f induces a joint law over the message
and the eavesdropper observation; leakage is the divergence of that law
from the uniform-message times i.i.d.-output product, computed exactly by
enumerating output sequences (finite orders use the log-free divergence,
which reduces to KL in nats at order one; INFINITY uses the max-log-ratio
divergence in bits).  Decoding error is likewise exact: a posterior-mode
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

from .binning import derive_seed, m_from_rate, philox_rng
from .binning import _map_indexed  # noqa: F401 -- unused; the benchmark's tracer resolves it
from .measures import (
    MATRIX_GUARD,
    OUTPUT_GUARD,
    Channel,
    GuardError,
    JointPmf,
    Pmf,
    _kron_power,
    _one_shot,
    check_alpha,
    d_infinity_raw,
    logsumexp,
    parse_alpha,
    tsallis_raw,
)
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
BLOCK_CELLS = 2 ** 20        # cells per block of likelihood rows or batch of
                             # leakage tables built at once
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
    r)).  An attempt is rejected when more than ``MAX_EMPTY_FRAC`` of the
    m1*m2 grid cells are empty; after ``MAX_ATTEMPTS`` rejections the
    attempt with the fewest empty cells (earliest on ties) is kept and
    ``discards`` records the full attempt budget.
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
    budget = MAX_EMPTY_FRAC * m1 * m2
    best = None
    for attempt in range(MAX_ATTEMPTS):
        rng = philox_rng(seed, attempt)
        m_label = rng.integers(1, m1 + 1, size=count)
        f_label = rng.integers(1, m2 + 1, size=count)
        occupancy = np.zeros((m1, m2), dtype=np.int64)
        np.add.at(occupancy, (m_label - 1, f_label - 1), 1)
        empty = int(np.sum(occupancy == 0))
        if empty <= budget:
            return WiretapCode(kind, n, r1, r2, m1, m2, source,
                               m_label, f_label, seed, attempt, empty)
        if best is None or empty < best[0]:
            best = (empty, m_label, f_label)
    empty, m_label, f_label = best
    return WiretapCode(kind, n, r1, r2, m1, m2, source,
                       m_label, f_label, seed, MAX_ATTEMPTS, empty)


def _restricted_weights(log_probs: np.ndarray) -> np.ndarray:
    total = logsumexp(log_probs)
    if not np.isfinite(total):
        raise ValueError("bin carries zero tilted mass")
    return np.exp(log_probs - total)


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


def _likelihood_rows(source, ch: Channel, pos: np.ndarray | None = None) -> np.ndarray:
    """P(output sequence | member) rows over every output sequence.

    ``source`` is a code's TypicalSet or JointTypicalSet and ``pos`` the
    labeled member positions (all members when None).  Deterministic rows
    are exp of ``_channel_log_likelihoods``, built a block of members at a
    time: its last level is written into the block and the exp taken in
    place.  Stochastic rows are
    ``s_kernel_row`` of each u member, reduced from one log-likelihood
    table over the union of the members' x sets in two scratch buffers.
    """
    stochastic = isinstance(source, JointTypicalSet)
    labeled = source.u_set if stochastic else source
    members = labeled.members if pos is None else labeled.members[pos]
    n = source.n
    k_out = len(ch.out_labels)
    out_count = k_out ** n
    if out_count > OUTPUT_GUARD:
        raise GuardError(f"output alphabet {k_out}^{n} exceeds guard")
    if members.size * out_count > MATRIX_GUARD:
        raise GuardError("likelihood matrix exceeds the size guard")
    rows = np.empty((members.size, out_count))
    if stochastic:
        if ch.in_labels != source.base.col_labels:
            raise ValueError("channel input must match the joint's X alphabet")
        x_sets = source.x_members if pos is None else [source.x_members[i] for i in pos]
        xs = _drop_repeats(np.sort(np.concatenate(x_sets)))
        if xs.size * out_count > MATRIX_GUARD:
            raise GuardError("likelihood table exceeds the size guard")
        table = _channel_log_likelihoods(ch, index_digits(xs, source.base.shape[1], n),
                                         out_count, n)
        work = np.empty((max(x.size for x in x_sets), out_count))
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


def _leakage_tables(code: WiretapCode, pos: np.ndarray, weights: np.ndarray,
                    eve_rows: np.ndarray, dithers: list):
    """Yield ``(f, p(m, z^n | f))`` for each f of ``dithers``, in order.

    ``pos`` are member positions in increasing order, ``weights`` their
    tilted law restricted to their own dither and ``eve_rows`` their
    likelihood rows; every f of ``dithers`` must be carried by some member
    of ``pos``.  Each member's weighted row is added to its (f, m) cell in
    member order, one member per cell per step, so every cell is summed
    in the order ``np.add.at`` would sum it.  Tables are built for a batch
    of dithers at a time, BLOCK_CELLS cells at most (one dither at least).
    """
    m1, width = code.m1, eve_rows.shape[1]
    f0 = code.f_label[pos] - 1
    m0 = code.m_label[pos] - 1
    cell = f0 * m1 + m0
    order = np.argsort(cell, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size) - np.searchsorted(cell[order], cell[order])
    by_rank = np.argsort(rank, kind="stable")
    per_batch = max(1, BLOCK_CELLS // (m1 * width))
    for lo in range(0, len(dithers), per_batch):
        batch = dithers[lo:lo + per_batch]
        slot = np.full(code.m2, -1)
        slot[np.asarray(batch) - 1] = np.arange(len(batch))
        tables = np.zeros((len(batch), m1, width))
        flat = tables.reshape(-1, width)
        members = by_rank[slot[f0[by_rank]] >= 0]
        for step in np.split(members, np.flatnonzero(np.diff(rank[members])) + 1):
            contrib = eve_rows[step]
            contrib *= weights[step, None]
            flat[slot[f0[step]] * m1 + m0[step]] += contrib
        yield from zip(batch, tables)


def _leakage_value(p_mz: np.ndarray, target: np.ndarray, a: float) -> float:
    """Divergence of p(m, z^n | f) from the product reference ``target``,
    uniform messages times the i.i.d. output law, shaped like ``p_mz``,
    clamped by ``_residue_clamped``."""
    if math.isinf(a):
        return _residue_clamped(d_infinity_raw(p_mz, target))
    return _residue_clamped(tsallis_raw(p_mz, target, a))


def _residue_clamped(value: float) -> float:
    """RESIDUE is the absolute tolerance of a reported leakage: any value
    with |value| < RESIDUE is float residue and is reported as 0.0, at
    every order."""
    return 0.0 if abs(value) < RESIDUE else value


def _leakage_target(code: WiretapCode, eve: Channel) -> np.ndarray:
    """Uniform messages times the i.i.d. output law of the single-letter X
    marginal, shape (m1, k^n)."""
    x_law = code.source.base
    if code.kind == STOCHASTIC:
        # Pmf() renormalizes the marginal once more; recorded leakages
        # depend on those last bits
        x_law = Pmf(x_law.col_labels, x_law.col_marginal().probs)
    q = _kron_power(eve.output(x_law).probs, code.n) / code.m1
    return np.broadcast_to(q, (code.m1, q.size)).copy()


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
    pos, weights = _dither_members(code, f)
    rows = _likelihood_rows(code.source, eve, pos)
    [(_, p_mz)] = _leakage_tables(code, pos, weights, rows, [f])
    return _leakage_value(p_mz, _leakage_target(code, eve), a)


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


def _dither_leakages(code: WiretapCode, eve: Channel, a: float, eve_rows: np.ndarray) -> dict:
    """``{f: (positions, restricted weights, leakage)}`` of every populated
    dither f, in increasing f: the members carrying f, their tilted law
    restricted to f, and the order-``a`` leakage under f.  ``eve_rows`` are
    ``_likelihood_rows`` of ``eve`` over every member of ``code.source``."""
    groups = {f: pos for f in range(1, code.m2 + 1) if (pos := code.f_positions(f)).size}
    if not groups:
        raise ValueError("every dither value is empty")
    weights = np.empty(code.member_count)
    for pos in groups.values():
        weights[pos] = _restricted_weights(code._labeled.log_probs[pos])
    # one divergence kernel of the target serves every dither: its values
    # are those of _leakage_value bit for bit
    target = _leakage_target(code, eve)
    kernel, _ = _one_shot(target, target, a)
    return {f: (groups[f], weights[groups[f]], _residue_clamped(kernel(p_mz.reshape(1, -1))))
            for f, p_mz in _leakage_tables(code, np.arange(code.member_count), weights,
                                           eve_rows, list(groups))}


def select_f(code: WiretapCode, main: Channel, eve: Channel, alpha, *, shared=None):
    """Score every dither value and pick the best one.

    Returns ``(f_star, records)`` where records holds one LeakageRecord
    per f in order and f_star is the lowest f whose leakage + error_prob
    lies within RESIDUE of the minimum.  Dither values with no members
    score infinite leakage and error one, so they are never selected
    while any populated value exists.  ``shared`` is passed by a caller
    that shares likelihood rows across codes: the code's
    ``_dither_leakages`` at this order and ``_likelihood_rows`` of
    ``main`` over every member of ``code.source``.  When None both are
    built here, and the eve rows are dropped before the main rows are
    built.
    """
    a = check_alpha(alpha)
    if shared is None:
        leakages = _dither_leakages(code, eve, a, _likelihood_rows(code.source, eve))
        shared = (leakages, _likelihood_rows(code.source, main))
    leakages, main_rows = shared
    scores = {f: (leak, _miss_kernel(code, pos, weights, main_rows[pos]))
              for f, (pos, weights, leak) in leakages.items()}
    best = min(leak + err for leak, err in scores.values())
    f_star = next(f for f, (leak, err) in scores.items() if leak + err <= best + RESIDUE)
    records = [LeakageRecord(f, a, *scores.get(f, (math.inf, 1.0)), code.n, code.seed)
               for f in range(1, code.m2 + 1)]
    return f_star, records


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
    channel's likelihood rows at a time: the eve rows give every code's
    dither leakages and are dropped, then the main rows give every code's
    decoding errors and f* through ``select_f``."""
    codes = [build_code(source, config.r1, config.r2,
                        derive_seed(config.seed, f"wiretap:n={n}", i))
             for i in range(config.codes)]
    eve_rows = _likelihood_rows(source, config.eve)
    eve_rows.setflags(write=False)
    leakages = [_dither_leakages(code, config.eve, config.alpha, eve_rows) for code in codes]
    del eve_rows
    main_rows = _likelihood_rows(source, config.main)
    main_rows.setflags(write=False)
    records = []
    for code, leaks in zip(codes, leakages):
        f_star, recs = select_f(code, config.main, config.eve, config.alpha,
                                shared=(leaks, main_rows))
        rec = recs[f_star - 1]
        records.append(ExperimentRecord(n, config.r1, config.r2, config.alpha,
                                        config.encoder, code.seed, f_star,
                                        rec.leakage, rec.error_prob, code.discards))
    return records


def sweep_experiment(config: SweepConfig) -> list[ExperimentRecord]:
    """Run the configured sweep: per n, build codes and select dithers.

    The sweep goes n by n, on one thread.  An n's eve likelihood rows are
    built once and dropped once every code's leakages are scored; its main
    rows are built next, once, and shared by the codes' error scores
    (``_run_codes``).  Records come back ordered by (n, code index).
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
