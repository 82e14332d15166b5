"""Finite-alphabet probability types and scalar information measures.

Conventions used throughout the package:

* Entropies, rates and thresholds are reported in bits.  Divergences that
  carry a logarithm expose a ``bits`` flag (default True); the Tsallis
  divergence is log-free, except at order one where it equals the KL
  divergence in nats.
* ``0 * log 0 = 0``.  For orders above one, a support violation
  (``p > 0`` while ``q == 0``) yields ``inf``; for orders in (0, 1) such
  terms contribute zero.
* Orders within 1e-6 of one dispatch to the Shannon/KL formulas.
* Every divergence returns exactly 0.0 when both arguments hold
  elementwise-equal probability vectors; the public entropies and
  divergences never return -0.0.
* Every divergence is a ``_DivergenceKernel`` evaluation, one method per
  convention: the max ratio at INFINITY, the KL sum at order one, a sum
  of nonnegative polynomial terms at the integer orders 2..5 and the log
  power sum at every other order.  The public divergence functions are
  one-shot kernels.

Sums over alphabets use compensated accumulation (``math.fsum``); power
sums with large or tiny exponents are evaluated in the log domain.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields
from functools import reduce
from itertools import chain, product

import numpy as np

LN2 = math.log(2.0)
NORM_ATOL = 1e-12        # mass tolerance accepted by constructors
LOAD_ATOL = 1e-9         # mass window inside which loaders renormalize
ALPHA_ONE_WINDOW = 1e-6  # orders this close to 1 use the Shannon/KL branch


class NormalizationError(ValueError):
    """Probability mass is outside the accepted tolerance."""


class AlphabetMismatchError(ValueError):
    """Two objects that must share an alphabet do not."""


class InfiniteOrderError(ValueError):
    """Order INFINITY passed to an operation that has no such limit."""


class GuardError(ValueError):
    """A feasibility guard on problem size was exceeded."""


SEQ_GUARD = 2 ** 24      # max number of source (or pair) sequences
OUTPUT_GUARD = 2 ** 20   # max number of channel output sequences
MATRIX_GUARD = 2 ** 26   # max entries of a product joint or likelihood matrix
FSUM_CHUNK = 2 ** 16     # entries per Python-float chunk of an exact array sum


def _power_exceeds(base: int, n: int, guard: int) -> bool:
    """True when base^n > guard.  The exponents are compared first, so the
    power is formed only for n below the guard's bit length, or for a base
    of 0 or 1 (a one-letter alphabet), whose powers are instant."""
    return (base > 1 and n >= guard.bit_length()) or base ** n > guard


def check_alpha(alpha) -> float:
    """Validate a divergence/entropy order: positive real or ``math.inf``."""
    a = float(alpha)
    if math.isnan(a) or a <= 0.0:
        raise ValueError(f"order must be a positive real or inf, got {alpha!r}")
    return a


def parse_alpha(text) -> float:
    """Parse an order from text; the string ``"inf"`` maps to INFINITY."""
    if isinstance(text, str) and text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return check_alpha(float(text))


def logsumexp(a, axis=None):
    """log of the sum of exp(a), over all entries or along ``axis``.

    The float operations are those of ``scipy.special.logsumexp``: the
    maximal entries are taken out of the shifted sum s, which is divided
    by their count c, giving log1p(s) + log(c) + max; where that is not
    finite (all entries -inf, or an inf or nan), log(sum(exp(a))) is
    returned instead.  A 0-d result comes back as a numpy scalar.
    """
    work = np.array(a, dtype=float, ndmin=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _logsumexp_steps(work, np.empty(work.shape, dtype=bool), axis)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _logsumexp_steps(a: np.ndarray, is_max: np.ndarray, axis=None) -> np.ndarray:
    """:func:`logsumexp` of the float array ``a`` over every entry or along
    ``axis``, with the reduced axes kept, worked in place: ``a`` is
    overwritten and ``is_max``, a bool array of its shape, is scratch.  A
    result is finite exactly when its max is, so where a max is not,
    log(sum(exp(a))) is taken before anything is written.  Call under
    ``np.errstate`` with divide, invalid and over ignored.

    The reductions are the ufuncs' own: the float operations of np.max
    and np.sum without their Python dispatch, which this hot path feels.
    Over every entry the tie count is ``np.count_nonzero``'s whole-array
    count, several times faster on a Monte Carlo table than a float sum
    of the mask; an integer count divides and logs to the same bits."""
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    finite = np.isfinite(a_max)
    fallback = None
    if not finite.all():
        fallback = np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True))
        if not finite.any():
            return fallback
    np.equal(a, a_max, out=is_max)
    count = (np.count_nonzero(is_max) if axis is None
             else np.add.reduce(is_max, axis=axis, keepdims=True, dtype=float))
    np.copyto(a, -np.inf, where=is_max)
    a -= a_max
    np.exp(a, out=a)
    s = np.add.reduce(a, axis=axis, keepdims=True)
    np.divide(s, count, out=s, where=s != 0)
    out = np.log1p(s) + np.log(count) + a_max
    return out if fallback is None else np.where(finite, out, fallback)


def _is_one(alpha: float) -> bool:
    return abs(alpha - 1.0) < ALPHA_ONE_WINDOW


def _as_prob_array(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: probabilities must be an array of numbers")
    if arr.size == 0:
        raise ValueError(f"{name}: empty probability array")
    if np.any(~np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite probability entries")
    if np.any(arr < 0.0):
        raise ValueError(f"{name}: negative probability entries")
    return arr


def _check_labels(labels, name: str) -> tuple[str, ...]:
    if isinstance(labels, (str, bytes)):
        raise ValueError(f"{name}: labels must be a list, not a string")
    try:
        labs = tuple(str(x) for x in labels)
    except TypeError:
        raise ValueError(f"{name}: labels must be a list")
    if len(labs) == 0:
        raise ValueError(f"{name}: empty alphabet")
    if len(set(labs)) != len(labs):
        raise ValueError(f"{name}: duplicate labels")
    return labs


def _exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of a float array (``math.fsum``).

    The entries reach ``fsum`` as Python floats one chunk of ``FSUM_CHUNK``
    at a time, so no list of every entry is ever held.
    """
    flat = np.ravel(values)
    return math.fsum(chain.from_iterable(
        flat[i:i + FSUM_CHUNK].tolist() for i in range(0, flat.size, FSUM_CHUNK)))


def _kron_power(a: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power of ``a``, most significant factor first, as
    sequences are indexed; k = 0 gives the size-one array of 1.  A
    one-entry array is answered without the k products: its entry to the
    power k, which is the product's value for the entry 1.0 of a
    normalized one-entry law."""
    if a.size == 1:
        return np.full((1,) * a.ndim, float(a.flat[0]) ** k)
    return reduce(np.kron, [a] * k, np.ones((1,) * a.ndim))


class _Owned(np.ndarray):
    """Marks an array that this module built for a constructor and that
    nothing else refers to, so that it is normalized in place."""


def _renormalized(values, name: str, atol: float, per_row: bool = False) -> np.ndarray:
    """Probabilities divided by their mass, as a read-only array.

    The mass is the sum of the whole array, or of each row (last axis)
    when ``per_row``; a mass more than ``atol`` away from 1 raises
    NormalizationError.  An :class:`_Owned` array is divided in place.
    """
    arr = _as_prob_array(values, name)
    rows = arr.reshape(-1, arr.shape[-1]) if per_row and arr.ndim else arr.reshape(1, -1)
    out = rows if isinstance(values, _Owned) else np.empty_like(rows)
    for i, row in enumerate(rows):
        total = _exact_sum(row)
        if abs(total - 1.0) > atol:
            where = f"row {i} " if per_row else ""
            raise NormalizationError(
                f"{name}: {where}mass {total!r} deviates from 1 by more than {atol}")
        np.divide(row, total, out=out[i])
    out = out.reshape(arr.shape)
    out.setflags(write=False)
    return out


def _fields(doc, name: str, *keys) -> list:
    """Values of the given keys of a loaded JSON object, in order."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{name}: missing key {key!r}")
    return [doc[key] for key in keys]


def _atomic_write_text(path, text: str) -> None:
    """Write text via a temp file and rename, LF line endings."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _holds_bool(value) -> bool:
    """True when a loaded JSON value is, or nests, a boolean."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


class _JsonForm:
    """The JSON file form of the three probability types: each label field
    and then the probability array, in field order, under ``KEYS``.  The
    loader renormalizes within ``LOAD_ATOL``, row by row when ``PER_ROW``,
    and rejects booleans, which numpy would read as 0 and 1."""

    KEYS = ("row_labels", "col_labels", "probs")
    PER_ROW = False

    def to_dict(self) -> dict:
        *labels, probs = (getattr(self, f.name) for f in fields(self))
        return dict(zip(self.KEYS, [list(labs) for labs in labels] + [probs.tolist()]))

    @classmethod
    def from_dict(cls, doc: dict):
        name = cls.__name__
        *labels, probs = _fields(doc, name, *cls.KEYS)
        if _holds_bool(probs):
            raise ValueError(f"{name}: probabilities must be numbers, not booleans")
        return cls(*labels, _renormalized(probs, name, LOAD_ATOL, per_row=cls.PER_ROW))

    def save(self, path) -> None:
        _atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class Pmf(_JsonForm):
    """Probability mass function over a finite labeled alphabet.

    ``probs`` is stored exactly normalized (sums to 1 in float) and
    read-only.  Constructors accept mass within 1e-12 of 1; the JSON
    loader widens that to 1e-9 and renormalizes.
    """

    KEYS = ("labels", "probs")

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        labs = _check_labels(self.labels, "Pmf")
        arr = _renormalized(self.probs, "Pmf", NORM_ATOL)
        if arr.ndim != 1 or arr.shape[0] != len(labs):
            raise ValueError("Pmf: probs must be a vector matching labels")
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def uniform(cls, labels) -> "Pmf":
        labs = tuple(labels)
        return cls(labs, np.full(len(labs), 1.0 / len(labs)))

    @classmethod
    def point_mass(cls, labels, label) -> "Pmf":
        labs = tuple(str(x) for x in labels)
        arr = np.zeros(len(labs))
        arr[labs.index(str(label))] = 1.0
        return cls(labs, arr)

    def prob(self, label) -> float:
        return float(self.probs[self.labels.index(str(label))])


@dataclass(frozen=True, eq=False)
class JointPmf(_JsonForm):
    """Joint distribution p(x, z) with X on rows and Z on columns."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        rows = _check_labels(self.row_labels, "JointPmf rows")
        cols = _check_labels(self.col_labels, "JointPmf cols")
        arr = _renormalized(self.probs, "JointPmf", NORM_ATOL)
        if arr.shape != (len(rows), len(cols)):
            raise ValueError("JointPmf: probs shape must be (rows, cols)")
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)
        object.__setattr__(self, "probs", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape

    def row_marginal(self) -> Pmf:
        return Pmf(self.row_labels, self.probs.sum(axis=1))

    def col_marginal(self) -> Pmf:
        return Pmf(self.col_labels, self.probs.sum(axis=0))

    def col_conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(p_z, p_x_given_z)``; zero-mass columns hold zeros."""
        pz = self.probs.sum(axis=0)
        cond = np.zeros_like(self.probs)
        pos = pz > 0.0
        cond[:, pos] = self.probs[:, pos] / pz[pos]
        return pz, cond

    def row_conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(p_x, p_z_given_x)``; zero-mass rows hold zeros."""
        px = self.probs.sum(axis=1)
        cond = np.zeros_like(self.probs)
        pos = px > 0.0
        cond[pos, :] = self.probs[pos, :] / px[pos, None]
        return px, cond

    def swapped(self) -> "JointPmf":
        return JointPmf(self.col_labels, self.row_labels, self.probs.T)

    def product_power(self, n: int) -> "JointPmf":
        """The n-fold i.i.d. extension over sequence alphabets.

        Sequence labels join the per-letter labels with commas, most
        significant letter first, matching the package's mixed-radix
        sequence indexing.
        """
        if n < 1:
            raise ValueError("product_power: n must be >= 1")
        if _power_exceeds(self.probs.size, n, MATRIX_GUARD):
            raise GuardError(f"product_power: {self.probs.size}^{n} entries exceed guard")
        rows = tuple(",".join(s) for s in product(self.row_labels, repeat=n))
        cols = tuple(",".join(s) for s in product(self.col_labels, repeat=n))
        return JointPmf(rows, cols, _kron_power(self.probs, n).view(_Owned))


@dataclass(frozen=True, eq=False)
class Channel(_JsonForm):
    """Row-stochastic transition matrix p(out | in)."""

    PER_ROW = True

    in_labels: tuple[str, ...]
    out_labels: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        ins = _check_labels(self.in_labels, "Channel inputs")
        outs = _check_labels(self.out_labels, "Channel outputs")
        arr = _renormalized(self.rows, "Channel", NORM_ATOL, per_row=True)
        if arr.shape != (len(ins), len(outs)):
            raise ValueError("Channel: rows shape must be (inputs, outputs)")
        object.__setattr__(self, "in_labels", ins)
        object.__setattr__(self, "out_labels", outs)
        object.__setattr__(self, "rows", arr)

    @classmethod
    def identity(cls, labels) -> "Channel":
        labs = tuple(labels)
        return cls(labs, labs, np.eye(len(labs)))

    @classmethod
    def bsc(cls, flip: float, labels=("0", "1")) -> "Channel":
        """Binary symmetric channel with the given crossover probability."""
        if not 0.0 <= flip <= 1.0:
            raise ValueError("bsc: flip must lie in [0, 1]")
        return cls(tuple(labels), tuple(labels),
                   np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))

    def output(self, p_in: Pmf) -> Pmf:
        if p_in.labels != self.in_labels:
            raise AlphabetMismatchError("pmf alphabet does not match channel input")
        return Pmf(self.out_labels, p_in.probs @ self.rows)

    def joint(self, p_in: Pmf) -> JointPmf:
        """Input distribution through this channel: p(x, z) = p(x) p(z|x)."""
        if p_in.labels != self.in_labels:
            raise AlphabetMismatchError("input pmf and channel alphabets differ")
        return JointPmf(p_in.labels, self.out_labels, p_in.probs[:, None] * self.rows)

    def then(self, other: "Channel") -> "Channel":
        """Cascade: feed this channel's output into ``other``."""
        if self.out_labels != other.in_labels:
            raise AlphabetMismatchError("cascade alphabets do not match")
        return Channel(self.in_labels, other.out_labels, self.rows @ other.rows)


def _require_same_alphabet(p: Pmf, q: Pmf) -> None:
    if p.labels != q.labels:
        raise AlphabetMismatchError("pmfs are defined on different alphabets")


# ---------------------------------------------------------------------------
# Entropies


def shannon_entropy(p: Pmf) -> float:
    """Shannon entropy in bits; never -0.0."""
    probs = p.probs[p.probs > 0.0]
    return 0.0 - math.fsum(x * math.log2(x) for x in probs.tolist())


def renyi_entropy(p: Pmf, alpha) -> float:
    """Renyi entropy of order alpha, in bits; never -0.0."""
    a = check_alpha(alpha)
    if math.isinf(a):
        return 0.0 - math.log2(float(np.max(p.probs)))
    if _is_one(a):
        return shannon_entropy(p)
    probs = p.probs[p.probs > 0.0]
    log_sum = float(logsumexp(a * np.log(probs)))
    return log_sum / ((1.0 - a) * LN2) + 0.0


def conditional_entropy(j: JointPmf) -> float:
    """H(X|Z) in bits for a joint with X on rows, Z on columns."""
    pz, cond = j.col_conditionals()
    terms = []
    for z in range(j.shape[1]):
        if pz[z] <= 0.0:
            continue
        col = cond[:, z]
        col = col[col > 0.0]
        terms.append(pz[z] * -math.fsum(x * math.log2(x) for x in col.tolist()))
    return math.fsum(terms)


def mutual_information(j: JointPmf) -> float:
    """I(X;Z) in bits; tiny negative float residue is clamped to zero."""
    value = shannon_entropy(j.row_marginal()) - conditional_entropy(j)
    if -1e-9 < value < 0.0:
        return 0.0
    return value


def cond_renyi_entropy(j: JointPmf, alpha) -> float:
    """Conditional Renyi entropy of X given Z in bits, in the p(z)-averaged
    form, not Arimoto's.

    For finite order a != 1 this is log2(sum_z p(z) sum_x p(x|z)^a)
    divided by (1 - a), which equals log2|X| - D_a(P_XZ || U_X x P_Z)
    (Fehr-Berens, IEEE T-IT 2014); order one gives H(X|Z) and INFINITY
    gives -log2 max p(x|z) over columns of positive mass.  Float residue
    in (-1e-9, 0] is reported as 0.0.
    """
    a = check_alpha(alpha)
    pz, cond = j.col_conditionals()
    pos_cols = pz > 0.0
    if math.isinf(a):
        return 0.0 - math.log2(float(np.max(cond[:, pos_cols])))
    if _is_one(a):
        return conditional_entropy(j)
    log_terms = []
    for z in np.nonzero(pos_cols)[0]:
        col = cond[:, z]
        col = col[col > 0.0]
        log_terms.append(math.log(pz[z]) + float(logsumexp(a * np.log(col))))
    value = float(logsumexp(log_terms)) / ((1.0 - a) * LN2)
    if -1e-9 < value <= 0.0:
        return 0.0
    return value


def is_singleton(j: JointPmf, atol: float = 1e-12) -> bool:
    """True when every conditional p(x|z) entry agrees across (x, z).

    Such channels are exactly the ones whose conditional Renyi entropy is
    constant in the order.
    """
    pz, cond = j.col_conditionals()
    vals = cond[:, pz > 0.0]
    return float(np.max(vals) - np.min(vals)) <= atol


# ---------------------------------------------------------------------------
# Divergences

# A maximum ratio p/q this close below 1 is rounding on normalized inputs.
RATIO_ULPS = 4 * np.finfo(float).eps
# The integer orders whose Tsallis divergence the kernel evaluates as a
# polynomial f-sum: per order, the Horner coefficients of P_alpha after
# its leading 1, C(alpha, j) for j = alpha - 1 down to 2.
F_SUM_COEFFICIENTS = {a: tuple(math.comb(a, j) for j in range(a - 1, 1, -1))
                      for a in (2, 3, 4, 5)}
F_SUM_CELLS = 2 ** 15  # cells of each half of f_sums' accumulator, at most


class _DivergenceKernel:
    """Every divergence of the package, at one order: tables p of up to
    ``shape[0]`` rows of k cells against the reference that repeats the row
    q in every row.  A table of r < shape[0] rows stands for its
    (shape[0], k) table with zero rows below.

    Each convention is evaluated in one method, on a (g, r, k) stack of g
    tables: :meth:`max_ratio` at INFINITY, :meth:`kl` at order one and
    :meth:`f_sums` at the integer orders 2..5, the Tsallis divergence as
    the Csiszar f-divergence of a polynomial generator; every other order
    takes :meth:`log_phi` on one table.  A call gives one table's Tsallis
    value (KL in nats at order one, D_inf in bits at INFINITY),
    :meth:`tables` those of a stack and :meth:`renyi` one table's Renyi
    value; the public divergence functions are one-shot kernels.  Built
    once per reference: it holds q's positive mask; at the integer orders
    q's exact sum and, from order 3, the accumulator of :meth:`f_sums`,
    grown to the largest stack it has worked on; at the other finite
    orders (1 - alpha) log q and scratch arrays of ``shape``, sliced to a
    table's rows, so
    that a call there allocates nothing table-sized unless a cell lies
    outside the support and the terms are compacted.  The call and
    :meth:`tables` may overwrite p at the integer orders.
    """

    def __init__(self, row: np.ndarray, alpha: float, shape: tuple[int, int]):
        self.row = row
        self.alpha = alpha
        self.shape = shape
        self.row_pos = row > 0.0
        self.all_pos = bool(self.row_pos.all())
        self.horner = F_SUM_COEFFICIENTS.get(alpha)
        if self.horner is not None:
            self.row_sum = _exact_sum(row)
            self.div = row if self.all_pos else np.where(self.row_pos, row, 1.0)
            self.acc = None  # from order 3: f_sums' accumulator, sized per stack
        elif not (math.isinf(alpha) or _is_one(alpha)):
            self.log_form()

    def log_form(self):
        """Hold (1 - alpha) log q and the scratch arrays of :meth:`log_phi`."""
        with np.errstate(divide="ignore"):
            self.log_row = (1.0 - self.alpha) * np.log(self.row)
        self.mask = np.empty(self.shape, dtype=bool)
        self.buf = np.empty(self.shape)

    def same(self, p: np.ndarray) -> bool:
        """True when every cell of p equals the reference (almost every
        table already differs in its first cell)."""
        return p.flat[0] == self.row[0] and bool(
            np.equal(p, self.row, out=self.mask[:p.shape[0]]).all())

    def __call__(self, p: np.ndarray) -> float:
        a = self.alpha
        if math.isinf(a):
            return math.log2(self.max_ratio(p[None])[0])
        if _is_one(a):
            return float(self.kl(p[None])[0])
        if self.horner is not None:
            return float(self.f_sums(p[None])[0]) / (a - 1.0)
        if self.same(p):
            return 0.0
        log_phi = self.log_phi(p)
        if log_phi == math.inf:
            return math.inf
        return math.expm1(log_phi) / (a - 1.0)

    def renyi(self, p: np.ndarray, bits: bool = True) -> float:
        """Renyi divergence of the one table p, in bits or nats; never -0.0.
        At the integer orders it is log1p((alpha - 1) T_alpha) / (alpha - 1),
        (alpha - 1) T_alpha being the f-sum itself, of a copy of p.  Where
        that sum is inf, its log may still be finite: the value is then
        the log power sum's, inf only outside q's support."""
        a = self.alpha
        if math.isinf(a):
            ratio = float(self.max_ratio(p[None])[0])
            return math.log2(ratio) if bits else math.log(ratio)
        if _is_one(a):
            v = float(self.kl(p[None])[0])
        elif self.horner is not None:
            v = math.log1p(float(self.f_sums(p[None].copy())[0])) / (a - 1.0)
            if v == math.inf:
                self.log_form()
                v = self.log_phi(p) / (a - 1.0)
        else:
            v = 0.0 if self.same(p) else self.log_phi(p) / (a - 1.0)
        return (v / LN2 if bits else v) + 0.0

    def tables(self, p: np.ndarray) -> np.ndarray:
        """Values of the stack p of g tables, shape (g, r, k): bit for bit
        the kernel's call on each table; p may be overwritten.  At INFINITY,
        at order one and at the integer orders every table is evaluated
        with the stack.  At other orders the tables with every cell
        positive and a first cell other than the reference's, against a
        positive reference, are reduced together with a call's float
        operations on p in place, each table one row of r k terms and one
        log-sum-exp along axis 1; any other table takes the call: one with
        a zero cell, one that may equal the reference, and every table
        against a reference with a zero."""
        a = self.alpha
        if math.isinf(a):
            return np.array([math.log2(r) for r in self.max_ratio(p).tolist()])
        if _is_one(a):
            return self.kl(p)
        if self.horner is not None:
            return self.f_sums(p) / (a - 1.0)
        out = np.empty(p.shape[0])
        ok = np.minimum.reduce(p, axis=(1, 2)) > 0.0
        ok &= p[:, 0, 0] != self.row[0]
        ok &= self.all_pos
        for i in np.flatnonzero(~ok).tolist():
            out[i] = self(p[i])
        if not ok.any():
            return out
        work = p if ok.all() else p[ok]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.log(work, out=work)
            work *= a
            work += self.log_row
            work = work.reshape(work.shape[0], -1)
            log_phi = _logsumexp_steps(work, np.empty(work.shape, dtype=bool), axis=1)
        out[ok] = [math.inf if v == math.inf else math.expm1(v) / (a - 1.0)
                   for v in log_phi[:, 0].tolist()]
        return out

    def f_sums(self, p: np.ndarray) -> np.ndarray:
        """(alpha - 1) T_alpha of each table of the stack p, shape (g, r, k),
        at an integer order alpha in 2..5, worked in place on p.

        With d = (p - q)/q, (1 + d)^alpha - 1 - alpha d is d^2 P_alpha(d),
        P_alpha having the integer coefficients C(alpha, j), so each table
        is the sum of the terms q d^2 P_alpha(d) (Liese-Vajda, IEEE T-IT
        2006), each >= 0 whatever the rounding: d >= -1 in floats too, and
        P_alpha >= alpha - 1 there.  Near q, p - q is exact (Sterbenz), and
        p is overwritten by it.  A term is (p - q)^2 / q at order 2, with
        no scratch; from order 3 it is ((p - q) d) P_alpha(d), d and then
        P_alpha(d) by Horner formed in the two halves of the accumulator, a
        chunk of rows at a time: half the stack's g r rows, at least one row
        and at most ``F_SUM_CELLS`` cells, so a one-row table takes two rows
        of scratch and a stack of many small tables two chunks.  The
        accumulator is kept, and grows to the largest chunk.
        (p - q) d = q d^2 <= term, so no step overflows unless the term
        does or d^(alpha - 2) leaves float range.
        Each table is one pairwise sum of its r k terms, so a table equal
        to the reference gives exactly 0.0.  A cell with q = 0 is divided
        by 1: it adds nothing where p = 0, and where p > 0 its table is
        inf whatever the sum.  The zero rows that r < shape[0] leaves out
        are cells with d = -1, whose terms q P_alpha(-1) = (alpha - 1) q
        together add (shape[0] - r)(alpha - 1) times q's exact sum."""
        g, r, k = p.shape
        outside = None
        if not self.all_pos:
            outside = np.logical_or.reduce(p[:, :, ~self.row_pos] > 0.0, axis=(1, 2))
        cells = p.reshape(g * r, k)
        with np.errstate(over="ignore"):
            cells -= self.row
            if not self.horner:
                cells *= cells
                cells /= self.div
            else:
                lead, *rest = self.horner
                step = max(1, min(g * r // 2, F_SUM_CELLS // k))
                if self.acc is None or self.acc.shape[1] < step:
                    self.acc = np.empty((2, step, k))
                for lo in range(0, g * r, step):
                    w = cells[lo:lo + step]
                    d, poly = self.acc[:, :w.shape[0]]
                    np.divide(w, self.div, out=d)
                    np.add(d, lead, out=poly)
                    for c in rest:
                        poly *= d
                        poly += c
                    w *= d
                    w *= poly
        sums = np.add.reduce(cells.reshape(g, r * k), axis=1)
        if r < self.shape[0]:
            sums += ((self.shape[0] - r) * (self.alpha - 1.0)) * self.row_sum
        if outside is not None:
            sums[outside] = math.inf
        return sums

    def max_ratio(self, p: np.ndarray) -> np.ndarray:
        """max p/q over supp(p) of each table of the stack p, shape
        (g, r, k); inf where p > 0 = q.  Dividing by q > 0 keeps order, so
        the column maxima give the max of the ratios, and a table equal to
        the reference gives exactly 1.0.  A ratio p/q >= p never rounds to
        0, so only a table with no positive cell would give 0; it raises
        ValueError.  Tables and a reference of mass 1 have a maximum of at
        least 1; one within RATIO_ULPS of 1 below it is rounding and is
        reported as exactly 1.0, so D_inf is never negative there."""
        col_max = np.maximum.reduce(p, axis=1)
        ratio = np.divide(col_max, self.row, where=self.row_pos,
                          out=np.where(col_max > 0.0, math.inf, 0.0))
        ratio = np.maximum.reduce(ratio, axis=1)
        if not np.minimum.reduce(ratio) >= 1.0:
            if not ratio.all():
                raise ValueError("D_inf of a table with no positive cell is undefined")
            np.copyto(ratio, 1.0, where=(ratio < 1.0) & (ratio >= 1.0 - RATIO_ULPS))
        return ratio

    def kl(self, p: np.ndarray) -> np.ndarray:
        """sum p ln(p/q) over supp(p) of each table of the stack p, shape
        (g, r, k), in nats.  The terms (p / q, log, times p) of every table
        are formed in one array, and each table is one ``math.fsum``, which
        is correctly rounded whatever the order of its terms.  A cell with
        p = 0 gives the term 0.0, so a table equal to the reference gives
        exactly 0.0.  As q <= 1, p / q never rounds to 0, so no term is
        -inf, and a term where p > 0 = q is inf."""
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.divide(p, self.row)
            np.log(terms, out=terms)
            terms *= p
        np.copyto(terms, 0.0, where=p == 0.0)
        return np.array([_exact_sum(table) for table in terms])

    def log_phi(self, p: np.ndarray) -> float:
        """ln of sum p^alpha q^(1-alpha) over supp(p); inf/-inf at the edges."""
        a = self.alpha
        mask, buf = self.mask[:p.shape[0]], self.buf[:p.shape[0]]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ok = None
            if not (self.all_pos and p.min() > 0.0):
                ok = np.greater(p, 0.0, out=mask)
                if not self.all_pos:
                    if a > 1.0 and ok[:, ~self.row_pos].any():
                        return math.inf
                    ok &= self.row_pos
            np.log(p, out=buf, where=True if ok is None else ok)
            buf *= a
            buf += self.log_row
            terms = buf.reshape(-1)
            if ok is not None:
                terms = terms[ok.reshape(-1)]
                if not terms.size:
                    return -math.inf
            return float(_logsumexp_steps(terms, mask.reshape(-1)[:terms.size])[0])


def _one_shot(p, q, alpha: float):
    """The kernel of the single table p against the whole array q, and a
    copy of p shaped as that table's one row, for the kernel to work on."""
    q = np.ravel(q)
    return _DivergenceKernel(q, alpha, (1, q.size)), np.array(p, dtype=float).reshape(1, q.size)


def tsallis_raw(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Tsallis divergence on raw arrays; order one falls back to KL in nats."""
    a = check_alpha(alpha)
    if math.isinf(a):
        raise InfiniteOrderError("Tsallis divergence has no INFINITY order")
    kernel, p = _one_shot(p, q, a)
    return kernel(p) + 0.0


def d_infinity_raw(p: np.ndarray, q: np.ndarray, bits: bool = True) -> float:
    kernel, p = _one_shot(p, q, math.inf)
    return kernel.renyi(p, bits)


def kl_divergence(p: Pmf, q: Pmf, bits: bool = True) -> float:
    """KL divergence D(p || q), bits by default."""
    return renyi_divergence(p, q, 1.0, bits)


def total_variation(p: Pmf, q: Pmf) -> float:
    """Total variation distance, half the L1 difference."""
    _require_same_alphabet(p, q)
    return 0.5 * _exact_sum(np.abs(p.probs - q.probs))


def tsallis_divergence(p: Pmf, q: Pmf, alpha) -> float:
    """Tsallis divergence of order alpha; log-free, KL in nats at order one."""
    _require_same_alphabet(p, q)
    return tsallis_raw(p.probs, q.probs, alpha)


def renyi_divergence(p: Pmf, q: Pmf, alpha, bits: bool = True) -> float:
    """Renyi divergence of order alpha; KL at one, max-ratio log at INFINITY."""
    _require_same_alphabet(p, q)
    kernel, probs = _one_shot(p.probs, q.probs, check_alpha(alpha))
    return kernel.renyi(probs, bits)


def d_infinity(p: Pmf, q: Pmf, bits: bool = True) -> float:
    """Max-log-ratio divergence over the support of p."""
    _require_same_alphabet(p, q)
    return d_infinity_raw(p.probs, q.probs, bits=bits)

