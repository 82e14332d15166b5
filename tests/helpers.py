"""Randomized instance generators and checks shared across the test modules."""

import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np

import osrb_lab
from osrb_lab.binning import (
    _divergence_of_induced,
    expected_tsallis_exact_iid,
    m_from_rate,
    pairwise_sum,
    philox_rng,
)
from osrb_lab.measures import (
    ALPHA_ONE_WINDOW,
    Channel,
    JointPmf,
    Pmf,
    _kron_power,
    check_alpha,
    cond_renyi_entropy,
    logsumexp,
)
from osrb_lab.rates import _alpha_coeff
from osrb_lab.typicality import (
    EmptyTypicalSetError,
    JointTypicalSet,
    _typical_count_rows,
    index_digits,
    typical_set,
)


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


def product_power_oracle(j, n):
    """Probabilities of the n-fold product joint the direct way: the Kronecker
    power divided by the math.fsum of a list of all its entries."""
    kron = j.probs
    for _ in range(n - 1):
        kron = np.kron(kron, j.probs)
    return kron / math.fsum(kron.ravel().tolist())


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


def channel_log_likelihoods_reference(ch, in_digits, out_count, n):
    """log prod_i p(z_i | x_i) for input digit rows x all outputs z, one
    pass per position over the full matrix, gathering the position's
    output digit of every z: the per-position sum the prefix-extension
    kernel must reproduce bit for bit."""
    kz = len(ch.out_labels)
    z_digits = index_digits(np.arange(out_count), kz, n)
    with np.errstate(divide="ignore"):
        log_rows = np.log(ch.rows)
    out = np.zeros((in_digits.shape[0], out_count))
    for pos in range(n):
        out += log_rows[in_digits[:, pos]][:, z_digits[:, pos]]
    return out


def s_kernel_row_reference(jts, ch, u_seq):
    """S(z, u) over every output z, one u at a time: the likelihood rows of
    u's own x set, built from scratch, tilted by its conditional law and
    summed in the log domain -- the per-u kernel that the shared-table
    stochastic rows must reproduce bit for bit."""
    n = jts.n
    xs, cond_log = jts.conditional(u_seq)
    out_count = len(ch.out_labels) ** n
    log_lik = channel_log_likelihoods_reference(
        ch, index_digits(xs, jts.base.shape[1], n), out_count, n)
    return np.exp(logsumexp(log_lik + cond_log[:, None], axis=0))


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


def binary_entropy(p: float) -> float:
    """Closed-form entropy in bits of a (p, 1-p) coin, 0 < p < 1."""
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _binary_kl_bits_grid(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Vectorized KL((t,1-t) || (p,1-p)) in bits with 0 log 0 = 0."""
    def xlog(a, b):
        out = np.zeros_like(a)
        pos = a > 0
        out[pos] = a[pos] * np.log2(a[pos] / b)
        return out
    return xlog(t, p[0]) + xlog(1.0 - t, p[1])


def r_prime_grid_oracle(p_u: Pmf, ch_xu: Channel, ch_zx: Channel, alpha,
                        step: float = 0.01) -> float:
    """Exhaustive grid evaluation of the smoothing objective, binary only.

    The objective decomposes as a sum of independent per-u terms, so the
    exhaustive grid over the four free parameters t(z=0|u,x) equals the
    sum over u of a 2-D grid maximum.  Used as an independent check of
    ``r_prime``; never calls the ascent path.
    """
    c = _alpha_coeff(check_alpha(alpha))
    if not (0.005 <= step <= 0.05):
        raise ValueError("grid step must lie in [0.005, 0.05]")
    if p_u.size != 2 or len(ch_xu.out_labels) != 2 or len(ch_zx.out_labels) != 2:
        raise ValueError("grid oracle supports binary U, X, Z only")
    n_pts = int(round(1.0 / step)) + 1
    grid = np.linspace(0.0, 1.0, n_pts)
    t0, t1 = np.meshgrid(grid, grid, indexing="ij")  # t(z=0|u,x=0), t(z=0|u,x=1)
    w = p_u.probs[:, None] * ch_xu.rows
    p_x = w.sum(axis=0)
    p_z = p_x @ ch_zx.rows
    total = 0.0
    for u in range(2):
        pen = (w[u, 0] * _binary_kl_bits_grid(t0, ch_zx.rows[0])
               + w[u, 1] * _binary_kl_bits_grid(t1, ch_zx.rows[1]))
        mix = ch_xu.rows[u, 0] * t0 + ch_xu.rows[u, 1] * t1
        gain = p_u.probs[u] * _binary_kl_bits_grid(mix, p_z)
        surface = -c * pen + gain
        total += float(np.max(np.where(np.isnan(surface), -np.inf, surface)))
    return total


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


def joint_typical_oracle(joint, n, eps):
    """Jointly typical set of ``joint`` by brute force in Fraction arithmetic.

    Every (u, x) sequence pair is tested, sequences indexed most
    significant symbol first.  A u qualifies when each symbol count c
    has |c - n p(u)| < n eps, with p(u) the row sum of the joint; a pair
    (u, x) qualifies when each pair count N has |N - n p(u, x)| < 2 n eps.
    The joint's float entries are taken exactly.  Returns {u: (xs, law)}
    with ``xs`` the qualifying x in increasing order and ``law`` the
    product of p(x_i | u_i) renormalized over xs, as floats; returns None
    when the construction must fail: no qualifying u, or a qualifying u
    whose x set is empty or carries zero mass.
    """
    p = [[Fraction(float(v)) for v in row] for row in np.asarray(joint.probs)]
    ku, kx = len(p), len(p[0])
    p_u = [sum(row) for row in p]
    window = n * Fraction(float(eps))

    def digits(index, k):
        out = []
        for _ in range(n):
            index, d = divmod(index, k)
            out.append(d)
        return out[::-1]

    result = {}
    for u in range(ku ** n):
        ud = digits(u, ku)
        if any(abs(ud.count(a) - n * p_u[a]) >= window for a in range(ku)):
            continue
        xs, weights = [], []
        for x in range(kx ** n):
            xd = digits(x, kx)
            pairs = list(zip(ud, xd))
            if all(abs(pairs.count((a, b)) - n * p[a][b]) < 2 * window
                   for a in range(ku) for b in range(kx)):
                xs.append(x)
                weights.append(math.prod(p[a][b] / p_u[a] for a, b in pairs))
        total = sum(weights)
        if total == 0:
            return None
        result[u] = (xs, [float(w / total) for w in weights])
    return result or None


def joint_typical_reference(j, n, eps):
    """Jointly typical set built one u member at a time: for each typical
    u, count the (u_i, x_i) pair cells of every x with ``np.add.at`` and
    apply the 2 * eps pair window to those counts.  The pair-sequence
    build must reproduce its members and conditional laws bit for bit."""
    ku, kx = j.shape
    u_set = typical_set(j.row_marginal(), n, eps)
    x_count = kx ** n
    x_digits = index_digits(np.arange(x_count), kx, n)
    with np.errstate(divide="ignore"):
        log_cond = np.log(j.row_conditionals()[1])
    x_members, x_log_probs = [], []
    for u in u_set.members:
        u_digits = index_digits(np.array([u]), ku, n)[0]
        pair_counts = np.zeros((x_count, ku * kx), dtype=np.int16)
        rows = np.arange(x_count)
        for pos in range(n):
            np.add.at(pair_counts, (rows, u_digits[pos] * kx + x_digits[:, pos]), 1)
        mask = _typical_count_rows(pair_counts, j.probs.ravel(), n, 2 * eps)
        xs = np.nonzero(mask)[0].astype(np.int64)
        if xs.size == 0:
            raise EmptyTypicalSetError(f"u member {int(u)} has no conditionally typical x")
        cond_log = np.sum(log_cond[u_digits, x_digits[xs]], axis=1)
        cond_mass = float(logsumexp(cond_log))
        if not math.isfinite(cond_mass):
            raise EmptyTypicalSetError(f"conditional set of u member {int(u)} carries zero mass")
        x_members.append(xs)
        x_log_probs.append(cond_log - cond_mass)
    return JointTypicalSet(j, n, float(eps), u_set, tuple(x_members), tuple(x_log_probs))


def label_masses(code):
    """Tilted probability mass of each (m, f) cell of a wiretap code,
    shape (m1, m2)."""
    labeled = code.source if code.kind == "deterministic" else code.source.u_set
    out = np.zeros((code.m1, code.m2))
    np.add.at(out, (code.m_label - 1, code.f_label - 1), np.exp(labeled.log_probs))
    return out


def logsumexp_reference(a, axis=None):
    """logsumexp with fresh arrays at every step: max, tie mask and count,
    exp of the shifted non-max entries, their sum over the count, then
    log1p(s) + log(c) + max, or log(sum(exp(a))) where that is not finite.
    The in-place steps must reproduce it bit for bit."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        count = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max),
                   axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / count)
        out = np.log1p(s) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def divergence_reference(p, q, alpha, bits=True):
    """Tsallis divergence of finite order (KL in nats within ALPHA_ONE_WINDOW
    of one) or, at alpha = inf, D_inf in bits or nats, from masked copies of
    the support and :func:`logsumexp_reference`: the one-shot formulas the
    divergence kernel must reproduce bit for bit."""
    if np.array_equal(p, q):
        return 0.0
    p, q = np.ravel(p), np.ravel(q)
    pos = p > 0.0
    violated = bool(np.any(q[pos] == 0.0))
    if math.isinf(alpha):
        if violated:
            return math.inf
        ratio = float(np.max(p[pos] / q[pos]))
        return math.log2(ratio) if bits else math.log(ratio)
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return math.inf if violated else math.fsum(
            (p[pos] * np.log(p[pos] / q[pos])).tolist())
    if alpha > 1.0 and violated:
        return math.inf
    ok = pos & (q > 0.0)
    if not np.any(ok):
        return math.expm1(-math.inf) / (alpha - 1.0)
    terms = alpha * np.log(p[ok]) + (1.0 - alpha) * np.log(q[ok])
    return math.expm1(float(logsumexp_reference(terms))) / (alpha - 1.0)


def aggregate_kron_reference(assignment, high, low, m):
    """Bin table of the joint ``high (x) low`` for a 1-based assignment, from
    a fresh one-hot and fresh GEMM outputs: the table that the buffered
    per-call kernel must reproduce bit for bit."""
    onehot = np.zeros((m, assignment.size))
    onehot[assignment - 1, np.arange(assignment.size)] = 1.0
    t = (onehot.reshape(-1, low.shape[0]) @ low).reshape(m, high.shape[0], -1)
    return np.matmul(high.T, t).reshape(m, -1)


def mc_reference(j, n, rate, alpha, trials, seed):
    """expected_divergence_mc with everything built per trial: a new
    philox_rng(seed, t), a fresh table and the one-shot divergence."""
    a = check_alpha(alpha)
    m = m_from_rate(n, rate)
    high = _kron_power(j.probs, n // 2)
    low = _kron_power(j.probs, n - n // 2)
    pz = _kron_power(j.probs.sum(axis=0), n)
    values = []
    for t in range(trials):
        assignment = philox_rng(seed, t).integers(1, m + 1, size=j.shape[0] ** n,
                                                  dtype=np.int64)
        agg = aggregate_kron_reference(assignment, high, low, m)
        values.append(_divergence_of_induced(agg, pz, m, a))
    mean = pairwise_sum(values) / trials
    if trials == 1:
        return mean, 0.0
    var = pairwise_sum((v - mean) ** 2 for v in values) / (trials - 1)
    return mean, math.sqrt(var / trials)


def run_capped(argv, cwd=None, cap=2 ** 30, timeout=2, code=None):
    """The CLI, or the Python source ``code``, with arguments ``argv`` in a
    child process under an address-space cap (1 GiB by default), which has
    to finish within ``timeout`` seconds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(osrb_lab.__file__)))
    head = ["-m", "osrb_lab.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *head, *argv], capture_output=True, text=True,
        env=env, cwd=cwd, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
