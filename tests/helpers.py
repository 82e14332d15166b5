"""Randomized instance generators and checks shared across the test modules."""

import itertools
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np

import osrb_lab
from osrb_lab.binning import (
    ENUM_GUARD,
    _block_types,
    bin_cumulant_coefficients,
    expected_tsallis_exact_iid,
    m_from_rate,
    pairwise_sum,
    philox_rng,
)
from osrb_lab.measures import (
    ALPHA_ONE_WINDOW,
    Channel,
    GuardError,
    JointPmf,
    LN2,
    Pmf,
    _DivergenceKernel,
    _kron_power,
    check_alpha,
    cond_renyi_entropy,
    d_infinity_raw,
    logsumexp,
    tsallis_raw,
)
from osrb_lab.rates import MAX_ITER, TOL, _RPrimeProblem, _alpha_coeff
from osrb_lab.typicality import (
    EmptyTypicalSetError,
    JointTypicalSet,
    _typical_count_rows,
    index_digits,
    typical_set,
)
from osrb_lab.wiretap import (
    RESIDUE,
    LeakageRecord,
    _likelihood_rows,
    _miss_kernel,
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


def exact_mean_reference(j, n, m, alpha):
    """expected_tsallis_exact_iid with everything rebuilt per call: the
    column conditionals, the power sums S_k(z) and one ``math.fsum`` G_rho
    per block type, then the same log-domain terms and GuardError."""
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
    power_sums = {1: 1.0}
    power_sums.update((k, np.sum(cond ** k, axis=0)) for k in range(2, alpha + 1))
    c = dict(enumerate(bin_cumulant_coefficients(m, alpha), start=1))
    terms = []
    try:
        for sizes, count in _block_types(alpha):
            coef = count * math.prod(c[s] for s in sizes)
            if sizes[-1] == 1 or coef == 0:
                continue
            g = math.fsum(pz * math.prod(power_sums[s] for s in sizes))
            term = math.exp(math.log(abs(coef)) + n * math.log(g))
            terms.append(term if coef > 0 else -term)
        return math.fsum(terms) / (alpha - 1)
    except OverflowError:
        raise GuardError(f"exact mean at n={n}, log2(m)={math.log2(m):.1f}, "
                         f"order {alpha} exceeds float range")


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


def r_prime_ascent_reference(p_u, ch_xu, ch_zx, a):
    """``rates._optimize_r_prime`` with every per-step constant re-derived in
    the step: the live rows of p(u,x), p(x|u) and p(u) and the mask w > 0
    are gathered, 1/c - 1 formed and np.errstate entered on every score
    and gap.  The ascent with hoisted constants must reproduce its value,
    tilt, iterations and gap bit for bit."""
    problem = _RPrimeProblem(p_u, ch_xu, ch_zx, a)

    def score(log_r):
        w = problem.w[problem.live]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.exp(log_r / problem.c) @ problem.k.T
            value = problem.c * np.sum(np.where(w > 0.0, w * np.log2(s), 0.0), axis=1)
            b = np.where(w > 0.0, problem.p_xu[problem.live] / s, 0.0) @ problem.k
            log_rho = np.where(b > 0.0, np.log(b) + (1.0 / problem.c - 1.0) * log_r, -np.inf)
        return value, log_rho

    def gap_of(log_rho):
        with np.errstate(over="ignore"):
            top = np.exp(log_rho.max(axis=1))
        return float(np.sum(problem.p_u[problem.live] * (top - 1.0))) / LN2

    def over_relax(log_r, log_rho, eta):
        step = log_r + eta * log_rho
        top = step.max(axis=1, keepdims=True)
        return step - (top + np.log(np.exp(step - top).sum(axis=1, keepdims=True)))

    with np.errstate(divide="ignore"):
        log_r = np.log(problem.p_xu[problem.live] @ problem.p_zx[0])
    value, log_rho = score(log_r)
    eta = np.ones((log_r.shape[0], 1))
    iterations = 0
    gap = gap_of(log_rho)
    while gap > TOL and iterations < MAX_ITER:
        cand = over_relax(log_r, log_rho, eta)
        cand_value, cand_rho = score(cand)
        back = ~(cand_value >= value)
        if np.any(eta[back] > 1.0):
            eta[back] = 1.0
            cand = over_relax(log_r, log_rho, eta)
            cand_value, cand_rho = score(cand)
        log_r, value, log_rho = cand, cand_value, cand_rho
        eta = np.minimum(2.0 * eta, 64.0)
        iterations += 1
        gap = gap_of(log_rho)
    t = problem.tilt(log_r)
    best = problem.exact_value(t)
    feas = problem.feasible_value()
    if best < feas:
        best, t = feas, np.array(problem.p_zx, dtype=float)
    return best, t, {"iterations": iterations, "gap": gap, "converged": gap <= TOL,
                     "feasible_value": feas}


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


def build_code_attempts_reference(members, m1, m2, seed, attempts):
    """The (m_label, f_label, empty cells) of each binning attempt of
    ``wiretap.build_code``, from a new philox_rng(seed, attempt) per attempt
    and a fresh (m1, m2) occupancy grid filled with np.add.at."""
    out = []
    for attempt in range(attempts):
        rng = philox_rng(seed, attempt)
        m_label = rng.integers(1, m1 + 1, size=members)
        f_label = rng.integers(1, m2 + 1, size=members)
        occupancy = np.zeros((m1, m2), dtype=np.int64)
        np.add.at(occupancy, (m_label - 1, f_label - 1), 1)
        out.append((m_label, f_label, int(np.sum(occupancy == 0))))
    return out


def leakage_target_reference(code, eve):
    """Uniform messages times the i.i.d. output law of the code's
    single-letter X marginal, shape (m1, k^n), as a read-only broadcast."""
    x_law = code.source.base
    if code.kind == "stochastic":
        x_law = Pmf(x_law.col_labels, x_law.col_marginal().probs)
    q = _kron_power(eve.output(x_law).probs, code.n) / code.m1
    return np.broadcast_to(q, (code.m1, q.size))


def dither_leakages_reference(code, eve, alpha, eve_rows):
    """``{f: (positions, restricted weights, leakage)}`` of every populated
    dither, in increasing f, one dither at a time: the weights from a 1-D
    logsumexp of the members' tilted log-probabilities, the (m1, k^n) table
    zero-filled and summed with np.add.at, and the one-shot tsallis_raw
    (d_infinity_raw at INFINITY) against uniform messages times the i.i.d.
    output law, reported as 0.0 within RESIDUE of it.  At the integer
    orders 2..5 the table's unoccupied rows are left out and added as
    :func:`f_sum_reference` adds omitted rows, the compact formula.
    ``eve_rows`` are the likelihood rows of every member.  The
    compact-table path of ``wiretap._dither_leakages`` must reproduce it
    bit for bit."""
    a = check_alpha(alpha)
    labeled = code.source.u_set if code.kind == "stochastic" else code.source
    target = leakage_target_reference(code, eve)
    out = {}
    for f in range(1, code.m2 + 1):
        pos = code.f_positions(f)
        if not pos.size:
            continue
        log_probs = labeled.log_probs[pos]
        weights = np.exp(log_probs - logsumexp(log_probs))
        table = np.zeros(target.shape)
        np.add.at(table, code.m_label[pos] - 1, weights[:, None] * eve_rows[pos])
        if math.isinf(a):
            value = d_infinity_raw(table, target)
        elif a in (2, 3, 4, 5):
            occupied = np.unique(code.m_label[pos] - 1)
            value = divergence_reference(table[occupied], target[occupied], a,
                                         omitted_rows=code.m1 - occupied.size)
        else:
            value = tsallis_raw(table, target, a)
        out[f] = (pos, weights, 0.0 if abs(value) < RESIDUE else value)
    return out


def select_f_reference(code, main, eve, alpha):
    """Full-scan dither selection: every populated dither's leakage and
    decoding error are scored, and ``(f_star, records)`` is returned with
    one LeakageRecord per f in order; f_star is the lowest f whose
    leakage + error_prob lies within RESIDUE of the minimum, and an empty
    dither's record reads (inf, 1.0).  Errors are scored from the full
    main table, rows over every member."""
    a = check_alpha(alpha)
    leakages = dither_leakages_reference(code, eve, a, _likelihood_rows(code.source, eve))
    main_rows = _likelihood_rows(code.source, main)
    scores = {f: (leak, _miss_kernel(code, pos, weights, main_rows[pos]))
              for f, (pos, weights, leak) in leakages.items()}
    best = min(leak + err for leak, err in scores.values())
    f_star = next(f for f, (leak, err) in scores.items() if leak + err <= best + RESIDUE)
    records = [LeakageRecord(f, a, *scores.get(f, (math.inf, 1.0)), code.n, code.seed)
               for f in range(1, code.m2 + 1)]
    return f_star, records


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


def divergence_reference(p, q, alpha, bits=True, omitted_rows=0):
    """Tsallis divergence of finite order (KL in nats within ALPHA_ONE_WINDOW
    of one) or, at alpha = inf, D_inf in bits or nats, from masked copies of
    the support: the one-shot formulas the divergence kernel must
    reproduce bit for bit.  Other orders than the integers 2..5 take
    :func:`logsumexp_reference`; those take :func:`f_sum_reference`, with
    ``omitted_rows`` zero rows of p left out (q's last axis is the row
    each of them omits)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if float(alpha).is_integer() and 2 <= alpha <= 5:
        return f_sum_reference(p, q, int(alpha), omitted_rows) / (alpha - 1.0)
    if np.array_equal(p, q):
        return 0.0
    p, q = np.ravel(p), np.ravel(q)
    pos = p > 0.0
    violated = bool(np.any(q[pos] == 0.0))
    if math.isinf(alpha):
        if violated:
            return math.inf
        ratio = float(np.max(p[pos] / q[pos]))
        if 1.0 - 4 * np.finfo(float).eps <= ratio < 1.0:
            ratio = 1.0
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


def f_sum_reference(p, q, alpha, omitted_rows=0):
    """(alpha - 1) T_alpha at an integer order alpha in 2..5 as the sum of
    the terms q d^2 P_alpha(d), d = (p - q)/q and P_alpha(d) the polynomial
    of the binomial coefficients C(alpha, j), j = 2..alpha, in Horner form,
    from fresh arrays: (p - q)^2 / q at order 2 and ((p - q) d) P_alpha(d)
    above, 0.0 where q = 0, all summed by one np.sum; inf where p > 0 = q.
    Each of the ``omitted_rows`` zero rows of p adds alpha - 1 times the
    exact sum of a row of q, the last axis, as P_alpha(-1) = alpha - 1."""
    row = np.reshape(q, (-1, np.shape(q)[-1]))[0]
    p, q = np.ravel(p), np.ravel(q)
    if np.any((p > 0.0) & (q == 0.0)):
        return math.inf
    ok = q > 0.0
    terms = np.zeros(p.size)
    diff = p[ok] - q[ok]
    with np.errstate(over="ignore"):
        if alpha == 2:
            terms[ok] = diff * diff / q[ok]
        else:
            d = diff / q[ok]
            poly = d + math.comb(alpha, alpha - 1)
            for j in range(alpha - 2, 1, -1):
                poly = poly * d + math.comb(alpha, j)
            terms[ok] = diff * d * poly
        return (float(np.sum(terms))
                + (omitted_rows * (alpha - 1.0)) * math.fsum(row.tolist()))


def f_divergence_fraction(p, q, alpha, omitted_rows=0):
    """T_alpha at an integer order alpha >= 2 in exact rational arithmetic
    from the float entries: the sum over cells of q ((1 + d)^alpha - 1 -
    alpha d) / (alpha - 1), d = (p - q)/q, plus the reference mass of
    ``omitted_rows`` zero rows of p (d = -1 gives exactly q), a row being
    q's last axis; a cell with q = 0 adds nothing, or makes it inf where
    p > 0.  Returned as a Fraction, or math.inf."""
    row = np.reshape(q, (-1, np.shape(q)[-1]))[0]
    total = Fraction(0)
    for pi, qi in zip(np.ravel(p).tolist(), np.ravel(q).tolist()):
        if qi == 0.0:
            if pi > 0.0:
                return math.inf
            continue
        pf, qf = Fraction(pi), Fraction(qi)
        d = (pf - qf) / qf
        total += qf * ((1 + d) ** alpha - 1 - alpha * d)
    return total / (alpha - 1) + omitted_rows * sum(map(Fraction, row.tolist()))


def near_equal_pairs(rng, count, spread=4e-16):
    """``count`` (p, q) pmf pairs on 2-6 letters: p ~ Dirichlet(1) and q = p
    with each entry scaled by 1 + u, |u| <= spread, divided by its sum
    and both normalized by Pmf, so q is within rounding of p at the
    default spread."""
    pairs = []
    for _ in range(count):
        k = int(rng.integers(2, 7))
        p = Pmf(tuple(f"s{i}" for i in range(k)), rng.dirichlet(np.ones(k)))
        q = p.probs * (1.0 + rng.uniform(-spread, spread, size=k))
        q = Pmf(p.labels, q / q.sum())
        pairs.append((p, q))
    return pairs


def aggregate_kron_reference(assignment, high, low, m):
    """Bin table of the joint ``high (x) low`` for a 1-based assignment, from
    a fresh one-hot and fresh GEMM outputs: the table that the buffered
    per-call kernel must reproduce bit for bit."""
    onehot = np.zeros((m, assignment.size))
    onehot[assignment - 1, np.arange(assignment.size)] = 1.0
    t = (onehot.reshape(-1, low.shape[0]) @ low).reshape(m, high.shape[0], -1)
    return np.matmul(high.T, t).reshape(m, -1)


def _divergence_of_induced(agg, pz, m, alpha):
    """One-shot divergence of the bin table P(b, z) from the uniform-bin
    reference (1/m) p(z): tsallis_raw, or d_infinity_raw in bits at
    INFINITY, against the broadcast reference."""
    ref = np.broadcast_to(pz / m, agg.shape)
    if math.isinf(alpha):
        return d_infinity_raw(agg, ref, bits=True)
    return tsallis_raw(agg, ref, alpha)


def enum_reference(j, n, m, alpha):
    """expected_divergence_enum one binning at a time: every assignment of
    the n-fold extension's rows to m bins, its table summed with np.add.at
    and scored by the one-shot :func:`_divergence_of_induced`, and the
    mean one ``math.fsum`` over the m^(k^n) binnings; GuardError past
    ENUM_GUARD binnings."""
    a = check_alpha(alpha)
    jn = j if n == 1 else j.product_power(n)
    items = jn.shape[0]
    if m > 1 and m ** items > ENUM_GUARD:
        raise GuardError(f"{m}^{items} binnings")
    pz = jn.probs.sum(axis=0)
    values = []
    for bins in itertools.product(range(m), repeat=items):
        table = np.zeros((m, pz.size))
        np.add.at(table, np.array(bins, dtype=np.int64), jn.probs)
        values.append(_divergence_of_induced(table, pz, m, a))
    return math.fsum(values) / m ** items


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


def counted_table_calls(monkeypatch, stacks=None):
    """Patch the divergence kernel's tables and call entries with wrappers
    that count the tables evaluated: ``batched`` those that ``tables``
    reduces together, ``call`` those that take the per-table call.  A copy
    of each stack handed to ``tables`` is appended to ``stacks`` when
    given.  Returns the count dict."""
    counts = {"batched": 0, "call": 0}
    tables, call = _DivergenceKernel.tables, _DivergenceKernel.__call__

    def counting_tables(self, p):
        if stacks is not None:
            stacks.append(p.copy())
        called = counts["call"]
        out = tables(self, p)
        counts["batched"] += p.shape[0] - (counts["call"] - called)
        return out

    def counting_call(self, p):
        counts["call"] += 1
        return call(self, p)

    monkeypatch.setattr(_DivergenceKernel, "tables", counting_tables)
    monkeypatch.setattr(_DivergenceKernel, "__call__", counting_call)
    return counts


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
