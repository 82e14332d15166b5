"""Achievable-rate thresholds for random binning and secrecy.

All thresholds and rates are reported in bits.  Encoder families:

* ``iid_deterministic``: binning of raw i.i.d. sequences; the threshold is
  the conditional Renyi entropy of the source given the side information
  (the conditional Shannon entropy for orders at or below one).
* ``typical_deterministic``: binning of a typical set pushed through a
  channel; the threshold is H(X) minus the mean Renyi divergence between
  the per-input output laws and the output marginal (orders above one and
  INFINITY only).
* ``stochastic``: an auxiliary variable U feeding X; the threshold is
  H(U) minus the value of a max-divergence optimization over smoothing
  channels t(z|u,x) (``r_prime``).

Negative secrecy rates are returned as computed, with a flag; callers
decide how to render them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    Channel,
    GuardError,
    JointPmf,
    LN2,
    Pmf,
    check_alpha,
    cond_renyi_entropy,
    conditional_entropy,
    mutual_information,
    renyi_divergence,
    shannon_entropy,
)

IID_DETERMINISTIC = "iid_deterministic"
TYPICAL_DETERMINISTIC = "typical_deterministic"
STOCHASTIC = "stochastic"

ALPHABET_GUARD = 8  # optimizer problems are desk-scale
MAX_ITER = 500      # r' ascent steps before the solve is flagged unconverged
TOL = 1e-9          # certified gap (bits) at which the r' ascent stops
ORDER_ONE_TOL = 1e-9  # orders within this of 1 take the order-one branch


@dataclass(frozen=True)
class RateReport:
    """A threshold or rate with its named components and caveat flags."""

    alpha: float
    encoder: str
    rate_bits: float
    components: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    optimizer_trace: dict | None = None

    def to_dict(self) -> dict:
        doc = {
            "alpha": "inf" if math.isinf(self.alpha) else self.alpha,
            "encoder": self.encoder,
            "rate_bits": self.rate_bits,
            "components": dict(self.components),
            "flags": list(self.flags),
        }
        if self.optimizer_trace is not None:
            doc["optimizer_trace"] = dict(self.optimizer_trace)
        return doc


def _above_one(a: float) -> bool:
    """True for INFINITY and for finite orders past the order-one window,
    which holds the orders with |a - 1| <= ORDER_ONE_TOL."""
    return a - 1.0 > ORDER_ONE_TOL


def osrb_threshold_iid(j: JointPmf, alpha) -> RateReport:
    """Max binning rate with vanishing divergence, i.i.d. encoder."""
    a = check_alpha(alpha)
    if math.isinf(a) or a > 1.0:
        value = cond_renyi_entropy(j, a)
        label = "cond_renyi_entropy"
    else:
        value = conditional_entropy(j)
        label = "cond_shannon_entropy"
    return RateReport(a, IID_DETERMINISTIC, value, {label: value})


def _mean_output_divergence(p_x: Pmf, ch: Channel, a: float) -> tuple[float, bool]:
    """sum_x p(x) D_a(p(z|x) || p(z)) in bits; True flags an infinite term."""
    out = ch.output(p_x)
    terms = []
    infinite = False
    for i, w in enumerate(p_x.probs):
        if w <= 0.0:
            continue
        d = renyi_divergence(Pmf(ch.out_labels, ch.rows[i]), out, a, bits=True)
        if math.isinf(d):
            infinite = True
        terms.append(w * d)
    return math.fsum(terms) if not infinite else math.inf, infinite


def osrb_threshold_typical(p_x: Pmf, ch: Channel, alpha) -> RateReport:
    """Typical-set encoder threshold H(X) - mean output divergence.

    Defined for orders above one and INFINITY.  A support violation in
    any divergence term drives the threshold to -inf, flagged.
    """
    a = check_alpha(alpha)
    if not _above_one(a):
        raise ValueError("typical-set threshold needs order > 1 or INFINITY")
    hx = shannon_entropy(p_x)
    mean_div, infinite = _mean_output_divergence(p_x, ch, a)
    flags = ("support_violation",) if infinite else ()
    value = -math.inf if infinite else hx - mean_div
    return RateReport(a, TYPICAL_DETERMINISTIC, value,
                      {"H(X)": hx, "mean_output_divergence": mean_div}, flags)


# ---------------------------------------------------------------------------
# The smoothing-channel optimization


def _alpha_coeff(a: float) -> float:
    if not _above_one(a):
        raise ValueError("r_prime needs order > 1 or INFINITY")
    return 1.0 if math.isinf(a) else a / (a - 1.0)


class _RPrimeProblem:
    """The smoothing objective F(t) and the concave G(r) it reduces to.

    ``exact_value`` is F(t) = -c D(t || p(z|x) | p(u,x)) + D(t-bar || p(z) | p(u))
    in bits with the true support semantics.  With D(P || Q) =
    max_R sum P log(R/Q) on the gain term, the best t for a fixed r(z|u) is
    t*(z|u,x) ~ p(z|x) (r(z|u)/p(z))^(1/c), so max F = max_r G(r) with
    G(r) = c sum_{u,x} p(u,x) log2 sum_z p(z|x) (r(z|u)/p(z))^(1/c), and
    F(t*(r)) >= G(r).  G is concave for c >= 1 and one term per u.  The
    gradient is dG/dr(z|u) = p(u) rho(z|u) / ln 2 with rho = r-next / r,
    r-next = sum_x p(x|u) t* the Blahut-Arimoto update; ``score`` forms rho
    from the gradient, so an r(z|u) = 0 gets rho = +inf when c > 1.  By
    concavity sum_u p(u) (max_z rho - 1) / ln 2 bounds max G - G(r).
    """

    def __init__(self, p_u: Pmf, ch_xu: Channel, ch_zx: Channel, a: float):
        if p_u.labels != ch_xu.in_labels:
            raise ValueError("p_u alphabet must match the U->X channel input")
        if ch_xu.out_labels != ch_zx.in_labels:
            raise ValueError("U->X output must match the X->Z channel input")
        nu, nx, nz = p_u.size, len(ch_xu.out_labels), len(ch_zx.out_labels)
        if max(nu, nx, nz) > ALPHABET_GUARD:
            raise GuardError("optimizer alphabets capped at size 8")
        self.c = _alpha_coeff(a)
        self.p_u = p_u.probs
        self.p_xu = ch_xu.rows                      # p(x|u), shape (nu, nx)
        self.w = p_u.probs[:, None] * ch_xu.rows    # p(u, x)
        self.p_zx = np.broadcast_to(ch_zx.rows[None, :, :], (nu, nx, nz))
        p_x = self.w.sum(axis=0)
        self.p_z = p_x @ ch_zx.rows
        with np.errstate(divide="ignore"):
            self.log2_pzx = np.log2(self.p_zx)
            self.log2_pz = np.log2(self.p_z)
            scale = np.where(self.p_z > 0.0, self.p_z ** (-1.0 / self.c), 0.0)
        self.k = ch_zx.rows * scale                 # p(z|x) p(z)^(-1/c), 0 off supp p(z)
        self.live = self.p_u > 0.0                  # the ascent's u rows
        # the ascent's constants, restricted to the live u rows
        self.w_live = self.w[self.live]
        self.w_pos = self.w_live > 0.0
        self.p_xu_live = self.p_xu[self.live]
        self.k_t = self.k.T
        self.p_u_live = self.p_u[self.live]
        self.rho_exp = 1.0 / self.c - 1.0           # exponent of r in rho

    def exact_value(self, t: np.ndarray) -> float:
        if np.any((t > 0.0) & (self.p_zx == 0.0)):
            return -math.inf
        with np.errstate(divide="ignore"):
            log2_t = np.where(t > 0.0, np.log2(np.where(t > 0.0, t, 1.0)), 0.0)
        d1 = float(np.sum(self.w[:, :, None] * t * np.where(t > 0.0, log2_t - self.log2_pzx, 0.0)))
        tbar = np.einsum("ux,uxz->uz", self.p_xu, t)
        pos = tbar > 0.0
        if np.any(pos & (np.broadcast_to(self.p_z, tbar.shape) == 0.0)):
            return math.inf  # gain term blows up, cannot happen for valid t
        log2_tbar = np.where(pos, np.log2(np.where(pos, tbar, 1.0)), 0.0)
        d2 = float(np.sum(self.p_u[:, None] * tbar * np.where(pos, log2_tbar - self.log2_pz, 0.0)))
        return -self.c * d1 + d2

    def feasible_value(self) -> float:
        """Objective at t = p(z|x): the mutual information I(U;Z)."""
        return self.exact_value(np.array(self.p_zx, dtype=float))

    # start, score and gap run under the ascent's np.errstate, which ignores
    # division by zero, invalid operations and overflow

    def start(self) -> np.ndarray:
        """log r for r = p(z|u), whose t* scores at least I(U;Z)."""
        return np.log(self.p_xu_live @ self.p_zx[0])

    def score(self, log_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The per-u terms of G(r) in bits, and log rho (-inf off supp p(z|u))."""
        s = np.exp(log_r / self.c) @ self.k_t
        value = self.c * np.add.reduce(np.where(self.w_pos, self.w_live * np.log2(s), 0.0), axis=1)
        b = np.where(self.w_pos, self.p_xu_live / s, 0.0) @ self.k
        log_rho = np.where(b > 0.0, np.log(b) + self.rho_exp * log_r, -np.inf)
        return value, log_rho

    def gap(self, log_rho: np.ndarray) -> float:
        """Frank-Wolfe bound on max G - G(r), in bits."""
        top = np.exp(np.maximum.reduce(log_rho, axis=1))
        return float(np.add.reduce(self.p_u_live * (top - 1.0))) / LN2

    def tilt(self, log_r: np.ndarray) -> np.ndarray:
        """t*(z|u,x) for r; rows that t* leaves empty keep p(z|x)."""
        t = np.array(self.p_zx, dtype=float)
        q = np.exp(log_r / self.c)[:, None, :] * self.k[None, :, :]
        total = q.sum(axis=2, keepdims=True)
        with np.errstate(invalid="ignore"):
            t[self.live] = np.where(total > 0.0, q / total, t[self.live])
        return t


def _over_relax(log_r: np.ndarray, log_rho: np.ndarray, eta) -> np.ndarray:
    """log of r rho^eta renormalized over z; eta = 1 is the Blahut-Arimoto
    update r <- sum_x p(x|u) t*."""
    step = log_r + eta * log_rho
    top = np.maximum.reduce(step, axis=1, keepdims=True)
    return step - (top + np.log(np.add.reduce(np.exp(step - top), axis=1, keepdims=True)))


def _optimize_r_prime(p_u, ch_xu, ch_zx, a):
    """Over-relaxed Blahut-Arimoto ascent on G(r) from r = p(z|u).

    A step takes r(.|u) to r rho^eta, renormalized.  Each u doubles its eta
    after each step, up to 64; a step that would lower its term of G is
    replaced by the eta = 1 step, which never does.  Stops once the gap is
    at most ``TOL`` or after ``MAX_ITER`` steps.
    """
    problem = _RPrimeProblem(p_u, ch_xu, ch_zx, a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_r = problem.start()
        value, log_rho = problem.score(log_r)
        eta = np.ones((log_r.shape[0], 1))
        iterations = 0
        gap = problem.gap(log_rho)
        while gap > TOL and iterations < MAX_ITER:
            cand = _over_relax(log_r, log_rho, eta)
            cand_value, cand_rho = problem.score(cand)
            back = ~(cand_value >= value)
            if np.any(eta[back] > 1.0):  # the u terms are independent: redo those rows at eta = 1
                eta[back] = 1.0
                cand = _over_relax(log_r, log_rho, eta)
                cand_value, cand_rho = problem.score(cand)
            log_r, value, log_rho = cand, cand_value, cand_rho
            eta = np.minimum(2.0 * eta, 64.0)
            iterations += 1
            gap = problem.gap(log_rho)
    t = problem.tilt(log_r)
    best = problem.exact_value(t)
    feas = problem.feasible_value()
    if best < feas:  # never report below the feasible point t = p(z|x)
        best, t = feas, np.array(problem.p_zx, dtype=float)
    t.setflags(write=False)
    trace = {"iterations": iterations, "gap": gap, "converged": gap <= TOL,
             "feasible_value": feas}
    return best, t, trace


def r_prime(p_u: Pmf, ch_xu: Channel, ch_zx: Channel, alpha) -> tuple[float, np.ndarray]:
    """Best value of the smoothing-channel objective and its argmax.

    Maximizes ``-c D(t(z|u,x) || p(z|x) | p(u,x)) + D(t(z|u) || p(z) | p(u))``
    over channels t, where c = alpha/(alpha-1) for finite orders above one
    and c = 1 at INFINITY.  The maximum is that of a concave function of
    r(z|u) (see ``_RPrimeProblem``), so one deterministic ascent reaches it;
    it stops once its certified gap to the maximum is at most ``TOL`` bits,
    or after ``MAX_ITER`` steps.  The argmax comes back as a read-only
    (|U|, |X|, |Z|) array t[u, x, z]; it scores the returned value, which is
    never below I(U;Z).
    """
    a = check_alpha(alpha)
    value, tilt, _ = _optimize_r_prime(p_u, ch_xu, ch_zx, a)
    return value, tilt


def osrb_threshold_stochastic(p_u: Pmf, ch_xu: Channel, ch_zx: Channel, alpha) -> RateReport:
    """Stochastic-encoder binning threshold H(U) - r_prime; flagged
    ``optimizer_not_converged`` when r_prime's gap is above ``TOL`` at ``MAX_ITER``."""
    a = check_alpha(alpha)
    hu = shannon_entropy(p_u)
    value, _, trace = _optimize_r_prime(p_u, ch_xu, ch_zx, a)
    flags = () if trace["converged"] else ("optimizer_not_converged",)
    return RateReport(a, STOCHASTIC, hu - value,
                      {"H(U)": hu, "r_prime": value,
                       "I(U;Z)": trace["feasible_value"]},
                      flags, trace)


# ---------------------------------------------------------------------------
# Secrecy rates


def secrecy_rate(main: Channel, eve: Channel, source, alpha,
                 encoder: str = "deterministic") -> RateReport:
    """Achievable secrecy rate of a wiretap pair under a leakage order.

    ``source`` is the input Pmf for the deterministic encoder, or a
    ``(p_u, ch_xu)`` pair for the stochastic one.  Deterministic branches:
    order one gives I(X;Y) - I(X;Z); orders in (0,1) give H(X|Z) - H(X|Y);
    orders above one (and INFINITY) give I(X;Y) minus the mean output
    divergence of the eavesdropper channel.  The stochastic branch gives
    I(U;Y) - r_prime and needs order > 1 or INFINITY; its r_prime solve
    is flagged as in ``osrb_threshold_stochastic``.
    """
    a = check_alpha(alpha)
    if encoder == "deterministic":
        if not isinstance(source, Pmf):
            raise ValueError("deterministic encoder needs an input Pmf")
        p_x = source
        jm = main.joint(p_x)
        ixy = mutual_information(jm)
        comps = {"I(X;Y)": ixy}
        if _above_one(a):
            leak, infinite = _mean_output_divergence(p_x, eve, a)
            value = -math.inf if infinite else ixy - leak
            comps["eve_mean_divergence"] = leak
            flags = ["support_violation"] if infinite else []
        elif abs(a - 1.0) <= ORDER_ONE_TOL:
            ixz = mutual_information(eve.joint(p_x))
            value = ixy - ixz
            comps["I(X;Z)"] = ixz
            flags = []
        else:
            hxz = conditional_entropy(eve.joint(p_x))
            hxy = conditional_entropy(jm)
            value = hxz - hxy
            comps.update({"H(X|Z)": hxz, "H(X|Y)": hxy})
            flags = []
        if value < 0.0:
            flags.append("negative_rate")
        return RateReport(a, "deterministic", value, comps, tuple(flags))

    if encoder == "stochastic":
        try:
            p_u, ch_xu = source
        except (TypeError, ValueError):
            raise ValueError("stochastic encoder needs (p_u, ch_xu)")
        if not _above_one(a):
            raise ValueError("stochastic secrecy rate needs order > 1 or INFINITY")
        if p_u.size > len(ch_xu.out_labels) + 1:
            raise GuardError("auxiliary alphabet larger than |X| + 1")
        ch_uy = ch_xu.then(main)
        iuy = mutual_information(ch_uy.joint(p_u).swapped())
        value, _, trace = _optimize_r_prime(p_u, ch_xu, eve, a)
        flags = [] if trace["converged"] else ["optimizer_not_converged"]
        rate = iuy - value
        if rate < 0.0:
            flags.append("negative_rate")
        return RateReport(a, "stochastic", rate,
                          {"I(U;Y)": iuy, "r_prime": value,
                           "I(U;Z)": trace["feasible_value"]},
                          tuple(flags), trace)

    raise ValueError(f"unknown encoder kind {encoder!r}")


def dinf_one_shot_bound(j: JointPmf, m: int) -> tuple[float, bool]:
    """One-shot bound on the expected max-log-ratio divergence.

    Returns ``(2 sqrt(m log2(m |Z|) 2^(-H_inf)), ok)`` where ``ok`` says
    whether the side condition (the radicand below one) holds; the bound
    is only claimed when it does.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    h_inf = cond_renyi_entropy(j, math.inf)
    radicand = m * math.log2(m * j.shape[1]) * 2.0 ** (-h_inf)
    return 2.0 * math.sqrt(max(radicand, 0.0)), radicand < 1.0
