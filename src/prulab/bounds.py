"""Closed-form cardinality/entropy bound calculators.

Support-size lower bounds for approximate designs, the epsilon-net
cardinality bound, oracle input-length bounds, the trivial scalable
construction's parameter arithmetic, and the scalability predicate.  Every
cardinality bound returns its natural log, computed from the logs of its
inputs; the tests cross-check it against exact big-integer values at desk
scale and against mpmath.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

#: trivial_rompru_params needs kappa below this, so that t = 2^kappa is a
#: finite float
KAPPA_LIMIT = sys.float_info.max_exp

#: every calculator needs 2 <= d <= D_LIMIT: d^2 then stays below 2^1000,
#: which leaves float range for the factors the formulas multiply it by
D_LIMIT = 2**500


def check_dimension(d: int) -> None:
    """Raise ValueError unless 2 <= d <= D_LIMIT."""
    if not 2 <= d <= D_LIMIT:
        raise ValueError(f"d must be an integer from 2 to 2^500, got {d}")


def _log_binom(t: int, k: int) -> float:
    """log C(t + k, k) for integers t, k >= 0, to about 1e-16 relative.

    C(t + k, k) = prod_{j <= small} (1 + big/j), whose logs `fsum` adds
    when there are at most 64 of them.  Otherwise Stirling's series for the
    three factorials, in log1p form so that no two large terms cancel, with
    its 1/12, -1/360 and 1/1260 corrections; the first term left out,
    1/(1680 x^7), is below 2e-16 for every argument x > 64.  A difference
    of lgammas, or scipy's betaln, loses digits once t + k is large.
    """
    small, big = sorted((t, k))
    if small <= 64:
        return math.fsum(math.log1p(big / j) for j in range(1, small + 1))

    def corr(x: int) -> float:
        y = 1.0 / x
        return y * (1 / 12 - y * y * (1 / 360 - y * y / 1260))

    return math.fsum((t * math.log1p(k / t), k * math.log1p(t / k),
                      0.5 * (math.log(t + k) - math.log(2 * math.pi) - math.log(t) - math.log(k)),
                      corr(t + k), -corr(t), -corr(k)))


def log_prior_support_bound(d: int, t: int, delta: float) -> float:
    """ln max{ (1-delta) C(d+t-1, t)^2, d^{2t} / ((1+delta) t!) }.

    The second branch is evaluated from float(t); where ln t! leaves float
    range (t > 2.5e305), in Stirling's form t (2 ln d - ln t + 1) -
    ln(2 pi t)/2, to within 1/(12 t).  A result below float range is -inf.
    """
    check_dimension(d)
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    if t < 0:
        raise ValueError("t must be nonnegative")
    tf = float(t)
    try:
        log_b2 = -math.log1p(delta) + 2 * tf * math.log(d) - math.lgamma(tf + 1)
    except OverflowError:  # ln t! left float range
        log_b2 = (tf * (2 * math.log(d) - math.log(tf) + 1)
                  - 0.5 * (math.log(2 * math.pi) + math.log(tf)) - math.log1p(delta))
    if delta >= 1.0:
        return log_b2
    return max(math.log1p(-delta) + 2 * _log_binom(t, d - 1), log_b2)


def log_improved_support_bound(d: int, t: float, delta: float, c_design: float = 1.0) -> float:
    """ln of ((2-2delta)/(3+delta)) (c_design t / (d^2 ln(4/(1-delta))))^((d^2-1)/2).

    Valid for 0 <= delta < 1; the unspecified constant enters linearly in
    the base.
    """
    check_dimension(d)
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must be in [0, 1)")
    if t <= 0 or c_design <= 0:
        raise ValueError("t and c_design must be positive")
    pref = math.log(2.0 - 2.0 * delta) - math.log(3.0 + delta)
    denom = d * d * math.log(4.0 / (1.0 - delta))
    ratio = c_design * t / denom
    if sys.float_info.min <= ratio <= sys.float_info.max:  # one rounding of the ratio
        log_ratio = math.log(ratio)
    else:  # the ratio left the normal float range; its log did not
        log_ratio = math.log(c_design) + math.log(t) - math.log(denom)
    return pref + 0.5 * (d * d - 1) * log_ratio


def log_net_size_lower_bound(d: int, eps: float, eta: float, c_diamond: float = 1.0) -> float:
    """ln of the ball-volume cardinality bound for an (eps, eta)-net,
    (1 - eta) (c_diamond / eps)^(d^2 - 1); -inf at eta = 1.

    The universal ball-volume constant is caller-supplied; its true value
    is open, the default 1 is a placeholder.
    """
    check_dimension(d)
    if eps <= 0 or c_diamond <= 0:
        raise ValueError("eps and c_diamond must be positive")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    log_keep = math.log1p(-eta) if eta < 1.0 else -math.inf
    return log_keep + (d * d - 1) * (math.log(c_diamond) - math.log(eps))


@dataclass
class InputLengthBounds:
    """Oracle input-length lower bounds; None marks an out-of-regime formula."""

    m_design_1: float | None
    m_design_2: float | None
    m_net: float | None
    regime_notes: dict


def rom_input_length_bounds(d: int, t: float, delta: float, epsilon: float,
                            additive_slack: float = 1.0) -> InputLengthBounds:
    """Input-length lower bounds for implementing designs/nets from one
    binary oracle.

    m_design_1 = log2 t + log2(log2(d^2/t)) - slack     (regime 0 < t < d^2)
    m_design_2 = 2 log2 d + log2(log2(t/d^2)) - slack   (regime t > d^2)
    m_net      = 2 log2 d + log2(log2(1/epsilon)) - slack

    Each is computed from 2 log2 d, log2 t and -log2 epsilon, so no ratio
    leaves float range, but from the exact d^2/t - 1 within a factor 2 of
    d^2, where those logs cancel; the regimes compare t with d^2 exactly.
    Valid for 0 <= delta < 1, as for `log_improved_support_bound`.  The
    paper proves m_design_2 only for a design error delta whose advantage
    1 - delta stays bounded away from 0; it is reported whenever t > d^2,
    and holding that precondition is the caller's part.
    """
    check_dimension(d)
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    notes: dict = {}
    m1 = m2 = m3 = None
    log2_d2 = 2 * math.log2(d)
    if t > 0:
        log2_t = math.log2(t)
        gap = log2_d2 - log2_t  # log2(d^2/t)
        if abs(gap) < 1:
            p, q = t.as_integer_ratio()
            gap = math.log1p((d * d * q - p) / p) / math.log(2)
    if 0 < t < d * d:
        m1 = log2_t + math.log2(gap) - additive_slack
    else:
        notes["m_design_1"] = "undefined: needs t < d^2" if t > 0 else "undefined: needs 0 < t < d^2"
    if t > d * d:
        m2 = log2_d2 + math.log2(-gap) - additive_slack
    else:
        notes["m_design_2"] = "undefined: needs t > d^2"

    if epsilon <= 0:
        notes["m_net"] = "undefined: epsilon must be positive"
    elif epsilon >= 1:
        notes["m_net"] = "undefined: needs epsilon < 1"
    else:
        m3 = log2_d2 + math.log2(-math.log2(epsilon)) - additive_slack

    return InputLengthBounds(m1, m2, m3, notes)


@dataclass
class TrivialRomPruParams:
    """Parameter arithmetic of the exact-design lookup construction.

    The oracle stores the index of one element of an exact design of
    support size C(d^2+t-1, d^2-1)^2 with t = 2^kappa; the implementation
    reads that index bit by bit, so q = log2(support) and m = log2 q.
    Scalable in security but with q growing like d^2 kappa, not
    polylog(d).
    """

    d: int
    kappa: int
    t: int
    support_size_log2: float
    q: float
    m: float
    q_upper: float


def trivial_rompru_params(d: int, kappa: int) -> TrivialRomPruParams:
    """Evaluate the trivial construction at t = 2^kappa; 0 <= kappa < KAPPA_LIMIT."""
    check_dimension(d)
    if kappa < 0:
        raise ValueError("need kappa >= 0")
    if kappa >= KAPPA_LIMIT:
        raise ValueError(f"need kappa < {KAPPA_LIMIT}, so that t = 2^kappa is a finite float")
    t = 1 << kappa
    k = d * d - 1
    log2_support = 2 * _log_binom(t, k) / math.log(2)
    q = log2_support
    m = math.log2(q) if q > 0 else 0.0
    q_upper = 2 * k * math.log2(math.e * ((k + t) / k))
    return TrivialRomPruParams(d, kappa, t, log2_support, q, m, q_upper)


@dataclass(frozen=True)
class RomPruParams:
    """One point in ROM-PRU parameter space."""

    d: int
    kappa: int
    q: float
    m: float
    alpha_impl: float
    t: float
    delta: float

    def __post_init__(self):
        check_dimension(self.d)
        for name in ("kappa", "q", "m", "alpha_impl", "t", "delta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class ScalableCheckReport:
    """Itemized scalability predicate plus the induced design record: the
    construction is an (induced_design_t, induced_design_delta)-diamond-design."""

    efficiency_ok: bool
    alpha_ok: bool
    queries_ok: bool
    advantage_ok: bool
    qm: float
    qm_budget: float
    induced_design_t: float
    induced_design_delta: float
    passes: bool = field(init=False)

    def __post_init__(self):
        self.passes = self.efficiency_ok and self.alpha_ok and self.queries_ok and self.advantage_ok


def scalable_check(p: RomPruParams, poly_budget: float = 2.0) -> ScalableCheckReport:
    """Fixed-scale reading of the scalability definition.

    Efficiency is checked as q m <= (log2(d) kappa)^poly_budget, the
    polynomial cap standing in for poly(log d, kappa); the security items
    are alpha <= 2^-kappa, t >= 2^kappa and delta <= 2^-kappa.  The
    security parameters always induce a (t, delta)-diamond-design record.
    """
    qm = p.q * p.m
    try:
        budget = (math.log2(p.d) * p.kappa) ** poly_budget
    except (OverflowError, ZeroDivisionError):  # beyond floats, or 0 ** negative
        budget = math.inf
    return ScalableCheckReport(
        efficiency_ok=qm <= budget,
        # ldexp(1, -kappa) is 2.0**-kappa wherever that is defined, and 0.0,
        # as exact for a float comparison, from kappa = 2^1024 on, where
        # 2.0**-kappa cannot convert kappa to a float and raises
        alpha_ok=p.alpha_impl <= math.ldexp(1.0, -p.kappa),
        # t >= 2^kappa iff t's binary exponent exceeds kappa; 2.0**kappa
        # overflows from kappa = 1024 on
        queries_ok=math.frexp(p.t)[1] > p.kappa,
        advantage_ok=p.delta <= math.ldexp(1.0, -p.kappa),
        qm=qm,
        qm_budget=budget,
        induced_design_t=p.t,
        induced_design_delta=p.delta,
    )
