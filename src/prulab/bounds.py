"""Closed-form cardinality/entropy bound calculators.

Support-size lower bounds for approximate designs, oracle input-length
bounds, the trivial scalable construction's parameter arithmetic, and the
scalability predicate.  Everything is evaluated in log-space; the tests
cross-check it against exact big-integer values at desk scale.
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


def prior_support_bound(d: int, t: int, delta: float, as_log: bool = False) -> float:
    """max{ (1-delta) C(d+t-1, t)^2, d^{2t} / ((1+delta) t!) }.

    Natural-log value with ``as_log``; the plain value may overflow to inf
    for large parameters.
    """
    check_dimension(d)
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    if t < 0:
        raise ValueError("t must be nonnegative")
    log_b2 = -math.log1p(delta) + 2 * t * math.log(d) - math.lgamma(t + 1)
    if delta >= 1.0:
        log_best = log_b2
    else:
        log_b1 = math.log1p(-delta) + 2 * _log_binom(t, d - 1)
        log_best = max(log_b1, log_b2)
    return log_best if as_log else _safe_exp(log_best)


def improved_support_bound(d: int, t: float, delta: float, c_design: float = 1.0,
                           as_log: bool = False) -> float:
    """((2-2delta)/(3+delta)) (c_design t / (d^2 ln(4/(1-delta))))^((d^2-1)/2).

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
    if sys.float_info.min <= ratio <= sys.float_info.max:
        log_ratio = math.log(ratio)
    else:  # the ratio left the normal float range; its log did not
        log_ratio = math.log(c_design) + math.log(t) - math.log(denom)
    log_val = pref + 0.5 * (d * d - 1) * log_ratio
    return log_val if as_log else _safe_exp(log_val)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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

    m_design_1 = log2 t + loglog2(d^2/t) - slack        (regime 0 < t < d^2)
    m_design_2 = 2 log2 d + loglog2(t/d^2) - slack      (regime t > d^2)
    m_net      = 2 log2 d + loglog2(1/epsilon) - slack

    Valid for 0 <= delta < 1, as for `improved_support_bound`.  The paper
    proves m_design_2 only for a design error delta whose advantage
    1 - delta stays bounded away from 0; it is reported whenever t > d^2,
    and holding that precondition is the caller's part.
    """
    check_dimension(d)
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    notes: dict = {}

    def loglog2(x: float) -> float | None:
        if x <= 1.0:
            return None
        return math.log2(math.log2(x))

    m1 = None
    v = loglog2(d * d / t) if t > 0 else None
    if v is None:
        notes["m_design_1"] = ("undefined: needs 0 < t < d^2" if t <= 0
                               else "undefined: needs t < d^2")
    else:
        m1 = math.log2(t) + v - additive_slack

    m2 = None
    v = loglog2(t / (d * d)) if t > 0 else None
    if v is None:
        notes["m_design_2"] = "undefined: needs t > d^2"
    else:
        m2 = 2 * math.log2(d) + v - additive_slack

    m3 = None
    if epsilon <= 0:
        notes["m_net"] = "undefined: epsilon must be positive"
    else:
        v = loglog2(1.0 / epsilon)
        if v is None:
            notes["m_net"] = "undefined: needs epsilon < 1"
        else:
            m3 = 2 * math.log2(d) + v - additive_slack

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
        alpha_ok=p.alpha_impl <= 2.0 ** (-p.kappa),
        # t >= 2^kappa iff t's binary exponent exceeds kappa; 2.0**kappa
        # overflows from kappa = 1024 on
        queries_ok=math.frexp(p.t)[1] > p.kappa,
        advantage_ok=p.delta <= 2.0 ** (-p.kappa),
        qm=qm,
        qm_budget=budget,
        induced_design_t=p.t,
        induced_design_delta=p.delta,
    )
