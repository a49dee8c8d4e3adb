import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    mp_log_improved_support_bound,
    mp_log_net_size_lower_bound,
    mp_log_prior_support_bound,
    mp_rom_input_length_bounds,
    prior_support_bound_exact,
)
from prulab.bounds import (
    D_LIMIT,
    KAPPA_LIMIT,
    RomPruParams,
    log_improved_support_bound,
    log_net_size_lower_bound,
    log_prior_support_bound,
    rom_input_length_bounds,
    scalable_check,
    trivial_rompru_params,
)


class TestPriorSupportBound:
    def test_pauli_point(self):
        assert log_prior_support_bound(2, 1, 0.0) == pytest.approx(math.log(4.0))

    def test_arithmetic_example(self):
        assert log_prior_support_bound(4, 3, 0.0) == pytest.approx(math.log(4**6 / 6), rel=1e-12)

    def test_delta_one_keeps_second_branch(self):
        v = log_prior_support_bound(3, 2, 1.0)
        assert v == pytest.approx(math.log(3**4 / (2 * 2)))

    def test_log_matches_exact_on_grid(self):
        worst = 0.0
        for d in (2, 3, 4):
            for t in range(1, 21):
                for delta in (0.0, 0.25, 0.5):
                    approx = math.exp(log_prior_support_bound(d, t, delta))
                    exact = float(prior_support_bound_exact(d, t, Fraction(delta)))
                    worst = max(worst, abs(approx - exact) / exact)
        assert worst < 1e-9

    @pytest.mark.parametrize("d, t", [(1000, 10**15), (4, 10**6), (66, 10**6), (65, 10**8)])
    def test_log_binomial_keeps_its_digits(self, d, t):
        # the binomial branch wins at t >> d; a difference of lgammas was off
        # in the 4th digit at d = 1000, t = 1e15
        exact = 2 * math.log(math.comb(d + t - 1, t))
        assert log_prior_support_bound(d, t, 0.0) == pytest.approx(exact, rel=1e-15)

    def test_log_space_no_overflow(self):
        v = log_prior_support_bound(64, 10_000, 0.1)
        assert math.isfinite(v) and v > 0

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            log_prior_support_bound(2, 1, -0.1)


class TestImprovedSupportBound:
    def test_magic_t_closed_form(self):
        d = 2
        t = d * d * math.log(4.0) * math.e
        assert log_improved_support_bound(d, t, 0.0, 1.0) == pytest.approx(
            math.log(2 / 3) + 1.5)

    def test_prefactor_vanishes_near_delta_one(self):
        lo = log_improved_support_bound(2, 100.0, 0.999, 1.0)
        hi = log_improved_support_bound(2, 100.0, 0.5, 1.0)
        assert lo < hi

    @given(st.integers(2, 5), st.floats(1.0, 1e5), st.floats(1.1, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_t(self, d, t, factor):
        a = log_improved_support_bound(d, t, 0.0)
        b = log_improved_support_bound(d, t * factor, 0.0)
        assert b > a

    def test_constant_scales_base(self):
        a = log_improved_support_bound(2, 50.0, 0.0, 1.0)
        b = log_improved_support_bound(2, 25.0, 0.0, 2.0)
        assert a == pytest.approx(b)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_improved_support_bound(2, 10.0, 1.0)

    @pytest.mark.parametrize("t, c_design, shift", [
        (5e-324, 1.0, 600), (1e-300, 1e-30, 600), (1e-310, 1.0, 100), (1e300, 1e300, -1000)])
    def test_ratio_past_float_range(self, t, c_design, shift):
        # c_design t / denom underflows (or is subnormal) or overflows; the
        # log must still be linear in log t: scaling t by 2^shift lands in
        # the normal range and adds (d^2 - 1)/2 shift ln 2.  The plain value
        # is the CLI's to form (test_cli's test_plain_value_is_the_exp_of_the_log)
        d = 3
        far = log_improved_support_bound(d, t, 0.0, c_design)
        near = log_improved_support_bound(d, math.ldexp(t, shift), 0.0, c_design)
        assert math.isfinite(near)
        assert far == pytest.approx(near - 0.5 * (d * d - 1) * shift * math.log(2), rel=1e-12)


class TestDominationCrossover:
    def test_improved_beats_prior_large_d_grid(self):
        # with the placeholder constant 1 the crossover of the two bounds
        # sits near d = 16 at t = 4 d^2 ln 4; scan from there up
        for d in (16, 18, 20):
            t0 = 4 * d * d * math.log(4.0)
            for mult in (1.0, 2.0, 4.0):
                t = math.ceil(t0 * mult)
                imp = log_improved_support_bound(d, t, 0.0, 1.0)
                pri = log_prior_support_bound(d, t, 0.0)
                assert imp > pri


class TestRomInputLength:
    def test_t_equals_d_regime(self):
        d = 1 << 10
        r = rom_input_length_bounds(d, d, 0.1, 0.01, additive_slack=0.0)
        assert r.m_design_1 == pytest.approx(math.log2(d) + math.log2(math.log2(d)))

    def test_boundary_t_equals_d_squared(self):
        r = rom_input_length_bounds(16, 256.0, 0.1, 0.01)
        assert r.m_design_1 is None and r.m_design_2 is None
        assert "m_design_1" in r.regime_notes and "m_design_2" in r.regime_notes

    @pytest.mark.parametrize("d, t, note", [
        (2, 0.0, "undefined: needs 0 < t < d^2"),
        (2, 4.0, "undefined: needs t < d^2"),
        (16, 300.0, "undefined: needs t < d^2"),
    ], ids=["t-zero", "t-equals-d-squared", "t-above-d-squared"])
    def test_design_1_note_names_the_failed_condition(self, d, t, note):
        r = rom_input_length_bounds(d, t, 0.1, 0.01)
        assert r.m_design_1 is None
        assert r.regime_notes["m_design_1"] == note

    def test_net_formula(self):
        r = rom_input_length_bounds(1 << 10, 2.0, 0.1, 2.0**-16, additive_slack=0.0)
        assert r.m_net == pytest.approx(20 + 4)

    def test_design2_formula(self):
        # reported whenever t > d^2, whatever delta
        for delta in (0.5, 0.99):
            r = rom_input_length_bounds(4, 1000.0, delta, 0.01, additive_slack=0.0)
            assert r.m_design_2 == pytest.approx(4 + math.log2(math.log2(1000 / 16)))
            assert "m_design_2" not in r.regime_notes

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 5.0, math.nan])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError, match=r"delta must be in \[0, 1\)"):
            rom_input_length_bounds(4, 1000.0, delta, 0.01)


#: the inputs the CLI's float flags reach at their extremes: the largest and
#: a near-largest finite float, a subnormal and the smallest subnormal
EXTREMES = [1e306, 1.7e308, 1e-320, 5e-324]
#: relative distance from the mpmath oracle every calculator keeps
ORACLE_REL = 1e-12


def _worst_rel(pairs) -> float:
    """Largest |value - oracle| / |oracle| over (value, oracle) pairs; an
    oracle of 0 needs that very value, and one past the float range the
    infinity of its sign."""
    worst = 0.0
    for value, oracle in pairs:
        if oracle == 0 or abs(oracle) > sys.float_info.max:
            assert value == (oracle if oracle == 0 else math.copysign(math.inf, oracle)), \
                (value, oracle)
        else:
            worst = max(worst, float(abs(value - oracle) / abs(oracle)))
    return worst


class TestAgainstMpmath:
    """Each calculator on a grid that includes the extreme float inputs,
    against 50-digit mpmath fed the same binary values."""

    DS = [2, 3, 16, 1000, 2**100 + 1, D_LIMIT]

    def test_log_prior_support_bound(self):
        ts = [0, 1, 2, 7, 64, 65, 1000, 10**6, 10**15, *map(int, EXTREMES[:2])]
        # at delta = 1 only the d^{2t}/t! branch is left: Stirling's form
        # where ln t! leaves float range
        pairs = [(log_prior_support_bound(d, t, delta), mp_log_prior_support_bound(d, t, delta))
                 for d in self.DS for t in ts for delta in (0.0, 0.25, *EXTREMES[2:], 1.0)]
        assert _worst_rel(pairs) <= ORACLE_REL

    @pytest.mark.parametrize("t", [8.0, 1420.0, 1e-300, *EXTREMES])
    def test_log_improved_support_bound(self, t):
        pairs = [(log_improved_support_bound(d, t, delta, c),
                  mp_log_improved_support_bound(d, t, delta, c))
                 for d in self.DS for delta in (0.0, 0.5, 0.999999, *EXTREMES[2:])
                 for c in (1.0, 0.1, *EXTREMES)]
        assert _worst_rel(pairs) <= ORACLE_REL

    @pytest.mark.parametrize("eps", [0.5, 1e-3, 1.5, *EXTREMES])
    def test_log_net_size_lower_bound(self, eps):
        pairs = [(log_net_size_lower_bound(d, eps, eta, c),
                  mp_log_net_size_lower_bound(d, eps, eta, c))
                 for d in self.DS for eta in (0.0, 0.2, 0.999, 1.0, *EXTREMES[2:])
                 for c in (1.0, 3.0, *EXTREMES)]
        assert _worst_rel(pairs) <= ORACLE_REL

    # 255.99999999999997 and 256.00000000000006 are one ulp from d^2 = 256,
    # where the logs of d^2 and t once set the regimes; then one ulp further out
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 8.0, 300.0, 1e6, *EXTREMES,
                                   255.99999999999997, 256.00000000000006,
                                   255.99999999999994, 256.0000000000001])
    def test_rom_input_length_bounds(self, t):
        pairs = []
        for d in (4, 1024, *self.DS):
            for eps in (0.0, 1e-3, 0.5, 1.0, *EXTREMES):
                for slack in (0.0, 0.5, *EXTREMES):
                    got = rom_input_length_bounds(d, t, 0.0, eps, slack)
                    want = mp_rom_input_length_bounds(d, t, eps, slack)
                    for key, oracle in want.items():
                        value = getattr(got, key)
                        assert (value is None) == (oracle is None), (d, t, eps, slack, key)
                        if value is not None:
                            pairs.append((value, oracle))
        assert pairs and _worst_rel(pairs) <= ORACLE_REL


def _mp_log2_support(d: int, kappa: int) -> float:
    """2 log2 C(t + k, k), t = 2^kappa and k = d^2 - 1, from mpmath's loggamma.

    2300 bits hold t + k exactly for every accepted d and kappa, and keep
    about 1000 bits after the loggammas cancel.
    """
    with mpmath.workprec(2300):
        t, k = mpmath.mpf(1 << kappa), mpmath.mpf(d * d - 1)
        log_binom = mpmath.loggamma(t + k + 1) - mpmath.loggamma(t + 1) - mpmath.loggamma(k + 1)
        return float(2 * log_binom / mpmath.log(2))


class TestTrivialConstruction:
    def test_kappa_zero_point(self):
        p = trivial_rompru_params(2, 0)
        assert p.t == 1
        assert p.support_size_log2 == pytest.approx(4.0)  # binom(4,3)^2 = 16
        assert p.q == pytest.approx(4.0)
        assert p.m == pytest.approx(2.0)

    def test_query_upper_bound_holds(self):
        for d, kappa in ((2, 3), (4, 10), (8, 6)):
            p = trivial_rompru_params(d, kappa)
            assert p.q <= p.q_upper + 1e-9

    def test_upper_bound_value_d4_k10(self):
        p = trivial_rompru_params(4, 10)
        expect = 2 * 15 * math.log2(math.e * (16 + 1023) / 15)
        assert p.q_upper == pytest.approx(expect)

    def test_monotone_in_kappa(self):
        vals = [trivial_rompru_params(3, k).support_size_log2 for k in range(6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d, kappa", [(2, 0), (4, 3), (4, 60), (16, 40), (3, 200)])
    def test_support_matches_big_integer(self, d, kappa):
        # the lgamma difference it replaces read 0.0 at d = 4, kappa = 60
        exact = 2 * math.log2(math.comb(d * d + (1 << kappa) - 1, d * d - 1))
        p = trivial_rompru_params(d, kappa)
        assert p.support_size_log2 == pytest.approx(exact, rel=1e-9)
        assert p.q <= p.q_upper

    def test_finite_and_monotone_where_betaln_is_nan(self):
        # scipy's betaln, used here before, is nan over much of this grid
        for e in range(100, 501):
            vals = [trivial_rompru_params(2**e, kappa) for kappa in range(3, KAPPA_LIMIT)]
            logs = [p.support_size_log2 for p in vals]
            assert all(map(math.isfinite, logs)), e
            assert all(a < b for a, b in zip(logs, logs[1:])), e
            assert all(p.q == p.support_size_log2 and p.m > 0 for p in vals), e
        # 1.816e122 nats at d = 2^200, kappa = 500
        assert trivial_rompru_params(2**200, 500).support_size_log2 == pytest.approx(
            2 * 1.8157017212780723e122 / math.log(2), rel=1e-12)

    @pytest.mark.parametrize("d, kappa", [(64, 20), (64, 40), (128, 30), (2**20, 60)])
    def test_stirling_fallback(self, d, kappa):
        # min(t, k) > 64, so Stirling's series with its corrections runs
        p = trivial_rompru_params(d, kappa)
        if d < 2**20:
            exact = 2 * math.log2(math.comb(d * d + (1 << kappa) - 1, d * d - 1))
            assert p.support_size_log2 == pytest.approx(exact, rel=1e-15)
        else:  # t = 2^60, k = 2^40 - 1
            assert p.support_size_log2 == pytest.approx(_mp_log2_support(d, kappa), rel=1e-15)

    def test_matches_mpmath_on_grid(self):
        # both branches of the log binomial, either side of min(t, k) = 64,
        # across the whole accepted range of d and kappa
        ds = [*range(2, 40), *(2**e for e in range(1, 501, 11)), 2**500]
        kappas = [*range(0, 13), *range(13, KAPPA_LIMIT, 29), KAPPA_LIMIT - 1]
        worst = max(abs(trivial_rompru_params(d, kappa).support_size_log2
                        / _mp_log2_support(d, kappa) - 1) for d in ds for kappa in kappas)
        assert worst <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            trivial_rompru_params(1, 2)
        with pytest.raises(ValueError):
            trivial_rompru_params(2, -1)
        assert math.isfinite(trivial_rompru_params(4, KAPPA_LIMIT - 1).q_upper)
        with pytest.raises(ValueError):
            trivial_rompru_params(4, KAPPA_LIMIT)

    @pytest.mark.parametrize("d", [-3, 0, 1, D_LIMIT + 1, 10**200])
    def test_every_calculator_rejects_d(self, d):
        calls = [
            lambda: log_prior_support_bound(d, 2, 0.0),
            lambda: log_improved_support_bound(d, 2.0, 0.0),
            lambda: rom_input_length_bounds(d, 8.0, 0.0, 0.1),
            lambda: trivial_rompru_params(d, 3),
            lambda: log_net_size_lower_bound(d, 0.1, 0.0),
            lambda: RomPruParams(d, 1, 1.0, 1.0, 0.0, 2.0, 0.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="d must be an integer from 2 to 2"):
                call()

    def test_d_limit_is_evaluable(self):
        # at the largest accepted d every calculator still runs in floats
        assert math.isfinite(log_prior_support_bound(D_LIMIT, 2, 0.0))
        assert math.isfinite(log_improved_support_bound(D_LIMIT, 2.0, 0.999999))
        assert math.isfinite(rom_input_length_bounds(D_LIMIT, 2.0, 0.0, 0.1).m_net)
        assert math.isfinite(trivial_rompru_params(D_LIMIT, 3).support_size_log2)
        assert math.isfinite(log_net_size_lower_bound(D_LIMIT, 0.1, 0.0))


class TestScalableCheck:
    def test_trivial_construction_fails_efficiency(self):
        d, kappa = 16, 10
        tp = trivial_rompru_params(d, kappa)
        params = RomPruParams(d, kappa, tp.q, tp.m, 0.0, float(tp.t), 0.0)
        rep = scalable_check(params, poly_budget=2.0)
        assert not rep.efficiency_ok  # q scales like d^2 kappa, not polylog d
        assert rep.alpha_ok and rep.queries_ok and rep.advantage_ok
        assert not rep.passes
        assert (rep.induced_design_t, rep.induced_design_delta) == (float(tp.t), 0.0)

    def test_sqrt_d_query_budget_boundary(self):
        d = 1 << 10
        t = math.isqrt(d)
        kappa = int(math.log2(t))
        good = RomPruParams(d, kappa, 4.0, 2.0, 0.0, float(t), 2.0**-kappa)
        assert scalable_check(good).queries_ok
        over = RomPruParams(d, kappa + 1, 4.0, 2.0, 0.0, float(t), 2.0**-kappa)
        assert not scalable_check(over).queries_ok

    @pytest.mark.parametrize("kappa", [0, 3, 53, 1023, 1024, 5000])
    def test_queries_ok_is_exact_at_the_power_of_two(self, kappa):
        def queries_ok(t):
            return scalable_check(RomPruParams(16, kappa, 4.0, 2.0, 0.0, t, 0.0)).queries_ok

        if kappa < KAPPA_LIMIT:
            t = math.ldexp(1.0, kappa)
            assert queries_ok(t) and not queries_ok(math.nextafter(t, 0.0))
        else:
            assert not queries_ok(sys.float_info.max)

    def test_error_rule_equals_the_float_rule_below_kappa_1024(self):
        # alpha_ok and advantage_ok, alpha <= 2^-kappa and delta <= 2^-kappa,
        # are the plain float comparison wherever 2.0 ** -kappa is defined
        rng = np.random.default_rng(11)
        tiny = sys.float_info.min  # the smallest normal; subnormals lie below it
        for kappa in range(KAPPA_LIMIT):
            p = 2.0 ** -kappa
            for x in [0.0, p, math.nextafter(p, math.inf), math.nextafter(p, 0.0), 1.5 * p,
                      p / 2, 5e-324, 1e-320, math.nextafter(tiny, 0.0), tiny, 1.0,
                      sys.float_info.max, *(3 * p * rng.random(2))]:
                rep = scalable_check(RomPruParams(16, kappa, 4.0, 2.0, x, 8.0, x))
                assert rep.alpha_ok == rep.advantage_ok == (x <= p), (kappa, x)

    @pytest.mark.parametrize("kappa", [1024, 1073, 1074, 1075, 2**1024, 10**400],
                             ids=["1024", "1073", "1074", "1075", "2-1024", "10-400"])
    def test_error_rule_holds_past_float_range(self, kappa):
        # 2^-1024 and the subnormals 2^-1073 and 2^-1074 are exact floats
        def ok(x):
            rep = scalable_check(RomPruParams(16, kappa, 4.0, 2.0, x, 8.0, x))
            assert rep.alpha_ok == rep.advantage_ok
            return rep.alpha_ok

        assert ok(0.0)
        for exponent in (-1024, -1073, -1074):
            assert ok(math.ldexp(1.0, exponent)) == (kappa <= -exponent), exponent
        assert not ok(math.nextafter(2.0**-1024, 1.0))

    def test_all_zero_errors_pass(self):
        p = RomPruParams(16, 2, 3.0, 2.0, 0.0, 100.0, 0.0)
        assert scalable_check(p).passes

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RomPruParams(1, 2, 3.0, 2.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            RomPruParams(4, 2, -3.0, 2.0, 0.0, 1.0, 0.0)
