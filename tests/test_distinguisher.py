import gc
import hashlib
import math
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    HaarDenseOracle,
    blocked_collision_counts_loop,
    collision_count,
    haar_state,
    net_membership_distinguisher,
    traced_peak,
)
from prulab import distinguisher, ensembles
from prulab.distinguisher import (
    DistinguisherParams,
    HaarUrnOracle,
    PFCOracle,
    _OutcomeStream,
    blocked_collision_counts,
    concentration_reference,
    pfc_distinguish_experiment,
    run_collision_distinguisher,
)
from prulab.ensembles import EnsembleSpec, PolyaUrnSampler, reference_design, sample_pfc
from prulab.linalg import (
    RandomSeed,
    ResourceLimitError,
    haar_unitary,
    memory_budget_bytes,
    set_memory_budget_bytes,
)
from prulab.nets import exposure_estimate
from prulab.tomography import ChannelOracle
from prulab.util import report_dict, wilson_interval


class TestCollisionCount:
    def test_simple_cases(self):
        assert collision_count(["a", "a", "b"]) == 1
        assert collision_count([7] * 5) == math.comb(5, 2)
        assert collision_count([1, 2]) == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            collision_count([3])

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_bruteforce(self, xs):
        brute = sum(1 for i in range(len(xs)) for j in range(i + 1, len(xs))
                    if xs[i] == xs[j])
        assert collision_count(xs) == brute

    @given(st.integers(0, 10_000), st.integers(2, 10), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_blocked_counts_match_rowwise(self, seed, t, k):
        samples = np.random.default_rng(seed).integers(0, 5, size=(k, t))
        blocked = blocked_collision_counts(samples)
        assert blocked.tolist() == [collision_count(row) for row in samples]

    def test_run_windows_match_the_run_loop(self):
        rng = np.random.default_rng(2020)
        # 300 (k, t) arrays, 1 <= k < 40 and 2 <= t < 40, over 1 to 60 symbols
        cases = [rng.integers(0, rng.integers(1, 61), size=rng.integers([1, 2], 40))
                 for _ in range(300)]
        cases += [
            rng.integers(0, 3, size=(50, 2)),  # t = 2
            rng.integers(0, 4, size=(1, 33)),  # k = 1
            np.full((1, 2), 5),
            np.full((7, 32), 9),  # every value equal
            np.repeat(rng.integers(0, 60, size=(20, 1)), 32, axis=1),
            np.vstack([np.full((1, 10), 2), np.arange(10)[None], rng.integers(0, 2, size=(3, 10))]),
        ]
        for samples in cases:
            got = blocked_collision_counts(samples)
            want = blocked_collision_counts_loop(samples)
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes(), samples
            assert got.tolist() == [collision_count(row) for row in samples]


class TestParams:
    def test_canonical(self):
        p = DistinguisherParams.canonical(1024)
        assert p.t == 32 and p.alpha == 0.25 and p.k_blocks == 100000
        assert DistinguisherParams.canonical(1023).t == 32
        assert DistinguisherParams.canonical(1025).t == 33

    def test_center_exact_value(self):
        p = DistinguisherParams(d=1024, t=32, k_blocks=1000)
        assert p.center == pytest.approx(992 / 1025)

    def test_validation(self):
        with pytest.raises(ValueError):
            DistinguisherParams(d=4, t=1, k_blocks=10)
        with pytest.raises(ValueError):
            DistinguisherParams(d=4, t=2, k_blocks=0)
        with pytest.raises(ValueError):
            DistinguisherParams(d=4, t=2, k_blocks=1, alpha=0.0)


class _ConstantOracle:
    def draw(self, shots):
        return np.zeros(shots, dtype=np.int64)


class _SizedOracle:
    """Returns zeros of the given lengths, one per draw call, whatever is asked."""

    def __init__(self, sizes):
        self.sizes = iter(sizes)

    def draw(self, shots):
        return np.zeros(next(self.sizes), dtype=np.int64)


class _UniformOracle:
    def __init__(self, d, rng):
        self.d, self.rng = d, rng

    def draw(self, shots):
        return self.rng.integers(0, self.d, size=shots)


#: the three oracles, each built fresh
ORACLES = pytest.mark.parametrize("make", [
    lambda: HaarUrnOracle(16, RandomSeed(1)),
    lambda: HaarDenseOracle(16, RandomSeed(1)),
    lambda: PFCOracle(sample_pfc(4, RandomSeed(1)), RandomSeed(2)),
], ids=["urn", "dense", "pfc"])


class TestOutcomeStream:
    def test_counting_fill_is_served_in_order_on_schedule(self):
        fills = []

        def fill(n):
            start = sum(fills)
            fills.append(n)
            return np.arange(start, start + n)

        stream = _OutcomeStream(fill)
        requests = [3, 3, 0, 10, 1, 5000, 7, 4096, 2, 9000, 1]
        served = []
        for shots in requests:
            out = stream.take(shots)
            assert out.shape == (shots,) and not out.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                out[:] = -1  # what was served cannot be written to
            served.append(out)
        # draws served before a refill keep their values after it
        assert np.array_equal(np.concatenate(served), np.arange(sum(requests)))
        # first fill = first request, then max(shots - left, min(served, 4096))
        assert fills == [3, 3, 10, 16, 4985, 4096, 4096, 4913, 4096]

    # the dense oracle draws directly: each draw is a fresh array its caller owns
    @pytest.mark.parametrize("make", [
        lambda: HaarUrnOracle(16, RandomSeed(1)),
        lambda: PFCOracle(sample_pfc(4, RandomSeed(1)), RandomSeed(2)),
    ], ids=["urn", "pfc"])
    def test_served_draws_are_read_only_and_keep_their_values(self, make):
        oracle = make()
        served, kept = [], []
        for shots in (1, 3, 0, 50, 7, 5000, 2, 4096, 9, 4096, 1, 9000):  # nine refills
            out = oracle.draw(shots)
            served.append(out)
            kept.append(out.copy())
            with pytest.raises(ValueError, match="read-only"):
                out[:] = 0
            base = out
            while base is not None:  # nor can the block behind it be written
                assert not base.flags.writeable
                base = base.base
        for out, want in zip(served, kept):
            assert out.dtype == np.int64 and np.array_equal(out, want)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _OutcomeStream(np.arange).take(-1)

    @ORACLES
    def test_oracle_rejects_negative_shots(self, make):
        with pytest.raises(ValueError, match="^shots must be nonnegative, got -1$"):
            make().draw(-1)

    def test_dense_draws_do_not_depend_on_the_split(self):
        # the whole stream is numpy's rng.choice over the Born probabilities
        rng = RandomSeed(3).generator()
        probs = np.abs(haar_state(64, rng)) ** 2
        want = rng.choice(64, size=6000, p=probs / probs.sum())
        for split in ([6000], [1] * 10 + [5990], [3000, 0, 3000], [4096, 1, 1903]):
            oracle = HaarDenseOracle(64, RandomSeed(3))
            assert np.array_equal(np.concatenate([oracle.draw(s) for s in split]), want), split

    @ORACLES
    def test_oracle_is_freed_without_the_cycle_collector(self, make):
        enabled = gc.isenabled()
        gc.disable()
        try:
            oracle = make()
            oracle.draw(5)
            ref = weakref.ref(oracle)
            del oracle
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestPFCOracle:
    def test_draw_stream_is_pinned(self, monkeypatch):
        # digest taken when each support sample became one random_raw word
        # read through per-byte XOR tables; it changes only with the RNG
        # stream, the Clifford sampler, the support sampler or the basis
        fills = []

        def recording(support, shots, rng):
            fills.append(shots)
            return sample_from_support(support, shots, rng)

        sample_from_support = distinguisher.sample_from_support
        monkeypatch.setattr(distinguisher, "sample_from_support", recording)
        digest = hashlib.sha256()
        for s in range(8):
            seed = RandomSeed(20261018).child(s)
            oracle = PFCOracle(sample_pfc(10, seed.child(0)), seed.child(1))
            for shots in (1, 32, 500):
                digest.update(np.asarray(oracle.draw(shots), dtype="<i8").tobytes())
        assert digest.hexdigest() == (
            "073c4e2f15e0c3f4cf52a475f89cf942f5d9e58e836dcd534b2506fe6d202b20")
        assert fills == [1, 32, 500] * 8  # one fill per request, of its size


class TestCollisionDistinguisher:
    def test_constant_oracle_screams_pfc(self):
        p = DistinguisherParams(d=64, t=8, k_blocks=20)
        rep = run_collision_distinguisher(_ConstantOracle(), p)
        assert rep.mean_collisions == math.comb(8, 2)
        assert rep.verdict == "PFC"

    def test_uniform_oracle_mean_near_expectation(self):
        d = 4096
        p = DistinguisherParams(d=d, t=64, k_blocks=300)
        rep = run_collision_distinguisher(
            _UniformOracle(d, RandomSeed(5).generator()), p)
        expect = math.comb(64, 2) / d
        sd = math.sqrt(expect / 300) * 2  # generous
        assert abs(rep.mean_collisions - expect) < 6 * sd
        # uniform over the full space sits below the Haar center by ~half
        assert rep.verdict == "PFC"

    def test_verdict_invariant_under_relabeling(self):
        p = DistinguisherParams(d=16, t=4, k_blocks=50)
        seed = RandomSeed(7)
        base = PFCOracle(sample_pfc(4, seed.child(0)), seed.child(1))
        rep1 = run_collision_distinguisher(base, p)

        class Relabeled:
            def __init__(self):
                self.inner = PFCOracle(sample_pfc(4, seed.child(0)), seed.child(1))
                self.perm = np.random.default_rng(1).permutation(16)

            def draw(self, shots):
                return self.perm[self.inner.draw(shots)]

        rep2 = run_collision_distinguisher(Relabeled(), p)
        assert rep1.verdict == rep2.verdict
        assert np.array_equal(rep1.blocks, rep2.blocks)

    def test_short_blocks_rejected(self):
        p = DistinguisherParams(d=64, t=8, k_blocks=3)
        with pytest.raises(ValueError, match="short block"):
            run_collision_distinguisher(_SizedOracle([7, 7, 7]), p)

    def test_ragged_blocks_rejected(self):
        # 7 + 9 outcomes would fill two blocks of 8 if only the total were checked
        p = DistinguisherParams(d=64, t=8, k_blocks=2)
        with pytest.raises(ValueError):
            run_collision_distinguisher(_SizedOracle([7, 9]), p)

    def test_every_block_is_one_draw(self):
        # the benchmark pins one draw(t) call per block
        calls = []

        class Counting(_ConstantOracle):
            def draw(self, shots):
                calls.append(shots)
                return super().draw(shots)

        run_collision_distinguisher(Counting(), DistinguisherParams(d=64, t=8, k_blocks=37))
        assert calls == [8] * 37

    def test_urn_side_peak_is_within_its_charge(self, monkeypatch):
        # canonical k at n = 10: the 3.2M outcomes, their sorted copy and
        # the urn's 4.2M-slot history; charged 24 bytes per outcome, with no
        # room for the history, it peaked at 91.7 MB against 76.8 MB
        params = DistinguisherParams.canonical(1024)
        _, peak, charged = traced_peak(
            lambda: run_collision_distinguisher(HaarUrnOracle(1024, RandomSeed(8)), params),
            monkeypatch, distinguisher, ensembles)
        assert peak <= max(charged) + (64 << 10)

    @pytest.mark.parametrize("k", [100, 300])
    @pytest.mark.parametrize("side", ["urn", "pfc"])
    def test_small_k_peak_is_within_its_charge(self, monkeypatch, side, k):
        # below about 10^4 outcomes a fill's temporaries are no longer small
        # beside the outcomes: charged 34 bytes per outcome and nothing per
        # fill, the urn side peaked at 0.199 MB against 0.109 MB at k = 100
        # and 0.495 MB against 0.326 MB at k = 300
        params = DistinguisherParams(d=1024, t=32, k_blocks=k)
        sample = sample_pfc(10, RandomSeed(3))
        make = {"urn": lambda: HaarUrnOracle(1024, RandomSeed(8)),
                "pfc": lambda: PFCOracle(sample, RandomSeed(9))}[side]
        _, peak, charged = traced_peak(
            lambda: run_collision_distinguisher(make(), params),
            monkeypatch, distinguisher, ensembles)
        assert peak <= max(charged) + (64 << 10)

    def test_outcome_working_set_is_budgeted_before_any_draw(self):
        # 34 bytes per outcome charged: the int64 outcomes, their sorted
        # copy and its bool run flags take at most 18, an urn's history 16;
        # and 60 per shot of the largest fill, here all 296 outcomes
        calls = []

        class Counting(_ConstantOracle):
            def draw(self, shots):
                calls.append(shots)
                return super().draw(shots)

        p = DistinguisherParams(d=64, t=8, k_blocks=37)
        before = memory_budget_bytes()
        try:
            set_memory_budget_bytes(94 * 8 * 37 - 1)
            with pytest.raises(ResourceLimitError, match="collision test outcomes needs"):
                run_collision_distinguisher(Counting(), p)
            assert calls == []
            set_memory_budget_bytes(94 * 8 * 37)
            run_collision_distinguisher(Counting(), p)
        finally:
            set_memory_budget_bytes(before)
        assert calls == [8] * 37


class TestConcentrationReference:
    def test_formula_substitution(self):
        mu, tau, bound = concentration_reference(3, 1.0, 1.0, beta=1.0, k_blocks=1)
        assert mu == pytest.approx(3.0)
        assert tau == pytest.approx(63.0)
        assert bound == pytest.approx(63.0)

    def test_zero_probabilities(self):
        mu, tau, bound = concentration_reference(5, 0.0, 0.0, beta=0.5, k_blocks=10)
        assert mu == tau == bound == 0.0

    def test_full_support_stabilizer_case(self):
        mu, tau, _ = concentration_reference(3, 1 / 8, 1 / 64, beta=0.5, k_blocks=10)
        assert mu == pytest.approx(3 / 8)
        assert tau == pytest.approx(9 / 8 + 2 * 27 / 64)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            concentration_reference(3, 0.1, 0.2, beta=0.5, k_blocks=10)
        with pytest.raises(ValueError):
            concentration_reference(3, 1.2, 0.1, beta=0.5, k_blocks=10)


class TestExactMoments:
    """Exact enumeration of E[M] and Var[M] for fixed outcome distributions."""

    @pytest.mark.parametrize("d,t", [(4, 3), (6, 3), (8, 4)])
    def test_expectation_and_variance_vs_formulas(self, d, t):
        rng = np.random.default_rng(d * 100 + t)
        w = rng.integers(1, 5, size=d)
        p = Fraction(1)  # build exact probabilities
        probs = [Fraction(int(x), int(w.sum())) for x in w]
        e_m = Fraction(0)
        e_m2 = Fraction(0)
        for tup in product(range(d), repeat=t):
            prob = Fraction(1)
            for x in tup:
                prob *= probs[x]
            m = collision_count(list(tup))
            e_m += prob * m
            e_m2 += prob * m * m
        p2 = sum(q * q for q in probs)
        p3 = sum(q**3 for q in probs)
        assert e_m == math.comb(t, 2) * p2
        var = e_m2 - e_m * e_m
        tau = t * t * p2 + 2 * t**3 * p3
        assert var <= tau

    def test_deviation_rate_bounded_empirically(self):
        d, t, k = 8, 4, 40
        probs = np.full(d, 1 / d)
        mu, tau, bound = concentration_reference(
            t, float(np.sum(probs**2)), float(np.sum(probs**3)), beta=0.35, k_blocks=k)
        rng = RandomSeed(60).generator()
        fails = 0
        trials = 400
        for _ in range(trials):
            samples = rng.integers(0, d, size=(k, t))
            m = blocked_collision_counts(samples).mean()
            fails += int(abs(m - mu) >= 0.35)
        assert fails / trials <= min(1.0, bound) + 0.05


def _gap_within_wilson(hits_a: int, hits_b: int, trials: int) -> bool:
    """Whether two acceptance rates differ by at most their two Wilson
    half-widths summed."""
    half = wilson_interval(hits_a, trials)[1] + wilson_interval(hits_b, trials)[1]
    return abs(hits_a / trials - hits_b / trials) <= half


class TestAdvantage:
    # trial i measures side a's state at seed.child(4i) and side b's at
    # seed.child(4i + 2), as pfc_distinguish_experiment does

    def test_identical_ensembles_no_advantage(self):
        p = DistinguisherParams(d=16, t=4, k_blocks=30)
        seed, trials = RandomSeed(70), 60
        hits = [0, 0]
        for i in range(trials):
            for side in (0, 1):
                oracle = HaarUrnOracle(16, seed.child(4 * i + 2 * side))
                hits[side] += run_collision_distinguisher(oracle, p).verdict == "Haar"
        assert _gap_within_wilson(*hits, trials)

    def test_exact_1_design_matches_haar_single_query(self):
        # one query, accept iff the measured outcome is 0
        pauli = reference_design("pauli-1")
        seed, trials = RandomSeed(71), 400
        hits_pauli = hits_haar = 0
        for i in range(trials):
            s = seed.child(4 * i)
            u = pauli.unitaries[s.generator().choice(len(pauli), p=pauli.weights)]
            probs = np.abs(u[:, 0]) ** 2
            hits_pauli += int(s.generator().choice(2, size=1, p=probs / probs.sum())[0]) == 0
            hits_haar += int(HaarDenseOracle(2, seed.child(4 * i + 2)).draw(1)[0]) == 0
        assert _gap_within_wilson(hits_pauli, hits_haar, trials)

    @pytest.mark.parametrize("args,kwargs,want", [
        ((6, 30, RandomSeed(7)), {"k_blocks": 300}, {
            "n": 6, "params": {"d": 64, "t": 8, "k_blocks": 300, "alpha": 0.25},
            "trials": 30, "haar_verdict_rate": 0.9666666666666667,
            "pfc_verdict_rate": 0.5666666666666667, "haar_ci_half": 0.08039953798736568,
            "pfc_ci_half": 0.16712876511988078, "advantage": 0.5333333333333333,
            "advantage_ci_half": 0.24752830310724647}),
    ], ids=["urn"])
    def test_report_is_pinned(self, args, kwargs, want):
        # exact floats: the PFC half-width is taken on the count of "Haar"
        # verdicts, and wilson_interval(k, n) and (n - k, n) differ in the last bit;
        # values taken when each Clifford became one random_raw call, so they
        # move with the RNG stream or the Clifford sampler
        assert report_dict(pfc_distinguish_experiment(*args, **kwargs)) == want

    def test_dense_haar_side_is_pinned(self):
        # the Haar side of pfc_distinguish_experiment(5, 17, RandomSeed(3),
        # k_blocks=200) measured by the dense reference oracle on the
        # experiment's own seeds: 14 of 17 trials say "Haar", the rate its
        # report gave when it could run the dense oracle itself
        params = DistinguisherParams(d=32, t=6, k_blocks=200)
        reports = [run_collision_distinguisher(HaarDenseOracle(32, RandomSeed(3).child(4 * i)),
                                               params) for i in range(17)]
        assert [int(r.blocks.sum()) for r in reports] == [
            231, 127, 155, 176, 191, 185, 191, 178, 135, 204, 188, 258, 168, 145, 200, 177, 277]
        assert "".join(r.verdict[0] for r in reports) == "HPHHHHHHHHHPHHHHP"
        assert sum(r.verdict == "Haar" for r in reports) / 17 == 0.8235294117647058

    def test_collide_n10_fill_schedule_is_pinned(self, monkeypatch):
        # one trial of the benchmark's collide-n10 unit: 1000 draws of 32 on
        # each oracle, served from blocks that double from the first request
        # up to distinguisher._BLOCK
        urn, support = [], []
        urn_draw = PolyaUrnSampler.draw
        sample_from_support = distinguisher.sample_from_support

        def recording_urn(self, shots):
            urn.append(shots)
            return urn_draw(self, shots)

        def recording_support(basis, shots, rng):
            support.append(shots)
            return sample_from_support(basis, shots, rng)

        monkeypatch.setattr(PolyaUrnSampler, "draw", recording_urn)
        monkeypatch.setattr(distinguisher, "sample_from_support", recording_support)
        pfc_distinguish_experiment(n=10, trials=1, t=32, k_blocks=1000, alpha=0.25,
                                   seed=RandomSeed(1))
        want = [32, 32, 64, 128, 256, 512, 1024, 2048] + [4096] * 7
        assert urn == want
        assert support == want

    @pytest.mark.parametrize("kwargs,match", [
        ({"trials": 0}, "at least one trial"),
        ({"haar_mode": "qr"}, "mode must be"),
        # the dense oracle is a test reference, no longer a mode
        ({"haar_mode": "dense"}, "^haar_mode must be 'urn', got 'dense'$"),
    ])
    def test_bad_arguments_fail_before_any_trial(self, kwargs, match, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(distinguisher, "run_collision_distinguisher", no_trial)
        with pytest.raises(ValueError, match=match):
            pfc_distinguish_experiment(**{"n": 4, "trials": 2, "seed": RandomSeed(1),
                                          "k_blocks": 5, **kwargs})

    def test_pfc_vs_haar_visible_at_moderate_scale(self):
        rep = pfc_distinguish_experiment(8, 40, RandomSeed(72), k_blocks=400)
        assert rep.haar_rate >= 0.9
        assert rep.pfc_rate >= 0.25
        assert rep.advantage >= 0.2


class TestNetMembership:
    def test_member_accepted(self):
        net = EnsembleSpec.haar_sample(2, 12, RandomSeed(80))
        hidden = net.unitaries[4]
        out = net_membership_distinguisher(
            ChannelOracle(hidden), net, eps=0.8, eta0=0.05, seed=RandomSeed(81))
        assert out == 0

    def test_far_unitary_flagged(self):
        net = EnsembleSpec(2, [np.eye(2, dtype=complex)])
        hidden = np.diag([1.0, -1.0]).astype(complex)  # distance 2 from identity
        out = net_membership_distinguisher(
            ChannelOracle(hidden), net, eps=0.9, eta0=0.05, seed=RandomSeed(82))
        assert out == 1

    def test_acceptance_rate_bracketed_by_exposures(self):
        # rate in [(1-eta0) eta_eps - CI, eta_{eps/3} + eta0 + CI]
        net = EnsembleSpec.haar_sample(2, 50, RandomSeed(83))
        eps, eta0 = 0.9, 0.1
        trials = 200
        seed = RandomSeed(84)
        hits = 0
        for i in range(trials):
            hidden = haar_unitary(2, seed.child(2 * i))
            hits += net_membership_distinguisher(
                ChannelOracle(hidden), net, eps, eta0, seed.child(2 * i + 1))
        rate = hits / trials
        lo_rep = exposure_estimate(net, eps, 400, RandomSeed(85))
        hi_rep = exposure_estimate(net, eps / 3, 400, RandomSeed(86))
        ci = 1.96 * math.sqrt(rate * (1 - rate) / trials) + 0.02
        assert rate >= (1 - eta0) * lo_rep.eta_hat - lo_rep.ci_half - ci
        assert rate <= hi_rep.eta_hat + eta0 + hi_rep.ci_half + ci
