import json
import math

import helpers
import numpy as np
import pytest
from helpers import compose_nets, cover_with_product_unblocked, dagger_net

from prulab import ensembles, nets
from prulab.bounds import log_net_size_lower_bound
from prulab.cli import main
from prulab.ensembles import EnsembleSpec, reference_design
from prulab.linalg import (
    RandomSeed,
    ResourceLimitError,
    diamond_distance_unitaries,
    haar_unitary,
    haar_unitary_rng,
    is_unitary,
    memory_budget_bytes,
    set_memory_budget_bytes,
)
from prulab.nets import (
    cover_with_product,
    exposure_estimate,
    min_diamond_distance,
)
from prulab.util import report_dict


@pytest.fixture(scope="module")
def small_net():
    return EnsembleSpec.haar_sample(2, 60, RandomSeed(500))


class TestMinDiamondDistance:
    def test_member_hits_zero(self, small_net):
        d, i = min_diamond_distance(small_net.unitaries[13], small_net)
        assert d < 1e-6 and i == 13

    def test_identity_net_vs_z(self):
        net = EnsembleSpec(2, [np.eye(2, dtype=complex)])
        d, i = min_diamond_distance(np.diag([1.0, -1.0]).astype(complex), net)
        assert d == pytest.approx(2.0) and i == 0

    def test_tie_prefers_lowest_index(self):
        u = haar_unitary(2, RandomSeed(1))
        net = EnsembleSpec(2, [u, u])
        _, i = min_diamond_distance(u, net)
        assert i == 0

    def test_exact_match_later_in_net(self):
        u = haar_unitary(2, RandomSeed(2))
        net = EnsembleSpec(2, [np.eye(2, dtype=complex), u])
        d, i = min_diamond_distance(u, net)
        assert d < 1e-6 and i == 1

    def test_dimension_mismatch(self, small_net):
        with pytest.raises(ValueError):
            min_diamond_distance(np.eye(3), small_net)

    def test_matches_scalar_loop_d3(self):
        net = EnsembleSpec.haar_sample(3, 15, RandomSeed(3))
        u = haar_unitary(3, RandomSeed(4))
        d, i = min_diamond_distance(u, net)
        scal = [diamond_distance_unitaries(u, v) for v in net.unitaries]
        assert d == pytest.approx(min(scal), abs=1e-9)
        assert i == int(np.argmin(scal))


class TestExposure:
    def test_diameter_covers_everything(self, small_net):
        rep = exposure_estimate(small_net, 2.0, 60, RandomSeed(5))
        assert rep.eta_hat == 0.0

    def test_zero_radius_exposes_everything(self, small_net):
        rep = exposure_estimate(small_net, 0.0, 60, RandomSeed(6))
        assert rep.eta_hat == 1.0

    @pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan])
    def test_negative_radius_rejected(self, small_net, eps):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            exposure_estimate(small_net, eps, 5, RandomSeed(5))

    def test_stable_across_seeds(self, small_net):
        eps = 0.9
        a = exposure_estimate(small_net, eps, 400, RandomSeed(7))
        b = exposure_estimate(small_net, eps, 400, RandomSeed(8))
        assert 0.05 < a.eta_hat < 0.95  # informative radius for the check
        assert abs(a.eta_hat - b.eta_hat) <= a.ci_half + b.ci_half

    def test_monotone_in_eps(self, small_net):
        seed = RandomSeed(9)
        reps = [exposure_estimate(small_net, eps, 250, seed) for eps in (0.5, 0.9, 1.3)]
        slack = [r.ci_half for r in reps]
        assert reps[0].eta_hat + slack[0] >= reps[1].eta_hat - slack[1]
        assert reps[1].eta_hat + slack[1] >= reps[2].eta_hat - slack[2]

    def test_monotone_in_net_size(self):
        big = EnsembleSpec.haar_sample(2, 120, RandomSeed(10))
        small = EnsembleSpec(2, big.unitaries[:30])
        seed = RandomSeed(11)
        r_small = exposure_estimate(small, 0.8, 250, seed)
        r_big = exposure_estimate(big, 0.8, 250, seed)
        assert r_big.eta_hat <= r_small.eta_hat + r_small.ci_half + r_big.ci_half

    def test_vol_complement(self, small_net):
        rep = exposure_estimate(small_net, 1.0, 100, RandomSeed(12))
        assert rep.vol_hat == pytest.approx(1.0 - rep.eta_hat)


class TestHaarSample:
    # the larger sizes span several blocks of the fill, the last one short
    @pytest.mark.parametrize("dim, size, seed", [
        (1, 3, 1), (2, 40, 2), (3, 7, 3), (16, 5, 4), (1, 1000, 5), (2, 2000, 6), (3, 500, 7),
        (4, 300, 8), (16, 50, 9), (23, 4, 10)])
    def test_net_is_the_list_built_net(self, dim, size, seed):
        rng = RandomSeed(seed).generator()
        want = np.array([haar_unitary_rng(dim, rng) for _ in range(size)])
        net = EnsembleSpec.haar_sample(dim, size, RandomSeed(seed))
        assert net.unitaries.tobytes() == want.tobytes()

    def test_net_stays_within_its_charge(self, monkeypatch):
        # the net once was a list of arrays that its constructor copied, a
        # peak of twice the net, and was charged nothing; the slack covers one
        # Haar sample's working set at d = 16
        net, peak, charged = helpers.traced_peak(
            lambda: EnsembleSpec.haar_sample(16, 2000, RandomSeed(1)), monkeypatch, ensembles)
        assert charged == [net.unitaries.nbytes + 10 * 2000] == [(16 * 16 * 16 + 10) * 2000]
        assert peak <= charged[0] + (64 << 10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_small_dim_net_stays_within_its_charge(self, monkeypatch, dim):
        # the uniform weights and the bool masks of their check, 10 bytes per
        # element, are a large share at dim 1 and 2; charged only the stack,
        # haar_sample(1, 100000) peaked 1.0 MB over its 1.6 MB charge; drawn
        # as one unchunked stack, the net peaked at 4 to 6 times its size
        _, peak, charged = helpers.traced_peak(
            lambda: EnsembleSpec.haar_sample(dim, 100000, RandomSeed(1)), monkeypatch, ensembles)
        assert peak <= max(charged) + (64 << 10)


class TestComposeAndDagger:
    def test_identity_composition(self):
        net = EnsembleSpec(2, [np.eye(2, dtype=complex)])
        comp = compose_nets(net, net)
        assert len(comp) == 1
        assert np.allclose(comp.unitaries[0], np.eye(2))

    def test_composed_size(self):
        a = EnsembleSpec.haar_sample(2, 7, RandomSeed(13))
        b = EnsembleSpec.haar_sample(2, 5, RandomSeed(14))
        assert len(compose_nets(a, b)) == 35

    def test_compose_dimension_mismatch(self):
        a = EnsembleSpec.haar_sample(2, 3, RandomSeed(15))
        b = EnsembleSpec.haar_sample(3, 3, RandomSeed(16))
        with pytest.raises(ValueError):
            compose_nets(a, b)

    def test_products_stay_within_their_charge(self, monkeypatch):
        # a list of 2x2 products, then the net's copy, once peaked at 4.6x the charge
        a = EnsembleSpec.haar_sample(2, 300, RandomSeed(19))
        b = EnsembleSpec.haar_sample(2, 300, RandomSeed(20))
        comp, peak, charged = helpers.traced_peak(lambda: compose_nets(a, b), monkeypatch, helpers)
        assert len(charged) == 1 and peak <= charged[0]
        want = np.array([v1 @ v2.conj().T for v1 in a.unitaries for v2 in b.unitaries])
        assert comp.unitaries.shape == (90_000, 2, 2)
        assert np.abs(comp.unitaries - want).max() <= 1e-14

    def test_dagger_exposure_matches(self, small_net):
        eps = 0.9
        a = exposure_estimate(small_net, eps, 350, RandomSeed(17))
        b = exposure_estimate(dagger_net(small_net), eps, 350, RandomSeed(18))
        assert abs(a.eta_hat - b.eta_hat) <= a.ci_half + b.ci_half

    def test_dagger_involution(self, small_net):
        dd = dagger_net(dagger_net(small_net))
        assert np.allclose(dd.unitaries, small_net.unitaries)


class TestCoverWithProduct:
    def test_member_with_identity_gives_zero(self):
        u = haar_unitary(2, RandomSeed(19))
        net = EnsembleSpec(2, [np.eye(2, dtype=complex), u])
        v1, v2, dist = cover_with_product(u, net)
        assert dist < 1e-6

    def test_degenerate_identity_net(self):
        u = haar_unitary(2, RandomSeed(20))
        net = EnsembleSpec(2, [np.eye(2, dtype=complex)])
        _, _, dist = cover_with_product(u, net)
        assert dist == pytest.approx(diamond_distance_unitaries(u, np.eye(2)), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_exhaustive_scalar_search(self, d):
        net = EnsembleSpec.haar_sample(d, 12, RandomSeed(21 + d))
        u = haar_unitary(d, RandomSeed(40 + d))
        v1, v2, dist = cover_with_product(u, net)
        brute = min(
            diamond_distance_unitaries(a @ b.conj().T, u)
            for a in net.unitaries for b in net.unitaries
        )
        assert dist == pytest.approx(brute, abs=1e-9)
        assert diamond_distance_unitaries(v1 @ v2.conj().T, u) == pytest.approx(dist, abs=1e-9)

    def test_relaxed_net_composition_bound(self):
        # eta1 + eta2 < 1 makes the pair cover reach eps1 + eps2
        net = EnsembleSpec.haar_sample(2, 300, RandomSeed(23))
        eps = 0.55
        rep = exposure_estimate(net, eps, 300, RandomSeed(24))
        assert rep.eta_hat + rep.ci_half < 0.5
        seed = RandomSeed(25)
        for i in range(60):
            u = haar_unitary(2, seed.child(i))
            _, _, dist = cover_with_product(u, net)
            assert dist <= 2 * eps


def _row_of(net, v):
    """The net index of v, a row view of net.unitaries."""
    assert np.shares_memory(v, net.unitaries)
    return (v.ctypes.data - net.unitaries.ctypes.data) // net.unitaries[0].nbytes


def _assert_matches_unblocked(u, net):
    v1, v2, dist = cover_with_product(u, net)
    w1, w2, want = cover_with_product_unblocked(u, net)
    assert (_row_of(net, v1), _row_of(net, v2)) == (_row_of(net, w1), _row_of(net, w2))
    assert np.float64(dist).tobytes() == np.float64(want).tobytes()
    return _row_of(net, v1), _row_of(net, v2), dist


@pytest.fixture(scope="module")
def net_2000():
    return EnsembleSpec.haar_sample(2, 2000, RandomSeed(600))


@pytest.fixture
def budget():
    before = memory_budget_bytes()
    yield set_memory_budget_bytes
    set_memory_budget_bytes(before)


class TestStreamedPairSearch:
    """The d = 2 search streams row blocks of the pair matrix; it must pick
    the same pair, with a bit-equal distance, as the unblocked argmin."""

    def test_seeded_queries_at_2000(self, net_2000):
        seed = RandomSeed(601)
        for i in range(25):
            _assert_matches_unblocked(haar_unitary(2, seed.child(i)), net_2000)

    def test_exact_net_products(self, net_2000):
        # rows are V2 = net[b], so (7, 1999) lands in the last block; the
        # clamp binds where |tr|^2 rounds past 4, and u = I ties every V1 = V2
        # pair at 0, so only the first may be returned
        us = net_2000.unitaries
        queries = [us[a] @ us[b].conj().T
                   for a, b in [(3, 5), (1999, 0), (7, 1999), (1990, 1985), (0, 0)]]
        dists = [_assert_matches_unblocked(u, net_2000)[2]
                 for u in queries + [np.eye(2, dtype=complex)]]
        assert max(dists) < 1e-6 and 0.0 in dists

    @pytest.mark.parametrize("blocks, extra", [
        (0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 0), (3, 5)])
    def test_net_sizes_around_the_block(self, blocks, extra):
        m = blocks * nets._PAIR_BLOCK_ROWS + extra
        net = EnsembleSpec.haar_sample(2, m, RandomSeed(602 + m))
        seed = RandomSeed(603)
        for i in range(10):
            _assert_matches_unblocked(haar_unitary(2, seed.child(i)), net)
        us = net.unitaries
        _assert_matches_unblocked(us[m - 1] @ us[0].conj().T, net)
        _assert_matches_unblocked(us[0] @ us[m - 1].conj().T, net)

    def test_duplicate_rows_across_blocks_tie_to_the_first(self):
        b = nets._PAIR_BLOCK_ROWS
        m = 3 * b + 5
        us = list(EnsembleSpec.haar_sample(2, m, RandomSeed(604)).unitaries)
        for dup in (b, 2 * b + 1, m - 1):  # next block, a middle one, the last
            us[dup] = us[b - 1]
        net = EnsembleSpec(2, us)
        picks = [_assert_matches_unblocked(us[4] @ us[b - 1].conj().T, net)]
        seed = RandomSeed(605)
        picks += [_assert_matches_unblocked(haar_unitary(2, seed.child(i)), net)
                  for i in range(10)]
        assert picks[0][:2] == (4, b - 1)
        assert all(v2 not in (b, 2 * b + 1, m - 1) for _, v2, _ in picks)

    def test_budget_charges_one_block(self, net_2000, budget):
        # the unblocked search charged 16 m^2 = 64 MB at m = 2000
        u = haar_unitary(2, RandomSeed(606))
        budget(16 << 20)
        _assert_matches_unblocked(u, net_2000)
        budget(64 << 10)  # smaller than any block of two or more rows
        with pytest.raises(ResourceLimitError):
            cover_with_product(u, net_2000)

    def test_budget_d3_charges_one_batch(self, budget):
        net = EnsembleSpec.haar_sample(3, 40, RandomSeed(607))
        u = haar_unitary(3, RandomSeed(608))
        budget(16 * 40 * 40)  # below the old m x m charge
        cover_with_product(u, net)
        budget(16 * 40)
        with pytest.raises(ResourceLimitError):
            cover_with_product(u, net)


@pytest.fixture(scope="module")
def c7_net():
    return EnsembleSpec.haar_sample(2, 2000, RandomSeed(9300))


class TestQuaternionPairSearch:
    """The d = 2 search ranks pairs by unit-quaternion chords and re-ranks
    the few near the best in the pair-trace arithmetic; it must return the
    unblocked argmin's pair and distance bits."""

    def test_trace_is_twice_the_quaternion_inner_product(self):
        seed = RandomSeed(610)
        a = np.array([haar_unitary(2, seed.child(2 * i)) for i in range(200)])
        b = np.array([haar_unitary(2, seed.child(2 * i + 1)) for i in range(200)])
        tr = np.einsum("kij,kij->k", a, b.conj())  # tr(A B^dag)
        inner = np.einsum("ck,ck->k", nets._quaternions(a), nets._quaternions(b))
        assert np.max(np.abs(np.abs(tr) - 2 * np.abs(inner))) <= 1e-14

    def test_thousand_queries_on_the_c7_net(self, c7_net):
        seed = RandomSeed(9303)
        for i in range(1000):
            _assert_matches_unblocked(haar_unitary(2, seed.child(i)), c7_net)

    def test_duplicate_heavy_net_ties_to_the_first_pair(self):
        # a 50-element net repeated 8 times: every pair has 63 exact twins
        base = EnsembleSpec.haar_sample(2, 50, RandomSeed(611)).unitaries
        net = EnsembleSpec(2, np.concatenate([base] * 8))
        us = net.unitaries
        seed = RandomSeed(612)
        queries = [haar_unitary(2, seed.child(i)) for i in range(20)]
        queries += [us[a] @ us[b].conj().T for a, b in [(3, 7), (357, 399), (49, 50), (0, 0)]]
        picks = [_assert_matches_unblocked(u, net) for u in queries]
        picks.append(_assert_matches_unblocked(np.eye(2, dtype=complex), net))
        assert all(v1 < 50 and v2 < 50 for v1, v2, _ in picks)
        assert picks[-1][:2] == (0, 0) and picks[-1][2] == 0.0

    @pytest.mark.parametrize("m", range(1, 11))
    def test_every_small_net_size(self, m):
        net = EnsembleSpec.haar_sample(2, m, RandomSeed(613 + m))
        us = net.unitaries
        seed = RandomSeed(625)
        queries = [haar_unitary(2, seed.child(i)) for i in range(20)]
        queries += [us[m - 1] @ us[0].conj().T, np.eye(2, dtype=complex)]
        for u in queries:
            _assert_matches_unblocked(u, net)

    def test_empty_first_windows_widen(self):
        # every q(V2) is +-(0, 1, 0, 0) and every query (1, 0, 0, 0): they
        # differ by 1 in both x0 and x1, so the window holds nothing until w
        # doubles past 1, and all 100 pairs tie at the largest distance 2
        iz = np.diag([1j, -1j])
        net = EnsembleSpec(2, [iz] * 10)
        assert _assert_matches_unblocked(iz, net) == (0, 0, 2.0)

    def test_net_perturbed_within_unitary_tol(self, c7_net):
        rng = np.random.default_rng(614)
        noise = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
        noise *= 3e-11 / np.abs(noise).max()
        net = EnsembleSpec(2, c7_net.unitaries + noise)
        assert all(is_unitary(v) for v in net.unitaries)
        assert not all(is_unitary(v, 1e-13) for v in net.unitaries)
        us = net.unitaries
        seed = RandomSeed(615)
        queries = [haar_unitary(2, seed.child(i)) for i in range(40)]
        queries += [us[a] @ us[b].conj().T for a, b in [(3, 5), (1999, 0), (7, 1999)]]
        for u in queries:
            _assert_matches_unblocked(u, net)

    def test_budget_charges_the_candidates(self, budget):
        # u = I puts all m copies of I in every query's window: m^2 candidates
        net = EnsembleSpec(2, [np.eye(2, dtype=complex)] * 1000)
        u = np.eye(2, dtype=complex)
        budget(16 << 20)  # the fixed arrays fit, 48 bytes for each of 10^6 do not
        with pytest.raises(ResourceLimitError, match="product cover search"):
            cover_with_product(u, net)
        budget(64 << 20)
        assert _assert_matches_unblocked(u, net) == (0, 0, 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_input_rejected(self):
        # a NaN key would keep the window search from ever ending
        net = EnsembleSpec(2, [np.eye(2, dtype=complex), np.full((2, 2), np.nan + 0j)])
        with pytest.raises(ValueError, match="unitary"):
            cover_with_product(np.eye(2, dtype=complex), net)


class TestBounds:
    # the net-size bound lives in prulab.bounds and returns its natural log
    def test_eta_one_gives_zero(self):
        assert log_net_size_lower_bound(3, 0.1, 1.0) == -math.inf

    def test_formula_value(self):
        assert log_net_size_lower_bound(2, 0.5, 0.0, 1.0) == pytest.approx(math.log(8.0))

    def test_monotone_decreasing_in_eps(self):
        vals = [log_net_size_lower_bound(2, e, 0.1) for e in (0.1, 0.2, 0.4)]
        assert vals[0] > vals[1] > vals[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            log_net_size_lower_bound(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            log_net_size_lower_bound(2, 0.1, 1.5)


class TestDesignAsNet:
    """The paper's design-to-net step on an exact design: the single-qubit
    Clifford group, an exact 3-design, measured as a net as it stands."""

    @pytest.mark.parametrize("eps, eta", [
        (0.6, 0.71225), (0.8, 0.312), (1.0, 0.0075), (1.05, 0.0), (1.2, 0.0)])
    def test_clifford_group_exposure(self, eps, eta):
        rep = exposure_estimate(reference_design("clifford-1"), eps, 4000, RandomSeed(1))
        assert rep.eta_hat == eta

    def test_clifford_group_covering_radius(self):
        # a Nelder-Mead search over SU(2) found no point farther from the group
        # than this one, at distance sqrt(5/2 - sqrt 2) = 1.0420..., so every
        # exposure from eps = 1.05 up is 0
        r2 = math.sqrt(2)
        a, b = complex(2 + r2, r2) / 4, complex(r2 - 2, -r2) / 4
        hole = np.array([[a, b], [-b.conjugate(), a.conjugate()]])
        dist, _ = min_diamond_distance(hole, reference_design("clifford-1"))
        assert dist == pytest.approx(math.sqrt(2.5 - r2), abs=1e-12)

    def test_weights_are_not_read(self):
        group = reference_design("clifford-1")
        weights = np.arange(1.0, 25.0) / 300.0
        skewed = EnsembleSpec(2, group.unitaries, weights)
        u = haar_unitary(2, RandomSeed(3))
        assert min_diamond_distance(u, skewed) == min_diamond_distance(u, group)
        assert (exposure_estimate(skewed, 0.8, 300, RandomSeed(4))
                == exposure_estimate(group, 0.8, 300, RandomSeed(4)))
        (v1, v2, dist), (w1, w2, want) = cover_with_product(u, skewed), cover_with_product(u, group)
        assert (v1.tobytes(), v2.tobytes(), dist) == (w1.tobytes(), w2.tobytes(), want)

    def test_net_coverage_reads_the_group_manifest(self, tmp_path, capsys):
        # each row is the library's exposure on the group, row i drawn from
        # the base seed's child i
        group = reference_design("clifford-1")
        helpers.dump_json(tmp_path / "clifford.json", helpers.ensemble_to_json_dict(group))
        radii = [0.6, 1.05]
        assert main(["net-coverage", "--ensemble-file", str(tmp_path / "clifford.json"),
                     "--eps", ",".join(map(str, radii)), "--samples", "400",
                     "--seed", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert rows == [report_dict(exposure_estimate(group, eps, 400, RandomSeed(1).child(i)))
                        for i, eps in enumerate(radii)]
        assert rows[1]["eta_hat"] == 0.0
