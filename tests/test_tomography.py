import math

import numpy as np
import pytest
from helpers import UncachedChannelOracle, haar_basis_measurement
from scipy.stats import beta, kstest

from prulab.linalg import (
    RandomSeed,
    ResourceLimitError,
    diamond_distance_unitaries,
    haar_unitary,
    is_unitary,
    memory_budget_bytes,
    set_memory_budget_bytes,
)
from prulab.tomography import (
    MAX_QUERIES,
    ChannelOracle,
    measured_basis_vectors,
    naive_process_tomography,
    planned_queries,
)
from prulab.util import wilson_interval


class TestChannelOracle:
    def test_counter_increments_per_application(self):
        orc = ChannelOracle(haar_unitary(2, RandomSeed(0)))
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        for k in range(5):
            orc.apply(state)
        assert orc.queries == 5

    def test_applies_channel_with_ancilla(self):
        u = haar_unitary(2, RandomSeed(1))
        orc = ChannelOracle(u)
        psi = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0])).astype(complex)
        out = orc.apply(psi)
        expect = np.kron(u @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(out, expect)

    def test_hidden_matrix_write_protected(self):
        u = haar_unitary(2, RandomSeed(2))
        orc = ChannelOracle(u)
        with pytest.raises(ValueError):
            orc._hidden[0, 0] = 0.0

    def test_shape_validation(self):
        orc = ChannelOracle(haar_unitary(2, RandomSeed(3)))
        with pytest.raises(ValueError):
            orc.apply(np.zeros(3, dtype=complex))


def random_state(size, rng):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestChannelOracleCache:
    """The one-entry output cache against the uncached per-call oracle."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tomography_matches_uncached_oracle(self, d):
        seed = RandomSeed(9500 + d)
        for i in range(3):
            u = haar_unitary(d, seed.child(2 * i))
            fast, slow = ChannelOracle(u), UncachedChannelOracle(u)
            r1 = naive_process_tomography(fast, 0.5, 0.1, seed.child(2 * i + 1))
            r2 = naive_process_tomography(slow, 0.5, 0.1, seed.child(2 * i + 1))
            assert r1.u_hat.tobytes() == r2.u_hat.tobytes()
            assert r1.queries_used == r2.queries_used == fast.queries == slow.queries

    def test_alternating_inputs_get_their_own_outputs(self):
        u = haar_unitary(3, RandomSeed(30))
        orc, ref = ChannelOracle(u), UncachedChannelOracle(u)
        rng = np.random.default_rng(31)
        a, b = random_state(6, rng), random_state(6, rng)
        for state in (a, b, a):
            out = orc.apply(state)
            assert out.tobytes() == ref.apply(state).tobytes()
            assert np.allclose(out, np.kron(u, np.eye(2)) @ state)
        assert orc.queries == 3

    def test_same_bytes_different_dtype(self):
        u = haar_unitary(2, RandomSeed(32))
        orc, ref = ChannelOracle(u), UncachedChannelOracle(u)
        z = random_state(4, np.random.default_rng(33))
        x = z.view(np.float64)
        assert z.tobytes() == x.tobytes()
        out_z, out_x = orc.apply(z), orc.apply(x)
        assert out_z.dtype == complex and out_z.shape == (4,)
        assert out_x.dtype == complex and out_x.shape == (8,)
        assert out_z.tobytes() == ref.apply(z).tobytes()
        assert out_x.tobytes() == ref.apply(x).tobytes()
        assert np.allclose(out_x, np.kron(u, np.eye(4)) @ x)

    def test_state_edited_in_place_misses(self):
        u = haar_unitary(2, RandomSeed(34))
        orc, ref = ChannelOracle(u), UncachedChannelOracle(u)
        rng = np.random.default_rng(35)
        state = random_state(4, rng)
        first = orc.apply(state).copy()
        state[:] = random_state(4, rng)
        out = orc.apply(state)
        assert out.tobytes() == ref.apply(state).tobytes()
        assert not np.allclose(out, first)

    def test_output_is_read_only(self):
        u = haar_unitary(2, RandomSeed(36))
        orc, ref = ChannelOracle(u), UncachedChannelOracle(u)
        state = random_state(4, np.random.default_rng(37))
        out = orc.apply(state)
        with pytest.raises(ValueError):
            out[0] = 0.0
        with pytest.raises(ValueError):
            out.base[0, 0] = 0.0
        assert orc.apply(state).tobytes() == ref.apply(state).tobytes()

    def test_cached_call_counts_one_query(self):
        orc = ChannelOracle(haar_unitary(2, RandomSeed(38)))
        state = random_state(4, np.random.default_rng(39))
        first = orc.apply(state)
        assert orc.apply(state) is first
        assert orc.queries == 2


class TestChannelOracleRejects:
    @pytest.mark.parametrize("hidden", [
        np.ones((2, 2)),
        np.full((2, 2), np.nan),
        np.eye(3)[:, :2],
    ], ids=["not-unitary", "nan", "not-square"])
    def test_hidden_matrix_must_be_unitary(self, hidden):
        with pytest.raises(ValueError, match="square and unitary"):
            ChannelOracle(hidden)

    @pytest.mark.parametrize("state, reason", [
        (np.zeros(0, dtype=complex), "nonempty"),
        (np.array([1.0, 0.0], dtype=object), "numeric"),
    ], ids=["empty", "object-dtype"])
    def test_bad_state_counts_no_query(self, state, reason):
        orc = ChannelOracle(np.eye(2))
        with pytest.raises(ValueError, match=reason):
            orc.apply(state)
        assert orc.queries == 0


def unit_rows(shots, dim, rng):
    z = rng.standard_normal((shots, dim)) + 1j * rng.standard_normal((shots, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def measured_overlaps(sampler, phis, rng, chunk=4096):
    vs = np.concatenate([sampler(phis[i:i + chunk], rng)
                         for i in range(0, len(phis), chunk)])
    return np.abs(np.einsum("si,si->s", vs.conj(), phis)) ** 2


class TestMeasuredBasisVectors:
    @pytest.mark.parametrize("sampler, dim, shots", [
        (measured_basis_vectors, 4, 200_000),
        (measured_basis_vectors, 16, 200_000),
        (haar_basis_measurement, 4, 100_000),
        (haar_basis_measurement, 16, 40_000),
    ], ids=["direct-4", "direct-16", "qr-4", "qr-16"])
    def test_overlap_moments_are_exact(self, sampler, dim, shots):
        # |<w|phi>|^2 ~ Beta(2, D-1); each moment within 5 standard errors
        # of the exact law
        m1 = 2 / (dim + 1)
        m2 = 6 / ((dim + 1) * (dim + 2))
        m4 = 120 / ((dim + 1) * (dim + 2) * (dim + 3) * (dim + 4))
        rng = np.random.default_rng(20)
        x = measured_overlaps(sampler, unit_rows(shots, dim, rng), rng)
        assert abs(x.mean() - m1) <= 5 * math.sqrt((m2 - m1**2) / shots)
        assert abs((x**2).mean() - m2) <= 5 * math.sqrt((m4 - m2**2) / shots)

    @pytest.mark.parametrize("dim", [4, 16])
    def test_overlap_law_is_beta(self, dim):
        rng = np.random.default_rng(21)
        x = measured_overlaps(measured_basis_vectors, unit_rows(20_000, dim, rng), rng)
        assert kstest(x, beta(2, dim - 1).cdf).pvalue > 0.01

    def test_averaged_shadow_converges_to_the_measured_state(self):
        dim, shots, chunk = 16, 200_000, 20_000
        rng = np.random.default_rng(22)
        phi = unit_rows(1, dim, rng)[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for _ in range(shots // chunk):
            vs = measured_basis_vectors(np.tile(phi, (chunk, 1)), rng)
            acc += vs.T @ vs.conj()
        shadow = (dim + 1) * acc / shots - np.eye(dim)
        assert np.abs(shadow - np.outer(phi, phi.conj())).max() < 0.02


class TestNaiveTomography:
    def test_diameter_radius_needs_no_queries(self):
        orc = ChannelOracle(haar_unitary(3, RandomSeed(4)))
        res = naive_process_tomography(orc, 2.0, 0.1, RandomSeed(5))
        assert res.queries_used == 0
        assert np.allclose(res.u_hat, np.eye(3))

    def test_deterministic_for_fixed_seed(self):
        u = haar_unitary(2, RandomSeed(6))
        r1 = naive_process_tomography(ChannelOracle(u), 0.5, 0.2, RandomSeed(7))
        r2 = naive_process_tomography(ChannelOracle(u), 0.5, 0.2, RandomSeed(7))
        assert np.array_equal(r1.u_hat, r2.u_hat)
        assert r1.queries_used == r2.queries_used

    def test_query_count_matches_plan(self):
        u = haar_unitary(2, RandomSeed(8))
        orc = ChannelOracle(u)
        res = naive_process_tomography(orc, 0.4, 0.15, RandomSeed(9))
        assert res.queries_used == planned_queries(2, 0.4, 0.15) == orc.queries

    def test_estimate_exactly_unitary(self):
        u = haar_unitary(2, RandomSeed(10))
        res = naive_process_tomography(ChannelOracle(u), 0.5, 0.2, RandomSeed(11))
        assert is_unitary(res.u_hat, 1e-10)

    def test_contract_small_sample(self):
        trials, eps, eta = 40, 0.3, 0.1
        seed = RandomSeed(12)
        fails = 0
        for i in range(trials):
            u = haar_unitary(2, seed.child(2 * i))
            res = naive_process_tomography(ChannelOracle(u), eps, eta,
                                           seed.child(2 * i + 1))
            fails += int(diamond_distance_unitaries(u, res.u_hat) > eps)
        _, half = wilson_interval(fails, trials)
        assert fails / trials <= eta + half

    @pytest.mark.parametrize("d", [2, 3])
    def test_sampled_index_in_range_when_cdf_falls_short_of_one(self, d):
        class TopUniform(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.full(size, np.nextafter(1.0, 0.0))

        class TopUniformSeed(RandomSeed):
            def generator(self):
                return TopUniform(super().generator().bit_generator)

        u = haar_unitary(d, RandomSeed(18))
        res = naive_process_tomography(ChannelOracle(u), 0.5, 0.2, TopUniformSeed(19))
        assert is_unitary(res.u_hat, 1e-10)

    def test_no_qr_factorisation(self, monkeypatch):
        orc = ChannelOracle(haar_unitary(4, RandomSeed(23)))
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        res = naive_process_tomography(orc, 0.5, 0.1, RandomSeed(24))
        assert calls == []
        assert res.queries_used == orc.queries == planned_queries(4, 0.5, 0.1)

    def test_resource_cap(self):
        # 8,968,273 planned queries at (d, eps, eta) = (4, 0.01, 0.01)
        assert planned_queries(4, 0.01, 0.01) > MAX_QUERIES
        orc = ChannelOracle(haar_unitary(4, RandomSeed(13)))
        with pytest.raises(ResourceLimitError, match=f"cap is {MAX_QUERIES}"):
            naive_process_tomography(orc, 0.01, 0.01, RandomSeed(14))
        assert orc.queries == 0

    def test_count_past_float_range_is_refused_from_its_log(self):
        # eps^2 underflows at 1e-300 and d^3 / eps^2 overflows at 1e-160;
        # d^3 alone is past every float at d = 10^110, and (10^5, 0.01)
        # plans 4.2e19 queries, past 2^53 but a finite float
        refused = rf"over 2\^53 queries, cap is {MAX_QUERIES}"
        for d, eps in [(3, 1e-300), (3, 1e-160), (10**110, 1.0), (10**5, 1e-2)]:
            with pytest.raises(ResourceLimitError, match=refused):
                planned_queries(d, eps, 0.5)
        # 1 / eta overflows at a subnormal eta, whose count is small
        for eta in (1e-320, 5e-324):
            assert planned_queries(1, 1.9, eta) == math.ceil(2.5 / 1.9**2 * (1 - math.log(eta)))
        assert planned_queries(3, 1e-3, 1e-320) == 49_803_338_761

    def test_working_set_is_budgeted_before_any_query(self):
        # 601 queries at d = 8: six complex 64 x 64 arrays and eight complex
        # 601 x 64 arrays
        charge = 16 * 64 * (6 * 64 + 8 * 601)
        before = memory_budget_bytes()
        try:
            set_memory_budget_bytes(charge - 1)
            orc = ChannelOracle(haar_unitary(8, RandomSeed(40)))
            with pytest.raises(ResourceLimitError, match="tomography working set needs"):
                naive_process_tomography(orc, 1.9, 0.5, RandomSeed(41))
            assert orc.queries == 0
            set_memory_budget_bytes(charge)
            res = naive_process_tomography(orc, 1.9, 0.5, RandomSeed(41))
        finally:
            set_memory_budget_bytes(before)
        assert res.queries_used == orc.queries == planned_queries(8, 1.9, 0.5) == 601

    def test_large_dimension_refused_under_the_query_cap(self):
        # 1.92M planned queries pass the cap, but the 19600^2 accumulator
        # alone is 6.1 GB.  A query fails the test at once, before the
        # first chunk's gigabytes of draws would be allocated.
        class NoQueries(ChannelOracle):
            def apply(self, state):
                raise AssertionError("queried before the working set was charged")

        assert planned_queries(140, 1.9, 0.99) <= MAX_QUERIES
        orc = NoQueries(haar_unitary(140, RandomSeed(42)))
        with pytest.raises(ResourceLimitError, match="tomography working set needs"):
            naive_process_tomography(orc, 1.9, 0.99, RandomSeed(43))

    def test_parameter_validation(self):
        orc = ChannelOracle(haar_unitary(2, RandomSeed(15)))
        with pytest.raises(ValueError):
            naive_process_tomography(orc, 0.0, 0.1, RandomSeed(16))
        with pytest.raises(ValueError):
            naive_process_tomography(orc, 0.5, 0.0, RandomSeed(17))

