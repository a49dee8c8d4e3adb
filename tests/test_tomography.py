import math

import numpy as np
import pytest

from prulab.linalg import (
    RandomSeed,
    ResourceLimitError,
    diamond_distance_unitaries,
    haar_unitary,
    is_unitary,
)
from prulab.tomography import (
    ChannelOracle,
    naive_process_tomography,
    planned_queries,
    query_budget_reference,
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

    def test_resource_cap(self):
        orc = ChannelOracle(haar_unitary(4, RandomSeed(13)))
        with pytest.raises(ResourceLimitError):
            naive_process_tomography(orc, 0.01, 0.01, RandomSeed(14), max_queries=100)

    def test_parameter_validation(self):
        orc = ChannelOracle(haar_unitary(2, RandomSeed(15)))
        with pytest.raises(ValueError):
            naive_process_tomography(orc, 0.0, 0.1, RandomSeed(16))
        with pytest.raises(ValueError):
            naive_process_tomography(orc, 0.5, 0.0, RandomSeed(17))


class TestQueryBudgetReference:
    def test_eta_near_one_vanishes(self):
        assert query_budget_reference(4, 0.5, 0.999) < 0.1
        assert query_budget_reference(4, 0.5, 0.9999) < 0.01

    def test_adaptive_ratio_is_inverse_eps(self):
        d, eps, eta = 3, 0.2, 0.1
        na = query_budget_reference(d, eps, eta, "non-adaptive")
        ad = query_budget_reference(d, eps, eta, "adaptive")
        assert na / ad == pytest.approx(1 / eps)

    def test_worked_example(self):
        assert query_budget_reference(2, 0.5, 1 / 6) == pytest.approx(16 * math.log(6))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            query_budget_reference(2, 0.5, 0.1, "psychic")
