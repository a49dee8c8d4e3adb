import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from helpers import (
    PolyaUrnLoop,
    collision_count,
    empirical_counts,
    haar_state,
    identity_tableau,
    one_to_one_modulo_phase,
    partition_probability_dirichlet,
    partition_probability_urn,
    pauli_matrix,
    pfc_dense,
    pfc_phase_values,
    single_qubit_cliffords,
    total_variation,
)
from prulab.distinguisher import HaarDenseOracle, HaarUrnOracle, PFCOracle
from prulab.ensembles import (
    EnsembleSpec,
    PolyaUrnSampler,
    reference_design,
    sample_pfc,
)
from prulab.linalg import (
    RandomSeed,
    ResourceLimitError,
    is_unitary,
    memory_budget_bytes,
    set_memory_budget_bytes,
)
from prulab.stabilizer import measurement_support, tableau_to_unitary


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


class TestPFCSample:
    @pytest.mark.parametrize("n", [1, 3])
    def test_dense_is_unitary_product(self, n):
        d = 1 << n
        s = sample_pfc(n, RandomSeed(5))
        u = pfc_dense(s)
        assert is_unitary(u, 1e-9)
        c = tableau_to_unitary(s.clifford)
        f = np.diag(pfc_phase_values(s, np.arange(d)))
        p = np.zeros((d, d))
        p[s.permutation, np.arange(d)] = 1.0
        assert np.allclose(u, p @ f @ c, atol=1e-9)

    def test_determinism_byte_identical(self):
        a = sample_pfc(4, RandomSeed(9))
        b = sample_pfc(4, RandomSeed(9))
        assert np.array_equal(a.permutation, b.permutation)
        assert a.phase_key == b.phase_key
        assert a.clifford == b.clifford

    def test_range_checks(self):
        with pytest.raises(ValueError):
            sample_pfc(0, RandomSeed(0))
        with pytest.raises(ValueError):
            sample_pfc(31, RandomSeed(0))

    def test_permutation_is_charged_to_the_budget(self):
        # the 2^n int64 permutation: 8 MiB at n = 20, 512 KiB at n = 16
        before = memory_budget_bytes()
        set_memory_budget_bytes(1 << 20)
        try:
            with pytest.raises(ResourceLimitError, match="PFC permutation"):
                sample_pfc(20, RandomSeed(0))
            assert sample_pfc(16, RandomSeed(0)).permutation.nbytes == 8 << 16
        finally:
            set_memory_budget_bytes(before)

    def test_phase_values_signs(self):
        s = sample_pfc(5, RandomSeed(1))
        vals = pfc_phase_values(s, np.arange(32))
        assert set(np.round(vals.real).astype(int)) <= {-1, 1}
        assert np.abs(vals.imag).max() == 0
        assert is_unitary(pfc_dense(s), 1e-9)

    def test_first_column_profile_matches_support(self):
        # |amplitudes|^2 of the first dense column: uniform over a set whose
        # size is the measurement support of the Clifford factor
        seed = RandomSeed(77)
        for k in range(20):
            s = sample_pfc(3, seed.child(k))
            col = np.abs(pfc_dense(s)[:, 0]) ** 2
            hot = col[col > 1e-12]
            size = 1 << measurement_support(s.clifford).k_dim
            assert hot.size == size
            assert np.allclose(hot, 1.0 / size, atol=1e-9)


class TestPFCMeasurement:
    def test_identity_pfc_outcomes(self):
        from prulab.ensembles import PFCSample

        s = PFCSample(3, np.arange(8), 0, identity_tableau(3))
        out = PFCOracle(s, RandomSeed(1)).draw(6)
        assert not out.any()

    def test_tv_against_dense_simulation(self):
        n, shots = 4, 10_000
        s = sample_pfc(n, RandomSeed(21))
        out = PFCOracle(s, RandomSeed(22)).draw(shots)
        emp = np.bincount(out.astype(np.int64), minlength=2**n) / shots
        probs = np.abs(pfc_dense(s)[:, 0]) ** 2
        assert 0.5 * np.abs(emp - probs).sum() <= 0.05

    def test_collision_counts_invariant_under_permutation(self):
        n = 4
        s = sample_pfc(n, RandomSeed(31))
        out = PFCOracle(s, RandomSeed(5)).draw(64)
        plain = s.permutation.argsort()[out]  # undo the relabeling
        assert collision_count(out) == collision_count(plain)


class TestHaarMeasurement:
    def test_d1_constant(self):
        assert not HaarDenseOracle(1, RandomSeed(0)).draw(5).any()

    def test_pairwise_collision_rate(self):
        d, trials = 16, 4000
        seed = RandomSeed(50)
        hits = 0
        for i in range(trials):
            a, b = HaarDenseOracle(d, seed.child(i)).draw(2)
            hits += int(a == b)
        p = 2 / (d + 1)
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3.5 * se

    def test_dense_labels_in_range_when_cdf_falls_short_of_one(self):
        class TopUniform(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.full(size, np.nextafter(1.0, 0.0))

        class TopUniformSeed:
            """RandomSeed(1)'s stream with every uniform at the top of [0, 1)."""

            def generator(self):
                return TopUniform(RandomSeed(1).generator().bit_generator)

        d = 16
        probs = np.abs(haar_state(d, RandomSeed(1).generator())) ** 2
        assert np.cumsum(probs / probs.sum())[-1] < np.nextafter(1.0, 0.0)
        out = HaarDenseOracle(d, TopUniformSeed()).draw(3)
        assert (out < d).all(), out

    def test_urn_single_draw(self):
        # a first draw is always fresh: the category of the third RNG call,
        # RandomSeed(1).generator()'s integers(0, 7, size=1) after two random(1)
        out = HaarUrnOracle(7, RandomSeed(1)).draw(1)
        assert out.tolist() == [5]

    def test_urn_collision_rate_d2(self):
        trials = 40_000
        rng = RandomSeed(51).generator()
        hits = 0
        for _ in range(trials):
            a, b = PolyaUrnSampler(2, rng).draw(2)
            hits += int(a == b)
        se = np.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(hits / trials - 2 / 3) < 3.5 * se

    def test_urn_state_persists_across_draws(self):
        rng = RandomSeed(52).generator()
        urn = PolyaUrnSampler(3, rng)
        a = urn.draw(4)
        b = urn.draw(4)
        assert len(set(a.tolist()) | set(b.tolist())) <= 3

    @pytest.mark.parametrize("d", [1, 3, 1024, 1 << 20])
    def test_urn_labels_match_the_per_shot_loop(self, d):
        # draws of mixed lengths share one history, in a seed-dependent order
        for seed in range(10):
            lengths = np.random.default_rng(seed).permutation([0, 1, 5, 32, 4096, 5000])
            fast = PolyaUrnSampler(d, np.random.default_rng(seed))
            loop = PolyaUrnLoop(d, np.random.default_rng(seed))
            for shots in [*lengths.tolist(), 1, 5, 0, 32]:
                got, want = fast.draw(shots), loop.draw(shots)
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want), (d, seed, shots)

    def test_urn_outcomes_rename_the_first_appearance_labels(self):
        # the grid of test_urn_labels_match_the_per_shot_loop; the digest is
        # of the urn that numbered its categories by first appearance, so the
        # outcomes are a one-to-one renaming of those labels per history
        def first_appearance(x):
            _, first, inv = np.unique(x, return_index=True, return_inverse=True)
            rank = np.empty(first.size, dtype=np.int64)
            rank[np.argsort(first)] = np.arange(first.size)
            return rank[inv]

        h = hashlib.sha256()
        for d in [1, 3, 1024, 1 << 20]:
            for seed in range(10):
                lengths = np.random.default_rng(seed).permutation([0, 1, 5, 32, 4096, 5000])
                urn = PolyaUrnSampler(d, np.random.default_rng(seed))
                out = np.concatenate([urn.draw(s) for s in [*lengths.tolist(), 1, 5, 0, 32]])
                assert out.dtype == np.int64 and out.min() >= 0 and out.max() < d, (d, seed)
                h.update(first_appearance(out).tobytes())
        assert h.hexdigest() == "19f5e5f1196199da02ac53c16789b1c00615dca3e111cd26f66cfd1de9500eb5"

    def test_urn_draws_are_uniform_basis_indices(self):
        # every single draw of a Haar state is uniform over the d basis
        # indices; chi-square of each position of 20,000 four-shot urns,
        # bound the 0.999 quantile of chi-square with 7 degrees of freedom
        d, trials = 8, 20_000
        rng = RandomSeed(54).generator()
        out = np.array([PolyaUrnSampler(d, rng).draw(4) for _ in range(trials)])
        counts = np.stack([np.bincount(col, minlength=d) for col in out.T])
        chi2 = ((counts - trials / d) ** 2 / (trials / d)).sum(axis=1)
        assert counts.shape == (4, d) and (chi2 < 24.32).all(), chi2

    def test_urn_memory_does_not_grow_with_the_categories_seen(self):
        # at d = 2^40 nearly every draw is fresh; the urn keeps its int64
        # history (1.6 MB here, capacity doubling) and no per-category state
        urn = PolyaUrnSampler(1 << 40, RandomSeed(55).generator())
        tracemalloc.start()
        try:
            for _ in range(50):
                urn.draw(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak

    def test_urn_history_is_charged_where_it_grows(self):
        # 40 draws grow the history to 64 slots: the 32 held and the 64 of
        # its copy; a refused draw leaves the urn and its RNG as they were
        twin = PolyaUrnSampler(8, RandomSeed(56).generator())
        want = [twin.draw(32), twin.draw(8)]
        urn = PolyaUrnSampler(8, RandomSeed(56).generator())
        first = urn.draw(32)
        before = memory_budget_bytes()
        try:
            set_memory_budget_bytes(8 * (32 + 64) - 1)
            with pytest.raises(ResourceLimitError, match="Polya urn history needs 768 bytes"):
                urn.draw(8)
            set_memory_budget_bytes(8 * (32 + 64))
            rest = urn.draw(8)
        finally:
            set_memory_budget_bytes(before)
        assert np.array_equal(first, want[0]) and np.array_equal(rest, want[1])

    @pytest.mark.parametrize("first", [0, 3])
    def test_urn_resolves_the_longest_copy_chain(self, first):
        class ChainRng:
            """Draws 0, 1, 2 are fresh, each later one copies the one before."""

            def __init__(self):
                self.size = self.calls = 0

            def random(self, shots):
                self.calls += 1
                m = np.arange(self.size, self.size + shots)
                if self.calls % 2:  # the coins
                    return np.where(m < 3, 0.999, 0.0)
                return 1.0 - 0.5 / np.maximum(m, 1)  # copy_pick * m = m - 1/2

            def integers(self, low, high, size):
                self.size += size
                return np.arange(self.size - size, self.size)

        for shots in range(1, 70):
            fast, loop = PolyaUrnSampler(1, ChainRng()), PolyaUrnLoop(1, ChainRng())
            for n in (first, shots):
                got = fast.draw(n)
                assert np.array_equal(got, loop.draw(n)), (first, shots, got)
            assert got[-1] == min(first + shots, 3) - 1

    def test_urn_vs_dense_tv_small(self):
        d, t, trials = 8, 4, 20_000
        seed = RandomSeed(53)
        dense = [collision_count(HaarDenseOracle(d, seed.child(i)).draw(t))
                 for i in range(trials)]
        urn = [collision_count(HaarUrnOracle(d, seed.child(trials + i)).draw(t))
               for i in range(trials)]
        tv = total_variation(empirical_counts(dense), empirical_counts(urn),
                             trials, trials)
        assert tv <= 0.03

    def test_partition_probabilities_exact_agreement(self):
        for d in (1, 2, 3, 4):
            for t in (2, 3, 4):
                total = Fraction(0)
                for part in set_partitions(list(range(t))):
                    pd = partition_probability_dirichlet(d, [len(b) for b in part])
                    pu = partition_probability_urn(d, part)
                    assert pd == pu
                    total += pd
                assert total == 1

    def test_partition_urn_validates(self):
        with pytest.raises(ValueError):
            partition_probability_urn(4, [[0, 1], [1, 2]])


class TestReferenceDesigns:
    def test_pauli_group_n1(self):
        # the design read off tableaus against the Kronecker-product Paulis
        ens = reference_design("pauli-1")
        assert len(ens) == 4 and np.array_equal(ens.weights, np.full(4, 0.25))
        for u in ens.unitaries:
            assert is_unitary(u)
        paulis = [pauli_matrix([x], [z], 0) for x in (0, 1) for z in (0, 1)]
        assert one_to_one_modulo_phase(ens.unitaries, paulis)

    def test_clifford_group(self):
        # the design read off tableaus against the {H, S} closure
        us = single_qubit_cliffords()
        assert len(us) == 24
        for u in us:
            assert is_unitary(u, 1e-9)
        ens = reference_design("clifford-1")
        assert ens.dim == 2 and np.array_equal(ens.weights, np.full(24, 1 / 24))
        assert one_to_one_modulo_phase(ens.unitaries, us)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            reference_design("nope")

    def test_a_complex_stack_is_kept_as_it_is(self):
        stack = np.stack([np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)])
        ens = EnsembleSpec(2, stack)
        assert ens.unitaries.shape == (2, 2, 2) and np.shares_memory(ens.unitaries, stack)
        with pytest.raises(ValueError, match="ensemble element dimension mismatch"):
            EnsembleSpec(3, stack)

    def test_a_transposed_stack_is_made_contiguous(self):
        stack = np.stack([np.eye(2, dtype=complex), np.array([[0, 1j], [1, 0]])])
        ens = EnsembleSpec(2, stack.transpose(0, 2, 1))
        assert ens.unitaries.flags.c_contiguous
        assert np.array_equal(ens.unitaries, stack.transpose(0, 2, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="an ensemble needs unitaries"):
            EnsembleSpec(2, [])

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(2, [np.eye(2)], np.array([0.5]))

    @pytest.mark.parametrize("weights, cause", [
        ([1.0], "weights of shape (1,) for 2 unitaries"),
        ([0.25, 0.25, 0.5], "weights of shape (3,) for 2 unitaries"),
        ([[0.5, 0.5]], "weights of shape (1, 2) for 2 unitaries"),
        ([float("nan"), 1.0], "weight 0 is nan"),
        ([0.0, float("inf")], "weight 1 is inf"),
        ([-0.5, 1.5], "nonnegative"),
        ([0.5, 0.25], "sum to 1, got sum 0.75"),
    ], ids=["too-few", "too-many", "not-a-vector", "nan", "inf", "negative", "sum"])
    def test_weights_must_fit_the_unitaries(self, weights, cause):
        with pytest.raises(ValueError, match=re.escape(cause)):
            EnsembleSpec(2, [np.eye(2), np.eye(2)], weights)
