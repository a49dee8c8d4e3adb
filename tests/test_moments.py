import functools
import itertools

import numpy as np
import pytest

from helpers import (
    choi,
    compose_ensemble,
    is_completely_positive,
    is_symmetric_ensemble_loop,
    is_trace_preserving,
    permutation_gram_cycles,
    relative_eps_scipy,
    symmetric_composition_check,
    tpe_distance,
    traced_peak,
)
from prulab import linalg, moments
from prulab.ensembles import EnsembleSpec, reference_design
from prulab.linalg import (
    RandomSeed,
    ResourceLimitError,
    haar_unitary,
    haar_unitary_rng,
    memory_budget_bytes,
    set_memory_budget_bytes,
)
from prulab.moments import (
    diamond_design_bounds,
    haar_moment_operator,
    is_symmetric_ensemble,
    moment_operator,
    _permutation_operator,
)


@pytest.fixture(scope="module")
def pauli1():
    return reference_design("pauli-1")


@pytest.fixture(scope="module")
def cliff1():
    return reference_design("clifford-1")


class TestMomentOperator:
    def test_singleton_identity_is_identity_superop(self):
        ens = EnsembleSpec(2, [np.eye(2, dtype=complex)])
        for t in (1, 2):
            m = moment_operator(ens, t)
            assert np.allclose(m, np.eye(4**t), atol=1e-12)

    def test_pauli_twirl_equals_haar_t1(self, pauli1):
        mv = moment_operator(pauli1, 1)
        mh = haar_moment_operator(2, 1)
        assert np.abs(mv - mh).max() < 1e-10

    def test_clifford_equals_haar_t3(self, cliff1):
        mv = moment_operator(cliff1, 3)
        mh = haar_moment_operator(2, 3)
        assert np.abs(mv - mh).max() < 1e-9

    def test_trace_preserving_and_cp(self, cliff1):
        for ens, t in ((cliff1, 2), (reference_design("pauli-1"), 1)):
            m = moment_operator(ens, t)
            assert is_trace_preserving(m)
            assert is_completely_positive(m)

    def test_budget_guard(self):
        ens = EnsembleSpec(2, [np.eye(2, dtype=complex)])
        from prulab.linalg import memory_budget_bytes, set_memory_budget_bytes

        old = memory_budget_bytes()
        try:
            set_memory_budget_bytes(10_000)
            with pytest.raises(ResourceLimitError):
                moment_operator(ens, 3)
        finally:
            set_memory_budget_bytes(old)


class TestHaarMomentOperator:
    def test_t1_depolarizes(self):
        m = haar_moment_operator(2, 1)
        for basis in (np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]]),
                      np.array([[0, -1j], [1j, 0]])):
            assert np.abs(m @ basis.reshape(-1)).max() < 1e-12
        x = np.array([[0.3, 0], [0, 0.7]], dtype=complex)
        assert np.allclose((m @ x.reshape(-1)).reshape(2, 2), np.trace(x) * np.eye(2) / 2)

    @pytest.mark.parametrize("d,t", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
    def test_projector_properties(self, d, t):
        m = haar_moment_operator(d, t)
        assert np.abs(m @ m - m).max() < 1e-9
        assert np.abs(m - m.conj().T).max() < 1e-9

    def test_matches_clifford_average_t3(self, cliff1):
        mh = haar_moment_operator(2, 3)
        mc = moment_operator(cliff1, 3)
        assert np.abs(mh - mc).max() < 1e-9

    def test_gram_degenerate_t_above_d(self):
        # t=3 > d=2 makes the permutation Gram singular; pseudo-inverse path
        m = haar_moment_operator(2, 3)
        assert np.abs(m @ m - m).max() < 1e-9

    def test_order_cap(self):
        with pytest.raises(ValueError):
            haar_moment_operator(2, 5)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_operator_gram_equals_cycle_gram(self, d, t):
        # the Gram of the permutation operators is exact in floats
        vecs = np.stack([_permutation_operator(p, d).reshape(-1)
                         for p in itertools.permutations(range(t))], axis=1)
        assert np.array_equal(vecs.T @ vecs, permutation_gram_cycles(d, t))

    def test_permutation_operator_moves_factors(self):
        # factor j of a product vector lands in factor perm[j]
        rng = RandomSeed(21).generator()
        factors = rng.integers(-9, 10, size=(3, 3)).astype(float)  # exact products
        for perm in itertools.permutations(range(3)):
            moved = [None] * 3
            for j, pj in enumerate(perm):
                moved[pj] = factors[j]
            assert np.array_equal(_permutation_operator(perm, 3) @ functools.reduce(np.kron, factors),
                                  functools.reduce(np.kron, moved))


class TestTpeDistance:
    def test_exact_designs_vanish(self, pauli1, cliff1):
        assert tpe_distance(pauli1, 1) <= 1e-10
        for t in (1, 2, 3):
            assert tpe_distance(cliff1, t) <= 1e-9

    def test_clifford_not_a_4_design(self, cliff1):
        assert tpe_distance(cliff1, 4) > 0.5

    def test_singleton_identity_matches_direct_svd(self):
        ens = EnsembleSpec(2, [np.eye(2, dtype=complex)])
        lam = tpe_distance(ens, 1)
        diff = np.eye(4) - haar_moment_operator(2, 1)
        direct = np.linalg.svd(diff, compute_uv=False)[0]
        assert lam == pytest.approx(direct, abs=1e-12)

    def test_difference_annihilates_identity(self, cliff1):
        for t in (1, 2):
            mv = moment_operator(cliff1, t)
            mh = haar_moment_operator(2, t)
            eye = np.eye(2**t, dtype=complex)
            assert np.abs((mv - mh) @ eye.reshape(-1)).max() < 1e-9


class TestDesignDistanceBounds:
    def test_exact_design_all_zero(self, cliff1):
        rep = diamond_design_bounds(cliff1, 2)
        assert rep.lambda_tpe <= 1e-9
        assert rep.diamond_upper <= 1e-8
        assert rep.diamond_lower is not None and rep.diamond_lower <= 1e-9
        assert rep.eps_relative is not None and rep.eps_relative <= 1e-7

    def test_upper_is_dt_lambda(self, cliff1):
        rep = diamond_design_bounds(cliff1, 4)
        assert rep.diamond_upper == pytest.approx((2**4) * rep.lambda_tpe)
        # arithmetic shape of the conversion: lambda 0.1 at d=2, t=2 -> 0.4
        assert (2**2) * 0.1 == pytest.approx(0.4)

    def test_lower_le_relative_eps_when_symmetric(self, cliff1):
        rep = diamond_design_bounds(cliff1, 4)
        assert rep.symmetric
        assert rep.diamond_lower <= rep.eps_relative + 1e-9

    def test_lower_absent_for_asymmetric(self):
        u = haar_unitary(2, RandomSeed(8))
        ens = EnsembleSpec(2, [u, u @ u])
        rep = diamond_design_bounds(ens, 1)
        assert not rep.symmetric
        assert rep.diamond_lower is None

    def test_invariant_lower_le_upper(self, cliff1, pauli1):
        for ens, t in ((cliff1, 3), (cliff1, 4), (pauli1, 1)):
            rep = diamond_design_bounds(ens, t)
            if rep.diamond_lower is not None:
                assert rep.diamond_lower <= rep.diamond_upper + 1e-12

    def test_not_relative_flag_on_synthetic_leak(self, monkeypatch, pauli1):
        ch = choi(haar_moment_operator(2, 2))
        evals, evecs = np.linalg.eigh((ch + ch.conj().T) / 2)
        v = evecs[:, 0]  # null direction of the Haar Choi
        assert evals[0] < 1e-9
        leak = ch + 0.5 * np.outer(v, v.conj())
        # the reshuffle is its own inverse: this moment operator has Choi matrix leak
        monkeypatch.setattr(moments, "moment_operator", lambda ens, t: choi(leak))
        rep = diamond_design_bounds(pauli1, 2)
        assert rep.not_relative and rep.eps_relative is None


def _random_ensemble(d: int, m: int, seed: int) -> EnsembleSpec:
    rng = RandomSeed(seed).generator()
    us = [haar_unitary(d, RandomSeed(seed, i)) for i in range(m)]
    return EnsembleSpec(d, us, rng.dirichlet(np.ones(m)))


class TestRelativeEps:
    """The scaled ordinary eigenproblem against scipy's generalized one."""

    @staticmethod
    def _check(ens, t):
        rep = diamond_design_bounds(ens, t)
        eps_ref, not_rel_ref = relative_eps_scipy(moment_operator(ens, t),
                                                  haar_moment_operator(ens.dim, t))
        assert rep.not_relative == not_rel_ref is False
        assert rep.eps_relative == pytest.approx(eps_ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_reference_designs(self, pauli1, cliff1, t):
        self._check(pauli1, t)
        self._check(cliff1, t)

    @pytest.mark.parametrize("d, t, seed", [
        (2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 4), (3, 1, 5), (3, 2, 6), (3, 3, 7),
    ])
    def test_random_ensembles(self, d, t, seed):
        self._check(_random_ensemble(d, 5, seed), t)


def _dagger_closed(d: int, pairs: int, seed: int) -> tuple[list, np.ndarray]:
    """Shuffled U, U^dagger pairs, each element under a random global phase,
    with equal weights on each pair."""
    rng = RandomSeed(seed).generator()
    us, ws = [], []
    for i in range(pairs):
        u = haar_unitary(d, RandomSeed(seed, i))
        w = rng.uniform(0.5, 1.5)
        us += [u * np.exp(2j * np.pi * rng.random()),
               u.conj().T * np.exp(2j * np.pi * rng.random())]
        ws += [w, w]
    order = rng.permutation(len(us))
    return [us[k] for k in order], np.asarray(ws)[order]


def _pairing_case(kind: str, seed: int) -> tuple[EnsembleSpec, bool]:
    """A seeded ensemble of one kind with the dagger-closure verdict it
    must get."""
    rng = RandomSeed(seed, 1).generator()
    d = 2 + seed % 3
    us, ws = _dagger_closed(d, 4, seed)
    if kind == "closed":
        expected = True
    elif kind == "missing-partner":
        drop = int(rng.integers(len(us)))
        us, ws = us[:drop] + us[drop + 1:], np.delete(ws, drop)
        expected = False
    elif kind == "unequal-weights":
        ws = ws.copy()
        ws[int(rng.integers(len(us)))] *= 1 + 1e-6
        expected = False
    elif kind == "repeated-closed":
        # U, U, U^dagger, U^dagger: each copy takes its own partner
        us, ws = us + us, np.concatenate([ws, ws])
        expected = True
    else:  # repeated-unmatched: one U repeated without a second U^dagger
        k = int(rng.integers(len(us)))
        us, ws = us + [us[k]], np.append(ws, ws[k])
        expected = False
    return EnsembleSpec(d, us, ws / ws.sum()), expected


_PAIRING_KINDS = ["closed", "missing-partner", "unequal-weights", "repeated-closed",
                  "repeated-unmatched"]


class TestDaggerPairing:
    """Per-row pairing against the double loop of np.trace calls."""

    @pytest.mark.parametrize("kind", _PAIRING_KINDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop(self, kind, seed):
        ens, expected = _pairing_case(kind, seed)
        assert is_symmetric_ensemble(ens) == is_symmetric_ensemble_loop(ens) == expected

    def test_reference_designs(self, pauli1, cliff1):
        for ens in (pauli1, cliff1):
            assert is_symmetric_ensemble(ens) == is_symmetric_ensemble_loop(ens) is True

    def test_random_ensembles(self):
        # Haar elements are almost surely not each other's daggers
        for seed in range(10):
            ens = _random_ensemble(2 + seed % 2, 4, seed)
            assert is_symmetric_ensemble(ens) == is_symmetric_ensemble_loop(ens) is False

    def test_rows_are_charged_to_the_budget(self, cliff1):
        old = memory_budget_bytes()
        try:
            set_memory_budget_bytes(33 * 24 + 16 * 2 * 2 - 1)
            with pytest.raises(ResourceLimitError, match="dagger pairing"):
                is_symmetric_ensemble(cliff1)
        finally:
            set_memory_budget_bytes(old)


class TestMemoryCharges:
    """Each entry point's tracemalloc peak stays within the largest charge it
    makes, with 64 KiB of slack.  tracemalloc does not see the workspace
    LAPACK takes inside eigh and svd, so neither the peak nor the charges
    count it."""

    @pytest.mark.parametrize("make, t", [
        (lambda: EnsembleSpec(3, [haar_unitary(3, RandomSeed(30, i)) for i in range(10)]), 3),
        (lambda: reference_design("clifford-1"), 4),
    ], ids=["haar10-d3-t3", "clifford-1-t4"])
    def test_design_distance(self, monkeypatch, make, t):
        # the moment operators stayed held through the Choi steps, which
        # copied each Choi matrix twice: 2.4x the charge on Haar elements
        ens = make()
        _, peak, charged = traced_peak(lambda: diamond_design_bounds(ens, t), monkeypatch,
                                       moments, linalg)
        assert peak <= max(charged) + (64 << 10)

    @staticmethod
    def dagger_paired_stack():
        # 2,500 pairs U, U^dagger at d = 8, so that every row is read
        rng = RandomSeed(31).generator()
        us = np.empty((5000, 8, 8), dtype=complex)
        for u, ud in zip(us[::2], us[1::2]):
            u[...] = haar_unitary_rng(8, rng)
            ud[...] = u.conj().T
        return us

    def test_dagger_pairing(self, monkeypatch):
        # the stack of the elements, once copied, is the caller's now
        ens = EnsembleSpec(8, self.dagger_paired_stack())
        symmetric, peak, charged = traced_peak(lambda: is_symmetric_ensemble(ens), monkeypatch,
                                               moments)
        assert symmetric
        assert peak <= max(charged) + (64 << 10)

    def test_dagger_pairing_of_a_transposed_stack(self, monkeypatch):
        # the transposes pair up as the elements do; kept as a view, the
        # stack was copied whole by the pairing's reshape, 32x its charge
        ens = EnsembleSpec(8, self.dagger_paired_stack().transpose(0, 2, 1))
        symmetric, peak, charged = traced_peak(lambda: is_symmetric_ensemble(ens), monkeypatch,
                                               moments)
        assert symmetric
        assert peak <= max(charged) + (64 << 10)


class TestSymmetry:
    def test_clifford_group_symmetric(self, cliff1):
        assert is_symmetric_ensemble(cliff1)

    def test_asymmetric_detected(self):
        u = haar_unitary(3, RandomSeed(14))
        ens = EnsembleSpec(3, [u, u @ u])
        assert not is_symmetric_ensemble(ens)

    def test_composition_multiplicative(self):
        u = haar_unitary(2, RandomSeed(3))
        v = haar_unitary(2, RandomSeed(4))
        ens = EnsembleSpec(2, [u, u.conj().T, v, v.conj().T])
        r1 = symmetric_composition_check(ens, 1, 1)
        assert r1.lambda_composed == pytest.approx(r1.lambda_base)
        r2 = symmetric_composition_check(ens, 2, 1)
        assert 0 < r2.lambda_base < 1
        assert r2.lambda_composed == pytest.approx(r2.lambda_base**2, abs=1e-10)

    def test_exact_design_composes_to_zero(self, pauli1):
        rep = symmetric_composition_check(pauli1, 2, 1)
        assert rep.lambda_composed <= 1e-9

    def test_rejects_asymmetric(self):
        u = haar_unitary(2, RandomSeed(5))
        ens = EnsembleSpec(2, [u, u @ u])
        with pytest.raises(ValueError):
            symmetric_composition_check(ens, 2, 1)

    def test_compose_ensemble_size(self):
        u = haar_unitary(2, RandomSeed(6))
        ens = EnsembleSpec(2, [u, u.conj().T])
        assert len(compose_ensemble(ens, 3)) == 8
