import dataclasses
import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GammaParams,
    _find_transvection,
    _int_to_bits,
    _transvect,
    gamma_amplitudes,
    gamma_state,
    gf2_rref,
    gf2_solve,
    identity_tableau,
    is_symplectic,
    measurement_support_bits,
    one_to_one_modulo_phase,
    pack_bits,
    pauli_matrix,
    sample_from_support_reduce,
    support_contains,
    support_members,
    single_qubit_cliffords,
    symplectic_from_index,
    symplectic_from_index_bits,
    tableau_blocks,
    tableau_from_blocks,
    tableau_from_json_dict,
    tableau_to_json_dict,
)
from prulab.linalg import RandomSeed, is_unitary
from prulab.stabilizer import (
    AffineSupport,
    Tableau,
    _transvections_from_e1,
    _xor_tables,
    clifford_tableau,
    full_support_probability,
    measurement_support,
    random_clifford_rng,
    sample_from_support,
    stabilizer_state_count,
    symplectic_group_order,
    tableau_to_statevector,
    tableau_to_unitary,
)


def random_clifford(n, seed):
    return random_clifford_rng(n, seed.generator())


def sample_measurement(t, shots, seed):
    return sample_from_support(measurement_support(t), shots, seed.generator())


def hadamards(n):
    zero = np.zeros(n, dtype=np.uint8)
    return gamma_state(GammaParams(n, np.zeros((n, n), dtype=np.uint8), zero, zero))


def tableau_of(g, r):
    """The tableau `random_clifford_rng` builds from symplectic matrix g and signs r."""
    rows = np.vstack([g[0::2], g[1::2]])
    return tableau_from_blocks(g.shape[0] // 2, rows[:, 0::2], rows[:, 1::2], r)


class ScriptedWords:
    """Stands in for a Generator: ``bit_generator.random_raw(k)`` returns the
    next k of the given uint64 words and records k in ``calls``.  It has no
    other method, so a sampler that reads it draws through random_raw alone."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = [int(w) for w in words]
        self.read = 0
        self.calls = []

    def random_raw(self, k):
        assert self.read + k <= len(self.words), "script ran out of words"
        self.calls.append(k)
        self.read += k
        return np.array(self.words[self.read - k:self.read], dtype=np.uint64)


def attempt_words(n, index, r, junk=0):
    """The raw words of one sampler attempt: ``index`` in the low bits, then
    the sign bits r, bit j being r_j, then ``junk`` in the unread high bits."""
    bits = symplectic_group_order(n).bit_length()
    count = -(-(bits + 2 * n) // 64)
    value = index | sum(b << (bits + j) for j, b in enumerate(r))
    value |= junk << (bits + 2 * n) & ((1 << 64 * count) - 1)
    return [value >> (64 * w) & (2**64 - 1) for w in range(count)]


def assert_same_support(t):
    got = measurement_support(t)
    basis, offset = measurement_support_bits(t)
    assert all(type(v) is int for v in (*got.basis, got.offset))
    assert got.basis == tuple(int(v) for v in pack_bits(basis))
    assert got.offset == int(pack_bits(offset))


class TestGF2:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_solve_consistent_systems(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=(4, 5)).astype(np.uint8)
        x_true = rng.integers(0, 2, size=5).astype(np.uint8)
        b = (a @ x_true) % 2
        x = gf2_solve(a, b.astype(np.uint8))
        assert x is not None
        assert np.array_equal((a @ x) % 2, b)

    def test_solve_inconsistent(self):
        a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        b = np.array([0, 1], dtype=np.uint8)
        assert gf2_solve(a, b) is None

    def test_rref_idempotent(self):
        a = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        m, piv = gf2_rref(a)
        m2, piv2 = gf2_rref(m)
        assert np.array_equal(m, m2) and piv == piv2


class TestSymplecticSampling:
    def test_enumeration_is_bijective_n1(self):
        mats = {symplectic_from_index(i, 1).tobytes() for i in range(6)}
        assert symplectic_group_order(1) == 6
        assert len(mats) == 6

    def test_symplectic_form_preserved(self):
        for n in (1, 2, 3):
            lam = np.zeros((2 * n, 2 * n), dtype=np.uint8)
            for i in range(n):
                lam[2 * i, 2 * i + 1] = lam[2 * i + 1, 2 * i] = 1
            order = symplectic_group_order(n)
            rng = np.random.default_rng(5)
            for _ in range(25):
                g = symplectic_from_index(int(rng.integers(order)), n)
                assert np.array_equal((g @ lam @ g.T) % 2, lam)

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_index_matches_bit_oracle(self, n):
        for i in range(symplectic_group_order(n)):
            got, want = symplectic_from_index(i, n), symplectic_from_index_bits(i, n)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.array_equal(got, want), i

    @pytest.mark.parametrize("n", [*range(3, 11), 63])
    def test_random_indices_match_bit_oracle(self, n):
        rng = RandomSeed(1406).child(n).generator()
        order = symplectic_group_order(n)
        for _ in range(40 if n <= 10 else 10):
            i = int.from_bytes(rng.bytes(order.bit_length() // 8 + 8), "little") % order
            assert np.array_equal(symplectic_from_index(i, n), symplectic_from_index_bits(i, n))

    @pytest.mark.parametrize("i, n", [(6, 1), (-1, 1), (720, 2), (-720, 2), (0, 0), (0, -1)])
    def test_index_outside_bijection_rejected(self, i, n):
        with pytest.raises(ValueError):
            symplectic_from_index(i, n)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_clifford_tableau_is_the_index_matrix_with_its_signs(self, n):
        # every index and sign pattern at n = 1, 40 seeded pairs beyond
        order = symplectic_group_order(n)
        if n == 1:
            pairs = itertools.product(range(order), range(4))
        else:
            rng = RandomSeed(2171).child(n).generator()
            pairs = [(int.from_bytes(rng.bytes(order.bit_length() // 8 + 8), "little") % order,
                      int(rng.integers(1 << 2 * n))) for _ in range(40)]
        for i, signs in pairs:
            r = [signs >> j & 1 for j in range(2 * n)]
            assert clifford_tableau(i, signs, n) == tableau_of(symplectic_from_index(i, n), r)

    @pytest.mark.parametrize("i, signs, n", [(6, 0, 1), (-1, 0, 1), (0, 16, 1), (0, -1, 1),
                                             (0, 256, 2), (0, 0, 0)])
    def test_clifford_tableau_outside_its_range_rejected(self, i, signs, n):
        with pytest.raises(ValueError):
            clifford_tableau(i, signs, n)


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 63])
    def test_transvections_from_e1_match_oracle(self, n):
        # every nonzero y up to n = 4, 200 seeded ones beyond
        nn = 2 * n
        if n <= 4:
            ys = range(1, 1 << nn)
        else:
            rng = RandomSeed(2170).child(n).generator()
            ys = [int.from_bytes(rng.bytes(16), "little") % ((1 << nn) - 1) + 1 for _ in range(200)]
        e1 = _int_to_bits(1, nn)
        for y in ys:
            got = _transvections_from_e1(y)
            want = _find_transvection(e1, _int_to_bits(y, nn))
            assert got == tuple(sum(int(b) << j for j, b in enumerate(h)) for h in want), y
            image = _transvect(_int_to_bits(got[1], nn), _transvect(_int_to_bits(got[0], nn), e1[None, :]))
            assert np.array_equal(image[0], _int_to_bits(y, nn)), y


class TestTableau:
    @pytest.mark.parametrize("n", [*range(1, 11), 63])
    def test_blocks_round_trip_through_packed_rows(self, n):
        rng = RandomSeed(1406).child(n).generator()
        for _ in range(5):
            t = random_clifford_rng(n, rng)
            assert len(t.rows) == 2 * n and all(type(v) is int for v in t.rows)
            x, z, r = tableau_blocks(t)
            assert (x.shape, z.shape, r.shape) == ((2 * n, n), (2 * n, n), (2 * n,))
            assert tableau_from_blocks(n, x, z, r) == t
            # entries 2 and 3 are read mod 2
            lift = rng.integers(0, 2, size=(3, 2 * n, n), dtype=np.uint8) * 2
            assert tableau_from_blocks(n, x + lift[0], z + lift[1], r + lift[2, :, 0]) == t

    @pytest.mark.parametrize("n", [1, 3, 63])
    def test_identity(self, n):
        t = identity_tableau(n)
        x, z, r = tableau_blocks(t)
        eye, zero = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
        assert np.array_equal(x, np.vstack([eye, zero]))
        assert np.array_equal(z, np.vstack([zero, eye]))
        assert not r.any() and r.shape == (2 * n,)
        assert t == tableau_from_blocks(n, x, z, r)

    @pytest.mark.parametrize("x, z, r", [
        (np.zeros((4, 3)), np.zeros((4, 2)), np.zeros(4)),
        (np.zeros((4, 2)), np.zeros((2, 2)), np.zeros(4)),
        (np.zeros((4, 2)), np.zeros((4, 2)), np.zeros(2)),
        (np.zeros(8), np.zeros((4, 2)), np.zeros(4)),
    ])
    def test_block_shapes_checked(self, x, z, r):
        with pytest.raises(ValueError, match="shapes inconsistent"):
            tableau_from_blocks(2, x, z, r)

    @pytest.mark.parametrize("n", [1, 3, 63])
    def test_is_a_frozen_value(self, n):
        t = random_clifford_rng(n, RandomSeed(5).child(n).generator())
        for field in ("n", "rows", "r"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, field, getattr(t, field))
        for field in (t.rows, t.r):
            assert type(field) is tuple and all(type(v) is int for v in field)
        assert set(t.r) <= {0, 1}
        again = tableau_from_blocks(n, *tableau_blocks(t))
        assert again == t and hash(again) == hash(t)
        assert len({t, again, identity_tableau(n)}) == 2


class TestRandomClifford:
    def test_symplectic_invariant(self):
        for n in (1, 2, 5):
            t = random_clifford(n, RandomSeed(n))
            assert is_symplectic(t)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            random_clifford(0, RandomSeed(0))
        with pytest.raises(ValueError):
            random_clifford(64, RandomSeed(0))

    def test_determinism(self):
        assert random_clifford(3, RandomSeed(12)) == random_clifford(3, RandomSeed(12))

    def test_stream_is_pinned(self):
        # the digest of these seeded draws, taken when each attempt became
        # one random_raw call (index bits, then sign bits); it changes only
        # with the RNG stream, that word layout or the bijection
        rng = RandomSeed(20261018).generator()
        digest = hashlib.sha256()
        for n in [*range(1, 11), 63]:
            for _ in range(5):
                digest.update(json.dumps(tableau_to_json_dict(random_clifford_rng(n, rng))).encode())
        assert digest.hexdigest() == (
            "c71b21f724da57edffb4476d6d5ffe81d383cd71415bd5042b9b87541b8de5f1")

    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_reads_index_then_signs_from_one_raw_call(self, n):
        order = symplectic_group_order(n)
        words = -(-(order.bit_length() + 2 * n) // 64)
        gen = np.random.default_rng(6000 + n)
        for index in (0, order - 1, int.from_bytes(gen.bytes(8 * words), "little") % order):
            r = gen.integers(0, 2, size=2 * n).tolist()
            rng = ScriptedWords(attempt_words(n, index, r, junk=-1))
            assert random_clifford_rng(n, rng) == tableau_of(symplectic_from_index(index, n), r)
            assert rng.calls == [words] and rng.read == len(rng.words)

    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_over_range_index_redraws_the_whole_attempt(self, n):
        # the rejected attempt's sign bits are all 1 and must not be kept
        order = symplectic_group_order(n)
        words = -(-(order.bit_length() + 2 * n) // 64)
        r = [1, 0] * n
        for bad in (order, (1 << order.bit_length()) - 1):
            rng = ScriptedWords(attempt_words(n, bad, [1] * 2 * n) + attempt_words(n, 5, r))
            assert random_clifford_rng(n, rng) == tableau_of(symplectic_from_index(5, n), r)
            assert rng.calls == [words, words] and rng.read == len(rng.words)

    def test_two_qubit_indices_uniform_over_720(self):
        # 36,000 draws from seeded words, one word per attempt: a draw's index
        # is the low 10 bits of its last word, and its rows must be that
        # index's.  The statistic must lie between the chi-square(719)
        # quantiles at 1e-6 and 1 - 1e-6 (552.9, 913.9); this seed gives 728.9
        draws, order = 36_000, symplectic_group_order(2)
        rows_of = [tableau_of(symplectic_from_index(i, 2), [0] * 4).rows for i in range(order)]
        rng = ScriptedWords(RandomSeed(7200).generator().bit_generator.random_raw(2 * draws))
        counts = np.zeros(order, dtype=int)
        for _ in range(draws):
            t = random_clifford_rng(2, rng)
            index = rng.words[rng.read - 1] & 1023
            assert t.rows == rows_of[index]
            counts[index] += 1
        rejected = sum(w & 1023 >= order for w in rng.words[:rng.read])
        assert rng.calls == [1] * (draws + rejected)
        expected = draws / order
        assert 552.9 < ((counts - expected) ** 2 / expected).sum() < 913.9

    def test_single_qubit_uniform_over_24(self):
        rng = RandomSeed(971).generator()
        n_samples = 100_000
        counts: dict = {}
        for _ in range(n_samples):
            t = random_clifford_rng(1, rng)
            counts[t] = counts.get(t, 0) + 1
        assert len(counts) == 24
        p = 1 / 24
        se = np.sqrt(p * (1 - p) / n_samples)
        for c in counts.values():
            assert abs(c / n_samples - p) < 3.5 * se

    def test_conjugation_matches_dense(self):
        # the tableau rows must be exactly U P U^dag for the dense synthesis
        seed = RandomSeed(11)
        for n in (1, 2, 3, 6):
            for k in range(3):
                t = random_clifford(n, seed.child(100 * n + k))
                u = tableau_to_unitary(t)
                assert is_unitary(u, 1e-9)
                x, z, r = tableau_blocks(t)
                for j in range(n):
                    xb = np.zeros(n, dtype=np.uint8)
                    zb = np.zeros(n, dtype=np.uint8)
                    xb[j] = 1
                    xj = pauli_matrix(xb, zb, 0)
                    zj = pauli_matrix(zb, xb, 0)
                    assert np.allclose(u @ xj @ u.conj().T,
                                       pauli_matrix(x[j], z[j], r[j]), atol=1e-9)
                    assert np.allclose(u @ zj @ u.conj().T,
                                       pauli_matrix(x[n + j], z[n + j], r[n + j]),
                                       atol=1e-9)

    def test_single_qubit_images_are_the_hs_closure(self):
        # 6 symplectic (x, z) row pairs times 4 sign patterns; the {H, S}
        # closure shares no code with the tableau read-out
        paulis = [(1, 0), (0, 1), (1, 1)]
        images = []
        for px, pz in itertools.permutations(paulis, 2):
            for r in itertools.product((0, 1), repeat=2):
                t = tableau_from_blocks(1, [[px[0]], [pz[0]]], [[px[1]], [pz[1]]], r)
                assert is_symplectic(t)
                images.append(tableau_to_unitary(t))
        assert len(images) == 24 and one_to_one_modulo_phase(images, single_qubit_cliffords())


class TestMeasurementSupport:
    def test_identity_supports_zero_string(self):
        sup = measurement_support(identity_tableau(3))
        assert sup.k_dim == 0
        assert sup.offset == 0

    def test_hadamard_full_support(self):
        sup = measurement_support(hadamards(3))
        assert sup.k_dim == 3

    def test_support_matches_dense_exactly(self):
        seed = RandomSeed(31)
        for n in (2, 3, 4, 5, 6):
            for k in range(4):
                t = random_clifford(n, seed.child(10 * n + k))
                sup = measurement_support(t)
                probs = np.abs(tableau_to_statevector(t)) ** 2
                hot = set(np.nonzero(probs > 1e-12)[0].tolist())
                assert hot == set(support_members(sup).tolist())
                assert np.allclose(probs[sorted(hot)], 1 / len(hot), atol=1e-9)

    def test_sampling_tv_against_dense(self):
        n, shots = 4, 10_000
        t = random_clifford(n, RandomSeed(47))
        samples = sample_measurement(t, shots, RandomSeed(48))
        probs = np.abs(tableau_to_statevector(t)) ** 2
        emp = np.bincount(samples, minlength=2**n) / shots
        tv = 0.5 * np.abs(emp - probs).sum()
        assert tv <= 0.05

    def test_identity_sampling_constant(self):
        out = sample_measurement(identity_tableau(4), 5, RandomSeed(0))
        assert (out.dtype, out.shape) == (np.int64, (5,))
        assert not out.any()

    def test_hadamard_pair_uniform(self):
        samples = sample_measurement(hadamards(2), 10_000, RandomSeed(3))
        counts = np.bincount(samples, minlength=4)
        se = np.sqrt(0.25 * 0.75 / 10_000)
        assert np.all(np.abs(counts / 10_000 - 0.25) < 3.5 * se)

    def test_basis_is_canonical_rref(self):
        # PFCOracle's draws from the support depend on this canonical form
        seed = RandomSeed(53)
        for n in range(1, 9):
            for k in range(10):
                sup = measurement_support(random_clifford(n, seed.child(10 * n + k)))
                leads = [b.bit_length() - 1 for b in sup.basis]
                assert all(0 <= lead < n for lead in leads)
                assert all(a > b for a, b in zip(leads, leads[1:]))
                for i, lead in enumerate(leads):
                    others = [*sup.basis[:i], *sup.basis[i + 1:], sup.offset]
                    assert not any(v >> lead & 1 for v in others)

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_tableau_matches_bit_oracle(self, n):
        # every symplectic index times every sign pattern: 6*4 and 720*16
        signs = list(itertools.product((0, 1), repeat=2 * n))
        for i in range(symplectic_group_order(n)):
            g = symplectic_from_index(i, n)
            for r in signs:
                assert_same_support(tableau_of(g, r))

    @pytest.mark.parametrize("n", [3, 4, 6, 10, 20, 63])
    def test_random_tableaus_match_bit_oracle(self, n):
        rng = RandomSeed(2170).child(n).generator()
        for _ in range(30):
            assert_same_support(random_clifford_rng(n, rng))

    @pytest.mark.parametrize("n", [1, 2, 5, 63])
    def test_extreme_dimensions_match_bit_oracle(self, n):
        # k = 0 for the identity, k = n for Hadamard layers and gamma states
        rng = np.random.default_rng(n)
        cases = [identity_tableau(n), hadamards(n)]
        for _ in range(4):
            m = np.triu(rng.integers(0, 2, size=(n, n)), k=1).astype(np.uint8)
            cases.append(gamma_state(GammaParams(n, m, rng.integers(0, 2, n), rng.integers(0, 2, n))))
        for t in cases:
            assert_same_support(t)
        assert measurement_support(cases[0]).k_dim == 0
        assert all(measurement_support(t).k_dim == n for t in cases[1:])

    def test_affine_contains_members(self):
        t = random_clifford(4, RandomSeed(99))
        sup = measurement_support(t)
        for v in support_members(sup).tolist():
            assert support_contains(sup, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_contains_every_index(self, n):
        # members and non-members alike, against the dense state's support
        seed = RandomSeed(4096).child(n)
        for k in range(6):
            t = random_clifford(n, seed.child(k))
            sup = measurement_support(t)
            hot = np.abs(tableau_to_statevector(t)) ** 2 > 1e-12
            assert [support_contains(sup, v) for v in range(1 << n)] == hot.tolist()

    def test_support_past_int64_width(self):
        # supports are Python ints at any n; only int64 outcome arrays stop at 63
        n = 100
        # -Z_j stabilizers flip outcome bit j
        r = (0,) * n + tuple(int(j % 3 == 0) for j in range(n))
        sup = measurement_support(Tableau(n, identity_tableau(n).rows, r))
        assert sup.basis == () and sup.offset == sum(1 << (n - 1 - j) for j in range(0, n, 3))
        sup = measurement_support(hadamards(n))
        assert sup.basis == tuple(1 << j for j in range(n - 1, -1, -1)) and sup.offset == 0
        assert support_contains(sup, (1 << n) - 1) and not support_contains(sup, 1 << n)
        for t in (identity_tableau(64), hadamards(64), identity_tableau(n), hadamards(n)):
            sup = measurement_support(t)
            with pytest.raises(ValueError, match="int64"):
                sample_from_support(sup, 4, np.random.default_rng(0))
            with pytest.raises(ValueError, match="int64"):
                support_members(sup)

    def test_sample_stream_is_pinned(self):
        # digest of int64 outcome indices, taken when each support sample
        # became one random_raw word read through per-byte XOR tables; it
        # changes only with the RNG stream, the Clifford sampler, the
        # support sampler or the support's basis
        digest = hashlib.sha256()
        rng = RandomSeed(2170).generator()
        for n in (1, 5, 10, 30, 63):
            for _ in range(10):
                sup = measurement_support(random_clifford_rng(n, rng))
                for shots in (1, 64):
                    digest.update(sample_from_support(sup, shots, rng).astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "83cf4b762b6897b2fdea3e7912a1de3f20b12e52c84ae78007286462f941241c")

    @pytest.mark.parametrize("k", [0, 1, 10, 63])
    def test_column_xors_match_the_reduction(self, k):
        gen = np.random.default_rng(4000 + k)
        if k:
            real = hadamards(k)
        else:  # -Z stabilizers on qubits 0 and 2 set their outcome bits
            real = Tableau(3, identity_tableau(3).rows, (0, 0, 0, 1, 0, 1))
        supports = [
            # basis rows and offset up to 2^63 - 1, the widest int64 outcomes
            AffineSupport(63, tuple(int(b) for b in gen.integers(1, 2**63, size=k)),
                          int(gen.integers(0, 2**63))),
            measurement_support(real),
        ]
        for sup in supports:
            assert sup.k_dim == k
            for shots in (0, 1, 32, 4096):
                rng, ref = np.random.default_rng(shots), np.random.default_rng(shots)
                got = sample_from_support(sup, shots, rng)
                want = sample_from_support_reduce(sup, shots, ref)
                assert got.dtype == want.dtype == np.int64
                assert got.tobytes() == want.tobytes(), (sup, shots)
                assert np.array_equal(rng.random(4), ref.random(4))


def small_supports():
    """Every Hadamard layer of k <= 10 qubits and the identity's k = 0, then
    five seeded uniform Cliffords at each n <= 10: every support dimension
    up to 10, the sampler's one and two byte tables."""
    sups = [measurement_support(identity_tableau(3))]
    sups += [measurement_support(hadamards(k)) for k in range(1, 11)]
    rng = RandomSeed(7300).generator()
    sups += [measurement_support(random_clifford_rng(n, rng))
             for n in range(1, 11) for _ in range(5)]
    return sups


class TestSupportSampler:
    def test_one_raw_word_per_shot(self):
        # ScriptedWords has no `integers` method, so a fill that drew its
        # coefficient bits from Generator.integers would fail here
        words = RandomSeed(7301).generator().bit_generator.random_raw(4096)
        for sup in small_supports():
            if not sup.k_dim:
                continue
            rng = ScriptedWords(words)
            for shots in (1, 32, 4000):
                assert sample_from_support(sup, shots, rng).shape == (shots,)
            assert rng.calls == [1, 32, 4000]  # one call per fill, of its size

    def test_every_coefficient_row_gives_each_member_once(self):
        # coefficient row c, the low k bits of a word, selects basis row j at
        # its bit j, as member c of support_members does; the high bits,
        # filled with junk here, select nothing
        junk = RandomSeed(7302).generator().bit_generator.random_raw(1 << 10)
        for sup in small_supports():
            k = sup.k_dim
            words = np.arange(1 << k, dtype=np.uint64) | junk[:1 << k] << np.uint64(k)
            got = sample_from_support(sup, 1 << k, ScriptedWords(words))
            members = support_members(sup)
            assert np.array_equal(got, members), sup
            assert np.unique(got).size == 1 << k

    def test_histogram_is_uniform_over_the_support(self):
        # 200,000 draws over 2^5 members: the expected total variation from
        # uniform is about 0.005, its 99th percentile 0.0064, and this seed
        # reads 0.0040
        sup = measurement_support(random_clifford(6, RandomSeed(7303)))
        assert sup.k_dim == 5
        members = support_members(sup)
        got = sample_from_support(sup, 200_000, RandomSeed(7304).generator())
        assert np.isin(got, members).all()
        freq = np.unique(got, return_counts=True)[1] / got.size
        assert freq.size == members.size
        assert 0.5 * np.abs(freq - 1 / members.size).sum() < 0.01

    def test_tables_are_built_once_per_support(self):
        sup = measurement_support(hadamards(9))
        _xor_tables.cache_clear()
        rng = RandomSeed(7305).generator()
        first = sample_from_support(sup, 64, rng)
        for shots in (32, 4096, 1):
            sample_from_support(sup, shots, rng)
        # an equal support built anew is the same cache key
        again = sample_from_support(measurement_support(hadamards(9)), 64,
                                    RandomSeed(7305).generator())
        assert np.array_equal(first, again)
        info = _xor_tables.cache_info()
        assert (info.misses, info.hits) == (1, 4)


class TestGammaFamily:
    def test_plus_state_at_zero_params(self):
        n = 2
        p = GammaParams(n, np.zeros((n, n), dtype=np.uint8),
                        np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))
        psi = tableau_to_statevector(gamma_state(p))
        assert np.allclose(psi, np.full(4, 0.5), atol=1e-9)

    def test_single_qubit_s_phase(self):
        p = GammaParams(1, np.zeros((1, 1), dtype=np.uint8),
                        np.array([1], dtype=np.uint8), np.array([0], dtype=np.uint8))
        psi = tableau_to_statevector(gamma_state(p))
        target = np.array([1, 1j]) / np.sqrt(2)
        overlap = abs(np.vdot(psi, target))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_all_32_states_distinct_full_support_n2(self):
        states = set()
        for mbit in range(2):
            for packed in range(16):
                u = np.array([(packed >> 0) & 1, (packed >> 1) & 1], dtype=np.uint8)
                v = np.array([(packed >> 2) & 1, (packed >> 3) & 1], dtype=np.uint8)
                m = np.array([[0, mbit], [0, 0]], dtype=np.uint8)
                p = GammaParams(2, m, u, v)
                t = gamma_state(p)
                assert measurement_support(t).k_dim == 2
                amps = gamma_amplitudes(p)
                psi = tableau_to_statevector(t)
                assert abs(np.vdot(psi, amps)) == pytest.approx(1.0, abs=1e-9)
                states.add(tuple(np.round(amps / amps[0], 8)))
        assert len(states) == 32

    def test_unitary_matches_gate_product(self):
        # every column, so the destabilizer rows are checked too: the tableau
        # is Z^v CZ^M S^u H^(x)n up to one global phase, for every (M, u, v)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for n in (1, 2, 3):
            bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
            pairs = list(itertools.combinations(range(n), 2))
            for mbits in itertools.product((0, 1), repeat=len(pairs)):
                m = np.zeros((n, n), dtype=np.uint8)
                for (i, j), b in zip(pairs, mbits):
                    m[i, j] = b
                for u in itertools.product((0, 1), repeat=n):
                    for v in itertools.product((0, 1), repeat=n):
                        want = functools.reduce(np.kron, [h] * n).astype(complex)
                        for q in range(n):
                            want = np.diag(1j ** (u[q] * bits[:, q])) @ want
                        for (i, j), b in zip(pairs, mbits):
                            want = np.diag((-1.0) ** (b * bits[:, i] * bits[:, j])) @ want
                        for q in range(n):
                            want = np.diag((-1.0) ** (v[q] * bits[:, q])) @ want
                        got = tableau_to_unitary(gamma_state(GammaParams(n, m, u, v)))
                        phase = np.trace(want.conj().T @ got) / (1 << n)
                        assert abs(phase) == pytest.approx(1.0, abs=1e-9)
                        assert np.allclose(got, phase * want, atol=1e-9)

    @given(st.integers(0, 100_000), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_full_support_always(self, seed, n):
        rng = np.random.default_rng(seed)
        m = np.triu(rng.integers(0, 2, size=(n, n)), k=1).astype(np.uint8)
        p = GammaParams(n, m, rng.integers(0, 2, n).astype(np.uint8),
                        rng.integers(0, 2, n).astype(np.uint8))
        assert measurement_support(gamma_state(p)).k_dim == n

    def test_nonzero_diagonal_rejected(self):
        m = np.eye(2, dtype=np.uint8)
        with pytest.raises(ValueError):
            GammaParams(2, m, np.zeros(2, dtype=np.uint8), np.zeros(2, dtype=np.uint8))


class TestFullSupportProbability:
    def test_small_values(self):
        from fractions import Fraction

        assert full_support_probability(1, exact=True) == Fraction(2, 3)
        assert full_support_probability(2, exact=True) == Fraction(8, 15)

    def test_count_crosscheck_n2(self):
        # 32 gamma states over 60 stabilizer states, at least the formula value
        assert stabilizer_state_count(2) == 60
        assert 32 / 60 == pytest.approx(float(full_support_probability(2)))

    def test_limit_above_inverse_e(self):
        for n in (1, 5, 20, 60):
            assert full_support_probability(n) >= np.exp(-1)

    def test_monotone_decreasing(self):
        vals = [full_support_probability(n) for n in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSerialization:
    def test_tableau_round_trip(self):
        t = random_clifford(5, RandomSeed(2))
        d = tableau_to_json_dict(t)
        assert tableau_from_json_dict(d) == t

    def test_hex_layout(self):
        # column j is bit j; x and z rows take n bits' worth of digits, r 2n
        d = tableau_to_json_dict(hadamards(5))
        assert d == {"n": 5, "x": ["00", "00", "00", "00", "00", "01", "02", "04", "08", "10"],
                     "z": ["01", "02", "04", "08", "10", "00", "00", "00", "00", "00"],
                     "r": "000"}

    @pytest.mark.parametrize("field, value, cause", [
        ("x", ["01", "02"], "'x' needs a list of 4 hex rows"),
        ("z", ["00", "00", "01", "02", "00"], "'z' needs a list of 4 hex rows"),
        ("x", "01", "'x' needs a list of 4 hex rows"),
        ("x", ["05", "02", "00", "00"], "'x' sets bits beyond its 2 columns"),
        ("r", "10", "'r' sets bits beyond its 4 columns"),
        ("z", ["00", "00", "1g", "02"], "'z' holds a row that is not hex"),
        ("z", ["00", "00", "-1", "02"], "'z' sets bits beyond its 2 columns"),
        ("r", 3, "'r' holds a row that is not hex"),
        ("x", ["02", "01", "00", "00"], "'x' and 'z' are not symplectic"),
        ("n", 0, "'n' must be a positive integer"),
        ("n", 2.0, "'n' must be a positive integer"),
    ])
    def test_malformed_json_rejected(self, field, value, cause):
        d = {**tableau_to_json_dict(identity_tableau(2)), field: value}
        with pytest.raises(ValueError, match="tableau fields? " + cause):
            tableau_from_json_dict(d)
