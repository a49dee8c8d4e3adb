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
    is_symplectic,
    measurement_support_bits,
    pack_bits,
    pauli_matrix,
    support_contains,
    support_members,
    symplectic_from_index_bits,
    tableau_from_json_dict,
    tableau_to_json_dict,
)
from prulab.linalg import RandomSeed, is_unitary
from prulab.stabilizer import (
    Tableau,
    _transvections_from_e1,
    full_support_probability,
    measurement_support,
    random_clifford_rng,
    sample_from_support,
    stabilizer_state_count,
    symplectic_from_index,
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
    return Tableau(g.shape[0] // 2, rows[:, 0::2], rows[:, 1::2], r)


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
            again = Tableau(n, t.x, t.z, t.r)
            assert again == t and again.rows == t.rows
            # entries 2 and 3 are read mod 2
            lift = rng.integers(0, 2, size=(3, 2 * n, n), dtype=np.uint8) * 2
            again = Tableau(n, t.x + lift[0], t.z + lift[1], t.r + lift[2, :, 0])
            assert again == t and again.rows == t.rows

    @pytest.mark.parametrize("n", [1, 3, 63])
    def test_identity(self, n):
        t = Tableau(n)
        eye, zero = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
        assert np.array_equal(t.x, np.vstack([eye, zero]))
        assert np.array_equal(t.z, np.vstack([zero, eye]))
        assert not t.r.any() and t.r.shape == (2 * n,)
        assert t == Tableau(n, t.x, t.z, t.r)

    @pytest.mark.parametrize("x, z, r", [
        (np.zeros((4, 3)), np.zeros((4, 2)), np.zeros(4)),
        (np.zeros((4, 2)), np.zeros((2, 2)), np.zeros(4)),
        (np.zeros((4, 2)), np.zeros((4, 2)), np.zeros(2)),
        (np.zeros(8), np.zeros((4, 2)), np.zeros(4)),
    ])
    def test_block_shapes_checked(self, x, z, r):
        with pytest.raises(ValueError, match="shapes inconsistent"):
            Tableau(2, x, z, r)

    @pytest.mark.parametrize("blocks, missing", [
        ({"x": np.zeros((4, 2))}, "z, r"),
        ({"x": np.zeros((4, 2)), "z": np.zeros((4, 2))}, "r"),
        ({"r": np.zeros(4)}, "x, z"),
    ])
    def test_blocks_come_all_or_none(self, blocks, missing):
        with pytest.raises(ValueError, match=f"missing {missing}$"):
            Tableau(2, **blocks)

    @pytest.mark.parametrize("block", ["x", "z", "r"])
    def test_blocks_are_read_only(self, block):
        for t in (Tableau(3), random_clifford(3, RandomSeed(5)), hadamards(3)):
            with pytest.raises(ValueError, match="read-only"):
                getattr(t, block)[0] = 1


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
        # the digest of these seeded draws, taken before the sampler moved
        # to packed rows; it changes only with the RNG stream or the bijection
        rng = RandomSeed(20261018).generator()
        digest = hashlib.sha256()
        for n in [*range(1, 11), 63]:
            for _ in range(5):
                digest.update(json.dumps(tableau_to_json_dict(random_clifford_rng(n, rng))).encode())
        assert digest.hexdigest() == (
            "692aa533103edcf251e5d885045b38861afbd09dd31e95edd54268024024041b")

    def test_single_qubit_uniform_over_24(self):
        rng = RandomSeed(971).generator()
        n_samples = 100_000
        counts: dict = {}
        for _ in range(n_samples):
            t = random_clifford_rng(1, rng)
            key = (t.x.tobytes(), t.z.tobytes(), t.r.tobytes())
            counts[key] = counts.get(key, 0) + 1
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
                for j in range(n):
                    xb = np.zeros(n, dtype=np.uint8)
                    zb = np.zeros(n, dtype=np.uint8)
                    xb[j] = 1
                    xj = pauli_matrix(xb, zb, 0)
                    zj = pauli_matrix(zb, xb, 0)
                    assert np.allclose(u @ xj @ u.conj().T,
                                       pauli_matrix(t.x[j], t.z[j], t.r[j]), atol=1e-9)
                    assert np.allclose(u @ zj @ u.conj().T,
                                       pauli_matrix(t.x[n + j], t.z[n + j], t.r[n + j]),
                                       atol=1e-9)

    def test_single_qubit_images_are_the_hs_closure(self):
        # 6 symplectic (x, z) row pairs times 4 sign patterns; the {H, S}
        # closure shares no code with the tableau read-out
        from prulab.ensembles import single_qubit_cliffords

        paulis = [(1, 0), (0, 1), (1, 1)]
        images = []
        for px, pz in itertools.permutations(paulis, 2):
            for r in itertools.product((0, 1), repeat=2):
                t = Tableau(1, [[px[0]], [pz[0]]], [[px[1]], [pz[1]]], r)
                assert is_symplectic(t)
                images.append(tableau_to_unitary(t))
        closure = single_qubit_cliffords()
        overlaps = np.array([[abs(np.trace(a.conj().T @ b)) / 2 for b in closure]
                             for a in images])
        matches = overlaps > 1 - 1e-9
        assert matches.shape == (24, 24)
        assert (matches.sum(axis=0) == 1).all() and (matches.sum(axis=1) == 1).all()


class TestMeasurementSupport:
    def test_identity_supports_zero_string(self):
        sup = measurement_support(Tableau(3))
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
        out = sample_measurement(Tableau(4), 5, RandomSeed(0))
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
        cases = [Tableau(n), hadamards(n)]
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
        ident = Tableau(n)
        r = np.zeros(2 * n, dtype=np.uint8)
        r[n:] = np.arange(n) % 3 == 0  # -Z_j stabilizers flip outcome bit j
        sup = measurement_support(Tableau(n, ident.x, ident.z, r))
        assert sup.basis == () and sup.offset == sum(1 << (n - 1 - j) for j in range(0, n, 3))
        sup = measurement_support(hadamards(n))
        assert sup.basis == tuple(1 << j for j in range(n - 1, -1, -1)) and sup.offset == 0
        assert support_contains(sup, (1 << n) - 1) and not support_contains(sup, 1 << n)
        for t in (Tableau(64), hadamards(64), Tableau(n), hadamards(n)):
            sup = measurement_support(t)
            with pytest.raises(ValueError, match="int64"):
                sample_from_support(sup, 4, np.random.default_rng(0))
            with pytest.raises(ValueError, match="int64"):
                support_members(sup)

    def test_sample_stream_is_pinned(self):
        # digest of int64 outcome indices, taken when supports were still
        # bit rows (indices then packed with qubit 0 as the most significant
        # bit); it changes only with the RNG stream or the support's basis
        digest = hashlib.sha256()
        rng = RandomSeed(2170).generator()
        for n in (1, 5, 10, 30, 63):
            for _ in range(10):
                sup = measurement_support(random_clifford_rng(n, rng))
                for shots in (1, 64):
                    digest.update(sample_from_support(sup, shots, rng).astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "c11f8d1fa53a8ccd65ecb7c8a6dbe71bc69671b95927244232467dc6e47d520c")


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
        d = {**tableau_to_json_dict(Tableau(2)), field: value}
        with pytest.raises(ValueError, match="tableau fields? " + cause):
            tableau_from_json_dict(d)
