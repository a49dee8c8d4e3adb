import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_diamond, hull_diamond_from_spectrum, schatten_norm, traced_peak
from prulab import linalg
from prulab.linalg import (
    RandomSeed,
    ResourceLimitError,
    diamond_distance_batch,
    diamond_distance_from_spectrum,
    diamond_distance_unitaries,
    haar_unitaries_rng,
    haar_unitary,
    haar_unitary_rng,
    is_unitary,
    kron_power,
    memory_budget_bytes,
    set_memory_budget_bytes,
)

X_GATE = np.array([[0, 1], [1, 0]], dtype=complex)


class TestRandomSeed:
    def test_same_pair_same_stream(self):
        a = RandomSeed(5, 7).generator().random(4)
        b = RandomSeed(5, 7).generator().random(4)
        assert np.array_equal(a, b)

    def test_children_distinct_and_deterministic(self):
        s = RandomSeed(5)
        kids = [s.child(i) for i in range(20)]
        assert len({(k.seed, k.stream) for k in kids}) == 20
        assert s.child(3) == RandomSeed(5).child(3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RandomSeed(-1)


class TestHaarUnitary:
    def test_d1_is_unit_modulus_scalar(self):
        u = haar_unitary(1, RandomSeed(0))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_unitary_invariant(self):
        assert is_unitary(haar_unitary(2, RandomSeed(1)))
        assert is_unitary(haar_unitary(7, RandomSeed(2)))

    @pytest.mark.parametrize("d", [64, 256, 1024])
    def test_peak_is_within_its_charge(self, d, monkeypatch):
        # at d = 1024 the three d x d arrays charged were a quarter short; at
        # d = 256 the phase fix's iteration buffer went uncharged
        _, peak, charged = traced_peak(lambda: haar_unitary(d, RandomSeed(5)), monkeypatch,
                                       linalg)
        assert peak <= max(charged) + (64 << 10)

    @pytest.mark.parametrize("draw", [
        lambda d: haar_unitary(d, RandomSeed(0)),
        lambda d: haar_unitary_rng(d, RandomSeed(0).generator()),
        lambda d: haar_unitaries_rng(d, 3, RandomSeed(0).generator()),
    ], ids=["haar_unitary", "haar_unitary_rng", "haar_unitaries_rng"])
    @pytest.mark.parametrize("d", [0, -1, -2**1024], ids=["0", "-1", "-2^1024"])
    def test_rejects_d_below_one(self, draw, d):
        # one check, before any charge or shape is computed from d, so no d
        # below 1 gives an empty array, numpy's shape error or a budget error
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            draw(d)

    @pytest.mark.parametrize("d", [1, 2, 7, 64])
    def test_one_element_is_the_textbook_draw(self, d):
        # one Ginibre pair, real part first, its QR and the R-diagonal phase
        # fix: the stream every seeded Haar sample and net is drawn from
        rng = RandomSeed(d).generator()
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        want = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        assert haar_unitary_rng(d, RandomSeed(d).generator()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, m", [(1, 700), (2, 300), (5, 40), (16, 6)])
    def test_stack_is_the_one_element_draws(self, d, m):
        rng = RandomSeed(d).generator()
        want = np.array([haar_unitary_rng(d, rng) for _ in range(m)])
        assert haar_unitaries_rng(d, m, RandomSeed(d).generator()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, m", [(1, 4096), (2, 1024), (16, 64)])
    def test_stack_peak_is_within_its_charge(self, d, m, monkeypatch):
        _, peak, charged = traced_peak(lambda: haar_unitaries_rng(d, m, RandomSeed(5).generator()),
                                       monkeypatch, linalg)
        assert peak <= max(charged) + (64 << 10)

    def test_first_moment_uniform_columns(self):
        # |<x|U|0>|^2 averages to 1/d for every x
        d, n = 16, 10_000
        seed = RandomSeed(42)
        acc = np.zeros(d)
        for i in range(n):
            u = haar_unitary(d, seed.child(i))
            acc += np.abs(u[:, 0]) ** 2
        mean = acc / n
        # Beta(1, d-1) variance
        se = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
        assert np.all(np.abs(mean - 1 / d) < 3.5 * se)

    def test_left_invariance_low_moments(self):
        # the output law should not move under a fixed left factor
        d, n = 4, 3000
        w = haar_unitary(d, RandomSeed(777))
        seed = RandomSeed(43)
        m1 = np.zeros((d, d), dtype=complex)
        m1w = np.zeros((d, d), dtype=complex)
        for i in range(n):
            u = haar_unitary(d, seed.child(i))
            m1 += u / n
            m1w += (w @ u) / n
        assert np.abs(m1).max() < 4.5 / np.sqrt(n * d)
        assert np.abs(m1w).max() < 4.5 / np.sqrt(n * d)


class TestSchattenNorm:
    def test_identity_norms(self):
        for d in (1, 3, 5):
            eye = np.eye(d)
            assert schatten_norm(eye, 1) == pytest.approx(d)
            assert schatten_norm(eye, "inf") == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_frobenius_is_entrywise(self, seed):
        m = np.random.default_rng(seed).standard_normal((3, 3)) \
            + 1j * np.random.default_rng(seed + 1).standard_normal((3, 3))
        assert schatten_norm(m, 2) == pytest.approx(np.sqrt(np.sum(np.abs(m) ** 2)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_norm_ordering(self, seed):
        m = np.random.default_rng(seed).standard_normal((4, 4))
        assert schatten_norm(m, "inf") <= schatten_norm(m, 2) + 1e-12
        assert schatten_norm(m, 2) <= schatten_norm(m, 1) + 1e-12

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 3)


class TestVectorize:
    def test_kron_power_identity(self):
        assert np.array_equal(kron_power(np.eye(2), 3), np.eye(8))

    def test_kron_power_x_gate_flips_00(self):
        xx = kron_power(X_GATE, 2)
        v = np.zeros(4)
        v[0] = 1.0
        out = xx @ v
        assert out[3] == pytest.approx(1.0)
        assert np.abs(out[:3]).max() == 0

    def test_budget_error(self):
        old = memory_budget_bytes()
        try:
            set_memory_budget_bytes(1024)
            with pytest.raises(ResourceLimitError):
                kron_power(np.eye(2), 10)
        finally:
            set_memory_budget_bytes(old)

    @pytest.mark.parametrize("nbytes, shown", [
        (12_800_000_000_000, "1.28e+13"),
        (8.21e6, "8.21e+06"),
        (2.0**1023, "8.99e+307"),
        (2**1024 - 2**970 - 1, "1.8e+308"),  # the last integer a float holds
        (2**1024, "1.80e+308"),
        (10**400, "1.00e+400"),
        (128 * 2**1024, "2.30e+310"),
    ], ids=["int", "float", "float-2-1023", "int-float-max", "int-2-1024", "int-10-400",
            "int-2-1031"])
    def test_budget_error_shows_any_charge(self, nbytes, shown, monkeypatch):
        # .3g turns an int into a float, which fails past float range
        monkeypatch.setattr(linalg, "_budget_bytes", 1024)
        with pytest.raises(ResourceLimitError, match=rf"^Haar net needs {re.escape(shown)} bytes"):
            linalg.ensure_budget(nbytes, "Haar net")

    def test_kron_power_stays_within_its_charge(self, monkeypatch):
        # the power before the last and np.kron's broadcast buffers once
        # went uncharged, a peak 1.31x the charge
        u = haar_unitary(4, RandomSeed(32))
        power, peak, charged = traced_peak(lambda: kron_power(u, 4), monkeypatch, linalg)
        assert power.shape == (256, 256)
        assert peak <= max(charged) + (64 << 10)


class TestDiamondDistance:
    def test_identical_channels(self):
        u = haar_unitary(3, RandomSeed(9))
        assert diamond_distance_unitaries(u, u) == pytest.approx(0.0, abs=1e-9)

    def test_global_phase_invariance(self):
        u = haar_unitary(4, RandomSeed(10))
        v = np.exp(1j * 0.3) * u
        assert diamond_distance_unitaries(u, v) == pytest.approx(0.0, abs=1e-7)

    def test_identity_vs_z_is_diameter(self):
        assert diamond_distance_unitaries(np.eye(2), np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            diamond_distance_unitaries(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("d", [2, 3])
    def test_against_brute_force(self, d):
        seed = RandomSeed(123)
        for k in range(3):
            u = haar_unitary(d, seed.child(2 * k))
            v = haar_unitary(d, seed.child(2 * k + 1))
            cf = diamond_distance_unitaries(u, v)
            bf = brute_force_diamond(u, v, restarts=6, seed=k)
            assert cf == pytest.approx(bf, abs=1e-3)

    def test_metric_identities(self):
        seed = RandomSeed(55)
        for k in range(25):
            u = haar_unitary(3, seed.child(3 * k))
            v = haar_unitary(3, seed.child(3 * k + 1))
            w = haar_unitary(3, seed.child(3 * k + 2))
            duv = diamond_distance_unitaries(u, v)
            duw = diamond_distance_unitaries(u, w)
            dwv = diamond_distance_unitaries(w, v)
            assert duv <= duw + dwv + 1e-9
            assert diamond_distance_unitaries(w @ u, w @ v) == pytest.approx(duv, abs=1e-9)
            assert diamond_distance_unitaries(u.conj().T, v.conj().T) == pytest.approx(duv, abs=1e-9)

    def test_batch_matches_scalar(self):
        seed = RandomSeed(66)
        for d in (2, 3, 4):
            us = [haar_unitary(d, seed.child(10 * d + i)) for i in range(6)]
            ws = np.stack([us[0].conj().T @ u for u in us])
            batch = diamond_distance_batch(ws)
            scalar = [diamond_distance_unitaries(us[0], u) for u in us]
            assert np.allclose(batch, scalar, atol=1e-9)

    def test_values_in_range(self):
        seed = RandomSeed(88)
        for k in range(10):
            u = haar_unitary(5, seed.child(2 * k))
            v = haar_unitary(5, seed.child(2 * k + 1))
            assert 0.0 <= diamond_distance_unitaries(u, v) <= 2.0

    @pytest.mark.parametrize("angles, expected", [
        ([0.7], 0.0),  # d = 1
        ([1.1, 1.1, 1.1], 0.0),  # equal eigenvalues
        ([0.3, 0.3 - np.pi], 2.0),  # antipodal pair
        ([np.pi - 0.1, -(np.pi - 0.1)], 2 * np.sin(0.1)),  # straddles the branch cut
        ([0.0, np.pi / 2, np.pi], 2.0),  # arc of exactly pi
    ])
    def test_spectrum_closed_form_degenerate(self, angles, expected):
        got = diamond_distance_from_spectrum(np.exp(1j * np.array(angles)))
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_spectrum_batch_matches_rows(self):
        rng = np.random.default_rng(12)
        eigs = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(5, 4)))
        eigs[1] = eigs[1, 0]  # one degenerate row
        batch = diamond_distance_from_spectrum(eigs)
        assert batch.shape == (5,)
        rows = [diamond_distance_from_spectrum(e) for e in eigs]
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=0.0)

    def test_spectrum_matches_hull_reference(self):
        # the hull form's 2 sqrt(1 - h^2) cancels near 0, leaving an absolute
        # error up to about 2 sqrt(machine eps) = 3e-8
        rng = np.random.default_rng(13)
        for d in range(1, 9):
            for width in (2 * np.pi, 1.0, 1e-3, 0.0):
                centre = rng.uniform(-np.pi, np.pi, size=(50, 1))
                eigs = np.exp(1j * (centre + rng.uniform(0.0, width, size=(50, d))))
                ref = [hull_diamond_from_spectrum(e) for e in eigs]
                np.testing.assert_allclose(diamond_distance_from_spectrum(eigs), ref,
                                           rtol=0.0, atol=1e-7)
