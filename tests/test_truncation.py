import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_diamond, diag_truncation_distance, random_phase
from prulab.linalg import RandomSeed, haar_unitary
from prulab.truncation import (
    DiagonalOracleCircuit,
    DiagonalPhase,
    circuit_truncation_bound,
    round_k,
    truncate_diagonal,
)


class TestRoundK:
    def test_stated_examples(self):
        assert round_k(0.3, 2) == pytest.approx(0.25)
        assert round_k(0.125, 2) == pytest.approx(0.25)  # tie breaks upward
        assert round_k(0.0, 7) == 0.0

    def test_negative_tie_goes_up(self):
        assert round_k(-0.125, 2) == pytest.approx(0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            round_k(1.5, 3)
        with pytest.raises(ValueError):
            round_k(-1.0, 3)
        for k in (-1, 1024):
            with pytest.raises(ValueError, match=r"k must be in 0\.\.1023"):
                round_k(0.5, k)
        assert round_k(0.5, 1023) == 0.5
        for bad in ([0.5, 1.5], [0.5, -1.0], [0.5, float("nan")]):
            with pytest.raises(ValueError):
                round_k(np.array(bad), 3)

    def test_array_matches_scalar_bytes(self):
        # uniform phases plus every kind of tie: odd multiples of 2^-(k+1)
        # sit exactly between two grid points and must break upwards
        rng = np.random.default_rng(160)
        for k in range(40):
            for m in (0, 3, 8):
                x = rng.uniform(-1.0, 1.0, size=1 << m)
                x[x <= -1.0] = 1.0
                ties = rng.integers(-(1 << (k + 1)) + 1, (1 << (k + 1)) + 1, size=1 << m)
                x = np.concatenate([x, ties / 2.0 ** (k + 1)])
                scalar = [round_k(float(v), k) for v in x]
                assert all(type(r) is float for r in scalar)
                assert [math.floor(v * 2.0**k + 0.5) / 2.0**k for v in x] == scalar
                assert round_k(x, k).tobytes() == np.array(scalar).tobytes()

    @given(st.floats(min_value=-0.999999, max_value=1.0), st.integers(0, 14))
    @settings(max_examples=200, deadline=None)
    def test_error_bound(self, x, k):
        r = round_k(x, k)
        assert abs(x - r) <= 2.0 ** -(k + 1) + 1e-15

    @given(st.integers(0, 100_000), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_grid_representability(self, seed, k):
        x = float(np.random.default_rng(seed).uniform(-0.999999, 1.0))
        r = round_k(x, k)
        scaled = r * (1 << k)
        assert scaled == round(scaled)
        assert -(1 << k) <= scaled <= (1 << k)


class TestTruncateDiagonal:
    def test_constant_zero_unchanged(self):
        f = DiagonalPhase(3, np.zeros(8))
        g, width = truncate_diagonal(f, 5)
        assert width == 6
        assert not g.phases.any()

    def test_pointwise_deviation_exhaustive(self):
        rng = RandomSeed(1).generator()
        for m, k in ((3, 8), (12, 6)):
            f = random_phase(m, rng)
            g, _ = truncate_diagonal(f, k)
            # compare as phases mod 2 (the -1 -> +1 wrap is free)
            dev = np.abs(f.phases - g.phases)
            dev = np.minimum(dev, 2.0 - dev)
            assert dev.max() <= 2.0 ** -(k + 1) + 1e-12

    def test_output_in_canonical_range(self):
        f = DiagonalPhase(4, np.linspace(-0.999, 1.0, 16))
        g, _ = truncate_diagonal(f, 2)
        assert np.all(g.phases > -1.0) and np.all(g.phases <= 1.0)

    def test_exact_grid_fixed_point(self):
        f = DiagonalPhase(2, np.array([0.25, -0.5, 1.0, 0.75]))
        g, _ = truncate_diagonal(f, 2)
        assert np.array_equal(g.phases, f.phases)


class TestDiagTruncationDistance:
    def test_exact_grid_gives_zero(self):
        f = DiagonalPhase(2, np.array([0.25, -0.5, 1.0, 0.75]))
        assert diag_truncation_distance(f, 2) == pytest.approx(0.0, abs=1e-9)

    def test_bound_on_random_instances(self):
        rng = RandomSeed(2).generator()
        for m in (2, 4):
            for k in (4, 8):
                for _ in range(10):
                    f = random_phase(m, rng)
                    d = diag_truncation_distance(f, k)
                    assert d <= math.pi * 2.0**-k + 1e-9

    def test_single_phase_closed_form_and_brute_force(self):
        theta = 0.011
        phases = np.zeros(4)
        phases[2] = theta
        f = DiagonalPhase(2, phases)
        # k large enough that only the closed form matters: compare the two
        # diagonal unitaries directly
        u = np.diag(np.exp(1j * np.pi * f.phases))
        v = np.eye(4, dtype=complex)
        from prulab.linalg import diamond_distance_unitaries

        cf = diamond_distance_unitaries(u, v)
        assert cf == pytest.approx(2 * math.sin(math.pi * theta / 2), abs=1e-9)
        bf = brute_force_diamond(u, v, restarts=6, seed=3)
        assert cf == pytest.approx(bf, abs=1e-6)

    def test_phase_domain_validated(self):
        with pytest.raises(ValueError):
            DiagonalPhase(2, np.array([0.0, 0.0, 0.0, 1.5]))


def _random_circuit(n, m, ell, s, seed):
    rng = RandomSeed(seed).generator()
    oracles = [random_phase(m, rng) for _ in range(ell)]
    seq = []
    calls = [i % ell for i in range(s)]
    for i, c in enumerate(calls):
        seq.append(("fixed", haar_unitary(1 << n, RandomSeed(seed).child(i))))
        seq.append(("oracle", c))
    seq.append(("fixed", haar_unitary(1 << n, RandomSeed(seed).child(999))))
    return DiagonalOracleCircuit(n, m, oracles, seq)


class TestCircuitTruncation:
    def test_no_calls_zero_distance(self):
        c = DiagonalOracleCircuit(2, 2, [], [("fixed", haar_unitary(4, RandomSeed(4)))])
        rep = circuit_truncation_bound(c, 4)
        assert rep.distance == pytest.approx(0.0, abs=1e-9)
        assert rep.s_calls == 0

    def test_single_call_reduces_to_diagonal_case(self):
        rng = RandomSeed(5).generator()
        f = random_phase(3, rng)
        c = DiagonalOracleCircuit(3, 3, [f], [("oracle", 0)])
        rep = circuit_truncation_bound(c, 6)
        assert rep.distance == pytest.approx(diag_truncation_distance(f, 6), abs=1e-9)

    def test_union_bound_s4_k10(self):
        c = _random_circuit(4, 3, 2, 4, seed=6)
        rep = circuit_truncation_bound(c, 10)
        assert rep.bound == pytest.approx(4 * math.pi / 1024)
        assert rep.distance <= rep.bound

    def test_subadditive_under_concatenation(self):
        a = _random_circuit(3, 2, 1, 2, seed=7)
        b = _random_circuit(3, 2, 1, 3, seed=8)
        joined = DiagonalOracleCircuit(
            3, 2, a.oracles + b.oracles,
            a.sequence + [("oracle", len(a.oracles) + it[1]) if it[0] == "oracle"
                          else it for it in b.sequence])
        k = 6
        ra = circuit_truncation_bound(a, k)
        rb = circuit_truncation_bound(b, k)
        rj = circuit_truncation_bound(joined, k)
        assert rj.distance <= ra.distance + rb.distance + 1e-9

    @pytest.mark.parametrize("n", [11, 63, 10**18, 2**1024], ids=["11", "63", "1e18", "2-1024"])
    def test_width_is_compared_without_building_2_to_the_n(self, n):
        f = DiagonalPhase(1, np.zeros(2))
        circuit = DiagonalOracleCircuit(n, 1, [f], [("oracle", 0)])
        with pytest.raises(ValueError, match="capped at total dim 2\\^10"):
            circuit_truncation_bound(circuit, 4)
        with pytest.raises(ValueError, match=f"wrong dimension: \\(2, 2\\) for n = {n} qubits"):
            DiagonalOracleCircuit(n, 1, [f], [("oracle", 0), ("fixed", np.eye(2))])

    def test_validation(self):
        f = DiagonalPhase(2, np.zeros(4))
        with pytest.raises(ValueError):
            DiagonalOracleCircuit(1, 2, [f], [("oracle", 0)])  # m > n
        with pytest.raises(ValueError):
            DiagonalOracleCircuit(2, 2, [f, f], [("oracle", 0)])  # unused oracle

