"""Unitary ensemble generators.

The permutation/phase/Clifford product ensemble, the Polya-urn sampler
behind the Haar-state measurement oracle, and small exact reference
designs used as oracles by the moment-operator tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prulab.linalg import PropertyViolationError, RandomSeed, ensure_budget
from prulab.stabilizer import Tableau, random_clifford_rng

# ---------------------------------------------------------------------------
# PFC ensemble
# ---------------------------------------------------------------------------


@dataclass
class PFCSample:
    """One draw of the permutation-phase-Clifford product P.F.C at a given width.

    ``permutation`` maps |x> to |perm[x]> and ``clifford`` is C's tableau.
    The +-1 phase diagonal F is never materialized: ``phase_key`` keys the
    counter-based PRF that gives its values, so widths up to n = 30 stay
    cheap.  F changes no outcome probability, so no measurement reads it.
    """

    n: int
    permutation: np.ndarray
    phase_key: int
    clifford: Tableau


def sample_pfc(n: int, seed: RandomSeed) -> PFCSample:
    """Draw P uniform over permutations, F a uniform +-1 phase diagonal
    (lazy), and C a uniform Clifford; 1 <= n <= 30."""
    if not 1 <= n <= 30:
        raise ValueError("qubit count out of range [1, 30]")
    ensure_budget(8 << n, "PFC permutation")
    rng = seed.generator()
    perm = rng.permutation(1 << n)
    phase_key = int(rng.integers(0, 2**63, dtype=np.uint64))
    return PFCSample(n, perm, phase_key, random_clifford_rng(n, rng))


# ---------------------------------------------------------------------------
# Haar-state measurement
# ---------------------------------------------------------------------------


class PolyaUrnSampler:
    """Outcome-equality sampler equivalent in distribution to measuring a
    fixed Haar state.

    The basis probabilities of a Haar state are flat-Dirichlet, so i.i.d.
    outcome draws marginalize to a d-color Polya urn (Blackwell-MacQueen
    predictive rule).  Draw i, with m earlier draws, copies the outcome of a
    uniform earlier draw with probability m/(m+d), and otherwise picks a
    uniform fresh category; outcomes are the categories, in [0, d).  State
    persists across calls: all draws share one hidden state.

    ``draw`` is vectorised and exact: the same three RNG calls and the same
    float64 arithmetic as the per-shot rule, with copies of draws from the
    same call resolved by pointer doubling over those copies alone, and
    older ones read from an int64 history whose capacity doubles as it
    grows.
    """

    def __init__(self, d: int, rng: np.random.Generator):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self._rng = rng
        self._history = np.empty(0, dtype=np.int64)
        self._size = 0

    def draw(self, shots: int) -> np.ndarray:
        rng = self._rng
        coins = rng.random(shots)
        copy_pick = rng.random(shots)
        fresh_cats = rng.integers(0, self.d, size=shots)
        m0 = self._size
        end = self._size = m0 + shots
        if end > self._history.size:
            grown = np.empty(max(end, 2 * self._history.size), dtype=np.int64)
            grown[:m0] = self._history[:m0]
            self._history = grown
        hist = self._history
        block = hist[m0:end]
        m = np.arange(m0, end, dtype=np.float64)  # exact: m + d < 2^53
        copy = coins * (m + self.d) < m
        src = (copy_pick * m).astype(np.int64)
        # copies of older draws are exact after this gather; copies of draws
        # in this block are resolved below, once the fresh categories are in
        hist.take(src, out=block)
        np.copyto(block, fresh_cats, where=~copy)
        inner = np.flatnonzero((src >= m0) & copy)
        if inner.size:
            # each in-block copy points at an earlier draw; double the
            # pointers of the copies alone until each reaches a draw that is
            # no in-block copy, which points at itself
            ptr = np.arange(shots)
            p = ptr[inner] = src[inner] - m0
            while ((q := ptr[p]) != p).any():
                ptr[inner] = p = q
            block[inner] = block[p]
        return block.copy()


# ---------------------------------------------------------------------------
# Finite ensembles and reference designs
# ---------------------------------------------------------------------------


@dataclass
class EnsembleSpec:
    """A finite distribution over U(d): unitaries with weights (default uniform)."""

    dim: int
    unitaries: list[np.ndarray]
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.unitaries:
            raise ValueError("an ensemble needs unitaries")
        count = len(self.unitaries)
        if self.weights is None:
            self.weights = np.full(count, 1.0 / count)
        w = self.weights = np.asarray(self.weights, dtype=float)
        if w.shape != (count,):
            raise ValueError(f"weights of shape {w.shape} for {count} unitaries; "
                             "give one weight per unitary")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"weight {bad[0]} is {w[bad[0]]}, not a finite number")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
        for u in self.unitaries:
            if u.shape != (self.dim, self.dim):
                raise ValueError("ensemble element dimension mismatch")

    def __len__(self) -> int:
        return len(self.unitaries)


_PAULI_1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _phase_canonical(u: np.ndarray) -> bytes:
    """Byte key identifying u modulo global phase (for group closure)."""
    flat = u.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-8))
    v = u / (flat[idx] / abs(flat[idx]))
    return (np.round(v, 8) + (0.0 + 0.0j)).tobytes()  # also collapses -0.0


def single_qubit_cliffords() -> list[np.ndarray]:
    """The 24 single-qubit Cliffords modulo phase, by closure of {H, S}."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1, 1j]).astype(complex)
    found: dict[bytes, np.ndarray] = {}
    frontier = [np.eye(2, dtype=complex)]
    found[_phase_canonical(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = g @ u
                key = _phase_canonical(v)
                if key not in found:
                    found[key] = v
                    nxt.append(v)
        frontier = nxt
    if len(found) != 24:
        raise PropertyViolationError(f"{{H, S}} closure has {len(found)} elements, not 24")
    return list(found.values())


def pauli_group(n: int) -> list[np.ndarray]:
    """The 4^n Pauli tensor products modulo phase; n <= 4."""
    if not 1 <= n <= 4:
        raise ValueError("Pauli reference design is capped at n = 4")
    out = [np.array([[1.0 + 0j]])]
    for _ in range(n):
        out = [np.kron(u, p) for u in out for p in _PAULI_1.values()]
    return out


def reference_design(kind: str, n: int = 1) -> EnsembleSpec:
    """Exact reference designs used as moment-operator oracles.

    "pauli-1-design": the 4^n Pauli group (exact 1-design).
    "single-qubit-clifford-3-design": the 24-element Clifford group at d=2
    (exact 3-design, not a 4-design).
    """
    if kind == "pauli-1-design":
        us = pauli_group(n)
        return EnsembleSpec(2**n, us)
    if kind == "single-qubit-clifford-3-design":
        us = single_qubit_cliffords()
        return EnsembleSpec(2, us)
    raise ValueError(f"unknown reference design {kind!r}")
