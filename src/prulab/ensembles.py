"""Unitary ensemble generators.

The permutation/phase/Clifford product ensemble, the Polya-urn sampler
behind the Haar-state measurement oracle, and small exact reference
designs used as oracles by the moment-operator tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from prulab.linalg import PropertyViolationError, RandomSeed, ensure_budget
from prulab.stabilizer import Tableau, random_clifford_rng, tableau_to_unitary

# ---------------------------------------------------------------------------
# PFC ensemble
# ---------------------------------------------------------------------------


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; cheap stateless PRF on uint64."""
    z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass
class PFCSample:
    """One draw of the permutation-phase-Clifford product at a given width.

    The phase diagonal is never materialized: its +-1 values come from a
    seeded counter-based PRF, so widths up to n = 30 stay cheap.  The dense
    matrix P.F.C is available lazily for n <= 12.
    """

    n: int
    permutation: np.ndarray  # index array: |x> -> |perm[x]>
    phase_key: int
    clifford: Tableau
    _dense: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def phase_values(self, indices: np.ndarray) -> np.ndarray:
        """+-1 phases at the given basis indices: the top bit of the PRF."""
        h = _splitmix64(np.asarray(indices, dtype=np.uint64) ^ np.uint64(self.phase_key))
        return np.where((h >> np.uint64(63)).astype(bool), -1.0 + 0j, 1.0 + 0j)

    def dense(self) -> np.ndarray:
        """P.F.C as a matrix; n <= 12 only."""
        if self._dense is None:
            if self.n > 12:
                raise ValueError("dense form capped at n = 12")
            ensure_budget(16 * 4**self.n * 4, "dense PFC materialization")
            c = tableau_to_unitary(self.clifford)
            f = self.phase_values(np.arange(self.dim))
            out = np.empty_like(c)
            out[self.permutation] = f[:, None] * c
            self._dense = out
        return self._dense


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
    outcome draws marginalize to a d-color Polya urn; amortized O(1) per
    draw via the copy-or-fresh decomposition of the predictive rule.  State
    persists across calls: all draws share one hidden state.
    """

    def __init__(self, d: int, rng: np.random.Generator):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self._rng = rng
        self._history: list[int] = []
        self._labels: dict[int, int] = {}

    def draw(self, shots: int) -> np.ndarray:
        d = self.d
        rng = self._rng
        coins = rng.random(shots)
        copy_pick = rng.random(shots)
        fresh_cats = rng.integers(0, d, size=shots)
        out = np.empty(shots, dtype=np.int64)
        hist = self._history
        labels = self._labels
        for i in range(shots):
            m = len(hist)
            if coins[i] * (m + d) < m:
                lab = hist[int(copy_pick[i] * m)]
            else:
                cat = int(fresh_cats[i])
                lab = labels.setdefault(cat, len(labels))
            hist.append(lab)
            out[i] = lab
        return out


# ---------------------------------------------------------------------------
# Finite ensembles and reference designs
# ---------------------------------------------------------------------------


@dataclass
class EnsembleSpec:
    """A finite distribution over U(d): unitaries with weights (default uniform)."""

    dim: int
    unitaries: list[np.ndarray]
    weights: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if not self.unitaries:
            raise ValueError("an ensemble needs unitaries")
        if self.weights is None:
            self.weights = np.full(len(self.unitaries), 1.0 / len(self.unitaries))
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        for u in self.unitaries:
            if u.shape != (self.dim, self.dim):
                raise ValueError("ensemble element dimension mismatch")

    def sample(self, seed: RandomSeed) -> np.ndarray:
        i = seed.generator().choice(len(self.unitaries), p=self.weights)
        return self.unitaries[i]

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
        return EnsembleSpec(2**n, us, name=f"pauli({n})")
    if kind == "single-qubit-clifford-3-design":
        us = single_qubit_cliffords()
        return EnsembleSpec(2, us, name="clifford(1)")
    raise ValueError(f"unknown reference design {kind!r}")
