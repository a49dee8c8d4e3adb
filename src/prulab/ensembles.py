"""Unitary ensemble generators.

The permutation/phase/Clifford product ensemble, the Polya-urn sampler
behind the Haar-state measurement oracle, finite ensembles (a Haar-sampled
one is the usual net of `prulab.nets`), and the exact single-qubit Pauli
and Clifford designs, read off Clifford tableaus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prulab.linalg import RandomSeed, ensure_budget, haar_unitaries_rng
from prulab.stabilizer import (
    Tableau,
    clifford_tableau,
    random_clifford_rng,
    symplectic_group_order,
    tableau_to_unitary,
)

# ---------------------------------------------------------------------------
# PFC ensemble
# ---------------------------------------------------------------------------


@dataclass
class PFCSample:
    """One draw of the permutation-phase-Clifford product P.F.C at a given width.

    ``permutation`` maps |x> to |perm[x]> and ``clifford`` is C's tableau.
    The +-1 phase diagonal F is never materialized: ``phase_key`` keys the
    counter-based PRF that gives its values, so F costs nothing at any
    width.  F changes no outcome probability, so no measurement reads it.
    The permutation is held whole, 8 * 2^n bytes: 8 GiB at n = 30, the
    default memory budget.
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
        m0 = self._size
        end = m0 + shots
        if end > self._history.size:
            size = max(end, 2 * self._history.size)
            # the history and its grown copy, both held while one is copied
            ensure_budget(8 * (self._history.size + size), "Polya urn history")
            grown = np.empty(size, dtype=np.int64)
            grown[:m0] = self._history[:m0]
            self._history = grown
        self._size = end
        rng = self._rng
        coins = rng.random(shots)
        copy_pick = rng.random(shots)
        fresh_cats = rng.integers(0, self.d, size=shots)
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


REFERENCE_DESIGNS = ("pauli-1", "clifford-1")


@dataclass
class EnsembleSpec:
    """A finite distribution over U(d): unitaries, held as one C-contiguous
    (m, dim, dim) complex array (the caller's own when it already is one),
    with weights (default uniform).  A net is an ensemble whose weights
    nothing reads: `prulab.nets` covers with its unitaries alone."""

    dim: int
    unitaries: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        count = len(self.unitaries)
        if count == 0:
            raise ValueError("an ensemble needs unitaries")
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
        if any(np.shape(u) != (self.dim, self.dim) for u in self.unitaries):
            raise ValueError("ensemble element dimension mismatch")
        self.unitaries = np.ascontiguousarray(self.unitaries, dtype=complex)

    def __len__(self) -> int:
        return len(self.unitaries)

    @classmethod
    def haar_sample(cls, dim: int, size: int, seed: RandomSeed) -> "EnsembleSpec":
        """``size`` Haar unitaries drawn in turn from the seed's generator,
        written in place into the (size, dim, dim) array charged here in
        blocks of 512 entries: bit for bit the elements drawn one at a time."""
        if dim < 1:  # before the charge and the stack take arithmetic on it
            raise ValueError("dimension must be >= 1")
        # the stack, and per element the constructor's uniform weight (8
        # bytes) and the bool masks of its check (2): at dim = 1 and 2 those
        # are a large share.  A block's working set, under 100 bytes an
        # entry, stays below 64 KiB (from dim = 23 up a block is one element)
        ensure_budget((16 * dim * dim + 10) * size, "Haar net")
        rng = seed.generator()
        net = np.empty((size, dim, dim), dtype=complex)
        step = max(1, 512 // (dim * dim))
        for i in range(0, size, step):
            block = net[i:i + step]
            block[...] = haar_unitaries_rng(dim, len(block), rng)
        return cls(dim, net)


def reference_design(name: str) -> EnsembleSpec:
    """The exact single-qubit reference designs, read off the 6 x 4
    tableaus of every symplectic index and sign pattern through
    `tableau_to_unitary`.

    "clifford-1": all 24, the single-qubit Clifford group modulo phase
    (an exact 3-design, not a 4-design).  "pauli-1": the 4 whose rows are
    the identity's, X -> +-X and Z -> +-Z, the Pauli group modulo phase
    (an exact 1-design).
    """
    if name not in REFERENCE_DESIGNS:
        raise ValueError(f"unknown reference design {name!r}")
    tableaus = [clifford_tableau(i, signs, 1)
                for i in range(symplectic_group_order(1)) for signs in range(4)]
    if name == "pauli-1":
        tableaus = [t for t in tableaus if t.rows == (1, 2)]
    return EnsembleSpec(2, np.array([tableau_to_unitary(t) for t in tableaus]))
