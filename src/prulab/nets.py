"""Epsilon-net coverage estimation over the unitary group.

Monte Carlo exposure estimates in diamond distance, brute-force product
covering, and the ball-volume cardinality lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from prulab.bounds import check_dimension
from prulab.linalg import (
    RandomSeed,
    diamond_distance_batch,
    ensure_budget,
    haar_unitary_rng,
)
from prulab.util import wilson_interval


#: rows of the pair-trace matrix that cover_with_product holds at once;
#: 32 rows of a 2000-element net (1.5 MB) stay in cache, measured fastest
_PAIR_BLOCK_ROWS = 32


@dataclass
class NetSpec:
    """A finite set of same-dimension unitaries treated as a candidate net.

    Built from any sequence of (dim, dim) matrices; ``unitaries`` holds
    them as one (m, dim, dim) complex array, which is the caller's own
    array, not a copy, when it already is one.
    """

    dim: int
    unitaries: np.ndarray

    def __post_init__(self):
        if len(self.unitaries) == 0:
            raise ValueError("a net must be nonempty")
        if any(np.shape(u) != (self.dim, self.dim) for u in self.unitaries):
            raise ValueError("net element dimension mismatch")
        self.unitaries = np.asarray(self.unitaries, dtype=complex)

    def __len__(self) -> int:
        return len(self.unitaries)

    @classmethod
    def haar_sample(cls, dim: int, size: int, seed: RandomSeed) -> "NetSpec":
        rng = seed.generator()
        return cls(dim, [haar_unitary_rng(dim, rng) for _ in range(size)])


@dataclass
class CoverageReport:
    """Monte Carlo exposure estimate: share of Haar draws farther than eps."""

    epsilon: float
    eta_hat: float
    vol_hat: float = field(init=False)
    samples: int
    ci_half: float

    def __post_init__(self):
        self.vol_hat = 1.0 - self.eta_hat


def _distances_to_net(u: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """Diamond distances from u to every net element, batched."""
    ws = np.einsum("kij,il->kjl", stacked.conj(), u)  # V_k^dag @ u
    return diamond_distance_batch(ws)


def min_diamond_distance(u: np.ndarray, net: NetSpec) -> tuple[float, int]:
    """Minimum diamond distance from u to the net, with the argmin index
    (lowest index on ties)."""
    if u.shape != (net.dim, net.dim):
        raise ValueError("dimension mismatch")
    dists = _distances_to_net(u, net.unitaries)
    i = int(np.argmin(dists))
    return float(dists[i]), i


def exposure_estimate(net: NetSpec, eps: float, samples: int,
                      seed: RandomSeed) -> CoverageReport:
    """Fraction of Haar-sampled unitaries at distance > eps from the net.

    Monte Carlo with a Wilson interval; the estimator cannot distinguish
    a true zero exposure from a tiny one, so only the interval is
    reported.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    exposed = 0
    for i in range(samples):
        u = haar_unitary_rng(net.dim, seed.child(i).generator())
        if float(_distances_to_net(u, net.unitaries).min()) > eps:
            exposed += 1
    _, half = wilson_interval(exposed, samples)
    return CoverageReport(eps, exposed / samples, samples, half)


def cover_with_product(u: np.ndarray, net: NetSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Best two-element product cover of u: minimize dist(V1 V2^dag, u).

    Exhaustive over all |net|^2 ordered pairs; at d = 2 the pair-trace
    matrix is streamed in row blocks, and ties go to the first pair in
    (V2, V1) row-major order.  When the net is an (eps, eta)-relaxed net
    with eta < 1/2 this lands within 2 eps of a Haar-sampled u with
    certainty in theory and is checked empirically at that strength, not
    promised unconditionally.
    """
    if u.shape != (net.dim, net.dim):
        raise ValueError("dimension mismatch")
    m = len(net)
    d = net.dim
    stacked = net.unitaries
    if d == 2:
        # dist(V1 V2^dag, u) = sqrt(4 - |tr(V2 V1^dag u)|^2); the trace is a
        # 4-vector inner product, so each block of V2 rows is one gemm.  It
        # ranks pairs by the trace itself rather than calling
        # diamond_distance_batch, which would need every product matrix.
        rows = min(m, _PAIR_BLOCK_ROWS)
        ensure_budget(24 * rows * m + 48 * m * d * d, "product cover search")
        h = np.einsum("kij,il->klj", stacked.conj(), u).reshape(m, 4)  # rows vec((V1_i^dag u)^T)
        g = stacked.reshape(m, 4)
        tr = np.empty((rows, m), dtype=complex)
        rank = np.empty((rows, m))
        best = []  # (rank, flat index) of each block's first argmin
        # the last block ends at row m and overlaps its predecessor, so every
        # gemm has the same height: numpy sends a 1-row remainder to gemv,
        # whose sums can differ from gemm's in the last bit
        for r0 in [*range(0, m - rows, rows), m - rows]:
            np.matmul(g[r0:r0 + rows], h.T, out=tr)  # tr[j, i] = tr(V2_{r0+j} V1_i^dag u)
            np.abs(tr, out=rank)
            np.square(rank, out=rank)
            np.minimum(rank, 4.0, out=rank)
            np.subtract(4.0, rank, out=rank)
            k = int(np.argmin(rank))
            best.append((rank.flat[k], r0 * m + k))
        # argmin over the block minima keeps np.argmin's first-occurrence
        # rule for the whole m x m matrix, NaN included
        d2, flat = best[int(np.argmin([b[0] for b in best]))]
        j, i = divmod(flat, m)
        return net.unitaries[i], net.unitaries[j], math.sqrt(max(float(d2), 0.0))
    ensure_budget(48 * m * d * d, "product cover search")
    best = (np.inf, 0, 0)
    for i, v1 in enumerate(net.unitaries):
        a = v1.conj().T @ u
        dists = diamond_distance_batch(stacked @ a)  # W_k = V2_k V1_i^dag u
        k = int(np.argmin(dists))
        if dists[k] < best[0]:
            best = (float(dists[k]), i, k)
    return net.unitaries[best[1]], net.unitaries[best[2]], best[0]


def net_size_lower_bound(d: int, eps: float, eta: float, c_diamond: float = 1.0,
                         as_log: bool = False) -> float:
    """Ball-volume cardinality bound for an (eps, eta)-net:
    (1 - eta) (c_diamond / eps)^(d^2 - 1).

    Natural-log value, computed in log space, with ``as_log``; the plain
    value overflows to inf for large parameters.  The universal ball-volume
    constant is caller-supplied; its true value is open, the default 1 is a
    placeholder.
    """
    check_dimension(d)
    if eps <= 0 or c_diamond <= 0:
        raise ValueError("eps and c_diamond must be positive")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    if as_log:
        log_keep = math.log1p(-eta) if eta < 1.0 else -math.inf
        return log_keep + (d * d - 1) * math.log(c_diamond / eps)
    try:
        return (1.0 - eta) * (c_diamond / eps) ** (d * d - 1)
    except OverflowError:
        return math.inf

