"""Epsilon-net coverage estimation over the unitary group.

Monte Carlo exposure estimates in diamond distance and exact product
covering.  A net is an `EnsembleSpec`: these functions read its ``dim``
and ``unitaries``, never its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from prulab.ensembles import EnsembleSpec
from prulab.linalg import (
    RandomSeed,
    diamond_distance_batch,
    ensure_budget,
    haar_unitary_rng,
)
from prulab.util import wilson_interval


#: height of the pair-trace gemm blocks that cover_with_product reads its
#: d = 2 candidates' traces from.  A net of at most this size is one block,
#: the full m x m gemm; the blocks of a larger net give the full gemm's
#: entries bit for bit, which a 1-row gemm (numpy sends it to gemv) or a
#: single-pair dot need not
_PAIR_BLOCK_ROWS = 32

#: slack on the approximate pair rank 4 - |tr|^2 within which d = 2
#: candidates are re-ranked exactly: rounding is about 1e-15, and inputs
#: unitary only to linalg.UNITARY_TOL move the quaternion rank by about 1e-9
_RANK_SLACK = 1e-8


#: the name perfbench/workloads.py builds its net by; the net is an EnsembleSpec
NetSpec = EnsembleSpec


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


def min_diamond_distance(u: np.ndarray, net: EnsembleSpec) -> tuple[float, int]:
    """Minimum diamond distance from u to the net, with the argmin index
    (lowest index on ties)."""
    if u.shape != (net.dim, net.dim):
        raise ValueError("dimension mismatch")
    dists = _distances_to_net(u, net.unitaries)
    i = int(np.argmin(dists))
    return float(dists[i]), i


def exposure_estimate(net: EnsembleSpec, eps: float, samples: int,
                      seed: RandomSeed) -> CoverageReport:
    """Fraction of Haar-sampled unitaries at distance > eps from the net.

    Monte Carlo with a Wilson interval; the sample fraction cannot tell
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


def _quaternions(ws: np.ndarray) -> np.ndarray:
    """Rows q(W) = (Re a, Im a, Re b, Im b) of W / sqrt(det W) =
    [[a, b], [-conj(b), conj(a)]] for a stack of 2x2 unitaries, as a
    (4, len(ws)) array; q is fixed up to sign, and for unitaries A, B
    |tr(A B^dag)| = 2 |<q(A), q(B)>|."""
    det = ws[:, 0, 0] * ws[:, 1, 1] - ws[:, 0, 1] * ws[:, 1, 0]
    top = ws[:, 0, :] / np.sqrt(det)[:, None]
    return np.ascontiguousarray(top.view(float).T)


def _chord(rank: float) -> float:
    """R^4 chord from q(B) to the nearer of +-q(A) for a pair whose rank
    4 - |tr(A B^dag)|^2 is ``rank``."""
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(max(1.0 - rank / 4.0, 0.0)), 0.0))


def _product_cover_d2(u: np.ndarray, net: EnsembleSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """The d = 2 branch of cover_with_product: a nearest-pair search over
    unit quaternions, whose best few pairs are re-ranked by their
    pair-trace entries."""
    m = len(net)
    stacked = net.unitaries
    rows = min(m, _PAIR_BLOCK_ROWS)
    # one gemm block, then per element about 512 bytes: h, both quaternion
    # sets, the sorted keys and the three search ranges of each query
    fixed = 16 * rows * m + 512 * m
    ensure_budget(fixed, "product cover search")
    # dist(V1 V2^dag, u) = sqrt(4 - |tr(V2 V1^dag u)|^2) and
    # |tr(V2 V1^dag u)| = 2 |<q(V2), q(u^dag V1)>|, so the best pair is the
    # R^4-closest pair of a query q(u^dag V1_i) and a point +-q(V2_j)
    h = np.einsum("kij,il->klj", stacked.conj(), u).reshape(m, 4)  # rows vec((V1_i^dag u)^T)
    g = stacked.reshape(m, 4)
    queries = _quaternions(h.conj().reshape(m, 2, 2))  # conj(h_i) is u^dag V1_i, row-major
    half = _quaternions(stacked)
    points = np.concatenate([half, -half], axis=1)  # point k is net row k % m
    if not (np.isfinite(queries).all() and np.isfinite(half).all()):
        raise ValueError("the d = 2 product cover needs unitary u and net elements")
    # about 1.5x the expected smallest angle among m^2 pairs in projective 3-space
    w = 1.5 * (3 * math.pi / (4 * m * m)) ** (1 / 3)
    while True:
        # slabs of width w in x0, each sorted by x1: a point within chord w
        # of a query lies in the query's slab or a next one, within x1 +- w
        keys = np.floor((points[0] + 1) / w) * 4 + points[1]
        order = np.argsort(keys)
        keys = keys[order]
        # sorted needles make searchsorted's probes cache-friendly
        qkeys = np.floor((queries[0] + 1) / w) * 4 + queries[1]
        qorder = np.argsort(qkeys)
        centre = qkeys[qorder] + np.array([[-4.0], [0.0], [4.0]])
        lo = np.searchsorted(keys, centre - (w + 1e-9)).ravel()
        counts = np.searchsorted(keys, centre + (w + 1e-9), side="right").ravel() - lo
        total = int(counts.sum())
        if total == 0:
            w *= 2  # at w >= 2 every pair is in the window
            continue
        ensure_budget(fixed + 48 * total, "product cover search")
        ends = np.cumsum(counts)
        pt = order[np.arange(total) + np.repeat(lo - (ends - counts), counts)]
        qi = np.repeat(np.tile(qorder, 3), counts)
        s = queries[0][qi] * points[0][pt]
        for c in (1, 2, 3):
            s += queries[c][qi] * points[c][pt]
        approx = 4.0 - 4.0 * s * s
        best = float(approx.min())
        bound = _chord(best + _RANK_SLACK)
        if bound <= w:
            break
        w = bound  # every pair within _RANK_SLACK of the best lies within chord w
    keep = approx <= best + _RANK_SLACK
    # sorted flat indices j m + i are in (V2, V1) row-major order; a pair
    # found twice, through +q and -q, ties with itself
    flat = np.sort(pt[keep] % m * m + qi[keep])
    js, iis = np.divmod(flat, m)
    # each candidate's trace, read from the block that holds its row
    starts = np.minimum(js // rows * rows, m - rows)
    tr = np.empty((rows, m), dtype=complex)
    picked = np.empty(len(flat), dtype=complex)
    for r0 in dict.fromkeys(starts.tolist()):
        at_r0 = starts == r0
        np.matmul(g[r0:r0 + rows], h.T, out=tr)  # tr[j, i] = tr(V2_{r0+j} V1_i^dag u)
        picked[at_r0] = tr[js[at_r0] - r0, iis[at_r0]]
    ranks = 4.0 - np.minimum(np.abs(picked) ** 2, 4.0)
    k = int(np.argmin(ranks))  # first minimum in row-major order
    return stacked[iis[k]], stacked[js[k]], math.sqrt(max(float(ranks[k]), 0.0))


def cover_with_product(u: np.ndarray, net: EnsembleSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Best two-element product cover of u: minimize dist(V1 V2^dag, u).

    Exact over all |net|^2 ordered pairs, ties going to the first pair in
    (V2, V1) row-major order.  At d = 2 a nearest-pair search over unit
    quaternions finds the few pairs near the best, and only those are
    ranked by the pair-trace entries of the exhaustive search, so the pair
    and the bits of its distance are the exhaustive search's.  Like
    ``diamond_distance_batch``'s closed form, that path assumes u and the
    net elements are unitary to ``linalg.UNITARY_TOL``.  When the net is an
    (eps, eta)-relaxed net with eta < 1/2 this lands within 2 eps of a
    Haar-sampled u with certainty in theory and is checked empirically at
    that strength, not promised unconditionally.
    """
    if u.shape != (net.dim, net.dim):
        raise ValueError("dimension mismatch")
    if net.dim == 2:
        return _product_cover_d2(u, net)
    m = len(net)
    d = net.dim
    stacked = net.unitaries
    ensure_budget(48 * m * d * d, "product cover search")
    best = (np.inf, 0, 0)
    for i, v1 in enumerate(net.unitaries):
        a = v1.conj().T @ u
        dists = diamond_distance_batch(stacked @ a)  # W_k = V2_k V1_i^dag u
        k = int(np.argmin(dists))
        if dists[k] < best[0]:
            best = (float(dists[k]), i, k)
    return net.unitaries[best[1]], net.unitaries[best[2]], best[0]

