"""Shared brute-force and exact oracles for the test suite.

These deliberately avoid the closed forms they are checking: the diamond
oracle maximizes the output trace distance over pure inputs with an
ancilla by direct numerical optimization, and the hull oracle finds the
point of the spectrum's convex hull nearest the origin geometrically.
The Haar-basis measurement oracle builds the whole basis and samples the
outcome from its Born probabilities, and the dense Haar-state oracle
(`HaarDenseOracle`) samples the Born probabilities of a whole state vector,
the reference for `prulab.distinguisher.HaarUrnOracle`, which samples
that law exactly with no vector.  The symplectic-index and
measurement-support oracles are the bit-per-byte numpy forms of the
packed-row code in `prulab.stabilizer`, with the GF(2) row reduction and
solver they need; `prulab.stabilizer` keeps supports as packed outcome
indices and needs none of them.  The breadth-first closure of {H, S}
over matrices keyed by their phase-fixed, rounded bytes
(`single_qubit_cliffords`) is the oracle for the single-qubit designs
`prulab.ensembles.reference_design` reads off tableaus; it shares no
code with the tableau read-out.  The d = 2 pair-cover oracle ranks the
whole m x m trace matrix at once, where `prulab.nets` streams it in row
blocks, and the nearest-element oracle (`min_diamond_distance_full`)
ranks the batched distance to every element, where `prulab.nets` sends
only the few near the best trace through it at d = 2.

The per-shot Polya urn is the oracle for the vectorised
`PolyaUrnSampler.draw`: same RNG calls, one predictive step per shot.
The uncached channel oracle, one matmul per query, is the oracle for
`ChannelOracle.apply`'s one-entry output cache.  The (t - 1)-step run loop
is the oracle for `blocked_collision_counts`' run windows, and the
(shots, k) multiply of the same raw words' unpacked bits with its XOR
reduction the oracle for `sample_from_support`'s per-byte table lookups.
In `prulab.moments`, the cycle-count formula (`permutation_gram_cycles`)
is the oracle for the Haar projector's Gram taken from the permutation
operators themselves, ``scipy.linalg.eigh`` on the generalized problem
(`relative_eps_scipy`) the oracle for the relative bracket's scaled
``eigvalsh``, and the double loop of ``np.trace`` calls
(`is_symmetric_ensemble_loop`) the oracle for the dagger pairing by rows
of traces.

The exact ground truths no program calls live here too, not in
`prulab`: the Schatten norm behind the diamond oracle, the `np.unique`
collision count that checks `blocked_collision_counts`, the two exact
routes to Haar partition probabilities (Dirichlet integral and urn
product), the big-integer prior support bound, 50-digit mpmath values
of the log and input-length bounds in `prulab.bounds`, the Choi matrix of
a moment operator (`choi`, the plain reshuffle; `prulab.moments` builds
only its Hermitian part) with the trace-preservation and
complete-positivity checks it feeds, dense tableau
Paulis, the closed-form amplitudes of the (M, u, v) state family,
membership in and enumeration of a measurement support, the dense P.F.C
matrix of a PFC sample with the splitmix64 phase PRF its ``phase_key``
keys, uniformly random diagonal phase functions, and the Haar-random
state vector (`haar_state`) whose Born probabilities the dense Haar
oracle samples.

So do the checks and constructions that only tests use: the bit-block
form of a tableau (`tableau_from_blocks`, which reads (2n, n) x and z
blocks and 2n sign bits mod 2 and checks their shapes, `tableau_blocks`,
its inverse, `identity_tableau` and the `_pack_rows` they pack with), the
2n x 2n bit matrix of a symplectic index (`symplectic_from_index`, the
packed rows `prulab.stabilizer.clifford_tableau` reads, spread out by
`_unpack_rows`), the symplectic form check and hex form of a tableau with
its validating reader, the one-to-one match of two lists of unitaries
modulo phase, the (M, u, v) full-support state family, the exact
diamond distance of one truncated diagonal, the 2->2 distance with the
multiplicativity check of composed symmetric ensembles, net composition
and dagger closure, and the tomography-based net-membership test.  The
manifest writers (`dump_json` and the `*_to_json_dict` forms) build test
files and are the round-trip oracles of the loaders in `prulab.serialize`;
`readme_commands` reads README's `prulab` lines for the CLI tests.

The memory contract of an entry point (its measured peak at or under the
largest charge it makes with ``ensure_budget``) is read by one tool,
`traced_peak`: a warm-up call, an ``ensure_budget`` spy on the given
modules, and the tracemalloc peak and the charges of a second call.
tracemalloc sees what numpy allocates, not the workspace LAPACK takes
inside ``eigh`` or ``svd``.
"""

from __future__ import annotations

import itertools
import json
import math
import shlex
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from prulab.ensembles import EnsembleSpec, PFCSample
from prulab.linalg import (
    PropertyViolationError,
    RandomSeed,
    diamond_distance_from_spectrum,
    ensure_budget,
)
from prulab.moments import (
    _SUPPORT_TOL,
    _SYMMETRY_TOL,
    haar_moment_operator,
    is_symmetric_ensemble,
    moment_operator,
)
from prulab.nets import _distances_to_net, min_diamond_distance
from prulab.stabilizer import (
    AffineSupport,
    Tableau,
    _check_index_width,
    _symplectic_rows,
    symplectic_group_order,
    tableau_to_unitary,
)
from prulab.tomography import ChannelOracle, naive_process_tomography
from prulab.truncation import DiagonalOracleCircuit, DiagonalPhase, truncate_diagonal

#: tolerance of the channel-property checks on moment operators
PROJECTOR_TOL = 1e-9


def traced_peak(call, monkeypatch, *modules):
    """(result, peak, charges) of ``call()``: its tracemalloc peak in bytes
    and the byte counts it passed to ``ensure_budget`` in ``modules``, which
    are spied on, not enforced.  An untraced warm-up call first keeps
    one-time imports and caches out of the peak."""
    call()
    charges = []
    for module in modules:
        monkeypatch.setattr(module, "ensure_budget", lambda nbytes, what: charges.append(nbytes))
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak, charges


def schatten_norm(x: np.ndarray, k) -> float:
    """Schatten-k norm (singular-value l_k); k = "inf" or np.inf is the operator norm."""
    s = np.linalg.svd(x, compute_uv=False)
    if k == 1:
        return float(np.sum(s))
    if k == 2:
        return float(np.sqrt(np.sum(s * s)))
    if k in ("inf", np.inf):
        return float(s[0]) if s.size else 0.0
    raise ValueError("k must be one of 1, 2, inf")


def brute_force_diamond(u: np.ndarray, v: np.ndarray, restarts: int = 8,
                        seed: int = 0) -> float:
    """max over pure |psi> on system x ancilla of ||(U x I)psi - (V x I)psi||_1."""
    d = u.shape[0]
    big = d * d
    ui = np.kron(u, np.eye(d))
    vi = np.kron(v, np.eye(d))
    rng = np.random.default_rng(seed)

    def neg_trace_dist(x):
        psi = x[:big] + 1j * x[big:]
        nrm = np.linalg.norm(psi)
        if nrm < 1e-12:
            return 0.0
        psi = psi / nrm
        a = ui @ psi
        b = vi @ psi
        diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
        return -schatten_norm(diff, 1)

    best = 0.0
    for _ in range(restarts):
        x0 = rng.standard_normal(2 * big)
        res = minimize(neg_trace_dist, x0, method="L-BFGS-B")
        best = max(best, -res.fun)
    return best


def hull_diamond_from_spectrum(eigs: np.ndarray) -> float:
    """2 sqrt(1 - h^2) for h the distance from 0 to the convex hull of one
    spectrum.  The hull misses the origin only when an angular gap exceeds
    pi, and then its nearest point lies on the chord across that gap."""
    ang = np.sort(np.angle(eigs))
    gaps = np.append(np.diff(ang), ang[0] + 2 * np.pi - ang[-1])
    i = int(np.argmax(gaps))
    if gaps[i] <= np.pi:
        return 2.0
    a, b = np.exp(1j * ang[i]), np.exp(1j * ang[(i + 1) % ang.size])
    ab = b - a
    denom = abs(ab) ** 2
    t = 0.0 if denom < 1e-30 else min(max(-(a.conjugate() * ab).real / denom, 0.0), 1.0)
    h = abs(a + t * ab)
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - h * h)))


def collision_count(outcomes) -> int:
    """Number of equal pairs sum_{i<j} 1{x_i = x_j} among the outcomes, by
    `np.unique`; the oracle for `blocked_collision_counts`."""
    arr = np.asarray(outcomes)
    if arr.shape[0] < 2:
        raise ValueError("need at least two outcomes")
    _, counts = np.unique(arr, return_counts=True, axis=0 if arr.ndim > 1 else None)
    return int(np.sum(counts * (counts - 1) // 2))


def blocked_collision_counts_loop(samples: np.ndarray) -> np.ndarray:
    """Per-row collision counts by one pass over the sorted columns: each
    equal neighbour extends the current run of equal values by one and
    adds its length, so a group of g equal values adds 1 + ... + (g - 1);
    the oracle for `blocked_collision_counts`."""
    s = np.sort(samples, axis=1)
    eq = (s[:, 1:] == s[:, :-1]).astype(np.int64)
    run = np.zeros(s.shape[0], dtype=np.int64)
    total = np.zeros(s.shape[0], dtype=np.int64)
    for j in range(eq.shape[1]):
        run = (run + 1) * eq[:, j]
        total += run
    return total


def sample_from_support_reduce(sup: AffineSupport, shots: int,
                               rng: np.random.Generator) -> np.ndarray:
    """`sample_from_support` by unpacking the low k bits of the same raw
    words into a (shots, k) coefficient matrix, one int64 multiply by the
    basis and an XOR reduction along each row; its oracle."""
    _check_index_width(sup)
    k = sup.k_dim
    if k == 0:
        return np.full(shots, sup.offset, dtype=np.int64)
    raw = rng.bit_generator.random_raw(shots).astype("<u8", copy=False)
    coeffs = np.unpackbits(raw.view(np.uint8).reshape(shots, 8), axis=1,
                           bitorder="little")[:, :k]
    picked = coeffs * np.array(sup.basis, dtype=np.int64)
    return np.bitwise_xor.reduce(picked, axis=1) ^ sup.offset


def partition_probability_dirichlet(d: int, block_sizes: list[int]) -> Fraction:
    """Exact probability that t basis draws from a Haar state realize a given
    set partition of positions, via the flat-Dirichlet moment integral:
    [d]_k (d-1)!/(d+t-1)! prod_i b_i!."""
    k = len(block_sizes)
    t = sum(block_sizes)
    if k > d:
        return Fraction(0)
    falling = 1
    for j in range(k):
        falling *= d - j
    num = falling * math.factorial(d - 1)
    for b in block_sizes:
        num *= math.factorial(b)
    return Fraction(num, math.factorial(d + t - 1))


def partition_probability_urn(d: int, blocks: list[list[int]]) -> Fraction:
    """Same event probability via the urn predictive product along positions.

    `blocks` lists the positions (0-based) of each block; exchangeability
    makes the product depend only on the pattern, giving an independent
    route to the Dirichlet integral.
    """
    t = sum(len(b) for b in blocks)
    owner = {}
    for bi, b in enumerate(blocks):
        for pos in b:
            owner[pos] = bi
    if len(owner) != t or set(owner) != set(range(t)):
        raise ValueError("blocks must partition positions 0..t-1")
    if len(blocks) > d:
        return Fraction(0)
    counts = [0] * len(blocks)
    seen = 0
    prob = Fraction(1)
    for pos in range(t):
        bi = owner[pos]
        if counts[bi] == 0:
            prob *= Fraction(d - seen, pos + d)
            seen += 1
        else:
            prob *= Fraction(counts[bi] + 1, pos + d)
        counts[bi] += 1
    return prob


class PolyaUrnLoop:
    """The per-shot Polya urn, the oracle for `PolyaUrnSampler.draw`: the
    same three RNG calls per draw, then one predictive step per shot."""

    def __init__(self, d: int, rng: np.random.Generator):
        self.d = d
        self._rng = rng
        self._history: list[int] = []

    def draw(self, shots: int) -> np.ndarray:
        d = self.d
        rng = self._rng
        coins = rng.random(shots)
        copy_pick = rng.random(shots)
        fresh_cats = rng.integers(0, d, size=shots)
        out = np.empty(shots, dtype=np.int64)
        hist = self._history
        for i in range(shots):
            m = len(hist)
            if coins[i] * (m + d) < m:
                cat = hist[int(copy_pick[i] * m)]
            else:
                cat = int(fresh_cats[i])
            hist.append(cat)
            out[i] = cat
        return out


def prior_support_bound_exact(d: int, t: int, delta: Fraction) -> Fraction:
    """Big-integer ground truth for the support bound whose natural log
    `prulab.bounds.log_prior_support_bound` returns."""
    b1 = (1 - delta) * Fraction(math.comb(d + t - 1, t)) ** 2
    b2 = Fraction(d ** (2 * t), math.factorial(t)) / (1 + delta)
    return max(b1, b2)


#: the values the exit-contract fuzz tests of the CLI give a
#: numeric flag: small and boundary integers, fractions, the float
#: extremes (largest, near-largest, subnormal, smallest subnormal) and the
#: non-finite
FUZZ_NUMBERS = [0, 1, -1, 0.5, 1.5, 1e300, 1e-300, 63, 64, 1023, 2000,
                1e306, 1.7e308, 1e-320, 5e-324]
FUZZ_VALUES = [*map(str, FUZZ_NUMBERS), "nan", "inf"]
#: the values of a flag each of whose units is a draw: small counts keep an
#: example cheap
FUZZ_COUNTS = ["-1", "0", "1", "2"]


def readme_commands() -> list[list[str]]:
    """The argv of each `prulab` line in README's CLI block, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("prulab ")]


#: significant digits of the mpmath bound oracles below, each fed the exact
#: binary value of its float inputs
MP_DIGITS = 50


def mp_log_prior_support_bound(d: int, t: int, delta: float):
    """ln max{(1 - delta) C(d + t - 1, t)^2, d^{2t} / ((1 + delta) t!)}, as
    loggammas whose working digits cover their cancellation."""
    with mpmath.workdps(MP_DIGITS + 10 + len(str(d)) + len(str(t))):
        d, t, delta = mpmath.mpf(d), mpmath.mpf(t), mpmath.mpf(delta)
        b2 = 2 * t * mpmath.log(d) - mpmath.loggamma(t + 1) - mpmath.log1p(delta)
        if delta == 1:
            return b2
        log_binom = mpmath.loggamma(d + t) - mpmath.loggamma(t + 1) - mpmath.loggamma(d)
        return max(mpmath.log1p(-delta) + 2 * log_binom, b2)


def mp_log_improved_support_bound(d: int, t: float, delta: float, c_design: float):
    """ln of ((2 - 2 delta)/(3 + delta)) (c t / (d^2 ln(4/(1 - delta))))^((d^2 - 1)/2)."""
    with mpmath.workdps(MP_DIGITS + 10):
        d2, t, delta, c = (mpmath.mpf(d) ** 2, mpmath.mpf(t), mpmath.mpf(delta),
                           mpmath.mpf(c_design))
        base = c * t / (d2 * mpmath.log(4 / (1 - delta)))
        return mpmath.log((2 - 2 * delta) / (3 + delta)) + (d2 - 1) / 2 * mpmath.log(base)


def mp_log_net_size_lower_bound(d: int, eps: float, eta: float, c_diamond: float):
    """ln of (1 - eta) (c / eps)^(d^2 - 1); -inf at eta = 1."""
    if eta == 1:
        return -mpmath.inf
    with mpmath.workdps(MP_DIGITS + 10):
        return mpmath.log1p(-mpmath.mpf(eta)) + (mpmath.mpf(d) ** 2 - 1) * mpmath.log(
            mpmath.mpf(c_diamond) / mpmath.mpf(eps))


def mp_rom_input_length_bounds(d: int, t: float, epsilon: float, additive_slack: float) -> dict:
    """m_design_1, m_design_2 and m_net as log2 log2 of the ratios d^2/t,
    t/d^2 and 1/epsilon, each None outside its regime."""
    with mpmath.workdps(MP_DIGITS + 10):
        d2, t, eps, slack = (mpmath.mpf(d) ** 2, mpmath.mpf(t), mpmath.mpf(epsilon),
                             mpmath.mpf(additive_slack))

        def loglog2(x):
            return mpmath.log(mpmath.log(x, 2), 2)

        return {
            "m_design_1": mpmath.log(t, 2) + loglog2(d2 / t) - slack if 0 < t < d2 else None,
            "m_design_2": mpmath.log(d2, 2) + loglog2(t / d2) - slack if t > d2 else None,
            "m_net": mpmath.log(d2, 2) + loglog2(1 / eps) - slack if 0 < eps < 1 else None,
        }


def choi(m: np.ndarray) -> np.ndarray:
    """The Choi matrix of the moment operator ``m``, its reshuffle
    C[(i, j), (k, l)] = m[(i, k), (j, l)]; positive semidefinite iff the map
    is completely positive."""
    n = math.isqrt(len(m))
    return m.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def is_trace_preserving(m: np.ndarray, tol: float = PROJECTOR_TOL) -> bool:
    """Whether the moment operator ``m``'s Choi matrix has the identity
    as its partial trace over the output factor."""
    n = math.isqrt(len(m))
    pt = np.trace(choi(m).reshape(n, n, n, n), axis1=0, axis2=2)
    return np.allclose(pt, np.eye(n), atol=tol)


def is_completely_positive(m: np.ndarray, tol: float = PROJECTOR_TOL) -> bool:
    """Whether the moment operator ``m``'s Choi matrix is positive
    semidefinite to within ``tol``."""
    c = choi(m)
    ev = np.linalg.eigvalsh((c + c.conj().T) / 2)
    return bool(ev.min() >= -tol)


def total_variation(counts_a: dict, counts_b: dict, n_a: int, n_b: int) -> float:
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / n_a - counts_b.get(k, 0) / n_b) for k in keys
    )


def empirical_counts(values) -> dict:
    out: dict = {}
    for v in values:
        key = int(v)
        out[key] = out.get(key, 0) + 1
    return out


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian vector, whose
    Born probabilities `HaarDenseOracle` samples."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


class HaarDenseOracle:
    """Measurement oracle of a hidden Haar state, dense realization: the
    reference for `prulab.distinguisher.HaarUrnOracle`, which samples the
    same law with no state vector.

    The state is `haar_state`'s, drawn from the seed's generator;
    ``draw(shots)`` is one search of its Born cdf per uniform from the same
    generator, so no draw depends on the split.
    """

    def __init__(self, d: int, seed: RandomSeed):
        self._rng = rng = seed.generator()
        probs = np.abs(haar_state(d, rng)) ** 2
        cdf = np.cumsum(probs / probs.sum())
        self._cdf = cdf / cdf[-1]

    def draw(self, shots: int) -> np.ndarray:
        if shots < 0:
            raise ValueError(f"shots must be nonnegative, got {shots}")
        # rng.choice(d, size=shots, p=probs) with the cdf built once, not per call
        return self._cdf.searchsorted(self._rng.random(shots), side="right")


def haar_basis_measurement(phis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The basis vector selected by measuring each unit row of ``phis`` in a
    fresh Haar basis: batched Ginibre QR with phase fix, then a cdf search
    over the Born probabilities."""
    shots, big = phis.shape
    z = (rng.standard_normal((shots, big, big))
         + 1j * rng.standard_normal((shots, big, big))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.einsum("sii->si", r)
    ws = q * (diag / np.abs(diag))[:, None, :]
    amps = np.einsum("sij,si->sj", ws.conj(), phis)
    probs = np.abs(amps) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(shots)
    # a cumsum ending below 1 can leave u past every entry: clamp to D-1
    ks = np.minimum((np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1), big - 1)
    return ws[np.arange(shots), :, ks]


class UncachedChannelOracle(ChannelOracle):
    """The per-call oracle behind `ChannelOracle.apply`'s one-entry cache:
    one matmul per query, a fresh writable output each time."""

    def apply(self, state: np.ndarray) -> np.ndarray:
        d = self.dim
        if state.ndim != 1 or state.size % d != 0:
            raise ValueError("state length must be a multiple of the channel dimension")
        self.queries += 1
        anc = state.size // d
        return (self._hidden @ state.reshape(d, anc)).reshape(-1)


def min_diamond_distance_full(u: np.ndarray, net) -> tuple[float, int]:
    """The nearest-element search over the batched distance to every net
    element: the first minimum and its index."""
    dists = _distances_to_net(u, net.unitaries)
    i = int(np.argmin(dists))
    return float(dists[i]), i


def cover_with_product_unblocked(u: np.ndarray, net) -> tuple[np.ndarray, np.ndarray, float]:
    """The d = 2 pair search over the full m x m trace matrix: one gemm,
    the clamped rank 4 - min(|tr|^2, 4) computed in place on |tr|, one
    row-major argmin."""
    m = len(net)
    stacked = net.unitaries
    h = np.einsum("kij,il->klj", stacked.conj(), u).reshape(m, 4)
    g = stacked.reshape(m, 4)
    tr = g @ h.T  # tr[j, i] = tr(V2_j V1_i^dag u)
    d2 = np.abs(tr)
    np.square(d2, out=d2)
    np.minimum(d2, 4.0, out=d2)
    np.subtract(4.0, d2, out=d2)
    j, i = np.unravel_index(int(np.argmin(d2)), d2.shape)
    best = math.sqrt(max(float(d2[j, i]), 0.0))
    return net.unitaries[i], net.unitaries[j], best


def _sym_inner(v: np.ndarray, w: np.ndarray) -> int:
    return int(np.dot(v[0::2], w[1::2]) + np.dot(v[1::2], w[0::2])) % 2


def _transvect(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Apply the transvection x -> x + <x,h> h to every row of g."""
    prod = (g[:, 0::2].astype(np.int64) @ h[1::2].astype(np.int64)
            + g[:, 1::2].astype(np.int64) @ h[0::2].astype(np.int64)) % 2
    return (g ^ np.outer(prod.astype(np.uint8), h)).astype(np.uint8)


def _int_to_bits(k: int, width: int) -> np.ndarray:
    return np.array([(k >> j) & 1 for j in range(width)], dtype=np.uint8)


def _find_transvection(x: np.ndarray, y: np.ndarray):
    """Vectors (h1, h2) with Z_h2(Z_h1(x)) = y for nonzero x, y."""
    nn = x.size
    zero = np.zeros(nn, dtype=np.uint8)
    if np.array_equal(x, y):
        return zero, zero
    if _sym_inner(x, y) == 1:
        return (x ^ y), zero
    z = np.zeros(nn, dtype=np.uint8)
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and (y[ii] or y[ii + 1]):
            z[ii] = x[ii] ^ y[ii]
            z[ii + 1] = x[ii + 1] ^ y[ii + 1]
            if z[ii] == 0 and z[ii + 1] == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            return (x ^ z), (z ^ y)
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and not (y[ii] or y[ii + 1]):
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(nn // 2):
        ii = 2 * i
        if (y[ii] or y[ii + 1]) and not (x[ii] or x[ii + 1]):
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    return (x ^ z), (z ^ y)


def _unpack_rows(rows: list[int] | tuple[int, ...], width: int) -> np.ndarray:
    """Packed rows -> a (len(rows), width) uint8 bit array, bit j of each
    row in column j."""
    nbytes = (width + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def symplectic_from_index(i: int, n: int) -> np.ndarray:
    """The 2n x 2n symplectic bit matrix of index i in [0, |Sp(2n,2)|): the
    packed rows `prulab.stabilizer` builds its tableaus from, unpacked, in
    the pair-interleaved column order (2q, 2q+1 the X/Z bits of qubit q)."""
    if n < 1:
        raise ValueError(f"need n >= 1 qubits, got {n}")
    if not 0 <= i < symplectic_group_order(n):
        raise ValueError(f"symplectic index {i} outside [0, {symplectic_group_order(n)})")
    return _unpack_rows(_symplectic_rows(i, n), 2 * n)


def symplectic_from_index_bits(i: int, n: int) -> np.ndarray:
    """The Koenig-Smolin index bijection with one byte per matrix entry and a
    small matmul per transvection; wraps indices outside [0, |Sp(2n,2)|)."""
    nn = 2 * n
    s = (1 << nn) - 1
    k = (i % s) + 1
    i //= s

    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.uint8)
    e1[0] = 1
    t1, t2 = _find_transvection(e1, f1)

    bits = _int_to_bits(i % (1 << (nn - 1)), nn - 1)
    i >>= nn - 1

    eprime = e1.copy()
    eprime[2:] = bits[1:]
    h0 = _transvect(t2, eprime[None, :])[0]
    h0 = _transvect(t1, h0[None, :])[0]
    if bits[0] == 1:
        f1 = np.zeros(nn, dtype=np.uint8)

    if n == 1:
        g = np.eye(2, dtype=np.uint8)
    else:
        g = np.zeros((nn, nn), dtype=np.uint8)
        g[0, 0] = g[1, 1] = 1
        g[2:, 2:] = symplectic_from_index_bits(i, n - 1)

    g = _transvect(t2, g)
    g = _transvect(t1, g)
    g = _transvect(h0, g)
    g = _transvect(f1, g)
    return g


def gf2_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) with lexicographic pivots."""
    m = a.copy().astype(np.uint8) % 2
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hot = np.nonzero(m[r:, c])[0]
        if hot.size == 0:
            continue
        p = r + hot[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.nonzero(m[:, c])[0]
        for q in others:
            if q != r:
                m[q] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of a x = b over GF(2), or None if inconsistent."""
    rows, cols = a.shape
    aug = np.concatenate([a.astype(np.uint8) % 2, (b.astype(np.uint8) % 2)[:, None]], axis=1)
    m, pivots = gf2_rref(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, pc in enumerate(pivots):
        x[pc] = m[r, cols]
    return x


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """Bit rows -> integers (qubit 0 = most significant), n <= 63."""
    n = rows.shape[-1]
    weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
    return rows.astype(np.uint64) @ weights


def pauli_matrix(x: np.ndarray, z: np.ndarray, r: int) -> np.ndarray:
    """Dense Hermitian Pauli for a tableau row."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    si = np.eye(2, dtype=complex)
    table = {(0, 0): si, (1, 0): sx, (0, 1): sz, (1, 1): sy}
    out = np.array([[1.0 + 0j]])
    for xq, zq in zip(x, z):
        out = np.kron(out, table[(int(xq), int(zq))])
    return (-1) ** int(r) * out


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


def one_to_one_modulo_phase(us, vs) -> bool:
    """Whether each of the unitaries ``us`` equals exactly one of ``vs`` up
    to a global phase and each of ``vs`` exactly one of ``us``: |tr(U^dag V)|/d
    is 1 exactly at a phase multiple, here read as above 1 - 1e-9."""
    overlaps = np.array([[abs(np.trace(u.conj().T @ v)) / len(u) for v in vs] for u in us])
    matches = overlaps > 1 - 1e-9
    return (matches.shape == (len(us), len(us)) and (matches.sum(axis=0) == 1).all()
            and (matches.sum(axis=1) == 1).all())


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Bit rows -> one int per row, column j as bit j; the inverse of
    `_unpack_rows`."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[j: j + width], "little") for j in range(0, len(buf), width)]


def tableau_from_blocks(n: int, x, z, r) -> Tableau:
    """The tableau of (2n, n) bit blocks x and z and 2n sign bits r, each
    entry read mod 2; rejects blocks of other shapes."""
    x, z, r = (np.asarray(block, dtype=np.uint8) % 2 for block in (x, z, r))
    if x.shape != (2 * n, n) or z.shape != (2 * n, n) or r.shape != (2 * n,):
        raise ValueError("tableau block shapes inconsistent with n")
    g = np.empty((2 * n, 2 * n), dtype=np.uint8)
    g[:, 0::2], g[:, 1::2] = x, z
    return Tableau(n, tuple(_pack_rows(g)), tuple(r.tolist()))


def tableau_blocks(t: Tableau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tableau's (2n, n) x and z bit blocks and its (2n,) sign bits, as
    uint8 arrays; the inverse of `tableau_from_blocks`."""
    g = _unpack_rows(t.rows, 2 * t.n)
    return g[:, 0::2], g[:, 1::2], np.array(t.r, dtype=np.uint8)


def identity_tableau(n: int) -> Tableau:
    """The identity Clifford: row j is +X_j, row n+j is +Z_j."""
    return Tableau(n, tuple(1 << 2 * j for j in range(n)) + tuple(2 << 2 * j for j in range(n)),
                   (0,) * (2 * n))


def is_symplectic(t: Tableau) -> bool:
    """Whether the tableau's rows commute except for the X_j/Z_j partner pairs."""
    n = t.n
    x, z, _ = tableau_blocks(t)
    form = (x @ z.T + z @ x.T) % 2
    want = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    want[:n, n:] = np.eye(n, dtype=np.uint8)
    want[n:, :n] = np.eye(n, dtype=np.uint8)
    return np.array_equal(form, want)


def tableau_to_json_dict(t: Tableau) -> dict:
    """Each bit row as one zero-padded hex string, column j as bit j; the
    digest of `random_clifford_rng`'s pinned stream hashes this form."""
    def hexes(bits: np.ndarray) -> list[str]:
        return [format(row, f"0{(bits.shape[1] + 3) // 4}x") for row in _pack_rows(bits)]

    x, z, r = tableau_blocks(t)
    return {"n": t.n, "x": hexes(x), "z": hexes(z), "r": hexes(r[None, :])[0]}


def _hex_rows(field: str, hexes, count: int, width: int) -> list[int]:
    """``count`` hex rows of at most ``width`` bits from a tableau field."""
    if not isinstance(hexes, list) or len(hexes) != count:
        raise ValueError(f"tableau field {field!r} needs a list of {count} hex rows")
    try:
        rows = [int(text, 16) for text in hexes]
    except (TypeError, ValueError):
        raise ValueError(f"tableau field {field!r} holds a row that is not hex") from None
    if not all(0 <= row < 1 << width for row in rows):
        raise ValueError(f"tableau field {field!r} sets bits beyond its {width} columns")
    return rows


def tableau_from_json_dict(d: dict) -> Tableau:
    """Inverse of `tableau_to_json_dict`, rejecting wrong row counts, bits
    beyond the row width and non-symplectic tableaus."""
    n = d["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"tableau field 'n' must be a positive integer, got {n!r}")
    x, z = (_unpack_rows(_hex_rows(key, d[key], 2 * n, n), n) for key in ("x", "z"))
    r = _unpack_rows(_hex_rows("r", [d["r"]], 1, 2 * n), 2 * n)[0]
    t = tableau_from_blocks(n, x, z, r)
    if not is_symplectic(t):
        raise ValueError("tableau fields 'x' and 'z' are not symplectic: "
                         "their rows must commute except for the X_j/Z_j pairs")
    return t


@dataclass(frozen=True)
class GammaParams:
    """Parameters (M, u, v) of the explicit full-support stabilizer family.

    M is stored strictly upper-triangular (canonical; the quadratic form
    only sees M_ij + M_ji for i < j), u and v are bit vectors.
    """

    n: int
    m_matrix: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m_matrix, dtype=np.uint8) % 2
        if m.shape != (self.n, self.n):
            raise ValueError("M must be n x n")
        if np.any(np.diagonal(m)):
            raise ValueError("M must have zero diagonal")
        canon = np.triu(m ^ m.T, k=1).astype(np.uint8)
        object.__setattr__(self, "m_matrix", canon)
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.uint8) % 2)
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.uint8) % 2)
        if self.u.shape != (self.n,) or self.v.shape != (self.n,):
            raise ValueError("u, v must be length-n bit vectors")


def gamma_state(p: GammaParams) -> Tableau:
    """Clifford preparing 2^{-n/2} sum_x i^{u.x} (-1)^{x^T M x + v.x} |x>.

    The circuit Z^v CZ^M S^u H^{(x)n} written straight into the tableau: it
    sends X_j to Z_j, and Z_j to X_j times Z on the M-neighbours of j (Y_j
    when u_j = 1) with sign (-1)^{v_j}.  The result always has full
    measurement support (k_dim = n).
    """
    n = p.n
    eye = np.eye(n, dtype=np.uint8)
    zero = np.zeros((n, n), dtype=np.uint8)
    neighbours = p.m_matrix ^ p.m_matrix.T ^ np.diag(p.u)
    return tableau_from_blocks(n, np.vstack([zero, eye]), np.vstack([eye, neighbours]),
                               np.concatenate([np.zeros(n, dtype=np.uint8), p.v]))


def gamma_amplitudes(p: GammaParams) -> np.ndarray:
    """Closed-form amplitudes 2^{-n/2} i^{u.x} (-1)^{x^T M x + v.x} of the
    (M, u, v) state, the oracle for `gamma_state`."""
    n = p.n
    xs = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(np.int64)
    quad = np.einsum("ki,ij,kj->k", xs, p.m_matrix.astype(np.int64), xs)
    phase = (1j ** (xs @ p.u.astype(np.int64))) * ((-1.0) ** ((quad + xs @ p.v.astype(np.int64)) % 2))
    return phase / np.sqrt(1 << n)


def _pauli_product(x1, z1, p1, x2, z2, p2):
    """Multiply phase-tracked Paulis i^p X^x Z^z; phases mod 4."""
    p = (p1 + p2 + 2 * int(np.dot(z1.astype(np.int64), x2.astype(np.int64)))) % 4
    return x1 ^ x2, z1 ^ z2, p


def _row_xzform(x: np.ndarray, z: np.ndarray, r) -> tuple:
    """Tableau row as phase-tracked XZ-form: (-1)^r prod sigma = i^p prod X^x Z^z."""
    p = (2 * int(r) + int(np.dot(x.astype(np.int64), z.astype(np.int64)))) % 4
    return x, z, p


def measurement_support_bits(t: Tableau) -> tuple[np.ndarray, np.ndarray]:
    """The support's (k, n) basis and (n,) offset as bit arrays, qubit q in
    column q: Gauss-Jordan over the X block of the stabilizer rows held as
    uint8 bit vectors, each row operation a numpy Pauli product,
    lexicographic pivots, then `gf2_solve` on the leftover Z rows."""
    n = t.n
    x, z, signs = tableau_blocks(t)
    rows = [_row_xzform(x[i], z[i], signs[i]) for i in range(n, 2 * n)]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        hot = [q for q in range(r, n) if rows[q][0][c]]
        if not hot:
            continue
        rows[r], rows[hot[0]] = rows[hot[0]], rows[r]
        for q in range(n):
            if q != r and rows[q][0][c]:
                rows[q] = _pauli_product(*rows[q], *rows[r])
        pivots.append(c)
    k = len(pivots)
    basis = np.array([x for x, _, _ in rows[:k]], dtype=np.uint8).reshape(k, n)
    zs = np.array([z for _, z, _ in rows[k:]], dtype=np.uint8).reshape(n - k, n)
    phases = np.array([p for _, _, p in rows[k:]], dtype=np.uint8)
    offset = None if (phases % 2).any() else gf2_solve(zs, phases // 2)
    assert offset is not None, "inconsistent stabilizer sign constraints"
    for row, pc in zip(basis, pivots):
        if offset[pc]:
            offset ^= row
    return basis, offset


def support_contains(sup: AffineSupport, v: int) -> bool:
    """Whether outcome index v lies in the support: v ^ offset reduces to
    zero against the RREF basis."""
    v ^= sup.offset
    for b in sup.basis:
        if v >> (b.bit_length() - 1) & 1:
            v ^= b
    return v == 0


def support_members(sup: AffineSupport) -> np.ndarray:
    """All 2^k_dim elements as int64 indices, member i selecting basis row j
    when bit j of i is set; k_dim <= 20 and n <= 63."""
    if sup.n > 63:
        raise ValueError(f"outcome indices of {sup.n} qubits do not fit in int64 (n <= 63)")
    if sup.k_dim > 20:
        raise ValueError("support too large to enumerate")
    out = np.array([sup.offset], dtype=np.int64)
    for b in sup.basis:
        out = np.concatenate([out, out ^ b])
    return out


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; cheap stateless PRF on uint64."""
    z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def pfc_phase_values(s: PFCSample, indices: np.ndarray) -> np.ndarray:
    """+-1 phases of the sample's diagonal F at the given basis indices: the
    top bit of splitmix64 of the index XOR ``phase_key``."""
    h = _splitmix64(np.asarray(indices, dtype=np.uint64) ^ np.uint64(s.phase_key))
    return np.where((h >> np.uint64(63)).astype(bool), -1.0 + 0j, 1.0 + 0j)


def pfc_dense(s: PFCSample) -> np.ndarray:
    """P.F.C of a PFC sample as a dense matrix."""
    c = tableau_to_unitary(s.clifford)
    out = np.empty_like(c)
    out[s.permutation] = pfc_phase_values(s, np.arange(1 << s.n))[:, None] * c
    return out


def random_phase(m: int, rng: np.random.Generator) -> DiagonalPhase:
    """A phase function on m bits with i.i.d. uniform values in (-1, 1]."""
    vals = rng.uniform(-1.0, 1.0, size=1 << m)
    vals[vals <= -1.0] = 1.0
    return DiagonalPhase(m, vals)


def diag_truncation_distance(f: DiagonalPhase, k: int) -> float:
    """Exact diamond distance between the diagonal channel and its k-truncation.

    Diagonal unitaries have their entries as eigenvalues, so the
    unitary-channel closed form applies directly.  Guaranteed
    <= 2^{-k} pi; violation raises.
    """
    if f.m > 12:
        raise ValueError("exact evaluation capped at m = 12")
    g, _ = truncate_diagonal(f, k)
    rel = np.exp(1j * np.pi * (g.phases - f.phases))
    dist = float(diamond_distance_from_spectrum(rel))
    bound = math.pi * 2.0 ** (-k)
    if dist > bound + 1e-9:
        raise PropertyViolationError(
            f"truncation distance {dist} exceeds the bound {bound}"
        )
    return dist


def tpe_distance(ens: EnsembleSpec, t: int) -> float:
    """2->2 distance: spectral norm of the moment-operator difference."""
    mv = moment_operator(ens, t)
    mh = haar_moment_operator(ens.dim, t)
    return float(np.linalg.norm(mv - mh, 2))


def permutation_gram_cycles(d: int, t: int) -> np.ndarray:
    """Gram matrix of the permutation operators of S_t on (C^d)^{ot t},
    from the cycle count: entry (a, b) is d^{#cycles(sigma_a^{-1} sigma_b)},
    in the order of ``itertools.permutations(range(t))``."""
    perms = list(itertools.permutations(range(t)))
    gram = np.empty((len(perms), len(perms)))
    for a, sa in enumerate(perms):
        inv = np.argsort(sa)
        for b, sb in enumerate(perms):
            comp = [inv[sb[i]] for i in range(t)]
            seen, cycles = [False] * t, 0
            for i in range(t):
                if not seen[i]:
                    cycles += 1
                    j = i
                    while not seen[j]:
                        seen[j] = True
                        j = comp[j]
            gram[a, b] = float(d) ** cycles
    return gram


def relative_eps_scipy(mv: np.ndarray, mh: np.ndarray):
    """The relative bracket of `moments.diamond_design_bounds` for the
    moment operators ``mv`` and ``mh``, with the relative sandwich solved as
    the generalized eigenproblem (A, diag(b)) by ``scipy.linalg.eigh``:
    (eps_relative, not_relative)."""
    ch = (choi(mh) + choi(mh).conj().T) / 2
    cv = (choi(mv) + choi(mv).conj().T) / 2
    evals, evecs = np.linalg.eigh(ch)
    scale = float(evals.max())
    keep = evals > _SUPPORT_TOL * scale
    v_out = evecs[:, ~keep]
    if v_out.size and np.linalg.norm(v_out.conj().T @ cv @ v_out) > _SUPPORT_TOL * scale:
        return None, True
    v_in = evecs[:, keep]
    a = v_in.conj().T @ cv @ v_in
    mu = scipy.linalg.eigh((a + a.conj().T) / 2, np.diag(evals[keep]), eigvals_only=True)
    eps = max(1.0 - float(mu.min()), float(mu.max()) - 1.0)
    return max(eps, 0.0), False


def is_symmetric_ensemble_loop(ens: EnsembleSpec) -> bool:
    """`moments.is_symmetric_ensemble` as a double loop of ``np.trace``
    calls: each U_i takes the first unused V of equal weight whose
    phase-corrected residual 2d - 2|tr(V^dagger U_i^dagger)| is within
    the symmetry tolerance."""
    used = [False] * len(ens.unitaries)
    for i, u in enumerate(ens.unitaries):
        ud = u.conj().T
        hit = None
        for j, v in enumerate(ens.unitaries):
            if used[j] or abs(ens.weights[i] - ens.weights[j]) > 1e-12:
                continue
            tr = np.trace(v.conj().T @ ud)
            if 2 * ens.dim - 2 * abs(tr) <= _SYMMETRY_TOL:
                hit = j
                break
        if hit is None:
            return False
        used[hit] = True
    return True


#: relative slack of the composed 2->2 distance against lambda^m
_COMPOSITION_TOL = 1e-8


def compose_ensemble(ens: EnsembleSpec, m: int) -> EnsembleSpec:
    """m-fold sequential composition: all length-m products with product weights."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ensure_budget(16 * ens.dim**2 * len(ens.unitaries) ** m, "composed ensemble")
    us = [np.eye(ens.dim, dtype=complex)]
    ws = [1.0]
    for _ in range(m):
        us = [u @ v for u in us for v in ens.unitaries]
        ws = [w1 * w2 for w1 in ws for w2 in ens.weights]
    return EnsembleSpec(ens.dim, us, np.array(ws))


@dataclass
class CompositionReport:
    m: int
    lambda_base: float
    lambda_composed: float
    lambda_power: float
    diamond_upper_base: float
    diamond_upper_composed: float


def symmetric_composition_check(ens: EnsembleSpec, m: int, t: int) -> CompositionReport:
    """Verify the multiplicativity of the 2->2 distance under composition.

    For a symmetric ensemble the moment difference is Hermitian and is
    annihilated by the Haar projector on both sides, so the composed
    distance is exactly lambda^m; asserted within _COMPOSITION_TOL relative.  The
    diamond upper bounds are reported and checked consistent
    (upper_m <= upper_1^m).
    """
    if not is_symmetric_ensemble(ens):
        raise ValueError("ensemble is not symmetric (not closed under dagger)")
    lam = tpe_distance(ens, t)
    comp = compose_ensemble(ens, m)
    lam_m = tpe_distance(comp, t)
    target = lam**m
    if abs(lam_m - target) > _COMPOSITION_TOL * max(1.0, target):
        raise PropertyViolationError(
            f"composed 2->2 distance {lam_m} deviates from lambda^m = {target}"
        )
    d = ens.dim
    up1 = (d**t) * lam
    upm = (d**t) * lam_m
    if upm > up1**m + _COMPOSITION_TOL and m >= 1:
        raise PropertyViolationError("diamond upper bounds inconsistent under composition")
    return CompositionReport(m, lam, lam_m, target, up1, upm)


def compose_nets(n1: EnsembleSpec, n2: EnsembleSpec) -> EnsembleSpec:
    """All products V1 V2^dag (|n1| |n2| elements, before deduplication),
    V1 = n1[i] and V2 = n2[j] at index i |n2| + j."""
    if n1.dim != n2.dim:
        raise ValueError("dimension mismatch")
    d = n1.dim
    # the products, which EnsembleSpec keeps without a copy, n2's daggers, and
    # one more |n2| stack of headroom for the Python objects made on the way;
    # then the products' uniform weights and the two bool masks of their check
    ensure_budget((16 * d * d * (len(n1) + 2) + 10 * len(n1)) * len(n2), "net composition")
    daggers = n2.unitaries.conj().transpose(0, 2, 1)
    out = np.matmul(n1.unitaries[:, None], daggers[None]).reshape(-1, d, d)
    return EnsembleSpec(d, out)


def dagger_net(net: EnsembleSpec) -> EnsembleSpec:
    """Elementwise Hermitian conjugates; exposure-preserving."""
    return EnsembleSpec(net.dim, net.unitaries.conj().transpose(0, 2, 1))


def net_membership_distinguisher(oracle, net, eps: float, eta0: float,
                                 seed: RandomSeed) -> int:
    """Tomography-based exposure test behind the designs-to-nets reduction.

    Learns the hidden channel to accuracy eps/3 (failure eta0), then
    outputs 1 iff the estimate sits farther than 2 eps/3 from every net
    element; equivalent to accepting when the estimate lands near the
    eps-far complement of the net.
    """
    result = naive_process_tomography(oracle, eps / 3.0, eta0, seed)
    dist, _ = min_diamond_distance(result.u_hat, net)
    return int(dist > 2.0 * eps / 3.0)


def matrix_to_json(u: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def save_matrix_bin(path: str | Path, u: np.ndarray) -> None:
    flat = np.empty(u.size * 2, dtype="<f8")
    flat[0::2] = u.real.reshape(-1)
    flat[1::2] = u.imag.reshape(-1)
    Path(path).write_bytes(flat.tobytes())


def ensemble_to_json_dict(ens: EnsembleSpec) -> dict:
    return {
        "dim": ens.dim,
        "weights": [float(w) for w in ens.weights],
        "matrices": [matrix_to_json(u) for u in ens.unitaries],
    }


def circuit_to_json_dict(c: DiagonalOracleCircuit) -> dict:
    seq = []
    for item in c.sequence:
        if item[0] == "fixed":
            seq.append({"fixed": matrix_to_json(item[1])})
        else:
            seq.append({"oracle": item[1]})
    return {
        "n": c.n,
        "m": c.m,
        "oracles": [[float(v) for v in f.phases] for f in c.oracles],
        "sequence": seq,
    }


def dump_json(path: str | Path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
