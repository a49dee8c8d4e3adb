"""Collision-statistics distinguisher.

The measurement oracles of the hidden states (Haar by urn or dense
vector, PFC by stabilizer sampling, one raw RNG word per outcome read
through the support's per-byte XOR tables), the sqrt(d)-query collision
test on repeated |0...0> queries, whose statistic is the mean collision count
over blocks of t copies, the Chebyshev concentration reference for that
mean, and the PFC-vs-Haar experiment that runs the test on fresh hidden
states of both kinds.

The urn and PFC oracles are one stream class, `_OutcomeStream`, each
passing it the fill that samples its outcomes: the fill runs once per
block, not once per call, and ``draw(shots)`` returns a read-only view of
the next ``shots`` outcomes of the block, so the per-call cost of many
small draws is a slice; blocks grow with what the caller has drawn, up to
_BLOCK outcomes.  The dense oracle samples its Born rule on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from prulab.linalg import RandomSeed, ensure_budget
from prulab.ensembles import PFCSample, PolyaUrnSampler, sample_pfc
from prulab.stabilizer import measurement_support, sample_from_support
from prulab.util import wilson_interval


@dataclass(frozen=True)
class DistinguisherParams:
    """Collision-test parameters: t copies per block, block count, threshold.

    (t, alpha) pairings other than the canonical ones are accepted but
    carry no acceptance guarantee.
    """

    d: int
    t: int
    k_blocks: int
    alpha: float = 0.25

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("need at least two copies per block")
        if self.k_blocks < 1:
            raise ValueError("need at least one block")
        if self.alpha <= 0:
            raise ValueError("threshold must be positive")

    @classmethod
    def canonical(cls, d: int) -> "DistinguisherParams":
        """t = ceil(sqrt(d)), alpha = 1/4 and 100000 blocks; desk-scale runs
        take only its t and set their own, lower, k_blocks."""
        return cls(d=d, t=math.isqrt(d - 1) + 1, k_blocks=100000, alpha=0.25)

    @property
    def center(self) -> float:
        """Reference collision mean of a typical Haar state: C(t,2) 2/(d+1)."""
        return math.comb(self.t, 2) * 2.0 / (self.d + 1)


def blocked_collision_counts(samples: np.ndarray) -> np.ndarray:
    """Per-row collision counts of a (k_blocks, t) integer outcome array.

    Each row is sorted and its all-equal windows counted, of width 2, 3, ...
    until a width has none: a group of g equal values holds g - w + 1 of
    width w, C(g, 2) over w = 2, ..., g.
    """
    s = np.sort(samples, axis=1)
    # run[j, b]: block b's window of the current width from sorted position j
    # is all equal; blocks lie along the contiguous axis, which makes each
    # width's AND and sum whole-row passes
    run = (s[:, 1:] == s[:, :-1]).T.copy()
    total = run.sum(0)
    while run.any():
        run = run[1:] & run[:-1]
        total += run.sum(0)
    return total


# ---------------------------------------------------------------------------
# State-measurement oracles
# ---------------------------------------------------------------------------


#: most outcomes a refill samples beyond the request it serves
_BLOCK = 4096


class _OutcomeStream:
    """Serves ``take(shots)`` in order from outcomes ``fill(n)`` samples in blocks.

    The first fill is exactly the first request; a later one samples
    max(shots - left, min(served, _BLOCK)), so the block grows with what
    the caller has taken, up to _BLOCK.  ``take`` returns a read-only view
    of the current block: a block is made read-only once filled and is
    replaced, never written, on refill, so a served draw never changes.
    Each oracle binds ``draw = _OutcomeStream.take`` in its own class body,
    where per-class tracing finds and wraps it.
    """

    def __init__(self, fill):
        self._fill = fill
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0
        self._filled = 0

    def take(self, shots: int) -> np.ndarray:
        if shots < 0:
            raise ValueError(f"shots must be nonnegative, got {shots}")
        pos = self._pos
        end = pos + shots
        if end > self._buf.size:
            left = self._buf.size - pos
            # what was filled and is not left has been served
            more = self._fill(max(shots - left, min(self._filled - left, _BLOCK)))
            self._filled += more.size
            buf = np.concatenate((self._buf[pos:], more)) if left else more
            buf.flags.writeable = False
            self._buf, pos, end = buf, 0, shots
        self._pos = end
        return self._buf[pos:end]


class HaarUrnOracle(_OutcomeStream):
    """Measurement oracle of a hidden Haar state, urn realization.

    No state vector is ever formed; outcomes are basis indices in [0, d),
    exact in law, and the cost per draw is O(1) independent of d.  Draws
    are served from one block stream of urn outcomes, so repeated draws
    consume the urn's RNG stream in blocks, not per call.
    """

    def __init__(self, d: int, seed: RandomSeed):
        super().__init__(PolyaUrnSampler(d, seed.generator()).draw)

    draw = _OutcomeStream.take


class HaarDenseOracle:
    """Measurement oracle of a hidden Haar state, dense realization.

    The state is a normalized complex Gaussian vector; ``draw(shots)`` is one
    search of its Born cdf per uniform, so no draw depends on the split.
    """

    def __init__(self, d: int, seed: RandomSeed):
        ensure_budget(16 * d * 4, "dense Haar oracle")
        self._rng = rng = seed.generator()
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        probs = np.abs(v / np.linalg.norm(v)) ** 2
        cdf = np.cumsum(probs / probs.sum())
        self._cdf = cdf / cdf[-1]

    def draw(self, shots: int) -> np.ndarray:
        if shots < 0:
            raise ValueError(f"shots must be nonnegative, got {shots}")
        # rng.choice(d, size=shots, p=probs) with the cdf built once, not per call
        return self._cdf.searchsorted(self._rng.random(shots), side="right")


class PFCOracle(_OutcomeStream):
    """Measurement oracle of (PFC)|0...0> for a hidden PFC draw.

    The phase diagonal never affects outcome probabilities and the
    permutation is a relabeling, so this is stabilizer sampling of C
    followed by the permutation, served from one block stream.  Each fill
    is one `sample_from_support` call: one raw word per outcome, through
    XOR tables of C's support built on the first fill and reused after.
    """

    def __init__(self, sample: PFCSample, seed: RandomSeed):
        support = measurement_support(sample.clifford)
        perm = sample.permutation
        rng = seed.generator()
        super().__init__(lambda n: perm[sample_from_support(support, n, rng)])

    draw = _OutcomeStream.take


# ---------------------------------------------------------------------------
# The collision test
# ---------------------------------------------------------------------------


@dataclass
class CollisionReport:
    """Outcome of one collision-test run on a hidden state oracle."""

    params: DistinguisherParams
    blocks: np.ndarray
    mean_collisions: float
    verdict: str  # "Haar" | "PFC"


def run_collision_distinguisher(oracle, params: DistinguisherParams) -> CollisionReport:
    """Run the blocked collision test against a state-measurement oracle.

    `oracle` is an object with draw(shots), called once per block of t
    copies.  Verdict is "Haar" iff the mean collision count M over the k
    blocks lands within alpha of the Haar reference center `params.center`.
    """
    t, k = params.t, params.k_blocks
    # per outcome: the int64 outcomes, their sorted copy and its bool run
    # flags, at most two flag arrays at a time, 18 bytes; and what the oracle
    # holds, at most 16: an urn's int64 history, whose capacity doubles and
    # so stays under twice what it has drawn.  And 60 per shot of the
    # largest fill, min(k t, max(t, _BLOCK)) shots, measured at most 59 past
    # the 34: the urn's per-fill arrays and its history's growth past the
    # drawn blocks; the support sampler's raw words, byte indices and lookups
    # (32 bytes a shot) came to at most 12 past it
    ensure_budget(34 * k * t + 60 * min(k * t, max(t, _BLOCK)), "collision test outcomes")
    outcomes = np.empty((k, t), dtype=np.int64)
    for b in range(k):
        block = oracle.draw(t)
        if len(block) != t:
            raise ValueError("oracle returned short block (oracle exhaustion)")
        outcomes[b] = block
    blocks = blocked_collision_counts(outcomes)
    m = float(np.mean(blocks))
    verdict = "Haar" if abs(m - params.center) <= params.alpha else "PFC"
    return CollisionReport(params, blocks, m, verdict)


def concentration_reference(t: int, p_psi: float, q_psi: float, beta: float,
                            k_blocks: int) -> tuple[float, float, float]:
    """Chebyshev reference for the block mean at fixed state statistics.

    mu = C(t,2) p, tau = t^2 p + 2 t^3 q (a variance upper bound), and the
    deviation bound Pr[|M - mu| >= beta] <= tau / (k beta^2).
    """
    if not (0.0 <= q_psi <= p_psi <= 1.0):
        raise ValueError("need 0 <= q_psi <= p_psi <= 1")
    if beta <= 0 or k_blocks < 1:
        raise ValueError("beta must be positive and k_blocks >= 1")
    mu = math.comb(t, 2) * p_psi
    tau = t * t * p_psi + 2 * t**3 * q_psi
    return mu, tau, tau / (k_blocks * beta * beta)


@dataclass
class PFCDistinguishReport:
    """Two-sided summary of the collision test: PFC detection vs Haar retention."""

    n: int
    params: DistinguisherParams
    trials: int
    # fraction of Haar-side trials answered "Haar"
    haar_rate: float = field(metadata={"json": "haar_verdict_rate"})
    # fraction of PFC-side trials answered "PFC"
    pfc_rate: float = field(metadata={"json": "pfc_verdict_rate"})
    haar_ci_half: float
    pfc_ci_half: float
    advantage: float
    advantage_ci_half: float


def pfc_distinguish_experiment(n: int, trials: int, seed: RandomSeed, t: int | None = None,
                               k_blocks: int = 100000, alpha: float = 0.25,
                               haar_mode: str = "urn") -> PFCDistinguishReport:
    """Run the collision test on fresh hidden draws from both ensembles.

    Trial i measures a Haar state seeded ``seed.child(4i)`` and the state
    of ``sample_pfc(n, s.child(0))``, drawn by ``s.child(1)``, where
    s = ``seed.child(4i + 2)``.  Each side's Wilson half-width is taken
    on its count of "Haar" verdicts.
    """
    d = 1 << n
    params = DistinguisherParams(
        d=d, t=t if t is not None else DistinguisherParams.canonical(d).t,
        k_blocks=k_blocks, alpha=alpha,
    )
    haar_oracle = {"urn": HaarUrnOracle, "dense": HaarDenseOracle}.get(haar_mode)
    if haar_oracle is None:
        raise ValueError("mode must be 'urn' or 'dense'")
    if trials < 1:
        raise ValueError("need at least one trial")

    def says_haar(oracle) -> bool:
        return run_collision_distinguisher(oracle, params).verdict == "Haar"

    haar_hits = pfc_misses = 0
    for i in range(trials):
        haar_hits += says_haar(haar_oracle(d, seed.child(4 * i)))
        s = seed.child(4 * i + 2)
        pfc_misses += says_haar(PFCOracle(sample_pfc(n, s.child(0)), s.child(1)))
    haar_rate, miss_rate = haar_hits / trials, pfc_misses / trials
    _, haar_half = wilson_interval(haar_hits, trials)
    _, pfc_half = wilson_interval(pfc_misses, trials)
    return PFCDistinguishReport(
        n=n, params=params, trials=trials, haar_rate=haar_rate, pfc_rate=1.0 - miss_rate,
        haar_ci_half=haar_half, pfc_ci_half=pfc_half,
        advantage=abs(haar_rate - miss_rate), advantage_ci_half=haar_half + pfc_half)
