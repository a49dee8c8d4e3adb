"""Collision-statistics distinguisher.

The measurement oracles of the hidden states (Haar by urn or dense
vector, PFC by stabilizer sampling), the sqrt(d)-query collision test on
repeated |0...0> queries, the Chebyshev concentration reference for its
block estimator, and the PFC-vs-Haar experiment that runs the test on
fresh hidden states of both kinds.

Every oracle serves ``draw(shots)`` from one block stream of outcomes,
`_OutcomeStream`: its sampler runs once per block, not once per call, so
the per-call cost of many small draws is a slice.  The blocks grow with
what the caller has drawn, up to _BLOCK outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from prulab.linalg import RandomSeed, ensure_budget, haar_state
from prulab.ensembles import PFCSample, PolyaUrnSampler, sample_pfc
from prulab.stabilizer import measurement_support, sample_from_support
from prulab.util import wilson_interval


@dataclass(frozen=True)
class DistinguisherParams:
    """Collision-test parameters: t copies per block, block count, threshold.

    Canonical settings at dimension d are t = ceil(sqrt(d)), alpha = 1/4
    and 100000 blocks; desk-scale runs usually lower k_blocks.  Other
    (t, alpha) pairings are accepted but carry no acceptance guarantee.
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
    def canonical(cls, d: int, k_blocks: int = 100000) -> "DistinguisherParams":
        return cls(d=d, t=math.isqrt(d - 1) + 1, k_blocks=k_blocks, alpha=0.25)

    @property
    def center(self) -> float:
        """Reference collision mean of a typical Haar state: C(t,2) 2/(d+1)."""
        return math.comb(self.t, 2) * 2.0 / (self.d + 1)


def blocked_collision_counts(samples: np.ndarray) -> np.ndarray:
    """Per-row collision counts of a (k_blocks, t) integer outcome array."""
    s = np.sort(samples, axis=1)
    eq = (s[:, 1:] == s[:, :-1]).astype(np.int64)
    run = np.zeros(s.shape[0], dtype=np.int64)
    total = np.zeros(s.shape[0], dtype=np.int64)
    for j in range(eq.shape[1]):
        run = (run + 1) * eq[:, j]
        total += run
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
    the caller has taken, up to _BLOCK.  ``take`` returns a copy.
    """

    def __init__(self, fill):
        self._fill = fill
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0
        self._served = 0

    def take(self, shots: int) -> np.ndarray:
        if shots < 0:
            raise ValueError(f"shots must be nonnegative, got {shots}")
        left = self._buf.size - self._pos
        if shots > left:
            more = self._fill(max(shots - left, min(self._served, _BLOCK)))
            self._buf = np.concatenate((self._buf[self._pos:], more)) if left else more
            self._pos = 0
        out = self._buf[self._pos:self._pos + shots].copy()
        self._pos += shots
        self._served += shots
        return out


class HaarUrnOracle:
    """Measurement oracle of a hidden Haar state, urn realization.

    No state vector is ever formed; the equality pattern is exact and the
    cost per draw is O(1) independent of d.  Draws are served from one
    block stream of urn outcomes, so repeated draws consume the urn's RNG
    stream in blocks, not per call.
    """

    def __init__(self, d: int, seed: RandomSeed):
        urn = PolyaUrnSampler(d, seed.generator())
        self._stream = _OutcomeStream(lambda n: urn.draw(n))

    def draw(self, shots: int) -> np.ndarray:
        return self._stream.take(shots)


class HaarDenseOracle:
    """Measurement oracle of a hidden Haar state, dense realization.

    Outcomes come from one block stream of Born-rule samples.
    """

    def __init__(self, d: int, seed: RandomSeed):
        ensure_budget(16 * d * 4, "dense Haar oracle")
        rng = seed.generator()
        probs = np.abs(haar_state(d, rng)) ** 2
        cdf = np.cumsum(probs / probs.sum())
        cdf /= cdf[-1]
        # rng.choice(d, size=n, p=probs) with the cdf built once, not per call
        self._stream = _OutcomeStream(lambda n: cdf.searchsorted(rng.random(n), side="right"))

    def draw(self, shots: int) -> np.ndarray:
        return self._stream.take(shots)


class PFCOracle:
    """Measurement oracle of (PFC)|0...0> for a hidden PFC draw.

    The phase diagonal never affects outcome probabilities and the
    permutation is a relabeling, so this is stabilizer sampling of C
    followed by the permutation, served from one block stream.
    """

    def __init__(self, sample: PFCSample, seed: RandomSeed):
        support = measurement_support(sample.clifford)
        perm = sample.permutation
        rng = seed.generator()
        self._stream = _OutcomeStream(lambda n: perm[sample_from_support(support, n, rng)])

    def draw(self, shots: int) -> np.ndarray:
        return self._stream.take(shots)


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
    estimator: str = "mean"


def run_collision_distinguisher(oracle, params: DistinguisherParams,
                                estimator: str = "mean") -> CollisionReport:
    """Run the blocked collision test against a state-measurement oracle.

    `oracle` is an object with draw(shots).  Verdict is "Haar" iff the
    block average M lands within alpha of the Haar reference center
    `params.center`.  `estimator`="median" switches the block aggregation
    to a median-of-blocks variant.
    """
    if estimator not in ("mean", "median"):
        raise ValueError("estimator must be 'mean' or 'median'")
    t, k = params.t, params.k_blocks
    # the int64 outcomes, their sorted copy and its int64 equal-neighbour flags
    ensure_budget(24 * k * t, "collision test outcomes")
    outcomes = np.empty((k, t), dtype=np.int64)
    for b in range(k):
        block = oracle.draw(t)
        if len(block) != t:
            raise ValueError("oracle returned short block (oracle exhaustion)")
        outcomes[b] = block
    blocks = blocked_collision_counts(outcomes)
    m = float(np.mean(blocks)) if estimator == "mean" else float(np.median(blocks))
    verdict = "Haar" if abs(m - params.center) <= params.alpha else "PFC"
    return CollisionReport(params, blocks, m, verdict, estimator=estimator)


def concentration_reference(t: int, p_psi: float, q_psi: float, beta: float,
                            k_blocks: int) -> tuple[float, float, float]:
    """Chebyshev reference for the block estimator at fixed state statistics.

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


def pfc_distinguish_experiment(n: int, trials: int, seed: RandomSeed,
                               t: int | None = None, k_blocks: int = 100000,
                               alpha: float = 0.25, haar_mode: str = "urn",
                               estimator: str = "mean") -> PFCDistinguishReport:
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
        return run_collision_distinguisher(oracle, params, estimator=estimator).verdict == "Haar"

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
