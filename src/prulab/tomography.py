"""Query-counted channel oracle and a desk-scale unitary tomography routine.

The oracle exposes exactly one capability: apply the hidden unitary (with
an ancilla) to a chosen pure state, counting one query per application.
The learner entangles and, for each output phi, draws in O(D) the vector
that measuring phi in a Haar-random basis would select: its squared moduli
are Dirichlet(2, 1, ..., 1) in any basis holding phi, with independent
uniform phases.  It averages the shadow-inverted outcomes into a Choi
estimate and projects its top eigenvector to the nearest unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prulab.linalg import RandomSeed, ResourceLimitError

#: repetition-count calibration for the (eps, eta) contract; empirical with
#: margin at d <= 8, not a claim about the information-theoretic optimum.
SHOT_CONSTANT = 2.5
#: most queries naive_process_tomography plans before it refuses to run
MAX_QUERIES = 2_000_000


class ChannelOracle:
    """Opaque query access to a hidden unitary channel.

    Non-adaptive use only; no inverse, conjugate or transpose access.  Each
    ``apply`` call evolves one supplied pure state by U tensor I and
    increments the query counter exactly once.
    """

    def __init__(self, hidden: np.ndarray):
        if hidden.ndim != 2 or hidden.shape[0] != hidden.shape[1]:
            raise ValueError("hidden unitary must be square")
        self._hidden = hidden.copy()
        self._hidden.setflags(write=False)
        self.dim = hidden.shape[0]
        self.queries = 0

    def apply(self, state: np.ndarray) -> np.ndarray:
        d = self.dim
        if state.ndim != 1 or state.size % d != 0:
            raise ValueError("state length must be a multiple of the channel dimension")
        self.queries += 1
        anc = state.size // d
        return (self._hidden @ state.reshape(d, anc)).reshape(-1)


@dataclass
class TomographyResult:
    u_hat: np.ndarray
    queries_used: int


def planned_queries(d: int, eps: float, eta: float) -> int:
    """Repetition count the reconstruction below uses for an (eps, eta) target."""
    if eps >= 2.0:
        return 0
    return max(1, math.ceil(SHOT_CONSTANT * d**3 / eps**2 * (1.0 + math.log(1.0 / eta))))


def measured_basis_vectors(phis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The basis vector w that measuring each unit row phi of ``phis`` in a
    fresh Haar basis selects: a complex Gaussian whose phi component is
    swapped for one of Gamma(2) squared modulus and uniform phase, normalised."""
    g = (rng.standard_normal(phis.shape) + 1j * rng.standard_normal(phis.shape)) / math.sqrt(2)
    a = np.sqrt(rng.standard_gamma(2.0, len(phis))) * np.exp(2j * math.pi * rng.random(len(phis)))
    vs = g + (a - np.einsum("si,si->s", phis.conj(), g))[:, None] * phis
    return vs / np.linalg.norm(vs, axis=1, keepdims=True)


def naive_process_tomography(oracle: ChannelOracle, eps: float, eta: float,
                             seed: RandomSeed) -> TomographyResult:
    """Learn the hidden unitary to diamond distance eps with failure rate
    at most eta.

    Non-adaptive: every query sends half of a maximally entangled register
    through the channel, and the classical-shadow inversion (D+1)|w><w| - I
    (arXiv:2002.08953) of the output's measured basis vector w, drawn by
    ``measured_basis_vectors``, is averaged into a Choi estimate.  The
    unitary is the polar projection of the top eigenvector, so it is exactly
    unitary.  eps >= 2 is the metric diameter and needs no queries.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    d = oracle.dim
    if eps >= 2.0:
        return TomographyResult(np.eye(d, dtype=complex), 0)
    shots = planned_queries(d, eps, eta)
    if shots > MAX_QUERIES:
        raise ResourceLimitError(f"tomography needs {shots} queries, cap is {MAX_QUERIES}")
    rng = seed.generator()
    big = d * d
    omega = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    acc = np.zeros((big, big), dtype=complex)
    done = 0
    while done < shots:
        chunk = min(shots - done, 2048)
        phis = np.stack([oracle.apply(omega) for _ in range(chunk)])
        vs = measured_basis_vectors(phis, rng)
        acc += vs.T @ vs.conj()
        done += chunk
    rho = (big + 1) * acc / shots - np.eye(big)
    rho = (rho + rho.conj().T) / 2
    evals, evecs = np.linalg.eigh(rho)
    top = evecs[:, -1]
    a, _, b = np.linalg.svd(top.reshape(d, d) * math.sqrt(d))
    return TomographyResult(a @ b, oracle.queries)

