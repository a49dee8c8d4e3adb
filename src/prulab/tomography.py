"""Query-counted channel oracle and a desk-scale unitary tomography routine.

The oracle exposes exactly one capability: apply the hidden unitary (with
an ancilla) to a chosen pure state, counting one query per application.
The learner entangles, measures in per-shot Haar bases, averages the
shadow-inverted outcomes into a Choi estimate and projects its top
eigenvector to the nearest unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prulab.linalg import RandomSeed, ResourceLimitError

#: repetition-count calibration for the (eps, eta) contract; empirical with
#: margin at d <= 8, not a claim about the information-theoretic optimum.
SHOT_CONSTANT = 2.5
MAX_QUERIES_DEFAULT = 2_000_000


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
    target_eps: float
    target_eta: float


def planned_queries(d: int, eps: float, eta: float) -> int:
    """Repetition count the reconstruction below uses for an (eps, eta) target."""
    if eps >= 2.0:
        return 0
    return max(1, math.ceil(SHOT_CONSTANT * d**3 / eps**2 * (1.0 + math.log(1.0 / eta))))


def _nearest_unitary(m: np.ndarray) -> np.ndarray:
    a, _, b = np.linalg.svd(m)
    return a @ b


def naive_process_tomography(oracle: ChannelOracle, eps: float, eta: float,
                             seed: RandomSeed,
                             max_queries: int = MAX_QUERIES_DEFAULT) -> TomographyResult:
    """Learn the hidden unitary to diamond distance eps with failure rate
    at most eta.

    Non-adaptive: every query sends half of a maximally entangled register
    through the channel; the output is measured in a fresh Haar-random
    basis and the shadow-inverted projector (D+1)|w><w| - I is averaged
    into a Choi estimate.  The unitary is read off the top eigenvector by
    polar projection, so the result is exactly unitary.  eps >= 2 is the
    metric diameter and needs no queries.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    d = oracle.dim
    if eps >= 2.0:
        return TomographyResult(np.eye(d, dtype=complex), 0, eps, eta)
    shots = planned_queries(d, eps, eta)
    if shots > max_queries:
        raise ResourceLimitError(
            f"tomography needs {shots} queries, cap is {max_queries}"
        )
    rng = seed.generator()
    big = d * d
    omega = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    acc = np.zeros((big, big), dtype=complex)
    done = 0
    while done < shots:
        chunk = min(shots - done, 2048)
        phis = np.stack([oracle.apply(omega) for _ in range(chunk)])
        # fresh Haar basis per shot, batched Ginibre QR with phase fix
        z = (rng.standard_normal((chunk, big, big))
             + 1j * rng.standard_normal((chunk, big, big))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = np.einsum("sii->si", r)
        ws = q * (diag / np.abs(diag))[:, None, :]
        amps = np.einsum("sij,si->sj", ws.conj(), phis)
        probs = np.abs(amps) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random(chunk)
        # a cumsum ending below 1 can leave u past every entry: clamp to D-1
        ks = np.minimum((np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1), big - 1)
        vs = ws[np.arange(chunk), :, ks]
        acc += vs.T @ vs.conj()
        done += chunk
    rho = (big + 1) * acc / shots - np.eye(big)
    rho = (rho + rho.conj().T) / 2
    evals, evecs = np.linalg.eigh(rho)
    top = evecs[:, -1]
    u_hat = _nearest_unitary(top.reshape(d, d) * math.sqrt(d))
    return TomographyResult(u_hat, oracle.queries, eps, eta)


def query_budget_reference(d: int, eps: float, eta: float, mode: str = "non-adaptive") -> float:
    """Theta-shape query budgets of optimal unitary tomography, constants
    set to 1 and not authoritative: d^2/eps^2 ln(1/eta) non-adaptively,
    d^2/eps ln(1/eta) adaptively."""
    if d < 1 or eps <= 0 or not 0 < eta < 1:
        raise ValueError("invalid parameters")
    if mode == "non-adaptive":
        return d * d / eps**2 * math.log(1.0 / eta)
    if mode == "adaptive":
        return d * d / eps * math.log(1.0 / eta)
    raise ValueError("mode must be 'non-adaptive' or 'adaptive'")
