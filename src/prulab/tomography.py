"""Query-counted channel oracle and a desk-scale unitary tomography routine.

The oracle exposes exactly one capability: apply the hidden unitary (with
an ancilla) to a chosen pure state, counting one query per application.
The channel is deterministic, so the oracle keeps its last input and output
and serves a repeat of the same input from that one entry; the learner
sends the same state on every query and pays one matmul per run.
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

from prulab.linalg import RandomSeed, ResourceLimitError, ensure_budget, is_unitary

#: repetition-count calibration for the (eps, eta) contract; empirical with
#: margin at d <= 8, not a claim about the information-theoretic optimum.
SHOT_CONSTANT = 2.5
#: most queries naive_process_tomography plans before it refuses to run
MAX_QUERIES = 2_000_000
#: queries whose measured vectors naive_process_tomography draws at once
_CHUNK = 2048


class ChannelOracle:
    """Opaque query access to a hidden unitary channel.

    Non-adaptive use only; no inverse, conjugate or transpose access.  Each
    ``apply`` call evolves one supplied pure state by U tensor I and
    increments the query counter exactly once, whether it computes the
    output or serves it from the one-entry cache of the last input.  The
    returned array is read-only, and calls whose inputs have the same dtype
    and contents may return the same array.
    """

    def __init__(self, hidden: np.ndarray):
        if not is_unitary(hidden):
            raise ValueError("hidden matrix must be square and unitary")
        self._hidden = hidden.copy()
        self._hidden.setflags(write=False)
        self.dim = hidden.shape[0]
        self.queries = 0
        self._last_dtype = self._last_bytes = self._last_out = None

    def apply(self, state: np.ndarray) -> np.ndarray:
        """U tensor I applied to ``state``, a read-only vector; one query."""
        d = self.dim
        if state.ndim != 1 or state.size == 0 or state.size % d != 0:
            raise ValueError("state must be a nonempty vector whose length is a multiple "
                             "of the channel dimension")
        # keyed by dtype and contents, not identity, so a state edited in
        # place misses; a hit has the dtype of an input already checked here.
        # Object arrays are refused: their bytes are pointers, which a freed
        # and reallocated element can repeat with a new value.
        data = state.tobytes()
        if data != self._last_bytes or state.dtype != self._last_dtype:
            if state.dtype.kind not in "biufc":
                raise ValueError(f"state must be numeric, got dtype {state.dtype}")
            out = self._hidden @ state.reshape(d, state.size // d)
            out.setflags(write=False)
            self._last_dtype, self._last_bytes, self._last_out = state.dtype, data, out.reshape(-1)
        self.queries += 1
        return self._last_out


@dataclass
class TomographyResult:
    u_hat: np.ndarray
    queries_used: int  # this run's queries, not the oracle's running total


def planned_queries(d: int, eps: float, eta: float) -> int:
    """Repetition count the reconstruction below uses for an (eps, eta) target;
    a count past 2^53 is refused from its log, before a float overflows."""
    if eps >= 2.0:
        return 0
    log_inv_eta = math.log(1.0 / eta) if 1.0 / eta < math.inf else -math.log(eta)
    log_count = 3 * math.log(d) - 2 * math.log(eps) + math.log(SHOT_CONSTANT * (1.0 + log_inv_eta))
    if log_count > 53 * math.log(2):
        raise ResourceLimitError(f"tomography needs over 2^53 queries, cap is {MAX_QUERIES}")
    return max(1, math.ceil(SHOT_CONSTANT * d**3 / eps**2 * (1.0 + log_inv_eta)))


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
    big = d * d
    # six complex D x D arrays: the accumulator, one chunk's outer-product
    # sum and the Choi estimate's temporaries up to eigh's eigenvectors; and
    # eight complex chunk x D arrays: the outputs, draws and measured vectors
    ensure_budget(16 * big * (6 * big + 8 * min(shots, _CHUNK)), "tomography working set")
    rng = seed.generator()
    omega = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    acc = np.zeros((big, big), dtype=complex)
    done = 0
    while done < shots:
        chunk = min(shots - done, _CHUNK)
        phis = np.array([oracle.apply(omega) for _ in range(chunk)])
        vs = measured_basis_vectors(phis, rng)
        acc += vs.T @ vs.conj()
        done += chunk
    rho = (big + 1) * acc / shots - np.eye(big)
    rho = (rho + rho.conj().T) / 2
    evals, evecs = np.linalg.eigh(rho)
    top = evecs[:, -1]
    a, _, b = np.linalg.svd(top.reshape(d, d) * math.sqrt(d))
    return TomographyResult(a @ b, shots)

