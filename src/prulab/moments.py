"""Moment operators and design-distance notions, in numpy alone.

The t-th moment operator of an ensemble, the exact Haar moment operator as
the orthogonal projector onto the permutation-operator span (with the
Gram matrix taken from the operators themselves), the 2->2
(expander) distance, the dagger-symmetry test behind its diamond lower
bound (one row of traces per element), and the diamond/relative
conversion bracket (the generalized eigenproblem against the diagonal
Haar Choi matrix, scaled to an ordinary one).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from prulab.linalg import ensure_budget, kron_power
from prulab.ensembles import EnsembleSpec

_GRAM_RCOND = 1e-10
#: highest moment order haar_moment_operator builds (t! permutation operators)
MAX_MOMENT_ORDER = 4
#: phase-corrected Frobenius residual under which U^dagger matches a member
_SYMMETRY_TOL = 1e-9
#: Haar Choi eigenvalues below this fraction of the largest span no support
_SUPPORT_TOL = 1e-9


def moment_operator(ens: EnsembleSpec, t: int) -> np.ndarray:
    """t-th moment operator of an ensemble: the exact weighted average
    E[U^{ot t} kron conj(U^{ot t})], the matrix of X -> E[U^{ot t} X
    U^{ot t dagger}] on row-major vectorized operators, with
    vec(A X B) = (A kron B^T) vec(X)."""
    if t < 1:
        raise ValueError("moment order must be >= 1")
    n = ens.dim**t
    # the sum, one weighted term and np.kron's two iteration buffers
    ensure_budget(16 * (2 * n**4 + 2 * np.getbufsize()), "moment superoperator")
    acc = np.zeros((n * n, n * n), dtype=complex)
    for w, u in zip(ens.weights, ens.unitaries):
        ut = kron_power(u, t)
        term = np.kron(ut, ut.conj())
        term *= w
        acc += term
        del term  # before the next one is built
    return acc


def _hermitian_choi(m: np.ndarray) -> np.ndarray:
    """(C + C^dagger)/2 in one new array, for C the Choi matrix of the
    moment operator m: C[(i, j), (k, l)] = m[(i, k), (j, l)]."""
    n = math.isqrt(len(m))
    c = m.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    h = np.conjugate(c.transpose(2, 3, 0, 1), out=np.empty(c.shape, dtype=complex))
    h += c
    h /= 2
    return h.reshape(n * n, n * n)


def _permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Operator permuting the t tensor factors of (C^d)^{ot t}: factor j of
    the input becomes factor perm[j] of the output."""
    t = len(perm)
    n = d**t
    return np.eye(n).reshape((d,) * t + (n,)).transpose([*np.argsort(perm), t]).reshape(n, n)


def haar_moment_operator(d: int, t: int) -> np.ndarray:
    """Exact Haar t-th moment operator.

    Orthogonal projector (in Hilbert-Schmidt inner product) onto the span
    of the permutation operators, through the pseudo-inverse of their Gram
    matrix, so the degenerate t > d case is handled.  The Gram entries are
    tr(P_sigma^T P_tau) = d^{#cycles(sigma^{-1} tau)}, whole numbers a
    float product holds exactly.
    """
    if t < 1:
        raise ValueError("moment order must be >= 1")
    if t > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order capped at {MAX_MOMENT_ORDER}")
    n = d**t
    # the t! permutation operators, the real projector and its complex copy
    ensure_budget(8 * n * n * math.factorial(t) + 24 * n**4, "moment superoperator")
    vecs = np.empty((n * n, math.factorial(t)))
    for j, perm in enumerate(itertools.permutations(range(t))):
        vecs[:, j] = _permutation_operator(perm, d).reshape(-1)
    gplus = np.linalg.pinv(vecs.T @ vecs, rcond=_GRAM_RCOND)
    proj = vecs @ gplus @ vecs.conj().T
    return proj.astype(complex)


def is_symmetric_ensemble(ens: EnsembleSpec) -> bool:
    """Whether the ensemble is closed under dagger with matched weights.

    Matching is done modulo global phase, which is invisible to every
    moment operator.  Each U_i in turn takes the first unused U_j of equal
    weight with |tr(U_j U_i)| = d, that is U_j = U_i^dagger up to phase,
    read for every j at once from one row of traces.
    """
    m, d = len(ens), ens.dim
    # per row: m traces, their moduli and residuals, the free mask, one U^T
    ensure_budget(33 * m + 16 * d * d, "dagger pairing")
    flat = ens.unitaries.reshape(m, d * d)
    w = ens.weights
    free = np.ones(m, dtype=bool)
    for i, u in enumerate(ens.unitaries):
        # phase-corrected Frobenius residual: 2d - 2|tr|
        residual = 2 * d - 2 * np.abs(flat @ u.T.reshape(-1))
        hits = np.flatnonzero(free & (np.abs(w - w[i]) <= 1e-12) & (residual <= _SYMMETRY_TOL))
        if hits.size == 0:
            return False
        free[hits[0]] = False
    return True


@dataclass
class DesignDistanceReport:
    """Design-distance bracket for one ensemble and moment order.

    lambda_tpe is exact; the diamond distance is only bracketed:
    diamond_upper = d^t lambda always, diamond_lower = lambda d^{-t/2} only
    when the ensemble is symmetric (the rearranged 2->2 conversion needs
    it as stated here; it is not a valid lower bound otherwise and is left
    None).  eps_relative is the smallest eps satisfying the relative
    sandwich in the Choi order, or None with not_relative set when the
    ensemble Choi leaks outside the Haar support.
    """

    dim: int
    order: int
    lambda_tpe: float
    diamond_upper: float
    diamond_lower: float | None
    eps_relative: float | None
    not_relative: bool
    symmetric: bool


def diamond_design_bounds(ens: EnsembleSpec, t: int) -> DesignDistanceReport:
    """Report the 2->2 distance and the derived diamond/relative brackets."""
    d = ens.dim
    # four moment operators at most: each goes once lambda is computed and
    # its Choi matrix built, and the Haar Choi matrix once its eigenbasis is
    ensure_budget(64 * d ** (4 * t), "design distance")
    mv = moment_operator(ens, t)
    mh = haar_moment_operator(d, t)
    lam = float(np.linalg.norm(mv - mh, 2))
    ch = _hermitian_choi(mh)
    del mh
    evals, evecs = np.linalg.eigh(ch)
    del ch
    cv = _hermitian_choi(mv)
    del mv
    scale = float(evals.max())
    keep = evals > _SUPPORT_TOL * scale
    v_out, v_in = evecs[:, ~keep], evecs[:, keep]
    del evecs
    eps = None  # not relative: the ensemble Choi matrix leaks off the Haar support
    if not (v_out.size and np.linalg.norm(v_out.conj().T @ cv @ v_out) > _SUPPORT_TOL * scale):
        a = v_in.conj().T @ cv @ v_in
        del cv, v_in
        # the Haar Choi matrix is diagonal, with positive entries b, on its
        # support, so the pencil (a, diag(b)) has the eigenvalues of b^{-1/2} a b^{-1/2}
        s = 1 / np.sqrt(evals[keep])
        mu = np.linalg.eigvalsh(s[:, None] * ((a + a.conj().T) / 2) * s)
        eps = max(1.0 - float(mu.min()), float(mu.max()) - 1.0, 0.0)
    symmetric = is_symmetric_ensemble(ens)
    return DesignDistanceReport(
        dim=d,
        order=t,
        lambda_tpe=lam,
        diamond_upper=(d**t) * lam,
        diamond_lower=lam * d ** (-t / 2) if symmetric else None,
        eps_relative=eps,
        not_relative=eps is None,
        symmetric=symmetric,
    )
