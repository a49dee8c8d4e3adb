"""Moment superoperators and design-distance notions, in numpy alone.

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


@dataclass
class MomentSuperoperator:
    """Matrix of a t-th moment map on vectorized operators (row-major vec).

    The matrix acts as vec(X) -> vec(Phi(X)) with the convention
    vec(A X B) = (A kron B^T) vec(X); for a channel average this is
    E[U^{ot t} kron conj(U^{ot t})].
    """

    dim: int
    order: int
    matrix: np.ndarray

    @property
    def op_dim(self) -> int:
        return self.dim**self.order

    def choi(self) -> np.ndarray:
        """Reshuffle to the Choi matrix; positive semidefinite iff CP."""
        n = self.op_dim
        m = self.matrix.reshape(n, n, n, n)
        return m.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _check_superop_budget(d: int, t: int) -> None:
    n = d**t
    ensure_budget(16 * (n * n) ** 2 * 3, "moment superoperator")


def moment_operator(ens: EnsembleSpec, t: int) -> MomentSuperoperator:
    """t-th moment superoperator of an ensemble: the exact weighted average."""
    if t < 1:
        raise ValueError("moment order must be >= 1")
    d = ens.dim
    _check_superop_budget(d, t)
    n = d**t
    acc = np.zeros((n * n, n * n), dtype=complex)
    for w, u in zip(ens.weights, ens.unitaries):
        ut = kron_power(u, t)
        acc += w * np.kron(ut, ut.conj())
    return MomentSuperoperator(d, t, acc)


def _permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Operator permuting the t tensor factors of (C^d)^{ot t}: factor j of
    the input becomes factor perm[j] of the output."""
    t = len(perm)
    n = d**t
    return np.eye(n).reshape((d,) * t + (n,)).transpose([*np.argsort(perm), t]).reshape(n, n)


def haar_moment_operator(d: int, t: int) -> MomentSuperoperator:
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
    _check_superop_budget(d, t)
    perms = itertools.permutations(range(t))
    vecs = np.stack([_permutation_operator(p, d).reshape(-1) for p in perms], axis=1)
    gram = vecs.T @ vecs
    gplus = np.linalg.pinv(gram, rcond=_GRAM_RCOND)
    proj = vecs @ gplus @ vecs.conj().T
    return MomentSuperoperator(d, t, proj.astype(complex))


def is_symmetric_ensemble(ens: EnsembleSpec) -> bool:
    """Whether the ensemble is closed under dagger with matched weights.

    Matching is done modulo global phase, which is invisible to every
    moment operator.  Each U_i in turn takes the first unused U_j of equal
    weight with |tr(U_j U_i)| = d, that is U_j = U_i^dagger up to phase,
    read for every j at once from one row of traces.
    """
    m, d = len(ens.unitaries), ens.dim
    ensure_budget(16 * m * d * d, "dagger pairing")
    flat = np.stack(ens.unitaries).reshape(m, d * d)
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


def _relative_eps(mv: MomentSuperoperator, mh: MomentSuperoperator):
    """Smallest eps with (1-eps) C_H <= C_nu <= (1+eps) C_H on C_H's support."""
    ch = (mh.choi() + mh.choi().conj().T) / 2
    cv = (mv.choi() + mv.choi().conj().T) / 2
    evals, evecs = np.linalg.eigh(ch)
    scale = float(evals.max())
    keep = evals > _SUPPORT_TOL * scale
    v_out = evecs[:, ~keep]
    if v_out.size and np.linalg.norm(v_out.conj().T @ cv @ v_out) > _SUPPORT_TOL * scale:
        return None, True
    v_in = evecs[:, keep]
    a = v_in.conj().T @ cv @ v_in
    # C_H is diagonal, with positive entries b, on its support, so the
    # pencil (a, diag(b)) has the eigenvalues of b^{-1/2} a b^{-1/2}
    s = 1 / np.sqrt(evals[keep])
    mu = np.linalg.eigvalsh(s[:, None] * ((a + a.conj().T) / 2) * s)
    eps = max(1.0 - float(mu.min()), float(mu.max()) - 1.0)
    return max(eps, 0.0), False


def diamond_design_bounds(ens: EnsembleSpec, t: int) -> DesignDistanceReport:
    """Report the 2->2 distance and the derived diamond/relative brackets."""
    mv = moment_operator(ens, t)
    mh = haar_moment_operator(ens.dim, t)
    lam = float(np.linalg.norm(mv.matrix - mh.matrix, 2))
    d, tt = ens.dim, t
    symmetric = is_symmetric_ensemble(ens)
    lower = lam * d ** (-tt / 2) if symmetric else None
    eps, not_rel = _relative_eps(mv, mh)
    return DesignDistanceReport(
        dim=d,
        order=t,
        lambda_tpe=lam,
        diamond_upper=(d**tt) * lam,
        diamond_lower=lower,
        eps_relative=eps,
        not_relative=not_rel,
        symmetric=symmetric,
    )
