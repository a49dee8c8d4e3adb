"""Moment superoperators and design-distance notions.

The t-th moment operator of an ensemble, the exact Haar moment operator as
the orthogonal projector onto the permutation-operator span, the 2->2
(expander) distance, the dagger-symmetry test behind its diamond lower
bound, and the diamond/relative conversion bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    """Operator permuting the t tensor factors of (C^d)^{ot t}."""
    t = len(perm)
    n = d**t
    idx = np.arange(n)
    digits = np.stack([(idx // d ** (t - 1 - j)) % d for j in range(t)])
    out_digits = np.empty_like(digits)
    for j, pj in enumerate(perm):
        out_digits[pj] = digits[j]
    out_idx = sum(out_digits[j] * d ** (t - 1 - j) for j in range(t))
    p = np.zeros((n, n))
    p[out_idx, idx] = 1.0
    return p


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def haar_moment_operator(d: int, t: int) -> MomentSuperoperator:
    """Exact Haar t-th moment operator.

    Orthogonal projector (in Hilbert-Schmidt inner product) onto the span
    of the permutation operators: Gram matrix d^{#cycles(sigma^{-1} tau)},
    pseudo-inverted so the degenerate t > d case is handled.
    """
    if t < 1:
        raise ValueError("moment order must be >= 1")
    if t > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order capped at {MAX_MOMENT_ORDER}")
    _check_superop_budget(d, t)
    perms = list(itertools.permutations(range(t)))
    k = len(perms)
    gram = np.empty((k, k))
    for a, sa in enumerate(perms):
        inv = tuple(np.argsort(sa))
        for b, sb in enumerate(perms):
            comp = tuple(inv[sb[i]] for i in range(t))
            gram[a, b] = float(d) ** _cycle_count(comp)
    vecs = np.stack([_permutation_operator(p, d).reshape(-1) for p in perms], axis=1)
    gplus = np.linalg.pinv(gram, rcond=_GRAM_RCOND)
    proj = vecs @ gplus @ vecs.conj().T
    return MomentSuperoperator(d, t, proj.astype(complex))


def is_symmetric_ensemble(ens: EnsembleSpec) -> bool:
    """Whether the ensemble is closed under dagger with matched weights.

    Matching is done modulo global phase, which is invisible to every
    moment operator.
    """
    used = [False] * len(ens.unitaries)
    for i, u in enumerate(ens.unitaries):
        ud = u.conj().T
        hit = None
        for j, v in enumerate(ens.unitaries):
            if used[j] or abs(ens.weights[i] - ens.weights[j]) > 1e-12:
                continue
            tr = np.trace(v.conj().T @ ud)
            # phase-corrected Frobenius residual: 2d - 2|tr|
            if 2 * ens.dim - 2 * abs(tr) <= _SYMMETRY_TOL:
                hit = j
                break
        if hit is None:
            return False
        used[hit] = True
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
    b = np.diag(evals[keep])
    mu = scipy.linalg.eigh((a + a.conj().T) / 2, b, eigvals_only=True)
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
