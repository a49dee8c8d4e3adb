"""Dense complex linear algebra foundation.

Haar sampling, Kronecker powers, the unitarity check, and the exact
diamond distance between unitary channels, 2 sin(min(arc, pi)/2) for the
shortest arc of the unit circle holding the spectrum of U^dag V.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

UNITARY_TOL = 1e-10

_DEFAULT_BUDGET_BYTES = 8 << 30  # 8 GiB working-set cap
_budget_bytes = _DEFAULT_BUDGET_BYTES


class ResourceLimitError(RuntimeError):
    """A dense materialization or sampling plan exceeds the configured budget."""


class PropertyViolationError(AssertionError):
    """A mathematically guaranteed bound failed numerically."""


def memory_budget_bytes() -> int:
    return _budget_bytes


def set_memory_budget_bytes(n: int) -> None:
    global _budget_bytes
    if n <= 0:
        raise ValueError("memory budget must be positive")
    _budget_bytes = int(n)


def ensure_budget(nbytes: float, what: str) -> None:
    if nbytes > _budget_bytes:
        try:
            shown = f"{nbytes:.3g}"
        except OverflowError:  # an int past float range, which .3g turns into a float
            shown = f"{Decimal(nbytes):.3g}"
        raise ResourceLimitError(
            f"{what} needs {shown} bytes, budget is {_budget_bytes} "
            "(raise it with --mem-budget, in GiB, or set_memory_budget_bytes)"
        )


@dataclass(frozen=True)
class RandomSeed:
    """Reproducible randomness handle: (seed, stream) pairs map to one RNG stream.

    Identical pairs reproduce identical sample sequences.  ``child(i)``
    derives an independent stream deterministically, so trial fan-out does
    not depend on worker scheduling.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64 and 0 <= self.stream < 2**64):
            raise ValueError("seed and stream must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def child(self, index: int) -> "RandomSeed":
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, index))
        a, b = ss.generate_state(2, dtype=np.uint64)
        return RandomSeed(int(a), int(b))


def unitarity_error(u: np.ndarray) -> float:
    """max |U U^dag - I| over the entries, inf for a non-square or empty
    matrix; entries too large for the product give inf or nan, silently."""
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
        return float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    return unitarity_error(u) <= tol


def haar_unitary(d: int, seed: RandomSeed) -> np.ndarray:
    """Sample a Haar-distributed d x d unitary.

    Ginibre matrix, QR factorization, then the R-diagonal phase correction;
    the plain QR of a Gaussian matrix is not Haar-distributed without it.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return haar_unitary_rng(d, seed.generator())


def haar_unitary_rng(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar unitary from ``rng``: `haar_unitaries_rng`'s one-element case."""
    return haar_unitaries_rng(d, 1, rng)[0]


def haar_unitaries_rng(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar unitaries drawn in turn from ``rng``, as one (m, d, d) stack.

    Bit for bit the m one-element draws: one (m, 2, d, d) Gaussian draw
    reads their numbers in the same order, and the stacked QR and phase fix
    treat each matrix alone.
    """
    # per element four d x d complex arrays at most, and the larger of two
    # extras: at the QR's end the Ginibre matrix, numpy's working copy of it,
    # Q, and R as np.triu builds it, with the d Householder scalars and a
    # d x d bool mask; then the Ginibre matrix, Q, R and the phase-fixed
    # product, which numpy computes through an iteration buffer of
    # min(m d^2, np.getbufsize()) complex entries (128 KiB at numpy's default)
    ensure_budget(16 * m * d * (4 * d + 1)
                  + max(m * d * d, 16 * min(m * d * d, np.getbufsize())), "Haar sample")
    z = rng.standard_normal((m, 2, d, d))
    z = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)  # the real pairs freed before the QR
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def kron_power(u: np.ndarray, t: int) -> np.ndarray:
    """t-fold Kronecker power; budget-checked since the result has dim d^t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    d = u.shape[0]
    # the power, the one before it and np.kron's two iteration buffers
    ensure_budget(16 * (d ** (2 * t) + d ** (2 * t - 2) + 2 * np.getbufsize()), "Kronecker power")
    out = u
    for _ in range(t - 1):
        out = np.kron(out, u)
    return out


def diamond_distance_from_spectrum(eigs: np.ndarray) -> np.ndarray:
    """Diamond distance between the identity channel and a unitary channel
    with eigenvalues ``eigs``; shape (..., d) -> (...).

    With arc the length of the shortest arc of the unit circle holding every
    eigenvalue, the origin lies cos(arc/2) from the spectrum's convex hull
    (inside it once arc >= pi), so the closed form
    2 sqrt(1 - dist(0, conv(spec))^2) of Watrous, The Theory of Quantum
    Information (2018), is 2 sin(min(arc, pi)/2).  arc is 2 pi minus the
    largest gap between neighbouring angles, the gap across -pi included,
    so it is never negative and is exactly 0 for d = 1 or equal eigenvalues.
    """
    ang = np.sort(np.angle(eigs), axis=-1)
    span = ang[..., -1] - ang[..., 0]
    inner_gap = np.diff(ang, axis=-1).max(axis=-1, initial=0.0)
    arc = np.minimum(span, 2 * np.pi - inner_gap)
    return 2.0 * np.sin(np.minimum(arc, np.pi) / 2)


def diamond_distance_unitaries(u: np.ndarray, v: np.ndarray) -> float:
    """Exact diamond distance between the channels U(.)U^dag and V(.)V^dag.

    Closed form for unitary channels, evaluated on the spectrum of U^dag V
    (see ``diamond_distance_from_spectrum``).  Symmetric, zero iff
    U = e^{i theta} V, range [0, 2].
    """
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return float(diamond_distance_batch((u.conj().T @ v)[None])[0])


def diamond_distance_batch(ws: np.ndarray) -> np.ndarray:
    """Diamond distances for a stack of relative unitaries W_i = U_i^dag V_i."""
    if ws.ndim != 3 or ws.shape[1] != ws.shape[2]:
        raise ValueError("expected a stack of square matrices")
    d = ws.shape[1]
    if d == 1:
        return np.zeros(ws.shape[0])
    if d == 2:
        # two eigenvalues on the circle: the hull distance is |tr|/2, so the
        # distance is sqrt(4 - |tr|^2) and needs no eigensolver
        tr = np.einsum("kii->k", ws)
        t2 = np.minimum(np.abs(tr) ** 2, 4.0)
        return np.sqrt(4.0 - t2)
    return diamond_distance_from_spectrum(np.linalg.eigvals(ws))
