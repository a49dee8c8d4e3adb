"""Diagonal-oracle truncation machinery.

Phase rounding to k fractional bits, diagonal phase oracles, circuits
that call them, and diamond-distance verification of a circuit against
its k-truncated twin under the union bound s 2^{-k} pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prulab.linalg import PropertyViolationError, diamond_distance_unitaries, ensure_budget

#: round_k needs k <= MAX_K, so that 2^k is a finite float
MAX_K = 1023


def round_k(x, k: int):
    """Round x in (-1, 1], a float or an array, to k fractional bits,
    breaking ties upwards.

    2^{-k} floor(2^k x + 1/2); |x - round_k(x)| <= 2^{-(k+1)}.  The output
    can be exactly -1 (phase-equivalent to +1); callers storing phases
    canonicalize.
    """
    v = np.asarray(x, dtype=float)
    if not np.all((-1.0 < v) & (v <= 1.0)):
        raise ValueError("phase value must lie in (-1, 1]")
    if not 0 <= k <= MAX_K:
        raise ValueError(f"k must be in 0..{MAX_K}, got {k}")
    scale = float(1 << k)
    out = np.floor(v * scale + 0.5) / scale
    return float(out) if out.ndim == 0 else out


@dataclass
class DiagonalPhase:
    """Phase function of a diagonal unitary: values in (-1, 1], unitary entry
    e^{i pi phase}.  Explicit vector for m <= 20."""

    m: int
    phases: np.ndarray

    def __post_init__(self):
        if self.m < 0 or self.m > 20:
            raise ValueError("explicit phase vectors supported for 0 <= m <= 20")
        p = np.asarray(self.phases, dtype=float)
        if p.shape != (1 << self.m,):
            raise ValueError("phase vector must have length 2^m")
        if np.any(p <= -1.0) or np.any(p > 1.0):
            raise ValueError("phase values must lie in (-1, 1]")
        self.phases = p


def truncate_diagonal(f: DiagonalPhase, k: int) -> tuple[DiagonalPhase, int]:
    """Pointwise k-bit rounding; the result is a classical function with
    k+1 output bits.  Values rounding to -1 are stored as +1 (same entry)."""
    vals = round_k(f.phases, k)
    vals[vals <= -1.0] = 1.0
    return DiagonalPhase(f.m, vals), k + 1


@dataclass
class DiagonalOracleCircuit:
    """Fixed unitary layers interleaved with calls to diagonal oracles.

    Each of the ell oracles acts on the first m of the n qubits; `sequence`
    lists items ("fixed", matrix) and ("oracle", index) in application
    order.  Every oracle must be called at least once, so ell <= s.
    """

    n: int
    m: int
    oracles: list[DiagonalPhase]
    sequence: list[tuple]

    def __post_init__(self):
        if self.m > self.n:
            raise ValueError("oracle width exceeds circuit width")
        used = set()
        for item in self.sequence:
            kind = item[0]
            if kind == "fixed":
                # no array dimension reaches 2^63, so no 1 << n is built past it
                if not 0 <= self.n < 63 or item[1].shape != (1 << self.n, 1 << self.n):
                    raise ValueError(f"fixed layer has wrong dimension: {item[1].shape} "
                                     f"for n = {self.n} qubits")
            elif kind == "oracle":
                idx = item[1]
                if not 0 <= idx < len(self.oracles):
                    raise ValueError("oracle slot out of range")
                used.add(idx)
            else:
                raise ValueError(f"unknown sequence item {kind!r}")
        if used != set(range(len(self.oracles))):
            raise ValueError("every oracle must be referenced by some slot")
        for f in self.oracles:
            if f.m != self.m:
                raise ValueError("oracle width mismatch")

    @property
    def call_count(self) -> int:
        return sum(1 for item in self.sequence if item[0] == "oracle")

    def materialize(self, k_trunc: int | None = None) -> np.ndarray:
        """Dense unitary, optionally with every oracle k-truncated."""
        dim = 1 << self.n
        ensure_budget(16 * dim * dim * 4, "dense circuit materialization")
        pad = 1 << (self.n - self.m)
        mats = []
        for f in self.oracles:
            g = f if k_trunc is None else truncate_diagonal(f, k_trunc)[0]
            mats.append(np.repeat(np.exp(1j * np.pi * g.phases), pad))
        u = np.eye(dim, dtype=complex)
        for item in self.sequence:
            if item[0] == "fixed":
                u = item[1] @ u
            else:
                u = mats[item[1]][:, None] * u
        return u


@dataclass
class CircuitTruncationReport:
    s_calls: int
    k: int
    distance: float
    bound: float


def circuit_truncation_bound(c: DiagonalOracleCircuit, k: int) -> CircuitTruncationReport:
    """Exact diamond distance between the circuit and its k-truncated twin,
    checked against the union bound s 2^{-k} pi."""
    if c.n > 10:
        raise ValueError("dense circuit comparison capped at total dim 2^10")
    dist = diamond_distance_unitaries(c.materialize(), c.materialize(k_trunc=k))
    bound = c.call_count * math.pi * 2.0 ** (-k)
    if dist > bound + 1e-9:
        raise PropertyViolationError(
            f"circuit truncation distance {dist} exceeds the bound {bound}"
        )
    return CircuitTruncationReport(c.call_count, k, dist, bound)

