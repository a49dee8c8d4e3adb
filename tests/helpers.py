"""Shared brute-force oracles for the test suite.

These deliberately avoid the closed forms they are checking: the diamond
oracle maximizes the output trace distance over pure inputs with an
ancilla by direct numerical optimization, and the hull oracle finds the
point of the spectrum's convex hull nearest the origin geometrically.
The Haar-basis measurement oracle builds the whole basis and samples the
outcome from its Born probabilities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from prulab.linalg import schatten_norm


def brute_force_diamond(u: np.ndarray, v: np.ndarray, restarts: int = 8,
                        seed: int = 0) -> float:
    """max over pure |psi> on system x ancilla of ||(U x I)psi - (V x I)psi||_1."""
    d = u.shape[0]
    big = d * d
    ui = np.kron(u, np.eye(d))
    vi = np.kron(v, np.eye(d))
    rng = np.random.default_rng(seed)

    def neg_trace_dist(x):
        psi = x[:big] + 1j * x[big:]
        nrm = np.linalg.norm(psi)
        if nrm < 1e-12:
            return 0.0
        psi = psi / nrm
        a = ui @ psi
        b = vi @ psi
        diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
        return -schatten_norm(diff, 1)

    best = 0.0
    for _ in range(restarts):
        x0 = rng.standard_normal(2 * big)
        res = minimize(neg_trace_dist, x0, method="L-BFGS-B")
        best = max(best, -res.fun)
    return best


def hull_diamond_from_spectrum(eigs: np.ndarray) -> float:
    """2 sqrt(1 - h^2) for h the distance from 0 to the convex hull of one
    spectrum.  The hull misses the origin only when an angular gap exceeds
    pi, and then its nearest point lies on the chord across that gap."""
    ang = np.sort(np.angle(eigs))
    gaps = np.append(np.diff(ang), ang[0] + 2 * np.pi - ang[-1])
    i = int(np.argmax(gaps))
    if gaps[i] <= np.pi:
        return 2.0
    a, b = np.exp(1j * ang[i]), np.exp(1j * ang[(i + 1) % ang.size])
    ab = b - a
    denom = abs(ab) ** 2
    t = 0.0 if denom < 1e-30 else min(max(-(a.conjugate() * ab).real / denom, 0.0), 1.0)
    h = abs(a + t * ab)
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - h * h)))


def total_variation(counts_a: dict, counts_b: dict, n_a: int, n_b: int) -> float:
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / n_a - counts_b.get(k, 0) / n_b) for k in keys
    )


def empirical_counts(values) -> dict:
    out: dict = {}
    for v in values:
        key = int(v)
        out[key] = out.get(key, 0) + 1
    return out


def haar_basis_measurement(phis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The basis vector selected by measuring each unit row of ``phis`` in a
    fresh Haar basis: batched Ginibre QR with phase fix, then a cdf search
    over the Born probabilities."""
    shots, big = phis.shape
    z = (rng.standard_normal((shots, big, big))
         + 1j * rng.standard_normal((shots, big, big))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.einsum("sii->si", r)
    ws = q * (diag / np.abs(diag))[:, None, :]
    amps = np.einsum("sij,si->sj", ws.conj(), phis)
    probs = np.abs(amps) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(shots)
    # a cumsum ending below 1 can leave u past every entry: clamp to D-1
    ks = np.minimum((np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1), big - 1)
    return ws[np.arange(shots), :, ks]
