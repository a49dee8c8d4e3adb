"""Stabilizer (Clifford) machinery.

Uniform Clifford sampling through the canonical symplectic-index
construction, computational-basis measurement supports of stabilizer
states, dense tableau unitaries read off the tableau's Pauli rows, and the
explicit full-support state family parametrized by (M, u, v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from prulab.linalg import PropertyViolationError, ensure_budget

# ---------------------------------------------------------------------------
# GF(2) linear algebra helpers
# ---------------------------------------------------------------------------


def gf2_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) with lexicographic pivots."""
    m = a.copy().astype(np.uint8) % 2
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hot = np.nonzero(m[r:, c])[0]
        if hot.size == 0:
            continue
        p = r + hot[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.nonzero(m[:, c])[0]
        for q in others:
            if q != r:
                m[q] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of a x = b over GF(2), or None if inconsistent."""
    rows, cols = a.shape
    aug = np.concatenate([a.astype(np.uint8) % 2, (b.astype(np.uint8) % 2)[:, None]], axis=1)
    m, pivots = gf2_rref(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, pc in enumerate(pivots):
        x[pc] = m[r, cols]
    return x


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------


class Tableau:
    """Binary symplectic tableau of an n-qubit Clifford (modulo global phase).

    Row j < n holds the conjugate of X_j, row n+j the conjugate of Z_j, each
    encoded as x/z bit vectors plus a sign bit r; a row with bits (x, z, r)
    stands for the Hermitian Pauli (-1)^r prod_q sigma(x_q, z_q) where
    sigma(1,1) = Y.  Tableaus are immutable once handed out.
    """

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int, x=None, z=None, r=None):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        if x is None:
            self.x = np.zeros((2 * n, n), dtype=np.uint8)
            self.z = np.zeros((2 * n, n), dtype=np.uint8)
            self.x[:n] = np.eye(n, dtype=np.uint8)
            self.z[n:] = np.eye(n, dtype=np.uint8)
            self.r = np.zeros(2 * n, dtype=np.uint8)
        else:
            self.x = np.asarray(x, dtype=np.uint8) % 2
            self.z = np.asarray(z, dtype=np.uint8) % 2
            self.r = np.asarray(r, dtype=np.uint8) % 2
            if self.x.shape != (2 * n, n) or self.z.shape != (2 * n, n) or self.r.shape != (2 * n,):
                raise ValueError("tableau block shapes inconsistent with n")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.n == other.n
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.r, other.r)
        )

    def check_symplectic(self) -> bool:
        """Rows must commute except for the X_j/Z_j partner pairs."""
        n = self.n
        form = (self.x @ self.z.T + self.z @ self.x.T) % 2
        want = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        want[:n, n:] = np.eye(n, dtype=np.uint8)
        want[n:, :n] = np.eye(n, dtype=np.uint8)
        return np.array_equal(form, want)


def pauli_matrix(x: np.ndarray, z: np.ndarray, r: int) -> np.ndarray:
    """Dense Hermitian Pauli for a tableau row (test-oracle scale only)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    si = np.eye(2, dtype=complex)
    table = {(0, 0): si, (1, 0): sx, (0, 1): sz, (1, 1): sy}
    out = np.array([[1.0 + 0j]])
    for xq, zq in zip(x, z):
        out = np.kron(out, table[(int(xq), int(zq))])
    return (-1) ** int(r) * out


def _pauli_product(x1, z1, p1, x2, z2, p2):
    """Multiply phase-tracked Paulis i^p X^x Z^z; phases mod 4."""
    p = (p1 + p2 + 2 * int(np.dot(z1.astype(np.int64), x2.astype(np.int64)))) % 4
    return x1 ^ x2, z1 ^ z2, p


def _row_xzform(t: Tableau, i: int):
    """Tableau row as phase-tracked XZ-form: (-1)^r prod sigma = i^p prod X^x Z^z."""
    x, z, r = t.x[i], t.z[i], int(t.r[i])
    p = (2 * r + int(np.dot(x.astype(np.int64), z.astype(np.int64)))) % 4
    return x.copy(), z.copy(), p


# ---------------------------------------------------------------------------
# Uniform symplectic / Clifford sampling
# ---------------------------------------------------------------------------


def _sym_inner(v: np.ndarray, w: np.ndarray) -> int:
    return int(np.dot(v[0::2], w[1::2]) + np.dot(v[1::2], w[0::2])) % 2


def _transvect(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Apply the transvection x -> x + <x,h> h to every row of g."""
    prod = (g[:, 0::2].astype(np.int64) @ h[1::2].astype(np.int64)
            + g[:, 1::2].astype(np.int64) @ h[0::2].astype(np.int64)) % 2
    return (g ^ np.outer(prod.astype(np.uint8), h)).astype(np.uint8)


def _int_to_bits(k: int, width: int) -> np.ndarray:
    return np.array([(k >> j) & 1 for j in range(width)], dtype=np.uint8)


def _find_transvection(x: np.ndarray, y: np.ndarray):
    """Vectors (h1, h2) with Z_h2(Z_h1(x)) = y for nonzero x, y."""
    nn = x.size
    zero = np.zeros(nn, dtype=np.uint8)
    if np.array_equal(x, y):
        return zero, zero
    if _sym_inner(x, y) == 1:
        return (x ^ y), zero
    z = np.zeros(nn, dtype=np.uint8)
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and (y[ii] or y[ii + 1]):
            z[ii] = x[ii] ^ y[ii]
            z[ii + 1] = x[ii + 1] ^ y[ii + 1]
            if z[ii] == 0 and z[ii + 1] == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            return (x ^ z), (z ^ y)
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and not (y[ii] or y[ii + 1]):
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(nn // 2):
        ii = 2 * i
        if (y[ii] or y[ii + 1]) and not (x[ii] or x[ii + 1]):
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    return (x ^ z), (z ^ y)


def symplectic_group_order(n: int) -> int:
    out = 1
    for j in range(1, n + 1):
        out *= (4**j - 1) << (2 * j - 1)
    return out


def symplectic_from_index(i: int, n: int) -> np.ndarray:
    """Canonical bijection from [0, |Sp(2n,2)|) onto 2n x 2n symplectic matrices.

    Pair-interleaved convention: columns 2q, 2q+1 are the X/Z components on
    qubit q, and <v,w> = sum_q v_{2q} w_{2q+1} + v_{2q+1} w_{2q}.
    """
    nn = 2 * n
    s = (1 << nn) - 1
    k = (i % s) + 1
    i //= s

    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.uint8)
    e1[0] = 1
    t1, t2 = _find_transvection(e1, f1)

    bits = _int_to_bits(i % (1 << (nn - 1)), nn - 1)
    i >>= nn - 1

    eprime = e1.copy()
    eprime[2:] = bits[1:]
    h0 = _transvect(t2, eprime[None, :])[0]
    h0 = _transvect(t1, h0[None, :])[0]
    if bits[0] == 1:
        f1 = np.zeros(nn, dtype=np.uint8)

    if n == 1:
        g = np.eye(2, dtype=np.uint8)
    else:
        g = np.zeros((nn, nn), dtype=np.uint8)
        g[0, 0] = g[1, 1] = 1
        g[2:, 2:] = symplectic_from_index(i, n - 1)

    g = _transvect(t2, g)
    g = _transvect(t1, g)
    g = _transvect(h0, g)
    g = _transvect(f1, g)
    return g


def _uniform_below(card: int, rng: np.random.Generator) -> int:
    bits = card.bit_length()
    nwords = (bits + 31) // 32
    mask = (1 << bits) - 1
    while True:
        words = rng.integers(0, 2**32, size=nwords, dtype=np.uint64)
        val = 0
        for w in words:
            val = (val << 32) | int(w)
        val &= mask
        if val < card:
            return val


def random_clifford_rng(n: int, rng: np.random.Generator) -> Tableau:
    """Uniformly random n-qubit Clifford (modulo global phase), 1 <= n <= 63.

    Uniform symplectic part via the canonical index construction plus
    uniform sign bits; exact uniformity rather than a random-circuit
    heuristic.
    """
    if not 1 <= n <= 63:
        raise ValueError("qubit count out of range [1, 63]")
    idx = _uniform_below(symplectic_group_order(n), rng)
    g = symplectic_from_index(idx, n)
    x = np.zeros((2 * n, n), dtype=np.uint8)
    z = np.zeros((2 * n, n), dtype=np.uint8)
    for j in range(n):
        x[j] = g[2 * j, 0::2]
        z[j] = g[2 * j, 1::2]
        x[n + j] = g[2 * j + 1, 0::2]
        z[n + j] = g[2 * j + 1, 1::2]
    r = rng.integers(0, 2, size=2 * n).astype(np.uint8)
    return Tableau(n, x, z, r)


# ---------------------------------------------------------------------------
# Dense unitaries
# ---------------------------------------------------------------------------


def _apply_row(t: Tableau, i: int, m: np.ndarray) -> np.ndarray:
    """Tableau row i, as a dense Pauli, applied to a block of column vectors.

    With the row as i^p X^x Z^z: (i^p X^x Z^z m)[w] = i^p (-1)^{z.(w^x)} m[w^x],
    basis index w read with qubit 0 as the most significant bit.
    """
    x, z, p = _row_xzform(t, i)
    src = np.arange(m.shape[0]) ^ int(pack_bits(x))
    parity = (((src[:, None] >> np.arange(t.n - 1, -1, -1)) & 1) @ z) & 1
    return (1j**p * (1 - 2 * parity))[:, None] * m[src]


def tableau_to_statevector(t: Tableau) -> np.ndarray:
    """C|0...0> as a dense vector, the joint +1 eigenvector of the stabilizer
    rows C Z_j C^dag, with its global phase fixed so that its first nonzero
    entry is real and positive."""
    n = t.n
    ensure_budget(16 * 2**n * 4, "dense stabilizer state")
    v = np.zeros((1 << n, 1), dtype=complex)
    v[0] = 1.0
    for j in range(n):
        w = v + _apply_row(t, n + j, v)
        # v is a stabilizer state, so |(I + S_j) v| is 2|v|, sqrt(2)|v| or 0; when
        # it is 0, the anticommuting destabilizer row maps v into the +1
        # eigenspace of S_j and keeps those of S_0 .. S_{j-1}
        if np.linalg.norm(w) < np.linalg.norm(v):
            v = _apply_row(t, j, v)
            w = v + _apply_row(t, n + j, v)
        v = w
    v = v[:, 0]
    lead = v[np.argmax(np.abs(v) > 0.5 * np.abs(v).max())]
    return v * (abs(lead) / lead / np.linalg.norm(v))


def tableau_to_unitary(t: Tableau) -> np.ndarray:
    """Dense unitary C of the tableau, read off its Pauli rows.

    Column 0 is C|0...0> from `tableau_to_statevector`, so its first nonzero
    entry is real and positive.  Column x is C|x> = prod_{j : x_j = 1}
    C X_j C^dag C|0...0>, a product of destabilizer rows applied to column 0.
    """
    n = t.n
    ensure_budget(16 * 4**n * 4, "dense Clifford synthesis")
    u = np.empty((1 << n, 1 << n), dtype=complex)
    u[:, 0] = tableau_to_statevector(t)
    for k in range(n):
        u[:, 1 << k: 2 << k] = _apply_row(t, n - 1 - k, u[:, : 1 << k])
    return u


# ---------------------------------------------------------------------------
# Measurement support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSupport:
    """Affine subspace of F_2^n carrying the measurement distribution of C|0..0>."""

    n: int
    basis: np.ndarray  # (k_dim, n) independent rows
    offset: np.ndarray  # (n,)

    @property
    def k_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def size(self) -> int:
        return 1 << self.k_dim

    def contains(self, v: np.ndarray) -> bool:
        res = gf2_solve(self.basis.T, (np.asarray(v, dtype=np.uint8) ^ self.offset))
        return res is not None

    def members(self) -> np.ndarray:
        """All 2^k_dim elements; k_dim <= 20 guard."""
        if self.k_dim > 20:
            raise ValueError("support too large to enumerate")
        k = self.k_dim
        coeffs = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
        return (coeffs @ self.basis + self.offset) % 2


def measurement_support(t: Tableau) -> AffineSupport:
    """Affine set over which measuring C|0...0> is uniform.

    One Gauss-Jordan pass over the X block of the stabilizer rows, each row
    operation a Pauli product, lexicographic pivots for determinism.  The
    rows with an X pivot span the support's direction, already in RREF; the
    remaining rows are +-Z^z and fix z.v to their sign.  The offset is the
    coset representative that is zero at every pivot column.
    """
    n = t.n
    rows = [_row_xzform(t, n + j) for j in range(n)]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        hot = [q for q in range(r, n) if rows[q][0][c]]
        if not hot:
            continue
        rows[r], rows[hot[0]] = rows[hot[0]], rows[r]
        for q in range(n):
            if q != r and rows[q][0][c]:
                rows[q] = _pauli_product(*rows[q], *rows[r])
        pivots.append(c)
    k = len(pivots)
    basis = np.array([x for x, _, _ in rows[:k]], dtype=np.uint8).reshape(k, n)
    zs = np.array([z for _, z, _ in rows[k:]], dtype=np.uint8).reshape(n - k, n)
    phases = np.array([p for _, _, p in rows[k:]], dtype=np.uint8)
    offset = None if (phases % 2).any() else gf2_solve(zs, phases // 2)
    if offset is None:
        raise PropertyViolationError("inconsistent stabilizer sign constraints")
    for row, pc in zip(basis, pivots):
        if offset[pc]:
            offset ^= row
    return AffineSupport(n, basis, offset)


def sample_from_support(sup: AffineSupport, shots: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform samples (shots x n bit rows) over the affine set."""
    k = sup.k_dim
    if k == 0:
        return np.tile(sup.offset, (shots, 1))
    coeffs = rng.integers(0, 2, size=(shots, k), dtype=np.uint8)
    return (coeffs @ sup.basis + sup.offset) % 2


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """Bit rows -> integers (qubit 0 = most significant), n <= 63."""
    n = rows.shape[-1]
    weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
    return rows.astype(np.uint64) @ weights


# ---------------------------------------------------------------------------
# Full-support family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaParams:
    """Parameters (M, u, v) of the explicit full-support stabilizer family.

    M is stored strictly upper-triangular (canonical; the quadratic form
    only sees M_ij + M_ji for i < j), u and v are bit vectors.
    """

    n: int
    m_matrix: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m_matrix, dtype=np.uint8) % 2
        if m.shape != (self.n, self.n):
            raise ValueError("M must be n x n")
        if np.any(np.diagonal(m)):
            raise ValueError("M must have zero diagonal")
        canon = np.triu(m ^ m.T, k=1).astype(np.uint8)
        object.__setattr__(self, "m_matrix", canon)
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.uint8) % 2)
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.uint8) % 2)
        if self.u.shape != (self.n,) or self.v.shape != (self.n,):
            raise ValueError("u, v must be length-n bit vectors")


def gamma_state(p: GammaParams) -> Tableau:
    """Clifford preparing 2^{-n/2} sum_x i^{u.x} (-1)^{x^T M x + v.x} |x>.

    The circuit Z^v CZ^M S^u H^{(x)n} written straight into the tableau: it
    sends X_j to Z_j, and Z_j to X_j times Z on the M-neighbours of j (Y_j
    when u_j = 1) with sign (-1)^{v_j}.  The result always has full
    measurement support (k_dim = n).
    """
    n = p.n
    eye = np.eye(n, dtype=np.uint8)
    zero = np.zeros((n, n), dtype=np.uint8)
    neighbours = p.m_matrix ^ p.m_matrix.T ^ np.diag(p.u)
    return Tableau(n, np.vstack([zero, eye]), np.vstack([eye, neighbours]),
                   np.concatenate([np.zeros(n, dtype=np.uint8), p.v]))


def gamma_amplitudes(p: GammaParams) -> np.ndarray:
    """Closed-form amplitudes of the (M, u, v) state, for cross-checks."""
    n = p.n
    xs = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(np.int64)
    quad = np.einsum("ki,ij,kj->k", xs, p.m_matrix.astype(np.int64), xs)
    phase = (1j ** (xs @ p.u.astype(np.int64))) * ((-1.0) ** ((quad + xs @ p.v.astype(np.int64)) % 2))
    return phase / np.sqrt(1 << n)


def full_support_probability(n: int, exact: bool = False):
    """prod_{j<=n} 1/(1 + 2^{-j}), the guaranteed share of full-support
    stabilizer states among uniformly random ones; always >= 1/e."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= Fraction(2**j, 2**j + 1)
    return out if exact else float(out)


def stabilizer_state_count(n: int) -> int:
    """2^n prod_{j=1}^n (2^j + 1), the number of n-qubit stabilizer states."""
    out = 2**n
    for j in range(1, n + 1):
        out *= 2**j + 1
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _bits_to_hex(bits: np.ndarray) -> str:
    val = 0
    for j, b in enumerate(bits):
        val |= int(b) << j
    width = (bits.size + 3) // 4
    return format(val, f"0{width}x")


def _hex_to_bits(s: str, width: int) -> np.ndarray:
    val = int(s, 16)
    return np.array([(val >> j) & 1 for j in range(width)], dtype=np.uint8)


def tableau_to_json_dict(t: Tableau) -> dict:
    return {
        "n": t.n,
        "x": [_bits_to_hex(row) for row in t.x],
        "z": [_bits_to_hex(row) for row in t.z],
        "r": _bits_to_hex(t.r),
    }


def tableau_from_json_dict(d: dict) -> Tableau:
    n = int(d["n"])
    x = np.stack([_hex_to_bits(s, n) for s in d["x"]])
    z = np.stack([_hex_to_bits(s, n) for s in d["z"]])
    r = _hex_to_bits(d["r"], 2 * n)
    return Tableau(n, x, z, r)
