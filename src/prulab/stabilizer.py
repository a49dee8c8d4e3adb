"""Stabilizer (Clifford) machinery.

Uniform Clifford sampling through the canonical symplectic-index
construction, computational-basis measurement supports of stabilizer
states, dense tableau unitaries read off the tableau's Pauli rows, the
share of full-support states and the stabilizer-state count.

A tableau keeps each Pauli row as one Python int, interleaved: x_q at bit
2q and z_q at bit 2q+1.  The sampler builds those rows and the support
extraction reduces them, so a row operation is one XOR and an inner
product a popcount, with no bit arrays between the two.  Supports are
outcome indices with qubit 0 as the most significant bit, so their basis,
offset and samples index `tableau_to_statevector` as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from prulab.linalg import PropertyViolationError, ensure_budget

# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------


class Tableau:
    """Binary symplectic tableau of an n-qubit Clifford (modulo global phase).

    Row j < n holds the conjugate of X_j, row n+j the conjugate of Z_j, each
    encoded as x/z bit vectors plus a sign bit r; a row with bits (x, z, r)
    stands for the Hermitian Pauli (-1)^r prod_q sigma(x_q, z_q) where
    sigma(1,1) = Y.  ``rows`` holds row j as one int with x_q at bit 2q and
    z_q at bit 2q+1; the (2n, n) bit blocks ``x`` and ``z`` are unpacked
    from it on first use.  Build one from all three blocks x, z and r, or
    from none for the identity.  Tableaus are immutable: ``x``, ``z`` and
    ``r`` are read-only arrays.
    """

    __slots__ = ("n", "rows", "r", "_xz")

    def __init__(self, n: int, x=None, z=None, r=None):
        if n < 1:
            raise ValueError("need at least one qubit")
        missing = [name for name, block in (("x", x), ("z", z), ("r", r)) if block is None]
        if len(missing) == 3:
            rows = [1 << 2 * j for j in range(n)] + [2 << 2 * j for j in range(n)]
            r = np.zeros(2 * n, dtype=np.uint8)
        elif missing:
            raise ValueError(f"tableau needs all of x, z and r or none; missing {', '.join(missing)}")
        else:
            x = np.asarray(x, dtype=np.uint8) % 2
            z = np.asarray(z, dtype=np.uint8) % 2
            r = np.asarray(r, dtype=np.uint8) % 2
            if x.shape != (2 * n, n) or z.shape != (2 * n, n) or r.shape != (2 * n,):
                raise ValueError("tableau block shapes inconsistent with n")
            g = np.empty((2 * n, 2 * n), dtype=np.uint8)
            g[:, 0::2], g[:, 1::2] = x, z
            rows = _pack_rows(g)
        self._set(n, rows, r)

    @classmethod
    def _from_rows(cls, n: int, rows: list[int], r: np.ndarray) -> Tableau:
        """A tableau of packed rows and a fresh 0/1 sign array, unchecked."""
        t = cls.__new__(cls)
        t._set(n, rows, r)
        return t

    def _set(self, n: int, rows: list[int], r: np.ndarray) -> None:
        r.flags.writeable = False
        self.n, self.rows, self.r, self._xz = n, tuple(rows), r, None

    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._xz is None:
            g = _unpack_rows(self.rows, 2 * self.n)
            g.flags.writeable = False
            self._xz = g[:, 0::2], g[:, 1::2]
        return self._xz

    @property
    def x(self) -> np.ndarray:
        return self._blocks()[0]

    @property
    def z(self) -> np.ndarray:
        return self._blocks()[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.n == other.n
            and self.rows == other.rows
            and np.array_equal(self.r, other.r)
        )


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Bit rows -> one int per row, column j as bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[j: j + width], "little") for j in range(0, len(buf), width)]


def _unpack_rows(rows: list[int] | tuple[int, ...], width: int) -> np.ndarray:
    """Inverse of `_pack_rows`: a (len(rows), width) uint8 bit array."""
    nbytes = (width + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


# ---------------------------------------------------------------------------
# Uniform symplectic / Clifford sampling
# ---------------------------------------------------------------------------


def _swap_pairs(w: int, evens: int) -> int:
    """Exchange the X and Z bit of every qubit pair; ``evens`` has every even
    bit set.  <v,w> is then the parity of v AND _swap_pairs(w)."""
    return (w & evens) << 1 | (w >> 1) & evens


def _transvections_from_e1(y: int) -> tuple[int, int]:
    """Rows (h1, h2) with Z_h2(Z_h1(e1)) = y for a nonzero packed row y,
    where e1 = 1 is X on qubit 0 and a transvection by 0 is the identity.

    Each qubit's bit pair (low X, high Z) reads as 1 = X, 2 = Z, 3 = Y.
    """
    if y == 1:
        return 0, 0
    if y & 2:  # <e1, y> = 1
        return 1 ^ y, 0
    if y & 1:  # X on qubit 0 in both: go through Y there
        return 2, 3 ^ y
    # y is I on qubit 0: go through Z there and, on y's first non-identity
    # qubit, Z against a Y pair, else the other one of X and Z
    shift = ((y & -y).bit_length() - 1) & ~1
    yq = y >> shift & 3
    z = 2 | (2 if yq == 3 else 3 - yq) << shift
    return 1 ^ z, z ^ y


def symplectic_group_order(n: int) -> int:
    out = 1
    for j in range(1, n + 1):
        out *= (4**j - 1) << (2 * j - 1)
    return out


def _symplectic_rows(i: int, n: int) -> list[int]:
    """The rows of `symplectic_from_index(i, n)`, column j as bit j of each.

    Index i reads as one digit per level m = n, ..., 1, each naming the
    transvections (t2, t1, h0, f1) that act on the level's 2m rows; the
    rows are then built from the innermost level out, each level adding
    the pair e1, e2 below the last level's rows shifted up by one qubit.
    """
    evens = int("01" * n, 2)
    levels = []
    for m in range(n, 0, -1):
        s = (1 << 2 * m) - 1
        f1 = i % s + 1
        i //= s
        t1, t2 = _transvections_from_e1(f1)
        bits = i % (1 << (2 * m - 1))
        i >>= 2 * m - 1
        # e1 with its columns from 2 on set to bits[1:]
        h0 = 1 | (bits >> 1) << 2
        for h in (t2, t1):
            if (h0 & _swap_pairs(h, evens)).bit_count() & 1:
                h0 ^= h
        levels.append((t2, t1, h0, 0 if bits & 1 else f1))
    g: list[int] = []
    for level in reversed(levels):
        g = [1, 2] + [row << 2 for row in g]
        for h in level:
            if h:
                hs = _swap_pairs(h, evens)
                g = [x ^ h if (x & hs).bit_count() & 1 else x for x in g]
    return g


def symplectic_from_index(i: int, n: int) -> np.ndarray:
    """Canonical bijection from [0, |Sp(2n,2)|) onto 2n x 2n symplectic matrices.

    Koenig-Smolin construction (arXiv:1406.2170) on packed rows: each row is
    one Python int whose bit j is column j.  Pair-interleaved convention:
    columns 2q, 2q+1 are the X/Z components on qubit q, so <v,w> is the
    parity of v AND w with each bit pair swapped, and the transvection by h
    sends a row x to x ^ h when <x,h> = 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 qubits, got {n}")
    if not 0 <= i < symplectic_group_order(n):
        raise ValueError(f"symplectic index {i} outside [0, {symplectic_group_order(n)})")
    return _unpack_rows(_symplectic_rows(i, n), 2 * n)


def _uniform_below(card: int, rng: np.random.Generator) -> int:
    bits = card.bit_length()
    nwords = (bits + 31) // 32
    mask = (1 << bits) - 1
    while True:
        words = rng.integers(0, 2**32, size=nwords, dtype=np.uint64)
        val = int.from_bytes(words.astype(">u4").tobytes(), "big") & mask
        if val < card:
            return val


def random_clifford_rng(n: int, rng: np.random.Generator) -> Tableau:
    """Uniformly random n-qubit Clifford (modulo global phase), 1 <= n <= 63.

    Uniform symplectic part via the canonical index construction plus
    uniform sign bits; exact uniformity rather than a random-circuit
    heuristic.  Symplectic row 2j is the image of X_j and row 2j+1 that of
    Z_j, already in the tableau's interleaved row layout.
    """
    if not 1 <= n <= 63:
        raise ValueError("qubit count out of range [1, 63]")
    rows = _symplectic_rows(_uniform_below(symplectic_group_order(n), rng), n)
    r = rng.integers(0, 2, size=2 * n).astype(np.uint8)
    return Tableau._from_rows(n, rows[0::2] + rows[1::2], r)


# ---------------------------------------------------------------------------
# Dense unitaries
# ---------------------------------------------------------------------------


def _apply_row(t: Tableau, i: int, m: np.ndarray) -> np.ndarray:
    """Tableau row i, as a dense Pauli, applied to a block of column vectors.

    The row (-1)^r prod sigma(x_q, z_q) is i^p X^x Z^z with p = 2r + x.z, and
    (i^p X^x Z^z m)[w] = i^p (-1)^{z.(w^x)} m[w^x], basis index w read with
    qubit 0 as the most significant bit.
    """
    x, z = _pack_rows(np.stack([t.x[i, ::-1], t.z[i, ::-1]]))
    p = (2 * int(t.r[i]) + (x & z).bit_count()) % 4
    src = np.arange(m.shape[0]) ^ x
    parity = (((src[:, None] >> np.arange(t.n - 1, -1, -1)) & 1) @ t.z[i]) & 1
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
    """Affine subspace of F_2^n carrying the measurement distribution of C|0..0>.

    Its 2^k_dim elements are the outcome indices offset ^ (XOR of a subset
    of basis), qubit 0 as the most significant bit, the order of
    `tableau_to_statevector`.  ``basis`` is in RREF with descending leading
    bits, and ``offset`` is zero at each leading bit, so both are canonical
    for the subspace.
    """

    n: int
    basis: tuple[int, ...]
    offset: int

    @property
    def k_dim(self) -> int:
        return len(self.basis)


def _check_index_width(sup: AffineSupport) -> None:
    if sup.n > 63:
        raise ValueError(f"outcome indices of {sup.n} qubits do not fit in int64 (n <= 63)")


def measurement_support(t: Tableau) -> AffineSupport:
    """Affine set over which measuring C|0...0> is uniform.

    One Gauss-Jordan pass over the stabilizer rows, each held as (v, p) for
    i^p X^x Z^z with v the tableau's interleaved row (x_q at bit 2q, z_q at
    bit 2q+1), so p = 2r + popcount(x & z).  A row operation is the Pauli
    product, of phase p1 + p2 + 2 popcount(z1 & x2), taken mod 4 at the
    end; pivots run over the X bits from qubit 0 on, then the Z bits, and
    stop at n.  The rows with an X pivot span the support's direction,
    already in RREF; the Z steps leave their x parts alone, which become
    outcome indices with qubit 0 as the most significant bit.  Each
    remaining row is +-Z^z and sets the outcome bit of the qubit at its
    lowest set bit, its pivot, to its sign, so z.v matches that sign on
    every row.  The offset is that outcome reduced to zero at every basis
    pivot.
    """
    n = t.n
    evens = int("01" * n, 2)
    vs = list(t.rows[n:])
    ps = [2 * r + (v >> 1 & v & evens).bit_count() for v, r in zip(vs, t.r[n:].tolist())]
    k = 0
    for c in (*range(0, 2 * n, 2), *range(1, 2 * n, 2)):
        bit = 1 << c
        for hot in range(k, n):
            if vs[hot] & bit:
                break
        else:
            continue
        v2, p2 = vs[hot], ps[hot]
        vs[hot], ps[hot] = vs[k], ps[k]
        vs[k], ps[k] = v2, p2
        x2 = v2 & evens
        for q in range(n):
            v1 = vs[q]
            if v1 & bit and q != k:
                vs[q] = v1 ^ v2
                ps[q] += p2 + 2 * (v1 >> 1 & x2).bit_count()
        k += 1
        if k == n:
            break
    # x_q at bit 2q -> outcome bit n-1-q: every other binary digit, reversed
    basis = tuple(int(format(v, f"0{2 * n}b")[::-2], 2) for v in vs if v & evens)
    offset = 0
    for v, p in zip(vs[len(basis):], ps[len(basis):]):
        p %= 4
        if p % 2 or p and not v:
            raise PropertyViolationError("inconsistent stabilizer sign constraints")
        if p:
            offset |= 1 << (n - 1 - ((v & -v).bit_length() - 1) // 2)
    for b in basis:
        if offset >> (b.bit_length() - 1) & 1:
            offset ^= b
    return AffineSupport(n, basis, offset)


def sample_from_support(sup: AffineSupport, shots: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform outcome indices (int64, n <= 63) over the affine set:
    the offset XOR the basis rows each uniform coefficient row selects."""
    _check_index_width(sup)
    k = sup.k_dim
    if k == 0:
        return np.full(shots, sup.offset, dtype=np.int64)
    coeffs = rng.integers(0, 2, size=(shots, k), dtype=np.uint8)
    picked = coeffs * np.array(sup.basis, dtype=np.int64)
    return np.bitwise_xor.reduce(picked, axis=1) ^ sup.offset


# ---------------------------------------------------------------------------
# Stabilizer-state counts
# ---------------------------------------------------------------------------


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
