"""Stabilizer (Clifford) machinery.

The tableau of a canonical symplectic index and its sign bits, which the
uniform Clifford sampler and the reference designs in `prulab.ensembles`
both build through, computational-basis measurement supports of stabilizer
states and uniform samples over them, dense tableau unitaries read off the
tableau's Pauli rows, the share of full-support states and the
stabilizer-state count.

A tableau is a frozen value of three fields: the qubit count, a tuple of
Pauli rows, each one Python int interleaved with x_q at bit 2q and z_q at
bit 2q+1, and a tuple of 0/1 sign bits.  The sampler builds those rows and
the support extraction reduces them, so a row operation is one XOR and an
inner product a popcount, with no bit arrays between the two.  Supports are
outcome indices with qubit 0 as the most significant bit, so their basis,
offset and samples index `tableau_to_statevector` as they stand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from prulab.linalg import PropertyViolationError, ensure_budget

# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tableau:
    """Binary symplectic tableau of an n-qubit Clifford (modulo global phase).

    Row j < n holds the conjugate of X_j, row n+j the conjugate of Z_j; a
    row with bits (x, z) and sign bit r stands for the Hermitian Pauli
    (-1)^r prod_q sigma(x_q, z_q) where sigma(1,1) = Y.  ``rows`` holds row
    j as one int with x_q at bit 2q and z_q at bit 2q+1, and ``r`` its sign
    bits as 0/1 ints.  A tableau is a frozen value: its fields cannot be
    reassigned, and equal tableaus hash equal.
    """

    n: int
    rows: tuple[int, ...]
    r: tuple[int, ...]


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


@functools.lru_cache(maxsize=64)  # every qubit count the sampler takes
def symplectic_group_order(n: int) -> int:
    out = 1
    for j in range(1, n + 1):
        out *= (4**j - 1) << (2 * j - 1)
    return out


def _symplectic_rows(i: int, n: int) -> list[int]:
    """The rows of the 2n x 2n symplectic matrix of index i, column j as
    bit j of each: the Koenig-Smolin bijection (arXiv:1406.2170) from
    [0, |Sp(2n,2)|) onto Sp(2n,2), on packed rows.  Columns 2q, 2q+1 are
    the X/Z components on qubit q, so <v,w> is the parity of v AND w with
    each bit pair swapped, and the transvection by h sends a row x to
    x ^ h when <x,h> = 1.

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


def clifford_tableau(i: int, signs: int, n: int) -> Tableau:
    """The n-qubit tableau of symplectic index i, 0 <= i < |Sp(2n,2)|,
    with sign bits ``signs``, 0 <= signs < 4^n, whose bit j is r_j.

    Symplectic row 2j is the image of X_j and row 2j+1 that of Z_j,
    already in the tableau's interleaved row layout; the tableau holds the
    X_j images, then the Z_j images.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 qubits, got {n}")
    if not 0 <= i < symplectic_group_order(n):
        raise ValueError(f"symplectic index {i} outside [0, {symplectic_group_order(n)})")
    if not 0 <= signs < 1 << 2 * n:
        raise ValueError(f"sign bits {signs} outside [0, {1 << 2 * n})")
    rows = _symplectic_rows(i, n)
    r = tuple([signs >> j & 1 for j in range(2 * n)])
    return Tableau(n, tuple(rows[0::2] + rows[1::2]), r)


def random_clifford_rng(n: int, rng: np.random.Generator) -> Tableau:
    """Uniformly random n-qubit Clifford (modulo global phase), 1 <= n <= 63.

    Uniform symplectic part via the canonical index construction plus
    uniform sign bits; exact uniformity rather than a random-circuit
    heuristic.  Each attempt takes ceil((bits + 2n) / 64) raw words from
    ``rng.bit_generator.random_raw``, read as one little-endian int, where
    bits = |Sp(2n,2)|.bit_length(): its low ``bits`` bits are the symplectic
    index, and the next 2n bits are the sign bits, bit j being r_j, read
    by `clifford_tableau`.  An index >= |Sp(2n,2)| rejects the whole
    attempt, signs included, and the next attempt draws fresh words.
    """
    if not 1 <= n <= 63:
        raise ValueError("qubit count out of range [1, 63]")
    order = symplectic_group_order(n)
    bits = order.bit_length()
    words = (bits + 2 * n + 63) // 64
    while True:
        raw = rng.bit_generator.random_raw(words).astype("<u8", copy=False)
        value = int.from_bytes(raw.tobytes(), "little")
        i = value & ((1 << bits) - 1)
        if i < order:
            break
    return clifford_tableau(i, value >> bits & ((1 << 2 * n) - 1), n)


# ---------------------------------------------------------------------------
# Dense unitaries
# ---------------------------------------------------------------------------


def _apply_row(t: Tableau, i: int, m: np.ndarray) -> np.ndarray:
    """Tableau row i, as a dense Pauli, applied to a block of column vectors.

    The row (-1)^r prod sigma(x_q, z_q) is i^p X^x Z^z with p = 2r + x.z, and
    (i^p X^x Z^z m)[w] = i^p (-1)^{z.(w^x)} m[w^x], basis index w read with
    qubit 0 as the most significant bit.
    """
    bits = format(t.rows[i], f"0{2 * t.n}b")  # x_q at bit 2q, z_q at bit 2q+1
    x, z = int(bits[::-2], 2), int(bits[-2::-2], 2)
    p = (2 * t.r[i] + (x & z).bit_count()) % 4
    src = np.arange(m.shape[0]) ^ x
    sign = np.where(np.bitwise_count(src & z) & 1, -1, 1)
    return (1j**p * sign)[:, None] * m[src]


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
    ps = [2 * r + (v >> 1 & v & evens).bit_count() for v, r in zip(vs, t.r[n:])]
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


@functools.lru_cache(maxsize=16)
def _xor_tables(sup: AffineSupport) -> np.ndarray:
    """Read-only (ceil(k/8), 256) int64 tables of the support: entry
    [p, j] is the XOR of basis rows 8p + i over the bits i of j, a row past
    k_dim counting as zero, and table 0 also XORs the offset.  At most
    16 KiB, built once per support and kept, for the 16 supports last
    sampled, for their later fills."""
    rows = np.zeros(-(-sup.k_dim // 8) * 8, dtype=np.int64)
    rows[:sup.k_dim] = sup.basis
    picks = np.arange(256)[:, None] >> np.arange(8) & 1
    tables = np.bitwise_xor.reduce(picks * rows.reshape(-1, 1, 8), axis=2)
    tables[0] ^= sup.offset
    tables.flags.writeable = False
    return tables


def sample_from_support(sup: AffineSupport, shots: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform outcome indices (int64, n <= 63) over the affine set.

    One ``rng.bit_generator.random_raw(shots)`` call: the low k_dim bits of
    each word are that shot's coefficient row, bit i selecting basis row i,
    uniform because 2^k_dim divides 2^64.  The outcome is the XOR of one
    `_xor_tables` lookup per byte of those bits, the first carrying the
    offset.
    """
    _check_index_width(sup)
    if sup.k_dim == 0:
        return np.full(shots, sup.offset, dtype=np.int64)
    tables = _xor_tables(sup)
    raw = rng.bit_generator.random_raw(shots).astype("<u8", copy=False)
    coeff_bytes = raw.view(np.uint8).reshape(shots, 8)
    out = tables[0].take(coeff_bytes[:, 0])
    for p in range(1, len(tables)):
        out ^= tables[p].take(coeff_bytes[:, p])
    return out


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
