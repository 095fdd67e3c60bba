"""The exterior square W of V, its dual, the symmetric square S2(W),
and the induced matrix actions.

Coordinate conventions, fixed once so that every export is reproducible:

* Bivectors have 6 coordinates over the ordered basis
  w1 = e1^e2, w2 = e1^e3, w3 = e1^e4, w4 = e2^e3, w5 = e2^e4, w6 = e3^e4.
* Dual bivectors have 6 coordinates over fi^fj in the same index order.
  They are kept as a separate notion from bivectors: the only bridge is
  the explicit duality map :func:`phi`.
* Symmetric tensors have 21 coordinates over the monomials wi*wj,
  i <= j, ordered lexicographically by (i, j).
* N is the quotient of S2(W) by the two-element subgroup {0, U}; an
  element is represented by the lexicographically smaller coordinate
  vector of the two coset members (each coordinate read as its bit
  value); :func:`n_project_packed` is the one statement of this rule,
  on arrays of packed tensors.

In characteristic 2 all wedge/symmetrisation signs vanish, squaring is
additive (a + b)^2 = a^2 + b^2, and the span of squares W2 consists of
exactly the symmetric tensors with diagonal support.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import repeat
from operator import and_, itemgetter, lshift, rshift, xor

from ._lazy import np
from .field import GF, field_of_order
from .linalg import E4, det, evaluate, mat_inv, mat_vec, transpose

# Index pairs (a, b), a < b, of the bivector basis slots w1..w6.
BIV_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Monomial pairs (i, j), i <= j, of the 21 symmetric-tensor slots.
SYM_PAIRS = tuple((i, j) for i in range(6) for j in range(i, 6))
SYM_SLOT = {pair: s for s, pair in enumerate(SYM_PAIRS)}
DIAG_SLOTS = tuple(SYM_SLOT[(i, i)] for i in range(6))

ZERO6 = (0,) * 6
ZERO21 = (0,) * 21


def wedge(gf: GF, u, v):
    """Exterior product of two vectors: slot (a, b) carries u_a v_b + u_b v_a."""
    mul = gf.mul_rows
    u0, u1, u2, u3 = mul[u[0]], mul[u[1]], mul[u[2]], mul[u[3]]
    v0, v1, v2, v3 = v
    return (u0[v1] ^ u1[v0], u0[v2] ^ u2[v0], u0[v3] ^ u3[v0],
            u1[v2] ^ u2[v1], u1[v3] ^ u3[v1], u2[v3] ^ u3[v2])


def wedges(gf: GF, us, vs) -> np.ndarray:
    """The array form of wedge: the (..., 6) uint8 slots of u ^ v for the
    rows (last axis) of the coordinate stacks us and vs."""
    t, k = gf.mul_table, gf.k
    us, vs = np.asarray(us), np.asarray(vs)
    a, b = np.array(BIV_PAIRS).T
    return np.take(t, (us[..., a] << k) | vs[..., b]) ^ np.take(t, (us[..., b] << k) | vs[..., a])


def wedge_covectors(gf: GF, f, g):
    """Exterior product of two covectors, coordinates over fi^fj (a dual
    bivector); the slot formula is the one of :func:`wedge`."""
    return wedge(gf, f, g)


def wedge4(gf: GF, a, b, c, d) -> int:
    """Scalar a^b^c^d under the normalisation e1^e2^e3^e4 -> 1 (a determinant)."""
    return det(gf, (a, b, c, d))


def phi(dual):
    """The duality map on coordinates: fi^fj goes to the complementary basis
    bivector, which in the fixed slot order is coordinate reversal."""
    return tuple(reversed(dual))


@lru_cache(maxsize=None)
def _dual_pairing_table(gf: GF):
    """B(fi^fj, ea^eb) computed from functional evaluation on decomposables."""
    tab = []
    for i, j in BIV_PAIRS:
        row = []
        for a, b in BIV_PAIRS:
            fi, fj, ea, eb = E4[i], E4[j], E4[a], E4[b]
            row.append(
                gf.mul(evaluate(gf, fi, ea), evaluate(gf, fj, eb))
                ^ gf.mul(evaluate(gf, fi, eb), evaluate(gf, fj, ea))
            )
        tab.append(tuple(row))
    return tuple(tab)


@lru_cache(maxsize=None)
def _chi_pairing_table(gf: GF):
    """(w_s ^ w_t)^chi on basis bivectors, via the 4-fold wedge."""
    tab = []
    for i, j in BIV_PAIRS:
        row = []
        for a, b in BIV_PAIRS:
            row.append(wedge4(gf, E4[i], E4[j], E4[a], E4[b]))
        tab.append(tuple(row))
    return tuple(tab)


# ----------------------------------------------------------------------
# symmetric square
# ----------------------------------------------------------------------

def sym_mul(gf: GF, a, b):
    """Product of two bivectors in S2(W): slot (i, j) carries a_i b_j + a_j b_i
    off the diagonal and a_i b_i on it, in SYM_PAIRS order."""
    mul = gf.mul_rows
    a0, a1, a2, a3, a4, a5 = mul[a[0]], mul[a[1]], mul[a[2]], mul[a[3]], mul[a[4]], mul[a[5]]
    b0, b1, b2, b3, b4, b5 = b
    return (a0[b0], a0[b1] ^ a1[b0], a0[b2] ^ a2[b0], a0[b3] ^ a3[b0],
            a0[b4] ^ a4[b0], a0[b5] ^ a5[b0],
            a1[b1], a1[b2] ^ a2[b1], a1[b3] ^ a3[b1], a1[b4] ^ a4[b1], a1[b5] ^ a5[b1],
            a2[b2], a2[b3] ^ a3[b2], a2[b4] ^ a4[b2], a2[b5] ^ a5[b2],
            a3[b3], a3[b4] ^ a4[b3], a3[b5] ^ a5[b3],
            a4[b4], a4[b5] ^ a5[b4],
            a5[b5])


def square(gf: GF, a):
    """a*a, which in characteristic 2 has diagonal support with entries a_i^2."""
    return sym_mul(gf, a, a)


def sym_add(s, t):
    return tuple(map(xor, s, t))


def sym_scale(gf: GF, c: int, s):
    return tuple(map(gf.mul_rows[c].__getitem__, s))


@lru_cache(maxsize=None)
def big_u(gf: GF):
    """The invariant element, evaluated from its defining alternating sum at
    the standard basis (whose 4-wedge is 1)."""
    return u_from_basis(gf, *E4)


def u_from_basis(gf: GF, w, x, y, z):
    """The same alternating sum at an arbitrary basis with 4-wedge equal 1."""
    if wedge4(gf, w, x, y, z) != 1:
        raise ValueError("basis is not unimodular")
    u = sym_mul(gf, wedge(gf, w, x), wedge(gf, y, z))
    u = sym_add(u, sym_mul(gf, wedge(gf, w, y), wedge(gf, z, x)))
    u = sym_add(u, sym_mul(gf, wedge(gf, w, z), wedge(gf, x, y)))
    return u


_OFFDIAG_SLOTS = tuple(t for t in range(21) if t not in DIAG_SLOTS)
_offdiag = itemgetter(*_OFFDIAG_SLOTS)
_ZERO_OFFDIAG = (0,) * len(_OFFDIAG_SLOTS)
# U's alternating sum has coefficients 0 and 1 in every field, so its
# off-diagonal part is the same tuple for each; it is taken over GF(2)
_U_OFFDIAG = _offdiag(big_u(field_of_order(2)))


def in_w2(gf: GF, s) -> bool:
    """Membership in the span of squares: diagonal support only."""
    return all(s[t] == 0 for t in _OFFDIAG_SLOTS)


def in_w2_plus_u(gf: GF, s):
    """Membership in the F2-space spanned by the squares and U: the
    off-diagonal part of s is zero or that of U.  Given an (N, 21) array
    instead of a tuple, the membership mask of its rows."""
    if isinstance(s, tuple):
        off = _offdiag(s)
        return off == _ZERO_OFFDIAG or off == _U_OFFDIAG
    off = np.asarray(s)[:, _OFFDIAG_SLOTS]
    return ~off.any(axis=1) | (off == _U_OFFDIAG).all(axis=1)


# ----------------------------------------------------------------------
# packed representation (one int per symmetric tensor)
# ----------------------------------------------------------------------

# the bit offset of each of the 21 slots in the packing over GF(2^k), by k:
# slot t sits k * (20 - t) bits up
_SHIFTS = {k: tuple(k * (20 - t) for t in range(21)) for k in range(1, 5)}


def pack_sym(gf: GF, s) -> int:
    """Pack 21 coordinates, earliest slot in the highest bits, so that integer
    comparison is lexicographic comparison of coordinate vectors."""
    return sum(map(lshift, s, _SHIFTS[gf.k]))


def unpack_sym(gf: GF, x: int):
    return tuple(map(and_, map(rshift, repeat(x, 21), _SHIFTS[gf.k]),
                     repeat(gf.order - 1, 21)))


@lru_cache(maxsize=None)
def u_packed(gf: GF) -> int:
    return pack_sym(gf, big_u(gf))


@lru_cache(maxsize=None)
def offdiag_mask(gf: GF) -> int:
    """Packed mask of all off-diagonal coordinate bits."""
    return pack_sym(gf, [0 if t in DIAG_SLOTS else gf.order - 1 for t in range(21)])


def packed_in_w2_plus_u(gf: GF, x):
    """Membership of a packed int in the span of the squares and U, or the
    membership mask of an array of them."""
    off = x & offdiag_mask(gf)
    return (off == 0) | (off == u_packed(gf))


# ----------------------------------------------------------------------
# the quotient N = S2(W) / {0, U}
# ----------------------------------------------------------------------

def n_project_packed(gf: GF, x) -> np.ndarray:
    """Canonical representatives of the cosets {x, x + U} of an array of
    packed tensors: the smaller packing of each, as uint64 (k <= 3)."""
    x = np.asarray(x, dtype=np.uint64)
    return np.minimum(x, x ^ np.uint64(u_packed(gf)))


# ----------------------------------------------------------------------
# induced matrix actions
# ----------------------------------------------------------------------

def _span_table(images):
    """The XOR of the images selected by the bits of each index
    0 .. 2**len(images) - 1, bit i selecting images[i]."""
    table = [0]
    for img in images:
        table += [x ^ img for x in table]
    return table


# the slot table of MatrixAction before it is built: its entry 0 is the
# image of a zero coordinate
_UNBUILT = (0,)


class MatrixAction:
    """All induced actions of one 4x4 matrix, computed once and cached.

    Vectors act on the right (v -> v*m); covectors by the inverse
    transpose; bivectors functorially through the wedge; symmetric
    tensors multiplicatively.  A unimodular matrix fixes U, so it also
    acts on N, through n_project_packed of the images.  The
    symmetric-square action XORs packed images from one table per slot of
    the input; arrays of packed values take one table per byte instead,
    which byte_tables builds for a batch of actions.  The slot tables and
    the inverse transpose are made on first use: an action that only ever
    meets U makes the sym_mul rows of its three nonzero slots and no
    inverse.
    """

    def __init__(self, gf: GF, m):
        self.gf = gf
        self.m = tuple(tuple(row) for row in m)
        self.det = det(gf, m)
        if self.det == 0:
            raise ValueError("matrix is singular")
        # Row a of m is the image of e_a, so the image of w_(a,b) is
        # the wedge of rows a and b.
        self.w_rows = tuple(wedge(gf, self.m[a], self.m[b]) for a, b in BIV_PAIRS)
        self._slot_tables = [_UNBUILT] * 21
        self._unbuilt = 21  # slots whose table is not built yet

    @cached_property
    def minv_t(self):
        return transpose(mat_inv(self.gf, self.m))

    def on_vector(self, v):
        return mat_vec(self.gf, v, self.m)

    def on_covector(self, f):
        return mat_vec(self.gf, f, self.minv_t)

    def _slot_table(self, t: int) -> list:
        """The packed image of c * w_i w_j for every field element c, with
        (i, j) the monomial of slot t, XORed together from the images of the
        bits of c; built on first use."""
        table = self._slot_tables[t]
        if table is _UNBUILT:
            gf, (i, j) = self.gf, SYM_PAIRS[t]
            row = sym_mul(gf, self.w_rows[i], self.w_rows[j])
            table = self._slot_tables[t] = _span_table(
                [pack_sym(gf, sym_scale(gf, 1 << b, row)) for b in range(gf.k)])
            self._unbuilt -= 1
        return table

    def on_sym(self, s):
        """The image of a symmetric tensor, one table read per slot.  The
        tables of its nonzero slots are built first; a zero slot reads 0
        from any table, built or not."""
        if self._unbuilt:
            for t, c in enumerate(s):
                if c:
                    self._slot_table(t)
        acc = 0
        for table, c in zip(self._slot_tables, s):
            acc ^= table[c]
        return unpack_sym(self.gf, acc)


def byte_tables(gf: GF, actions) -> np.ndarray:
    """Per action and per byte of a packed value, lowest first, the packed
    image of every value of the byte, XORed together from the images of its
    bits: an (A, ceil(21k / 8), 256) uint64 array for A actions, built as
    arrays for all of them at once.  Packed bit p is bit e = p % k of slot
    20 - p // k, with monomial w_i w_j, and its image is the product of 2^e
    times the image of w_i with the image of w_j.  Only valid for k <= 3
    (21k packed bits must fit into 64)."""
    if gf.k > 3:
        raise ValueError("packed bulk images support k <= 3 only")
    k, t = gf.k, gf.mul_table
    m = np.array([act.m for act in actions], dtype=np.uint8).reshape(-1, 4, 4)
    # row s of w is the image of w_s, the wedge of the rows (a, b) of m
    a, b = np.array(BIV_PAIRS).T
    w = wedges(gf, m[:, a], m[:, b])
    # the packed bits in order, as (A, 21, k, 6) rows: slot 20 - p // k,
    # with x 2^e times the image of w_i and y the image of w_j
    i, j = np.array(SYM_PAIRS)[::-1].T
    x = t[1 << np.arange(k)[:, None], w[:, i, None, :]]
    y = w[:, j, None, :]
    # coordinate (s, u) of x y is x_s y_u + x_u y_s off the diagonal and
    # x_s y_s on it, and lands at bit k (20 - its slot) of the packing
    s, u = np.array(SYM_PAIRS).T
    prod = t[x[..., s], y[..., u]] ^ np.where(s == u, 0, t[x[..., u], y[..., s]])
    shifts = np.array(_SHIFTS[k], dtype=np.uint64)
    bits = np.bitwise_or.reduce(prod.astype(np.uint64) << shifts, axis=-1).reshape(len(m), 21 * k)
    bits = np.pad(bits, ((0, 0), (0, -21 * k % 8))).reshape(len(m), -(-21 * k // 8), 8)
    # the tables of the first e bits of each byte, doubled by bit e:
    # entry v + 2^e is entry v XOR the image of bit e
    tables = np.zeros(bits.shape[:2] + (1,), dtype=np.uint64)
    for e in range(8):
        tables = np.concatenate([tables, tables ^ bits[..., e:e + 1]], axis=-1)
    return tables


def packed_images(tables: np.ndarray, xs) -> np.ndarray:
    """The packed image of every entry of an array of packed values under
    the byte tables of one action, one uint64 gather per byte."""
    xs = np.asarray(xs, dtype=np.uint64)
    acc = tables[0][xs & np.uint64(0xFF)]
    for b in range(1, len(tables)):
        acc ^= tables[b][(xs >> np.uint64(8 * b)) & np.uint64(0xFF)]
    return acc


@lru_cache(maxsize=2048)
def action(gf: GF, m) -> MatrixAction:
    return MatrixAction(gf, m)
