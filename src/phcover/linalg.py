"""Exact linear algebra over GF(2^k).

Vectors are length-4 tuples of field elements over the standard basis
e1..e4; covectors are length-4 tuples over the dual basis f1..f4.
Matrices are 4-tuples of row tuples and act on the right, so the image
of a row vector v under m is v*m and row a of m is the image of e_a.
Covectors transform by the inverse transpose, which keeps
evaluate(f^g, v^g) == evaluate(f, v).

:func:`dot` is the array form of :func:`evaluate`, row by row, and
:func:`pairing` the matrix of it over two stacks; :func:`kernel` takes
the null space of two rows, the only kind the scalar samplers need.

Also provides F2 affine system solving with inconsistency certificates
(numpy uint8 matrices), used by the order-2 and lifting computations.
"""

from __future__ import annotations

from ._lazy import np
from .field import GF

E4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ZERO4 = (0, 0, 0, 0)


def evaluate(gf: GF, f, v) -> int:
    """Apply the covector f to the vector v: sum_i f_i * v_i."""
    mul = gf.mul_rows
    acc = 0
    for fi, vi in zip(f, v):
        acc ^= mul[fi][vi]
    return acc


def dot(gf: GF, fs, vs) -> np.ndarray:
    """The array form of :func:`evaluate`, row by row: f(v) as uint8 for
    the rows (last axis) of fs and vs, the stacks broadcast against each
    other.  Array code pairs coordinates through the multiplication table
    only here."""
    t, k = gf.mul_table, gf.k
    fs, vs = np.asarray(fs), np.asarray(vs)
    # the product a * b is entry (a << k) | b of the flattened table
    out = np.take(t, (fs[..., 0] << k) | vs[..., 0])
    for c in range(1, fs.shape[-1]):
        out ^= np.take(t, (fs[..., c] << k) | vs[..., c])
    return out


def pairing(gf: GF, fs, vs) -> np.ndarray:
    """The uint8 matrix of f_i(v_j) over the rows f_i of the 2-D stack fs
    and v_j of vs."""
    return dot(gf, np.asarray(fs)[:, None, :], np.asarray(vs)[None, :, :])


def vec_add(u, v):
    """Coefficientwise sum; characteristic 2, so no field context needed."""
    return tuple(a ^ b for a, b in zip(u, v))


def vec_scale(gf: GF, c: int, v):
    return tuple(map(gf.mul_rows[c].__getitem__, v))


def mat_vec(gf: GF, v, m):
    """Row vector times 4x4 matrix: (v*m)_c = sum_r v_r m[r][c]."""
    mul = gf.mul_rows
    a0, a1, a2, a3 = mul[v[0]], mul[v[1]], mul[v[2]], mul[v[3]]
    r0, r1, r2, r3 = m
    return (a0[r0[0]] ^ a1[r1[0]] ^ a2[r2[0]] ^ a3[r3[0]],
            a0[r0[1]] ^ a1[r1[1]] ^ a2[r2[1]] ^ a3[r3[1]],
            a0[r0[2]] ^ a1[r1[2]] ^ a2[r2[2]] ^ a3[r3[2]],
            a0[r0[3]] ^ a1[r1[3]] ^ a2[r2[3]] ^ a3[r3[3]])


def transpose(m):
    return tuple(zip(*m))


def kernel(gf: GF, r0, r1):
    """Basis of the joint null space of two length-4 covectors (or vectors):
    one basis vector per non-pivot column c of their RREF, in increasing c,
    1 at c and column c of the RREF at the pivots.

    The RREF is read off the 2x2 minors m(a, b) = r0[a] r1[b] + r0[b] r1[a]
    (signs vanish in characteristic 2).  At rank 2 its pivots are the first
    pair (p0, p1) in the order (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
    (2, 3) with m = m(p0, p1) nonzero, and by Cramer's rule the basis vector
    of column c has m(c, p1)/m at p0 and m(p0, c)/m at p1.  Written i for
    division by m, the bases are, by pivot pair:

    * (0, 1): (i m12, i m02, 1, 0), (i m13, i m03, 0, 1)
    * (0, 2): (i m12, 1, i m01, 0), (i m23, 0, i m03, 1)
    * (0, 3): (i m13, 1, 0, i m01), (i m23, 0, 1, i m02)
    * (1, 2): (1, i m02, i m01, 0), (0, i m23, i m13, 1)
    * (1, 3): (1, i m03, 0, i m01), (0, i m23, 1, i m12)
    * (2, 3): (1, 0, i m03, i m02), (0, 1, i m13, i m12)

    Below rank 2 the RREF is the first nonzero row x scaled to a leading 1
    at its pivot p: the basis is e_c for c < p, then e_c + (x_c / x_p) e_p
    for c > p.  Two zero rows give the standard basis.
    """
    mul, inverses = gf.mul_rows, gf.inverses
    if r0 != r1:  # equal rows have rank <= 1: no minors needed
        a0, a1, a2, a3 = mul[r0[0]], mul[r0[1]], mul[r0[2]], mul[r0[3]]
        b0, b1, b2, b3 = r1
        m01, m02, m03 = a0[b1] ^ a1[b0], a0[b2] ^ a2[b0], a0[b3] ^ a3[b0]
        m12, m13, m23 = a1[b2] ^ a2[b1], a1[b3] ^ a3[b1], a2[b3] ^ a3[b2]
        if m01:
            i = mul[inverses[m01]]
            return [(i[m12], i[m02], 1, 0), (i[m13], i[m03], 0, 1)]
        if m02:
            i = mul[inverses[m02]]
            return [(i[m12], 1, i[m01], 0), (i[m23], 0, i[m03], 1)]
        if m03:
            i = mul[inverses[m03]]
            return [(i[m13], 1, 0, i[m01]), (i[m23], 0, 1, i[m02])]
        if m12:
            i = mul[inverses[m12]]
            return [(1, i[m02], i[m01], 0), (0, i[m23], i[m13], 1)]
        if m13:
            i = mul[inverses[m13]]
            return [(1, i[m03], 0, i[m01]), (0, i[m23], 1, i[m12])]
        if m23:
            i = mul[inverses[m23]]
            return [(1, 0, i[m03], i[m02]), (0, 1, i[m13], i[m12])]
    x0, x1, x2, x3 = r0 if any(r0) else r1
    if x0:
        i = mul[inverses[x0]]
        return [(i[x1], 1, 0, 0), (i[x2], 0, 1, 0), (i[x3], 0, 0, 1)]
    if x1:
        i = mul[inverses[x1]]
        return [E4[0], (0, i[x2], 1, 0), (0, i[x3], 0, 1)]
    if x2:
        return [E4[0], E4[1], (0, 0, mul[inverses[x2]][x3], 1)]
    if x3:
        return [E4[0], E4[1], E4[2]]
    return list(E4)


def det(gf: GF, m) -> int:
    """Determinant by Gaussian elimination (row swaps are sign-free in char 2)."""
    a = [list(r) for r in m]
    n = len(a)
    d = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return 0
        a[c], a[pr] = a[pr], a[c]
        d = gf.mul(d, a[c][c])
        inv = gf.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c]:
                coef = gf.mul(a[i][c], inv)
                a[i] = [x ^ gf.mul(coef, y) for x, y in zip(a[i], a[c])]
    return d


def mat_inv(gf: GF, m):
    """Inverse by Gauss-Jordan; raises ValueError on singular input."""
    n = len(m)
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            raise ValueError("matrix is singular")
        a[c], a[pr] = a[pr], a[c]
        inv = gf.inv(a[c][c])
        a[c] = [gf.mul(inv, x) for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                coef = a[i][c]
                a[i] = [x ^ gf.mul(coef, y) for x, y in zip(a[i], a[c])]
    return tuple(tuple(row[n:]) for row in a)


SL4_FACTORS = 20  # transvections per random_sl4 matrix


def random_sl4(gf: GF, rng):
    """Product of SL4_FACTORS random transvections; unimodular by construction.

    Each factor is E_ij(lam), the identity plus lam at (i, j) with i != j;
    right-multiplying by it adds lam times column i to column j, in place."""
    mul = gf.mul_rows
    m = [list(row) for row in E4]
    for _ in range(SL4_FACTORS):
        i = rng.randrange(4)
        j = (i + 1 + rng.randrange(3)) % 4
        by_lam = mul[rng.randrange(gf.order)]
        for row in m:
            row[j] ^= by_lam[row[i]]
    return tuple(tuple(row) for row in m)


def random_gl4(gf: GF, rng):
    """Uniformly random invertible matrix by rejection."""
    while True:
        m = tuple(tuple(rng.randrange(gf.order) for _ in range(4)) for _ in range(4))
        if det(gf, m) != 0:
            return m


# ----------------------------------------------------------------------
# F2 affine systems
# ----------------------------------------------------------------------

def solve_affine_f2(a_matrix, rhs):
    """Solve A x = b over F2.

    Returns (x0, kernel_basis, None) when consistent, where x0 is one
    solution and kernel_basis is a list of uint8 vectors spanning the
    solution space of A x = 0; or (None, None, certificate) when
    inconsistent, where certificate is a uint8 row combination y with
    y A = 0 and y . b = 1.
    """
    a = (np.asarray(a_matrix, dtype=np.uint8) & 1).copy()
    b = (np.asarray(rhs, dtype=np.uint8) & 1).copy()
    m, n = a.shape if a.ndim == 2 else (0, 0)
    if a.ndim != 2:
        raise ValueError("a_matrix must be 2-dimensional")
    if b.shape != (m,):
        raise ValueError("rhs length does not match the number of rows")

    track = np.eye(m, dtype=np.uint8)
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        hit = np.nonzero(a[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
            b[[r, p]] = b[[p, r]]
            track[[r, p]] = track[[p, r]]
        ones = np.nonzero(a[:, c])[0]
        ones = ones[ones != r]
        if ones.size:
            a[ones] ^= a[r]
            b[ones] ^= b[r]
            track[ones] ^= track[r]
        pivots.append(c)
        r += 1

    bad = np.nonzero((a.sum(axis=1) == 0) & (b == 1))[0]
    if bad.size:
        return None, None, track[int(bad[0])]

    x0 = np.zeros(n, dtype=np.uint8)
    for i, c in enumerate(pivots):
        x0[c] = b[i]
    pivot_set = set(pivots)
    basis = []
    for c in range(n):
        if c in pivot_set:
            continue
        v = np.zeros(n, dtype=np.uint8)
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = a[i, c]
        basis.append(v)
    return x0, basis, None
