"""An independent voltage oracle, written from the formulas alone.

It shares no code with ``phcover``: it has its own GF(2^k) multiplication
from the fixed moduli, its own wedge, the duality map as slot reversal,
and its own symmetric product.  The benchmark uses it after the timed
phase to recompute the voltages of cycles drawn with the program's own
samplers, and of darts read from the program's dart tables.

Coordinates follow the package's documented conventions: bivector slots
w1..w6 over the index pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3);
symmetric-tensor slots over the pairs (i, j), i <= j, in lexicographic
order; a packed tensor keeps slot t in bits k*(20-t) .. k*(20-t)+k-1.
"""

import functools
import itertools

MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SLOTS = tuple((i, j) for i in range(6) for j in range(i, 6))
# U = w1w6 + w2w5 + w3w4
U_SLOTS = frozenset(SLOTS.index(p) for p in ((0, 5), (1, 4), (2, 3)))


class Field:
    def __init__(self, q: int):
        self.k = q.bit_length() - 1
        if q != 1 << self.k or self.k not in MODULI:
            raise ValueError(f"no field of order {q}")
        self.q = q
        mod = MODULI[self.k]
        self.mul = [[_clmul_mod(a, b, mod, self.k) for b in range(q)] for a in range(q)]
        self.inv = [0] + [next(b for b in range(1, q) if self.mul[a][b] == 1)
                          for a in range(1, q)]


def _clmul_mod(a: int, b: int, mod: int, k: int) -> int:
    prod = 0
    for bit in range(k):
        if (b >> bit) & 1:
            prod ^= a << bit
    for bit in range(2 * k - 2, k - 1, -1):
        if (prod >> bit) & 1:
            prod ^= mod << (bit - k)
    return prod


def pairing(f: Field, h, v) -> int:
    acc = 0
    for x, y in zip(h, v):
        acc ^= f.mul[x][y]
    return acc


def wedge(f: Field, x, y):
    return tuple(f.mul[x[a]][y[b]] ^ f.mul[x[b]][y[a]] for a, b in PAIRS)


def sym_product(f: Field, a, b):
    return tuple(f.mul[a[i]][b[i]] if i == j else f.mul[a[i]][b[j]] ^ f.mul[a[j]][b[i]]
                 for i, j in SLOTS)


def voltage(f: Field, x, y):
    """h1(v1)^-1 h2(v2)^-1 (v1 ^ v2) * phi(h1 ^ h2) for adjacent vertices."""
    (v1, h1), (v2, h2) = x, y
    s1, s2 = pairing(f, h1, v1), pairing(f, h2, v2)
    if not s1 or not s2 or pairing(f, h1, v2) or pairing(f, h2, v1):
        raise ValueError("not a dart between adjacent vertices")
    scale = f.mul[f.inv[s1]][f.inv[s2]]
    prod = sym_product(f, wedge(f, v1, v2), wedge(f, h1, h2)[::-1])
    return tuple(f.mul[scale][c] for c in prod)


def cycle_voltage(f: Field, cycle):
    acc = (0,) * 21
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        acc = tuple(s ^ t for s, t in zip(acc, voltage(f, a, b)))
    return acc


def is_u(s) -> bool:
    return all(c == (1 if t in U_SLOTS else 0) for t, c in enumerate(s))


def in_squares_plus_u(s) -> bool:
    """Off the diagonal the tensor is zero or agrees with U."""
    off = [(t, c) for t, c in enumerate(s) if SLOTS[t][0] != SLOTS[t][1]]
    return (all(c == 0 for _, c in off)
            or all(c == (1 if t in U_SLOTS else 0) for t, c in off))


def pack(f: Field, s) -> int:
    acc = 0
    for t, c in enumerate(s):
        acc |= c << (f.k * (20 - t))
    return acc


@functools.lru_cache(maxsize=None)
def gf2_cycle_counts() -> dict:
    """Vertex, edge, triangle and 4-cycle counts of the affine graph over
    GF(2), enumerated from the definition.  A 4-cycle is counted once per
    unordered pair of opposite vertices and unordered pair of common
    neighbours, as the exhaustive check enumerates them."""
    f = Field(2)
    vecs = [t for t in itertools.product(range(2), repeat=4) if any(t)]
    verts = [(v, h) for v in vecs for h in vecs if pairing(f, h, v)]
    rows = []
    for a in verts:
        bits = 0
        for j, b in enumerate(verts):
            if a != b and not pairing(f, a[1], b[0]) and not pairing(f, b[1], a[0]):
                bits |= 1 << j
        rows.append(bits)
    n = len(verts)
    edges = triangles = quadrangles = 0
    for i in range(n):
        for j in range(i + 1, n):
            common = bin(rows[i] & rows[j]).count("1")
            quadrangles += common * (common - 1) // 2
            if (rows[i] >> j) & 1:
                edges += 1
                triangles += common
    return {"vertices": n, "edges": edges, "triangles": triangles // 3,
            "quadrangles": quadrangles}
