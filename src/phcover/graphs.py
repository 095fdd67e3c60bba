"""Point-hyperplane graphs, affine and projective, over GF(2^k).

An affine vertex is a pair (v, h) of a vector and a covector with
h(v) != 0; two vertices are adjacent when each functional kills the
other vector.  A projective vertex is the same pair with both sides
normalised (first nonzero coordinate 1).  Identifying affine vertices
with identical neighbour sets yields exactly the projective graph,
which :func:`verify_reduct_is_neighborhood_equality` checks computationally
instead of assuming.

Graphs over GF(2) and GF(4) are small enough for dense cached
adjacency (packed bit rows plus CSR neighbour lists); larger fields
are served by an adjacency oracle and by lazy random samplers, so full
enumeration is refused above a vertex cap rather than attempted.
"""

from __future__ import annotations

import itertools

import numpy as np

from .field import GF
from .linalg import evaluate, kernel

ENUM_CAP = 10 ** 6
_CACHE_LIMIT = 6100


def normalize(gf: GF, coords):
    """Scale so the first nonzero coordinate becomes 1."""
    for c in coords:
        if c:
            if c == 1:
                return tuple(coords)
            inv = gf.inv(c)
            return tuple(gf.mul(inv, x) for x in coords)
    raise ValueError("cannot normalise the zero tuple")


def is_vertex(gf: GF, vert) -> bool:
    v, h = vert
    return evaluate(gf, h, v) != 0


def adjacent(gf: GF, a, b) -> bool:
    """Mutual incidence: each hyperplane contains the other point."""
    return evaluate(gf, a[1], b[0]) == 0 and evaluate(gf, b[1], a[0]) == 0


def reduct_class(gf: GF, vert):
    """Canonical representative of the neighbourhood-equality class of an
    affine vertex: normalise the vector and the covector independently."""
    v, h = vert
    return (normalize(gf, v), normalize(gf, h))


def _nonzero_tuples(gf: GF, dim: int = 4):
    for t in itertools.product(gf.elements(), repeat=dim):
        if any(t):
            yield t


def _normalized_tuples(gf: GF, dim: int = 4):
    for t in _nonzero_tuples(gf, dim):
        for c in t:
            if c:
                if c == 1:
                    yield t
                break


def proj_points(gf: GF, dim: int = 4):
    """All normalised nonzero coordinate tuples, in lexicographic order."""
    return list(_normalized_tuples(gf, dim))


def affine_vertices(gf: GF, cap: int = ENUM_CAP, dim: int = 4):
    """All affine vertices in lexicographic (v, h) order; refuses above cap.

    dim is the vector-space dimension: 4 for the projective-dimension-3
    graph at the heart of the construction, 3 for its local-graph
    comparisons."""
    q = gf.order
    total = (q ** dim - 1) * (q ** dim - q ** (dim - 1))
    if total > cap:
        raise ValueError(
            f"affine vertex set of size {total} exceeds the enumeration cap {cap};"
            " use the lazy samplers or raise the cap"
        )
    verts = []
    for v in _nonzero_tuples(gf, dim):
        for h in _nonzero_tuples(gf, dim):
            if evaluate(gf, h, v) != 0:
                verts.append((v, h))
    return verts


def count_projective_vertices(gf: GF, dim: int = 4) -> int:
    """Number of non-incident (point, hyperplane) pairs, without enumerating them."""
    pts = proj_points(gf, dim)
    pmat = np.array(pts, dtype=np.uint8)
    zero = _zero_pairing(gf, pmat, pmat)
    return int((~zero).sum())


def projective_vertices(gf: GF, cap: int = ENUM_CAP, dim: int = 4):
    """All projective vertices in lexicographic order; refuses above cap."""
    pts = proj_points(gf, dim)
    total = count_projective_vertices(gf, dim)
    if total > cap:
        raise ValueError(
            f"projective vertex set of size {total} exceeds the enumeration cap {cap}"
        )
    verts = []
    for p in pts:
        for h in pts:
            if evaluate(gf, h, p) != 0:
                verts.append((p, h))
    return verts


def _zero_pairing(gf: GF, frows: np.ndarray, vrows: np.ndarray) -> np.ndarray:
    """Boolean matrix of evaluate(f_i, v_j) == 0 for row stacks of coordinates."""
    t = gf.mul_table
    acc = t[frows[:, 0][:, None], vrows[:, 0][None, :]].copy()
    for c in range(1, frows.shape[1]):
        acc ^= t[frows[:, c][:, None], vrows[:, c][None, :]]
    return acc == 0


def _zero_patterns(gf: GF, vmat: np.ndarray, hmat: np.ndarray):
    """Packed adjacency rows of a vertex stack, factored through its distinct
    vectors and covectors.

    Returns (kills, h_id, killed, v_id): kills[x] has bit j set when the x-th
    distinct covector vanishes on v_j, killed[y] has bit j set when h_j
    vanishes on the y-th distinct vector, and by the definition of adjacency
    the neighbour row of vertex i is kills[h_id[i]] & killed[v_id[i]].  The
    pairing is evaluated once per distinct value (85 of each over GF(4)),
    not once per vertex."""
    hvals, h_id = np.unique(hmat, axis=0, return_inverse=True)
    vvals, v_id = np.unique(vmat, axis=0, return_inverse=True)
    kills = np.packbits(_zero_pairing(gf, hvals, vmat), axis=1)
    killed = np.packbits(_zero_pairing(gf, vvals, hmat), axis=1)
    return kills, h_id.reshape(-1), killed, v_id.reshape(-1)


class Graph:
    """A point-hyperplane graph with optional dense adjacency cache.

    Vertices are (vector, covector) pairs.  For at most a few thousand
    vertices the full boolean adjacency is computed vectorised and kept
    as packed bit rows plus CSR neighbour lists; above that the
    adjacency oracle evaluates the incidence predicate on demand.
    """

    def __init__(self, gf: GF, vertices, kind: str, cache: bool | None = None):
        self.gf = gf
        self.kind = kind
        self.vertices = list(vertices)
        self.n = len(self.vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        dim = len(self.vertices[0][0]) if self.vertices else 4
        self.vmat = np.array([v for v, _ in self.vertices], dtype=np.uint8).reshape(self.n, dim)
        self.hmat = np.array([h for _, h in self.vertices], dtype=np.uint8).reshape(self.n, dim)
        self._rows = None
        self._indptr = None
        self._indices = None
        if cache is None:
            cache = self.n <= _CACHE_LIMIT
        if cache:
            self._build_cache()

    def _build_cache(self):
        kills, h_id, killed, v_id = _zero_patterns(self.gf, self.vmat, self.hmat)
        rows = kills[h_id] & killed[v_id]
        diag = np.arange(self.n)
        # redundant for valid vertices, cheap guard
        rows[diag, diag >> 3] &= ~(np.uint8(0x80) >> (diag & 7).astype(np.uint8))
        self._rows = rows
        adj = np.unpackbits(rows, axis=1, count=self.n).view(bool)
        self._indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(adj, axis=1), out=self._indptr[1:])
        self._indices = (np.flatnonzero(adj) % self.n).astype(np.int32)

    @property
    def cached(self) -> bool:
        return self._rows is not None

    def adjacent(self, i: int, j: int) -> bool:
        if self._rows is not None:
            return bool((self._rows[i, j >> 3] >> (7 - (j & 7))) & 1)
        return adjacent(self.gf, self.vertices[i], self.vertices[j])

    def neighbors(self, i: int) -> np.ndarray:
        if self._indices is not None:
            return self._indices[self._indptr[i]:self._indptr[i + 1]]
        a = self.vertices[i]
        return np.array(
            [j for j, b in enumerate(self.vertices) if j != i and adjacent(self.gf, a, b)],
            dtype=np.int32,
        )

    def degree(self, i: int) -> int:
        if self._indptr is not None:
            return int(self._indptr[i + 1] - self._indptr[i])
        return len(self.neighbors(i))

    def edge_count(self) -> int:
        if self._indptr is not None:
            return int(self._indptr[-1]) // 2
        return sum(self.degree(i) for i in range(self.n)) // 2

    def packed_rows(self) -> np.ndarray:
        if self._rows is None:
            raise ValueError("adjacency cache not built for this graph")
        return self._rows


_graph_cache: dict = {}


def build_affine_graph(gf: GF, cap: int = ENUM_CAP, dim: int = 4) -> Graph:
    key = ("affine", gf.order, dim)
    if key not in _graph_cache:
        _graph_cache[key] = Graph(gf, affine_vertices(gf, cap, dim), "affine")
    return _graph_cache[key]


def build_projective_graph(gf: GF, cap: int = ENUM_CAP, dim: int = 4) -> Graph:
    key = ("projective", gf.order, dim)
    if key not in _graph_cache:
        _graph_cache[key] = Graph(gf, projective_vertices(gf, cap, dim), "projective")
    return _graph_cache[key]


def subgraph(graph: Graph, vertex_ids) -> Graph:
    """Induced subgraph on the given vertex indices (kept in the given order)."""
    return Graph(graph.gf, [graph.vertices[i] for i in vertex_ids], graph.kind, cache=True)


def local_graph(graph: Graph, i: int) -> Graph:
    """Induced graph on the neighbourhood of vertex i."""
    return subgraph(graph, graph.neighbors(i).tolist())


def frontier_darts(indptr: np.ndarray, frontier: np.ndarray):
    """The darts leaving a frontier of CSR rows, row after row in frontier
    order: pairs (slot, pos) where frontier[slot] is the row and pos the
    dart's position in the CSR arrays."""
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    slot = np.repeat(np.arange(frontier.size), lens)
    pos = np.arange(slot.size) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return slot, pos


def csr_distances(indptr: np.ndarray, indices: np.ndarray, start: int) -> np.ndarray:
    """BFS distances over a CSR adjacency, one level at a time; unreachable
    vertices get -1."""
    dist = np.full(indptr.size - 1, -1, dtype=np.int32)
    dist[start] = 0
    frontier = np.array([start])
    d = 0
    while frontier.size:
        d += 1
        nxt = indices[frontier_darts(indptr, frontier)[1]]
        frontier = np.unique(nxt[dist[nxt] < 0])
        dist[frontier] = d
    return dist


def bfs(graph: Graph, start: int) -> np.ndarray:
    """Distances from start; unreachable vertices get -1."""
    if not graph.cached:
        raise ValueError("bfs needs a graph with cached adjacency")
    return csr_distances(graph._indptr, graph._indices, start)


def is_connected(graph: Graph) -> bool:
    return graph.n == 0 or int((bfs(graph, 0) >= 0).sum()) == graph.n


def diameter(graph: Graph) -> int:
    """Exact diameter, exhaustive over all sources.

    Uses the packed adjacency rows to test the distance <= 2 property in
    bulk; falls back to per-source BFS only when that test fails.
    """
    rows = graph.packed_rows()
    n = graph.n
    # OR whole uint64 words: the rows and, last, the all-ones row, copied
    # with zero padding to a multiple of 8 bytes
    nbytes = rows.shape[1]
    words = np.zeros((n + 1, -(-nbytes // 8) * 8), dtype=np.uint8)
    words[:n, :nbytes] = rows
    words[n, :nbytes] = np.packbits(np.ones(n, dtype=bool))
    words = words.view(np.uint64)
    full = words[n]
    some_dist2 = False
    for u in range(n):
        nbrs = graph.neighbors(u)
        if nbrs.size == 0:
            return max(int(bfs(graph, s).max()) for s in range(n))
        own = words[u].copy()
        own.view(np.uint8)[u >> 3] |= 0x80 >> (u & 7)
        if not np.array_equal(np.bitwise_or.reduce(words[nbrs], axis=0) | own, full):
            return max(int(bfs(graph, u).max()) for u in range(n))
        if not np.array_equal(own, full):
            some_dist2 = True
    if some_dist2:
        return 2
    return 1 if n > 1 else 0


# ----------------------------------------------------------------------
# reduct verification
# ----------------------------------------------------------------------

def verify_reduct_is_neighborhood_equality(gf: GF, cap: int = ENUM_CAP) -> dict:
    """Exhaustively check that two affine vertices have identical neighbour
    sets exactly when their normalised pairs coincide, that the classes are
    cocliques, and that the class graph is the projective graph.

    The neighbour bitsets are computed for every affine vertex, one class at
    a time, from the per-value zero patterns of :func:`_zero_patterns`.
    """
    verts = affine_vertices(gf, cap)
    n = len(verts)
    vmat = np.array([v for v, _ in verts], dtype=np.uint8)
    hmat = np.array([h for _, h in verts], dtype=np.uint8)
    kills, h_id, killed, v_id = _zero_patterns(gf, vmat, hmat)

    classes: dict = {}
    for j, (v, h) in enumerate(verts):
        classes.setdefault(reduct_class(gf, (v, h)), []).append(j)

    fiber_sizes = {len(members) for members in classes.values()}
    seen_rows: dict = {}
    mismatched = 0
    coclique_violations = 0
    for rep, members in classes.items():
        rows = kills[h_id[members]] & killed[v_id[members]]
        mismatched += int((rows[1:] != rows[0]).any(axis=1).sum())
        key = rows[0].tobytes()
        if key in seen_rows:
            mismatched += 1
        seen_rows[key] = rep
        for a in members:
            for b in members:
                if a < b and adjacent(gf, verts[a], verts[b]):
                    coclique_violations += 1

    class_list = sorted(classes)
    proj = projective_vertices(gf, cap)
    report = {
        "check": "reduct-neighborhood-equality",
        "field": gf.order,
        "affine_vertices": n,
        "classes": len(classes),
        "fiber_sizes": sorted(fiber_sizes),
        "expected_fiber": (gf.order - 1) ** 2,
        "violations": mismatched + coclique_violations,
        "class_set_matches_projective": class_list == proj,
        "passed": (
            mismatched == 0
            and coclique_violations == 0
            and fiber_sizes == {(gf.order - 1) ** 2}
            and class_list == proj
        ),
    }
    return report


# ----------------------------------------------------------------------
# lazy samplers (any field, no enumeration)
# ----------------------------------------------------------------------

def random_nonzero_vector(gf: GF, rng):
    q, draw = gf.order, rng.randrange
    while True:
        v = (draw(q), draw(q), draw(q), draw(q))
        if any(v):
            return v


def random_affine_vertex(gf: GF, rng):
    v = random_nonzero_vector(gf, rng)
    q, draw, mul = gf.order, rng.randrange, gf.mul_rows
    # h(v) = sum_i v_i h_i, read off the multiplication-by-v_i rows
    by0, by1, by2, by3 = mul[v[0]], mul[v[1]], mul[v[2]], mul[v[3]]
    while True:
        h = (draw(q), draw(q), draw(q), draw(q))
        if by0[h[0]] ^ by1[h[1]] ^ by2[h[2]] ^ by3[h[3]]:
            return (v, h)


def _random_in_span(gf: GF, basis, rng):
    q, draw, mul = gf.order, rng.randrange, gf.mul_rows
    while True:
        coeffs = [draw(q) for _ in basis]
        if any(coeffs):
            out = [0, 0, 0, 0]
            for c, b in zip(coeffs, basis):
                if c:
                    by_c = mul[c]
                    out = [o ^ by_c[x] for o, x in zip(out, b)]
            return tuple(out)


def sample_common_neighbor(gf: GF, a, b, rng, tries: int = 64):
    """A uniformish random vertex adjacent to both a and b, or None when the
    rejection budget runs out (possible when the kernels pair to zero)."""
    tbasis = kernel(gf, [a[1], b[1]])
    gbasis = kernel(gf, [a[0], b[0]])
    for _ in range(tries):
        w = _random_in_span(gf, tbasis, rng)
        g = _random_in_span(gf, gbasis, rng)
        if evaluate(gf, g, w) != 0:
            return (w, g)
    return None


def random_neighbor(gf: GF, a, rng, tries: int = 64):
    return sample_common_neighbor(gf, a, a, rng, tries)


def sample_triangle(gf: GF, rng):
    while True:
        a = random_affine_vertex(gf, rng)
        b = random_neighbor(gf, a, rng)
        if b is None or b == a:
            continue
        c = sample_common_neighbor(gf, a, b, rng)
        if c is not None and c != a and c != b:
            return (a, b, c)


def sample_quadrangle(gf: GF, rng):
    """Four distinct vertices forming a 4-cycle (chords allowed)."""
    while True:
        a = random_affine_vertex(gf, rng)
        b = random_affine_vertex(gf, rng)
        if a == b:
            continue
        c1 = sample_common_neighbor(gf, a, b, rng)
        c2 = sample_common_neighbor(gf, a, b, rng)
        if c1 is None or c2 is None or c1 == c2:
            continue
        if a in (c1, c2) or b in (c1, c2):
            continue
        return (a, c1, b, c2)


def sample_pentagon(gf: GF, rng):
    """Five distinct vertices forming a 5-cycle (chords allowed)."""
    while True:
        v0 = random_affine_vertex(gf, rng)
        v1 = random_neighbor(gf, v0, rng)
        if v1 in (None, v0):
            continue
        v2 = random_neighbor(gf, v1, rng)
        if v2 in (None, v0, v1):
            continue
        v3 = random_neighbor(gf, v2, rng)
        if v3 in (None, v0, v1, v2):
            continue
        v4 = sample_common_neighbor(gf, v3, v0, rng)
        if v4 in (None, v0, v1, v2, v3):
            continue
        return (v0, v1, v2, v3, v4)


def sample_closed_walk(gf: GF, length: int, rng):
    """A closed walk with the given number of edges and no two equal
    consecutive vertices; repeated non-consecutive vertices are allowed."""
    if length < 3:
        raise ValueError("closed walks need at least 3 edges")
    while True:
        walk = [random_affine_vertex(gf, rng)]
        ok = True
        for _ in range(length - 2):
            nxt = random_neighbor(gf, walk[-1], rng)
            if nxt is None:
                ok = False
                break
            walk.append(nxt)
        if not ok:
            continue
        last = sample_common_neighbor(gf, walk[-1], walk[0], rng)
        if last is None or last == walk[-1] or last == walk[0]:
            continue
        walk.append(last)
        return tuple(walk)
