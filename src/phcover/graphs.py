"""Point-hyperplane graphs, affine and projective, over GF(2^k).

An affine vertex is a pair (v, h) of a vector and a covector with
h(v) != 0; two vertices are adjacent when each functional kills the
other vector.  A projective vertex is the same pair with both sides
normalised (first nonzero coordinate 1).  Identifying affine vertices
with identical neighbour sets yields exactly the projective graph,
which :func:`verify_reduct_is_neighborhood_equality` checks computationally
instead of assuming.

Every array reader of incidence (adjacency, common neighbours, the
distance-two test, the reduct check, bulk dart voltages, vertex images)
reads it from :func:`factor_vertices`, which pairs distinct vectors and
covectors once, and every reader of vertex identity from
:func:`vertex_keys`.

The enumerators return a vertex stack as two uint8 arrays (vmat, hmat),
and a :class:`Graph` keeps them, builds its tuples only when they are
read, and keeps the point-plane table of vertex ids, from which it
gathers its CSR neighbour lists of int16 vertex ids
(:func:`_incidence_csr`) and the common neighbours of vertex pairs
(:func:`common_neighbor_blocks`).  It is refused above ``ADJ_CAP``
vertices, which keeps every id below 2^15; the largest graph the package
builds is the GF(4) projective graph.  A product of vertex ids, such as
a dart key i * n + j, is taken in int64.  The only
affine graph under that cap is the GF(2) one, where normalising changes
nothing, so :func:`build_affine_graph` returns the projective graph
object itself.  Larger fields are served by the adjacency oracle
:func:`adjacent` and by lazy random samplers, never enumerated.  The
scalar samplers draw one vertex at a time from a ``random.Random``;
:func:`sample_closed_walks` draws a batch of closed walks as arrays from
a numpy Generator, every walk one vertex per pass.

Every pass over all the darts of a graph or of a lift, here and in
:mod:`phcover.voltage` and :mod:`phcover.construction`, runs in blocks
of about ``BULK_BLOCK`` darts (:func:`blocks`, :func:`frontier_blocks`),
so that its temporaries do not grow with the dart count; only its output
does.  The CSR build and the common neighbours gather a block of rows
at a time, and :func:`diameter` tests distance two on classes of plane
sets, not on vertex rows.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._lazy import np
from .field import GF
from .linalg import dot, evaluate, kernel, pairing
from .multilinear import BIV_PAIRS, wedges

ENUM_CAP = 10 ** 6
ADJ_CAP = 6100  # vertex cap of Graph, above the 5440 of the GF(4) projective graph
# Graph stores its vertex ids as int16, so no id may reach 2^15
if ADJ_CAP >= 2 ** 15:
    raise ValueError(f"ADJ_CAP = {ADJ_CAP} does not fit the int16 vertex ids of Graph")
NEIGHBOR_TRIES = 64  # rejection budget of sample_common_neighbor
WALK_DRAWS = 2  # candidates per pending walk and pass of sample_closed_walks
# darts (or array elements) per block of every bulk pass, which bounds
# the temporaries of each pass
BULK_BLOCK = 1 << 16


def blocks(size: int, per_item: int = 1):
    """The bounds (lo, hi) of consecutive blocks of range(size), each of
    BULK_BLOCK // per_item items, and of at least one."""
    step = max(1, BULK_BLOCK // max(1, per_item))
    return ((lo, min(lo + step, size)) for lo in range(0, size, step))


def adjacent(gf: GF, a, b) -> bool:
    """Mutual incidence: each hyperplane contains the other point."""
    return evaluate(gf, a[1], b[0]) == 0 and evaluate(gf, b[1], a[0]) == 0


def _nonzero_rows(gf: GF) -> np.ndarray:
    """All nonzero coordinate rows of length 4, in lexicographic order, as
    a uint8 array."""
    return np.array(list(itertools.product(gf.elements(), repeat=4))[1:], dtype=np.uint8)


def proj_points(gf: GF) -> np.ndarray:
    """All normalised nonzero coordinate rows, in lexicographic order, as
    a uint8 array."""
    rows = _nonzero_rows(gf)
    return rows[(normalized(gf, rows) == rows).all(axis=1)]


def nonincident_pairs(gf: GF, points):
    """The pairs (p, h) of two of the point rows, the second read as a
    covector, with h(p) != 0, in lexicographic order of the points, as
    the uint8 arrays (vmat, hmat)."""
    points = np.asarray(points, dtype=np.uint8)
    ps, hs = np.nonzero(pairing(gf, points, points).T)
    return points[ps], points[hs]


def affine_vertices(gf: GF):
    """All affine vertices in lexicographic (v, h) order, as (vmat, hmat);
    refuses above ENUM_CAP."""
    total = count_projective_vertices(gf) * (gf.order - 1) ** 2
    if total > ENUM_CAP:
        raise ValueError(
            f"affine vertex set of size {total} exceeds the enumeration cap {ENUM_CAP};"
            " use the lazy samplers"
        )
    return nonincident_pairs(gf, _nonzero_rows(gf))


def count_projective_vertices(gf: GF) -> int:
    """Number of non-incident (point, hyperplane) pairs: each of the
    (q^4 - 1)/(q - 1) points lies off q^3 of the hyperplanes."""
    q = gf.order
    return (q ** 4 - 1) // (q - 1) * q ** 3


def projective_vertices(gf: GF):
    """All projective vertices in lexicographic order, as (vmat, hmat);
    refuses above ENUM_CAP."""
    total = count_projective_vertices(gf)
    if total > ENUM_CAP:
        raise ValueError(
            f"projective vertex set of size {total} exceeds the enumeration cap {ENUM_CAP}"
        )
    return nonincident_pairs(gf, proj_points(gf))


def row_codes(gf: GF, rows: np.ndarray) -> np.ndarray:
    """The coordinate rows (last axis) read as base-q numbers, first
    coordinate first, as int64: the codes sort as the rows do."""
    return rows.astype(np.int64) @ gf.order ** np.arange(rows.shape[-1] - 1, -1, -1)


def normalized(gf: GF, rows) -> np.ndarray:
    """The coordinate rows (last axis) scaled so that their first nonzero
    coordinate is 1, as uint8; raises ValueError on a zero row."""
    rows = np.asarray(rows, dtype=np.uint8)
    lead = np.take_along_axis(rows, (rows != 0).argmax(axis=-1)[..., None], axis=-1)
    if not lead.all():
        raise ValueError("cannot normalise a zero row")
    return gf.mul_table[gf.inv_table[lead], rows]


def vertex_keys(gf: GF, vmat, hmat) -> np.ndarray:
    """One int64 key per row pair (vmat[i], hmat[i]), the codes of its
    normalised vector and covector: equal keys are one reduct class, and
    the keys of projective vertices sort as the vertices do."""
    vmat = np.asarray(vmat)
    return (row_codes(gf, normalized(gf, vmat)) * gf.order ** vmat.shape[-1]
            + row_codes(gf, normalized(gf, hmat)))


def find_sorted(keys: np.ndarray, values) -> np.ndarray:
    """The position of each of the values among the sorted keys, or -1
    where a value is not a key.  The values are searched in sorted order,
    which keeps each search near the last, and the positions scattered
    back to the order given."""
    values = np.asarray(values)
    if not keys.size:
        return np.full(values.shape, -1, dtype=np.intp)
    flat = values.ravel()
    order = np.argsort(flat)
    needles = flat[order]
    at = np.minimum(np.searchsorted(keys, needles), keys.size - 1)
    found = np.empty(flat.size, dtype=np.intp)
    found[order] = np.where(keys[at] == needles, at, -1)
    return found.reshape(values.shape)


def vertex_ids(graph: "Graph", vmat, hmat) -> np.ndarray:
    """The index in graph of the projective vertex of each row pair
    (vmat[i], hmat[i]), or -1 where that vertex is not in the graph."""
    keys = vertex_keys(graph.gf, graph.vmat, graph.hmat)
    order = np.argsort(keys)
    at = find_sorted(keys[order], vertex_keys(graph.gf, vmat, hmat))
    # at = -1 reads the appended -1, also when the graph has no vertex
    return np.append(order, -1)[at]


def factor_vertices(gf: GF, vmat: np.ndarray, hmat: np.ndarray):
    """A vertex stack factored through its distinct vectors and covectors:
    (points, p_id, planes, h_id, pairing) with the sorted distinct rows of
    vmat and hmat, points[p_id] == vmat, planes[h_id] == hmat and the uint8
    pairing[h, p] = planes[h](points[p]).  Rows are told apart by their
    codes, as np.unique(axis=0) takes 50 times as long."""
    factors = []
    for rows in (np.asarray(vmat, dtype=np.uint8), np.asarray(hmat, dtype=np.uint8)):
        _, first, ids = np.unique(row_codes(gf, rows), return_index=True, return_inverse=True)
        factors += [rows[first], ids]
    points, p_id, planes, h_id = factors
    return points, p_id, planes, h_id, pairing(gf, planes, points)


def _incident(zero: np.ndarray) -> np.ndarray:
    """The column ids of the True entries of each row of a boolean matrix,
    ascending, as one intp row per row, padded with the column count."""
    order = np.argsort(~zero, axis=1, kind="stable")[:, :zero.sum(axis=1).max(initial=0)]
    return np.where(np.take_along_axis(zero, order, axis=1), order, zero.shape[1])


def _vertex_table(p_id: np.ndarray, h_id: np.ndarray, n_points: int, n_planes: int):
    """The int16 table at[p, h] of the id of the vertex with point p and
    plane h, -1 where that pair is no vertex, with one more row and column
    of -1.  A repeated pair, which the table cannot hold, raises
    ValueError."""
    at = np.full((n_points + 1, n_planes + 1), -1, dtype=np.int16)
    ids = np.arange(p_id.size, dtype=np.int16)
    at[p_id, h_id] = ids
    if not np.array_equal(at[p_id, h_id], ids):
        raise ValueError("a repeated (vector, covector) pair is not a vertex of a graph")
    return at


def _table_rows(at: np.ndarray, points: np.ndarray, planes: np.ndarray, ascending: bool):
    """The entries of the table at on each row of point ids times the same
    row of plane ids, row-major, one row per row pair, read by one take on
    the flat table; each row is sorted unless ascending is set."""
    rows = at.ravel().take(points[:, :, None] * at.shape[1] + planes[:, None, :])
    rows = rows.reshape(len(points), -1)
    if not ascending:
        rows.sort(axis=1)
    return rows


def _incidence_csr(graph: "Graph"):
    """The CSR neighbour lists (int64 indptr, int16 indices) of a graph.

    The neighbours of vertex i are the vertices (p, h) with p on plane
    h_id[i] and h through point p_id[i]: row i is the block of the vertex
    table on the points on h_id[i] and the planes through p_id[i], with the
    -1 entries dropped, gathered a block of rows at a time."""
    at, p_id, h_id = graph.at, graph.p_id, graph.h_id
    # degrees from the 0/1 product zero @ (at >= 0) @ zero, exact in float32
    # at these sizes
    z = graph.zero.astype(np.float32)
    degrees = (z @ (at[:-1, :-1] >= 0) @ z)[h_id, p_id].astype(np.int64)
    indptr = np.zeros(p_id.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int16)
    for lo, hi in blocks(p_id.size, graph.on.shape[1] * graph.through.shape[1]):
        rows = _table_rows(at, graph.on[h_id[lo:hi]], graph.through[p_id[lo:hi]], graph.ascending)
        indices[indptr[lo]:indptr[hi]] = rows[rows >= 0]
    return indptr, indices


def _refuse_above_adj_cap(n: int) -> None:
    if n > ADJ_CAP:
        raise ValueError(f"a graph of {n} vertices exceeds the adjacency cap"
                         f" {ADJ_CAP}; use the adjacency oracle and the lazy samplers")


class Graph:
    """A point-hyperplane graph with its adjacency.

    Vertices are the row pairs (vmat[i], hmat[i]) of two uint8 arrays,
    factored into points[p_id] and planes[h_id] with zero[h, p] when
    planes[h] kills points[p].  The graph keeps its point-plane vertex
    table, the int16 at[p, h] of _vertex_table with its -1 padding row and
    column, and the padded lists on (the points on each plane) and through
    (the planes through each point) of _incident, whose padding reads that
    row and column.  ascending is set when the stack is in (p_id, h_id)
    order, as every projective graph is; rows gathered from the table then
    come out sorted.  The adjacency is kept as CSR neighbour lists, int64
    row pointers and int16 neighbours gathered from the table.  A pair with
    h(v) = 0, a repeated pair and more than ADJ_CAP vertices raise
    ValueError.  The vertices as tuples are built on first read.
    """

    def __init__(self, gf: GF, vmat, hmat):
        self.gf = gf
        self.vmat = np.asarray(vmat, dtype=np.uint8)
        self.hmat = np.asarray(hmat, dtype=np.uint8)
        self.n = len(self.vmat)
        _refuse_above_adj_cap(self.n)
        self.points, self.p_id, self.planes, self.h_id, values = \
            factor_vertices(gf, self.vmat, self.hmat)
        if not values[self.h_id, self.p_id].all():
            raise ValueError("a row pair with h(v) = 0 is not a vertex")
        self.zero = values == 0
        self.at = _vertex_table(self.p_id, self.h_id, len(self.points), len(self.planes))
        self.on, self.through = _incident(self.zero), _incident(self.zero.T)
        codes = self.p_id.astype(np.int64) * len(self.planes) + self.h_id
        self.ascending = bool((codes[1:] > codes[:-1]).all())
        self._indptr, self._indices = _incidence_csr(self)

    @cached_property
    def vertices(self) -> list:
        """The vertices as (vector, covector) tuples of ints."""
        return list(zip(map(tuple, self.vmat.tolist()), map(tuple, self.hmat.tolist())))

    def neighbors(self, i: int) -> np.ndarray:
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self._indptr[i + 1] - self._indptr[i])

    def edge_count(self) -> int:
        return int(self._indptr[-1]) // 2

    def dart_sources(self) -> np.ndarray:
        """The source vertex of every dart, in CSR order, as int16."""
        return np.repeat(np.arange(self.n, dtype=np.int16), np.diff(self._indptr))


_graph_cache: dict = {}


def build_affine_graph(gf: GF) -> Graph:
    """The affine graph, refused above ADJ_CAP vertices before any is
    enumerated; each projective vertex has (q-1)^2 affine rescalings, so
    only GF(2) passes, where the affine graph is the projective one."""
    _refuse_above_adj_cap(count_projective_vertices(gf) * (gf.order - 1) ** 2)
    return build_projective_graph(gf)


def build_projective_graph(gf: GF) -> Graph:
    """The projective graph, built once per field, and refused above ADJ_CAP
    vertices before any is enumerated."""
    if gf.order not in _graph_cache:
        _refuse_above_adj_cap(count_projective_vertices(gf))
        _graph_cache[gf.order] = Graph(gf, *projective_vertices(gf))
    return _graph_cache[gf.order]


def frontier_darts(indptr: np.ndarray, frontier: np.ndarray):
    """The darts leaving a frontier of CSR rows, row after row in frontier
    order: pairs (slot, pos) where frontier[slot] is the row and pos the
    dart's position in the CSR arrays."""
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    slot = np.repeat(np.arange(frontier.size), lens)
    pos = np.arange(slot.size) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return slot, pos


def frontier_blocks(indptr: np.ndarray, frontier: np.ndarray):
    """frontier_darts in blocks of whole rows of at most BULK_BLOCK darts
    (or of one row, when a row is longer): the (slot, pos) pairs of each
    block in turn, slot indexing the whole frontier."""
    ends = np.cumsum(indptr[frontier + 1] - indptr[frontier])
    lo = 0
    while lo < frontier.size:
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + BULK_BLOCK, side="right")))
        slot, pos = frontier_darts(indptr, frontier[lo:hi])
        yield slot + lo, pos
        lo = hi


def edge_blocks(graph: Graph):
    """The edges i < j of a graph in row-major order, a block of whole CSR
    rows at a time, as frontier_blocks would cut them: arrays (i, j, pos)
    per block, pos the CSR position of i-j.  A block of rows is one
    contiguous range of darts, so its sources are a repeat of its rows."""
    indptr, indices = graph._indptr, graph._indices
    lo = 0
    while lo < graph.n:
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + BULK_BLOCK, side="right")) - 1)
        src = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
        dst = indices[indptr[lo]:indptr[hi]]
        keep = src < dst
        yield src[keep], dst[keep], np.arange(indptr[lo], indptr[hi])[keep]
        lo = hi


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an array, by one sort; np.unique
    (NumPy 2) is several times slower on these int arrays."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def csr_bfs(indptr: np.ndarray, indices: np.ndarray, start: int):
    """Breadth-first search over a CSR adjacency from start.

    Returns (dist, parent, dart): the int32 distances, -1 where
    unreachable, and each reached vertex's parent and the CSR position of
    the dart from it (int64, -1 at start and where unreachable).  The
    search runs one level at a time, and each level in frontier blocks, in
    frontier order: a vertex not seen before takes its parent from its
    first occurrence in the gathered rows, and it is marked seen before the
    next block.  That is the tree a first-in-first-out queue scan builds.
    The search stops after the level that reaches the last vertex, as the
    next level could find none."""
    n = indptr.size - 1
    dist = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    dart = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = np.array([start])
    unreached = n - 1
    d = 0
    while frontier.size and unreached:
        d += 1
        found = []
        for slot, pos in frontier_blocks(indptr, frontier):
            dst = indices[pos]
            fresh = dist[dst] < 0
            slot, pos, dst = slot[fresh], pos[fresh], dst[fresh]
            first = np.sort(np.unique(dst, return_index=True)[1])
            new = dst[first]
            dist[new] = d
            parent[new] = frontier[slot[first]]
            dart[new] = pos[first]
            found.append(new)
        frontier = np.concatenate(found)
        unreached -= frontier.size
    return dist, parent, dart


def bfs(graph: Graph, start: int) -> np.ndarray:
    """Distances from start; unreachable vertices get -1."""
    return csr_bfs(graph._indptr, graph._indices, start)[0]


def is_connected(graph: Graph) -> bool:
    return graph.n == 0 or int((bfs(graph, 0) >= 0).sum()) == graph.n


def _bit_rows(bits: np.ndarray) -> np.ndarray:
    """The rows (last axis) of a boolean array packed into uint64 words."""
    packed = np.packbits(bits, axis=-1)
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view(np.uint64)


def _meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each packed row of a shares a bit with each of b, one word
    at a time."""
    return np.logical_or.reduce([np.bitwise_and.outer(a[:, k], b[:, k]) != 0
                                 for k in range(a.shape[1])])


def _classes(rows: np.ndarray):
    """The distinct rows of a 2-D array and the class of each row."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, cls = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], cls


def _plane_set_classes(graph: Graph):
    """The plane sets that decide common neighbours, grouped into classes
    of equal rows: (r_rows, r_class, k_rows, k_class).  R(h, h') is the set
    of planes k of the vertices (x, k) whose point x lies on both h and h',
    and K(p, p') the set of planes through both p and p'; r_rows and k_rows
    hold the distinct sets as rows of plane bits packed in uint64 words,
    and r_class[h, h'] and k_class[p, p'] index them (442 classes each
    over GF(4))."""
    zero, on = graph.zero, graph.on
    n_planes, n_points = zero.shape
    # the R rows, a block of planes h at a time, from the points on h; the
    # padding of on reads a zero row of both factors
    on_plane = np.pad(zero, ((0, 0), (0, 1))).T.astype(np.float32)
    vertex = (graph.at[:, :-1] >= 0).astype(np.float32)
    meets = np.concatenate([
        _bit_rows(np.matmul(on_plane[on[lo:hi]].transpose(0, 2, 1), vertex[on[lo:hi]]) > 0)
        for lo, hi in blocks(n_planes, n_planes * n_planes)])
    through = _bit_rows(zero.T)
    joins = through[:, None, :] & through[None, :, :]
    r_rows, r_class = _classes(meets.reshape(n_planes * n_planes, -1))
    k_rows, k_class = _classes(joins.reshape(n_points * n_points, -1))
    return r_rows, r_class.reshape(n_planes, n_planes), k_rows, k_class.reshape(n_points, n_points)


def _within_two(graph: Graph) -> bool:
    """Whether every two vertices of a graph are adjacent or have a common
    neighbour.

    Vertices u = (p, h) and w = (p', h') have a common neighbour exactly
    when R(h, h') and K(p, p') of _plane_set_classes meet.  One product of
    bit rows marks the class pairs whose sets do not meet, and a second,
    with the K classes of the pairs of each point p, the (R class, p) that
    leave some point p' without a common neighbour; a vertex u = (p, h) is
    marked when some plane h' gives such an R class.  Only the marked
    vertices are expanded, and each pair found must be a non-vertex, u
    itself, or adjacent to u.  Over the full GF(2) and GF(4) graphs no
    vertex is marked."""
    zero, at, h_id, p_id = graph.zero, graph.at, graph.h_id, graph.p_id
    n_planes, n_points = zero.shape
    r_rows, r_class, k_rows, k_class = _plane_set_classes(graph)
    far = ~_meet(r_rows, k_rows)
    classes_of = np.zeros((n_points, len(k_rows)), dtype=bool)
    classes_of[np.arange(n_points)[:, None], k_class] = True
    # lonely[c, p]: some p' leaves R class c and the K class of (p, p') apart
    lonely = _meet(_bit_rows(far), _bit_rows(classes_of))
    marked = np.flatnonzero(lonely.take(r_class, axis=0).any(axis=1)[h_id, p_id])
    for lo, hi in blocks(marked.size, n_planes * n_points):
        u = marked[lo:hi]
        t, plane, pt = np.nonzero(far[r_class[h_id[u]][:, :, None], k_class[p_id[u]][:, None, :]])
        v, w = u[t], at[pt, plane]
        if not ((w < 0) | (w == v) | (zero[h_id[v], pt] & zero[plane, p_id[v]])).all():
            return False
    return True


def diameter(graph: Graph) -> int:
    """Exact diameter, exhaustive over all sources; -1 when the graph is
    disconnected.

    Tests the distance <= 2 property on the point-plane table
    (_within_two); falls back to per-source BFS only when that test
    fails.
    """
    n = graph.n
    if n <= 1:
        return 0
    if _within_two(graph):
        return 1 if graph.edge_count() == n * (n - 1) // 2 else 2
    if not is_connected(graph):
        return -1
    return max(int(bfs(graph, u).max()) for u in range(n))


def common_neighbor_blocks(graph: Graph, i: np.ndarray, j: np.ndarray):
    """The common neighbours of each pair (i[t], j[t]), in blocks of pairs:
    (t, w) arrays sorted by pair and then neighbour, t indexing the whole
    pair arrays.

    The common neighbours of (p, h) and (p', h') are the vertices (x, k)
    with x on h and h' and k through p and p': the vertex table gathered
    on the points on h that lie on h' times the planes through p that pass
    through p', the others replaced by the padding."""
    h_id, p_id = graph.h_id, graph.p_id
    n_planes, n_points = graph.zero.shape
    # the padding row and column meet nothing
    zero = np.pad(graph.zero, ((0, 1), (0, 1)))
    # at most BULK_BLOCK // n pairs per block, which bounds the triangle and
    # 4-cycle blocks built on a block and the lists their table checks make
    for lo, hi in blocks(i.size, max(graph.n, graph.on.shape[1] * graph.through.shape[1])):
        a, b = i[lo:hi], j[lo:hi]
        points, planes = graph.on[h_id[a]], graph.through[p_id[a]]
        points = np.where(zero[h_id[b, None], points], points, n_points)
        planes = np.where(zero[planes, p_id[b, None]], planes, n_planes)
        rows = _table_rows(graph.at, points, planes, graph.ascending)
        t, c = np.nonzero(rows >= 0)
        yield t + lo, rows[t, c].astype(np.intp)


def triangle_blocks(graph: Graph):
    """Every triangle (i, j, w) with i < j < w, once, in lexicographic
    order, as (B, 3) blocks: the edges i < j in order, each with its common
    neighbours w > j."""
    for i, j, _ in edge_blocks(graph):
        for t, w in common_neighbor_blocks(graph, i, j):
            up = w > j[t]
            yield np.stack([i[t[up]], j[t[up]], w[up]], axis=1)


def quadrangle_blocks(graph: Graph):
    """Every 4-cycle (i, a, j, b) with i < j and a < b, once, in
    lexicographic order of (i, j, a, b), as (B, 4) blocks: the pairs i < j
    in order, each with the pairs a < b of its common neighbours."""
    i, j = np.triu_indices(graph.n, 1)
    for t, w in common_neighbor_blocks(graph, i, j):
        # each common neighbour pairs with those after it in its pair's row
        after = np.searchsorted(t, t, side="right") - np.arange(t.size) - 1
        a = np.repeat(np.arange(t.size), after)
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(after) - after, after)
        yield np.stack([i[t[a]], w[a], j[t[a]], w[b]], axis=1)


# ----------------------------------------------------------------------
# reduct verification
# ----------------------------------------------------------------------

def verify_reduct_is_neighborhood_equality(gf: GF) -> dict:
    """Exhaustively check that two affine vertices have identical neighbour
    sets exactly when their normalised pairs coincide, that the classes are
    cocliques, and that the class graph is the projective graph.

    A class is the affine vertices of one vertex_ids in the projective
    graph; its neighbour bitsets and adjacent pairs are read off the
    incidence of :func:`factor_vertices`.
    """
    from .voltage import report

    vmat, hmat = affine_vertices(gf)
    _, p_id, _, h_id, values = factor_vertices(gf, vmat, hmat)
    zero = values == 0
    # bit j of kills[h] is set when covector h vanishes on v_j and of
    # killed[p] when h_j vanishes on vector p, so the neighbour row of
    # vertex i is kills[h_id[i]] & killed[p_id[i]]
    kills, killed = _bit_rows(zero.take(p_id, axis=1)), _bit_rows(zero.T.take(h_id, axis=1))
    ids = vertex_ids(build_projective_graph(gf), vmat, hmat)
    order = np.argsort(ids, kind="stable")
    classes = np.split(order, np.flatnonzero(np.diff(ids[order])) + 1)

    fiber_sizes = {len(members) for members in classes}
    seen_rows = set()
    mismatched = coclique_violations = 0
    for members in classes:
        rows = kills[h_id[members]] & killed[p_id[members]]
        mismatched += int((rows[1:] != rows[0]).any(axis=1).sum())
        key = rows[0].tobytes()
        mismatched += key in seen_rows
        seen_rows.add(key)
        inside = zero[np.ix_(h_id[members], p_id[members])]
        coclique_violations += int(np.triu(inside & inside.T, 1).sum())

    # every id a vertex, and every projective vertex hit
    classes_match = bool((ids >= 0).all()) and len(classes) == count_projective_vertices(gf)
    # the mismatched neighbour sets and the adjacent pairs inside a class
    # count one each, a wrong fiber size or class set one more
    failed = {"neighborhoods": mismatched, "cocliques": coclique_violations,
              "fiber_sizes": int(fiber_sizes != {(gf.order - 1) ** 2}),
              "class_set_matches_projective": int(not classes_match)}
    return report("reduct-neighborhood-equality", gf, "exhaustive", len(vmat),
                  sum(failed.values()), [name for name, count in failed.items() if count],
                  classes=len(classes), fiber_sizes=sorted(fiber_sizes),
                  expected_fiber=(gf.order - 1) ** 2, class_set_matches_projective=classes_match)


# ----------------------------------------------------------------------
# lazy samplers (any field, no enumeration)
# ----------------------------------------------------------------------

def _draw4(getrandbits, q: int, bits: int):
    """Four uniform elements of range(q), drawn one after the other exactly as
    CPython's ``rng.randrange(q)`` draws each: ``getrandbits(bits)`` with bits
    equal to ``q.bit_length()``, again while the value is >= q."""
    r0 = getrandbits(bits)
    while r0 >= q:
        r0 = getrandbits(bits)
    r1 = getrandbits(bits)
    while r1 >= q:
        r1 = getrandbits(bits)
    r2 = getrandbits(bits)
    while r2 >= q:
        r2 = getrandbits(bits)
    r3 = getrandbits(bits)
    while r3 >= q:
        r3 = getrandbits(bits)
    return (r0, r1, r2, r3)


def random_nonzero_vector(gf: GF, rng):
    q, draw = gf.order, rng.getrandbits
    bits = q.bit_length()
    while True:
        v = _draw4(draw, q, bits)
        if any(v):
            return v


def random_affine_vertex(gf: GF, rng):
    v = random_nonzero_vector(gf, rng)
    q, draw, mul = gf.order, rng.getrandbits, gf.mul_rows
    bits = q.bit_length()
    # h(v) = sum_i v_i h_i, read off the multiplication-by-v_i rows
    by0, by1, by2, by3 = mul[v[0]], mul[v[1]], mul[v[2]], mul[v[3]]
    while True:
        h = _draw4(draw, q, bits)
        if by0[h[0]] ^ by1[h[1]] ^ by2[h[2]] ^ by3[h[3]]:
            return (v, h)


def _random_in_span(gf: GF, basis, rng):
    """A random nonzero combination of the basis: the coefficients are drawn
    left to right as rng.randrange(q) draws them, and all of them again when
    every one is zero.  The basis is one that kernel returns for two nonzero
    rows, of 2 vectors at rank 2 and 3 at rank 1; any other raises
    ValueError."""
    q, draw, mul = gf.order, rng.getrandbits, gf.mul_rows
    bits = q.bit_length()
    if len(basis) == 2:
        (x0, x1, x2, x3), (y0, y1, y2, y3) = basis
        while True:
            c = draw(bits)
            while c >= q:
                c = draw(bits)
            d = draw(bits)
            while d >= q:
                d = draw(bits)
            if c or d:
                by_c, by_d = mul[c], mul[d]
                return (by_c[x0] ^ by_d[y0], by_c[x1] ^ by_d[y1],
                        by_c[x2] ^ by_d[y2], by_c[x3] ^ by_d[y3])
    (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3) = basis
    while True:
        c = draw(bits)
        while c >= q:
            c = draw(bits)
        d = draw(bits)
        while d >= q:
            d = draw(bits)
        e = draw(bits)
        while e >= q:
            e = draw(bits)
        if c or d or e:
            by_c, by_d, by_e = mul[c], mul[d], mul[e]
            return (by_c[x0] ^ by_d[y0] ^ by_e[z0], by_c[x1] ^ by_d[y1] ^ by_e[z1],
                    by_c[x2] ^ by_d[y2] ^ by_e[z2], by_c[x3] ^ by_d[y3] ^ by_e[z3])


def sample_common_neighbor(gf: GF, a, b, rng):
    """A uniformish random vertex adjacent to both a and b, or None when the
    NEIGHBOR_TRIES draws are all rejected (possible when the kernels pair to
    zero)."""
    mul = gf.mul_rows
    tbasis = kernel(gf, a[1], b[1])
    gbasis = kernel(gf, a[0], b[0])
    for _ in range(NEIGHBOR_TRIES):
        w = _random_in_span(gf, tbasis, rng)
        g = _random_in_span(gf, gbasis, rng)
        if mul[g[0]][w[0]] ^ mul[g[1]][w[1]] ^ mul[g[2]][w[2]] ^ mul[g[3]][w[3]]:
            return (w, g)
    return None


def random_neighbor(gf: GF, a, rng):
    return sample_common_neighbor(gf, a, a, rng)


def _closed_walk(gf: GF, length: int, rng, distinct: bool):
    """The rejection loop of every walk sampler: a random vertex, length - 2
    random steps and a closing common neighbour of the last and the first
    vertex, drawn afresh from a new start whenever a step fails, or meets
    an earlier vertex when distinct is set."""
    while True:
        walk = [random_affine_vertex(gf, rng)]
        for _ in range(length - 2):
            nxt = random_neighbor(gf, walk[-1], rng)
            if nxt is None or (distinct and nxt in walk):
                break
            walk.append(nxt)
        else:
            last = sample_common_neighbor(gf, walk[-1], walk[0], rng)
            if last not in (None, *(walk if distinct else (walk[0], walk[-1]))):
                return (*walk, last)


def sample_triangle(gf: GF, rng):
    """Three distinct vertices forming a triangle."""
    return _closed_walk(gf, 3, rng, True)


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
    return _closed_walk(gf, 5, rng, True)


def sample_closed_walk(gf: GF, length: int, rng):
    """A closed walk with the given number of edges and no two equal
    consecutive vertices; repeated non-consecutive vertices are allowed."""
    if length < 3:
        raise ValueError("closed walks need at least 3 edges")
    return _closed_walk(gf, length, rng, False)


# ----------------------------------------------------------------------
# batched walks (arrays, numpy Generator)
# ----------------------------------------------------------------------

def _random_in_kernels(gf: GF, r0: np.ndarray, r1: np.ndarray, rng, draws: int) -> np.ndarray:
    """draws uniform random elements of the joint kernel of each pair of
    nonzero rows (r0[i], r1[i]), zero included, as an (N, draws, 4) uint8
    array.  A uniform vector x moves into the kernel of r0 along e_p, p the
    first coordinate where r0 is nonzero, and then, where r1 is not a
    multiple of r0, into the kernel of r1 along u = r0_d e_c + r0_c e_d,
    which r0 kills: (c, d) is the first slot pair of the wedge r0 ^ r1
    whose minor r1(u) = r0_c r1_d + r0_d r1_c is nonzero.  Each move is a
    linear map onto its kernel, so x stays uniform."""
    t, inv = gf.mul_table, gf.inv_table
    x = rng.integers(0, gf.order, (len(r0), draws, 4), dtype=np.uint8)
    n = np.arange(len(r0))
    p = (r0 != 0).argmax(axis=1)
    x[n, :, p] ^= t[dot(gf, r0[:, None, :], x), inv[r0[n, p]][:, None]]
    n = np.flatnonzero((r0 != r1).any(axis=1))
    minors = wedges(gf, r0[n], r1[n])
    s = (minors != 0).argmax(axis=1)
    c, d = np.array(BIV_PAIRS)[s].T
    # zero where r1 is a multiple of r0: the inverse of 0 reads 0
    by = t[dot(gf, r1[n, None, :], x[n]), inv[minors[np.arange(n.size), s]][:, None]]
    x[n, :, c] ^= t[by, r0[n, d][:, None]]
    x[n, :, d] ^= t[by, r0[n, c][:, None]]
    return x


def _random_affine_vertices(gf: GF, count: int, rng):
    """count uniform affine vertices as (count, 4) uint8 arrays of vectors
    and covectors: uniform pairs, each drawn again while it pairs to zero."""
    v = rng.integers(0, gf.order, (count, 4), dtype=np.uint8)
    h = rng.integers(0, gf.order, (count, 4), dtype=np.uint8)
    redo = np.flatnonzero(dot(gf, h, v) == 0)
    while redo.size:
        v[redo] = rng.integers(0, gf.order, (redo.size, 4), dtype=np.uint8)
        h[redo] = rng.integers(0, gf.order, (redo.size, 4), dtype=np.uint8)
        redo = redo[dot(gf, h[redo], v[redo]) == 0]
    return v, h


def sample_closed_walks(gf: GF, lengths, rng):
    """The array form of sample_closed_walk: one closed walk per entry of
    lengths (each at least 3), drawn from the numpy Generator rng.

    Every walk starts at a uniform affine vertex, and all walks advance
    one vertex per pass.  A step draws WALK_DRAWS candidate pairs of a
    uniform w in the kernel of the covectors and g in the kernel of the
    vectors of the previous vertex and, for the last vertex, of the first,
    and takes the first pair with g(w) != 0 as the vertex (w, g).  A walk
    whose step spends NEIGHBOR_TRIES candidates, as sample_common_neighbor
    spends its draws, starts again from a new vertex.

    Returns (vs, hs), (sum(lengths), 4) uint8 arrays of the vectors and
    covectors of the walks' vertices, walk after walk."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if (lengths < 3).any():
        raise ValueError("closed walks need at least 3 edges")
    n = lengths.size
    vs = np.zeros((n, int(lengths.max(initial=3)), 4), dtype=np.uint8)
    hs = np.zeros_like(vs)
    vs[:, 0], hs[:, 0] = _random_affine_vertices(gf, n, rng)
    at = np.ones(n, dtype=np.intp)  # vertices drawn so far
    tries = np.zeros(n, dtype=np.intp)  # candidates spent on the current step
    while (step := np.flatnonzero(at < lengths)).size:
        # a common neighbour of the previous vertex and of itself, or of the
        # first vertex when it closes the walk
        prev = at[step] - 1
        other = np.where(at[step] == lengths[step] - 1, 0, prev)
        # w in the kernel of the covectors, g in that of the vectors
        w, g = np.split(_random_in_kernels(
            gf, np.concatenate([hs[step, prev], vs[step, prev]]),
            np.concatenate([hs[step, other], vs[step, other]]), rng, WALK_DRAWS), 2)
        draws = tries[step, None] + np.arange(1, WALK_DRAWS + 1)
        ok = (dot(gf, g, w) != 0) & (draws <= NEIGHBOR_TRIES)
        hit, pick = ok.any(axis=1), ok.argmax(axis=1)
        got = step[hit]
        vs[got, at[got]], hs[got, at[got]] = w[hit, pick[hit]], g[hit, pick[hit]]
        at[got] += 1
        tries[got] = 0
        missed = step[~hit]
        tries[missed] += WALK_DRAWS
        spent = missed[tries[missed] >= NEIGHBOR_TRIES]
        vs[spent, 0], hs[spent, 0] = _random_affine_vertices(gf, spent.size, rng)
        at[spent], tries[spent] = 1, 0
    kept = np.arange(vs.shape[1]) < lengths[:, None]
    return vs[kept], hs[kept]
