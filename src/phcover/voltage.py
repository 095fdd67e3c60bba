"""Generic voltage-assignment machinery over exponent-2 voltage groups.

Every voltage group in this package (the 21-dimensional symmetric
square, its quotient N by {0, U}, and the cycle-voltage subgroup M) is
an elementary abelian 2-group, so voltages are written additively, a
dart and its reverse carry the same value, and path voltages are plain
XOR folds of packed coordinate vectors.

A :class:`DartTable` pins one voltage assignment to one enumerated
graph as a CSR array of packed values; everything bulk (spanning-tree
potentials, fundamental-cycle spans, lift components, local-isomorphism
verification) runs off it.  The spanning tree, the span and the
local-isomorphism check walk their darts in the frontier blocks of
:func:`phcover.graphs.frontier_blocks`, so that beside their output they
hold about ``BULK_BLOCK`` darts at a time.  A lift vertex is a (base
index, packed tag) row of one ``(n, 2)`` int64 array, and the lift is
searched through the sorted :func:`lift_keys` of its vertices.  A pair
(g, c) of g in SL4 and c in N maps the lift vertex (b, t) to
(perm[b], N(g t + c)), with perm from :func:`vertex_images` and g t from
the tables of :func:`phcover.multilinear.byte_tables`; the pairs that map
a component onto itself form the extension of SL4 by the deck group M.  The
scalar entry points take a plain ``dart_fn(a, b) -> 21-tuple`` instead
and work on any graph.

Every check that tests items one at a time feeds :func:`tally` one
result per item, ``None`` or a witness, or a pass mask over its items
with a function that builds the witness of a failed one, and
:func:`report` turns the tally into the report shape all checks share.
"""

from __future__ import annotations

from operator import xor

from ._lazy import np
from .field import GF
from .graphs import (
    ADJ_CAP,
    Graph,
    adjacent,
    blocks,
    csr_bfs,
    distinct,
    edge_blocks,
    find_sorted,
    frontier_blocks,
    frontier_darts,
    random_affine_vertex,
    random_neighbor,
    triangle_blocks,
    vertex_ids,
    vertex_keys,
)
from .linalg import dot, vec_scale
from .multilinear import ZERO21, byte_tables, n_project_packed, packed_images


class F2Span:
    """An F2 span of packed bit vectors, kept as reduced pivot rows."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def reduce(self, x: int) -> int:
        while x:
            row = self.pivots.get(x.bit_length() - 1)
            if row is None:
                break
            x ^= row
        return x

    def add(self, x: int) -> bool:
        """Insert x; returns True when it enlarged the span."""
        r = self.reduce(x)
        if r:
            self.pivots[r.bit_length() - 1] = r
            return True
        return False

    def contains(self, x: int) -> bool:
        return self.reduce(x) == 0

    @property
    def dim(self) -> int:
        return len(self.pivots)


def tally(results, witness=None) -> tuple:
    """Count a stream with one result per checked item: None when the item
    passed, its witness when it failed.  Given witness, results is instead
    a boolean pass mask with one entry per item, and witness(i) builds the
    witness of the failed item i.  Returns (checked, violations,
    witnesses) with the first five witnesses, in item order."""
    if witness is not None:
        failed = np.flatnonzero(~np.asarray(results, dtype=bool))
        return len(results), int(failed.size), [witness(int(i)) for i in failed[:5]]
    checked = violations = 0
    witnesses = []
    for checked, witness in enumerate(results, 1):
        if witness is not None:
            violations += 1
            if violations <= 5:
                witnesses.append(witness)
    return checked, violations, witnesses


def report(check, gf: GF, mode, samples, violations, witnesses, **extra) -> dict:
    """The shape every check report shares, with the first five witnesses
    and any check-specific fields; the one place a report is built, so a
    report passes exactly when it counts no violation."""
    return {"check": check, "field": gf.order, "mode": mode, "samples": samples,
            "violations": violations, "witnesses": witnesses[:5],
            "passed": violations == 0, **extra}


def path_voltage(gf: GF, dart_fn, path):
    """Sum of the dart voltages along a path of pairwise-adjacent vertices;
    ZERO21 for a path of fewer than two vertices."""
    if len(path) < 2:
        return ZERO21
    acc = dart_fn(path[0], path[1])
    for n, (a, b) in enumerate(zip(path[1:], path[2:]), 1):
        acc = map(xor, acc, dart_fn(a, b))
        if n % 1024 == 0:  # a chain of lazy maps unwinds recursively in C
            acc = tuple(acc)
    return tuple(acc)


# ----------------------------------------------------------------------
# packed dart tables on enumerated graphs
# ----------------------------------------------------------------------

class DartTable:
    """Packed dart voltages of an enumerated graph, one per CSR position."""

    def __init__(self, graph: Graph, volts):
        self.graph = graph
        self.gf = graph.gf
        self.indptr = graph._indptr
        self.indices = graph._indices
        self.volts = volts
        self._rows: dict = {}  # row i -> {neighbour: voltage}, see dart
        self._tree_cache: dict = {}

    @classmethod
    def from_scalar(cls, graph: Graph, packed_dart_fn) -> "DartTable":
        """Build dart by dart from a scalar packed voltage function.  Values
        are stored as Python ints (object dtype), so any packing width works;
        only sensible for small graphs."""
        indptr, indices = graph._indptr, graph._indices
        volts = np.empty(indices.size, dtype=object)
        pos = 0
        for u in range(graph.n):
            a = graph.vertices[u]
            for _ in range(int(indptr[u + 1] - indptr[u])):
                volts[pos] = packed_dart_fn(a, graph.vertices[int(indices[pos])])
                pos += 1
        return cls(graph, volts)

    def dart(self, i: int, j: int) -> int:
        """Packed voltage of the dart (i, j); raises ValueError on
        non-adjacent pairs and when i is not a vertex.

        The first lookup in row i keeps the row as a dict from neighbour
        to voltage, in plain ints; only touched rows are kept."""
        try:
            return self._rows[i][j]
        except KeyError:
            if i not in self._rows and 0 <= i < self.graph.n:
                lo, hi = self.indptr[i], self.indptr[i + 1]
                self._rows[i] = dict(zip(self.indices[lo:hi].tolist(),
                                         self.volts[lo:hi].tolist()))
                if j in self._rows[i]:
                    return self._rows[i][j]
        raise ValueError(f"vertices {i} and {j} are not adjacent")


def spanning_tree_potentials(table: DartTable, root: int):
    """BFS spanning tree from the root; pot[v] is the tree-path voltage from
    the root to v.  Neighbours are scanned in index order, so the tree (and
    any tie-break among shortest paths) is deterministic: it is the tree
    of :func:`phcover.graphs.csr_bfs`, and pot is filled one level at a
    time from it."""
    cached = table._tree_cache.get(root)
    if cached is not None:
        return cached
    dist, parent, dart = csr_bfs(table.indptr, table.indices, root)
    if (dist < 0).any():
        raise ValueError("graph is not connected")
    pot = np.zeros(dist.size, dtype=table.volts.dtype)  # object zeros are int 0
    for d in range(1, int(dist.max()) + 1):
        level = np.flatnonzero(dist == d)
        pot[level] = pot[parent[level]] ^ table.volts[dart[level]]
    if len(table._tree_cache) < 8:
        table._tree_cache[root] = (parent, pot)
    return parent, pot


def fundamental_cycle_span(table: DartTable, root: int = 0, member_fn=None):
    """Span of the voltages of all fundamental cycles of a BFS spanning tree.

    For the non-tree edge (a, b) the fundamental voltage is
    pot[a] + volt(a, b) + pot[b]; tree edges contribute zero.  In an
    abelian exponent-2 group this set generates the same span as the
    voltages of all closed walks.  When member_fn is given, it takes the
    array of the distinct fundamental voltages and returns their membership
    mask, and failures are counted as violations.  The edges a < b are read
    in blocks of rows, each reduced to its distinct nonzero voltages.
    """
    parent, pot = spanning_tree_potentials(table, root)
    g = table.graph
    edges, parts = 0, []
    for src, dst, pos in edge_blocks(g):
        fc = pot[src] ^ pot[dst] ^ table.volts[pos]
        parts.append(distinct(fc[fc != 0]))
        edges += src.size
    uniq = distinct(np.concatenate(parts))
    span = F2Span()
    for x in uniq.tolist():
        span.add(x)
    violations, witnesses = 0, []
    if member_fn is not None:
        _, violations, witnesses = tally(member_fn(uniq), lambda i: {"voltage": int(uniq[i])})
    return {
        "span": span,
        "edges": edges,
        "nontree_edges": edges - (g.n - 1),
        "distinct_voltages": int(uniq.size) + 1,  # including 0
        "violations": violations,
        "witnesses": witnesses,
    }


# ----------------------------------------------------------------------
# lift components
# ----------------------------------------------------------------------

class CapExceeded(RuntimeError):
    pass


def lift_keys(gf: GF, b, t) -> np.ndarray:
    """The lift vertices (b[i], t[i]) packed one per uint64 key, the base
    above the 21k tag bits, so that keys sort by base and then tag.  Bases
    are below ADJ_CAP, so the keys fit over GF(2) and GF(4); over larger
    fields they do not, and a ValueError is raised."""
    if 21 * gf.k + ADJ_CAP.bit_length() > 64:
        raise ValueError(f"lift keys over GF({gf.order}) do not fit 64 bits")
    return np.asarray(b).astype(np.uint64) << np.uint64(21 * gf.k) | np.asarray(t, dtype=np.uint64)


def component_of(table: DartTable, root: int, cap: int = 10 ** 7, root_tag: int = 0):
    """BFS over the lift with N-valued tags, starting at (root, root_tag).

    Tags are canonical packed representatives modulo U; the unique lift
    neighbour of (u, m) over the base neighbour v carries the tag
    m + voltage(u, v).  Returns {"vertices": the (n, 2) int64 array of
    (base, tag) rows in BFS order}.  Raises CapExceeded when the component
    has more than cap vertices.

    The BFS runs one level at a time: the darts of a level are gathered
    row after row, and the lift neighbours not seen before are queued in
    order of first occurrence, the order a first-in-first-out queue scan
    gives them.
    """
    queue_b = np.array([root], dtype=np.int64)
    queue_t = n_project_packed(table.gf, [root_tag])
    seen = lift_keys(table.gf, queue_b, queue_t)  # every key queued, sorted
    head = 0
    while head < queue_b.size:
        slot, pos = frontier_darts(table.indptr, queue_b[head:])
        nb = table.indices[pos].astype(np.int64)
        nt = n_project_packed(table.gf, queue_t[head + slot] ^ table.volts[pos])
        head = queue_b.size
        # seen keys first, then candidates in scan order; the least entry
        # index in each run of equal sorted keys is the key's earliest
        keys = np.concatenate([seen, lift_keys(table.gf, nb, nt)])
        order = np.argsort(keys)
        keys = keys[order]
        runs = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        fresh = np.minimum.reduceat(order, runs) - seen.size
        fresh = np.sort(fresh[fresh >= 0])
        seen = keys[runs]
        if queue_b.size + fresh.size > cap:
            raise CapExceeded(
                f"lift component exceeded the cap of {cap} vertices;"
                " use the cycle-span computation instead"
            )
        queue_b = np.concatenate([queue_b, nb[fresh]])
        queue_t = np.concatenate([queue_t, nt[fresh]])
    return {"vertices": np.stack([queue_b, queue_t.astype(np.int64)], axis=1)}


def verify_local_isomorphism(table: DartTable, component) -> dict:
    """Check that projecting each lift vertex's neighbourhood onto the base
    neighbourhood is an adjacency-and-non-adjacency preserving bijection,
    at every lift vertex of the component.  The report's samples count the
    (lift vertex, base triangle) pairs and the (lift vertex, base neighbour)
    lookups of the bijectivity pass, which finds missing lift neighbours.

    At the lift vertex (u, t), the lift neighbours over w1 and w2 carry
    the tags N(t + a) and N(t + c), with a and c the voltages of u-w1 and
    u-w2, and are adjacent exactly when N of their sum is N(voltage of
    w1-w2).  As N(x) is x or x + U, N(N(t + a) + N(t + c)) = N(a + c):
    the tag t cancels, so each (base, triangle) pair is tested once and
    weighted by the number of lift vertices over its base.  The
    bijectivity pass runs in blocks of lift vertices."""
    g, gf = table.graph, table.gf
    indptr, indices, volts = table.indptr, table.indices, table.volts
    vb, vt = component["vertices"][:, 0], component["vertices"][:, 1].astype(np.uint64)
    weight = np.bincount(vb, minlength=g.n)
    # int64 keys: an int16 source times n overflows
    darts = g.dart_sources().astype(np.int64) * g.n + indices
    checked = violations = 0
    for tri in triangle_blocks(g):
        # each triangle from each corner u, as (u, w1, w2) with w1 < w2,
        # and the CSR positions of its darts u-w1, u-w2 and w1-w2
        u, w1, w2 = np.concatenate([tri, tri[:, [1, 0, 2]], tri[:, [2, 0, 1]]]).T.astype(np.int64)
        p, q, e = find_sorted(darts, np.stack([u * g.n + w1, u * g.n + w2, w1 * g.n + w2]))
        bad = n_project_packed(gf, volts[p] ^ volts[q]) != n_project_packed(gf, volts[e])
        checked += int(weight[u].sum())
        violations += int(weight[u[bad]].sum())
    # bijectivity: a lift vertex has one lift neighbour over each base
    # neighbour, so the projection is onto the base neighbourhood and
    # one-to-one exactly when every such neighbour is in the component
    keys = np.sort(lift_keys(gf, vb, vt))
    for k, pos in frontier_blocks(indptr, vb):
        nt = n_project_packed(gf, vt[k] ^ volts[pos])
        checked += pos.size
        violations += int((find_sorted(keys, lift_keys(gf, indices[pos], nt)) < 0).sum())
    return report("local-isomorphism", gf, "direct", checked, violations, [])


# ----------------------------------------------------------------------
# vertex images under matrix actions
# ----------------------------------------------------------------------

def vertex_images(table: DartTable, actions) -> np.ndarray:
    """The index of the normalised image of every vertex under each
    action, as an (A, n) int64 array: the images of the graph's distinct
    points and planes are taken once per action, and vertex_ids finds the
    image of each vertex.  Raises KeyError when an image is not a vertex."""
    g = table.graph
    images = []
    for rows, ids, mats in ((g.points, g.p_id, [a.m for a in actions]),
                            (g.planes, g.h_id, [a.minv_t for a in actions])):
        # coordinate c of x m is x paired with column c of m
        columns = np.array(mats, dtype=np.uint8).reshape(-1, 4, 4).transpose(0, 2, 1)
        images.append(dot(table.gf, rows[None, :, None], columns[:, None])[:, ids].reshape(-1, 4))
    perm = vertex_ids(g, *images).reshape(len(actions), g.n)
    if (perm < 0).any():
        raise KeyError("the image of a vertex is not a vertex of the graph")
    return perm


# ----------------------------------------------------------------------
# reductivity and equivariance
# ----------------------------------------------------------------------

def check_reductive(gf: GF, dart_fn, samples: int = 0, rng=None,
                    graph: Graph | None = None) -> dict:
    """Check that equivalent vertices receive equal voltages from any common
    neighbour: for u ~ v (same normalised class) and w adjacent to v, w is
    adjacent to u and voltage(w, u) == voltage(w, v).

    Handed the enumerated affine graph, the check is exhaustive over all
    such triples; otherwise it draws samples random rescalings of random
    vertices from rng, and raises ValueError when samples < 1, as it would
    pass on no work.
    """
    if graph is None and samples < 1:
        raise ValueError("a sampled reductivity check needs at least one sample")
    if graph is not None:
        vs, keys = graph.vertices, vertex_keys(gf, graph.vmat, graph.hmat)
        triples = ((vs[u], vs[v], vs[w]) for v in range(graph.n)
                   for u in np.flatnonzero(keys == keys[v]).tolist() if u != v
                   for w in graph.neighbors(v).tolist())
    else:
        def rescalings():
            # draw v, the rescaling factors, then a neighbour w of v
            for _ in range(samples):
                v0, h0 = random_affine_vertex(gf, rng)
                lam = 1 + rng.randrange(gf.order - 1)
                mu = 1 + rng.randrange(gf.order - 1)
                w = random_neighbor(gf, (v0, h0), rng)
                if w is not None:
                    yield (vec_scale(gf, lam, v0), vec_scale(gf, mu, h0)), (v0, h0), w

        triples = rescalings()
    return report("reductive", gf, "sample" if graph is None else "exhaustive", *tally(
        None if adjacent(gf, w, u) and dart_fn(w, u) == dart_fn(w, v)
        else {"u": u, "v": v, "w": w}
        for u, v, w in triples))


def check_equivariance(gf: GF, dart_fn, actions, samples: int = 0, rng=None,
                       table: DartTable | None = None) -> dict:
    """Check voltage equivariance: the voltage of the image dart equals the
    induced action on the voltage of the dart, for every supplied matrix.

    Handed a dart table, the check is exhaustive over all edges u < v of
    its graph, one matrix at a time and each matrix in blocks of edges: the
    image vertices come from vertex_images, the image darts from the table,
    and the images of the voltages from the byte tables of all the
    matrices, built in one call of byte_tables (k <= 3).  Otherwise it
    draws random darts from rng and evaluates them through dart_fn.  Raises
    ValueError when no matrix is supplied, as there would be nothing to
    check.
    """
    if not len(actions):
        raise ValueError("equivariance needs at least one matrix")
    if table is not None:
        src, dst = table.graph.dart_sources(), table.indices
        keep = src < dst
        src, dst, volts = src[keep], dst[keep], table.volts[keep]
        dart, m = table.dart, src.size
        passed = np.empty(len(actions) * m, dtype=bool)
        images = zip(byte_tables(gf, actions), vertex_images(table, actions))
        for n, (tables, perm) in enumerate(images):
            for lo, hi in blocks(m):
                have = [dart(a, b) for a, b in zip(perm[src[lo:hi]].tolist(),
                                                    perm[dst[lo:hi]].tolist())]
                passed[n * m + lo:n * m + hi] = \
                    np.array(have, dtype=np.uint64) == packed_images(tables, volts[lo:hi])
        return report("equivariance", gf, "exhaustive", *tally(passed, lambda i: {
            "dart": (int(src[i % m]), int(dst[i % m])), "matrix": actions[i // m].m}))
    per_action = max(1, samples // len(actions))

    def results():
        for act in actions:
            for _ in range(per_action):
                a = random_affine_vertex(gf, rng)
                b = random_neighbor(gf, a, rng)
                if b is None:
                    continue
                ga = (act.on_vector(a[0]), act.on_covector(a[1]))
                gb = (act.on_vector(b[0]), act.on_covector(b[1]))
                yield None if dart_fn(ga, gb) == act.on_sym(dart_fn(a, b)) \
                    else {"dart": (a, b), "matrix": act.m}

    return report("equivariance", gf, "sample", *tally(results()))
