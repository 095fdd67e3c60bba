"""Generic voltage-assignment machinery over exponent-2 voltage groups.

Every voltage group in this package (the 21-dimensional symmetric
square, its quotient N by {0, U}, and the cycle-voltage subgroup M) is
an elementary abelian 2-group, so voltages are written additively, a
dart and its reverse carry the same value, and path voltages are plain
XOR folds of packed coordinate vectors.

A :class:`DartTable` pins one voltage assignment to one enumerated
graph as a CSR array of packed values; everything bulk (spanning-tree
potentials, fundamental-cycle spans, lift components, local-isomorphism
verification) runs off it.  The scalar entry points take a plain
``dart_fn(a, b) -> 21-tuple`` instead and work on any graph.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

import numpy as np

from .field import GF
from .graphs import (
    Graph,
    adjacent,
    build_affine_graph,
    frontier_darts,
    normalize,
    random_affine_vertex,
    random_neighbor,
    reduct_class,
)
from .linalg import mat_mul, vec_scale
from .multilinear import (
    MatrixAction,
    ZERO21,
    action,
    n_project_packed,
    pack_sym,
    sym_add,
    u_packed,
)


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


def path_voltage(gf: GF, dart_fn, path):
    """Sum of the dart voltages along a path of pairwise-adjacent vertices."""
    acc = ZERO21
    for a, b in zip(path, path[1:]):
        acc = sym_add(acc, dart_fn(a, b))
    return acc


def lift_adjacent(gf: GF, dart_fn, a, m, b, n) -> bool:
    """Adjacency in the lift: base adjacency plus voltage equal to the tag sum.

    Tags m, n are canonical representatives in N (21-tuples).
    """
    if not adjacent(gf, a, b):
        return False
    want = n_project_packed(gf, pack_sym(gf, sym_add(m, n)))
    have = n_project_packed(gf, pack_sym(gf, dart_fn(a, b)))
    return want == have


def act_lift(gf: GF, act: MatrixAction, vert, tag_packed: int, k_packed: int):
    """Image of a lift vertex ((v, h), tag) under the extension element (g, k):
    the base vertex moves through g and the tag through the quotient action
    followed by translation by k."""
    v, h = vert
    image = (act.on_vector(v), act.on_covector(h))
    return image, n_project_packed(gf, act.on_n_packed(tag_packed) ^ k_packed)


def compose_extension(gf: GF, g_act: MatrixAction, k1: int, h_act: MatrixAction, k2: int):
    """Semidirect product law induced by the action formula:
    (g, k1)(h, k2) = (gh, k1^h + k2)."""
    prod = action(gf, mat_mul(gf, g_act.m, h_act.m))
    return prod, n_project_packed(gf, h_act.on_n_packed(k1) ^ k2)


# ----------------------------------------------------------------------
# packed dart tables on enumerated graphs
# ----------------------------------------------------------------------

class DartTable:
    """CSR store of packed dart voltages for an enumerated graph."""

    def __init__(self, graph: Graph, indptr, indices, volts):
        self.graph = graph
        self.gf = graph.gf
        self.indptr = indptr
        self.indices = indices
        self.volts = volts
        self._row_starts = indptr.tolist()  # plain ints for scalar lookups
        self._tree_cache: dict = {}

    @classmethod
    def from_bulk(cls, graph: Graph, bulk_fn) -> "DartTable":
        """Build from a vectorised voltage function taking coordinate stacks
        (VA, HA, VB, HB) and returning packed uint64 values."""
        if not graph.cached:
            raise ValueError("dart tables need a graph with cached adjacency")
        indptr = graph._indptr
        indices = graph._indices
        degrees = np.diff(indptr)
        volts = bulk_fn(
            np.repeat(graph.vmat, degrees, axis=0), np.repeat(graph.hmat, degrees, axis=0),
            graph.vmat[indices], graph.hmat[indices],
        )
        return cls(graph, indptr, indices, volts)

    @classmethod
    def from_scalar(cls, graph: Graph, packed_dart_fn) -> "DartTable":
        """Build dart by dart from a scalar packed voltage function.  Values
        are stored as Python ints (object dtype), so any packing width works;
        only sensible for small graphs."""
        if not graph.cached:
            raise ValueError("dart tables need a graph with cached adjacency")
        indptr = graph._indptr
        indices = graph._indices
        volts = np.empty(indices.size, dtype=object)
        pos = 0
        for u in range(graph.n):
            a = graph.vertices[u]
            for _ in range(int(indptr[u + 1] - indptr[u])):
                volts[pos] = packed_dart_fn(a, graph.vertices[int(indices[pos])])
                pos += 1
        return cls(graph, indptr, indices, volts)

    def dart(self, i: int, j: int) -> int:
        """Packed voltage of the dart (i, j); raises on non-adjacent pairs."""
        hi = self._row_starts[i + 1]
        pos = bisect_left(self.indices, j, self._row_starts[i], hi)
        if pos == hi or self.indices[pos] != j:
            raise ValueError(f"vertices {i} and {j} are not adjacent")
        return int(self.volts[pos])


def spanning_tree_potentials(table: DartTable, root: int):
    """BFS spanning tree from the root; pot[v] is the tree-path voltage from
    the root to v.  Neighbours are scanned in index order, so the tree (and
    any tie-break among shortest paths) is deterministic.

    The BFS runs one level at a time: the CSR rows of the frontier are
    gathered in frontier order, and each new vertex takes its parent from
    its first occurrence there, which is the tree a first-in-first-out
    queue scan builds."""
    cached = table._tree_cache.get(root)
    if cached is not None:
        return cached
    g = table.graph
    indptr = table.indptr
    parent = np.full(g.n, -1, dtype=np.int64)
    pot = np.zeros(g.n, dtype=table.volts.dtype if table.volts.dtype == object else np.uint64)
    if pot.dtype == object:
        pot[:] = 0
    seen = np.zeros(g.n, dtype=bool)
    seen[root] = True
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        slot, pos = frontier_darts(indptr, frontier)
        dst = table.indices[pos]
        fresh = ~seen[dst]
        slot, pos, dst = slot[fresh], pos[fresh], dst[fresh]
        first = np.sort(np.unique(dst, return_index=True)[1])
        src, pos, frontier = frontier[slot[first]], pos[first], dst[first].astype(np.int64)
        seen[frontier] = True
        parent[frontier] = src
        pot[frontier] = pot[src] ^ table.volts[pos]
    if not seen.all():
        raise ValueError("graph is not connected")
    if len(table._tree_cache) < 8:
        table._tree_cache[root] = (parent, pot)
    return parent, pot


def fundamental_cycle_span(table: DartTable, root: int = 0, member_fn=None):
    """Span of the voltages of all fundamental cycles of a BFS spanning tree.

    For the non-tree edge (a, b) the fundamental voltage is
    pot[a] + volt(a, b) + pot[b]; tree edges contribute zero.  In an
    abelian exponent-2 group this set generates the same span as the
    voltages of all closed walks.  When member_fn is given, every
    fundamental voltage is additionally tested with it and failures are
    counted as violations.
    """
    parent, pot = spanning_tree_potentials(table, root)
    g = table.graph
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(table.indptr))
    dst = table.indices.astype(np.int64)
    keep = src < dst
    fc = pot[src[keep]] ^ pot[dst[keep]] ^ table.volts[keep]
    fc = fc[fc != 0]
    uniq = np.unique(fc)
    span = F2Span()
    for x in uniq.tolist():
        span.add(int(x))
    violations = 0
    witnesses = []
    if member_fn is not None:
        for x in uniq.tolist():
            if not member_fn(int(x)):
                violations += 1
                if len(witnesses) < 5:
                    witnesses.append({"voltage": int(x)})
    return {
        "span": span,
        "edges": int(keep.sum()),
        "nontree_edges": int(keep.sum()) - (g.n - 1),
        "distinct_voltages": int(uniq.size) + 1,  # including 0
        "violations": violations,
        "witnesses": witnesses,
    }


# ----------------------------------------------------------------------
# lift components
# ----------------------------------------------------------------------

class CapExceeded(RuntimeError):
    pass


def pair_arrays(pairs):
    """(base, tag) pairs as an int64 base array and a uint64 tag array."""
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.uint64, count=2 * len(pairs))
    return flat[0::2].astype(np.int64), flat[1::2].copy()


def find_pairs(keys_b, keys_t, b, t) -> np.ndarray:
    """Position of each pair (b[i], t[i]) among the keys, sorted by base and
    then tag, or -1.  Tags (42 bits over GF(4), 63 over GF(8)) are ranked
    among the key tags, so that base and rank fit one int64 code."""
    tags = np.unique(keys_t)
    codes = keys_b * tags.size + np.searchsorted(tags, keys_t)
    rank = np.minimum(np.searchsorted(tags, t), tags.size - 1)
    want = b * tags.size + rank
    at = np.minimum(np.searchsorted(codes, want), codes.size - 1)
    return np.where((codes[at] == want) & (tags[rank] == t), at, -1)


def component_of(table: DartTable, root: int, cap: int = 10 ** 7, root_tag: int = 0):
    """BFS over the lift with N-valued tags, starting at (root, root_tag).

    Tags are canonical packed representatives modulo U; the unique lift
    neighbour of (u, m) over the base neighbour v carries the tag
    m + voltage(u, v).  Raises CapExceeded when the component has more than
    cap vertices.

    The BFS runs one level at a time: the darts of a level are gathered
    row after row, and the lift neighbours not seen before are queued in
    order of first occurrence, the order a first-in-first-out queue scan
    gives them.
    """
    up = np.uint64(u_packed(table.gf))
    queue_b = np.array([root], dtype=np.int64)
    queue_t = np.array([min(root_tag, root_tag ^ int(up))], dtype=np.uint64)
    seen_b, seen_t = queue_b, queue_t  # every key queued, sorted by base and tag
    head = 0
    while head < queue_b.size:
        slot, pos = frontier_darts(table.indptr, queue_b[head:])
        nb = table.indices[pos].astype(np.int64)
        nt = queue_t[head + slot] ^ table.volts[pos]
        nt = np.minimum(nt, nt ^ up)
        head = queue_b.size
        # seen keys first, then candidates in scan order; the stable sort
        # puts the earliest entry of each key first
        b, t = np.concatenate([seen_b, nb]), np.concatenate([seen_t, nt])
        order = np.lexsort((t, b))
        b, t = b[order], t[order]
        first = np.concatenate([[True], (b[1:] != b[:-1]) | (t[1:] != t[:-1])])
        fresh = order[first] - seen_b.size
        fresh = np.sort(fresh[fresh >= 0])
        seen_b, seen_t = b[first], t[first]
        if queue_b.size + fresh.size > cap:
            raise CapExceeded(
                f"lift component exceeded the cap of {cap} vertices;"
                " use the cycle-span computation instead"
            )
        queue_b = np.concatenate([queue_b, nb[fresh]])
        queue_t = np.concatenate([queue_t, nt[fresh]])
    verts = list(zip(queue_b.tolist(), queue_t.tolist()))
    index = {key: i for i, key in enumerate(verts)}
    fibers: dict[int, int] = {}
    for b, _ in verts:
        fibers[b] = fibers.get(b, 0) + 1
    return {"vertices": verts, "index": index, "fiber_sizes": fibers}


def verify_local_isomorphism(table: DartTable, component, mode: str = "direct") -> dict:
    """Check that projecting each lift vertex's neighbourhood onto the base
    neighbourhood is an adjacency-and-non-adjacency preserving bijection.

    mode "direct" verifies this at every lift vertex of the component, in
    one pass over every (lift vertex, base triangle through its base) pair;
    mode "triangles" verifies the equivalent triangle condition (every base
    triangle has voltage 0 in N) instead.
    """
    gf = table.gf
    g = table.graph
    up = u_packed(gf)
    violations = 0
    checked = 0
    if mode == "triangles":
        for u in range(g.n):
            nbrs = g.neighbors(u)
            for a_pos in range(len(nbrs)):
                a = int(nbrs[a_pos])
                if a < u:
                    continue
                for b_pos in range(a_pos + 1, len(nbrs)):
                    b = int(nbrs[b_pos])
                    if b < u or not g.adjacent(a, b):
                        continue
                    tri = table.dart(u, a) ^ table.dart(a, b) ^ table.dart(b, u)
                    checked += 1
                    if tri not in (0, up):
                        violations += 1
        return {"mode": mode, "checked": checked, "violations": violations,
                "passed": violations == 0}

    up = np.uint64(up)
    indptr, indices, volts = table.indptr, table.indices, table.volts
    vb, vt = pair_arrays(component["vertices"])
    # the base triangles (u, w1, w2) with w1 < w2 through each base u of the
    # component, as CSR positions of the darts u-w1 (p), u-w2 (q), w1-w2 (e)
    bases, base_slot = np.unique(vb, return_inverse=True)
    slot, p = frontier_darts(indptr, bases)
    w1 = indices[p]
    s2, e = frontier_darts(indptr, w1)
    u, p, w1, w2 = bases[slot[s2]], p[s2], w1[s2], indices[e]
    darts = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr)) * g.n + indices
    key = u * g.n + w2
    q = np.minimum(np.searchsorted(darts, key), darts.size - 1)
    tri = (w2 > w1) & (darts[q] == key)
    tri_indptr = np.zeros(bases.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot[s2][tri], minlength=bases.size), out=tri_indptr[1:])
    p, q, e = p[tri], q[tri], e[tri]
    # every lift vertex with every triangle through its base: the lift
    # neighbours over w1 and w2 must be adjacent exactly as w1 and w2 are
    want = np.minimum(volts[e], volts[e] ^ up)
    k, ti = frontier_darts(tri_indptr, base_slot)
    t = vt[k]
    x = t ^ volts[p][ti]
    y = t ^ volts[q][ti]
    have = np.minimum(x, x ^ up) ^ np.minimum(y, y ^ up)
    checked = int(k.size)
    violations = int((np.minimum(have, have ^ up) != want[ti]).sum())
    # bijectivity: a lift vertex has one lift neighbour over each base
    # neighbour, so the projection is onto the base neighbourhood and
    # one-to-one exactly when every such neighbour is in the component
    kb, kt = pair_arrays(list(component["index"]))
    order = np.lexsort((kt, kb))
    k, pos = frontier_darts(indptr, vb)
    nt = vt[k] ^ volts[pos]
    missing = find_pairs(kb[order], kt[order], indices[pos], np.minimum(nt, nt ^ up)) < 0
    violations += int(missing.sum())
    return {"mode": mode, "checked": checked, "violations": violations,
            "passed": violations == 0}


# ----------------------------------------------------------------------
# the stabilizer of a component and its cocycle
# ----------------------------------------------------------------------

def vertex_image_index(table: DartTable, act: MatrixAction, i: int) -> int:
    """Index of the image of vertex i under the matrix action, normalising
    when the graph is projective."""
    g = table.graph
    v, h = g.vertices[i]
    vi, hi = act.on_vector(v), act.on_covector(h)
    if g.kind == "projective":
        vi, hi = normalize(g.gf, vi), normalize(g.gf, hi)
    return g.index[(vi, hi)]


def lambda_of(table: DartTable, act: MatrixAction, v_idx: int, via: int | None = None) -> int:
    """Packed voltage of a chosen path from the image of v back to v.

    With via given, the path runs (v^g, via, v); otherwise it is the BFS
    shortest path in the spanning tree rooted at v (deterministic
    tie-break by vertex order).  Different choices shift the value by an
    element of the cycle-voltage span only.
    """
    vg = vertex_image_index(table, act, v_idx)
    if vg == v_idx:
        return 0
    if via is not None:
        return table.dart(vg, via) ^ table.dart(via, v_idx)
    parent, pot = spanning_tree_potentials(table, v_idx)
    return int(pot[vg])


def stabilizer_closure_check(table: DartTable, action_pairs, v_idx: int, member_fn) -> dict:
    """Check the 2-cocycle condition of the component stabilizer on sampled
    pairs: lambda(gh) + lambda(g)^h + lambda(h) must satisfy member_fn
    (membership in the cycle-voltage subgroup)."""
    gf = table.gf
    violations = 0
    witnesses = []
    for g_act, h_act in action_pairs:
        gh = action(gf, mat_mul(gf, g_act.m, h_act.m))
        c = lambda_of(table, gh, v_idx) \
            ^ h_act.on_sym_packed(lambda_of(table, g_act, v_idx)) \
            ^ lambda_of(table, h_act, v_idx)
        if not member_fn(c):
            violations += 1
            if len(witnesses) < 5:
                witnesses.append({"cocycle": c})
    return {"pairs": len(action_pairs), "violations": violations,
            "witnesses": witnesses, "passed": violations == 0}


# ----------------------------------------------------------------------
# reductivity and equivariance
# ----------------------------------------------------------------------

def check_reductive(gf: GF, dart_fn, mode: str, samples: int = 0, rng=None,
                    max_witnesses: int = 5) -> dict:
    """Check that equivalent vertices receive equal voltages from any common
    neighbour: for u ~ v (same normalised class) and w adjacent to v, w is
    adjacent to u and voltage(w, u) == voltage(w, v).

    Exhaustive mode enumerates the affine graph and iterates all such
    triples (only feasible for small fields); sample mode draws random
    rescalings of random vertices.
    """
    violations = 0
    witnesses = []
    checked = 0
    if mode == "exhaustive":
        graph = build_affine_graph(gf)
        classes: dict = {}
        for i, vert in enumerate(graph.vertices):
            classes.setdefault(reduct_class(gf, vert), []).append(i)
        for members in classes.values():
            for ui in members:
                for vi in members:
                    if ui == vi:
                        continue
                    u, v = graph.vertices[ui], graph.vertices[vi]
                    for wi in graph.neighbors(vi):
                        w = graph.vertices[int(wi)]
                        checked += 1
                        if not adjacent(gf, w, u) or dart_fn(w, u) != dart_fn(w, v):
                            violations += 1
                            if len(witnesses) < max_witnesses:
                                witnesses.append({"u": u, "v": v, "w": w})
    elif mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        for _ in range(samples):
            v0, h0 = random_affine_vertex(gf, rng)
            lam = 1 + rng.randrange(gf.order - 1)
            mu = 1 + rng.randrange(gf.order - 1)
            u = (vec_scale(gf, lam, v0), vec_scale(gf, mu, h0))
            v = (v0, h0)
            w = random_neighbor(gf, v, rng)
            if w is None:
                continue
            checked += 1
            if not adjacent(gf, w, u) or dart_fn(w, u) != dart_fn(w, v):
                violations += 1
                if len(witnesses) < max_witnesses:
                    witnesses.append({"u": u, "v": v, "w": w})
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {"check": "reductive", "field": gf.order, "mode": mode,
            "samples": checked, "violations": violations,
            "witnesses": witnesses, "passed": violations == 0}


def check_equivariance(gf: GF, dart_fn, actions, mode: str, samples: int = 0,
                       rng=None, table: DartTable | None = None,
                       max_witnesses: int = 5) -> dict:
    """Check voltage equivariance: the voltage of the image dart equals the
    induced action on the voltage of the dart, for every supplied matrix.

    Exhaustive mode runs over all darts of an enumerated affine graph
    through its packed table; sample mode draws random darts lazily.
    """
    violations = 0
    checked = 0
    witnesses = []
    if mode == "exhaustive":
        if table is None:
            raise ValueError("exhaustive mode needs a dart table")
        g = table.graph
        for act in actions:
            perm = [vertex_image_index(table, act, i) for i in range(g.n)]
            for u in range(g.n):
                lo, hi = table.indptr[u], table.indptr[u + 1]
                for pos in range(lo, hi):
                    v = int(table.indices[pos])
                    if v < u:
                        continue
                    checked += 1
                    if table.dart(perm[u], perm[v]) != act.on_sym_packed(int(table.volts[pos])):
                        violations += 1
                        if len(witnesses) < max_witnesses:
                            witnesses.append({"dart": (u, v), "matrix": act.m})
    elif mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        per_action = max(1, samples // max(1, len(actions)))
        for act in actions:
            for _ in range(per_action):
                a = random_affine_vertex(gf, rng)
                b = random_neighbor(gf, a, rng)
                if b is None:
                    continue
                checked += 1
                ga = (act.on_vector(a[0]), act.on_covector(a[1]))
                gb = (act.on_vector(b[0]), act.on_covector(b[1]))
                if dart_fn(ga, gb) != act.on_sym(dart_fn(a, b)):
                    violations += 1
                    if len(witnesses) < max_witnesses:
                        witnesses.append({"dart": (a, b), "matrix": act.m})
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {"check": "equivariance", "field": gf.order, "mode": mode,
            "samples": checked, "violations": violations,
            "witnesses": witnesses, "passed": violations == 0}
