import copy
import functools
import inspect
import itertools
import random

import numpy as np
import pytest

from phcover.field import field_of_order
from phcover.linalg import random_gl4, random_sl4
from phcover import construction as cons
from phcover import graphs as gr
from phcover import multilinear as ml
from phcover import voltage as vg
from helpers import mat_mul, pairs, stack, subgraph, vertex_index
from test_graphs import normalize
from test_multilinear import on_sym_packed_array


def ell(gf):
    return lambda a, b: cons.dart_voltage(gf, a, b)


IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def vertex_image_index(table, act, i):
    """Reference for vertex_images: the index of the normalised image of
    vertex i, from the scalar actions."""
    g = table.graph
    v, h = g.vertices[i]
    return vertex_index(g)[(normalize(g.gf, act.on_vector(v)), normalize(g.gf, act.on_covector(h)))]


def test_tally_counts_items_and_keeps_the_first_five_witnesses():
    assert vg.tally(iter(())) == (0, 0, [])
    assert vg.tally([None] * 4) == (4, 0, [])
    stream = (w for w in [None, "a", "b", None, "c", "d", "e", "f", None, "g"])
    assert vg.tally(stream) == (10, 7, ["a", "b", "c", "d", "e"])


def test_tally_takes_a_pass_mask_and_a_witness_builder():
    passed = np.array([True, False, False, True, False, False, False, False, True, False])
    assert vg.tally(passed, lambda i: "abcdefghij"[i]) == (10, 7, ["b", "c", "e", "f", "g"])
    assert vg.tally(np.ones(4, dtype=bool), lambda i: i) == (4, 0, [])
    assert vg.tally(np.zeros(0, dtype=bool), lambda i: i) == (0, 0, [])
    # the witness builder gets plain int indices
    assert vg.tally(np.array([False]), lambda i: type(i)) == (1, 1, [int])


def test_f2_span_basics():
    span = vg.F2Span()
    assert span.dim == 0
    assert span.add(0b101)
    assert span.add(0b011)
    assert not span.add(0b110)
    assert span.contains(0b110)
    assert not span.contains(0b100)
    assert span.dim == 2


def test_path_voltage_empty_and_two_cycle():
    gf = field_of_order(4)
    rng = random.Random(0)
    a = gr.random_affine_vertex(gf, rng)
    b = gr.random_neighbor(gf, a, rng)
    assert vg.path_voltage(gf, ell(gf), ()) == ml.ZERO21
    assert vg.path_voltage(gf, ell(gf), (a,)) == ml.ZERO21
    assert vg.path_voltage(gf, ell(gf), (a, b)) == ell(gf)(a, b)
    assert vg.path_voltage(gf, ell(gf), (a, b, a)) == ml.ZERO21


def test_path_voltage_of_a_long_path():
    # the fold keeps a bounded chain of lazy sums: a path of 10^5 darts
    # and more adds up without unwinding one C frame per dart
    gf = field_of_order(4)
    rng = random.Random(2)
    a = gr.random_affine_vertex(gf, rng)
    b = gr.random_neighbor(gf, a, rng)
    volt = ell(gf)(a, b)
    path = (a, b) * 100_000
    assert vg.path_voltage(gf, lambda x, y: volt, path) == volt
    assert vg.path_voltage(gf, lambda x, y: volt, path + (a,)) == ml.ZERO21


def test_path_voltage_concatenation():
    gf = field_of_order(4)
    rng = random.Random(1)
    for _ in range(10):
        walk = gr.sample_closed_walk(gf, 6, rng)
        full = vg.path_voltage(gf, ell(gf), walk + (walk[0],))
        first = vg.path_voltage(gf, ell(gf), walk[:4])
        second = vg.path_voltage(gf, ell(gf), walk[3:] + (walk[0],))
        assert full == ml.sym_add(first, second)


def test_path_voltage_reversal_invariant():
    gf = field_of_order(8)
    rng = random.Random(20)
    for _ in range(10):
        walk = gr.sample_closed_walk(gf, 5, rng)
        path = walk + (walk[0],)
        assert vg.path_voltage(gf, ell(gf), path) == \
            vg.path_voltage(gf, ell(gf), tuple(reversed(path)))


def test_path_voltage_rejects_non_adjacent():
    gf = field_of_order(2)
    a = ((1, 0, 0, 0), (1, 0, 0, 0))
    c = ((1, 0, 0, 0), (1, 1, 0, 0))
    with pytest.raises(ValueError):
        vg.path_voltage(gf, ell(gf), (a, c))


def test_triangle_voltage_is_u():
    for q in (2, 4, 8):
        gf = field_of_order(q)
        rng = random.Random(q)
        for _ in range(20):
            tri = gr.sample_triangle(gf, rng)
            assert vg.path_voltage(gf, ell(gf), tri + (tri[0],)) == ml.big_u(gf)


@functools.lru_cache(maxsize=None)
def _cover_arrays():
    """The GF(2) cover: its (base, tag) labels, their sorted lift keys, its
    edges, and the index of v0."""
    gf = field_of_order(2)
    data = cons.cover_data()
    verts = data["vertices"]
    keys = vg.lift_keys(gf, verts[:, 0], verts[:, 1])
    return verts, keys, data["edges"], vertex_index(data["graph"])[cons.vertex_v0(gf)]


def test_lift_adjacent_definition():
    # (a, m) and (b, n) are adjacent in the lift exactly when a ~ b and
    # m + n = voltage(a, b) modulo U: over every base edge, every pair of
    # tags of the two fibres is tested, and the pairs that pass are the
    # cover's edges, one over each base edge at each lift vertex
    gf = field_of_order(2)
    table = cons.cover_data()["table"]
    verts, _, edges, _ = _cover_arrays()
    # labels sort by base, 64 to a base
    assert verts[:, 0].tolist() == np.repeat(np.arange(table.graph.n), 64).tolist()
    fibre = verts[:, 1].astype(np.uint64).reshape(table.graph.n, 64)
    want = []
    src = table.graph.dart_sources()
    for a, b, volt in zip(src.tolist(), table.indices.tolist(), table.volts.tolist()):
        if a < b:
            m, n = fibre[a][:, None], fibre[b][None, :]
            hit = ml.n_project_packed(gf, m ^ n) == ml.n_project_packed(gf, [volt])
            assert (hit.sum(axis=0) == 1).all() and (hit.sum(axis=1) == 1).all()
            r, c = np.nonzero(hit)
            want.append(np.stack([64 * a + r, 64 * b + c], axis=1))
    want = np.concatenate(want)
    assert sorted(map(tuple, want.tolist())) == list(map(tuple, edges.tolist()))


def test_lifted_path_endpoint():
    # walking a lifted path along the cover's edges from (v0, m) lands on
    # (vn, voltage + m) modulo U
    gf = field_of_order(2)
    graph = cons.cover_data()["graph"]
    verts, _, edges, _ = _cover_arrays()
    base = verts[:, 0].tolist()
    step = {}
    for i, j in edges.tolist():
        step[i, base[j]], step[j, base[i]] = j, i
    rng = random.Random(3)
    for _ in range(10):
        walk = gr.sample_closed_walk(gf, 5, rng)
        at = 64 * vertex_index(graph)[walk[0]] + rng.randrange(64)
        m = int(verts[at, 1])
        for b in walk[1:]:
            at = step[at, vertex_index(graph)[b]]
        total = ml.pack_sym(gf, vg.path_voltage(gf, ell(gf), walk))
        assert verts[at].tolist() == [vertex_index(graph)[walk[-1]],
                                      int(ml.n_project_packed(gf, total ^ m))]


# ----------------------------------------------------------------------
# dart tables, spanning trees, fundamental cycles
# ----------------------------------------------------------------------

def test_dart_table_matches_scalar_voltages():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    table = cons.voltage_table(graph)
    rng = random.Random(4)
    for _ in range(200):
        i = rng.randrange(graph.n)
        nbrs = graph.neighbors(i)
        j = int(nbrs[rng.randrange(len(nbrs))])
        want = ml.pack_sym(gf, cons.dart_voltage(gf, graph.vertices[i], graph.vertices[j]))
        assert table.dart(i, j) == want


def test_dart_table_rejects_non_adjacent():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    table = cons.voltage_table(graph)
    # a loop, and rows past either end of the table
    for i, j in ((0, 0), (graph.n, 3), (-1, 3)):
        with pytest.raises(ValueError, match="not adjacent"):
            table.dart(i, j)
    # every ordered pair: a lookup succeeds exactly on the adjacent ones
    for i in range(graph.n):
        for j in range(graph.n):
            if j in graph.neighbors(i):
                table.dart(i, j)
            else:
                with pytest.raises(ValueError, match="not adjacent"):
                    table.dart(i, j)


def test_dart_lookup_first_in_a_row_may_be_non_adjacent():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    built = cons.voltage_table(graph)
    table = vg.DartTable(graph, built.volts)
    # the row is kept by the failed lookup, and later lookups read it
    with pytest.raises(ValueError, match="vertices 5 and 5 are not adjacent"):
        table.dart(5, 5)
    j = int(graph.neighbors(5)[3])
    assert table.dart(5, j) == int(built.volts[built.indptr[5] + 3])
    with pytest.raises(ValueError, match="not adjacent"):
        table.dart(5, 5)


def test_dart_lookups_repeat_on_a_kept_row():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    built = cons.voltage_table(graph)
    table = vg.DartTable(graph, built.volts)
    for i in (0, 57, graph.n - 1):
        lo, hi = int(table.indptr[i]), int(table.indptr[i + 1])
        nbrs = graph.neighbors(i).tolist()
        first = [table.dart(i, j) for j in nbrs]
        assert first == built.volts[lo:hi].tolist()
        assert [table.dart(i, j) for j in nbrs] == first
        assert all(type(v) is int for v in first)
        for j in range(graph.n):
            if j not in nbrs:
                with pytest.raises(ValueError, match="not adjacent"):
                    table.dart(i, j)
        assert [table.dart(i, j) for j in reversed(nbrs)] == first[::-1]


def test_fundamental_cycles_of_single_edge_graph():
    gf = field_of_order(2)
    verts = [((1, 0, 0, 0), (1, 0, 0, 0)), ((0, 0, 1, 0), (0, 0, 1, 0))]
    g = gr.Graph(gf, *stack(verts))
    table = cons.voltage_table(g)
    res = vg.fundamental_cycle_span(table, 0)
    assert res["span"].dim == 0
    assert res["nontree_edges"] == 0


def test_fundamental_cycle_span_gf2():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    res = vg.fundamental_cycle_span(table, 0,
                                    member_fn=lambda x: ml.packed_in_w2_plus_u(gf, x))
    assert res["violations"] == 0
    assert res["nontree_edges"] == 1680 - 119
    span = res["span"]
    assert span.contains(ml.u_packed(gf))
    span.add(ml.u_packed(gf))
    assert span.dim - 1 == 6


def test_sampled_closed_walks_lie_in_fundamental_span():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    res = vg.fundamental_cycle_span(table, 0)
    span = res["span"]
    rng = random.Random(5)
    for _ in range(30):
        walk = gr.sample_closed_walk(gf, rng.choice((3, 4, 5, 6)), rng)
        volt = vg.path_voltage(gf, ell(gf), walk + (walk[0],))
        assert span.contains(ml.pack_sym(gf, volt))


def test_potentials_follow_tree_edges():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    parent, pot = vg.spanning_tree_potentials(table, 0)
    assert parent[0] == -1
    for v in range(1, table.graph.n):
        p = int(parent[v])
        assert v in table.graph.neighbors(p)
        assert int(pot[v]) == int(pot[p]) ^ table.dart(p, v)


def _queue_bfs_tree(table, root):
    """Reference spanning tree: a first-in-first-out queue scan of the CSR
    rows, each vertex's parent being the first scanned vertex that sees it."""
    from collections import deque

    n = table.graph.n
    parent, pot, seen = [-1] * n, [0] * n, [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for pos in range(int(table.indptr[u]), int(table.indptr[u + 1])):
            v = int(table.indices[pos])
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                pot[v] = pot[u] ^ int(table.volts[pos])
                queue.append(v)
    assert all(seen)
    return parent, pot


def test_spanning_tree_matches_queue_bfs():
    gf2 = gr.build_affine_graph(field_of_order(2))
    star = [0] + gf2.neighbors(0)[:12].tolist()
    random.Random(13).shuffle(star)
    # a sparse induced subgraph four levels deep from vertex 0: past the
    # second level, the order of a frontier decides the parents
    sparse = subgraph(gf2, random.Random(4).sample(range(gf2.n), 20))
    assert gr.bfs(sparse, 0).max() >= 3
    cases = [(gf2, (0, 77)),
             (subgraph(gf2, star), (0, 12)),
             (sparse, (0, 19)),
             (cons._rational_subgraph_with_twists(field_of_order(8)), (0, 50)),
             (cons._rational_subgraph_with_twists(field_of_order(16)), (0, 50)),
             (gr.build_projective_graph(field_of_order(4)), (1234,))]
    for graph, roots in cases:
        table = cons.voltage_table(graph)
        for root in roots:
            parent, pot = vg.spanning_tree_potentials(table, root)
            want_parent, want_pot = _queue_bfs_tree(table, root)
            assert parent.tolist() == want_parent
            assert [int(x) for x in pot] == want_pot
            assert pot.dtype == (object if graph.gf.k > 3 else "uint64")


@pytest.mark.parametrize("q", (2, 4, 16))
def test_tree_and_span_are_the_same_at_any_block_size(q, monkeypatch):
    gf = field_of_order(q)
    graph = (cons._rational_subgraph_with_twists(gf) if q == 16
             else gr.build_projective_graph(gf))
    table = cons.voltage_table(graph)

    def run(root):
        parent, pot = vg.spanning_tree_potentials(table, root)
        # a third of the voltages fail, so the witnesses and their order count
        res = vg.fundamental_cycle_span(table, root, member_fn=lambda x: x % 3 != 0)
        res["span"] = res["span"].pivots
        return parent.tolist(), [int(x) for x in pot], res

    roots = (0, graph.n - 1)
    want = [run(root) for root in roots]
    assert want[0][2]["violations"] > 5
    # a block of 7 darts holds one long frontier row or a few short ones
    monkeypatch.setattr(gr, "BULK_BLOCK", 7)
    assert [run(root) for root in roots] == want


def test_spanning_tree_follows_its_table():
    # one bit of a tree edge's voltage flipped in place, on both darts
    graph = gr.build_affine_graph(field_of_order(2))
    table = vg.DartTable(graph, cons.voltage_table(graph).volts.copy())
    parent, before = vg.spanning_tree_potentials(table, 0)
    v = int(np.flatnonzero(parent >= 0)[0])
    for a, b in ((int(parent[v]), v), (v, int(parent[v]))):
        lo = int(table.indptr[a])
        table.volts[lo + table.indices[lo:table.indptr[a + 1]].tolist().index(b)] ^= np.uint64(1)
    parent, pot = vg.spanning_tree_potentials(table, 0)
    want_parent, want_pot = _queue_bfs_tree(table, 0)
    assert parent.tolist() == want_parent
    assert [int(x) for x in pot] == want_pot
    assert pot[v] == before[v] ^ 1


def test_spanning_tree_refuses_disconnected_graph():
    gf = field_of_order(2)
    # f1(e1) = 1: neither vertex's covector kills the other's vector
    pair = gr.Graph(gf, *stack([((1, 0, 0, 0), (1, 0, 0, 0)), ((1, 0, 0, 0), (1, 1, 0, 0))]))
    # a star around vertex 0 and one vertex adjacent to none of it
    big = gr.build_affine_graph(gf)
    star = [0] + big.neighbors(0)[:5].tolist()
    lone = next(j for j in range(big.n)
                if j not in star and not any(j in big.neighbors(i) for i in star))
    for graph in (pair, subgraph(big, star + [lone])):
        table = cons.voltage_table(graph)
        with pytest.raises(ValueError, match="not connected"):
            vg.spanning_tree_potentials(table, 0)


# ----------------------------------------------------------------------
# lift components and local isomorphism
# ----------------------------------------------------------------------

def test_component_zero_voltage_is_base():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    table = cons.voltage_table(graph)
    zero_table = vg.DartTable(graph, table.volts * 0)
    verts = vg.component_of(zero_table, 0)["vertices"]
    assert verts.shape == (graph.n, 2)
    assert sorted(verts[:, 0].tolist()) == list(range(graph.n))


def _queue_component(table, root):
    """Reference lift BFS: a first-in-first-out queue of (base, tag) keys."""
    from collections import deque

    up = ml.u_packed(table.gf)
    start = (root, 0)
    verts, seen, queue = [start], {start}, deque([start])
    while queue:
        u, tag = queue.popleft()
        for pos in range(int(table.indptr[u]), int(table.indptr[u + 1])):
            t = tag ^ int(table.volts[pos])
            key = (int(table.indices[pos]), min(t, t ^ up))
            if key not in seen:
                seen.add(key)
                verts.append(key)
                queue.append(key)
    return verts


def test_component_matches_queue_bfs():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    comp = vg.component_of(table, 5)
    assert list(comp) == ["vertices"]
    verts = comp["vertices"]
    assert verts.shape == (7680, 2) and verts.dtype == np.int64
    assert verts[:3].tolist() == [[5, 0], [17, 2306], [19, 3395]]
    assert list(map(tuple, verts.tolist())) == _queue_component(table, 5)
    assert set(np.bincount(verts[:, 0]).tolist()) == {64} and verts[:, 0].max() == 119


def _stable_sort_component(table, root):
    """Reference component_of: each level's keys after the seen ones, the
    first entry of each key found by a stable argsort."""
    gf = table.gf
    queue_b = np.array([root], dtype=np.int64)
    queue_t = np.zeros(1, dtype=np.uint64)
    seen = vg.lift_keys(gf, queue_b, queue_t)
    head = 0
    while head < queue_b.size:
        slot, pos = gr.frontier_darts(table.indptr, queue_b[head:])
        nb = table.indices[pos].astype(np.int64)
        nt = ml.n_project_packed(gf, queue_t[head + slot] ^ table.volts[pos])
        head = queue_b.size
        keys = np.concatenate([seen, vg.lift_keys(gf, nb, nt)])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.concatenate([[True], keys[1:] != keys[:-1]])
        fresh = order[first] - seen.size
        fresh = np.sort(fresh[fresh >= 0])
        seen = keys[first]
        queue_b = np.concatenate([queue_b, nb[fresh]])
        queue_t = np.concatenate([queue_t, nt[fresh]])
    return np.stack([queue_b, queue_t.astype(np.int64)], axis=1)


def test_component_matches_the_stable_sort_reference(monkeypatch):
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    # a zero table: the lift is the base graph, one tag throughout
    zero = vg.DartTable(table.graph, table.volts * 0)
    for tab, root in [(table, 0), (table, 5), (table, 119), (table, 60), (table, 33), (zero, 7)]:
        want = _stable_sort_component(tab, root)
        # capped at the reference's size, so that a lift that queues a key
        # twice fails at once
        monkeypatch.setattr(vg, "LIFT_CAP", len(want))
        assert np.array_equal(vg.component_of(tab, root)["vertices"], want)


def test_component_cap_guard(monkeypatch):
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    monkeypatch.setattr(vg, "LIFT_CAP", 1000)
    with pytest.raises(vg.CapExceeded):
        vg.component_of(table, 0)
    # the cap bounds the vertex count exactly
    monkeypatch.setattr(vg, "LIFT_CAP", 7680)
    assert len(vg.component_of(table, 0)["vertices"]) == 7680
    monkeypatch.setattr(vg, "LIFT_CAP", 7679)
    with pytest.raises(vg.CapExceeded):
        vg.component_of(table, 0)


@pytest.mark.parametrize("q", [2, 4])
def test_lift_keys_sort_and_find_pairs(q):
    gf = field_of_order(q)
    top = (1 << (21 * gf.k)) - 1  # the widest tag
    # bases sharing tags, up to the largest base below ADJ_CAP
    pairs = [(b, t) for b in (0, 3, 9, gr.ADJ_CAP - 1) for t in (5, 1 << (21 * gf.k - 1), top)]
    pairs.remove((3, 5))
    rng = np.random.default_rng(q)
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    b = np.array([p[0] for p in pairs])
    t = np.array([p[1] for p in pairs], dtype=np.uint64)
    keys = vg.lift_keys(gf, b, t)
    assert keys.dtype == np.uint64
    # sorted keys are the lexsort order of (base, tag)
    assert np.argsort(keys).tolist() == np.lexsort((t, b)).tolist()
    keys = np.sort(keys)
    ordered = sorted(pairs)
    # absent pairs, one a tag shared by other bases, give -1
    queries = ordered[::-1] + [(3, 5), (0, 6), (9, top - 1), (10, 5), (gr.ADJ_CAP - 1, 0)]
    qb = np.array([p[0] for p in queries])
    qt = np.array([p[1] for p in queries], dtype=np.uint64)
    want = [ordered.index(p) if p in ordered else -1 for p in queries]
    assert gr.find_sorted(keys, vg.lift_keys(gf, qb, qt)).tolist() == want


@pytest.mark.parametrize("q", [8, 16])
def test_lift_keys_refuse_wide_tags(q):
    with pytest.raises(ValueError, match="do not fit"):
        vg.lift_keys(field_of_order(q), np.array([0]), np.array([1], dtype=np.uint64))


def test_component_cap_guard_gf4(monkeypatch):
    gf = field_of_order(4)
    table = cons.voltage_table(gr.build_projective_graph(gf))
    monkeypatch.setattr(vg, "LIFT_CAP", 2000)
    with pytest.raises(vg.CapExceeded):
        vg.component_of(table, 0)


def test_local_isomorphism_on_cover():
    data = cons.cover_data()
    rep = vg.verify_local_isomorphism(data["table"], data["component"])
    assert rep["passed"] and rep["mode"] == "direct"
    assert list(inspect.signature(vg.verify_local_isomorphism).parameters) == ["table", "component"]
    assert not hasattr(vg, "pair_arrays")
    # every lift vertex times the 84 base triangles through its base, and
    # times its 28 base neighbours in the bijectivity pass
    assert (rep["samples"], rep["violations"]) == (7680 * 84 + 7680 * 28, 0)


def _corrupted_gf2_table():
    """The GF(2) dart table with one dart pair flipped to a non-U
    off-diagonal voltage."""
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    table = cons.voltage_table(graph)
    volts = table.volts.copy()
    i = 0
    j = int(graph.neighbors(0)[0])
    bad = np.uint64(ml.pack_sym(gf, ml.sym_mul(gf, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))))
    for a, b in ((i, j), (j, i)):
        lo, hi = table.indptr[a], table.indptr[a + 1]
        pos = lo + int(np.searchsorted(table.indices[lo:hi], b))
        volts[pos] ^= bad
    return vg.DartTable(graph, volts)


def test_local_isomorphism_detects_corruption():
    component = cons.cover_data()["component"]
    rep = vg.verify_local_isomorphism(_corrupted_gf2_table(), component)
    assert not rep["passed"] and rep["violations"] > 0
    assert (rep["samples"], rep["violations"]) == (860160, 1280)


def test_local_isomorphism_is_the_same_at_any_block_size(monkeypatch):
    data = cons.cover_data()
    truncated = {"vertices": data["component"]["vertices"][:-64]}
    cases = [(data["table"], data["component"]), (_corrupted_gf2_table(), data["component"]),
             (data["table"], truncated)]
    want = [vg.verify_local_isomorphism(*case) for case in cases]
    assert [(r["samples"], r["violations"]) for r in want] == [
        (860160, 0), (860160, 1280), (852992, 1766)]
    monkeypatch.setattr(gr, "BULK_BLOCK", 7)
    assert [vg.verify_local_isomorphism(*case) for case in cases] == want


def _per_item_report(table, cycles, passes, key):
    """Reference for the exhaustive cycle checks: one cycle at a time, its
    voltage the XOR of its table darts; returns (samples, violations,
    witnesses)."""
    checked = violations = 0
    witnesses = []
    for cyc in cycles:
        checked += 1
        volt = 0
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            volt ^= table.dart(a, b)
        if not passes(volt):
            violations += 1
            if len(witnesses) < 5:
                witnesses.append({key: cyc, "voltage": volt})
    return checked, violations, witnesses


def _gf2_cycles(graph):
    """The triangles i < j < w and the 4-cycles (i, a, j, b) with i < j and
    a < b of a graph, in lexicographic order, from neighbour sets."""
    nbrs = [set(graph.neighbors(i).tolist()) for i in range(graph.n)]
    triangles = [(i, j, w) for i in range(graph.n) for j in sorted(nbrs[i]) if j > i
                 for w in sorted(nbrs[i] & nbrs[j]) if w > j]
    quadrangles = [(i, a, j, b) for i in range(graph.n) for j in range(i + 1, graph.n)
                   for a, b in itertools.combinations(sorted(nbrs[i] & nbrs[j]), 2)]
    return triangles, quadrangles


def _exhaustive_cycle_cases(monkeypatch):
    """The GF(2) cycle checks on the corrupted table, with their per-item
    references."""
    gf = field_of_order(2)
    corrupted = _corrupted_gf2_table()
    monkeypatch.setattr(cons, "voltage_table", lambda graph: corrupted)
    triangles, quadrangles = _gf2_cycles(corrupted.graph)
    u = ml.u_packed(gf)
    return [
        (lambda: cons.verify_triangles(gf, "exhaustive"),
         _per_item_report(corrupted, triangles, lambda x: x == u, "triangle")),
        (lambda: cons.verify_quadrangles(gf, "exhaustive"),
         _per_item_report(corrupted, quadrangles, lambda x: ml.packed_in_w2_plus_u(gf, x),
                          "cycle"))]


def test_exhaustive_triangles_detect_corruption(monkeypatch):
    # the triangle lemma's check reads the same corrupted table: the flipped
    # edge lies on 6 of the 3360 triangles, whose voltage is then not U
    (run, want), _ = _exhaustive_cycle_cases(monkeypatch)
    rep = run()
    assert (rep["samples"], rep["violations"], rep["passed"]) == (3360, 6, False)
    assert (rep["samples"], rep["violations"], rep["witnesses"]) == want
    assert all(set(w) == {"triangle", "voltage"} for w in rep["witnesses"])


def test_exhaustive_quadrangles_detect_corruption(monkeypatch):
    # the flipped w1*w2 is off-diagonal and not U, so every 4-cycle through
    # the flipped edge leaves the squares plus U
    _, (run, want) = _exhaustive_cycle_cases(monkeypatch)
    rep = run()
    assert not rep["passed"] and rep["samples"] == 138600 and rep["violations"] > 5
    assert (rep["samples"], rep["violations"], rep["witnesses"]) == want


def test_exhaustive_quadrangles_accept_the_u_coset(monkeypatch):
    # one dart pair shifted by U: its triangles lose U, while its 4-cycles
    # stay in the squares plus U, by their U part
    gf = field_of_order(2)
    good = cons.voltage_table(gr.build_affine_graph(gf))
    volts = good.volts.copy()
    j = int(good.graph.neighbors(0)[0])
    for a, b in ((0, j), (j, 0)):
        lo = good.indptr[a]
        volts[lo + int(np.searchsorted(good.indices[lo:good.indptr[a + 1]], b))] ^= \
            np.uint64(ml.u_packed(gf))
    shifted = vg.DartTable(good.graph, volts)
    monkeypatch.setattr(cons, "voltage_table", lambda graph: shifted)
    _, quadrangles = _gf2_cycles(good.graph)
    rep = cons.verify_quadrangles(gf, "exhaustive")
    assert rep["passed"] and rep["samples"] == 138600
    assert _per_item_report(shifted, quadrangles, lambda x: ml.packed_in_w2_plus_u(gf, x),
                            "cycle") == (138600, 0, [])
    assert cons.verify_triangles(gf, "exhaustive")["violations"] == 6


def test_exhaustive_cycle_checks_are_the_same_at_any_block_size(monkeypatch):
    cases = _exhaustive_cycle_cases(monkeypatch)
    want = [run() for run, _ in cases]
    assert [(r["samples"], r["violations"], r["witnesses"]) for r in want] == \
        [ref for _, ref in cases]
    monkeypatch.setattr(gr, "BULK_BLOCK", 7)
    assert [run() for run, _ in cases] == want


def test_local_isomorphism_direct_detects_missing_vertices():
    data = cons.cover_data()
    truncated = {"vertices": data["component"]["vertices"][:-64]}
    rep = vg.verify_local_isomorphism(data["table"], truncated)
    assert not rep["passed"] and rep["violations"] > 0
    assert (rep["samples"], rep["violations"]) == (852992, 1766)


# ----------------------------------------------------------------------
# the extension action on the GF(2) cover
# ----------------------------------------------------------------------

def act_lift(gf, act, perm, b, t, c):
    """The lift of (g, c), g = act with vertex images perm, on the lift
    vertices (b, t): (perm[b], N(N(g t) + c))."""
    gt = ml.n_project_packed(gf, on_sym_packed_array(act, t))
    return perm[b], ml.n_project_packed(gf, gt ^ np.uint64(c))


def _lift_positions(act, perm, c):
    """The position of the image of each cover vertex under the lift of
    (g, c) among the cover's sorted keys; -1 where the image is not in
    the component."""
    gf = field_of_order(2)
    verts, keys, _, _ = _cover_arrays()
    b, t = act_lift(gf, act, perm, verts[:, 0], verts[:, 1], c)
    return gr.find_sorted(keys, vg.lift_keys(gf, b, t))


def _maps_cover_onto_itself(pos):
    """Whether the vertex map pos is a bijection of the cover's vertices
    that takes its edges onto its edges."""
    verts, _, edges, _ = _cover_arrays()
    n = len(verts)
    if not np.array_equal(np.sort(pos), np.arange(n)):
        return False
    moved = np.sort(pos[edges], axis=1)
    # the edges are sorted, as are their codes i n + j
    return np.array_equal(np.sort(moved[:, 0] * n + moved[:, 1]), edges[:, 0] * n + edges[:, 1])


def _smallest_tag_over(b):
    """The smallest tag of the cover over the base b: the tag c that the
    lift of g needs when g takes v0 to b."""
    verts = _cover_arrays()[0]
    return int(verts[np.searchsorted(verts[:, 0], b), 1])


def _transvections(gf):
    """The 12 elementary transvections E_ij(1), i != j."""
    out = []
    for i, j in itertools.permutations(range(4), 2):
        m = [list(row) for row in IDENTITY]
        m[i][j] = 1
        out.append(tuple(map(tuple, m)))
    return out


def test_act_lift_matches_the_scalar_formula():
    # (g, c) maps (b, t) to (perm_g[b], N(N(g t) + c)), against the scalar
    # vertex action and the tuple action on tags
    gf = field_of_order(2)
    table = cons.cover_data()["table"]
    verts = _cover_arrays()[0]
    rng = random.Random(5)
    up = ml.u_packed(gf)
    for _ in range(5):
        act = ml.action(gf, random_sl4(gf, rng))
        perm = vg.vertex_images(table, [act])[0]
        c = rng.getrandbits(21)
        rows = verts[rng.sample(range(len(verts)), 100)]
        b, t = act_lift(gf, act, perm, rows[:, 0], rows[:, 1], c)
        for (bi, ti), bj, tj in zip(rows.tolist(), b.tolist(), t.tolist()):
            gt = ml.pack_sym(gf, act.on_sym(ml.unpack_sym(gf, ti)))
            assert bj == vertex_image_index(table, act, bi)
            assert tj == min(gt ^ c, gt ^ c ^ up)


def test_act_lift_identity():
    gf = field_of_order(2)
    ident = ml.action(gf, IDENTITY)
    perm = vg.vertex_images(cons.cover_data()["table"], [ident])[0]
    pos = _lift_positions(ident, perm, 0)
    assert pos.tolist() == list(range(len(pos)))


def test_act_lift_preserves_adjacency():
    # each transvection, with c the smallest tag over the image of v0, maps
    # the 7680 vertices one-to-one onto the component and the 107,520
    # edges onto themselves
    gf = field_of_order(2)
    table = cons.cover_data()["table"]
    v0 = _cover_arrays()[3]
    actions = [ml.action(gf, m) for m in _transvections(gf)]
    assert len(actions) == 12
    for act, perm in zip(actions, vg.vertex_images(table, actions)):
        assert _maps_cover_onto_itself(_lift_positions(act, perm, _smallest_tag_over(perm[v0])))


def test_act_lift_needs_the_right_fibre():
    # negative control: c moved off the fibre over the image of v0, by
    # bit 19 (slot w1w2, off the diagonal), takes every vertex out of the
    # component; bit 0 (slot w6w6) lies in M and moves c within the fibre
    gf = field_of_order(2)
    table = cons.cover_data()["table"]
    v0 = _cover_arrays()[3]
    act = ml.action(gf, _transvections(gf)[0])
    perm = vg.vertex_images(table, [act])[0]
    c = _smallest_tag_over(perm[v0])
    assert ml.SYM_PAIRS[20 - 19] == (0, 1) and ml.SYM_PAIRS[20 - 0] == (5, 5)
    assert (_lift_positions(act, perm, c ^ (1 << 19)) < 0).all()
    assert _maps_cover_onto_itself(_lift_positions(act, perm, c ^ 1))


def test_deck_translations_preserve_the_cover():
    # the identity with c any of the 64 tags over v0 maps the cover onto
    # itself, and moves every vertex unless c = 0
    gf = field_of_order(2)
    verts, _, _, v0 = _cover_arrays()
    ident = ml.action(gf, IDENTITY)
    perm = np.arange(len(verts) // 64)
    deck = verts[verts[:, 0] == v0, 1].tolist()
    assert len(deck) == 64 and deck[0] == 0
    for c in deck:
        pos = _lift_positions(ident, perm, c)
        assert _maps_cover_onto_itself(pos)
        fixed = pos == np.arange(len(pos))
        assert fixed.all() if c == 0 else not fixed.any()


def test_extension_composition_law():
    # the lift of (h, k2) after that of (g, k1) is the lift of
    # (gh, N(k1^h + k2)), on every GF(4) base vertex with seeded tags
    gf = field_of_order(4)
    table = cons.voltage_table(gr.build_projective_graph(gf))
    rng = random.Random(7)
    b = np.arange(table.graph.n)
    t = np.array([rng.getrandbits(42) for _ in b], dtype=np.uint64)
    for _ in range(5):
        g = ml.action(gf, random_sl4(gf, rng))
        h = ml.action(gf, random_sl4(gf, rng))
        gh = ml.action(gf, mat_mul(gf, g.m, h.m))
        k1, k2 = rng.getrandbits(42), rng.getrandbits(42)
        pg, ph, pgh = vg.vertex_images(table, [g, h, gh])
        one_then_two = act_lift(gf, h, ph, *act_lift(gf, g, pg, b, t, k1), k2)
        kprod = int(ml.n_project_packed(gf, on_sym_packed_array(h, [k1]) ^ np.uint64(k2))[0])
        product = act_lift(gf, gh, pgh, b, t, kprod)
        assert all(np.array_equal(x, y) for x, y in zip(one_then_two, product))


# ----------------------------------------------------------------------
# lambda and the stabilizer cocycle
# ----------------------------------------------------------------------

def test_lambda_identity_is_zero():
    # lambda(g), the tree-path voltage from v0 to g(v0) modulo U, is a tag
    # over g(v0), so it can serve as c; for the identity it is 0
    gf = field_of_order(2)
    table = cons.cover_data()["table"]
    verts, _, _, v0 = _cover_arrays()
    _, pot = vg.spanning_tree_potentials(table, v0)
    actions = [ml.action(gf, m) for m in [IDENTITY] + _transvections(gf)]
    lams = []
    for act, perm in zip(actions, vg.vertex_images(table, actions)):
        lam = int(ml.n_project_packed(gf, [pot[perm[v0]]])[0])
        assert [perm[v0], lam] in verts.tolist()
        lams.append(lam)
    assert lams[0] == 0 == _smallest_tag_over(v0)


def test_lambda_choice_shifts_by_cycle_span():
    # the path voltages from the image of v0 back to v0, through u or
    # along the BFS tree from v0, differ by an element of W2 + U
    gf = field_of_order(4)
    graph = gr.build_projective_graph(gf)
    table = cons.voltage_table(graph)
    v0 = vertex_index(graph)[cons.vertex_v0(gf)]
    u = vertex_index(graph)[cons.vertex_u(gf)]
    _, pot = vg.spanning_tree_potentials(table, v0)
    for x in cons.order4_subgroup(gf)[1:]:
        act = ml.action(gf, cons.ax_matrix(gf, x))
        image = int(vg.vertex_images(table, [act])[0, v0])
        via = table.dart(image, u) ^ table.dart(u, v0)
        assert via == ml.pack_sym(gf, cons.lambda_ax(gf, x))
        assert ml.packed_in_w2_plus_u(gf, via ^ int(pot[image]))


def test_stabilizer_maps_root_into_component():
    # seeded SL4(2) elements g, each with c a seeded tag over g(v0): the
    # lift takes (v0, 0) into the component, and the component onto itself
    gf = field_of_order(2)
    table = cons.cover_data()["table"]
    verts, _, _, v0 = _cover_arrays()
    root = 64 * v0  # (v0, 0): tag 0 is the smallest over v0
    assert verts[root].tolist() == [v0, 0]
    rng = random.Random(8)
    actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(20)]
    for act, perm in zip(actions, vg.vertex_images(table, actions)):
        c = rng.choice(verts[verts[:, 0] == perm[v0], 1].tolist())
        pos = _lift_positions(act, perm, c)
        assert verts[pos[root]].tolist() == [perm[v0], c]
        assert _maps_cover_onto_itself(pos)


def test_stabilizer_cocycle_lands_in_m():
    # for seeded SL4(2) pairs, the lift of h after that of g is a deck
    # translation after the lift of gh: the cocycle is a tag over v0
    gf = field_of_order(2)
    table = cons.cover_data()["table"]
    verts, _, _, v0 = _cover_arrays()
    deck = set(verts[verts[:, 0] == v0, 1].tolist())
    rng = random.Random(9)
    b, t = verts[:, 0], verts[:, 1]
    for _ in range(20):
        g = ml.action(gf, random_sl4(gf, rng))
        h = ml.action(gf, random_sl4(gf, rng))
        gh = ml.action(gf, mat_mul(gf, g.m, h.m))
        pg, ph, pgh = vg.vertex_images(table, [g, h, gh])
        cg, ch, cgh = (_smallest_tag_over(p[v0]) for p in (pg, ph, pgh))
        both = act_lift(gf, h, ph, *act_lift(gf, g, pg, b, t, cg), ch)
        product = act_lift(gf, gh, pgh, b, t, cgh)
        assert np.array_equal(both[0], product[0])
        cocycle = set(ml.n_project_packed(gf, both[1] ^ product[1]).tolist())
        assert len(cocycle) == 1 and cocycle <= deck


# ----------------------------------------------------------------------
# reductivity and equivariance, with negative controls
# ----------------------------------------------------------------------

def test_check_reductive_exhaustive_gf2():
    gf = field_of_order(2)
    rep = vg.check_reductive(gf, ell(gf), graph=gr.build_affine_graph(gf))
    assert rep["passed"] and rep["violations"] == 0


def test_check_reductive_exhaustive_on_rescaled_gf4_vertices():
    # every rescaling of 20 projective GF(4) vertices: classes of 9, so the
    # exhaustive mode has pairs to compare, unlike over GF(2)
    gf = field_of_order(4)
    picked = random.Random(29).sample(pairs(*gr.projective_vertices(gf)), 20)
    verts = [(tuple(gf.mul(lam, c) for c in v), tuple(gf.mul(mu, c) for c in h))
             for v, h in picked for lam in gf.nonzero() for mu in gf.nonzero()]
    graph = gr.Graph(gf, *stack(verts))
    rep = vg.check_reductive(gf, ell(gf), graph=graph)
    assert rep["passed"] and rep["samples"] == 8 * graph.edge_count() * 2 > 0
    bad = vg.check_reductive(gf, lambda a, b: ml.big_u(gf) if b[0] == picked[0][0]
                             else cons.dart_voltage(gf, a, b), graph=graph)
    assert not bad["passed"] and bad["violations"] > 0


def test_check_reductive_sampled_gf4():
    gf = field_of_order(4)
    rep = vg.check_reductive(gf, ell(gf), samples=2000, rng=random.Random(10))
    assert rep["passed"] and rep["samples"] > 1900


def test_check_reductive_negative_control():
    gf = field_of_order(4)
    perturb = ml.square(gf, (1, 0, 0, 0, 0, 0))

    def corrupted(a, b):
        volt = cons.dart_voltage(gf, a, b)
        if normalize(gf, a[0]) != a[0] or normalize(gf, b[0]) != b[0]:
            volt = ml.sym_add(volt, perturb)
        return volt

    rep = vg.check_reductive(gf, corrupted, samples=500, rng=random.Random(11))
    assert rep["violations"] > 0 and not rep["passed"]
    assert rep["witnesses"]


def test_check_equivariance_exhaustive_gf2():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    rng = random.Random(12)
    actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(5)]
    rep = vg.check_equivariance(gf, ell(gf), actions, table=table)
    assert rep["passed"] and rep["samples"] == 5 * 1680


def on_sym_packed(gf, act, x):
    """Reference for the packed images of an action: the tuple action on one packed
    value."""
    return ml.pack_sym(gf, act.on_sym(ml.unpack_sym(gf, x)))


def test_bulk_images_match_on_sym_packed():
    # every GF(2) table voltage under 100 seeded SL4 actions
    gf2 = field_of_order(2)
    volts = cons.voltage_table(gr.build_affine_graph(gf2)).volts
    rng = random.Random(21)
    for _ in range(100):
        act = ml.action(gf2, random_sl4(gf2, rng))
        want = {x: on_sym_packed(gf2, act, x) for x in set(volts.tolist())}
        assert on_sym_packed_array(act, volts).tolist() == [want[x] for x in volts.tolist()]
    # seeded packed values over GF(2), GF(4) and GF(8), 0 and the largest
    # packed value included
    for q in (2, 4, 8):
        gf = field_of_order(q)
        top = 21 * gf.k
        xs = [rng.getrandbits(top) for _ in range(2000)] + [(1 << top) - 1, 1 << (top - 1), 0]
        for _ in range(5):
            act = ml.action(gf, random_sl4(gf, rng))
            images = on_sym_packed_array(act, np.array(xs, dtype=np.uint64))
            assert images.dtype == np.uint64
            assert images.tolist() == [on_sym_packed(gf, act, x) for x in xs]
    # 84 bits do not fit a uint64
    gf16 = field_of_order(16)
    with pytest.raises(ValueError, match="k <= 3"):
        on_sym_packed_array(ml.action(gf16, random_sl4(gf16, rng)), np.zeros(3, dtype=np.uint64))


def _scalar_equivariance(table, actions):
    """Reference exhaustive equivariance: one scalar image per edge and
    action, over the CSR rows; returns the violations and the first five
    witnesses."""
    g = table.graph
    violations, witnesses = 0, []
    for act in actions:
        perm = [vertex_image_index(table, act, i) for i in range(g.n)]
        for u in range(g.n):
            for pos in range(int(table.indptr[u]), int(table.indptr[u + 1])):
                v = int(table.indices[pos])
                if v > u and table.dart(perm[u], perm[v]) != \
                        on_sym_packed(g.gf, act, int(table.volts[pos])):
                    violations += 1
                    if len(witnesses) < 5:
                        witnesses.append({"dart": (u, v), "matrix": act.m})
    return violations, witnesses


def test_check_equivariance_exhaustive_corrupted_table(monkeypatch):
    gf = field_of_order(2)
    good = cons.voltage_table(gr.build_affine_graph(gf))
    volts = good.volts.copy()
    volts[::97] ^= np.uint64(1 << 20)
    bad = vg.DartTable(good.graph, volts)
    rng = random.Random(22)
    actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(4)]
    rep = vg.check_equivariance(gf, ell(gf), actions, table=bad)
    violations, witnesses = _scalar_equivariance(bad, actions)
    assert not rep["passed"] and rep["samples"] == 4 * 1680
    assert (rep["violations"], rep["witnesses"]) == (violations, witnesses)
    assert violations > 5
    monkeypatch.setattr(gr, "BULK_BLOCK", 7)
    assert vg.check_equivariance(gf, ell(gf), actions, table=bad) == rep


def test_vertex_images_match_vertex_image_index():
    # 20 SL4(2) matrices on the GF(2) graph, and GL4(4) matrices, which
    # rescale vectors and covectors, on the GF(4) graph
    gf2 = field_of_order(2)
    graph2 = gr.build_projective_graph(gf2)
    # the same vertices in reverse order, so that vertex ids and codes
    # sort differently
    reverse = subgraph(graph2, range(graph2.n - 1, -1, -1))
    for graph, count, draw in ((graph2, 20, random_sl4), (reverse, 5, random_sl4),
                               (gr.build_projective_graph(field_of_order(4)), 3, random_gl4)):
        gf, q = graph.gf, graph.gf.order
        table = cons.voltage_table(graph)
        rng = random.Random(40 + q)
        actions = [ml.action(gf, draw(gf, rng)) for _ in range(count)]
        perms = vg.vertex_images(table, actions)
        assert perms.shape == (count, table.graph.n)
        for act, perm in zip(actions, perms.tolist()):
            assert perm == [vertex_image_index(table, act, i) for i in range(table.graph.n)]
            assert sorted(perm) == list(range(table.graph.n))
    assert vg.vertex_images(table, []).shape == (0, table.graph.n)


def test_vertex_images_refuse_images_outside_the_graph():
    gf = field_of_order(2)
    sub = subgraph(gr.build_affine_graph(gf), range(60))
    table = cons.voltage_table(sub)
    act = ml.action(gf, random_sl4(gf, random.Random(8)))
    with pytest.raises(KeyError):
        [vertex_image_index(table, act, i) for i in range(sub.n)]
    with pytest.raises(KeyError):
        vg.vertex_images(table, [act])
    # a graph of no vertices has no image to miss: the empty permutation
    empty = vg.DartTable(gr.Graph(gf, *stack([])), np.empty(0, dtype=np.uint64))
    assert vg.vertex_images(empty, [act, act]).shape == (2, 0)


def test_int16_vertex_ids_give_what_int64_ids_give_on_the_gf4_graph():
    # a product of GF(2) ids stays below 2^15 (119 * 120), so only the
    # GF(4) graph can show a product taken in int16
    assert gr.ADJ_CAP < 2 ** 15
    gf = field_of_order(4)
    graph = gr.build_projective_graph(gf)
    wide = copy.copy(graph)
    wide._indices = graph._indices.astype(np.int64)
    assert graph._indices.dtype == np.int16
    last = graph.n - 1
    for got, want in zip(gr.csr_bfs(graph._indptr, graph._indices, last),
                         gr.csr_bfs(wide._indptr, wide._indices, last)):
        assert np.array_equal(got, want)
    # (i, j, pos) of every edge, and (t, w) of the last 200 edges' common
    # neighbours, each concatenated over its blocks
    edges = [[np.concatenate(part) for part in zip(*gr.edge_blocks(g))] for g in (graph, wide)]
    near = [[np.concatenate(part)
             for part in zip(*gr.common_neighbor_blocks(g, i[-200:], j[-200:]))]
            for g, (i, j, _) in zip((graph, wide), edges)]
    for got, want in zip(edges[0] + near[0], edges[1] + near[1]):
        assert np.array_equal(got, want)
    volts = cons.voltage_table(graph).volts
    tables = [vg.DartTable(g, volts) for g in (graph, wide)]
    rng = random.Random(28)
    actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(3)]
    assert np.array_equal(*(vg.vertex_images(t, actions) for t in tables))
    got, want = (vg.fundamental_cycle_span(t) for t in tables)
    assert got["span"].pivots == want["span"].pivots
    assert {k: v for k, v in got.items() if k != "span"} == \
        {k: v for k, v in want.items() if k != "span"}


def test_check_equivariance_refuses_no_matrices(monkeypatch):
    # no matrix is no work, which must not pass; the check refuses before
    # it builds any byte table
    def no_tables(gf, actions):
        raise AssertionError("byte_tables called")

    monkeypatch.setattr(vg, "byte_tables", no_tables)
    gf2, gf8 = field_of_order(2), field_of_order(8)
    table = cons.voltage_table(gr.build_affine_graph(gf2))
    with pytest.raises(ValueError, match="at least one matrix"):
        vg.check_equivariance(gf2, ell(gf2), [], table=table)
    with pytest.raises(ValueError, match="at least one matrix"):
        vg.check_equivariance(gf8, ell(gf8), [], samples=300, rng=random.Random(1))


def test_check_equivariance_sampled_gf8():
    gf = field_of_order(8)
    rng = random.Random(13)
    actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(3)]
    rep = vg.check_equivariance(gf, ell(gf), actions, samples=300, rng=rng)
    assert rep["passed"]


def test_check_equivariance_negative_control():
    # a non-unimodular matrix scales U, so the voltage is not equivariant
    gf = field_of_order(4)
    scale = ml.action(gf, ((0b10, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    rep = vg.check_equivariance(gf, ell(gf), [scale], samples=200,
                                rng=random.Random(14))
    assert rep["violations"] > 0


def test_sampled_checks_count_every_disagreement():
    # a dart voltage that alternates between U and 0 disagrees with itself
    # on every pair of calls a sampled check makes
    for q in (4, 8):
        gf = field_of_order(q)
        flip = itertools.cycle((ml.big_u(gf), ml.ZERO21))
        rng = random.Random(q)
        actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(3)]
        for rep, key in (
                (vg.check_reductive(gf, lambda a, b: next(flip), samples=40, rng=rng),
                 {"u", "v", "w"}),
                (vg.check_equivariance(gf, lambda a, b: next(flip), actions, samples=30,
                                       rng=rng), {"dart", "matrix"})):
            assert rep["violations"] == rep["samples"] > 0 and not rep["passed"]
            assert len(rep["witnesses"]) == 5
            assert all(set(w) == key for w in rep["witnesses"])
