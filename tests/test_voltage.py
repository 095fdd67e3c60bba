import random

import pytest

from phcover.field import field_of_order
from phcover.linalg import random_sl4
from phcover import construction as cons
from phcover import graphs as gr
from phcover import multilinear as ml
from phcover import voltage as vg


def ell(gf):
    return lambda a, b: cons.dart_voltage(gf, a, b)


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
    assert vg.path_voltage(gf, ell(gf), (a,)) == ml.ZERO21
    assert vg.path_voltage(gf, ell(gf), (a, b, a)) == ml.ZERO21


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


def test_lift_adjacent_definition():
    gf = field_of_order(4)
    rng = random.Random(2)
    zero = ml.ZERO21
    for _ in range(20):
        a = gr.random_affine_vertex(gf, rng)
        b = gr.random_neighbor(gf, a, rng)
        tag = ml.n_project(gf, cons.dart_voltage(gf, a, b))
        assert vg.lift_adjacent(gf, ell(gf), a, zero, b, tag)
        if tag != zero:
            assert not vg.lift_adjacent(gf, ell(gf), a, zero, b, zero)
        # non-adjacent bases never become adjacent in the lift
        c = gr.random_affine_vertex(gf, rng)
        if not gr.adjacent(gf, a, c):
            assert not vg.lift_adjacent(gf, ell(gf), a, zero, c, zero)


def test_lifted_path_endpoint():
    # walking a lifted path from (v0, m) lands on (vn, voltage + m)
    gf = field_of_order(2)
    rng = random.Random(3)
    for _ in range(10):
        walk = gr.sample_closed_walk(gf, 5, rng)
        m = tuple(rng.randrange(2) for _ in range(21))
        tag = ml.n_project(gf, m)
        for a, b in zip(walk, walk[1:]):
            nxt = ml.n_add(gf, tag, ml.n_project(gf, cons.dart_voltage(gf, a, b)))
            assert vg.lift_adjacent(gf, ell(gf), a, tag, b, nxt)
            tag = nxt
        total = vg.path_voltage(gf, ell(gf), walk)
        assert tag == ml.n_project(gf, ml.sym_add(total, m))


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
    with pytest.raises(ValueError):
        table.dart(0, 0)
    # every ordered pair: a lookup succeeds exactly on the adjacent ones
    for i in range(graph.n):
        for j in range(graph.n):
            if graph.adjacent(i, j):
                table.dart(i, j)
            else:
                with pytest.raises(ValueError, match="not adjacent"):
                    table.dart(i, j)


def test_fundamental_cycles_of_single_edge_graph():
    gf = field_of_order(2)
    verts = [((1, 0, 0, 0), (1, 0, 0, 0)), ((0, 0, 1, 0), (0, 0, 1, 0))]
    g = gr.Graph(gf, verts, "affine", cache=True)
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
        assert table.graph.adjacent(p, v)
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
    sparse = gr.subgraph(gf2, random.Random(4).sample(range(gf2.n), 20))
    assert gr.bfs(sparse, 0).max() >= 3
    cases = [(gf2, (0, 77)),
             (gr.subgraph(gf2, star), (0, 12)),
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


def test_spanning_tree_refuses_disconnected_graph():
    gf = field_of_order(2)
    # f1(e1) = 1: neither vertex's covector kills the other's vector
    pair = gr.Graph(gf, [((1, 0, 0, 0), (1, 0, 0, 0)), ((1, 0, 0, 0), (1, 1, 0, 0))],
                    "affine", cache=True)
    # a star around vertex 0 and one vertex adjacent to none of it
    big = gr.build_affine_graph(gf)
    star = [0] + big.neighbors(0)[:5].tolist()
    lone = next(j for j in range(big.n)
                if j not in star and not any(big.adjacent(i, j) for i in star))
    for graph in (pair, gr.subgraph(big, star + [lone])):
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
    zero_table = vg.DartTable(graph, table.indptr, table.indices,
                              table.volts * 0)
    comp = vg.component_of(zero_table, 0)
    assert len(comp["vertices"]) == graph.n
    assert set(comp["fiber_sizes"].values()) == {1}


def _queue_component(table, root, root_tag):
    """Reference lift BFS: a first-in-first-out queue of (base, tag) keys."""
    from collections import deque

    up = ml.u_packed(table.gf)
    start = (root, min(root_tag, root_tag ^ up))
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
    comp = vg.component_of(table, 5, root_tag=3)
    verts = comp["vertices"]
    assert len(verts) == 7680
    assert verts[:3] == [(5, 3), (17, 2305), (19, 3392)]
    assert verts == _queue_component(table, 5, 3)
    assert comp["index"] == {key: i for i, key in enumerate(verts)}
    assert set(comp["fiber_sizes"].values()) == {64} and len(comp["fiber_sizes"]) == 120


def test_component_cap_guard():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    with pytest.raises(vg.CapExceeded):
        vg.component_of(table, 0, cap=1000)
    # the cap bounds the vertex count exactly
    assert len(vg.component_of(table, 0, cap=7680)["vertices"]) == 7680
    with pytest.raises(vg.CapExceeded):
        vg.component_of(table, 0, cap=7679)


def test_find_pairs_wide_tags():
    # tags of 63 bits, as over GF(8), with bases sharing tags
    keys = sorted({(b, t) for b in (0, 3, 9) for t in (5, 2 ** 62 + 1, 2 ** 63 - 1)} - {(3, 5)})
    kb, kt = vg.pair_arrays(keys)
    queries = keys[::-1] + [(3, 5), (0, 6), (9, 2 ** 63 - 2), (10, 5), (0, 2 ** 63)]
    qb, qt = vg.pair_arrays(queries)
    want = [keys.index(q) if q in keys else -1 for q in queries]
    assert vg.find_pairs(kb, kt, qb, qt).tolist() == want


def test_component_cap_guard_gf4():
    gf = field_of_order(4)
    table = cons.voltage_table(gr.build_projective_graph(gf))
    with pytest.raises(vg.CapExceeded):
        vg.component_of(table, 0, cap=2000)


def test_local_isomorphism_modes_agree_on_cover():
    data = cons.cover_data()
    table = data["table"]
    direct = vg.verify_local_isomorphism(table, data["component"], mode="direct")
    tri = vg.verify_local_isomorphism(table, None, mode="triangles")
    assert direct["passed"] and tri["passed"]
    # every lift vertex times the 84 base triangles through its base
    assert (direct["checked"], direct["violations"]) == (7680 * 84, 0)


def test_local_isomorphism_detects_corruption():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    table = cons.voltage_table(graph)
    volts = table.volts.copy()
    # flip one dart pair to a non-U off-diagonal voltage
    i = 0
    j = int(graph.neighbors(0)[0])
    import numpy as np

    bad = np.uint64(ml.pack_sym(gf, ml.sym_mul(gf, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))))
    for a, b in ((i, j), (j, i)):
        lo, hi = table.indptr[a], table.indptr[a + 1]
        pos = lo + int(np.searchsorted(table.indices[lo:hi], b))
        volts[pos] ^= bad
    corrupted = vg.DartTable(graph, table.indptr, table.indices, volts)
    rep = vg.verify_local_isomorphism(corrupted, None, mode="triangles")
    assert not rep["passed"] and rep["violations"] > 0
    component = cons.cover_data()["component"]
    rep = vg.verify_local_isomorphism(corrupted, component, mode="direct")
    assert not rep["passed"] and rep["violations"] > 0
    assert (rep["checked"], rep["violations"]) == (645120, 1280)


def test_local_isomorphism_direct_detects_missing_vertices():
    data = cons.cover_data()
    verts = data["component"]["vertices"][:-64]
    truncated = {"vertices": verts, "index": {v: i for i, v in enumerate(verts)}}
    rep = vg.verify_local_isomorphism(data["table"], truncated, mode="direct")
    assert not rep["passed"] and rep["violations"] > 0
    assert (rep["checked"], rep["violations"]) == (639744, 1766)


# ----------------------------------------------------------------------
# the extension action
# ----------------------------------------------------------------------

def test_act_lift_identity():
    gf = field_of_order(2)
    ident = ml.action(gf, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    vert = ((1, 0, 0, 0), (1, 0, 0, 0))
    assert vg.act_lift(gf, ident, vert, 0, 0) == (vert, 0)


def test_act_lift_preserves_adjacency():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    table = cons.voltage_table(graph)
    comp = cons.cover_data()["component"]
    rng = random.Random(6)
    up = ml.u_packed(gf)
    for _ in range(200):
        act = ml.action(gf, random_sl4(gf, rng))
        k = ml.n_project_packed(gf, ml.pack_sym(gf, tuple(rng.randrange(2) for _ in range(21))))
        bi, ti = comp["vertices"][rng.randrange(len(comp["vertices"]))]
        nbrs = graph.neighbors(bi)
        bj = int(nbrs[rng.randrange(len(nbrs))])
        tj = ti ^ table.dart(bi, bj)
        tj = min(tj, tj ^ up)
        va, ta = vg.act_lift(gf, act, graph.vertices[bi], ti, k)
        vb, tb = vg.act_lift(gf, act, graph.vertices[bj], tj, k)
        assert vg.lift_adjacent(gf, ell(gf), va, ml.unpack_sym(gf, ta), vb, ml.unpack_sym(gf, tb))


def test_extension_composition_law():
    gf = field_of_order(4)
    rng = random.Random(7)
    for _ in range(25):
        g = ml.action(gf, random_sl4(gf, rng))
        h = ml.action(gf, random_sl4(gf, rng))
        k1 = ml.n_project_packed(gf, ml.pack_sym(gf, tuple(rng.randrange(4) for _ in range(21))))
        k2 = ml.n_project_packed(gf, ml.pack_sym(gf, tuple(rng.randrange(4) for _ in range(21))))
        vert = gr.random_affine_vertex(gf, rng)
        tag = ml.n_project_packed(gf, ml.pack_sym(gf, tuple(rng.randrange(4) for _ in range(21))))
        one_then_two = vg.act_lift(gf, h, *vg.act_lift(gf, g, vert, tag, k1), k2)
        prod, kprod = vg.compose_extension(gf, g, k1, h, k2)
        assert vg.act_lift(gf, prod, vert, tag, kprod) == one_then_two


# ----------------------------------------------------------------------
# lambda and the stabilizer cocycle
# ----------------------------------------------------------------------

def test_lambda_identity_is_zero():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    ident = ml.action(gf, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert vg.lambda_of(table, ident, 0) == 0


def test_lambda_choice_shifts_by_cycle_span():
    gf = field_of_order(4)
    graph = gr.build_projective_graph(gf)
    table = cons.voltage_table(graph)
    v0 = graph.index[cons.vertex_v0(gf)]
    u = graph.index[cons.vertex_u(gf)]
    for x in cons.order4_subgroup(gf)[1:]:
        act = ml.action(gf, cons.ax_matrix(gf, x))
        via = vg.lambda_of(table, act, v0, via=u)
        bfs = vg.lambda_of(table, act, v0)
        assert via == ml.pack_sym(gf, cons.lambda_ax(gf, x))
        assert ml.packed_in_w2_plus_u(gf, via ^ bfs)


def test_stabilizer_maps_root_into_component():
    gf = field_of_order(2)
    data = cons.cover_data()
    graph, table, comp = data["graph"], data["table"], data["component"]
    v0 = graph.index[cons.vertex_v0(gf)]
    rng = random.Random(8)
    m_elems = [ml.pack_sym(gf, cons.m_to_sym(gf, tuple((m >> i) & 1 for i in range(6))))
               for m in range(64)]
    for _ in range(50):
        act = ml.action(gf, random_sl4(gf, rng))
        lam = vg.lambda_of(table, act, v0)
        k = ml.n_project_packed(gf, lam ^ rng.choice(m_elems))
        vert, tag = vg.act_lift(gf, act, graph.vertices[v0], 0, k)
        assert (graph.index[vert], tag) in comp["index"]


def test_stabilizer_cocycle_lands_in_m():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    rng = random.Random(9)
    pairs = [(ml.action(gf, random_sl4(gf, rng)), ml.action(gf, random_sl4(gf, rng)))
             for _ in range(100)]
    v0 = table.graph.index[cons.vertex_v0(gf)]
    rep = vg.stabilizer_closure_check(table, pairs, v0,
                                      lambda x: ml.packed_in_w2_plus_u(gf, x))
    assert rep["passed"]
    ident = ml.action(gf, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    rep = vg.stabilizer_closure_check(table, [(ident, ident)], v0,
                                      lambda x: x == 0)
    assert rep["passed"]


# ----------------------------------------------------------------------
# reductivity and equivariance, with negative controls
# ----------------------------------------------------------------------

def test_check_reductive_exhaustive_gf2():
    gf = field_of_order(2)
    rep = vg.check_reductive(gf, ell(gf), "exhaustive")
    assert rep["passed"] and rep["violations"] == 0


def test_check_reductive_sampled_gf4():
    gf = field_of_order(4)
    rep = vg.check_reductive(gf, ell(gf), "sample", samples=2000, rng=random.Random(10))
    assert rep["passed"] and rep["samples"] > 1900


def test_check_reductive_negative_control():
    gf = field_of_order(4)
    perturb = ml.square(gf, (1, 0, 0, 0, 0, 0))

    def corrupted(a, b):
        volt = cons.dart_voltage(gf, a, b)
        if gr.normalize(gf, a[0]) != a[0] or gr.normalize(gf, b[0]) != b[0]:
            volt = ml.sym_add(volt, perturb)
        return volt

    rep = vg.check_reductive(gf, corrupted, "sample", samples=500, rng=random.Random(11))
    assert rep["violations"] > 0 and not rep["passed"]
    assert rep["witnesses"]


def test_check_equivariance_exhaustive_gf2():
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    rng = random.Random(12)
    actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(5)]
    rep = vg.check_equivariance(gf, ell(gf), actions, "exhaustive", table=table)
    assert rep["passed"] and rep["samples"] == 5 * 1680


def test_check_equivariance_sampled_gf8():
    gf = field_of_order(8)
    rng = random.Random(13)
    actions = [ml.action(gf, random_sl4(gf, rng)) for _ in range(3)]
    rep = vg.check_equivariance(gf, ell(gf), actions, "sample", samples=300, rng=rng)
    assert rep["passed"]


def test_check_equivariance_negative_control():
    # a non-unimodular matrix scales U, so the voltage is not equivariant
    gf = field_of_order(4)
    scale = ml.action(gf, ((0b10, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    rep = vg.check_equivariance(gf, ell(gf), [scale], "sample", samples=200,
                                rng=random.Random(14))
    assert rep["violations"] > 0
