import random

import pytest

from phcover.field import field_of_order
from phcover.linalg import E4, evaluate
from phcover import graphs as gr


def count_affine_by_brute_force(gf):
    """Independent counting oracle: iterate every (v, h) pair directly."""
    import itertools

    n = 0
    for v in itertools.product(gf.elements(), repeat=4):
        if not any(v):
            continue
        for h in itertools.product(gf.elements(), repeat=4):
            if any(h) and evaluate(gf, h, v) != 0:
                n += 1
    return n


def test_affine_counts():
    gf2 = field_of_order(2)
    verts = gr.affine_vertices(gf2)
    assert len(verts) == 120 == count_affine_by_brute_force(gf2)
    # 15 points x 8 non-incident hyperplanes
    assert len(verts) == 15 * 8


def test_affine_count_gf4():
    gf4 = field_of_order(4)
    assert len(gr.affine_vertices(gf4)) == 48960 == 5440 * 9


def test_projective_counts():
    assert gr.count_projective_vertices(field_of_order(2)) == 120
    # 85 points, 21 hyperplanes through each, 85 - 21 = 64 avoiding it
    assert gr.count_projective_vertices(field_of_order(4)) == 85 * 64 == 5440
    assert gr.count_projective_vertices(field_of_order(8)) == 585 * 512
    assert gr.count_projective_vertices(field_of_order(16)) == 4369 * 4096


def test_enumeration_caps():
    with pytest.raises(ValueError):
        gr.affine_vertices(field_of_order(8))
    with pytest.raises(ValueError):
        gr.projective_vertices(field_of_order(16))


def test_vertex_ordering_deterministic():
    gf = field_of_order(2)
    verts = gr.affine_vertices(gf)
    assert verts == sorted(verts)
    assert gr.projective_vertices(gf) == verts  # GF(2): identical sets and order


def test_adjacency_examples():
    gf = field_of_order(2)
    a = (E4[0], E4[0])
    b = (E4[2], E4[2])
    c = (E4[0], E4[1])
    assert gr.adjacent(gf, a, b)
    assert not gr.adjacent(gf, a, c)   # f2(e1) = 0 but f1(e1) = 1
    assert not gr.adjacent(gf, a, a)


def test_degrees_exhaustive_gf2():
    g = gr.build_affine_graph(field_of_order(2))
    assert {g.degree(i) for i in range(g.n)} == {28}
    assert g.edge_count() == 120 * 28 // 2


def test_degree_gf4():
    g = gr.build_projective_graph(field_of_order(4))
    assert g.n == 5440
    assert {g.degree(i) for i in range(0, g.n, 473)} == {336}


def test_adjacency_symmetric_irreflexive_gf2():
    g = gr.build_affine_graph(field_of_order(2))
    for i in range(g.n):
        assert not g.adjacent(i, i)
        for j in range(i + 1, g.n):
            assert g.adjacent(i, j) == g.adjacent(j, i)
            assert g.adjacent(i, j) == gr.adjacent(g.gf, g.vertices[i], g.vertices[j])


def _thirteen_vertex_subgraph():
    """Vertex 0 of the GF(2) affine graph and 12 of its neighbours, in a
    seeded order: connected, and n is not a multiple of 8."""
    g = gr.build_affine_graph(field_of_order(2))
    ids = [0] + g.neighbors(0)[:12].tolist()
    random.Random(13).shuffle(ids)
    return gr.subgraph(g, ids)


def _adjacency_test_graphs():
    from phcover import construction as cons

    return [gr.build_affine_graph(field_of_order(2)), _thirteen_vertex_subgraph(),
            cons._rational_subgraph_with_twists(field_of_order(8)),
            cons._rational_subgraph_with_twists(field_of_order(16))]


def _assert_csr_row(g, i):
    row = g.neighbors(i).tolist()
    assert row == sorted(set(row)) and i not in row
    assert row == [j for j in range(g.n) if g.adjacent(i, j)]


def test_cached_adjacency_matches_definition_on_every_pair():
    for g in _adjacency_test_graphs():
        assert g.cached
        for i in range(g.n):
            for j in range(g.n):
                assert g.adjacent(i, j) == gr.adjacent(g.gf, g.vertices[i], g.vertices[j])
            _assert_csr_row(g, i)
        assert int(g._indptr[-1]) == g._indices.size == 2 * g.edge_count()


def test_cached_adjacency_matches_definition_on_seeded_gf4_pairs():
    g = gr.build_projective_graph(field_of_order(4))
    rng = random.Random(41)
    for _ in range(1000):
        i, j = rng.randrange(g.n), rng.randrange(g.n)
        assert g.adjacent(i, j) == gr.adjacent(g.gf, g.vertices[i], g.vertices[j])
        nbrs = g.neighbors(i)
        j = int(nbrs[rng.randrange(nbrs.size)])
        assert gr.adjacent(g.gf, g.vertices[i], g.vertices[j])
    for i in range(0, g.n, 97):
        _assert_csr_row(g, i)


def test_normalize_and_reduct_class():
    gf = field_of_order(4)
    v = (0, 0b10, 1, 0)
    n = gr.normalize(gf, v)
    assert n[1] == 1
    for lam in gf.nonzero():
        for mu in gf.nonzero():
            vert = (tuple(gf.mul(lam, c) for c in (1, 2, 3, 0)),
                    tuple(gf.mul(mu, c) for c in (1, 0, 0, 2)))
            assert gr.reduct_class(gf, vert) == gr.reduct_class(gf, ((1, 2, 3, 0), (1, 0, 0, 2)))
    with pytest.raises(ValueError):
        gr.normalize(gf, (0, 0, 0, 0))


def test_reduct_classes_singletons_over_gf2():
    rep = gr.verify_reduct_is_neighborhood_equality(field_of_order(2))
    assert rep["passed"]
    assert rep["classes"] == 120
    assert rep["fiber_sizes"] == [1]


def test_reduct_exhaustive_gf4():
    rep = gr.verify_reduct_is_neighborhood_equality(field_of_order(4))
    assert rep["passed"]
    assert rep["classes"] == 5440
    assert rep["fiber_sizes"] == [9]
    assert rep["class_set_matches_projective"]


def test_reduct_preserves_adjacency_sampled():
    gf = field_of_order(4)
    rng = random.Random(0)
    for _ in range(100):
        a = gr.random_affine_vertex(gf, rng)
        b = gr.random_neighbor(gf, a, rng)
        assert gr.adjacent(gf, gr.reduct_class(gf, a), gr.reduct_class(gf, b))


def test_bfs_and_diameter_gf2():
    g = gr.build_projective_graph(field_of_order(2))
    dist = gr.bfs(g, 0)
    assert dist[0] == 0
    assert int(dist.max()) == 2
    assert gr.diameter(g) == 2
    assert gr.is_connected(g)


def test_diameter_gf4():
    g = gr.build_projective_graph(field_of_order(4))
    assert gr.diameter(g) == 2


def _queue_distances(graph, start):
    """Reference BFS: a first-in-first-out queue over graph.neighbors."""
    from collections import deque

    dist = [-1] * graph.n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u).tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _induced_path(graph, length):
    """Vertices of an induced path from vertex 0, grown greedily."""
    path = [0]
    while len(path) < length:
        path.append(next(w for w in graph.neighbors(path[-1]).tolist()
                         if w not in path
                         and not any(graph.adjacent(w, p) for p in path[:-1])))
    return path


def _test_graphs():
    """A sparse subgraph four levels deep from vertex 0, a star with an
    isolated vertex, and induced paths on 2, 3 and 7 vertices."""
    gf2 = gr.build_affine_graph(field_of_order(2))
    sparse = gr.subgraph(gf2, random.Random(4).sample(range(gf2.n), 20))
    star = [0] + gf2.neighbors(0)[:5].tolist()
    lone = next(j for j in range(gf2.n)
                if j not in star and not any(gf2.adjacent(i, j) for i in star))
    paths = [gr.subgraph(gf2, _induced_path(gf2, k)) for k in (2, 3, 7)]
    return [sparse, gr.subgraph(gf2, star + [lone])] + paths


def test_bfs_matches_queue_bfs():
    graphs = _test_graphs()
    assert max(gr.bfs(graphs[0], 0)) >= 3
    for graph in graphs:
        for start in range(graph.n):
            dist = gr.bfs(graph, start)
            assert dist.dtype == "int32"
            assert dist.tolist() == _queue_distances(graph, start)
    assert not gr.is_connected(graphs[1])
    assert gr.is_connected(graphs[0])


def test_diameter_matches_queue_bfs():
    graphs = _test_graphs()
    # the paths need no fallback up to 3 vertices; the rest take it
    assert [gr.diameter(g) for g in graphs[2:]] == [1, 2, 6]
    for graph in graphs:
        want = max(max(_queue_distances(graph, s)) for s in range(graph.n))
        assert gr.diameter(graph) == want


def test_local_graph_gf2():
    g = gr.build_affine_graph(field_of_order(2))
    sizes = {gr.local_graph(g, i).n for i in range(g.n)}
    assert sizes == {28}
    lg = gr.local_graph(g, 0)
    # the local graph inherits adjacency from the big graph
    big = {tuple(sorted((g.vertices[int(a)], g.vertices[int(b)])))
           for a in g.neighbors(0) for b in g.neighbors(0)
           if int(a) < int(b) and g.adjacent(int(a), int(b))}
    small = {tuple(sorted((lg.vertices[i], lg.vertices[j])))
             for i in range(lg.n) for j in range(i + 1, lg.n) if lg.adjacent(i, j)}
    assert big == small


def test_empty_local_graph_guard():
    gf = field_of_order(2)
    g = gr.Graph(gf, [(E4[0], E4[0])], "affine")
    assert gr.local_graph(g, 0).n == 0


def test_local_graph_looks_like_dimension_three_graph():
    # the big graph is locally the one of one lower projective dimension:
    # same vertex count, same regular degree, same edge count
    gf = field_of_order(2)
    small = gr.build_affine_graph(gf, dim=3)
    assert small.n == 28
    small_degrees = {small.degree(i) for i in range(small.n)}
    big = gr.build_affine_graph(gf)
    for v in (0, 17, 119):
        lg = gr.local_graph(big, v)
        assert lg.n == small.n
        assert {lg.degree(i) for i in range(lg.n)} == small_degrees == {6}
        assert lg.edge_count() == small.edge_count()


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

def test_samplers_produce_valid_vertices():
    for q in (4, 8, 16):
        gf = field_of_order(q)
        rng = random.Random(q)
        for _ in range(20):
            a = gr.random_affine_vertex(gf, rng)
            assert gr.is_vertex(gf, a)
            b = gr.random_neighbor(gf, a, rng)
            assert gr.is_vertex(gf, b) and gr.adjacent(gf, a, b)


def test_sampled_cycles_are_cycles():
    gf = field_of_order(8)
    rng = random.Random(3)
    for _ in range(10):
        tri = gr.sample_triangle(gf, rng)
        assert len(set(tri)) == 3
        for i in range(3):
            assert gr.adjacent(gf, tri[i], tri[(i + 1) % 3])
        quad = gr.sample_quadrangle(gf, rng)
        assert len(set(quad)) == 4
        for i in range(4):
            assert gr.adjacent(gf, quad[i], quad[(i + 1) % 4])
        pent = gr.sample_pentagon(gf, rng)
        assert len(set(pent)) == 5
        for i in range(5):
            assert gr.adjacent(gf, pent[i], pent[(i + 1) % 5])
        walk = gr.sample_closed_walk(gf, 6, rng)
        assert len(walk) == 6
        for i in range(6):
            assert gr.adjacent(gf, walk[i], walk[(i + 1) % 6])


def test_samplers_are_seeded():
    gf = field_of_order(16)
    assert gr.sample_triangle(gf, random.Random(5)) == gr.sample_triangle(gf, random.Random(5))
