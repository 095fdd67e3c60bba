import copy
import inspect
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from phcover.field import field_of_order
from phcover.linalg import E4, evaluate, vec_add, vec_scale
from phcover import graphs as gr
from phcover import linalg as la
from helpers import pairs, random_in_span_loop, stack, subgraph, vertex_index
from test_linalg import _rref_kernel


def normalize(gf, coords):
    """Reference normaliser: scale so the first nonzero coordinate becomes
    1, one scalar product at a time."""
    for c in coords:
        if c:
            inv = gf.inv(c)
            return tuple(gf.mul(inv, x) for x in coords)
    raise ValueError("cannot normalise the zero tuple")


def scalar_key(gf, vert):
    """Reference vertex key: the normalised vector and covector read as
    base-q numbers, first coordinate first, the vector's above."""
    code = 0
    for x in normalize(gf, vert[0]) + normalize(gf, vert[1]):
        code = code * gf.order + x
    return code


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
    verts = pairs(*gr.affine_vertices(gf2))
    assert len(verts) == 120 == count_affine_by_brute_force(gf2)
    # 15 points x 8 non-incident hyperplanes
    assert len(verts) == 15 * 8


def test_affine_count_gf4():
    gf4 = field_of_order(4)
    assert len(gr.affine_vertices(gf4)[0]) == 48960 == 5440 * 9


def test_projective_counts():
    assert gr.count_projective_vertices(field_of_order(2)) == 120
    # 85 points, 21 hyperplanes through each, 85 - 21 = 64 avoiding it
    assert gr.count_projective_vertices(field_of_order(4)) == 85 * 64 == 5440
    assert gr.count_projective_vertices(field_of_order(8)) == 585 * 512
    assert gr.count_projective_vertices(field_of_order(16)) == 4369 * 4096


def test_projective_count_formula_matches_enumeration():
    for q in (2, 4, 8):
        gf = field_of_order(q)
        assert gr.count_projective_vertices(gf) == len(gr.projective_vertices(gf)[0])
        assert gr.count_projective_vertices(gf, dim=3) == len(gr.projective_vertices(gf, dim=3)[0])
    for q in (2, 4):
        gf = field_of_order(q)
        assert gr.count_projective_vertices(gf) == len(gr.affine_vertices(gf)[0]) // (q - 1) ** 2


def test_enumeration_caps():
    with pytest.raises(ValueError):
        gr.affine_vertices(field_of_order(8))
    with pytest.raises(ValueError):
        gr.projective_vertices(field_of_order(16))
    # the cap and the sampling budgets are constants, not parameters
    for fn, knob in ((gr.affine_vertices, "cap"), (gr.projective_vertices, "cap"),
                     (gr.verify_reduct_is_neighborhood_equality, "cap"),
                     (gr.sample_common_neighbor, "tries"), (gr.random_neighbor, "tries"),
                     (la.random_sl4, "length")):
        assert knob not in inspect.signature(fn).parameters
    assert (gr.ENUM_CAP, gr.NEIGHBOR_TRIES, la.SL4_FACTORS) == (10 ** 6, 64, 20)


def test_graph_refuses_more_vertices_than_adj_cap():
    gf = field_of_order(4)
    vmat, hmat = (side[:gr.ADJ_CAP + 1] for side in gr.affine_vertices(gf))
    with pytest.raises(ValueError, match="adjacency cap"):
        gr.Graph(gf, vmat, hmat)
    g = gr.Graph(gf, vmat[:gr.ADJ_CAP], hmat[:gr.ADJ_CAP])
    assert g.n == gr.ADJ_CAP and g.edge_count() > 0


def test_build_projective_graph_refuses_gf8():
    with pytest.raises(ValueError, match="adjacency cap"):
        gr.build_projective_graph(field_of_order(8))


def test_graph_builders_refuse_before_enumerating(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the vertices were enumerated")

    monkeypatch.setattr(gr, "projective_vertices", enumerate_nothing)
    monkeypatch.setattr(gr, "affine_vertices", enumerate_nothing)
    with pytest.raises(ValueError, match="adjacency cap"):
        gr.build_projective_graph(field_of_order(8))
    with pytest.raises(ValueError, match="adjacency cap"):
        gr.build_affine_graph(field_of_order(4))


def test_one_gf2_graph():
    gf = field_of_order(2)
    g = gr.build_affine_graph(gf)
    assert g is gr.build_projective_graph(gf)
    # normalising changes nothing over GF(2)
    assert g.vertices == pairs(*gr.affine_vertices(gf))
    assert not hasattr(g, "kind")
    for fn in (gr.Graph, gr.build_affine_graph, gr.build_projective_graph):
        assert not {"kind", "cap"} & set(inspect.signature(fn).parameters)


def test_vertex_ordering_deterministic():
    gf = field_of_order(2)
    verts = pairs(*gr.affine_vertices(gf))
    assert verts == sorted(verts)
    assert pairs(*gr.projective_vertices(gf)) == verts  # GF(2): identical sets and order


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
        assert i not in g.neighbors(i)
        for j in range(i + 1, g.n):
            assert (j in g.neighbors(i)) == (i in g.neighbors(j))
            assert (j in g.neighbors(i)) == gr.adjacent(g.gf, g.vertices[i], g.vertices[j])


def _thirteen_vertex_subgraph():
    """Vertex 0 of the GF(2) affine graph and 12 of its neighbours, in a
    seeded order: connected, and n is not a multiple of 8."""
    g = gr.build_affine_graph(field_of_order(2))
    ids = [0] + g.neighbors(0)[:12].tolist()
    random.Random(13).shuffle(ids)
    return subgraph(g, ids)


def _adjacency_test_graphs():
    from phcover import construction as cons

    return [gr.build_affine_graph(field_of_order(2)), _thirteen_vertex_subgraph(),
            cons._rational_subgraph_with_twists(field_of_order(8)),
            cons._rational_subgraph_with_twists(field_of_order(16))]


def _adjacent_row(g, i):
    """The neighbours of vertex i by the array form of the adjacency
    definition: the row's covector on every vector, every covector on the
    row's vector."""
    return np.flatnonzero((la.dot(g.gf, g.hmat[i], g.vmat) == 0)
                          & (la.dot(g.gf, g.hmat, g.vmat[i]) == 0))


def _assert_csr_row(g, i):
    row = g.neighbors(i).tolist()
    assert row == sorted(set(row)) and i not in row
    # the array form of the definition gives the same neighbours
    assert row == _adjacent_row(g, i).tolist()


def test_cached_adjacency_matches_definition_on_every_pair():
    for g in _adjacency_test_graphs():
        for i in range(g.n):
            for j in range(g.n):
                assert (j in g.neighbors(i)) == gr.adjacent(g.gf, g.vertices[i], g.vertices[j])
            _assert_csr_row(g, i)
        assert int(g._indptr[-1]) == g._indices.size == 2 * g.edge_count()


def _brute_force_csr(g):
    """The CSR arrays of a graph from the adjacency definition, row by row:
    the scalar adjacent on every pair of a small graph, its array form (the
    row's covector on every vector, every covector on the row's vector) on
    the GF(4) graph."""
    rows = []
    for i in range(g.n):
        if g.n <= 200:
            rows.append([j for j in range(g.n) if gr.adjacent(g.gf, g.vertices[i], g.vertices[j])])
        else:
            rows.append(_adjacent_row(g, i))
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    return indptr, np.concatenate(rows).astype(np.int16)


def _lexicographic(g):
    codes = g.p_id * len(g.planes) + g.h_id
    return bool((np.diff(codes) > 0).all())


@pytest.mark.parametrize("name", ["gf2", "gf4", "gf8-subgraph", "gf16-subgraph"])
def test_csr_is_the_brute_force_adjacency(name):
    from phcover import construction as cons

    q = int(name.split("-")[0][2:])
    if name.endswith("subgraph"):
        # a stack out of order: every row is sorted after its gather
        g = cons._rational_subgraph_with_twists(field_of_order(q))
        assert not _lexicographic(g)
    else:
        g = gr.build_projective_graph(field_of_order(q))
        assert _lexicographic(g)
    indptr, indices = _brute_force_csr(g)
    assert g._indptr.tobytes() == indptr.tobytes() and g._indices.tobytes() == indices.tobytes()
    assert (g._indptr.dtype, g._indices.dtype) == (np.int64, np.int16)


def test_graph_refuses_a_repeated_pair():
    gf = field_of_order(2)
    verts = pairs(*gr.projective_vertices(gf))[:5]
    with pytest.raises(ValueError, match="repeated"):
        gr.Graph(gf, *stack(verts + verts[2:3]))


def test_a_dropped_table_entry_changes_the_gf2_graph(monkeypatch):
    # negative control: vertex 7 missing from the point-plane table leaves
    # the rows of its neighbours, so the edge count moves off 1680 and the
    # brute-force comparison sees it
    good = gr.build_projective_graph(field_of_order(2))
    table = gr._vertex_table

    def dropped(*args):
        at = table(*args)
        at[at == 7] = -1
        return at

    monkeypatch.setattr(gr, "_vertex_table", dropped)
    bad = gr.Graph(good.gf, good.vmat, good.hmat)
    assert good.edge_count() == 1680 and bad.edge_count() != 1680
    indptr, indices = _brute_force_csr(bad)
    assert not (np.array_equal(bad._indptr, indptr) and np.array_equal(bad._indices, indices))


def _common_neighbours_by_rows(graph, i, j):
    """Reference common neighbours: the sorted intersection of the two CSR
    rows of each pair, as the (t, w) arrays of common_neighbor_blocks."""
    both = [np.intersect1d(graph.neighbors(a), graph.neighbors(b))
            for a, b in zip(i.tolist(), j.tolist())]
    return (np.repeat(np.arange(len(both)), [w.size for w in both]),
            np.concatenate([np.zeros(0, dtype=np.int16)] + both).astype(np.intp))


def _common_neighbours(graph, i, j):
    return [np.concatenate(part) for part in zip(*gr.common_neighbor_blocks(graph, i, j))]


def test_common_neighbours_equal_the_csr_intersections(monkeypatch):
    graphs = _block_test_graphs()
    cases = []
    for g in graphs:
        if g.n <= 200:
            i, j = np.triu_indices(g.n)
        else:
            rng = np.random.default_rng(g.n)
            i, j = rng.integers(0, g.n, (2, 3000))
            # and the ends of 1000 edges, which share their common neighbours
            src, dst = (np.concatenate(part) for part in list(zip(*gr.edge_blocks(g)))[:2])
            pick = rng.integers(0, src.size, 1000)
            i, j = np.concatenate([i, src[pick]]), np.concatenate([j, dst[pick]])
        cases.append((g, i, j, _common_neighbours_by_rows(g, i, j)))
    assert not all(g.ascending for g in graphs)
    for g, i, j, (t, w) in cases:
        got_t, got_w = _common_neighbours(g, i, j)
        assert got_t.dtype == got_w.dtype == np.intp
        assert np.array_equal(got_t, t) and np.array_equal(got_w, w)
    # blocks of 7 elements hold one pair each; the first 300 pairs pin the seams
    monkeypatch.setattr(gr, "BULK_BLOCK", 7)
    for g, i, j, (t, w) in cases:
        got = _common_neighbours(g, i[:300], j[:300])
        assert all(np.array_equal(x, y[t < 300]) for x, y in zip(got, (t, w)))


def test_a_dropped_plane_changes_the_gf2_triangle_count():
    # negative control: one plane missing from the list of planes through
    # one point loses the common neighbours on it, so the triangle count
    # moves off 3360 and the CSR intersections see it
    good = gr.build_projective_graph(field_of_order(2))
    bad = copy.copy(good)
    bad.through = good.through.copy()
    bad.through[0, 0] = len(good.planes)

    def triangles(g):
        return sum(len(block) for block in gr.triangle_blocks(g))

    assert triangles(good) == 3360 and triangles(bad) != 3360
    i, j = np.triu_indices(good.n)
    want = _common_neighbours_by_rows(good, i, j)
    got = _common_neighbours(bad, i, j)
    assert not all(np.array_equal(x, y) for x, y in zip(got, want))


def test_graph_builds_its_vertex_tuples_on_first_read():
    good = gr.build_projective_graph(field_of_order(2))
    g = gr.Graph(good.gf, good.vmat, good.hmat)
    assert "vertices" not in vars(g)
    assert g.vertices == pairs(g.vmat, g.hmat) and "vertices" in vars(g)


def test_cached_adjacency_matches_definition_on_seeded_gf4_pairs():
    g = gr.build_projective_graph(field_of_order(4))
    rng = random.Random(41)
    for _ in range(1000):
        i, j = rng.randrange(g.n), rng.randrange(g.n)
        assert (j in g.neighbors(i)) == gr.adjacent(g.gf, g.vertices[i], g.vertices[j])
        nbrs = g.neighbors(i)
        j = int(nbrs[rng.randrange(nbrs.size)])
        assert gr.adjacent(g.gf, g.vertices[i], g.vertices[j])
    for i in range(0, g.n, 97):
        _assert_csr_row(g, i)


def _assert_factored(gf, vmat, hmat):
    """factor_vertices against its definition; returns its result."""
    factored = points, p_id, planes, h_id, values = gr.factor_vertices(gf, vmat, hmat)
    assert np.array_equal(points[p_id], vmat) and np.array_equal(planes[h_id], hmat)
    assert len(np.unique(points, axis=0)) == len(points)
    assert len(np.unique(planes, axis=0)) == len(planes)
    assert values.dtype == np.uint8
    assert values.tolist() == [[evaluate(gf, h, p) for p in points.tolist()]
                               for h in planes.tolist()]
    return factored


def _assert_vertex_table(graph):
    """The vertex table, the padded point and plane lists and the order
    flag of a graph against their definitions; the tables are C-ordered,
    so the flat take of the gathers copies nothing."""
    n_planes, n_points = graph.zero.shape
    at = np.full((n_points + 1, n_planes + 1), -1)
    at[graph.p_id, graph.h_id] = np.arange(graph.n)
    assert graph.at.dtype == np.int16 and np.array_equal(graph.at, at)
    for lists, incidence, pad in ((graph.on, graph.zero, n_points),
                                  (graph.through, graph.zero.T, n_planes)):
        assert lists.shape == (len(incidence), incidence.sum(axis=1).max())
        for row, members in zip(lists.tolist(), incidence):
            ids = np.flatnonzero(members).tolist()
            assert row == ids + [pad] * (lists.shape[1] - len(ids))
    for table in (graph.at, graph.on, graph.through):
        assert table.flags.c_contiguous
    assert graph.ascending == _lexicographic(graph)


@pytest.mark.parametrize("q", (2, 4))
def test_factor_vertices_of_the_enumerated_graphs(q):
    graph = gr.build_projective_graph(field_of_order(q))
    points, p_id, planes, h_id, values = _assert_factored(graph.gf, graph.vmat, graph.hmat)
    assert len(points) == len(planes) == len(gr.proj_points(graph.gf))
    assert np.array_equal(graph.points, points) and np.array_equal(graph.p_id, p_id)
    assert np.array_equal(graph.planes, planes) and np.array_equal(graph.h_id, h_id)
    assert np.array_equal(graph.zero, values == 0)
    _assert_vertex_table(graph)


def test_factor_vertices_of_a_gf8_stack_with_repeated_rows():
    from phcover import construction as cons

    gf = field_of_order(8)
    rng = np.random.default_rng(25)
    vmat, hmat = (rng.integers(0, 8, size=(12, 4), dtype=np.uint8)[rng.integers(0, 12, size=200)]
                  for _ in range(2))
    points, _, planes, _, _ = _assert_factored(gf, vmat, hmat)
    assert len(points) <= 12 and len(planes) <= 12
    _assert_vertex_table(cons._rational_subgraph_with_twists(gf))


@pytest.mark.parametrize("q", (2, 4, 8))
def test_nonincident_pairs_equal_the_scalar_comprehension(q):
    gf = field_of_order(q)
    vmat, hmat = gr.nonincident_pairs(gf, gr.proj_points(gf))
    assert vmat.dtype == hmat.dtype == np.uint8
    points = [tuple(p) for p in gr.proj_points(gf).tolist()]
    assert pairs(vmat, hmat) == [(p, h) for p in points for h in points if evaluate(gf, h, p)]


def test_normalized_and_vertex_keys():
    gf = field_of_order(4)
    assert gr.normalized(gf, [(0, 0b10, 1, 0)]).tolist() == [list(normalize(gf, (0, 0b10, 1, 0)))]
    assert normalize(gf, (0, 0b10, 1, 0))[1] == 1
    rescaled = [(tuple(gf.mul(lam, c) for c in (1, 2, 3, 0)),
                 tuple(gf.mul(mu, c) for c in (1, 0, 0, 2)))
                for lam in gf.nonzero() for mu in gf.nonzero()]
    vmat, hmat = (np.array(side) for side in zip(*rescaled))
    keys = gr.vertex_keys(gf, vmat, hmat)
    assert keys.dtype == np.int64 and set(keys.tolist()) == {scalar_key(gf, rescaled[0])}
    for rows in ([(0, 0, 0, 0)], [(1, 2, 0, 0), (0, 0, 0, 0)]):
        with pytest.raises(ValueError):
            gr.normalized(gf, rows)
    with pytest.raises(ValueError):
        gr.vertex_keys(gf, [(1, 0, 0, 0)], [(0, 0, 0, 0)])


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_vertex_keys_equal_the_scalar_reference(q):
    # every affine vertex of GF(2) and GF(4), 2000 seeded ones above
    gf = field_of_order(q)
    if q <= 4:
        verts = pairs(*gr.affine_vertices(gf))
    else:
        rng = random.Random(q)
        verts = [gr.random_affine_vertex(gf, rng) for _ in range(2000)]
    vmat, hmat = (np.array(side, dtype=np.uint8) for side in zip(*verts))
    assert gr.vertex_keys(gf, vmat, hmat).tolist() == [scalar_key(gf, vert) for vert in verts]
    if q <= 4:
        # projective keys sort as the vertices do
        keys = gr.vertex_keys(gf, *gr.projective_vertices(gf))
        assert (np.diff(keys) > 0).all()


def test_vertex_ids_find_projective_vertices_or_give_minus_one():
    gf = field_of_order(4)
    graph = gr.build_projective_graph(gf)
    rng = random.Random(27)
    verts = [gr.random_affine_vertex(gf, rng) for _ in range(300)]
    vmat, hmat = (np.array(side) for side in zip(*verts))
    want = [vertex_index(graph)[(normalize(gf, v), normalize(gf, h))] for v, h in verts]
    assert gr.vertex_ids(graph, vmat, hmat).tolist() == want
    # a subgraph without the vertex of the first draw
    ids = [i for i in range(0, graph.n, 7) if i not in want[:2]] + [want[1]]
    sub = subgraph(graph, ids)
    got = gr.vertex_ids(sub, vmat[:2], hmat[:2]).tolist()
    assert got == [-1, len(ids) - 1]
    # a graph of no vertices holds none of them
    assert gr.vertex_ids(gr.Graph(gf, *stack([])), vmat[:2], hmat[:2]).tolist() == [-1, -1]


def test_find_sorted_gives_minus_one_off_the_keys():
    keys = np.array([2, 5, 9])
    assert gr.find_sorted(keys, np.array([9, 1, 5, 10, 2, 6])).tolist() == [2, -1, 1, -1, 0, -1]
    # no keys: every value is off them, in the shape of the values
    none = np.array([], dtype=np.int64)
    assert gr.find_sorted(none, np.array([[0, 3], [4, -1]])).tolist() == [[-1, -1], [-1, -1]]
    assert gr.find_sorted(none, np.array([], dtype=np.int64)).shape == (0,)


def _searchsorted_find(keys, values):
    """Reference find_sorted: one search per value, in the order given."""
    if not keys.size:
        return np.full(np.shape(values), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(keys, values), keys.size - 1)
    return np.where(keys[at] == values, at, -1)


def test_find_sorted_matches_the_searchsorted_form():
    rng = np.random.default_rng(29)
    keys = np.unique(rng.integers(0, 10 ** 6, 7680)).astype(np.uint64)
    hits = rng.choice(keys, 500)
    cases = [np.concatenate([hits, rng.integers(0, 10 ** 6, 500).astype(np.uint64)]),
             # 2-d, with every value repeated
             np.repeat(hits, 3).reshape(-1, 6),
             # below the first key and above the last
             np.array([0, keys[0] - 1, keys[-1] + 1, 2 ** 63], dtype=np.uint64),
             np.array([], dtype=np.uint64).reshape(0, 3)]
    for values in cases:
        got = gr.find_sorted(keys, values)
        assert got.shape == values.shape and got.dtype == np.intp
        assert np.array_equal(got, _searchsorted_find(keys, values))
    none = np.array([], dtype=np.uint64)
    for values in cases:
        assert np.array_equal(gr.find_sorted(none, values), _searchsorted_find(none, values))


def test_graph_refuses_a_pair_that_is_not_a_vertex():
    gf = field_of_order(2)
    good = pairs(*gr.projective_vertices(gf))[:5]
    with pytest.raises(ValueError, match="not a vertex"):
        gr.Graph(gf, *stack(good + [((1, 0, 0, 0), (0, 1, 0, 0))]))


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


def test_reduct_check_counts_merged_classes_as_the_scalar_reference(monkeypatch):
    # classes that merge unrelated vertices: the neighbour-set and coclique
    # counts must equal those of scalar adjacency, one pair at a time
    gf = field_of_order(2)
    monkeypatch.setattr(gr, "vertex_keys", lambda gf, vmat, hmat:
                        (np.asarray(vmat).sum(axis=1) + np.asarray(hmat).sum(axis=1)) % 5)
    verts = pairs(*gr.affine_vertices(gf))
    classes = {}
    for j, vert in enumerate(verts):
        classes.setdefault((sum(vert[0]) + sum(vert[1])) % 5, []).append(j)
    nbrs = [frozenset(j for j, w in enumerate(verts) if gr.adjacent(gf, u, w)) for u in verts]
    mismatched = cocliques = 0
    seen = set()
    for members in classes.values():
        mismatched += sum(nbrs[m] != nbrs[members[0]] for m in members[1:])
        mismatched += nbrs[members[0]] in seen
        seen.add(nbrs[members[0]])
        cocliques += sum(gr.adjacent(gf, verts[a], verts[b])
                         for a in members for b in members if a < b)
    assert cocliques > 0
    rep = gr.verify_reduct_is_neighborhood_equality(gf)
    assert rep["witnesses"] == ["neighborhoods", "cocliques", "fiber_sizes",
                                "class_set_matches_projective"]
    assert rep["violations"] == mismatched + cocliques + 2


def test_reduct_preserves_adjacency_sampled():
    gf = field_of_order(4)
    rng = random.Random(0)
    for _ in range(100):
        a = gr.random_affine_vertex(gf, rng)
        b = gr.random_neighbor(gf, a, rng)
        assert gr.adjacent(gf, *((normalize(gf, v), normalize(gf, h)) for v, h in (a, b)))


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
                         and not any(p in graph.neighbors(w) for p in path[:-1])))
    return path


def _test_graphs():
    """A sparse subgraph four levels deep from vertex 0, a star with an
    isolated vertex, and induced paths on 2, 3 and 7 vertices."""
    gf2 = gr.build_affine_graph(field_of_order(2))
    sparse = subgraph(gf2, random.Random(4).sample(range(gf2.n), 20))
    star = [0] + gf2.neighbors(0)[:5].tolist()
    lone = next(j for j in range(gf2.n)
                if j not in star and not any(j in gf2.neighbors(i) for i in star))
    paths = [subgraph(gf2, _induced_path(gf2, k)) for k in (2, 3, 7)]
    return [sparse, subgraph(gf2, star + [lone])] + paths


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
    # the paths need no fallback up to 3 vertices; the rest take it, and
    # the star with an isolated vertex is disconnected
    assert [gr.diameter(g) for g in graphs[1:]] == [-1, 1, 2, 6]
    for graph in graphs:
        dists = [_queue_distances(graph, s) for s in range(graph.n)]
        want = -1 if any(-1 in d for d in dists) else max(map(max, dists))
        assert gr.diameter(graph) == want


def _within_two_by_rows(graph):
    """Reference distance-two test: for every vertex u, the OR of the
    packed closed rows (the neighbours and the vertex itself) of u and of
    its neighbours is all ones.  The rows are built from the CSR."""
    closed = np.eye(graph.n, dtype=bool)
    closed[graph.dart_sources(), graph._indices] = True
    rows = np.packbits(closed, axis=1)
    full = np.packbits(np.ones(graph.n, dtype=bool))
    return all((np.bitwise_or.reduce(rows[np.append(graph.neighbors(u), u)]) == full).all()
               for u in range(graph.n))


def _distance_two_graphs():
    """51 graphs: the GF(2) and GF(4) graphs, _test_graphs(), and seeded
    induced subgraphs of the GF(4) graph on 30 to 5439 vertices and of
    the GF(2) graph on 10 to 119 vertices."""
    g2, g4 = (gr.build_projective_graph(field_of_order(q)) for q in (2, 4))
    rng = random.Random(33)
    sizes4 = [30, 40, 50, 60, 70, 80, 100, 120, 150, 200, 250,
              300, 400, 500, 600, 800, 1000, 1500, 2500, 4000, 5439]
    sizes2 = list(range(10, 119, 5)) + [119]
    return ([g2, g4] + _test_graphs()
            + [subgraph(g4, rng.sample(range(g4.n), k)) for k in sizes4]
            + [subgraph(g2, rng.sample(range(g2.n), k)) for k in sizes2])


def test_distance_two_test_equals_the_brute_force():
    graphs = _distance_two_graphs()
    assert len(graphs) == 51
    got = [gr._within_two(graph) for graph in graphs]
    assert got == [_within_two_by_rows(graph) for graph in graphs]
    # both outcomes occur, and the full graphs pass
    assert got[:2] == [True, True] and False in got


def test_plane_set_classes_are_their_definitions():
    # every R and K set against its definition, also on subgraphs, whose
    # sets are thin enough that one plane more or less moves a common
    # neighbour (over the full graphs R and K share at least q planes or none)
    g2, g4 = (gr.build_projective_graph(field_of_order(q)) for q in (2, 4))
    rng = random.Random(34)
    graphs = ([g2, g4] + _test_graphs() + _adjacency_test_graphs()[1:]
              + [subgraph(g4, rng.sample(range(g4.n), k)) for k in (40, 300)]
              + [subgraph(g2, rng.sample(range(g2.n), 90))])
    for g in graphs:
        r_rows, r_class, k_rows, k_class = gr._plane_set_classes(g)
        n_planes = len(g.planes)
        vertex = (g.at[:-1, :-1] >= 0).astype(np.float32)
        both_on = (g.zero[:, None, :] & g.zero[None, :, :]).astype(np.float32)
        for rows, cls, want in ((r_rows, r_class, both_on @ vertex > 0),
                                (k_rows, k_class, g.zero.T[:, None, :] & g.zero.T[None, :, :])):
            sets = np.unpackbits(rows.view(np.uint8), axis=1, count=n_planes).astype(bool)
            assert np.array_equal(sets[cls], want)
            assert len(np.unique(rows, axis=0)) == len(rows)
    assert [len(rows) for rows in gr._plane_set_classes(g4)[::2]] == [442, 442]


def test_diameter_takes_bfs_only_past_distance_two(monkeypatch):
    calls = []
    real = gr.bfs
    monkeypatch.setattr(gr, "bfs", lambda graph, start: calls.append(start) or real(graph, start))
    for q in (2, 4):
        assert gr.diameter(gr.build_projective_graph(field_of_order(q))) == 2
    assert calls == []
    sparse, star, p2, p3, p7 = _test_graphs()
    assert (gr.diameter(p2), gr.diameter(p3), calls) == (1, 2, [])
    # diameter 3 or more: one connectivity BFS, then one BFS per source
    for graph in (sparse, p7):
        del calls[:]
        assert gr.diameter(graph) >= 3
        assert calls == [0] + list(range(graph.n))
    # disconnected: the connectivity BFS alone
    del calls[:]
    assert (gr.diameter(star), calls) == (-1, [0])


def test_local_graph_gf2():
    g = gr.build_affine_graph(field_of_order(2))
    sizes = {subgraph(g, g.neighbors(i).tolist()).n for i in range(g.n)}
    assert sizes == {28}
    lg = subgraph(g, g.neighbors(0).tolist())
    # the local graph inherits adjacency from the big graph
    big = {tuple(sorted((g.vertices[int(a)], g.vertices[int(b)])))
           for a in g.neighbors(0) for b in g.neighbors(0)
           if int(a) < int(b) and int(b) in g.neighbors(int(a))}
    small = {tuple(sorted((lg.vertices[i], lg.vertices[j])))
             for i in range(lg.n) for j in range(i + 1, lg.n) if j in lg.neighbors(i)}
    assert big == small


def test_empty_local_graph_guard():
    gf = field_of_order(2)
    g = gr.Graph(gf, *stack([(E4[0], E4[0])]))
    assert subgraph(g, g.neighbors(0).tolist()).n == 0


def test_local_graph_looks_like_dimension_three_graph():
    # the big graph is locally the one of one lower projective dimension:
    # same vertex count, same regular degree, same edge count
    gf = field_of_order(2)
    small = gr.build_projective_graph(gf, dim=3)
    assert small.n == 28
    small_degrees = {small.degree(i) for i in range(small.n)}
    big = gr.build_affine_graph(gf)
    for v in (0, 17, 119):
        lg = subgraph(big, big.neighbors(v).tolist())
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
            assert evaluate(gf, a[1], a[0]) != 0
            b = gr.random_neighbor(gf, a, rng)
            assert evaluate(gf, b[1], b[0]) != 0 and gr.adjacent(gf, a, b)


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
    # a shorter walk would be a back-and-forth 2-walk or no walk at all
    for length in (0, 1, 2):
        with pytest.raises(ValueError):
            gr.sample_closed_walk(gf, length, rng)


def test_samplers_are_seeded():
    gf = field_of_order(16)
    assert gr.sample_triangle(gf, random.Random(5)) == gr.sample_triangle(gf, random.Random(5))


def _walk_tuples(lengths, vs, hs):
    """The walks of sample_closed_walks, each a tuple of (vector, covector)
    tuples."""
    ends = np.cumsum(lengths).tolist()
    return [tuple(zip(map(tuple, vs[lo:hi].tolist()), map(tuple, hs[lo:hi].tolist())))
            for lo, hi in zip([0] + ends[:-1], ends)]


def _assert_closed_walks(gf, lengths, vs, hs):
    assert vs.shape == hs.shape == (sum(lengths), 4) and vs.dtype == hs.dtype == np.uint8
    walks = _walk_tuples(lengths, vs, hs)
    assert [len(walk) for walk in walks] == list(lengths)
    for walk in walks:
        assert all(evaluate(gf, h, v) != 0 for v, h in walk)
        assert all(gr.adjacent(gf, a, b) for a, b in zip(walk, walk[1:] + walk[:1]))


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_sample_closed_walks_are_seeded_closed_walks(q):
    gf = field_of_order(q)
    lengths = [3, 4, 8, 5, 3, 11] * 20
    vs, hs = gr.sample_closed_walks(gf, lengths, np.random.default_rng(q))
    _assert_closed_walks(gf, lengths, vs, hs)
    again = gr.sample_closed_walks(gf, lengths, np.random.default_rng(q))
    assert (again[0] == vs).all() and (again[1] == hs).all()


def test_sample_closed_walks_restart_the_walks_that_spend_their_budget(monkeypatch):
    # over GF(2) a candidate is rejected about three times in five, so a
    # budget of one pass of candidates is often spent
    gf = field_of_order(2)
    starts = []
    draw = gr._random_affine_vertices
    monkeypatch.setattr(gr, "_random_affine_vertices",
                        lambda gf, count, rng: starts.append(count) or draw(gf, count, rng))
    monkeypatch.setattr(gr, "NEIGHBOR_TRIES", gr.WALK_DRAWS)
    lengths = [4, 5] * 25
    vs, hs = gr.sample_closed_walks(gf, lengths, np.random.default_rng(1))
    _assert_closed_walks(gf, lengths, vs, hs)
    assert starts[0] == 50 and sum(starts[1:]) > 0


@pytest.mark.parametrize("q", (2, 4))
def test_random_in_kernels_draws_every_kernel_element_evenly(q):
    # two independent rows, equal rows, and (over GF(4)) a row and twice it
    gf = field_of_order(q)
    r0 = np.array([(1, 1, 0, 1)] * 3, dtype=np.uint8)
    r1 = np.array([(0, 1, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0)], dtype=np.uint8)
    r1[2] = [gf.mul(q - 1, c) for c in r0[2]]
    draws = 1000 * q ** 3
    got = gr._random_in_kernels(gf, r0, r1, np.random.default_rng(q), draws)
    for row in range(3):
        kernel = [x for x in itertools.product(range(q), repeat=4)
                  if evaluate(gf, tuple(r0[row]), x) == evaluate(gf, tuple(r1[row]), x) == 0]
        counts = Counter(map(tuple, got[row].tolist()))
        assert set(counts) == set(kernel)
        mean = draws / len(kernel)
        assert max(abs(n - mean) for n in counts.values()) < 5 * mean ** 0.5


def test_sample_closed_walks_refuse_walks_under_three_edges():
    gf = field_of_order(8)
    for lengths in ([2], [5, 1], [0]):
        with pytest.raises(ValueError):
            gr.sample_closed_walks(gf, lengths, np.random.default_rng(1))
    vs, hs = gr.sample_closed_walks(gf, [], np.random.default_rng(1))
    assert vs.shape == hs.shape == (0, 4)


# ----------------------------------------------------------------------
# the samplers draw exactly what rng.randrange draws
# ----------------------------------------------------------------------

def _affine_vertex_by_randrange(gf, rng):
    q = gf.order
    while True:
        v = tuple(rng.randrange(q) for _ in range(4))
        if any(v):
            break
    while True:
        h = tuple(rng.randrange(q) for _ in range(4))
        if evaluate(gf, h, v):
            return (v, h)


def _in_span_by_randrange(gf, basis, rng):
    while True:
        coeffs = [rng.randrange(gf.order) for _ in basis]
        if any(coeffs):
            out = (0, 0, 0, 0)
            for c, b in zip(coeffs, basis):
                out = vec_add(out, vec_scale(gf, c, b))
            return out


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_draws_match_randrange(q):
    gf = field_of_order(q)
    bits = q.bit_length()
    for seed in range(50):
        fast, slow = random.Random(seed), random.Random(seed)
        assert [gr._draw4(fast.getrandbits, q, bits) for _ in range(3)] == \
            [tuple(slow.randrange(q) for _ in range(4)) for _ in range(3)]
        assert fast.getstate() == slow.getstate()
        v = gr.random_nonzero_vector(gf, fast)
        while True:
            want = tuple(slow.randrange(q) for _ in range(4))
            if any(want):
                break
        assert v == want and fast.getstate() == slow.getstate()
        vert = gr.random_affine_vertex(gf, fast)
        assert vert == _affine_vertex_by_randrange(gf, slow)
        other = gr.random_affine_vertex(gf, fast)
        assert other == _affine_vertex_by_randrange(gf, slow)
        for rows in ([vert[1], vert[1]], [vert[1], other[1]]):
            basis = _rref_kernel(gf, rows)
            assert gr._random_in_span(gf, basis, fast) == _in_span_by_randrange(gf, basis, slow)
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_unrolled_span_draws_equal_the_loop(q):
    # the 2- and 3-vector kernels of nonzero rows draw what the reference
    # loop draws, all zero coefficients redrawn, and leave the generator in
    # the same state
    gf = field_of_order(q)
    for seed in range(10):
        rows = random.Random(seed)
        bases = []
        for _ in range(40):
            r0, r1 = (gr.random_nonzero_vector(gf, rows) for _ in range(2))
            bases += [la.kernel(gf, r0, r1), la.kernel(gf, r0, r0)]
        assert {len(basis) for basis in bases} == {2, 3}
        fast, slow = random.Random(seed + 100), random.Random(seed + 100)
        for basis in bases:
            assert gr._random_in_span(gf, basis, fast) == random_in_span_loop(gf, basis, slow)
            assert fast.getstate() == slow.getstate()


def test_span_sampler_refuses_other_bases():
    # kernel returns no other basis for two nonzero rows
    gf, rng = field_of_order(4), random.Random(0)
    for basis in (list(E4), [E4[0]]):
        with pytest.raises(ValueError):
            gr._random_in_span(gf, basis, rng)


def test_csr_and_distances_are_the_same_at_any_block_size(monkeypatch):
    # with blocks of 7 elements each gathered row is a block of its own, and
    # a frontier block holds one long row or a few short ones
    graphs = [gr.build_projective_graph(field_of_order(q)) for q in (2, 4)] + _test_graphs()
    want = [(g._indptr, g._indices, [gr.bfs(g, s) for s in (0, g.n - 1)]) for g in graphs]
    monkeypatch.setattr(gr, "BULK_BLOCK", 7)
    for g, (indptr, indices, dists) in zip(graphs, want):
        got = gr.Graph(g.gf, g.vmat, g.hmat)
        assert got._indptr.dtype == np.int64 and got._indices.dtype == np.int16
        assert np.array_equal(got._indptr, indptr) and np.array_equal(got._indices, indices)
        # each row against the array form of the adjacency definition
        for i in range(0, g.n, max(1, g.n // 97)):
            assert got.neighbors(i).tolist() == _adjacent_row(got, i).tolist()
        src = got.dart_sources()
        assert src.dtype == np.int16
        assert src.tolist() == [i for i in range(g.n) for _ in range(got.degree(i))]
        assert all(np.array_equal(gr.bfs(got, s), d) for s, d in zip((0, g.n - 1), dists))


def _block_test_graphs():
    """The GF(2) and GF(4) graphs, _test_graphs(), and stacks out of
    (p_id, h_id) order: the shuffled thirteen-vertex subgraph, the GF(8)
    and GF(16) subgraphs and a seeded 600-vertex subgraph of the GF(4)
    graph."""
    g4 = gr.build_projective_graph(field_of_order(4))
    return ([gr.build_projective_graph(field_of_order(2)), g4] + _test_graphs()
            + _adjacency_test_graphs()[1:]
            + [subgraph(g4, random.Random(6).sample(range(g4.n), 600))])


def _frontier_edges(graph):
    """Reference edge pass: the darts of every row from frontier_blocks
    over all rows, those with i < j."""
    for src, pos in gr.frontier_blocks(graph._indptr, np.arange(graph.n)):
        keep = src < graph._indices[pos]
        yield src[keep], graph._indices[pos[keep]], pos[keep]


def test_edge_blocks_equal_the_frontier_form(monkeypatch):
    graphs = _block_test_graphs()
    assert not all(g.ascending for g in graphs)
    for block in (gr.BULK_BLOCK, 7):
        monkeypatch.setattr(gr, "BULK_BLOCK", block)
        for g in graphs:
            got, want = list(gr.edge_blocks(g)), list(_frontier_edges(g))
            assert len(got) == len(want)
            for parts, wants in zip(got, want):
                assert [x.dtype for x in parts] == [np.int64, np.int16, np.int64]
                assert all(np.array_equal(x, y) and x.dtype == y.dtype
                           for x, y in zip(parts, wants))
            assert sum(part[0].size for part in got) == g.edge_count()


def _full_scan_bfs(indptr, indices, start):
    """Reference csr_bfs: the same level scan, run on until a level finds
    no vertex."""
    n = indptr.size - 1
    dist = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    dart = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = np.array([start])
    d = 0
    while frontier.size:
        d += 1
        found = []
        for slot, pos in gr.frontier_blocks(indptr, frontier):
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
    return dist, parent, dart


def _bfs_cases():
    """(indptr, indices, starts) of the GF(2) and GF(4) graphs from their
    first, a middle and their last vertex, of the GF(2) cover's CSR as
    cover_report builds it, of a graph of two components and of a graph of
    one vertex."""
    from phcover import construction as cons

    cases = []
    for q in (2, 4):
        g = gr.build_projective_graph(field_of_order(q))
        cases.append((g._indptr, g._indices, (0, g.n // 2, g.n - 1)))
    edges = cons.cover_data()["edges"].astype(np.int16)
    n = len(cons.cover_data()["vertices"])
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    cases.append((indptr, dst[np.argsort(src, kind="stable")], (0, n - 1)))
    # a star around vertex 0 and one vertex adjacent to none of it
    gf2 = gr.build_affine_graph(field_of_order(2))
    star = [0] + gf2.neighbors(0)[:5].tolist()
    lone = next(j for j in range(gf2.n)
                if j not in star and not any(j in gf2.neighbors(i) for i in star))
    two = subgraph(gf2, star + [lone])
    cases.append((two._indptr, two._indices, (0, 3, two.n - 1)))
    one = subgraph(gf2, [7])
    cases.append((one._indptr, one._indices, (0,)))
    return cases


def test_bfs_stopping_at_the_last_vertex_builds_the_full_scan_tree(monkeypatch):
    cases = _bfs_cases()
    for block in (gr.BULK_BLOCK, 7):
        monkeypatch.setattr(gr, "BULK_BLOCK", block)
        for indptr, indices, starts in cases:
            for start in starts:
                got = gr.csr_bfs(indptr, indices, start)
                want = _full_scan_bfs(indptr, indices, start)
                assert [x.dtype for x in got] == [np.int32, np.int64, np.int64]
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the second component stays unreached
    indptr, indices, _ = cases[3]
    assert (gr.csr_bfs(indptr, indices, 0)[0] < 0).sum() == 1


def test_bfs_of_the_gf4_graph_gathers_two_levels_of_darts(monkeypatch):
    # the graph has diameter 2: the root's 336 darts and their ends' 336^2
    # darts reach every vertex, and the third level is never gathered
    g = gr.build_projective_graph(field_of_order(4))
    gathered = []
    real = gr.frontier_darts

    def counted(indptr, frontier):
        slot, pos = real(indptr, frontier)
        gathered.append(pos.size)
        return slot, pos

    monkeypatch.setattr(gr, "frontier_darts", counted)
    dist = gr.csr_bfs(g._indptr, g._indices, 0)[0]
    assert (dist >= 0).all() and dist.max() == 2
    assert g.degree(0) == 336
    assert sum(gathered) == 336 + 336 ** 2 == 113232
