import gc
import json
import random

import numpy as np
import pytest

from phcover.field import field_of_order
from phcover.linalg import E4, evaluate, vec_add, vec_scale
from phcover import construction as cons
from phcover import graphs as gr
from phcover import linalg as la
from phcover import multilinear as ml
from phcover import voltage as vg
from helpers import mat_mul, pairs, subgraph, vertex_index
from test_graphs import _walk_tuples, normalize
from test_linalg import _rref_kernel
from test_multilinear import on_sym_packed_array


def sym_unit(i, j, coef=1):
    out = [0] * 21
    out[ml.SYM_SLOT[(i, j)]] = coef
    return tuple(out)


# ----------------------------------------------------------------------
# the dart voltage
# ----------------------------------------------------------------------

def test_dart_voltage_between_u_and_vx():
    # the distinguished dart carries w2w5 + x w4w5
    for q in (4, 8, 16):
        gf = field_of_order(q)
        for x in cons.order4_subgroup(gf):
            got = cons.dart_voltage(gf, cons.vertex_u(gf), cons.vertex_vx(gf, x))
            want = ml.sym_add(sym_unit(1, 4), sym_unit(3, 4, x))
            assert got == want


def test_dart_voltage_symmetric():
    for q in (2, 4, 8):
        gf = field_of_order(q)
        rng = random.Random(q)
        for _ in range(25):
            a = gr.random_affine_vertex(gf, rng)
            b = gr.random_neighbor(gf, a, rng)
            assert cons.dart_voltage(gf, a, b) == cons.dart_voltage(gf, b, a)


def test_dart_voltage_rescale_invariant():
    gf = field_of_order(4)
    rng = random.Random(1)
    for _ in range(10):
        a = gr.random_affine_vertex(gf, rng)
        b = gr.random_neighbor(gf, a, rng)
        base = cons.dart_voltage(gf, a, b)
        for lam in gf.nonzero():
            for mu in gf.nonzero():
                scaled = (vec_scale(gf, lam, a[0]), vec_scale(gf, mu, a[1]))
                assert cons.dart_voltage(gf, scaled, b) == base


def test_dart_voltage_errors():
    a = (E4[0], E4[0])
    b = (E4[1], E4[1])
    # vertices not adjacent to a, each failing one clause of adjacency
    first_fails = (E4[1], vec_add(E4[0], E4[1]))  # h_a(v) = 0, h(v_a) != 0
    second_fails = (vec_add(E4[0], E4[1]), E4[1])  # h_a(v) != 0, h(v_a) = 0
    for q in (2, 16):
        gf = field_of_order(q)
        with pytest.raises(ValueError, match="not vertices"):
            cons.dart_voltage(gf, a, (E4[0], E4[1]))  # second not a vertex
        with pytest.raises(ValueError, match="not vertices"):
            cons.dart_voltage(gf, (E4[0], E4[1]), (E4[2], E4[2]))  # first not a vertex
        assert evaluate(gf, a[1], first_fails[0]) == 0
        assert evaluate(gf, first_fails[1], a[0]) != 0
        assert evaluate(gf, a[1], second_fails[0]) != 0
        assert evaluate(gf, second_fails[1], a[0]) == 0
        for c in (first_fails, second_fails):
            with pytest.raises(ValueError, match="not adjacent"):
                cons.dart_voltage(gf, a, c)
            with pytest.raises(ValueError, match="not adjacent"):
                cons.dart_voltage(gf, c, a)
        assert cons.dart_voltage(gf, a, b) == cons.dart_voltage(gf, b, a)


def spec_dart_voltage(gf, a, b):
    """h1(v1)^-1 h2(v2)^-1 (v1 ^ v2) * phi(h1 ^ h2) from the package's own
    wedge, wedge_covectors, phi and sym_mul."""
    (va, ha), (vb, hb) = a, b
    scale = gf.mul(gf.inv(evaluate(gf, ha, va)), gf.inv(evaluate(gf, hb, vb)))
    return ml.sym_mul(gf, ml.sym_scale(gf, scale, ml.wedge(gf, va, vb)),
                      ml.phi(ml.wedge_covectors(gf, ha, hb)))


def _assert_dart_voltage_refuses(gf, a, c):
    """a non-adjacent c and a non-vertex sharing a's vector both raise."""
    if not gr.adjacent(gf, a, c):
        for x, y in ((a, c), (c, a)):
            with pytest.raises(ValueError, match="not adjacent"):
                cons.dart_voltage(gf, x, y)
    bad = (a[0], _rref_kernel(gf, [a[0]])[0])
    for x, y in ((a, bad), (bad, a)):
        with pytest.raises(ValueError, match="not vertices"):
            cons.dart_voltage(gf, x, y)


def test_dart_voltage_matches_spec_on_every_gf2_dart():
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    darts = 0
    for i, a in enumerate(graph.vertices):
        for j in graph.neighbors(i).tolist():
            b = graph.vertices[j]
            assert cons.dart_voltage(gf, a, b) == spec_dart_voltage(gf, a, b)
            darts += 1
        _assert_dart_voltage_refuses(gf, a, graph.vertices[(i + 1) % graph.n])
    assert darts == 2 * graph.edge_count() == 3360


@pytest.mark.parametrize("q", (4, 8, 16))
def test_dart_voltage_matches_spec_on_seeded_darts(q):
    gf = field_of_order(q)
    rng = random.Random(100 + q)
    darts = 0
    while darts < 2000:
        a = gr.random_affine_vertex(gf, rng)
        b = gr.random_neighbor(gf, a, rng)
        if b is None:
            continue
        assert cons.dart_voltage(gf, a, b) == spec_dart_voltage(gf, a, b)
        darts += 1
        if darts % 20 == 0:
            _assert_dart_voltage_refuses(gf, a, gr.random_affine_vertex(gf, rng))


def _bench_oracle(monkeypatch):
    """bench/oracle.py, loaded from its file without writing bytecode."""
    import importlib.util
    import pathlib
    import sys

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("phcover_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dart_rows(darts):
    """The (N, 4) uint8 stacks v1, h1, v2, h2 of a list of darts (a, b)."""
    return [np.array([dart[end][side] for dart in darts], dtype=np.uint8).reshape(-1, 4)
            for end in (0, 1) for side in (0, 1)]


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_dart_voltages_match_the_scalar_on_seeded_darts(q, monkeypatch):
    gf = field_of_order(q)
    darts = _random_darts(gf, 2000, 300 + q)
    rows = _dart_rows(darts)
    got = cons.dart_voltages(gf, *rows)
    assert got.shape == (2000, 21) and got.dtype == np.uint8
    got = [tuple(v) for v in got.tolist()]
    assert got == [cons.dart_voltage(gf, a, b) for a, b in darts]
    oracle = _bench_oracle(monkeypatch)
    f = oracle.Field(q)
    assert got[:200] == [oracle.voltage(f, a, b) for a, b in darts[:200]]
    # a row whose functional vanishes on its vector, and a non-adjacent pair
    v1, h1, v2, h2 = rows
    bad = h1.copy()
    bad[7] = _rref_kernel(gf, [darts[7][0][0]])[0]
    with pytest.raises(ValueError, match="not vertices"):
        cons.dart_voltages(gf, v1, bad, v2, h2)
    with pytest.raises(ValueError, match="not vertices"):
        cons.dart_voltages(gf, v2, h2, v1, bad)
    far = next(b for b in (gr.random_affine_vertex(gf, random.Random(s)) for s in range(100))
               if not gr.adjacent(gf, darts[7][0], b))
    v2, h2 = v2.copy(), h2.copy()
    v2[7], h2[7] = far
    with pytest.raises(ValueError, match="not adjacent"):
        cons.dart_voltages(gf, v1, h1, v2, h2)


def reference_dart_voltage(gf, a, b):
    """h1(v1)^-1 h2(v2)^-1 (v1 ^ v2) * phi(h1 ^ h2) from gf.mul and gf.inv
    alone, with the scale applied to the 21 product slots."""
    (va, ha), (vb, hb) = a, b

    def ev(f, v):
        acc = 0
        for x, y in zip(f, v):
            acc ^= gf.mul(x, y)
        return acc

    def wedge(x, y):
        return [gf.mul(x[i], y[j]) ^ gf.mul(x[j], y[i]) for i, j in ml.BIV_PAIRS]

    w, d = wedge(va, vb), wedge(ha, hb)[::-1]
    scale = gf.mul(gf.inv(ev(ha, va)), gf.inv(ev(hb, vb)))
    return tuple(gf.mul(scale, gf.mul(w[i], d[i]) if i == j
                        else gf.mul(w[i], d[j]) ^ gf.mul(w[j], d[i]))
                 for i, j in ml.SYM_PAIRS)


def _bulk_against_scalar(graph, srcs, dsts):
    import numpy as np

    gf = graph.gf
    srcs, dsts = np.asarray(srcs), np.asarray(dsts)
    packed = cons.bulk_dart_voltage(gf, srcs, dsts, graph.vmat, graph.hmat)
    assert packed.size == srcs.size
    for i, j, want in zip(srcs.tolist(), dsts.tolist(), packed.tolist()):
        got = cons.dart_voltage(gf, graph.vertices[i], graph.vertices[j])
        assert ml.pack_sym(gf, got) == want


def test_scalar_voltage_matches_bulk_on_every_gf2_dart():
    import numpy as np

    graph = gr.build_affine_graph(field_of_order(2))
    srcs = np.repeat(np.arange(graph.n), [graph.degree(i) for i in range(graph.n)])
    dsts = np.concatenate([graph.neighbors(i) for i in range(graph.n)])
    assert srcs.size == 2 * graph.edge_count()
    _bulk_against_scalar(graph, srcs, dsts)


def test_scalar_voltage_matches_bulk_on_seeded_gf4_projective_darts():
    graph = gr.build_projective_graph(field_of_order(4))
    rng = random.Random(11)
    srcs = [rng.randrange(graph.n) for _ in range(2000)]
    dsts = []
    for i in srcs:
        nbrs = graph.neighbors(i)
        dsts.append(int(nbrs[rng.randrange(nbrs.size)]))
    _bulk_against_scalar(graph, srcs, dsts)


def test_scalar_voltage_matches_reference_formula_gf16():
    gf = field_of_order(16)
    rng = random.Random(16)
    for _ in range(500):
        a = gr.random_affine_vertex(gf, rng)
        b = gr.random_neighbor(gf, a, rng)
        assert cons.dart_voltage(gf, a, b) == reference_dart_voltage(gf, a, b)


def _bulk_on_dart_list(gf, darts):
    """Bulk voltages of a list of (a, b) vertex pairs, with the endpoints
    stacked as rows 2i and 2i + 1."""
    import numpy as np

    verts = [v for dart in darts for v in dart]
    vmat = np.array([v for v, _ in verts], dtype=np.uint8).reshape(-1, 4)
    hmat = np.array([h for _, h in verts], dtype=np.uint8).reshape(-1, 4)
    src = np.arange(0, len(verts), 2)
    return cons.bulk_dart_voltage(gf, src, src + 1, vmat, hmat), vmat


def _random_darts(gf, n, seed):
    rng = random.Random(seed)
    darts = []
    for _ in range(n):
        a = gr.random_affine_vertex(gf, rng)
        darts.append((a, gr.random_neighbor(gf, a, rng)))
    return darts


def test_bulk_voltages_match_scalar():
    gf = field_of_order(8)
    darts = _random_darts(gf, 50, 2)
    packed, _ = _bulk_on_dart_list(gf, darts)
    for pos, (a, b) in enumerate(darts):
        assert int(packed[pos]) == ml.pack_sym(gf, cons.dart_voltage(gf, a, b))


def test_bulk_voltages_with_a_thousand_distinct_points():
    # random affine vertices: the pair tables are far larger than the
    # 85 x 85 of the GF(4) projective graph, and the point and hyperplane
    # tables differ in size
    import numpy as np

    gf = field_of_order(8)
    darts = _random_darts(gf, 600, 1)
    packed, vmat = _bulk_on_dart_list(gf, darts)
    n_points = len(np.unique(vmat, axis=0))
    n_planes = len({h for dart in darts for _, h in dart})
    assert n_points >= 1000 and n_planes != n_points
    for pos, (a, b) in enumerate(darts):
        assert int(packed[pos]) == ml.pack_sym(gf, cons.dart_voltage(gf, a, b))


def test_bulk_voltages_on_every_dart_of_the_gf8_subgraph():
    graph = cons._rational_subgraph_with_twists(field_of_order(8))
    table = cons.voltage_table(graph)
    assert table.volts.dtype.kind == "u"
    for i in range(graph.n):
        lo, hi = int(table.indptr[i]), int(table.indptr[i + 1])
        for j, want in zip(table.indices[lo:hi].tolist(), table.volts[lo:hi].tolist()):
            got = cons.dart_voltage(graph.gf, graph.vertices[i], graph.vertices[j])
            assert ml.pack_sym(graph.gf, got) == want


def test_bulk_voltages_on_empty_stack():
    import numpy as np

    z = np.zeros((0, 4), dtype=np.uint8)
    empty = np.zeros(0, dtype=np.intp)
    for q in (2, 4, 8):
        out = cons.bulk_dart_voltage(field_of_order(q), empty, empty, z, z)
        assert out.dtype == np.uint64 and out.shape == (0,)


def test_bulk_voltages_across_blocks():
    import numpy as np

    # two full blocks and a partial one of 7 darts
    graph = gr.build_projective_graph(field_of_order(4))
    pos = np.random.default_rng(8).integers(0, graph._indices.size, 2 * gr.BULK_BLOCK + 7)
    _bulk_against_scalar(graph, np.searchsorted(graph._indptr, pos, side="right") - 1,
                         graph._indices[pos])


def test_bulk_voltages_refuse_dart_ends_outside_the_stack():
    import numpy as np

    gf = field_of_order(2)
    graph = gr.build_projective_graph(gf)
    for src, dst in (([0], [graph.n]), ([-1], [0]), ([0, graph.n + 5], [1, 2])):
        with pytest.raises(IndexError, match="not a row"):
            cons.bulk_dart_voltage(gf, np.array(src), np.array(dst), graph.vmat, graph.hmat)


def test_bulk_voltages_refuse_k4():
    import numpy as np

    gf = field_of_order(16)
    z = np.zeros((1, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        cons.bulk_dart_voltage(gf, [0], [0], z, z)


def test_bulk_voltages_refuse_what_the_scalar_refuses():
    import numpy as np

    gf = field_of_order(4)
    v0 = cons.vertex_v0(gf)
    # a row whose functional vanishes on its vector, here the zero row
    z = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="not vertices"):
        cons.dart_voltage(gf, ((0,) * 4, (0,) * 4), v0)
    with pytest.raises(ValueError, match="not vertices"):
        cons.bulk_dart_voltage(gf, [0], [1], z, z)
    # (e1, f1) -> (e1, f1), and a non-adjacent pair in the middle of a block
    with pytest.raises(ValueError, match="not adjacent"):
        cons.dart_voltage(gf, v0, v0)
    one = np.array([v0[0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="not adjacent"):
        cons.bulk_dart_voltage(gf, [0], [0], one, one)
    # (e1, f1) and (e2, f1 + f2): f1 kills e2, but f1 + f2 does not kill e1,
    # so the pair fails the adjacency test in one direction only
    vmat = np.array([(1, 0, 0, 0), (0, 1, 0, 0)], dtype=np.uint8)
    hmat = np.array([(1, 0, 0, 0), (1, 1, 0, 0)], dtype=np.uint8)
    for a, b in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="not adjacent"):
            cons.bulk_dart_voltage(gf, [a], [b], vmat, hmat)
    graph = gr.build_projective_graph(gf)
    src = graph.dart_sources()[:gr.BULK_BLOCK + 9].copy()
    dst = graph._indices[:src.size].copy()
    cons.bulk_dart_voltage(gf, src, dst, graph.vmat, graph.hmat)
    far = next(j for j in range(graph.n) if j != src[-1] and j not in graph.neighbors(src[-1]))
    dst[-1] = far
    with pytest.raises(ValueError, match="not adjacent"):
        cons.dart_voltage(gf, graph.vertices[src[-1]], graph.vertices[far])
    with pytest.raises(ValueError, match="not adjacent"):
        cons.bulk_dart_voltage(gf, src, dst, graph.vmat, graph.hmat)


# ----------------------------------------------------------------------
# triangle / quadrangle / pentagon lemmas
# ----------------------------------------------------------------------

def test_triangles_exhaustive_gf2():
    rep = cons.verify_triangles(field_of_order(2), "exhaustive")
    assert rep["passed"]
    assert rep["samples"] == 3360  # 1680 edges x 6 common neighbours / 3
    # each field has one mode: exhaustive over GF(2), sampled above it
    for q, mode in ((2, "sample"), (8, "exhaustive")):
        with pytest.raises(ValueError, match="mode"):
            cons.verify_triangles(field_of_order(q), mode)
        with pytest.raises(ValueError, match="mode"):
            cons.verify_quadrangles(field_of_order(q), mode)


def test_triangles_sampled():
    for q in (4, 8):
        rep = cons.verify_triangles(field_of_order(q), samples=1500, seed=7)
        assert rep["passed"] and rep["samples"] == 1500


def test_quadrangles_exhaustive_gf2():
    rep = cons.verify_quadrangles(field_of_order(2), "exhaustive")
    assert rep["passed"]
    assert rep["samples"] > 0


def test_quadrangles_pentagons_sampled_gf4():
    gf = field_of_order(4)
    assert cons.verify_quadrangles(gf, samples=1500, seed=8)["passed"]
    assert cons.verify_pentagons(gf, samples=1500, seed=9)["passed"]


def test_special_quadrangle_voltage_is_diagonal():
    # opposite vertices sharing the vector: voltage lands in the squares,
    # no U component
    gf = field_of_order(4)
    rng = random.Random(10)
    found = 0
    while found < 50:
        v = gr.random_nonzero_vector(gf, rng)
        h0 = tuple(rng.randrange(4) for _ in range(4))
        h2 = tuple(rng.randrange(4) for _ in range(4))
        if evaluate(gf, h0, v) == 0 or evaluate(gf, h2, v) == 0:
            continue
        a, c = (v, h0), (v, h2)
        b = gr.sample_common_neighbor(gf, a, c, rng)
        d = gr.sample_common_neighbor(gf, a, c, rng)
        if b is None or d is None or b == d:
            continue
        found += 1
        volt = vg.path_voltage(gf, lambda x, y: cons.dart_voltage(gf, x, y),
                               (a, b, c, d, a))
        assert ml.in_w2(gf, volt)


def test_long_cycles_stay_in_span():
    rep = cons.verify_long_cycles(field_of_order(4), lengths=(6, 7, 8),
                                  samples=150, seed=11)
    assert rep["passed"]


# The sampled checks over GF(4), and the walks of the GF(8) cycle span:
# (run, cycles drawn, darts per cycle, whether membership in W2 + U is
# tested, witness key).
SAMPLED_CHECKS = {
    "triangles": (lambda: cons.verify_triangles(field_of_order(4), samples=40, seed=3),
                  40, {3}, False, "triangle"),
    "quadrangles": (lambda: cons.verify_quadrangles(field_of_order(4), samples=30, seed=3),
                    30, {4}, True, "cycle"),
    "pentagons": (lambda: cons.verify_pentagons(field_of_order(4), samples=20, seed=3),
                  20, {5}, True, "cycle"),
    "long-cycles": (lambda: cons.verify_long_cycles(field_of_order(4), lengths=(6, 7),
                                                    samples=8, seed=3),
                    16, {6, 7}, True, "walk"),
}


def _recorded(monkeypatch, name):
    """Patch cons.name to record (args, result) of each call."""
    calls = []
    real = getattr(cons, name)

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cons, name, recorded)
    return calls


@pytest.mark.parametrize("check", sorted(SAMPLED_CHECKS))
def test_sampled_cycles_work_counts(check, monkeypatch):
    run, cycles, lengths, membership, _ = SAMPLED_CHECKS[check]
    paths = _recorded(monkeypatch, "path_voltage")
    darts = _recorded(monkeypatch, "dart_voltage")
    members = _recorded(monkeypatch, "in_w2_plus_u")
    rep = run()
    assert rep["passed"]
    # one closed path per cycle, one dart voltage per edge of it
    assert len(paths) == cycles
    assert all(path[0] == path[-1] and len(path) - 1 in lengths for (_, _, path), _ in paths)
    assert len(darts) == sum(len(path) - 1 for (_, _, path), _ in paths)
    assert len(members) == (cycles if membership else 0)


@pytest.mark.parametrize("check", sorted(SAMPLED_CHECKS))
def test_sampled_cycles_negative_control(check, monkeypatch):
    run, cycles, _, _, key = SAMPLED_CHECKS[check]
    monkeypatch.setattr(cons, "in_w2_plus_u", lambda gf, volt: False)
    monkeypatch.setattr(cons, "dart_voltage", lambda gf, a, b: ml.ZERO21)
    rep = run()
    assert not rep["passed"]
    assert rep["violations"] == rep["samples"] == cycles
    assert len(rep["witnesses"]) == 5
    assert all(set(w) == {key, "voltage"} for w in rep["witnesses"])


def _cycle_span_walks(seed=3, walk_samples=20):
    """The GF(8) cycle-span report with walk_samples walks."""
    return cons.cycle_span_report(field_of_order(8), seed=seed, walk_samples=walk_samples)


def test_cycle_span_walk_work_counts(monkeypatch):
    # the walks' darts go through dart_voltages once, and their voltages
    # through one membership mask
    walks = _recorded(monkeypatch, "sample_closed_walks")
    darts = _recorded(monkeypatch, "dart_voltages")
    masks = _recorded(monkeypatch, "in_w2_plus_u")
    rep = _cycle_span_walks()
    assert rep["passed"] and rep["sampled_walks"] == 20
    [((_, lengths, _), _)] = walks
    assert len(lengths) == 20 and set(lengths.tolist()) <= {4, 5, 6, 7, 8}
    assert [len(args[1]) for args, _ in darts] == [int(lengths.sum())]
    assert len(masks) == 1 and masks[0][1].shape == (20,) and masks[0][1].all()


def test_cycle_span_walk_negative_control(monkeypatch):
    gf = field_of_order(8)
    monkeypatch.setattr(cons, "in_w2_plus_u", lambda gf, volts: np.zeros(len(volts), dtype=bool))
    rep = _cycle_span_walks()
    assert not rep["passed"]
    assert rep["violations"] == rep["sampled_walks"] == 20
    assert len(rep["witnesses"]) == 5
    for witness in rep["witnesses"]:
        assert set(witness) == {"walk", "voltage"}
        assert witness["voltage"] == cons.cycle_voltage(gf, witness["walk"])


@pytest.mark.parametrize("q", (8, 16))
def test_cycle_span_walk_voltages_equal_the_scalar_cycle_voltages(q, monkeypatch):
    gf = field_of_order(q)
    walks = _recorded(monkeypatch, "sample_closed_walks")
    masks = _recorded(monkeypatch, "in_w2_plus_u")
    assert cons.cycle_span_report(gf, seed=q, walk_samples=300)["passed"]
    [((_, lengths, _), (vs, hs))], [((_, volts), _)] = walks, masks
    assert [tuple(v) for v in volts.tolist()] == \
        [cons.cycle_voltage(gf, walk) for walk in _walk_tuples(lengths, vs, hs)]


@pytest.mark.parametrize("q", (8, 16))
def test_cycle_span_walk_check_refuses_no_walks(q):
    # no walk would report a pass, and a negative count failed inside numpy
    for walk_samples in (0, -1):
        with pytest.raises(ValueError, match="at least one"):
            cons.cycle_span_report(field_of_order(q), walk_samples=walk_samples)


def test_cycle_span_walks_are_closed_walks_of_length_4_to_8(monkeypatch):
    gf = field_of_order(8)
    walks = _recorded(monkeypatch, "sample_closed_walks")
    first = _cycle_span_walks(seed=7, walk_samples=200)
    assert _cycle_span_walks(seed=7, walk_samples=200) == first
    [((_, lengths, _), (vs, hs)), ((_, again, _), (vs2, hs2))] = walks
    assert set(lengths.tolist()) == {4, 5, 6, 7, 8}
    assert (lengths == again).all() and (vs == vs2).all() and (hs == hs2).all()
    for walk in _walk_tuples(lengths, vs, hs):
        assert all(gr.adjacent(gf, a, b) for a, b in zip(walk, walk[1:] + walk[:1]))


def test_cycle_span_walks_fold_every_seed_onto_its_own_stream(monkeypatch):
    # numpy's Generator refuses negative seeds; the report maps the
    # integers one to one onto the naturals
    walks = _recorded(monkeypatch, "sample_closed_walks")
    for seed in range(-4, 4):
        assert _cycle_span_walks(seed=seed, walk_samples=100)["passed"]
    assert len({tuple(args[1].tolist()) for args, _ in walks}) == 8


# ----------------------------------------------------------------------
# the square-generating quadrangles
# ----------------------------------------------------------------------

def test_generator_quadrangle_base_pattern():
    gf = field_of_order(2)
    item = cons.w2_generator_cycles(gf, lambdas=[1])[0]
    assert item["pattern"] == (0, 1, 2, 3)
    volt = vg.path_voltage(gf, lambda a, b: cons.dart_voltage(gf, a, b),
                           item["cycle"] + (item["cycle"][0],))
    assert volt == sym_unit(0, 0)  # w1^2


def test_generator_quadrangle_alpha_gf4():
    gf = field_of_order(4)
    al = cons.alpha_element(gf)
    item = cons.w2_generator_cycles(gf, lambdas=[al])[0]
    volt = vg.path_voltage(gf, lambda a, b: cons.dart_voltage(gf, a, b),
                           item["cycle"] + (item["cycle"][0],))
    assert volt == sym_unit(0, 0, al)


def test_generator_cycles_are_cycles():
    gf = field_of_order(16)
    for item in cons.w2_generator_cycles(gf):
        cyc = item["cycle"]
        assert len(set(cyc)) == 4
        for i in range(4):
            assert gr.adjacent(gf, cyc[i], cyc[(i + 1) % 4])


def test_w2_span_all_fields():
    for q in (2, 4, 8, 16):
        rep = cons.w2_span_report(field_of_order(q))
        assert rep["passed"], rep
        assert rep["span_dim"] == 6 * field_of_order(q).k
        assert rep["spans_squares"]
        # the basis both span reports test against: 6k independent squares
        gf, span = field_of_order(q), vg.F2Span()
        basis = cons._square_basis(gf)
        assert len(basis) == 6 * gf.k and all(span.add(x) for x in basis)
        assert not any(x & ml.offdiag_mask(gf) for x in basis)


# ----------------------------------------------------------------------
# cycle span of the reduct graph
# ----------------------------------------------------------------------

def test_cycle_span_gf2_gf4_exhaustive():
    for q in (2, 4):
        rep = cons.cycle_span_report(field_of_order(q))
        assert rep["mode"] == "exhaustive"
        assert rep["dim_mod_u"] == rep["expected_dim"] == 6 * field_of_order(q).k
        assert rep["contains_u"] and rep["squares_contained"] and rep["fundamental_in_w2u"]
        assert rep["passed"]


def _filtered_subgraph_vertices(gf):
    """The vertices of the canonical subgraph built as it was before it
    took its 0/1 points from GF(2): the projective points of the field
    filtered to 0/1 coordinates, then the twisted generator vertices."""
    points = gr.proj_points(gf)
    verts = pairs(*gr.nonincident_pairs(gf, points[(points <= 1).all(axis=1)]))
    for item in cons.w2_generator_cycles(gf, [1 << bit for bit in range(1, gf.k)]):
        v3, h = item["cycle"][3]
        vert = (normalize(gf, v3), h)
        if vert not in verts:
            verts.append(vert)
    return verts


@pytest.mark.parametrize("q", (4, 8, 16))
def test_subgraph_vertices_equal_the_filtered_construction(q):
    gf = field_of_order(q)
    assert cons._rational_subgraph_with_twists(gf).vertices == _filtered_subgraph_vertices(gf)


def test_cycle_span_gf8_subgraph():
    rep = cons.cycle_span_report(field_of_order(8), walk_samples=200)
    assert rep["mode"] == "subgraph+sampled"
    assert rep["dim_mod_u"] == 18
    assert rep["passed"]


# ----------------------------------------------------------------------
# A_x, lambda, cocycle
# ----------------------------------------------------------------------

def test_ax_family_structure():
    for q in (4, 8, 16):
        gf = field_of_order(q)
        fam = cons.order4_subgroup(gf)
        assert len(set(fam)) == 4 and fam[0] == 0
        from phcover.linalg import det

        for x in fam:
            assert det(gf, cons.ax_matrix(gf, x)) == 1
            for y in fam:
                assert (x ^ y) in fam
                assert mat_mul(gf, cons.ax_matrix(gf, x), cons.ax_matrix(gf, y)) == \
                    cons.ax_matrix(gf, x ^ y)
        assert cons.ax_matrix(gf, 0) == E4


def test_ax_action_table_lines():
    for q in (4, 8, 16):
        gf = field_of_order(q)
        for x in cons.order4_subgroup(gf):
            x2 = gf.mul(x, x)
            tab = ml.action(gf, cons.ax_matrix(gf, x)).w_rows
            assert tab[0] == (1, 0, 0, 0, 0, 0)
            assert tab[1] == (0, 1, x, x, x2, 0)
            assert tab[2] == (0, 0, 1, 0, x, 0)
            assert tab[3] == (0, 0, 0, 1, x, 0)
            assert tab[4] == (0, 0, 0, 0, 1, 0)
            assert tab[5] == (0, 0, 0, 0, 0, 1)


def test_lambda_values():
    for q in (4, 8, 16):
        gf = field_of_order(q)
        assert cons.lambda_ax(gf, 0) == ml.ZERO21
        for x in cons.order4_subgroup(gf):
            assert cons.lambda_ax(gf, x) == sym_unit(3, 4, x)


def test_cocycle_all_pairs():
    for q in (4, 8, 16):
        gf = field_of_order(q)
        fam = cons.order4_subgroup(gf)
        for x in fam:
            for y in fam:
                f = cons.cocycle_f(gf, x, y)
                assert f == sym_unit(4, 4, gf.mul(x, y))
                assert f == cons.cocycle_f(gf, y, x)
        assert cons.cocycle_f(gf, 0, fam[2]) == ml.ZERO21
    assert cons.cocycle_report(field_of_order(8))["passed"]


def test_dart_lambda_report():
    for q in (4, 8, 16):
        assert cons.dart_lambda_report(field_of_order(q))["passed"]
    rep = cons.dart_lambda_report(field_of_order(2))
    assert rep["status"] == "not-applicable" and rep["passed"]


def test_multiplication_rule_matches_extension_composition():
    # [x, m][y, n] = [x + y, xy w5^2 + m^(A_y) + n], checked against the
    # composition (g, k1)(h, k2) = (gh, N(k1^h + k2)) of the lift action
    gf = field_of_order(4)
    rng = random.Random(12)
    lam = {x: ml.pack_sym(gf, cons.lambda_ax(gf, x)) for x in cons.order4_subgroup(gf)}
    for _ in range(40):
        x, y = rng.choice(cons.order4_subgroup(gf)), rng.choice(cons.order4_subgroup(gf))
        m = ml.pack_sym(gf, cons.m_to_sym(gf, sum(rng.randrange(4) << (2 * i) for i in range(6))))
        n = ml.pack_sym(gf, cons.m_to_sym(gf, sum(rng.randrange(4) << (2 * i) for i in range(6))))
        gy = ml.action(gf, cons.ax_matrix(gf, y))
        assert mat_mul(gf, cons.ax_matrix(gf, x), cons.ax_matrix(gf, y)) == \
            cons.ax_matrix(gf, x ^ y)
        k1, k2 = ml.n_project_packed(gf, [lam[x] ^ m, lam[y] ^ n])
        kprod = ml.n_project_packed(gf, on_sym_packed_array(gy, k1) ^ k2)
        rule = lam[x ^ y] ^ ml.pack_sym(gf, cons.w5_squared(gf, gf.mul(x, y))) ^ n
        assert kprod == ml.n_project_packed(gf, on_sym_packed_array(gy, m) ^ rule)


# ----------------------------------------------------------------------
# order-2 spaces and non-splitness
# ----------------------------------------------------------------------

def test_order2_solution_spaces():
    for q in (4, 8, 16):
        gf = field_of_order(q)
        for x in cons.order4_subgroup(gf)[1:]:
            rep = cons.order2_solution_space(gf, x)
            assert rep["passed"], rep
            assert rep["solution_dim"] == 4 * gf.k
    assert cons.order2_report(field_of_order(8))["passed"]


def test_f2_matrix_roundtrip():
    import numpy as np

    rng = np.random.default_rng(5)
    target = rng.integers(0, 2, size=(6, 9)).astype(np.uint8)
    # the map on packed ints whose matrix is target
    built = cons._f2_matrix(lambda x: cons._int(target @ cons._bits(x, 9) % 2), 9, 6)
    assert built.dtype == np.uint8 and np.array_equal(built, target)


def test_order2_rejects_zero():
    with pytest.raises(ValueError):
        cons.order2_solution_space(field_of_order(4), 0)


def test_order2_solutions_satisfy_condition():
    # independent spot check: w3^2 + random element s of S has order-2
    # defect x^2 w5^2; elements of the squares are packed, 2 bits per w_i^2
    gf = field_of_order(4)
    rng = random.Random(13)
    for x in cons.order4_subgroup(gf)[1:]:
        for _ in range(25):
            s = 0
            for g in cons.s_generators(gf):
                c = rng.randrange(4)
                s ^= cons.sym_to_m(gf, ml.sym_scale(gf, c, cons.m_to_sym(gf, g)))
            m = s ^ (1 << 4)
            assert cons.apply_ax(gf, x, m) ^ m == gf.mul(x, x) << 8


def test_ax_on_squares_matches_the_action():
    rng = random.Random(14)
    for q in (4, 8, 16):
        gf = field_of_order(q)
        for x in cons.order4_subgroup(gf):
            act = ml.action(gf, cons.ax_matrix(gf, x))
            for _ in range(20):
                m = rng.randrange(1 << (6 * gf.k))
                assert cons.m_to_sym(gf, cons.apply_ax(gf, x, m)) == act.on_sym(cons.m_to_sym(gf, m))
    with pytest.raises(ValueError):
        cons.sym_to_m(gf, ml.big_u(gf))


def test_nonsplit_linear_certificates():
    for q in (4, 8, 16):
        rep = cons.nonsplit_check(field_of_order(q))
        assert rep["status"] == "inconsistent" and rep["passed"]
        assert rep["certificate"]


def test_nonsplit_certificate_recombines():
    import numpy as np

    gf = field_of_order(8)
    a_mat, b = cons.splitting_system(gf)
    x0, kern, cert = cons.solve_affine_f2(a_mat, b)
    assert cert is not None
    assert not ((cert @ a_mat) % 2).any()
    assert int((cert @ b) % 2) == 1


def test_nonsplit_second_alpha_gf16():
    rep = cons.nonsplit_check(field_of_order(16), alpha=0b100)
    assert rep["status"] == "inconsistent" and rep["passed"]


def test_nonsplit_not_applicable_gf2():
    rep = cons.nonsplit_check(field_of_order(2))
    assert rep["status"] == "not-applicable" and rep["passed"]
    with pytest.raises(ValueError):
        cons.alpha_element(field_of_order(2))


def test_nonsplit_layer_negative_controls(monkeypatch):
    import numpy as np

    # without the w5^2 terms every system is homogeneous, so the zero pair
    # lifts and the order-2 solutions are S itself, not w3^2 + S
    monkeypatch.setattr(cons, "w5_squared_m", lambda gf, coef: 0)
    for q in (4, 8, 16):
        gf = field_of_order(q)
        rep = cons.nonsplit_check(gf)
        assert rep["status"] == "split-found" and not rep["passed"]
        assert rep["violations"] == 1 and rep["reason"]
        # the witness is a solution of the system
        a_mat, b = cons.splitting_system(gf)
        (witness,) = rep["witnesses"]
        assert np.array_equal(a_mat @ np.array(witness["solution"]) % 2, b)
        o2 = cons.order2_report(gf)
        assert (o2["samples"], o2["violations"], len(o2["parts"])) == (3, 3, 3)
        assert not any(p["matches_w3_plus_s"] or p["passed"] for p in o2["parts"])
        assert all(p["witnesses"] == ["matches_w3_plus_s"] for p in o2["parts"])
    brute = cons.brute_force_splitting_gf4()
    lifts = brute["subgroup_lifts"]
    assert lifts >= 1 and brute["violations"] == lifts
    assert lifts == _full_grid_splitting_lifts_gf4()
    # each witnessed pair is a lift, so both order-2 conditions hold
    assert 0 < len(brute["witnesses"]) <= 5
    gf = field_of_order(4)
    _, one, al, _ = cons.order4_subgroup(gf)
    for w in brute["witnesses"]:
        assert cons.apply_ax(gf, one, w["c1"]) ^ w["c1"] == 0
        assert cons.apply_ax(gf, al, w["c_alpha"]) ^ w["c_alpha"] == 0


def _full_grid_splitting_lifts_gf4():
    """The lift count of brute_force_splitting_gf4 with every relation
    evaluated on the full 4096 x 4096 grid of (c(1), c(alpha)), in blocks
    of rows."""
    import numpy as np

    gf = field_of_order(4)
    _, one, al, al1 = cons.order4_subgroup(gf)
    arr = np.arange(4096, dtype=np.uint16)
    t1, ta, ta1 = (np.array([cons.apply_ax(gf, y, m) for m in range(4096)], dtype=np.uint16)
                   for y in (one, al, al1))

    def w52(coef):
        return np.uint16(cons.w5_squared_m(gf, coef))

    o1 = (t1 ^ arr) == w52(gf.mul(one, one))
    oa = (ta ^ arr) == w52(gf.mul(al, al))
    ca = arr[None, :]
    lifts = 0
    for lo in range(0, 4096, 512):
        c1 = arr[lo:lo + 512, None]
        e = (ta[c1] ^ ca) ^ w52(al)
        valid = o1[c1] & oa[ca]
        valid &= (ta1[e] ^ e) == w52(gf.mul(al1, al1))
        valid &= (ta[c1] ^ ca) == (t1[ca] ^ c1)
        valid &= (ta1[c1] ^ e ^ w52(al1)) == ca
        valid &= (t1[e] ^ c1 ^ w52(al1)) == ca
        valid &= (ta1[ca] ^ e ^ w52(gf.mul(al, al1))) == c1
        valid &= (ta[e] ^ ca ^ w52(gf.mul(al, al1))) == c1
        lifts += int(valid.sum())
    return lifts


def test_full_grid_splitting_reference_finds_no_lift():
    assert _full_grid_splitting_lifts_gf4() == 0


def test_brute_force_splitting_gf4():
    rep = cons.brute_force_splitting_gf4()
    assert rep["samples"] == 4096 ** 2
    assert rep["subgroup_lifts"] == 0
    # per unknown the order-2 set is a coset of S, of size 4^4
    assert rep["order2_pairs"] == 256 * 256
    assert rep["passed"]


# ----------------------------------------------------------------------
# the cover and its export
# ----------------------------------------------------------------------

def test_cover_counts_and_structure():
    rep = cons.cover_report()
    assert rep["passed"]
    assert rep["vertices"] == 7680 and rep["edges"] == 107520
    assert rep["fiber_sizes"] == [64]
    assert rep["connected"]
    assert rep["local_isomorphism"]["passed"]


def test_cover_fibers_are_m_cosets():
    gf = field_of_order(2)
    data = cons.cover_data()
    fibers: dict = {}
    for b, t in data["component"]["vertices"].tolist():
        fibers.setdefault(b, set()).add(t)
    m_elems = {ml.pack_sym(gf, cons.m_to_sym(gf, m)) for m in range(64)}
    up = ml.u_packed(gf)
    for b, tags in fibers.items():
        p0 = next(iter(tags))
        coset = {min(p0 ^ m, p0 ^ m ^ up) for m in m_elems}
        assert tags == coset


def test_export_roundtrip(tmp_path):
    data = cons.cover_data()
    path = str(tmp_path / "cover.json")
    cons.export_cover(path)
    loaded = cons.load_cover(path)
    assert loaded["vertices"] == list(map(tuple, data["vertices"].tolist()))
    assert loaded["edges"] == list(map(tuple, data["edges"].tolist()))


def test_cover_and_exports_are_the_same_at_any_block_size(monkeypatch, tmp_path):
    import numpy as np

    want = cons.cover_data()
    files = {"json": "cover.json", "edgelist": "cover.txt"}
    for fmt, name in files.items():
        cons.export_cover(str(tmp_path / name), fmt)
    # a block of 7 darts holds one lift vertex's row, and one of the exports 3 rows
    monkeypatch.setattr(gr, "BULK_BLOCK", 7)
    got = cons.build_cover()
    for key in ("vertices", "edges"):
        assert got[key].dtype == want[key].dtype and np.array_equal(got[key], want[key])
    assert np.array_equal(got["component"]["vertices"], want["component"]["vertices"])
    for fmt, name in files.items():
        cons.export_cover(str(tmp_path / ("small-" + name)), fmt)
        assert (tmp_path / ("small-" + name)).read_bytes() == (tmp_path / name).read_bytes()


def test_export_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cons.export_cover(p1)
    cons.export_cover(p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        cons.export_cover(str(tmp_path / "x"), "parquet")


def test_export_rejects_unknown_format_before_building(monkeypatch, tmp_path):
    def no_cover():
        raise AssertionError("cover_data called")

    monkeypatch.setattr(cons, "cover_data", no_cover)
    with pytest.raises(ValueError, match="unknown format"):
        cons.export_cover(str(tmp_path / "x"), "parquet")
    assert not (tmp_path / "x").exists()


def test_load_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    for doc in ({}, {"vertices": [[0, 1]]}, {"vertices": [[0, 1]], "edges": [[0]]},
                {"vertices": [0], "edges": []}, {"vertices": None, "edges": []}, [1, 2],
                # an edge to no vertex, a negative end, a float, a bool
                {"vertices": [[0, 1]], "edges": [[0, 7]]},
                {"vertices": [[0, 1], [2, 3]], "edges": [[-1, 0]]},
                {"vertices": [[0, 1.5]], "edges": []},
                {"vertices": [[0, 1], [2, 3]], "edges": [[0, True]]}):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="not a cover document"):
            cons.load_cover(str(path))


def test_load_json_restores_the_collector_state(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"vertices": [[0, 1], [2, 3]], "edges": [[0, 1]]}))
    bad.write_text('{"vertices": [[0, 1]], "edges": [[0, 7]]}')
    broken = tmp_path / "broken.json"
    broken.write_text('{"vertices": [[0, 1]')
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert cons.load_cover(str(good)) == {"vertices": [(0, 1), (2, 3)],
                                                  "edges": [(0, 1)]}
            assert gc.isenabled() is enabled
            for path in (bad, broken):
                with pytest.raises(ValueError, match="not a cover document"):
                    cons.load_cover(str(path))
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_cover_connectivity_reads_the_edge_list(monkeypatch):
    data = dict(cons.cover_data())
    # without the edges at vertex 0 the edge list is disconnected, while
    # the component it came from is unchanged
    data["edges"] = data["edges"][(data["edges"] != 0).all(axis=1)]
    monkeypatch.setattr(cons, "cover_data", lambda: data)
    rep = cons.cover_report()
    assert not rep["connected"] and not rep["passed"]
    assert rep["local_isomorphism"]["passed"]
    assert (rep["violations"], rep["witnesses"]) == (2, ["edges", "connected"])


# ----------------------------------------------------------------------
# composite reports
# ----------------------------------------------------------------------

def test_main_theorem_reports():
    assert cons.verify_main_theorem(field_of_order(2))["passed"]
    rep = cons.verify_main_theorem(field_of_order(4), samples=1000)
    assert rep["passed"] and "fibers" in rep["parts"]
    rep = cons.verify_main_theorem(field_of_order(8), samples=500)
    assert rep["passed"]


def test_fiber_coset_report_gf4():
    assert cons.fiber_coset_report(field_of_order(4))["passed"]


def test_fiber_coset_report_counts_comparisons(monkeypatch):
    calls = []

    def counted(gf, x):
        calls.extend(x.tolist())
        return ml.packed_in_w2_plus_u(gf, x)

    monkeypatch.setattr(cons, "packed_in_w2_plus_u", counted)
    for kwargs in ({}, {"n_vertices": 3, "n_paths": 4, "seed": 1}):
        del calls[:]
        rep = cons.fiber_coset_report(field_of_order(4), **kwargs)
        assert rep["passed"]
        assert rep["samples"] == len(calls) == kwargs.get("n_vertices", 10) * kwargs.get("n_paths", 10)


def test_fiber_coset_report_negative_control(monkeypatch):
    monkeypatch.setattr(cons, "packed_in_w2_plus_u", lambda gf, x: [False] * len(x))
    gf = field_of_order(4)
    rep = cons.fiber_coset_report(gf)
    assert not rep["passed"]
    assert rep["violations"] == rep["samples"] == 100
    # each witness is a 4-cycle (root, m0, target, m) of the graph
    graph = gr.build_projective_graph(gf)
    assert len(rep["witnesses"]) == 5
    for w in rep["witnesses"]:
        assert set(w) == {"cycle", "voltage"}
        cyc = w["cycle"]
        assert cyc[0] == vertex_index(graph)[cons.vertex_v0(gf)]
        walk = tuple(graph.vertices[i] for i in cyc)
        assert w["voltage"] == ml.pack_sym(gf, cons.cycle_voltage(gf, walk))
        assert all(b in graph.neighbors(a) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def _assert_failed(rep, violations, samples, keys):
    assert not rep["passed"]
    assert (rep["violations"], rep["samples"]) == (violations, samples)
    assert 1 <= len(rep["witnesses"]) == min(5, violations)
    assert all(set(w) == keys for w in rep["witnesses"])


def test_u_invariance_refuses_no_matrices():
    with pytest.raises(ValueError, match="at least one matrix"):
        cons.u_invariance_report(field_of_order(4), n_sl=0, n_gl=0)


def test_equivariance_report_refuses_no_matrices():
    # over GF(2) too, where the exhaustive check takes its own 100 matrices
    for q in (2, 4):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one matrix"):
                cons.equivariance_report(field_of_order(q), n_matrices=n)


@pytest.mark.parametrize("check, kwargs", [
    ("verify_triangles", {"samples": 0}),
    ("verify_quadrangles", {"samples": 0}),
    ("verify_pentagons", {"samples": 0}),
    ("verify_long_cycles", {"samples": 0}),
    ("verify_long_cycles", {"lengths": ()}),
    ("reductivity_report", {"samples": 0}),
    ("fiber_coset_report", {"n_vertices": 0}),
    ("fiber_coset_report", {"n_paths": 0}),
], ids=lambda x: x if isinstance(x, str) else ",".join(x))
def test_sampled_checks_refuse_no_work(check, kwargs):
    # each would report a pass on no item
    for q in (4, 8):
        with pytest.raises(ValueError, match="at least one"):
            getattr(cons, check)(field_of_order(q), **kwargs)
    # a negative count is no work either
    if "samples" in kwargs:
        with pytest.raises(ValueError, match="at least one"):
            getattr(cons, check)(field_of_order(4), samples=-1)


def test_exhaustive_gf2_checks_ignore_the_sample_count():
    gf = field_of_order(2)
    for check in (cons.verify_triangles, cons.verify_quadrangles, cons.reductivity_report):
        assert check(gf, samples=0)["passed"]


def test_u_invariance_negative_control(monkeypatch):
    # SL4 does not fix w1^2, and GL4 does not scale it by the determinant;
    # replaying the report's draws counts the matrices that expose it
    gf = field_of_order(4)
    w1sq = sym_unit(0, 0)
    rng = random.Random(5)
    sl = [ml.action(gf, la.random_sl4(gf, rng)) for _ in range(30)]
    gl = [ml.action(gf, la.random_gl4(gf, rng)) for _ in range(10)]
    want = (sum(a.on_sym(w1sq) != w1sq for a in sl)
            + sum(a.on_sym(w1sq) != ml.sym_scale(gf, a.det, w1sq) for a in gl))
    assert want > 5
    monkeypatch.setattr(cons, "big_u", lambda gf: w1sq)
    rep = cons.u_invariance_report(gf, n_sl=30, n_gl=10, seed=5)
    _assert_failed(rep, want, 40, {"matrix", "image"})
    assert rep["witnesses"][0]["matrix"] in [a.m for a in sl + gl]


def test_dart_lambda_negative_control(monkeypatch):
    # a zero dart voltage misses w2w5 + x w4w5 for all four x, and lambda(x)
    # misses x w4w5 for the three nonzero x
    monkeypatch.setattr(cons, "dart_voltage", lambda gf, a, b: ml.ZERO21)
    rep = cons.dart_lambda_report(field_of_order(4))
    _assert_failed(rep, 7, 8, {"x", "quantity", "voltage"})


def test_cocycle_negative_control(monkeypatch):
    # U is never x y w5^2, so every one of the 16 pairs fails
    monkeypatch.setattr(cons, "cocycle_f", lambda gf, x, y: ml.big_u(gf))
    rep = cons.cocycle_report(field_of_order(4))
    _assert_failed(rep, 16, 16, {"x", "y", "cocycle"})


def test_square_generators_negative_control(monkeypatch):
    # every generator quadrangle predicts a nonzero square: 6k basis
    # quadrangles and one per nonzero lam, here 12 + 3, and the span
    monkeypatch.setattr(cons, "cycle_voltage", lambda gf, cyc: ml.ZERO21)
    rep = cons.w2_span_report(field_of_order(4))
    # the 15 wrong voltages, and the span short of the squares
    _assert_failed(rep, 16, 16, {"pattern", "lam", "cycle", "expected", "voltage"})
    assert rep["span_dim"] == 0 and not rep["spans_squares"]


def test_square_span_negative_control(monkeypatch):
    # U is no square, so a basis with U added is out of the generators' span
    gf = field_of_order(4)
    basis = cons._square_basis(gf)
    monkeypatch.setattr(cons, "_square_basis", lambda gf: basis + [ml.u_packed(gf)])
    rep = cons.w2_span_report(gf)
    _assert_failed(rep, 1, 16, {"span_dim", "missing_squares"})
    assert rep["witnesses"] == [{"span_dim": 12, "missing_squares": [ml.u_packed(gf)]}]
    assert rep["span_dim"] == 12 and not rep["spans_squares"]


def test_diameter_negative_control(monkeypatch):
    # a star and an isolated vertex: every vertex of the star is within two
    # edges of every other, but the graph is disconnected
    g2 = gr.build_affine_graph(field_of_order(2))
    star = [0] + g2.neighbors(0)[:5].tolist()
    lone = next(j for j in range(g2.n)
                if j not in star and not any(j in g2.neighbors(i) for i in star))
    monkeypatch.setattr(cons, "build_projective_graph",
                        lambda gf: subgraph(g2, star + [lone]))
    rep = cons.diameter_report(field_of_order(2))
    assert rep["diameter"] == -1
    assert not rep["passed"] and rep["violations"] == 1


def _counted_table_darts(monkeypatch):
    """Count DartTable.dart calls; returns a function reading the count."""
    count = [0]
    real = vg.DartTable.dart

    def counted(self, i, j):
        count[0] += 1
        return real(self, i, j)

    monkeypatch.setattr(vg.DartTable, "dart", counted)
    return lambda: count[0]


def test_exhaustive_gf2_dart_lookup_counts(monkeypatch):
    # one table lookup per edge of every triangle and quadrangle, and one
    # per edge and matrix of the equivariance check
    gf = field_of_order(2)
    rng = random.Random(9)
    actions = [ml.action(gf, la.random_sl4(gf, rng)) for _ in range(3)]
    table = cons.voltage_table(gr.build_affine_graph(gf))
    darts = _counted_table_darts(monkeypatch)
    for run, samples, per_item in (
            (lambda: cons.verify_triangles(gf, "exhaustive"), 3360, 3),
            (lambda: cons.verify_quadrangles(gf, "exhaustive"), 138600, 4),
            (lambda: vg.check_equivariance(gf, lambda a, b: cons.dart_voltage(gf, a, b),
                                           actions, table=table), 3 * 1680, 1)):
        before = darts()
        rep = run()
        assert rep["passed"] and rep["samples"] == samples
        assert darts() - before == per_item * samples


def test_sampled_gf4_scalar_voltages_per_item(monkeypatch):
    # sampled reductivity and equivariance evaluate two darts per checked item
    gf = field_of_order(4)
    darts = _recorded(monkeypatch, "dart_voltage")
    for run in (lambda: cons.reductivity_report(gf, samples=200, seed=3),
                lambda: cons.equivariance_report(gf, n_matrices=3, samples=40, seed=3)):
        del darts[:]
        rep = run()
        assert rep["passed"] and rep["samples"] > 0
        assert len(darts) == 2 * rep["samples"]


def test_phi_table_negative_controls(monkeypatch):
    gf = field_of_order(4)
    rep = cons.phi_table_report(gf)
    assert (rep["samples"], rep["violations"], rep["passed"]) == (42, 0, True)
    # phi with its first two slots swapped breaks the identities of those slots
    monkeypatch.setattr(cons, "phi", lambda d: (d[4], d[5], d[3], d[2], d[1], d[0]))
    rep = cons.phi_table_report(gf)
    assert (rep["samples"], rep["violations"], rep["passed"]) == (42, 2, False)
    assert [w["identity"] for w in rep["witnesses"]] == [0, 1]
    monkeypatch.undo()
    # one corrupted entry of the chi table breaks one basis pairing
    chi = [list(row) for row in cons._chi_pairing_table(gf)]
    chi[5][2] ^= 1
    monkeypatch.setattr(cons, "_chi_pairing_table", lambda gf: chi)
    rep = cons.phi_table_report(gf)
    assert (rep["samples"], rep["violations"], rep["passed"]) == (42, 1, False)
    assert [w["pair"] for w in rep["witnesses"]] == [(0, 2)]


def test_invariance_reports():
    assert cons.phi_table_report(field_of_order(2))["passed"]
    for q in (2, 16):
        assert cons.u_invariance_report(field_of_order(q), n_sl=30, n_gl=10)["passed"]
    assert cons.reductivity_report(field_of_order(2))["passed"]
    assert cons.reductivity_report(field_of_order(4), samples=1000)["passed"]
    assert cons.equivariance_report(field_of_order(4), n_matrices=4, samples=200)["passed"]
    assert cons.diameter_report(field_of_order(2))["passed"]
