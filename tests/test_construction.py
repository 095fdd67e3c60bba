import json
import random

import pytest

from phcover.field import field_of_order
from phcover.linalg import E4, evaluate, mat_mul, vec_add, vec_scale
from phcover import construction as cons
from phcover import graphs as gr
from phcover import multilinear as ml
from phcover import voltage as vg


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
    packed = cons.bulk_dart_voltage(gf, graph.vmat[srcs], graph.hmat[srcs],
                                    graph.vmat[dsts], graph.hmat[dsts])
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


def test_bulk_voltages_match_scalar():
    import numpy as np

    gf = field_of_order(8)
    rng = random.Random(2)
    darts = []
    for _ in range(50):
        a = gr.random_affine_vertex(gf, rng)
        b = gr.random_neighbor(gf, a, rng)
        darts.append((a, b))
    va = np.array([d[0][0] for d in darts], dtype=np.uint8)
    ha = np.array([d[0][1] for d in darts], dtype=np.uint8)
    vb = np.array([d[1][0] for d in darts], dtype=np.uint8)
    hb = np.array([d[1][1] for d in darts], dtype=np.uint8)
    packed = cons.bulk_dart_voltage(gf, va, ha, vb, hb)
    for pos, (a, b) in enumerate(darts):
        assert int(packed[pos]) == ml.pack_sym(gf, cons.dart_voltage(gf, a, b))


def test_bulk_voltages_on_empty_stack():
    import numpy as np

    z = np.zeros((0, 4), dtype=np.uint8)
    for q in (2, 4, 8):
        out = cons.bulk_dart_voltage(field_of_order(q), z, z, z, z)
        assert out.dtype == np.uint64 and out.shape == (0,)


def test_bulk_voltages_across_blocks():
    import numpy as np

    # two full blocks and a partial one of 7 darts
    graph = gr.build_projective_graph(field_of_order(4))
    pos = np.random.default_rng(8).integers(0, graph._indices.size, 2 * cons.BULK_BLOCK + 7)
    _bulk_against_scalar(graph, np.searchsorted(graph._indptr, pos, side="right") - 1,
                         graph._indices[pos])


def test_bulk_voltages_refuse_k4():
    import numpy as np

    gf = field_of_order(16)
    z = np.zeros((1, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        cons.bulk_dart_voltage(gf, z, z, z, z)


# ----------------------------------------------------------------------
# triangle / quadrangle / pentagon lemmas
# ----------------------------------------------------------------------

def test_triangles_exhaustive_gf2():
    rep = cons.verify_triangles(field_of_order(2), "exhaustive")
    assert rep["passed"]
    assert rep["samples"] == 3360  # 1680 edges x 6 common neighbours / 3


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
    from phcover.linalg import evaluate, kernel

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
            tab = cons.ax_action_table(gf, x)
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
    # semidirect-product composition of the lift action
    gf = field_of_order(4)
    rng = random.Random(12)
    lam = {x: ml.pack_sym(gf, cons.lambda_ax(gf, x)) for x in cons.order4_subgroup(gf)}
    for _ in range(40):
        x, y = rng.choice(cons.order4_subgroup(gf)), rng.choice(cons.order4_subgroup(gf))
        m6 = tuple(rng.randrange(4) for _ in range(6))
        n6 = tuple(rng.randrange(4) for _ in range(6))
        m = ml.pack_sym(gf, cons.m_to_sym(gf, m6))
        n = ml.pack_sym(gf, cons.m_to_sym(gf, n6))
        gx = ml.action(gf, cons.ax_matrix(gf, x))
        gy = ml.action(gf, cons.ax_matrix(gf, y))
        prod, kprod = vg.compose_extension(
            gf, gx, ml.n_project_packed(gf, lam[x] ^ m),
            gy, ml.n_project_packed(gf, lam[y] ^ n))
        assert prod.m == cons.ax_matrix(gf, x ^ y)
        rule = (lam[x ^ y]
                ^ ml.pack_sym(gf, cons.w5_squared(gf, gf.mul(x, y)))
                ^ gy.on_sym_packed(m) ^ n)
        assert kprod == ml.n_project_packed(gf, rule)


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


def test_order2_rejects_zero():
    with pytest.raises(ValueError):
        cons.order2_solution_space(field_of_order(4), 0)


def test_order2_solutions_satisfy_condition():
    # independent spot check: w3^2 + random element of S has order-2 defect 0
    gf = field_of_order(4)
    rng = random.Random(13)
    for x in cons.order4_subgroup(gf)[1:]:
        apply_ax = cons.ax_on_m(gf, x)
        for _ in range(25):
            s = (0,) * 6
            for g in cons.s_generators(gf):
                c = rng.randrange(4)
                s = tuple(a ^ gf.mul(c, b) for a, b in zip(s, g))
            m = tuple(a ^ b for a, b in zip(s, (0, 0, 1, 0, 0, 0)))
            lhs = tuple(a ^ b for a, b in zip(apply_ax(m), m))
            assert lhs == (0, 0, 0, 0, gf.mul(x, x), 0)


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


def test_cover_data_cap_applies_to_cached_cover(tmp_path):
    data = cons.cover_data()
    assert len(data["vertices"]) == 7680
    with pytest.raises(vg.CapExceeded):
        cons.cover_data(5)
    path = tmp_path / "cover.json"
    with pytest.raises(vg.CapExceeded):
        cons.export_cover(str(path), cap=7679)
    assert not path.exists()
    assert cons.cover_data(7680) is data


def test_cover_fibers_are_m_cosets():
    gf = field_of_order(2)
    data = cons.cover_data()
    fibers: dict = {}
    for b, t in data["component"]["vertices"]:
        fibers.setdefault(b, set()).add(t)
    m_elems = {ml.pack_sym(gf, cons.m_to_sym(gf, tuple((m >> i) & 1 for i in range(6))))
               for m in range(64)}
    up = ml.u_packed(gf)
    for b, tags in fibers.items():
        p0 = next(iter(tags))
        coset = {min(p0 ^ m, p0 ^ m ^ up) for m in m_elems}
        assert tags == coset


def test_export_roundtrip(tmp_path):
    data = cons.cover_data()
    for fmt, name in (("json", "cover.json"), ("edgelist", "cover.txt")):
        path = str(tmp_path / name)
        cons.export_cover(path, fmt)
        loaded = cons.load_cover(path, fmt)
        assert [tuple(v) for v in loaded["vertices"]] == data["vertices"]
        assert [tuple(e) for e in loaded["edges"]] == data["edges"]


def test_export_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cons.export_cover(p1)
    cons.export_cover(p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        cons.export_cover(str(tmp_path / "x"), "parquet")


def test_load_edgelist_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("v 0 1 2\ne 0\n", "v 0 1\n", "x 1 2\n", "e 0 1\nv 0 1 2\n", "v 0 a 2\n"):
        path.write_text("# cover\n" + text)
        with pytest.raises(ValueError):
            cons.load_cover(str(path), "edgelist")


def test_cover_connectivity_reads_the_edge_list(monkeypatch):
    data = dict(cons.cover_data())
    # without the edges at vertex 0 the edge list is disconnected, while
    # the component it came from is unchanged
    data["edges"] = [e for e in data["edges"] if 0 not in e]
    monkeypatch.setattr(cons, "cover_data", lambda cap=10 ** 7: data)
    rep = cons.cover_report()
    assert not rep["connected"] and not rep["passed"]
    assert rep["local_isomorphism"]["passed"]


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
        calls.append(x)
        return ml.packed_in_w2_plus_u(gf, x)

    monkeypatch.setattr(cons, "packed_in_w2_plus_u", counted)
    for kwargs in ({}, {"n_vertices": 3, "n_paths": 4, "seed": 1}):
        del calls[:]
        rep = cons.fiber_coset_report(field_of_order(4), **kwargs)
        assert rep["passed"]
        assert rep["samples"] == len(calls) == kwargs.get("n_vertices", 10) * kwargs.get("n_paths", 10)


def test_fiber_coset_report_negative_control(monkeypatch):
    monkeypatch.setattr(cons, "packed_in_w2_plus_u", lambda gf, x: False)
    rep = cons.fiber_coset_report(field_of_order(4))
    assert not rep["passed"]
    assert rep["violations"] == rep["samples"] == 100


def test_invariance_reports():
    assert cons.phi_table_report()["passed"]
    for q in (2, 16):
        assert cons.u_invariance_report(field_of_order(q), n_sl=30, n_gl=10)["passed"]
    assert cons.reductivity_report(field_of_order(2))["passed"]
    assert cons.reductivity_report(field_of_order(4), samples=1000)["passed"]
    assert cons.equivariance_report(field_of_order(4), n_matrices=4, samples=200)["passed"]
    assert cons.diameter_report(field_of_order(2))["passed"]
