"""Acceptance criteria, one test per criterion.

Every check is exact-arithmetic (zero tolerance); the sampled checks use
the stated sample sizes with fixed seeds.  Each test prints one
PASS/FAIL line with its wall-clock time and asserts the stated runtime
budget.
"""

import time

from phcover.field import FIELD_ORDERS, field_of_order
from phcover import construction as cons


def _criterion(num, name, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except AssertionError:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeded budget {budget_s}s"


def test_criterion_01_phi_table():
    def body():
        for q in FIELD_ORDERS:
            rep = cons.phi_table_report(field_of_order(q))
            assert rep["passed"] and (rep["samples"], rep["violations"]) == (42, 0)

    _criterion(1, "phi-table all fields", 1.0, body)


def test_criterion_02_triangles():
    def body():
        rep = cons.verify_triangles(field_of_order(2), "exhaustive")
        assert rep["passed"] and rep["samples"] == 3360
        for q in (4, 8):
            rep = cons.verify_triangles(field_of_order(q), samples=10 ** 5, seed=202)
            assert rep["passed"] and rep["samples"] == 10 ** 5
            assert rep["violations"] == 0

    _criterion(2, "triangle voltages equal U", 120.0, body)


def test_criterion_03_quadrangles_pentagons():
    def body():
        rep = cons.verify_quadrangles(field_of_order(2), "exhaustive")
        assert rep["passed"]
        gf4 = field_of_order(4)
        rep = cons.verify_quadrangles(gf4, samples=10 ** 5, seed=303)
        assert rep["passed"] and rep["samples"] == 10 ** 5
        rep = cons.verify_pentagons(gf4, samples=10 ** 5, seed=304)
        assert rep["passed"] and rep["samples"] == 10 ** 5

    _criterion(3, "4/5-cycle voltages in squares plus U", 300.0, body)


def test_criterion_04_cycle_span():
    def body():
        for q in (2, 4, 8):
            gf = field_of_order(q)
            rep = cons.cycle_span_report(gf, seed=404)
            assert rep["dim_mod_u"] == 6 * gf.k
            assert rep["fundamental_in_w2u"]        # span inside the squares mod U
            assert rep["squares_contained"]         # squares inside the span
            assert rep["contains_u"]
            assert rep["passed"]

    _criterion(4, "cycle span equals squares, dim 6k, k=1..3", 120.0, body)


def test_criterion_05_main_theorem_gf2(tmp_path):
    def body():
        rep = cons.cover_report()
        assert rep["vertices"] == 7680
        assert rep["fiber_sizes"] == [64]
        assert rep["local_isomorphism"]["passed"]
        assert rep["edges"] == 107520
        assert rep["connected"]
        path = str(tmp_path / "cover.json")
        cons.export_cover(path)
        loaded = cons.load_cover(path)
        assert len(loaded["vertices"]) == 7680 and len(loaded["edges"]) == 107520

    _criterion(5, "GF(2) cover: 7680 vertices, fibers 64, local iso", 60.0, body)


def test_criterion_06_square_generators():
    def body():
        for q in FIELD_ORDERS:
            rep = cons.w2_span_report(field_of_order(q))
            assert rep["passed"] and rep["violations"] == 0
            assert rep["span_dim"] == 6 * field_of_order(q).k
            assert rep["spans_squares"]

    _criterion(6, "generator quadrangles give lam*w1^2 and span", 10.0, body)


def test_criterion_07_dart_and_lambda():
    def body():
        for q in (4, 8, 16):
            rep = cons.dart_lambda_report(field_of_order(q))
            assert rep["passed"] and rep["violations"] == 0

    _criterion(7, "dart voltage w2w5 + x w4w5 and lambda = x w4w5", 10.0, body)


def test_criterion_08_cocycle():
    def body():
        for q in (4, 8, 16):
            rep = cons.cocycle_report(field_of_order(q))
            assert rep["passed"] and rep["samples"] == 16

    _criterion(8, "cocycle equals xy w5^2 on all 16 pairs", 10.0, body)


def test_criterion_09_order2_space():
    def body():
        for q in (4, 8, 16):
            rep = cons.order2_report(field_of_order(q))
            assert rep["passed"]
            for part in rep["parts"]:
                assert part["matches_w3_plus_s"]
                assert part["s_invariant"]
                assert part["w3_outside_s"]

    _criterion(9, "order-2 space is w3^2 + S with S invariant", 10.0, body)


def test_criterion_10_nonsplit():
    def body():
        for q in (4, 8, 16):
            rep = cons.nonsplit_check(field_of_order(q))
            assert rep["status"] == "inconsistent" and rep["passed"]
            assert rep["certificate"]
        brute = cons.brute_force_splitting_gf4()
        assert brute["samples"] == 4096 ** 2
        assert brute["subgroup_lifts"] == 0

    _criterion(10, "extension non-split: certificates + brute force", 600.0, body)


def test_criterion_11_reductivity_equivariance():
    def body():
        gf2, gf4 = field_of_order(2), field_of_order(4)
        rep = cons.reductivity_report(gf2)
        assert rep["mode"] == "exhaustive" and rep["passed"]
        rep = cons.reductivity_report(gf4, samples=10 ** 5, seed=1111)
        assert rep["passed"] and rep["violations"] == 0
        rep = cons.equivariance_report(gf2, seed=1112)
        assert rep["mode"] == "exhaustive" and rep["passed"]
        assert rep["samples"] == 100 * 1680
        rep = cons.equivariance_report(gf4, n_matrices=20, samples=10 ** 4, seed=1113)
        assert rep["passed"] and rep["samples"] == 20 * 10 ** 4
        for q in FIELD_ORDERS:
            rep = cons.u_invariance_report(field_of_order(q), n_sl=100, n_gl=20, seed=q)
            assert rep["passed"]

    _criterion(11, "reductivity + equivariance + U invariance", 120.0, body)


def test_criterion_12_diameter():
    def body():
        for q in (2, 4):
            rep = cons.diameter_report(field_of_order(q))
            assert rep["diameter"] == 2 and rep["passed"]

    _criterion(12, "diameter two for GF(2) and GF(4)", 120.0, body)
