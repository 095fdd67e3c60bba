"""The package names and result shapes the benchmark's tracer relies on.

``bench/tracing.py`` wraps named functions of the package and reads work
counters off their arguments and results.  A renamed function or a changed
result shape would otherwise show only in a traced benchmark run.  The
tracer is loaded from its file without writing anything under ``bench/``.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

from phcover import construction as cons
from phcover import graphs as gr
from phcover import voltage as vg
from phcover.field import field_of_order

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("phcover_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound(tracing):
    tracer = tracing.Tracer()
    try:
        # raises when a traced function is bound nowhere or a method is gone
        tracer.install()
        assert hasattr(vg.component_of, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(vg.component_of, "__wrapped__")


def test_counters_read_real_results(tracing, tmp_path):
    gf = field_of_order(2)
    graph = gr.build_affine_graph(gf)
    table = cons.voltage_table(graph)
    cons.cover_data()  # built here, so that component_of runs once below
    path = str(tmp_path / "cover.json")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        cons.bulk_dart_voltage(gf, graph.dart_sources(), graph._indices, graph.vmat, graph.hmat)
        span = vg.fundamental_cycle_span(table, 0)
        vg.component_of(table, 0)
        cons.export_cover(path)
        vertex = ((1, 0, 0, 0), (1, 0, 0, 0))
        accepted = [gr.sample_common_neighbor(gf, vertex, vertex, random.Random(1))
                    is not None for _ in range(5)]
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert set(tracing.COUNTERS) == {
        "construction.bulk_dart_voltage", "construction.export_cover",
        "voltage.fundamental_cycle_span", "voltage.component_of",
        "graphs.sample_common_neighbor"}
    assert summary["construction.bulk_dart_voltage"]["darts"] == 3360
    assert summary["voltage.fundamental_cycle_span"]["distinct_voltages"] == \
        span["distinct_voltages"] > 1
    assert summary["voltage.component_of"]["lift_vertices"] == 7680
    assert summary["construction.export_cover"]["bytes"] == pathlib.Path(path).stat().st_size
    assert summary["graphs.sample_common_neighbor"].get("accepted", 0) == sum(accepted) > 0


def test_cover_round_trip_expression(tmp_path):
    # the comparison the benchmark makes after loading an exported cover
    path = str(tmp_path / "cover.json")
    cons.export_cover(path)
    built, loaded = cons.cover_data(), cons.load_cover(path)
    assert loaded["vertices"] == [tuple(v) for v in built["vertices"]]
    assert loaded["edges"] == [tuple(e) for e in built["edges"]]


def test_sampled_checks_trace_one_span_per_drawn_sample(tracing):
    # the benchmark pins each sampler's calls to the samples requested; a
    # sampler that reached another through its module binding would add spans
    gf = field_of_order(4)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        cons.verify_triangles(gf, samples=7, seed=1)
        cons.verify_pentagons(gf, samples=5, seed=2)
        cons.verify_long_cycles(gf, samples=4, seed=3)
        cons.reductivity_report(gf, samples=6, seed=4)
        cons.equivariance_report(gf, n_matrices=2, samples=3, seed=5)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    calls = {name: rec["calls"] for name, rec in summary.items()}
    assert (calls["graphs.sample_triangle"], calls["graphs.sample_pentagon"],
            calls["graphs.sample_closed_walk"]) == (7, 5, 12)
    assert calls["voltage.check_reductive"] == calls["voltage.check_equivariance"] == 1
    assert "graphs.sample_quadrangle" not in calls
    # every vertex draw is made under the sampler or the check that asked
    assert set(summary["graphs.random_affine_vertex"]["by_parent"]) == {
        "graphs.sample_triangle", "graphs.sample_pentagon", "graphs.sample_closed_walk",
        "voltage.check_reductive", "voltage.check_equivariance"}


def test_sampled_checks_meet_the_benchmark_call_pins(tracing):
    # the closed forms bench/worker.py's sampled_trace_counts pins for the
    # sampled-cycles workload, restated: two kernels per common neighbour,
    # one scalar dart voltage per cycle dart and two per reductivity and
    # equivariance item, one path voltage per cycle, one membership test
    # per cycle that is not a triangle, one action per matrix
    lengths, matrices = (6, 7, 8), 3
    tracer = tracing.Tracer()
    try:
        tracer.install()
        reports = []
        for q in (4, 8):
            gf = field_of_order(q)
            reports += [cons.verify_triangles(gf, samples=5, seed=q),
                        cons.verify_quadrangles(gf, samples=4, seed=q),
                        cons.verify_pentagons(gf, samples=3, seed=q),
                        cons.verify_long_cycles(gf, samples=2, seed=q),
                        cons.reductivity_report(gf, samples=6, seed=q),
                        cons.equivariance_report(gf, n_matrices=matrices, samples=2, seed=q)]
    finally:
        tracer.uninstall()
    assert all(r["passed"] for r in reports)
    calls = {name: rec["calls"] for name, rec in tracer.summary().items()}
    tri, quad, pent, walks = (calls[f"graphs.sample_{kind}"] for kind in
                              ("triangle", "quadrangle", "pentagon", "closed_walk"))
    assert (tri, quad, pent, walks) == (10, 8, 6, 2 * 2 * len(lengths))
    red = sum(r["samples"] for r in reports if r["check"] == "reductive")
    equiv = sum(r["samples"] for r in reports if r["check"] == "equivariance")
    assert (red, equiv) == (2 * 6, 2 * matrices * 2)
    walk_darts = 2 * 2 * sum(lengths)
    assert calls["linalg.kernel"] == 2 * calls["graphs.sample_common_neighbor"] > 0
    assert calls["construction.dart_voltage"] == \
        3 * tri + 4 * quad + 5 * pent + walk_darts + 2 * red + 2 * equiv
    assert calls["voltage.path_voltage"] == tri + quad + pent + walks
    assert calls["multilinear.in_w2_plus_u"] == quad + pent + walks
    assert calls["multilinear.action"] == 2 * matrices


def test_verify_all_gf16_meets_the_benchmark_pins(tracing, capsys):
    # the counts bench/worker.py pins for `verify all --samples 1000` over
    # GF(16), and no scalar walk or dart voltage under the cycle-span walks
    from phcover import cli

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main(["verify", "all", "--field", "16", "--samples", "1000"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = {name: rec["calls"] for name, rec in tracer.summary().items()}
    assert (calls["voltage.DartTable.from_scalar"], calls["graphs.sample_triangle"],
            calls["graphs.sample_pentagon"]) == (2, 1100, 1000)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cons.cycle_span_report(field_of_order(8))["passed"]
    finally:
        tracer.uninstall()
    calls = {name: rec["calls"] for name, rec in tracer.summary().items()}
    assert calls["construction.cycle_span_report"] == 1
    assert calls.get("graphs.sample_closed_walk", 0) == 0
    assert calls.get("construction.dart_voltage", 0) == 0


def test_exhaustive_gf2_checks_meet_the_dart_lookup_pins(tracing):
    # the DartTable.dart counts by caller that the enumerated-tables
    # workload pins: 3 per triangle, 4 per 4-cycle, one per edge and matrix
    gf = field_of_order(2)
    cons.voltage_table(gr.build_affine_graph(gf))  # built here, not under a check
    tracer = tracing.Tracer()
    try:
        tracer.install()
        reports = [cons.verify_triangles(gf, "exhaustive"), cons.verify_quadrangles(gf, "exhaustive"),
                   cons.equivariance_report(gf)]
    finally:
        tracer.uninstall()
    assert [r["samples"] for r in reports] == [3360, 138600, 100 * 1680]
    assert all(r["passed"] for r in reports)
    assert tracer.summary()["voltage.DartTable.dart"]["by_parent"] == {
        "construction.verify_triangles": 3 * 3360,
        "construction.verify_quadrangles": 4 * 138600,
        "voltage.check_equivariance": 100 * 1680}


def test_cover_and_cycle_span_meet_the_lift_and_tree_pins(tracing):
    # as in a fresh enumerated-tables process: cover_report builds the GF(2)
    # cover, one lift of 7680 vertices, and the GF(4) cycle span builds
    # its tree once
    gf4 = field_of_order(4)
    cons.voltage_table(gr.build_affine_graph(field_of_order(2)))
    cons.voltage_table(gr.build_projective_graph(gf4))
    cons.cover_data.cache_clear()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        reports = [cons.cover_report(), cons.cycle_span_report(gf4)]
    finally:
        tracer.uninstall()
    assert all(r["passed"] for r in reports)
    summary = tracer.summary()
    assert summary["voltage.component_of"]["by_parent"] == {"construction.build_cover": 1}
    assert summary["voltage.component_of"]["lift_vertices"] == 7680
    assert summary["construction.build_cover"]["by_parent"] == {"construction.cover_report": 1}
    assert summary["voltage.spanning_tree_potentials"]["calls"] == 1
