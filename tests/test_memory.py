"""Every bulk pass over the darts of the GF(4) graph or of the GF(2) cover,
and every exhaustive GF(2) check, keeps its temporaries within a fixed
budget, whatever the item count: the traced peak allocation minus what
the call keeps (its output and its caches)."""

import gc
import random
import tracemalloc

import numpy as np
import pytest

from phcover.field import field_of_order
from phcover import cli
from phcover import construction as cons
from phcover import graphs as gr
from phcover import linalg as la
from phcover import multilinear as ml
from phcover import voltage as vg

BUDGET = 16 * 2 ** 20  # bytes; the blocked passes took 19 to 50 MiB before blocking,
# and the base-graph exports 145 and 203 MiB


def _transient_bytes(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak - kept


# each case sets up untraced and returns the call to trace


def _graph(tmp_path):
    gf = field_of_order(4)
    verts = gr.projective_vertices(gf)
    return lambda: gr.Graph(gf, *verts)


def _voltage_table(tmp_path):
    gf = field_of_order(4)
    built = gr.build_projective_graph(gf)
    graph = gr.Graph(gf, built.vmat, built.hmat)
    return lambda: cons.voltage_table(graph)


def _diameter(tmp_path):
    graph = gr.build_projective_graph(field_of_order(4))
    return lambda: gr.diameter(graph)


def _common_neighbors(tmp_path):
    # 20,000 seeded pairs, each a padded 21 x 21 gather of the vertex table
    graph = gr.build_projective_graph(field_of_order(4))
    i, j = np.random.default_rng(20).integers(0, graph.n, (2, 20000))
    return lambda: sum(t.size for t, _ in gr.common_neighbor_blocks(graph, i, j))


def _spanning_tree(tmp_path):
    graph = gr.build_projective_graph(field_of_order(4))
    table = cons.voltage_table(graph)
    return lambda: vg.spanning_tree_potentials(table, 0)


def _cycle_span_report(tmp_path):
    gf = field_of_order(4)
    # the report pays for both the tree and the span passes
    cons.voltage_table(gr.build_projective_graph(gf))
    return lambda: cons.cycle_span_report(gf)


def _cycle_span_report_gf16(tmp_path):
    # the subgraph, its scalar-built table and the 2000 array walks
    gf = field_of_order(16)
    return lambda: cons.cycle_span_report(gf)


def _local_isomorphism(tmp_path):
    data = cons.cover_data()
    return lambda: vg.verify_local_isomorphism(data["table"], data["component"])


def _build_cover(tmp_path):
    # the lift BFS, its key sorts and the edge lookups
    cons.voltage_table(gr.build_affine_graph(field_of_order(2)))
    return cons.build_cover


def _cover_report(tmp_path):
    # the local isomorphism and the connectivity CSR and BFS
    cons.cover_data()
    return cons.cover_report


def _export(fmt):
    def setup(tmp_path):
        cons.cover_data()
        argv = ["export", "cover", "--field", "2", "--format", fmt,
                "--out", str(tmp_path / "cover")]
        return lambda: cli.main(argv)
    return setup


def _exhaustive(check):
    def setup(tmp_path):
        gf = field_of_order(2)
        cons.voltage_table(gr.build_affine_graph(gf))
        return lambda: check(gf, "exhaustive")
    return setup


def _equivariance(tmp_path):
    gf = field_of_order(2)
    table = cons.voltage_table(gr.build_affine_graph(gf))
    rng = random.Random(3)
    actions = [ml.action(gf, la.random_sl4(gf, rng)) for _ in range(100)]
    return lambda: vg.check_equivariance(gf, None, actions, table=table)


def _base_graph_export(fmt):
    def setup(tmp_path):
        gr.build_projective_graph(field_of_order(4))
        argv = ["export", "base-graph", "--field", "4", "--format", fmt,
                "--out", str(tmp_path / "graph")]
        return lambda: cli.main(argv)
    return setup


PASSES = {"graph": _graph, "voltage_table": _voltage_table, "diameter": _diameter,
          "common_neighbors": _common_neighbors,
          "spanning_tree": _spanning_tree,
          "cycle_span_report": _cycle_span_report,
          "cycle_span_report_gf16": _cycle_span_report_gf16,
          "local_isomorphism": _local_isomorphism,
          "build_cover": _build_cover, "cover_report": _cover_report,
          "export_json": _export("json"), "export_edgelist": _export("edgelist"),
          "verify_triangles": _exhaustive(cons.verify_triangles),
          "verify_quadrangles": _exhaustive(cons.verify_quadrangles),
          "check_equivariance": _equivariance,
          "base_graph_json": _base_graph_export("json"),
          "base_graph_edgelist": _base_graph_export("edgelist")}


@pytest.mark.parametrize("name", PASSES)
def test_bulk_pass_memory_budget(name, tmp_path):
    assert _transient_bytes(PASSES[name](tmp_path)) <= BUDGET


def test_exhaustive_quadrangles_hold_one_block(tmp_path):
    # all 138,600 4-cycles and their voltages, kept until the tally, took
    # 6.41 MiB; one block of them takes under 2 MiB
    assert _transient_bytes(PASSES["verify_quadrangles"](tmp_path)) <= 3 * 2 ** 20
