import json

from phcover import cli
from phcover import construction as cons
from phcover import graphs as gr
from phcover.field import field_of_order


def run(args):
    return cli.main(args)


def test_verify_nonsplit_gf2_not_applicable(capsys, tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["verify", "nonsplit", "--field", "2", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["passed"]
    assert doc["results"][0]["status"] == "not-applicable"
    assert "PASS nonsplit field=2 [not-applicable: no element outside the prime field]" \
        in capsys.readouterr().err


def test_verify_nonsplit_gf4_certificate(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["verify", "nonsplit", "--field", "4", "--out", out]) == 0
    doc = json.load(open(out))
    names = {r["check"] for r in doc["results"]}
    assert names == {"nonsplit", "order2-space", "nonsplit-bruteforce"}
    linear = [r for r in doc["results"] if r["check"] == "nonsplit"][0]
    assert linear["status"] == "inconsistent" and linear["certificate"]


def test_verify_triangles_exhaustive_gf2(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["verify", "triangles", "--field", "2", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["results"][0]["mode"] == "exhaustive"
    assert doc["results"][0]["samples"] == 3360


def test_verify_sampled_small(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["verify", "cocycle", "--field", "16", "--out", out]) == 0
    assert run(["verify", "cycles", "--field", "8", "--samples", "500",
                "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["passed"]


def test_verify_cycles_takes_a_negative_seed():
    assert run(["verify", "cycles", "--field", "8", "--seed", "-5"]) == 0


def test_usage_errors():
    assert run(["verify", "triangles", "--field", "5"]) == 2
    assert run(["verify", "bogus-suite", "--field", "2"]) == 2
    assert run(["verify", "triangles", "--field", "2", "--samples", "0"]) == 2
    assert run(["verify", "quadrangles", "--field", "8", "--mode", "exhaustive"]) == 2
    assert run(["export", "cover", "--field", "4"]) == 2
    assert run(["export", "report"]) == 2  # reports come from verify all --out
    assert run(["export", "cover", "--field", "2", "--cap", "0"]) == 2
    # each subcommand takes only the options it reads
    assert run(["export", "base-graph", "--field", "2", "--samples", "5",
                "--mode", "exhaustive", "--seed", "3"]) == 2
    assert run(["verify", "all", "--field", "2", "--format", "edgelist"]) == 2
    # the field decides the mode, nothing is capped but the lift itself,
    # and over GF(2) the affine graph is the projective one
    assert run(["verify", "all", "--field", "2", "--mode", "exhaustive"]) == 2
    assert run(["verify", "main-theorem", "--field", "2", "--cap", "5"]) == 2
    assert run(["export", "base-graph", "--field", "2", "--graph", "affine"]) == 2
    assert run(["export", "cover", "--field", "2", "--cap", "100"]) == 2


def test_unwritable_out_is_a_usage_error(monkeypatch, capsys, tmp_path):
    # --out is opened before the first check or build, each a stand-in
    # here that fails the test when it is called
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before --out was opened")

    monkeypatch.setattr(cons, "reductivity_report", must_not_run)
    monkeypatch.setattr(cons, "dart_lambda_report", must_not_run)
    monkeypatch.setattr(cons, "cover_data", must_not_run)
    monkeypatch.setattr(cli, "build_projective_graph", must_not_run)
    out = str(tmp_path / "missing" / "x.json")
    for argv in (["verify", "all", "--field", "4"], ["verify", "cocycle", "--field", "4"],
                 ["export", "base-graph", "--field", "2"], ["export", "cover", "--field", "2"]):
        assert run(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_config_is_what_ran(capsys):
    for argv in (["verify", "triangles", "--field", "2"],
                 ["verify", "all", "--field", "4", "--samples", "200"]):
        assert run(argv) == 0
        assert set(json.loads(capsys.readouterr().out)["config"]) == {"field", "samples", "seed"}


def test_verification_failure_exits_one(monkeypatch, tmp_path):
    bad = {"check": "triangles", "field": 2, "mode": "exhaustive",
           "samples": 1, "violations": 1, "witnesses": [], "passed": False}
    monkeypatch.setattr(cons, "verify_triangles", lambda *a, **k: bad)
    out = str(tmp_path / "r.json")
    assert run(["verify", "triangles", "--field", "2", "--out", out]) == 1
    assert not json.load(open(out))["passed"]


def test_export_base_graph(tmp_path):
    out = str(tmp_path / "g.json")
    assert run(["export", "base-graph", "--field", "2", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["vertex_count"] == 120 and doc["edge_count"] == 1680
    out2 = str(tmp_path / "g2.json")
    assert run(["export", "base-graph", "--field", "2", "--out", out2]) == 0
    assert open(out).read() == open(out2).read()


def test_export_base_graph_edgelist(tmp_path):
    out = str(tmp_path / "g.txt")
    assert run(["export", "base-graph", "--field", "2", "--format", "edgelist",
                "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("#")
    assert len([ln for ln in lines if ln.startswith("e ")]) == 1680


def test_export_base_graph_is_the_document_at_any_block_size(monkeypatch, capsys, tmp_path):
    # the document json.dumps gives, and its edge list, from the adjacency
    graph = gr.build_projective_graph(field_of_order(2))
    edges = [[i, j] for i in range(graph.n) for j in range(i + 1, graph.n)
             if j in graph.neighbors(i)]
    doc = {"kind": "projective", "field": 2, "vertex_count": graph.n,
           "edge_count": len(edges), "vertices": [[list(v), list(h)] for v, h in graph.vertices],
           "edges": edges}
    want = {"json": json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
            "edgelist": "".join([f"# projective field=2 vertices=120 edges={len(edges)}\n"]
                                + [f"e {i} {j}\n" for i, j in edges])}
    for block in (gr.BULK_BLOCK, 7):
        monkeypatch.setattr(gr, "BULK_BLOCK", block)
        for fmt, text in want.items():
            out = tmp_path / f"g.{fmt}"
            argv = ["export", "base-graph", "--field", "2", "--format", fmt]
            assert run(argv + ["--out", str(out)]) == 0
            assert out.read_text() == text
            capsys.readouterr()
            assert run(argv) == 0
            assert capsys.readouterr().out == text


def test_verify_all_gf2_builds_one_graph_and_one_table(monkeypatch):
    from phcover import graphs as gr

    # fresh caches, so that the run builds what it needs
    monkeypatch.setattr(gr, "_graph_cache", {})
    cons.cover_data.cache_clear()
    graphs, tables = [], []
    init, bulk = gr.Graph.__init__, cons.bulk_dart_voltage

    def counted_init(self, gf, vmat, hmat):
        init(self, gf, vmat, hmat)
        graphs.append(gf.order)

    def counted_bulk(gf, *args):
        tables.append(gf.order)
        return bulk(gf, *args)

    monkeypatch.setattr(gr.Graph, "__init__", counted_init)
    monkeypatch.setattr(cons, "bulk_dart_voltage", counted_bulk)
    assert run(["verify", "all", "--field", "2", "--samples", "1000"]) == 0
    assert graphs == [2] and tables == [2]


def test_export_cover_and_guard(tmp_path):
    out = str(tmp_path / "cover.json")
    assert run(["export", "cover", "--field", "2", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["vertex_count"] == 7680 and doc["edge_count"] == 107520
    assert run(["export", "base-graph", "--field", "8"]) == 2


def test_verify_all_gf2_small(tmp_path):
    out = str(tmp_path / "all.json")
    assert run(["verify", "all", "--field", "2", "--samples", "2000",
                "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["passed"]
    checks = {r["check"] for r in doc["results"]}
    assert {"reductive", "triangles", "quadrangles", "pentagons", "cycle-span",
            "equivariance", "u-invariance", "main-theorem", "nonsplit",
            "phi-table", "diameter"} <= checks


def test_verify_all_is_the_suites_in_order(capsys):
    def results(suite):
        assert run(["verify", suite, "--field", "4", "--samples", "200"]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    singles = [r for suite in cli.SUITES if suite != "all" for r in results(suite)]
    assert results("all") == singles

