"""Golden digests of the enumerated tables every exhaustive certificate reads.

The CSR adjacency and packed dart voltages of the GF(4) projective and the
GF(2) affine graph, and their BFS spanning trees at root 0, must stay
bit-for-bit the same across refactors of graph enumeration, the bulk
voltage kernel and the tree; so must the table of the GF(8) canonical
subgraph, both exports of the GF(4) projective base graph and both
exports of the GF(2) base graph under either label.  A digest is the
sha256 of the arrays' little-endian bytes, taken in turn at fixed widths.  The GF(2) cover is
pinned the same way, by the sha256 of both export formats and of the BFS
order of its lift component, the `verify all` report of each field by
the sha256 of its stdout, and the seeded sampled checks by the sha256 of
their reports and of every dart they evaluated.
"""

import hashlib
import json

import numpy as np
import pytest

from phcover import cli
from phcover import construction as cons
from phcover import graphs as gr
from phcover import voltage as vg
from phcover.field import field_of_order


def _digest(*pairs):
    h = hashlib.sha256()
    for arr, dtype in pairs:
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


GOLDEN = {
    "gf4-projective": (
        gr.build_projective_graph, 4,
        "30bee0006a2a84ab5300b5b8cea3ef784ad013082fb7f49cb31f8dc655899861",
        "57492eebfc2dbf5a8b675da04d07fb2746d24616842d933e59bc67fba1eb7b45"),
    "gf2-affine": (
        gr.build_affine_graph, 2,
        "cd220eb1d6df0729adf4a7fc57dd69b960c1e4b96688b5073b0a01e777322e66",
        "02c575e2fcacdebf5baf699090dd0e0c30cf09fb1f8537af5cc6f00955bad8be"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table_and_tree_digests(name):
    build, q, table_digest, tree_digest = GOLDEN[name]
    table = cons.voltage_table(build(field_of_order(q)))
    assert _digest((table.indptr, "<i8"), (table.indices, "<i4"),
                   (table.volts, "<u8")) == table_digest
    parent, pot = vg.spanning_tree_potentials(table, 0)
    assert _digest((parent, "<i8"), (pot, "<u8")) == tree_digest


def test_gf8_subgraph_table_digest():
    table = cons.voltage_table(cons._rational_subgraph_with_twists(field_of_order(8)))
    assert _digest((table.indptr, "<i8"), (table.indices, "<i4"),
                   (table.volts, "<u8")) == \
        "76d24d996035523939ff6f78851ab28dc0fc470cef9ae467668a69ae4cf8554a"


BASE_GRAPH_GOLDEN = {
    "json": "ba1f11726294523f0b892facf1f50534cb28a5f32a06f6061df92c3ed620d3d7",
    "edgelist": "58c29cf0c25850ad94beee6bc3fcede062b246c254798f8fc3dcd24214112d43",
}


@pytest.mark.parametrize("fmt", sorted(BASE_GRAPH_GOLDEN))
def test_base_graph_export_digests(fmt, tmp_path):
    path = tmp_path / f"graph.{fmt}"
    argv = ["export", "base-graph", "--field", "4", "--format", fmt, "--out", str(path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BASE_GRAPH_GOLDEN[fmt]


GF2_BASE_GRAPH_GOLDEN = {
    ("projective", "json"): "8084e6676bfa844f82e648a0f0fc4d3088e23b493b3534b807408336e43b6fe3",
    ("projective", "edgelist"): "8c897544a028793aed08d25b95a1f070ceb5daac9c39bcf3878af41945ac1057",
}


@pytest.mark.parametrize("graph, fmt", sorted(GF2_BASE_GRAPH_GOLDEN))
def test_gf2_base_graph_export_digests(graph, fmt, tmp_path):
    path = tmp_path / f"graph.{fmt}"
    argv = ["export", "base-graph", "--field", "2", "--format", fmt, "--out", str(path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GF2_BASE_GRAPH_GOLDEN[(graph, fmt)]


COVER_GOLDEN = {
    "json": "2d9e86f3870c713d6b35fa507c536d8fdb8630bf750ecd576ef58559aef41045",
    "edgelist": "9e178312059633731c686183b51b08170d14a77b062dd3aea53f2d6b3834ed08",
}


@pytest.mark.parametrize("fmt", sorted(COVER_GOLDEN))
def test_cover_export_digests(fmt, tmp_path, capsys):
    path = tmp_path / f"cover.{fmt}"
    cons.export_cover(str(path), fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == COVER_GOLDEN[fmt]
    # without --out the command writes the same bytes to stdout
    capsys.readouterr()
    assert cli.main(["export", "cover", "--field", "2", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == COVER_GOLDEN[fmt]


def test_cover_component_order_digest():
    verts = cons.cover_data()["component"]["vertices"].tolist()
    assert hashlib.sha256(json.dumps(verts).encode()).hexdigest() == \
        "df6016b61dad524acb6cfd16fc2eea5475e9c7a8001a735ff6a254d13a3a869f"


VERIFY_ALL_GOLDEN = {
    2: "e81d3828fa8367459c93bd007f06f758ee74e28a771608a5d0afe28e09664eca",
    4: "475dbe06055d422f96e88a7b999ba14ab9dfb4b01368ee1918daa23cf1406e0e",
    8: "5715d53eb328d3ad850dd8c221e9dd105019187c80118d09a7e26fc2f5f5513a",
    16: "6dcb668f1fc5a25208ca0481640bccc881142080f8ede7cb47fc8b9428ddc3da",
}


@pytest.mark.parametrize("q", sorted(VERIFY_ALL_GOLDEN))
def test_verify_all_digests(q, capsys):
    argv = ["verify", "all", "--field", str(q), "--samples", "1000", "--seed", "12345"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL_GOLDEN[q]


# sha256 of the reports, and of every dart the checks evaluated with its voltage
SAMPLED_CYCLES_GOLDEN = (
    "37acbef6cff57f3970af13fed9d8121a29c12ea303e1e923c10a2662a3577787",
    "810719fba89fbd11b629ed2c410a0e37f13eab8adb619c1031dadd0f16b2f8da")


def test_sampled_cycles_digests(monkeypatch):
    """One round of the seeded sampled checks over GF(4), GF(8) and GF(16) at
    a tenth of the benchmark's sample counts: triangles, 4- and 5-cycles,
    closed walks of length 6-8, reductivity and equivariance under 20
    matrices, 18 reports.  Every voltage goes through dart_voltage, so the
    recorded darts pin the draws of every sampler in order."""
    darts = hashlib.sha256()
    dart_voltage = cons.dart_voltage

    def recorded(gf, a, b):
        volt = dart_voltage(gf, a, b)
        darts.update(repr((a, b, volt)).encode())
        return volt

    monkeypatch.setattr(cons, "dart_voltage", recorded)
    reports = []
    for q in (4, 8, 16):
        gf = field_of_order(q)
        reports += [
            cons.verify_triangles(gf, samples=150, seed=q + 1),
            cons.verify_quadrangles(gf, samples=100, seed=q + 2),
            cons.verify_pentagons(gf, samples=70, seed=q + 3),
            cons.verify_long_cycles(gf, samples=10, seed=q + 4),
            cons.reductivity_report(gf, samples=150, seed=q + 5),
            cons.equivariance_report(gf, n_matrices=20, samples=6, seed=q + 6),
        ]
    assert all(r["passed"] for r in reports)
    text = json.dumps(reports, sort_keys=True, default=repr)
    assert (hashlib.sha256(text.encode()).hexdigest(), darts.hexdigest()) == SAMPLED_CYCLES_GOLDEN


# sha256 of the A and b bytes of the splitting system, per (field, alpha)
SPLITTING_GOLDEN = {
    (4, None): "34776d030e2e951daa1954b3a3f51f625267b2037a92c466782cacc526233c3a",
    (8, None): "a46885e2be627094c4eaa207c5c986e6e2ef2ea4cea6ea4e54318da9ac1a1b0f",
    (16, None): "c441f95ebc305d8e16c16707e2e960f30e6d49c956c9536f8264854baa4045c7",
    (16, 0b100): "128896483b892567b6cd6ce8798ca4069020f64f684aa66a25c49e8389145db0",
}


@pytest.mark.parametrize("q, alpha", sorted(SPLITTING_GOLDEN, key=repr))
def test_splitting_system_digests(q, alpha):
    a_mat, b = cons.splitting_system(field_of_order(q), alpha)
    assert _digest((a_mat, "u1"), (b, "u1")) == SPLITTING_GOLDEN[(q, alpha)]


# sha256 of the main-theorem report, and of every dart it evaluated with its voltage
MAIN_THEOREM_GOLDEN = {
    8: ("26ef5faada94ea03d988e5bbdb494225736f9c647124077ed72d2ccc157b34b5",
        "1868e96fdea5f01d836d9562ee27734c243ebed95dc927551054072ce93f378b"),
    16: ("1a5be9385f7336db52717d9dc6e1e5f8fe91a688424a32f551eb8943c36be399",
         "2370501354498748be6a1d1ddbb134e14ce1ea8041410dda2eabc48e48f86993"),
}


@pytest.mark.parametrize("q", sorted(MAIN_THEOREM_GOLDEN))
def test_main_theorem_digests(q, monkeypatch):
    """The seeded parts of verify_main_theorem: sampled reductivity and
    triangles, and the subgraph span with its sampled walks.  A passed
    report carries only counts, so the recorded darts are what pin the
    RNG stream of every part: each dart through dart_voltage, and each
    row of the walks' one dart_voltages stack, in the same form."""
    darts = hashlib.sha256()
    dart_voltage, dart_voltages = cons.dart_voltage, cons.dart_voltages

    def recorded(gf, a, b):
        volt = dart_voltage(gf, a, b)
        darts.update(repr((a, b, volt)).encode())
        return volt

    def recorded_rows(gf, *rows):
        volts = dart_voltages(gf, *rows)
        for v1, h1, v2, h2, volt in zip(*(x.tolist() for x in (*rows, volts))):
            darts.update(repr(((tuple(v1), tuple(h1)), (tuple(v2), tuple(h2)),
                               tuple(volt))).encode())
        return volts

    monkeypatch.setattr(cons, "dart_voltage", recorded)
    monkeypatch.setattr(cons, "dart_voltages", recorded_rows)
    rep = cons.verify_main_theorem(field_of_order(q), seed=q + 7, samples=100)
    assert rep["passed"]
    text = json.dumps(rep, sort_keys=True, default=repr)
    assert (hashlib.sha256(text.encode()).hexdigest(), darts.hexdigest()) == MAIN_THEOREM_GOLDEN[q]
