"""Golden digests of the enumerated tables every exhaustive certificate reads.

The CSR adjacency and packed dart voltages of the GF(4) projective and the
GF(2) affine graph, and their BFS spanning trees at root 0, must stay
bit-for-bit the same across refactors of graph enumeration, the bulk
voltage kernel and the tree.  A digest is the sha256 of the arrays'
little-endian bytes, taken in turn at fixed widths.  The GF(2) cover is
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


COVER_GOLDEN = {
    "json": "2d9e86f3870c713d6b35fa507c536d8fdb8630bf750ecd576ef58559aef41045",
    "edgelist": "9e178312059633731c686183b51b08170d14a77b062dd3aea53f2d6b3834ed08",
}


@pytest.mark.parametrize("fmt", sorted(COVER_GOLDEN))
def test_cover_export_digests(fmt, tmp_path):
    path = tmp_path / f"cover.{fmt}"
    cons.export_cover(str(path), fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == COVER_GOLDEN[fmt]


def test_cover_component_order_digest():
    verts = cons.cover_data()["component"]["vertices"]
    assert hashlib.sha256(json.dumps(verts).encode()).hexdigest() == \
        "df6016b61dad524acb6cfd16fc2eea5475e9c7a8001a735ff6a254d13a3a869f"


VERIFY_ALL_GOLDEN = {
    2: "0496e2c6fc5fdd975e5a24e0b121a7ad48f5c3dc8ef8d82d03ac3cc5a9777a62",
    4: "ff791fcc8cfae619ad5024aec52443fcd839f4b1784cc494b8ca32e2baf7c7a6",
    8: "edcc4aef32df1f144032ef7f439e13ee3448f8cb354e5ab1ebd6a82b05b47d43",
    16: "8979cc69265923fa8938b69fff5042890d0a0099c0cc9dd0b318126effc868b3",
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
