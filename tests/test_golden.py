"""Golden digests of the enumerated tables every exhaustive certificate reads.

The CSR adjacency and packed dart voltages of the GF(4) projective and the
GF(2) affine graph, and their BFS spanning trees at root 0, must stay
bit-for-bit the same across refactors of graph enumeration, the bulk
voltage kernel and the tree.  A digest is the sha256 of the arrays'
little-endian bytes, taken in turn at fixed widths.  The GF(2) cover is
pinned the same way, by the sha256 of both export formats and of the BFS
order of its lift component.
"""

import hashlib
import json

import numpy as np
import pytest

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
