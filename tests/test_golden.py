"""Golden digests of the enumerated tables every exhaustive certificate reads.

The CSR adjacency and packed dart voltages of the GF(4) projective and the
GF(2) affine graph, and their BFS spanning trees at root 0, must stay
bit-for-bit the same across refactors of graph enumeration, the bulk
voltage kernel and the tree.  A digest is the sha256 of the arrays'
little-endian bytes, taken in turn at fixed widths.
"""

import hashlib

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
