"""The characteristic-2 voltage assignment on the affine point-hyperplane
graph, and everything specific to it: the dart-voltage formula, the
triangle/quadrangle/pentagon verifiers, the cycle-voltage span, the
explicit square-generating quadrangles, the 64-fold GF(2) cover, the
transvection family A_x with its cocycle, and the non-splitness of the
resulting extension.

The voltage of the dart from (v1, h1) to (v2, h2) is

    h1(v1)^-1 h2(v2)^-1 (v1 ^ v2) * phi(h1 ^ h2)   in S2(W),

and the N-valued assignment is its class modulo {0, U}.  The formula is
symmetric in its endpoints and invariant under independent rescaling of
either side of either vertex, which makes it well defined on the
projective (reduct) graph; both facts are verified by the test suite
rather than assumed.

It is evaluated three ways: :func:`dart_voltage` on one dart, as a
21-tuple; :func:`dart_voltages` on stacks of darts between any vertices
of any field, as (N, 21) uint8 rows (the sampled cycle-span walks); and
:func:`bulk_dart_voltage` on the darts of an enumerated vertex stack
through pair tables, packed into uint64 for k <= 3 (the dart tables).
"""

from __future__ import annotations

import gc
import json
import operator
import random
from functools import lru_cache, partial
from itertools import chain

from ._lazy import np
from .field import GF, field_of_order
from .graphs import (
    Graph,
    blocks,
    build_affine_graph,
    build_projective_graph,
    common_neighbor_blocks,
    csr_bfs,
    diameter,
    distinct,
    factor_vertices,
    find_sorted,
    frontier_blocks,
    nonincident_pairs,
    normalized,
    proj_points,
    quadrangle_blocks,
    sample_closed_walk,
    sample_closed_walks,
    sample_pentagon,
    sample_quadrangle,
    sample_triangle,
    triangle_blocks,
    vertex_ids,
    vertex_keys,
)
from .linalg import E4, dot, random_gl4, random_sl4, solve_affine_f2, vec_add
from .multilinear import (
    BIV_PAIRS,
    DIAG_SLOTS,
    SYM_PAIRS,
    SYM_SLOT,
    ZERO21,
    _chi_pairing_table,
    _dual_pairing_table,
    _span_table,
    action,
    big_u,
    in_w2,
    in_w2_plus_u,
    n_project_packed,
    pack_sym,
    packed_in_w2_plus_u,
    phi,
    sym_add,
    sym_mul,
    sym_scale,
    square,
    u_packed,
    wedge,
    wedge_covectors,
    wedges,
)
from .voltage import (
    DartTable,
    F2Span,
    check_equivariance,
    check_reductive,
    component_of,
    fundamental_cycle_span,
    lift_keys,
    path_voltage,
    report,
    tally,
    verify_local_isomorphism,
)

# ----------------------------------------------------------------------
# the voltage assignment
# ----------------------------------------------------------------------

def dart_voltage(gf: GF, a, b):
    """Voltage in S2(W) of the dart from vertex a to vertex b; the tests hold
    it to sym_mul(scale * wedge(v1, v2), phi(wedge_covectors(h1, h2)))."""
    mul = gf.mul_rows
    (x0, x1, x2, x3), (f0, f1, f2, f3) = a
    (y0, y1, y2, y3), (g0, g1, g2, g3) = b
    a0, a1, a2, a3 = mul[f0], mul[f1], mul[f2], mul[f3]
    b0, b1, b2, b3 = mul[g0], mul[g1], mul[g2], mul[g3]
    sa = a0[x0] ^ a1[x1] ^ a2[x2] ^ a3[x3]
    sb = b0[y0] ^ b1[y1] ^ b2[y2] ^ b3[y3]
    if sa == 0 or sb == 0:
        raise ValueError("inputs are not vertices (functional vanishes on its vector)")
    if a0[y0] ^ a1[y1] ^ a2[y2] ^ a3[y3] or b0[x0] ^ b1[x1] ^ b2[x2] ^ b3[x3]:
        raise ValueError("vertices are not adjacent")
    # the scale (sa sb)^-1 is folded into the 6 bivector slots, not the 21
    # slots of the product: the symmetric product is bilinear
    by_scale = mul[mul[gf.inverses[sa]][gf.inverses[sb]]]
    # v1 ^ v2 scaled, as the multiplication rows of its six slots
    u0, u1, u2, u3 = mul[x0], mul[x1], mul[x2], mul[x3]
    w0 = mul[by_scale[u0[y1] ^ u1[y0]]]
    w1 = mul[by_scale[u0[y2] ^ u2[y0]]]
    w2 = mul[by_scale[u0[y3] ^ u3[y0]]]
    w3 = mul[by_scale[u1[y2] ^ u2[y1]]]
    w4 = mul[by_scale[u1[y3] ^ u3[y1]]]
    w5 = mul[by_scale[u2[y3] ^ u3[y2]]]
    # phi(h1 ^ h2): the slots of the covector wedge, last first
    p0, p1, p2 = a2[g3] ^ a3[g2], a1[g3] ^ a3[g1], a1[g2] ^ a2[g1]
    p3, p4, p5 = a0[g3] ^ a3[g0], a0[g2] ^ a2[g0], a0[g1] ^ a1[g0]
    return (w0[p0], w0[p1] ^ w1[p0], w0[p2] ^ w2[p0], w0[p3] ^ w3[p0],
            w0[p4] ^ w4[p0], w0[p5] ^ w5[p0],
            w1[p1], w1[p2] ^ w2[p1], w1[p3] ^ w3[p1], w1[p4] ^ w4[p1], w1[p5] ^ w5[p1],
            w2[p2], w2[p3] ^ w3[p2], w2[p4] ^ w4[p2], w2[p5] ^ w5[p2],
            w3[p3], w3[p4] ^ w4[p3], w3[p5] ^ w5[p3],
            w4[p4], w4[p5] ^ w5[p4],
            w5[p5])


def dart_voltages(gf: GF, v1, h1, v2, h2) -> np.ndarray:
    """The per-dart array form of dart_voltage: the (N, 21) uint8 voltages
    of the darts from (v1[i], h1[i]) to (v2[i], h2[i]), given as (N, 4)
    coordinate stacks, by one formula for every field, each product a
    gather from the multiplication table.  Raises ValueError, as
    dart_voltage does, when a row pair is not a vertex or a dart joins two
    non-adjacent vertices.

    This is the kernel for darts between many distinct vertices, as on
    random walks.  bulk_dart_voltage, the kernel for enumerated stacks
    with few distinct rows, builds pair tables over the distinct rows: on
    the 11,902 darts of the 2000 walks of one GF(8) cycle-span report
    (3852 distinct vectors) it took 2.7-3.4 s, and this function 5-7 ms
    (shared 2-core host)."""
    t, k, inv = gf.mul_table, gf.k, gf.inv_table
    sa, sb = dot(gf, h1, v1), dot(gf, h2, v2)
    if not (sa.all() and sb.all()):
        raise ValueError("inputs are not vertices (functional vanishes on its vector)")
    if (dot(gf, h1, v2) | dot(gf, h2, v1)).any():
        raise ValueError("vertices are not adjacent")
    # the product a * b is entry (a << k) | b of the table; v1 ^ v2 scaled
    # by (sa sb)^-1 and shifted, and phi(h1 ^ h2), the covector wedge last
    # slot first, each slot a row
    scale = np.take(t, (inv[sa] << k) | inv[sb])
    w = np.take(t, (scale[:, None] << k) | wedges(gf, v1, v2)).T << k
    p = wedges(gf, h1, h2)[:, ::-1].T.copy()
    i, j = np.array(SYM_PAIRS).T
    # slot (i, j) is w_i p_j + w_j p_i off the diagonal and w_i p_i on it
    return (np.take(t, w[i] | p[j]) ^ (
        np.take(t, w[j] | p[i]) & np.where(i == j, 0, 0xFF).astype(np.uint8)[:, None])).T


def cycle_voltage(gf: GF, cyc):
    """Voltage in S2(W) of the closed walk through the vertices of cyc."""
    return path_voltage(gf, partial(dart_voltage, gf), cyc + (cyc[0],))


@lru_cache(maxsize=None)
def _chunk_product_tables(gf: GF) -> tuple:
    """Packed symmetric products of bivector chunks.

    The six bivector slots split into the chunks w1..w3 and w4..w6, and a
    chunk is coded by its three coordinates at k bits each, first slot
    highest.  tables[2 * x + y] is the flat (code, code) table of packed
    products of a bivector supported on chunk x with one supported on chunk
    y.  The product is bilinear, so the product of two bivectors is the XOR
    of the four chunk-pair entries of their codes."""
    k, t = gf.k, gf.mul_table
    codes = np.arange(1 << (3 * k))
    digits = [(codes >> (k * (2 - s))) & (gf.order - 1) for s in range(3)]
    tables = []
    for x in range(2):
        for y in range(2):
            acc = np.zeros((codes.size, codes.size), dtype=np.uint64)
            for a in range(3):
                # by_value[c, code]: c in slot a of chunk x times chunk y coded code
                by_value = np.zeros((gf.order, codes.size), dtype=np.uint64)
                for b in range(3):
                    i, j = sorted((3 * x + a, 3 * y + b))
                    shift = np.uint64(k * (20 - SYM_SLOT[(i, j)]))
                    by_value ^= t[:, digits[b]].astype(np.uint64) << shift
                acc ^= by_value[digits[a]]
            tables.append(acc.ravel())
    return tuple(tables)


def _pair_chunk_codes(gf: GF, rows, chunks) -> list:
    """Chunk codes of the wedges of all pairs of n distinct rows: for each
    chunk, a tuple of three wedge slots, the flat n x n uint16 table whose
    entry i * n + j codes those slots of rows[i] ^ rows[j], first slot
    highest, at k bits each."""
    w = wedges(gf, rows[:, None], rows[None, :]).astype(np.uint16)
    return [((w[..., a] << 2 * gf.k) | (w[..., b] << gf.k) | w[..., c]).ravel()
            for a, b, c in chunks]


def bulk_dart_voltage(gf: GF, src, dst, vmat, hmat) -> np.ndarray:
    """Packed uint64 voltages of the darts src[i] -> dst[i] between the
    vertices whose coordinates are the rows of vmat and hmat.

    Only valid for k <= 3 (21k packed bits must fit into 64).  Raises
    ValueError, as dart_voltage does, when a row of (vmat, hmat) is not a
    vertex or a dart joins two non-adjacent vertices, and IndexError when
    a dart end is not a row.

    What depends on one endpoint only is computed once per vertex: its
    point id among the P distinct rows of vmat and its hyperplane id among
    the H distinct rows of hmat (:func:`phcover.graphs.factor_vertices`),
    and h(v)^-1.  Each pair of distinct
    values is evaluated once, into pair tables: the two chunk codes of
    v1 ^ v2 (P x P), the two chunk codes of phi(h1 ^ h2) (H x H), and
    h(v) (H x P), which also gives the adjacency test.  These take
    4(P^2 + H^2) + PH bytes, so a caller with many distinct values passes
    few vertices at a time; the GF(4) projective graph has P = H = 85.
    One q x 2^(3k) table holds every chunk code times every scalar.  The
    darts then run in blocks of graphs.BULK_BLOCK as gathers from these
    tables into buffers that every block reuses: the scale h1(v1)^-1 h2(v2)^-1 is folded into the chunks of v1 ^ v2,
    and the 21 slots of the symmetric product come from the four
    chunk-pair tables.  Nothing here assumes the symmetry or the
    rescaling invariance of the formula: every table entry is a function
    of the values it is indexed by.

    The pair tables pay off on enumerated stacks, whose rows repeat a few
    distinct values; on darts between many distinct vertices, as on
    random walks, they dominate (2.7-3.4 s on the 11,902 darts of the 2000
    walks of one GF(8) cycle-span report), and dart_voltages is the
    kernel there."""
    if gf.k > 3:
        raise ValueError("packed bulk voltages support k <= 3 only")
    k, q = gf.k, gf.order
    c3 = 3 * k
    t = gf.mul_table
    points, p_id, planes, h_id, pairing = factor_vertices(gf, vmat, hmat)
    n_p, n_h = len(points), len(planes)
    pairing = pairing.ravel()  # pairing[h * P + p] = h(p)
    own = pairing[h_id * n_p + p_id]
    if not own.all():
        raise ValueError("inputs are not vertices (functional vanishes on its vector)")
    src, dst = np.asarray(src), np.asarray(dst)
    if src.size and not (0 <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < own.size):
        raise IndexError("a dart end is not a row of the vertex stack")
    inv_own = gf.inv_table.astype(np.intp)[own]
    w_hi, w_lo = _pair_chunk_codes(gf, points, ((0, 1, 2), (3, 4, 5)))
    # phi is slot reversal: the chunks of phi(d) are d6 d5 d4 and d3 d2 d1
    d_hi, d_lo = _pair_chunk_codes(gf, planes, ((5, 4, 3), (2, 1, 0)))
    # scaled[(c << 3k) | code]: the chunk coded code times c, already
    # shifted into the high half of a chunk-pair index
    codes = np.arange(1 << c3)
    scaled = np.zeros((q, codes.size), dtype=np.intp)
    for s in range(3):
        shift = k * (2 - s)
        scaled |= t[:, (codes >> shift) & (q - 1)].astype(np.intp) << shift
    scaled = (scaled << c3).ravel()
    # the products a * b at (a << k) | b, shifted as scaled is
    t_c3 = t.ravel().astype(np.intp) << c3
    # per vertex: h(v)^-1 shifted for t_c3, and the offsets of its row in
    # the pairing and in the point and covector pair tables
    inv_k, h_pairing, p_row, h_row = inv_own << k, h_id * n_p, p_id * n_p, h_id * n_h
    t00, t01, t10, t11 = _chunk_product_tables(gf)
    out = np.empty(len(src), dtype=np.uint64)
    # Every block gathers into the same buffers, which take fills in
    # "clip" mode, without a copy; every index is in range, as the dart
    # ends were checked above.  Arrays made afresh per block would, under
    # malloc's default thresholds, be unmapped and faulted in again block
    # after block.
    size = next(blocks(len(src)), (0, 0))[1]  # the first block is the longest
    ints = np.empty((5, size), dtype=np.intp)
    chunk = np.empty(size, dtype=np.uint16)
    word = np.empty(size, dtype=np.uint64)

    def take(table, at, into):
        return np.take(table, at, out=into, mode="clip")

    for lo, hi in blocks(len(src)):
        a, b, x, y, z = ints[:, :hi - lo]
        c, u, o = chunk[:hi - lo], word[:hi - lo], out[lo:hi]
        a[:], b[:] = src[lo:hi], dst[lo:hi]
        # each end's covector kills the other end's vector
        for e, f in ((a, b), (b, a)):
            np.add(take(h_pairing, e, x), take(p_id, f, y), out=x)
            if pairing.take(x).any():
                raise ValueError("vertices are not adjacent")
        # z: the scale h_a(v_a)^-1 h_b(v_b)^-1, shifted
        np.bitwise_or(take(inv_k, a, x), take(inv_own, b, y), out=x)
        take(t_c3, x, z)
        # x and y: the pair ids of the two points and of the two covectors
        np.add(take(p_row, a, x), take(p_id, b, y), out=x)
        np.add(take(h_row, a, y), take(h_id, b, a), out=y)
        # a and b: the two chunks of v_a ^ v_b, scaled
        take(scaled, np.bitwise_or(z, take(w_hi, x, c), out=b), a)
        take(scaled, np.bitwise_or(z, take(w_lo, x, c), out=x), b)
        # the XOR of their products with the two chunks of phi(h_a ^ h_b)
        take(t00, np.bitwise_or(a, take(d_hi, y, c), out=z), o)
        o ^= take(t10, np.bitwise_or(b, c, out=z), u)
        o ^= take(t01, np.bitwise_or(a, take(d_lo, y, c), out=z), u)
        o ^= take(t11, np.bitwise_or(b, c, out=z), u)
    return out


def voltage_table(graph: Graph) -> DartTable:
    """The packed dart-voltage table of an enumerated graph, built once.

    Uses the vectorised uint64 path where the packing fits (k <= 3), and a
    scalar object-dtype table otherwise (only ever needed for the small
    canonical subgraphs over GF(16))."""
    table = getattr(graph, "_dart_table", None)
    if table is None:
        gf = graph.gf
        if gf.k <= 3:
            table = DartTable(graph, bulk_dart_voltage(
                gf, graph.dart_sources(), graph._indices, graph.vmat, graph.hmat))
        else:
            table = DartTable.from_scalar(
                graph, lambda a, b: pack_sym(gf, dart_voltage(gf, a, b)))
        graph._dart_table = table
    return table


# ----------------------------------------------------------------------
# canonical vertices and the transvection family
# ----------------------------------------------------------------------

def vertex_v0(gf: GF):
    return ((1, 0, 0, 0), (1, 0, 0, 0))


def _vertex_v0_id(graph: Graph) -> int:
    """The id of vertex_v0 in the graph."""
    v, h = vertex_v0(graph.gf)
    return int(vertex_ids(graph, [v], [h])[0])


def vertex_u(gf: GF):
    return ((0, 0, 1, 0), (0, 0, 1, 0))


def vertex_vx(gf: GF, x: int):
    """The image of the base vertex under A_x: point e1 + x e2, hyperplane f1."""
    return ((1, x, 0, 0), (1, 0, 0, 0))


def alpha_element(gf: GF) -> int:
    """The canonical generator outside the prime field (bit pattern 0b10)."""
    if gf.order <= 2:
        raise ValueError("GF(2) has no element outside the prime field")
    return 0b10


def order4_subgroup(gf: GF, alpha: int | None = None):
    """The additive subgroup generated by 1 and alpha, listed as
    (0, 1, alpha, alpha + 1)."""
    if alpha is None:
        alpha = alpha_element(gf)
    if alpha in (0, 1):
        raise ValueError("alpha must lie outside the prime field")
    return (0, 1, alpha, alpha ^ 1)


def ax_matrix(gf: GF, x: int):
    """The unipotent map fixing e2 and e4 and sending e1, e3 to
    e1 + x e2, e3 + x e4."""
    gf.check(x)
    return ((1, x, 0, 0), (0, 1, 0, 0), (0, 0, 1, x), (0, 0, 0, 1))


def w5_squared(gf: GF, coef: int = 1):
    w5 = wedge(gf, E4[1], E4[3])
    return sym_scale(gf, coef, square(gf, w5))


def w4w5(gf: GF, coef: int = 1):
    w4 = wedge(gf, E4[1], E4[2])
    w5 = wedge(gf, E4[1], E4[3])
    return sym_scale(gf, coef, sym_mul(gf, w4, w5))


def lambda_ax(gf: GF, x: int):
    """Voltage of the chosen path from the image of the base vertex back to
    it, routed through the (e3, f3) vertex; an empty path for x = 0."""
    if x == 0:
        return ZERO21
    vx, u, v0 = vertex_vx(gf, x), vertex_u(gf), vertex_v0(gf)
    return path_voltage(gf, partial(dart_voltage, gf), (vx, u, v0))


def cocycle_f(gf: GF, x: int, y: int):
    """The 2-cocycle of the component stabilizer on the transvection family,
    computed from the path-based lambda values."""
    lam_xy = lambda_ax(gf, x ^ y)
    lam_x = lambda_ax(gf, x)
    lam_y = lambda_ax(gf, y)
    act_y = action(gf, ax_matrix(gf, y))
    return sym_add(sym_add(lam_xy, act_y.on_sym(lam_x)), lam_y)


# ----------------------------------------------------------------------
# lemma verifiers
# ----------------------------------------------------------------------

def _not_applicable(check, gf, mode):
    """The report of a check that needs an element outside GF(2)."""
    return report(check, gf, mode, 0, 0, [], status="not-applicable",
                  reason="no element outside the prime field")


def _resolve_mode(gf: GF, mode: str, what: str) -> str:
    """The field's own mode, exhaustive over GF(2) and sample above it, for
    "auto" or that mode itself; any other mode is refused."""
    own = "exhaustive" if gf.order == 2 else "sample"
    if mode not in ("auto", own):
        raise ValueError(f"{what} checks over GF({gf.order}) run in {own} mode, not {mode!r}")
    return own


def _seeded(count: int, seed: int, what: str) -> random.Random:
    """The generator of a sampled check asked for count items; fewer than
    one is refused, as the check would pass on no work."""
    if count < 1:
        raise ValueError(f"{what} needs at least one sample")
    return random.Random(seed)


def _sampled_cycles(check, gf: GF, cycles, member, key, **extra) -> dict:
    """The report of a sampled check of closed walks: a walk fails when
    member rejects its voltage, with witness {key: walk, "voltage":
    voltage}.  Given a generator, each walk is drawn just before it is
    evaluated."""
    voltage = partial(cycle_voltage, gf)
    return report(check, gf, "sample", *tally(
        None if member(volt) else {key: cyc, "voltage": volt}
        for cyc in cycles for volt in (voltage(cyc),)), **extra)


def _check_table_cycles(cycle_blocks, voltages, passes, key):
    """Tally the closed walks of (B, L) blocks of vertex ids by the pass
    mask passes(volts), each witness {key: cycle, "voltage": voltage}.
    voltages(rows) lists the packed voltage of each walk of a block, given
    an iterator over the block's rows as tuples."""
    cycles, volts = [], []
    for block in cycle_blocks:
        cycles.append(block.astype(np.int32))
        volts.append(np.array(voltages(zip(*block.T.tolist())), dtype=np.uint64))
    cycles, volts = np.concatenate(cycles), np.concatenate(volts)
    return tally(passes(volts), lambda t: {key: tuple(cycles[t].tolist()),
                                           "voltage": int(volts[t])})


def _check_table_quadrangles(gf: GF, table: DartTable, cycle_blocks):
    """_check_table_cycles of (B, 4) blocks of 4-cycles (i, a, j, b), each
    voltage the XOR of its four table darts in walk order, against the
    span of the squares and U."""
    dart = table.dart
    return _check_table_cycles(
        cycle_blocks,
        lambda rows: [dart(i, a) ^ dart(a, j) ^ dart(j, b) ^ dart(b, i) for i, a, j, b in rows],
        partial(packed_in_w2_plus_u, gf), "cycle")


def verify_triangles(gf: GF, mode: str = "auto", samples: int = 10 ** 5,
                     seed: int = 12345) -> dict:
    """Every triangle voltage equals U, exhaustively on the enumerated affine
    graph for GF(2) and on sampled triangles for larger fields.  Raises
    ValueError when sample mode is asked for no sample."""
    mode = _resolve_mode(gf, mode, "triangle")
    if mode == "exhaustive":
        graph = build_affine_graph(gf)
        dart, u = voltage_table(graph).dart, np.uint64(u_packed(gf))
        return report("triangles", gf, mode, *_check_table_cycles(
            triangle_blocks(graph),
            lambda rows: [dart(i, j) ^ dart(j, w) ^ dart(w, i) for i, j, w in rows],
            lambda volts: volts == u, "triangle"))
    rng = _seeded(samples, seed, "a sampled triangle check")
    return _sampled_cycles("triangles", gf, (sample_triangle(gf, rng) for _ in range(samples)),
                           partial(operator.eq, big_u(gf)), "triangle")


def verify_quadrangles(gf: GF, mode: str = "auto", samples: int = 10 ** 5,
                       seed: int = 12345) -> dict:
    """Every 4-cycle voltage lies in the span of the squares plus U.  Raises
    ValueError when sample mode is asked for no sample."""
    mode = _resolve_mode(gf, mode, "4-cycle")
    if mode == "exhaustive":
        graph = build_affine_graph(gf)
        return report("quadrangles", gf, mode, *_check_table_quadrangles(
            gf, voltage_table(graph), quadrangle_blocks(graph)))
    rng = _seeded(samples, seed, "a sampled 4-cycle check")
    return _sampled_cycles("quadrangles", gf, (sample_quadrangle(gf, rng) for _ in range(samples)),
                           partial(in_w2_plus_u, gf), "cycle")


def verify_pentagons(gf: GF, samples: int = 10 ** 5, seed: int = 12345) -> dict:
    """Every sampled 5-cycle voltage lies in the span of the squares plus U.
    Raises ValueError when asked for no sample."""
    rng = _seeded(samples, seed, "the 5-cycle check")
    return _sampled_cycles("pentagons", gf, (sample_pentagon(gf, rng) for _ in range(samples)),
                           partial(in_w2_plus_u, gf), "cycle")


def verify_long_cycles(gf: GF, lengths=(6, 7, 8), samples: int = 2000,
                       seed: int = 12345) -> dict:
    """Sampled closed walks of the given lengths stay in the same span.
    Raises ValueError when asked for no sample or no length."""
    rng = _seeded(min(samples, len(lengths)), seed, "the long-cycle check")
    walks = (sample_closed_walk(gf, length, rng) for length in lengths for _ in range(samples))
    return _sampled_cycles("long-cycles", gf, walks, partial(in_w2_plus_u, gf), "walk",
                           lengths=list(lengths))


# ----------------------------------------------------------------------
# the explicit square-generating quadrangles
# ----------------------------------------------------------------------

def _square_basis(gf: GF):
    """The packed tensors lam * w_s^2, s = 1..6, with lam running over the
    F2-basis 1, x, .., x^(k-1) of the field: an F2-basis of the squares."""
    return [pack_sym(gf, m_to_sym(gf, 1 << j)) for j in range(6 * gf.k)]


def _square_patterns():
    """For each basis pair (a, b) the complementary pair (c, d), a < b, c < d."""
    pats = []
    for a, b in BIV_PAIRS:
        rest = [i for i in range(4) if i not in (a, b)]
        pats.append((a, b, rest[0], rest[1]))
    return pats


def w2_generator_cycles(gf: GF, lambdas=None):
    """The explicit quadrangles whose voltages are lam * (e_a ^ e_b)^2.

    For the pattern (a, b, c, d) the cycle is

        (e_a, f_a) , (e_c, f_c) , (e_a, f_a + f_d) , (e_c + lam e_b, f_c)

    and with lam running over an F2-basis of the field the voltages span
    the full space of squares over F2.
    """
    if lambdas is None:
        lambdas = [1 << t for t in range(gf.k)]
    out = []
    for a, b, c, d in _square_patterns():
        for lam in lambdas:
            x1 = (E4[a], E4[a])
            x2 = (E4[c], E4[c])
            x3 = (E4[a], vec_add(E4[a], E4[d]))
            v3 = tuple(E4[c][i] ^ gf.mul(lam, E4[b][i]) for i in range(4))
            x4 = (v3, E4[c])
            expected = sym_scale(gf, lam, square(gf, wedge(gf, E4[a], E4[b])))
            out.append({
                "pattern": (a, b, c, d),
                "lam": lam,
                "cycle": (x1, x2, x3, x4),
                "expected": expected,
            })
    return out


def w2_span_report(gf: GF) -> dict:
    """Evaluate every generator quadrangle and check the predicted voltages
    and the F2 span (dimension 6k, equal to the full space of squares),
    which counts as one more checked item."""
    # the 6k basis quadrangles, then the first pattern at every nonzero lam
    items = w2_generator_cycles(gf) + [w2_generator_cycles(gf, lambdas=[lam])[0]
                                       for lam in gf.nonzero()]
    volts = [cycle_voltage(gf, item["cycle"]) for item in items]
    span = F2Span()
    for volt in volts[:6 * gf.k]:
        span.add(pack_sym(gf, volt))
    missing = [x for x in _square_basis(gf) if not span.contains(x)]
    spans_match = span.dim == 6 * gf.k and not missing
    # the generator quadrangles, then the span as one more item
    checked, violations, witnesses = tally(chain(
        (None if volt == item["expected"] else dict(item, voltage=volt)
         for item, volt in zip(items, volts)),
        [None if spans_match else {"span_dim": span.dim, "missing_squares": missing}]))
    return report("square-generators", gf, "exhaustive", checked, violations, witnesses,
                  span_dim=span.dim, expected_dim=6 * gf.k, spans_squares=spans_match)


# ----------------------------------------------------------------------
# cycle-voltage span of the reduct graph
# ----------------------------------------------------------------------

def _rational_subgraph_with_twists(gf: GF) -> Graph:
    """A small canonical connected subgraph of the reduct graph: all vertices
    with 0/1 coordinates plus, for every square pattern, the extra vertex of
    each twisted generator quadrangle.  Used where the full graph has too
    many edges to enumerate."""
    # the points over GF(2) are those with 0/1 coordinates, in the same
    # order; then the fourth vertex of each generator quadrangle with lam
    # outside GF(2); each vertex is kept where it first occurs
    twists = [item["cycle"][3]
              for item in w2_generator_cycles(gf, [1 << b for b in range(1, gf.k)])]
    vmat, hmat = nonincident_pairs(gf, proj_points(field_of_order(2)))
    vmat = np.concatenate([vmat, np.array([v for v, _ in twists], dtype=np.uint8)])
    hmat = np.concatenate([hmat, np.array([h for _, h in twists], dtype=np.uint8)])
    first = np.sort(np.unique(vertex_keys(gf, vmat, hmat), return_index=True)[1])
    return Graph(gf, normalized(gf, vmat[first]), normalized(gf, hmat[first]))


def cycle_span_report(gf: GF, seed: int = 12345, walk_samples: int = 2000) -> dict:
    """Span of the fundamental-cycle voltages of the reduct graph, modulo U.

    For GF(2) and GF(4) the span runs over every non-tree edge of the full
    projective graph.  For GF(8) the full graph has ~7e8 edges, so the span
    is computed on the canonical connected subgraph carrying the generator
    quadrangles, and the containment of general cycle voltages is sampled
    on walk_samples random closed walks of the full graph instead, and
    fewer than one walk raises ValueError.
    """
    if gf.k <= 2:
        graph = build_projective_graph(gf)
        mode = "exhaustive"
    else:
        if walk_samples < 1:
            raise ValueError("the cycle-span walk check needs at least one walk")
        graph = _rational_subgraph_with_twists(gf)
        mode = "subgraph+sampled"
    table = voltage_table(graph)
    res = fundamental_cycle_span(table, 0, member_fn=partial(packed_in_w2_plus_u, gf))
    span = res["span"]
    contains_u = span.contains(u_packed(gf))
    span.add(u_packed(gf))
    dim_mod_u = span.dim - 1
    missing = sum(not span.contains(x) for x in _square_basis(gf))
    walk_violations, walk_witnesses = 0, []
    if mode != "exhaustive":
        # default_rng refuses negative seeds: fold the integers one to one
        # onto the naturals
        rng = np.random.default_rng(2 * seed if seed >= 0 else -2 * seed - 1)
        lengths = rng.integers(4, 9, walk_samples)
        vs, hs = sample_closed_walks(gf, lengths, rng)
        # each walk's darts in walk order, the last one back to its start
        starts = np.cumsum(lengths) - lengths
        nxt = np.arange(1, len(vs) + 1)
        nxt[starts + lengths - 1] = starts
        volts = np.bitwise_xor.reduceat(dart_voltages(gf, vs, hs, vs[nxt], hs[nxt]),
                                        starts, axis=0)
        _, walk_violations, walk_witnesses = tally(in_w2_plus_u(gf, volts), lambda i: {
            "walk": tuple(zip(map(tuple, vs[starts[i]:starts[i] + lengths[i]].tolist()),
                              map(tuple, hs[starts[i]:starts[i] + lengths[i]].tolist()))),
            "voltage": tuple(volts[i].tolist())})
    dim_ok = dim_mod_u == 6 * gf.k
    violations = (res["violations"] + missing + walk_violations
                  + (0 if dim_ok and contains_u else 1))
    return report("cycle-span", gf, mode, res["nontree_edges"], violations,
                  res["witnesses"] + walk_witnesses,
                  dim_mod_u=dim_mod_u, expected_dim=6 * gf.k,
                  contains_u=contains_u,
                  squares_contained=missing == 0,
                  fundamental_in_w2u=res["violations"] == 0,
                  sampled_walks=walk_samples if mode != "exhaustive" else 0,
                  dim_ok=dim_ok)


# ----------------------------------------------------------------------
# order-2 condition and the splitting system
# ----------------------------------------------------------------------
#
# An element sum_i m_i w_i^2 of the squares is packed into one int whose
# bit k*i + b is bit b of m_i.  The F2 unknowns and equations below use
# the same bit order.

def m_to_sym(gf: GF, m: int):
    """The diagonal symmetric tensor of a packed element of the squares."""
    out = [0] * 21
    for i, t in enumerate(DIAG_SLOTS):
        out[t] = (m >> (gf.k * i)) & (gf.order - 1)
    return tuple(out)


def sym_to_m(gf: GF, s) -> int:
    """The packed element of the squares of a tensor in their span."""
    if not in_w2(gf, s):
        raise ValueError("tensor has off-diagonal support")
    return sum(s[t] << (gf.k * i) for i, t in enumerate(DIAG_SLOTS))


def w5_squared_m(gf: GF, coef: int) -> int:
    """coef * w5^2, packed."""
    return coef << (4 * gf.k)


def s_generators(gf: GF):
    """Field-span generators of the invariant subspace S, packed:
    w1^2, w3^2 + w4^2, w5^2, w6^2."""
    return tuple(sum(1 << (gf.k * i) for i in g) for g in ((0,), (2, 3), (4,), (5,)))


@lru_cache(maxsize=None)
def ax_on_squares(gf: GF, x: int) -> tuple:
    """A_x on the squares: the packed images of the 6k basis bits.  Each
    goes through the action on S2(W), and sym_to_m raises if it leaves the
    diagonal, so the stability of the squares is checked, not assumed."""
    act = action(gf, ax_matrix(gf, x))
    return tuple(sym_to_m(gf, act.on_sym(m_to_sym(gf, 1 << j))) for j in range(6 * gf.k))


def apply_ax(gf: GF, x: int, m: int) -> int:
    """A_x applied to a packed element of the squares."""
    acc = 0
    for img in ax_on_squares(gf, x):
        if m & 1:
            acc ^= img
        m >>= 1
    return acc


def _bits(x: int, n: int) -> np.ndarray:
    """The low n bits of x, lowest first, as a uint8 vector."""
    return np.unpackbits(np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
                         count=n, bitorder="little")


def _int(bits) -> int:
    """The int whose bit j is bits[j]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _f2_matrix(fn, nin: int, nout: int) -> np.ndarray:
    """The F2 matrix (nout x nin, uint8) of a linear map on packed ints:
    column j holds the bits of the image of bit j."""
    return np.stack([_bits(fn(1 << j), nout) for j in range(nin)], axis=1)


def order2_solution_space(gf: GF, x: int) -> dict:
    """Solve m^(A_x) + m = x^2 w5^2 over the span of squares and compare the
    solution set with w3^2 + S.  Each of the four conditions (the system is
    consistent, its solutions are w3^2 + S, w3^2 lies outside S, and S is
    invariant) is one checked item, and a failed one is named as a
    witness."""
    if x == 0:
        raise ValueError("x must be nonzero")
    n = 6 * gf.k
    a_mat = _f2_matrix(lambda m: apply_ax(gf, x, m) ^ m, n, n)
    x0, kernel_basis, cert = solve_affine_f2(a_mat, _bits(w5_squared_m(gf, gf.mul(x, x)), n))
    sol_span = F2Span()
    for v in kernel_basis or ():
        sol_span.add(_int(v))
    s_span = F2Span()
    for g in s_generators(gf):
        # the coefficients of g are 0 or 1, so x^bit * g is g shifted by bit
        for bit in range(gf.k):
            s_span.add(g << bit)

    w3sq = 1 << (2 * gf.k)
    kernel_eq_s = (
        sol_span.dim == s_span.dim == 4 * gf.k
        and all(s_span.contains(r) for r in sol_span.pivots.values())
    )
    conditions = {
        "consistent": cert is None,
        "matches_w3_plus_s": cert is None and kernel_eq_s and s_span.contains(_int(x0) ^ w3sq),
        "w3_outside_s": not s_span.contains(w3sq),
        "s_invariant": all(s_span.contains(apply_ax(gf, y, g))
                           for y in order4_subgroup(gf) for g in s_generators(gf)),
    }
    failed = [name for name, ok in conditions.items() if not ok]
    return report("order2-space", gf, "exhaustive", len(conditions), len(failed), failed,
                  x=x, solution_dim=sol_span.dim, expected_dim=4 * gf.k, **conditions)


def splitting_system(gf: GF, alpha: int | None = None):
    """F2-affine system expressing that c(1), c(alpha) extend to a subgroup
    lift of the transvection family: order-2 conditions for all three
    nonzero elements plus every cross product relation.

    The unknowns are the 6k bits of c(1), then those of c(alpha); the
    rows are eight blocks of 6k, one per relation in the order below.
    Returns (A, b) with the conventions of solve_affine_f2.
    """
    if alpha is None:
        alpha = alpha_element(gf)
    _, one, al, al1 = order4_subgroup(gf, alpha)
    n = 6 * gf.k
    mul = gf.mul
    t1, ta, ta1 = (partial(apply_ax, gf, y) for y in (one, al, al1))
    w52 = partial(w5_squared_m, gf)

    def conditions(z):
        c1, ca = z & ((1 << n) - 1), z >> n
        e = w52(al) ^ ta(c1) ^ ca
        rows = (
            t1(c1) ^ c1 ^ w52(mul(one, one)),           # [1,c1]^2 = 1
            ta(ca) ^ ca ^ w52(mul(al, al)),             # [al,ca]^2 = 1
            ta1(e) ^ e ^ w52(mul(al1, al1)),            # [al+1,e]^2 = 1
            ta(c1) ^ ca ^ t1(ca) ^ c1,                  # both product orders agree
            w52(al1) ^ ta1(c1) ^ e ^ ca,                # [1,c1][al+1,e] = [al,ca]
            w52(al1) ^ t1(e) ^ c1 ^ ca,                 # [al+1,e][1,c1] = [al,ca]
            w52(mul(al, al1)) ^ ta1(ca) ^ e ^ c1,       # [al,ca][al+1,e] = [1,c1]
            w52(mul(al, al1)) ^ ta(e) ^ ca ^ c1,        # [al+1,e][al,ca] = [1,c1]
        )
        return sum(r << (n * i) for i, r in enumerate(rows))

    const = conditions(0)
    a_mat = _f2_matrix(lambda z: conditions(z) ^ const, 2 * n, 8 * n)
    return a_mat, _bits(const, 8 * n)


def nonsplit_check(gf: GF, alpha: int | None = None) -> dict:
    """Build the splitting system and certify its inconsistency."""
    if gf.order <= 2:
        return _not_applicable("nonsplit", gf, "linear")
    a_mat, b = splitting_system(gf, alpha)
    x0, kern, cert = solve_affine_f2(a_mat, b)
    # one item: the system, whose solution or certificate is checked
    if cert is None:
        return report("nonsplit", gf, "linear", 1, 1, [{"solution": [int(v) for v in x0]}],
                      status="split-found",
                      reason="the splitting system has a solution: the family lifts")
    certificate = [int(i) for i in np.nonzero(cert)[0]]
    cert_ok = (not (cert @ a_mat % 2).any()) and int(cert @ b % 2) == 1
    return report("nonsplit", gf, "linear", 1, 0 if cert_ok else 1,
                  [] if cert_ok else [{"certificate": certificate}],
                  status="inconsistent",
                  reason="a row combination y with yA = 0 and y.b = 1 rules out every lift",
                  certificate=certificate)


def brute_force_splitting_gf4() -> dict:
    """Independent oracle over GF(4): run through all 4096^2 candidate pairs
    (c(1), c(alpha)) and count those defining a subgroup lift.  A lift
    needs c(1) and c(alpha) to satisfy their order-2 conditions, so the six
    cross relations are evaluated on those 256 x 256 pairs only."""
    gf = field_of_order(4)
    _, one, al, al1 = order4_subgroup(gf)
    n = 4096
    arr = np.arange(n, dtype=np.uint16)
    # the image of every packed element of the squares
    t1, ta, ta1 = (np.array(_span_table(ax_on_squares(gf, y)), dtype=np.uint16)
                   for y in (one, al, al1))

    def w52(coef):
        return np.uint16(w5_squared_m(gf, coef))

    o1 = (t1 ^ arr) == w52(gf.mul(one, one))
    oa = (ta ^ arr) == w52(gf.mul(al, al))
    order2_pairs = int(o1.sum()) * int(oa.sum())

    c1 = arr[o1][:, None]
    ca = arr[oa][None, :]
    e = (ta[c1] ^ ca) ^ w52(al)
    valid = (ta1[e] ^ e) == w52(gf.mul(al1, al1))
    valid &= (ta[c1] ^ ca) == (t1[ca] ^ c1)
    valid &= (ta1[c1] ^ e ^ w52(al1)) == ca
    valid &= (t1[e] ^ c1 ^ w52(al1)) == ca
    valid &= (ta1[ca] ^ e ^ w52(gf.mul(al, al1))) == c1
    valid &= (ta[e] ^ ca ^ w52(gf.mul(al, al1))) == c1
    lifts = int(valid.sum())
    return report("nonsplit-bruteforce", gf, "exhaustive", n * n, lifts,
                  [{"c1": int(c1[i, 0]), "c_alpha": int(ca[0, j])}
                   for i, j in np.argwhere(valid)[:5].tolist()],
                  order2_pairs=order2_pairs, subgroup_lifts=lifts)


# ----------------------------------------------------------------------
# the main covering theorem
# ----------------------------------------------------------------------

def build_cover() -> dict:
    """The lift component over GF(2) through the base vertex (e1, f1) with
    tag 0, and its verification data.  "vertices" holds the sorted (base,
    tag) labels as an (n, 2) array, "edges" the label pairs i < j as an
    (m, 2) array."""
    gf = field_of_order(2)
    graph = build_affine_graph(gf)
    table = voltage_table(graph)
    comp = component_of(table, _vertex_v0_id(graph))
    keys = lift_keys(gf, comp["vertices"][:, 0], comp["vertices"][:, 1])
    order = np.argsort(keys)
    keys, verts = keys[order], comp["vertices"][order]
    base, tag = verts[:, 0], verts[:, 1].astype(np.uint64)
    # each edge is looked up once, from its end of lower base, in blocks of
    # vertices; labels sort by base first, so that end is i of the edge
    # i < j, and as each row runs in base order the edges come out in
    # (i, j) order
    edges = []
    for i, pos in frontier_blocks(table.indptr, base):
        up_base = table.indices[pos] > base[i]
        i, pos = i[up_base], pos[up_base]
        nt = n_project_packed(gf, tag[i] ^ table.volts[pos])
        j = find_sorted(keys, lift_keys(gf, table.indices[pos], nt))
        edges.append(np.stack([i, j], axis=1))
    return {"graph": graph, "table": table, "component": comp, "vertices": verts,
            "edges": np.concatenate(edges)}


@lru_cache(maxsize=None)
def cover_data() -> dict:
    """The GF(2) cover, built once."""
    return build_cover()


def _write_rows(fh, row_blocks, fmt: str, sep: str = "") -> None:
    """Write blocks of rows of int arrays through fmt, which has one %d per
    column, every row joined to the next by sep."""
    lead = ""
    for rows in row_blocks:
        if len(rows):
            fh.write(lead + (sep.join([fmt] * len(rows)) % tuple(rows.ravel().tolist())))
            lead = sep


def _row_blocks(rows: np.ndarray):
    """The rows of a 2-d array in blocks of at most BULK_BLOCK entries."""
    return (rows[lo:hi] for lo, hi in blocks(len(rows), rows.shape[1]))


def export_cover(path: str, fmt: str = "json") -> None:
    """Write the GF(2) cover with canonical labels (base index, tag bits)
    to the file at path, in the bytes of :func:`_write_cover`."""
    if fmt not in ("json", "edgelist"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        _write_cover(fh, fmt)


def _write_cover(fh, fmt: str) -> None:
    """Write the GF(2) cover to an open text file as an edge list, or as
    the compact JSON document with sorted keys, the bytes that
    json.dumps(doc, sort_keys=True, separators=(",", ":")) gives; the
    label and edge arrays are written straight from the arrays, a block
    at a time."""
    data = cover_data()
    verts, edges = data["vertices"], data["edges"]
    if fmt == "json":
        # the base vertices' tuples encode as JSON arrays
        base = json.dumps(data["graph"].vertices, separators=(",", ":"))
        fh.write(f'{{"base_vertices":{base},"edge_count":{len(edges)},"edges":[')
        _write_rows(fh, _row_blocks(edges), "[%d,%d]", ",")
        fh.write(f'],"field":2,"vertex_count":{len(verts)},"vertices":[')
        _write_rows(fh, _row_blocks(verts), "[%d,%d]", ",")
        fh.write("]}\n")
    else:
        fh.write(f"# cover field=2 vertices={len(verts)} edges={len(edges)}\n")
        _write_rows(fh, _row_blocks(np.column_stack([np.arange(len(verts)), verts])),
                    "v %d %d %d\n")
        _write_rows(fh, _row_blocks(edges), "e %d %d\n")


def load_cover(path: str) -> dict:
    """Read a cover exported as JSON back as lists of (base, tag) and
    (i, j) tuples."""
    # the parse and the tuples make 10^5 containers that hold no cycle,
    # and collector passes over them cost as much as the parse
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            doc = json.load(fh)
        pairs = doc["vertices"], doc["edges"]
        # each parsed pair is replaced by its tuple in place, so the
        # lists and the tuples never coexist
        for rows in pairs:
            if not isinstance(rows, list):
                raise TypeError("not a list")
            for n, (a, b) in enumerate(rows):
                rows[n] = (a, b)
        # every entry an int (bools excluded) from 0, and every edge end a vertex
        for rows, top in ((pairs[0], None), (pairs[1], len(pairs[0]))):
            values = set(chain.from_iterable(rows))
            if values and not (set(map(type, chain.from_iterable(rows))) == {int}
                               and min(values) >= 0 and (top is None or max(values) < top)):
                raise ValueError("entries out of range")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a cover document with vertex and edge pairs") from exc
    finally:
        if collecting:
            gc.enable()
    return {"vertices": pairs[0], "edges": pairs[1]}


def cover_report() -> dict:
    """Verify the GF(2) cover: vertex and edge counts, constant fibers over
    every base vertex, connectivity, and the local isomorphism at every lift
    vertex."""
    data = cover_data()
    table = data["table"]
    edges = data["edges"]
    n, m = len(data["vertices"]), len(edges)
    fiber_sizes = distinct(np.bincount(data["vertices"][:, 0], minlength=table.graph.n)).tolist()
    liso = verify_local_isomorphism(table, data["component"])
    # independent connectivity check on the exported edge list, on int16
    # ids where they fit, so that the stable sorts here and in csr_bfs are
    # radix sorts
    ends = edges.astype(np.int16 if n <= 2 ** 15 else np.int64)
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    dist = csr_bfs(indptr, dst[np.argsort(src, kind="stable")], 0)[0]
    connected = bool((dist >= 0).all())
    # five conditions, a failed one named as a witness
    conditions = {"vertices": n == 7680, "edges": m == 107520, "fiber_sizes": fiber_sizes == [64],
                  "local_isomorphism": liso["passed"], "connected": connected}
    failed = [name for name, ok in conditions.items() if not ok]
    return report("cover", table.gf, "exhaustive", len(conditions), len(failed), failed,
                  vertices=n, edges=m, fiber_sizes=fiber_sizes, local_isomorphism=liso,
                  connected=connected)


def fiber_coset_report(gf: GF, n_vertices: int = 10, n_paths: int = 10,
                       seed: int = 12345) -> dict:
    """Certify the fiber structure over an enumerated reduct graph without
    building the lift: all sampled path voltages from the root to a vertex
    agree modulo the cycle span, so each fiber is a coset of it.

    Each vertex draws one reference path root-m0-target and n_paths paths
    root-m-target compared with it, as the 4-cycle (root, m0, target, m);
    the report counts the comparisons actually made.  Raises ValueError
    when asked for no vertex or no path."""
    rng = _seeded(min(n_vertices, n_paths), seed, "the fiber-coset check")
    graph = build_projective_graph(gf)
    table = voltage_table(graph)
    root = _vertex_v0_id(graph)

    cycles = []
    for _ in range(n_vertices):
        target = rng.randrange(graph.n)
        # the graph has no loops, so no mid is the root or the target
        mids = next(common_neighbor_blocks(graph, np.array([root]), np.array([target])))[1]
        if not mids.size:
            continue
        m0 = mids[rng.randrange(len(mids))]
        cycles += [(root, m0, target, mids[rng.randrange(len(mids))]) for _ in range(n_paths)]
    return report("fiber-cosets", gf, "sample", *_check_table_quadrangles(
        gf, table, [np.array(cycles, dtype=np.int64).reshape(-1, 4)]))


def verify_main_theorem(gf: GF, seed: int = 12345, samples: int = 10 ** 4) -> dict:
    """Composite check of the covering theorem for one field."""
    parts = {"reductive": reductivity_report(gf, samples=samples, seed=seed),
             "triangles": verify_triangles(gf, samples=samples, seed=seed),
             "cycle_span": cycle_span_report(gf, seed=seed)}
    if gf.order == 2:
        parts["cover"] = cover_report()
    elif gf.order == 4:
        parts["fibers"] = fiber_coset_report(gf, seed=seed)
    # samples is the count handed to the parts; a failed part is named
    return report("main-theorem", gf, "exhaustive" if gf.order == 2 else "sample", samples,
                  sum(p["violations"] for p in parts.values()),
                  [name for name, p in parts.items() if not p["passed"]], parts=parts)


# ----------------------------------------------------------------------
# invariance suites
# ----------------------------------------------------------------------

def u_invariance_report(gf: GF, n_sl: int = 100, n_gl: int = 20,
                        seed: int = 12345) -> dict:
    """U is fixed by unimodular matrices and scaled by the determinant in
    general.  Raises ValueError on a negative count or on none at all."""
    if min(n_sl, n_gl) < 0 or n_sl + n_gl == 0:
        raise ValueError("u-invariance needs at least one matrix")
    rng = random.Random(seed)
    u = big_u(gf)

    def witness(act, want):
        image = act.on_sym(u)
        return None if image == want else {"matrix": act.m, "image": image}

    def results():
        # n_sl random SL4 matrices must fix U, then n_gl random GL4 matrices
        # must scale it by their determinant
        for _ in range(n_sl):
            yield witness(action(gf, random_sl4(gf, rng)), u)
        for _ in range(n_gl):
            act = action(gf, random_gl4(gf, rng))
            yield witness(act, sym_scale(gf, act.det, u))

    return report("u-invariance", gf, "sample", *tally(results()))


def reductivity_report(gf: GF, samples: int = 10 ** 5, seed: int = 12345) -> dict:
    if gf.order == 2:
        return check_reductive(gf, partial(dart_voltage, gf),
                               graph=build_affine_graph(gf))
    return check_reductive(gf, partial(dart_voltage, gf),
                           samples=samples, rng=random.Random(seed))


def equivariance_report(gf: GF, n_matrices: int = 20, samples: int = 10 ** 4,
                        seed: int = 12345) -> dict:
    """SL4-equivariance of the voltages: over GF(2) exhaustive on the dart
    table for 100 matrices, above it on samples darts per matrix for
    n_matrices matrices.  Raises ValueError when n_matrices < 1 in every
    field, as there would be no matrix to check."""
    if n_matrices < 1:
        raise ValueError("equivariance needs at least one matrix")
    rng = random.Random(seed)
    if gf.order == 2:
        actions = [action(gf, random_sl4(gf, rng)) for _ in range(100)]
        return check_equivariance(gf, None, actions, table=voltage_table(build_affine_graph(gf)))
    actions = [action(gf, random_sl4(gf, rng)) for _ in range(n_matrices)]
    return check_equivariance(gf, partial(dart_voltage, gf), actions,
                              samples=samples * n_matrices, rng=rng)


def phi_table_report(gf: GF) -> dict:
    """The six explicit duality identities, and the 36 basis pairings
    B(f_s, w_u) == (phi(f_s) ^ w_u)^chi.  phi reverses the slots and both
    pairings are bilinear, so agreement on the basis is agreement
    everywhere."""
    dual, chi = _dual_pairing_table(gf), _chi_pairing_table(gf)

    def results():
        # (f3^f4, f2^f4, f2^f3, f1^f4, f1^f3, f1^f2) -> (w1, ..., w6)
        for slot, (i, j) in enumerate(((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))):
            image = phi(wedge_covectors(gf, E4[i], E4[j]))
            a, b = BIV_PAIRS[slot]
            yield None if image == wedge(gf, E4[a], E4[b]) \
                else {"identity": slot, "covectors": (i, j), "image": image}
        for s in range(6):
            for u in range(6):
                yield None if dual[s][u] == chi[5 - s][u] \
                    else {"pair": (s, u), "dual": dual[s][u], "chi": chi[5 - s][u]}

    return report("phi-table", gf, "exhaustive", *tally(results()))


def diameter_report(gf: GF) -> dict:
    graph = build_projective_graph(gf)
    d = diameter(graph)
    return report("diameter", gf, "exhaustive", graph.n, 0 if d == 2 else 1, [], diameter=d)


def dart_lambda_report(gf: GF) -> dict:
    """The dart voltage between the two distinguished vertices and the
    path-based lambda value, for every element of the order-4 family."""
    if gf.order <= 2:
        return _not_applicable("dart-lambda", gf, "exhaustive")
    w2w5 = sym_mul(gf, wedge(gf, E4[0], E4[2]), wedge(gf, E4[1], E4[3]))
    u = vertex_u(gf)

    def results():
        # per x: both darts between u and v_x, then lambda(x)
        for x in order4_subgroup(gf):
            vx = vertex_vx(gf, x)
            want = sym_add(w2w5, w4w5(gf, x))
            volt = dart_voltage(gf, u, vx)
            yield None if volt == want and dart_voltage(gf, vx, u) == want \
                else {"x": x, "quantity": "dart", "voltage": volt}
            volt = lambda_ax(gf, x)
            yield None if volt == w4w5(gf, x) else {"x": x, "quantity": "lambda", "voltage": volt}

    return report("dart-lambda", gf, "exhaustive", *tally(results()))


def cocycle_report(gf: GF) -> dict:
    """The cocycle equals x y w5^2 on every pair of the order-4 family, and
    is symmetric with trivial first row."""
    if gf.order <= 2:
        return _not_applicable("cocycle", gf, "exhaustive")
    fam = order4_subgroup(gf)
    vals = {(x, y): cocycle_f(gf, x, y) for x in fam for y in fam}

    def results():
        # one item per pair: the value, symmetry, and the trivial first row
        # and column
        for (x, y), f in vals.items():
            ok = (f == w5_squared(gf, gf.mul(x, y)) and f == vals[(y, x)]
                  and (f == ZERO21 or (x != 0 and y != 0)))
            yield None if ok else {"x": x, "y": y, "cocycle": f}

    return report("cocycle", gf, "exhaustive", *tally(results()))


def order2_report(gf: GF) -> dict:
    """Order-2 solution spaces for every nonzero element of the family."""
    if gf.order <= 2:
        return _not_applicable("order2-space", gf, "exhaustive")
    parts = [order2_solution_space(gf, x) for x in order4_subgroup(gf)[1:]]
    # one item per part, a failed part witnessed by its x and failed conditions
    return report("order2-space", gf, "exhaustive", *tally(
        None if p["passed"] else {"x": p["x"], "failed": p["witnesses"]} for p in parts),
        parts=parts)
