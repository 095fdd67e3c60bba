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
"""

from __future__ import annotations

import json
import random
import re
from itertools import chain

import numpy as np

from .field import GF, field_of_order
from .graphs import (
    Graph,
    build_affine_graph,
    build_projective_graph,
    csr_distances,
    frontier_darts,
    normalize,
    proj_points,
    sample_closed_walk,
    sample_pentagon,
    sample_quadrangle,
    sample_triangle,
)
from .linalg import E4, evaluate, f2_matrix_from_map, solve_affine_f2, vec_add
from .multilinear import (
    BIV_PAIRS,
    DIAG_SLOTS,
    SYM_SLOT,
    action,
    big_u,
    in_w2,
    in_w2_plus_u,
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
)
from .voltage import (
    CapExceeded,
    DartTable,
    F2Span,
    check_reductive,
    component_of,
    find_pairs,
    fundamental_cycle_span,
    pair_arrays,
    path_voltage,
    verify_local_isomorphism,
)

# ----------------------------------------------------------------------
# the voltage assignment
# ----------------------------------------------------------------------

def dart_voltage(gf: GF, a, b):
    """Voltage in S2(W) of the dart from vertex a to vertex b."""
    mul = gf.mul_rows
    va, ha = a
    vb, hb = b
    a0, a1, a2, a3 = mul[ha[0]], mul[ha[1]], mul[ha[2]], mul[ha[3]]
    b0, b1, b2, b3 = mul[hb[0]], mul[hb[1]], mul[hb[2]], mul[hb[3]]
    sa = a0[va[0]] ^ a1[va[1]] ^ a2[va[2]] ^ a3[va[3]]
    sb = b0[vb[0]] ^ b1[vb[1]] ^ b2[vb[2]] ^ b3[vb[3]]
    if sa == 0 or sb == 0:
        raise ValueError("inputs are not vertices (functional vanishes on its vector)")
    if (a0[vb[0]] ^ a1[vb[1]] ^ a2[vb[2]] ^ a3[vb[3]]
            or b0[va[0]] ^ b1[va[1]] ^ b2[va[2]] ^ b3[va[3]]):
        raise ValueError("vertices are not adjacent")
    # the scale (sa sb)^-1 is folded into the 6 bivector slots, not the 21
    # slots of the product: the symmetric product is bilinear
    by_scale = mul[mul[gf.inverses[sa]][gf.inverses[sb]]]
    w = [by_scale[x] for x in wedge(gf, va, vb)]
    return sym_mul(gf, w, phi(wedge_covectors(gf, ha, hb)))


def dart_voltage_packed(gf: GF, a, b) -> int:
    return pack_sym(gf, dart_voltage(gf, a, b))


# darts per block of bulk_dart_voltage, which bounds its temporaries
BULK_BLOCK = 1 << 16


def _chunk_product_tables(gf: GF):
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
    return tables


def bulk_dart_voltage(gf: GF, va, ha, vb, hb) -> np.ndarray:
    """Vectorised dart voltages for coordinate stacks, packed into uint64.

    Assumes the rows describe valid adjacent vertex pairs.  Only valid
    for k <= 3 (21k packed bits must fit into 64).  The darts run in
    blocks of BULK_BLOCK; a product a*b is read from the flat
    multiplication table at (a << k) | b, the scale is folded into the
    vector of the first endpoint, and the 21 slots of the symmetric
    product come from the four chunk-pair tables."""
    if gf.k > 3:
        raise ValueError("packed bulk voltages support k <= 3 only")
    k = gf.k
    t = gf.mul_table.ravel().astype(np.intp)
    inv = gf.inv_table.astype(np.intp)
    t00, t01, t10, t11 = _chunk_product_tables(gf)
    out = np.empty(len(va), dtype=np.uint64)
    for lo in range(0, len(va), BULK_BLOCK):
        hi = lo + BULK_BLOCK
        va_, ha_, vb_, hb_ = (np.ascontiguousarray(m[lo:hi].T, dtype=np.intp)
                              for m in (va, ha, vb, hb))
        ha_ <<= k
        sa = t[ha_[0] | va_[0]] ^ t[ha_[1] | va_[1]] ^ t[ha_[2] | va_[2]] ^ t[ha_[3] | va_[3]]
        sb = t[(hb_[0] << k) | vb_[0]] ^ t[(hb_[1] << k) | vb_[1]] \
            ^ t[(hb_[2] << k) | vb_[2]] ^ t[(hb_[3] << k) | vb_[3]]
        scale = inv[t[(sa << k) | sb]] << k
        sva = [t[scale | x] << k for x in va_]
        w = [t[sva[x] | vb_[y]] ^ t[sva[y] | vb_[x]] for x, y in BIV_PAIRS]
        d = [t[ha_[x] | hb_[y]] ^ t[ha_[y] | hb_[x]] for x, y in BIV_PAIRS]
        # phi is slot reversal: the chunks of phi(d) are d6 d5 d4 and d3 d2 d1
        w1 = ((w[0] << (2 * k)) | (w[1] << k) | w[2]) << (3 * k)
        w2 = ((w[3] << (2 * k)) | (w[4] << k) | w[5]) << (3 * k)
        p1 = (d[5] << (2 * k)) | (d[4] << k) | d[3]
        p2 = (d[2] << (2 * k)) | (d[1] << k) | d[0]
        out[lo:hi] = t00[w1 | p1] ^ t01[w1 | p2] ^ t10[w2 | p1] ^ t11[w2 | p2]
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
            table = DartTable.from_bulk(
                graph, lambda va, ha, vb, hb: bulk_dart_voltage(gf, va, ha, vb, hb))
        else:
            table = DartTable.from_scalar(
                graph, lambda a, b: dart_voltage_packed(gf, a, b))
        graph._dart_table = table
    return table


# ----------------------------------------------------------------------
# canonical vertices and the transvection family
# ----------------------------------------------------------------------

def vertex_v0(gf: GF):
    return ((1, 0, 0, 0), (1, 0, 0, 0))


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


def ax_action_table(gf: GF, x: int):
    """Images of the six basis bivectors under A_x."""
    act = action(gf, ax_matrix(gf, x))
    return act.w_rows


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
        return (0,) * 21
    vx, u, v0 = vertex_vx(gf, x), vertex_u(gf), vertex_v0(gf)
    return path_voltage(gf, lambda a, b: dart_voltage(gf, a, b), (vx, u, v0))


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

def _report(check, gf, mode, samples, violations, witnesses, **extra):
    rep = {
        "check": check,
        "field": gf.order,
        "mode": mode,
        "samples": samples,
        "violations": violations,
        "witnesses": witnesses[:5],
        "passed": violations == 0,
    }
    rep.update(extra)
    return rep


def _common_neighbors(graph: Graph, i: int, j: int) -> np.ndarray:
    rows = graph.packed_rows()
    both = np.unpackbits(rows[i] & rows[j])[: graph.n]
    return np.nonzero(both)[0]


def verify_triangles(gf: GF, mode: str = "auto", samples: int = 10 ** 5,
                     seed: int = 12345) -> dict:
    """Every triangle voltage equals U, exhaustively on the enumerated affine
    graph for GF(2) and on sampled triangles for larger fields."""
    if mode == "auto":
        mode = "exhaustive" if gf.order == 2 else "sample"
    if mode == "exhaustive" and gf.order != 2:
        raise ValueError("exhaustive triangle enumeration is only feasible over GF(2)")
    u_pack = u_packed(gf)
    violations = 0
    witnesses = []
    checked = 0
    if mode == "exhaustive":
        graph = build_affine_graph(gf)
        table = voltage_table(graph)
        for i in range(graph.n):
            for j in graph.neighbors(i):
                j = int(j)
                if j < i:
                    continue
                for w in _common_neighbors(graph, i, j):
                    w = int(w)
                    if w < j:
                        continue
                    checked += 1
                    volt = table.dart(i, j) ^ table.dart(j, w) ^ table.dart(w, i)
                    if volt != u_pack:
                        violations += 1
                        witnesses.append({"triangle": (i, j, w), "voltage": volt})
    else:
        rng = random.Random(seed)
        u_tuple = big_u(gf)
        for _ in range(samples):
            tri = sample_triangle(gf, rng)
            checked += 1
            volt = path_voltage(gf, lambda a, b: dart_voltage(gf, a, b),
                                tri + (tri[0],))
            if volt != u_tuple:
                violations += 1
                witnesses.append({"triangle": tri, "voltage": volt})
    return _report("triangles", gf, mode, checked, violations, witnesses)


def verify_quadrangles(gf: GF, mode: str = "auto", samples: int = 10 ** 5,
                       seed: int = 12345) -> dict:
    """Every 4-cycle voltage lies in the span of the squares plus U."""
    if mode == "auto":
        mode = "exhaustive" if gf.order == 2 else "sample"
    if mode == "exhaustive" and gf.order != 2:
        raise ValueError("exhaustive 4-cycle enumeration is only feasible over GF(2)")
    violations = 0
    witnesses = []
    checked = 0
    if mode == "exhaustive":
        graph = build_affine_graph(gf)
        table = voltage_table(graph)
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                common = _common_neighbors(graph, i, j)
                for p in range(len(common)):
                    for q in range(p + 1, len(common)):
                        a, b = int(common[p]), int(common[q])
                        checked += 1
                        volt = (table.dart(i, a) ^ table.dart(a, j)
                                ^ table.dart(j, b) ^ table.dart(b, i))
                        if not packed_in_w2_plus_u(gf, volt):
                            violations += 1
                            witnesses.append({"cycle": (i, a, j, b), "voltage": volt})
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            cyc = sample_quadrangle(gf, rng)
            checked += 1
            volt = path_voltage(gf, lambda a, b: dart_voltage(gf, a, b),
                                cyc + (cyc[0],))
            if not in_w2_plus_u(gf, volt):
                violations += 1
                witnesses.append({"cycle": cyc, "voltage": volt})
    return _report("quadrangles", gf, mode, checked, violations, witnesses)


def verify_pentagons(gf: GF, samples: int = 10 ** 5, seed: int = 12345) -> dict:
    """Every sampled 5-cycle voltage lies in the span of the squares plus U."""
    rng = random.Random(seed)
    violations = 0
    witnesses = []
    for _ in range(samples):
        cyc = sample_pentagon(gf, rng)
        volt = path_voltage(gf, lambda a, b: dart_voltage(gf, a, b),
                            cyc + (cyc[0],))
        if not in_w2_plus_u(gf, volt):
            violations += 1
            witnesses.append({"cycle": cyc, "voltage": volt})
    return _report("pentagons", gf, "sample", samples, violations, witnesses)


def verify_long_cycles(gf: GF, lengths=(6, 7, 8), samples: int = 2000,
                       seed: int = 12345) -> dict:
    """Sampled closed walks of the given lengths stay in the same span."""
    rng = random.Random(seed)
    violations = 0
    witnesses = []
    checked = 0
    for length in lengths:
        for _ in range(samples):
            walk = sample_closed_walk(gf, length, rng)
            checked += 1
            volt = path_voltage(gf, lambda a, b: dart_voltage(gf, a, b),
                                walk + (walk[0],))
            if not in_w2_plus_u(gf, volt):
                violations += 1
                witnesses.append({"walk": walk, "voltage": volt})
    return _report("long-cycles", gf, "sample", checked, violations, witnesses,
                   lengths=list(lengths))


# ----------------------------------------------------------------------
# the explicit square-generating quadrangles
# ----------------------------------------------------------------------

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
    and the F2 span (dimension 6k, equal to the full space of squares)."""
    violations = 0
    witnesses = []
    span = F2Span()
    for item in w2_generator_cycles(gf):
        cyc = item["cycle"]
        volt = path_voltage(gf, lambda a, b: dart_voltage(gf, a, b), cyc + (cyc[0],))
        if volt != item["expected"]:
            violations += 1
            witnesses.append(item)
        span.add(pack_sym(gf, volt))
    full = F2Span()
    for slot in range(6):
        unit = tuple(1 if t == slot else 0 for t in range(6))
        for bit in range(gf.k):
            full.add(pack_sym(gf, sym_scale(gf, 1 << bit, square(gf, unit))))
    spans_match = span.dim == full.dim == 6 * gf.k and all(
        span.contains(row) for row in full.pivots.values()
    )
    # every nonzero lam gives the predicted voltage too
    for lam in gf.nonzero():
        item = w2_generator_cycles(gf, lambdas=[lam])[0]
        volt = path_voltage(gf, lambda a, b: dart_voltage(gf, a, b),
                            item["cycle"] + (item["cycle"][0],))
        if volt != item["expected"]:
            violations += 1
            witnesses.append(item)
    return _report("square-generators", gf, "exhaustive",
                   6 * gf.k + gf.order - 1, violations, witnesses,
                   span_dim=span.dim, expected_dim=6 * gf.k,
                   spans_squares=spans_match)


# ----------------------------------------------------------------------
# cycle-voltage span of the reduct graph
# ----------------------------------------------------------------------

def _rational_subgraph_with_twists(gf: GF) -> Graph:
    """A small canonical connected subgraph of the reduct graph: all vertices
    with 0/1 coordinates plus, for every square pattern, the extra vertex of
    each twisted generator quadrangle.  Used where the full graph has too
    many edges to enumerate."""
    pts = [p for p in proj_points(gf) if all(c <= 1 for c in p)]
    verts = []
    for p in pts:
        for h in pts:
            if evaluate(gf, h, p) != 0:
                verts.append((p, h))
    seen = set(verts)
    for a, b, c, d in _square_patterns():
        for bit in range(1, gf.k):
            lam = 1 << bit
            v3 = tuple(E4[c][i] ^ gf.mul(lam, E4[b][i]) for i in range(4))
            vert = (normalize(gf, v3), E4[c])
            if vert not in seen:
                seen.add(vert)
                verts.append(vert)
    return Graph(gf, verts, "projective", cache=True)


def cycle_span_report(gf: GF, seed: int = 12345, walk_samples: int = 2000) -> dict:
    """Span of the fundamental-cycle voltages of the reduct graph, modulo U.

    For GF(2) and GF(4) the span runs over every non-tree edge of the full
    projective graph.  For GF(8) the full graph has ~7e8 edges, so the span
    is computed on the canonical connected subgraph carrying the generator
    quadrangles, and the containment of general cycle voltages is sampled
    on random closed walks of the full graph instead.
    """
    if gf.k <= 2:
        graph = build_projective_graph(gf)
        mode = "exhaustive"
    else:
        graph = _rational_subgraph_with_twists(gf)
        mode = "subgraph+sampled"
    table = voltage_table(graph)
    res = fundamental_cycle_span(table, 0, member_fn=lambda x: packed_in_w2_plus_u(gf, x))
    span = res["span"]
    contains_u = span.contains(u_packed(gf))
    span.add(u_packed(gf))
    dim_mod_u = span.dim - 1
    missing = 0
    for slot in range(6):
        unit = tuple(1 if t == slot else 0 for t in range(6))
        for bit in range(gf.k):
            if not span.contains(pack_sym(gf, sym_scale(gf, 1 << bit, square(gf, unit)))):
                missing += 1
    sampled_violations = 0
    if mode != "exhaustive" and walk_samples:
        rng = random.Random(seed)
        for _ in range(walk_samples):
            length = rng.choice((4, 5, 6, 7, 8))
            walk = sample_closed_walk(gf, length, rng)
            volt = path_voltage(gf, lambda a, b: dart_voltage(gf, a, b),
                                walk + (walk[0],))
            if not in_w2_plus_u(gf, volt):
                sampled_violations += 1
    dim_ok = dim_mod_u == 6 * gf.k
    violations = (res["violations"] + missing + sampled_violations
                  + (0 if dim_ok and contains_u else 1))
    return _report("cycle-span", gf, mode, res["nontree_edges"], violations,
                   res["witnesses"],
                   dim_mod_u=dim_mod_u, expected_dim=6 * gf.k,
                   contains_u=contains_u,
                   squares_contained=missing == 0,
                   fundamental_in_w2u=res["violations"] == 0,
                   sampled_walks=walk_samples if mode != "exhaustive" else 0,
                   dim_ok=dim_ok)


# ----------------------------------------------------------------------
# order-2 condition and the splitting system
# ----------------------------------------------------------------------

def _m_bits(gf: GF, m6) -> np.ndarray:
    bits = np.zeros(6 * gf.k, dtype=np.uint8)
    for i, c in enumerate(m6):
        for b in range(gf.k):
            bits[i * gf.k + b] = (c >> b) & 1
    return bits


def _bits_m(gf: GF, bits) -> tuple:
    out = []
    for i in range(6):
        c = 0
        for b in range(gf.k):
            c |= int(bits[i * gf.k + b]) << b
        out.append(c)
    return tuple(out)


def m_to_sym(gf: GF, m6):
    """The diagonal symmetric tensor sum_i m_i * w_i^2."""
    out = [0] * 21
    for i, c in enumerate(m6):
        unit = tuple(1 if t == i else 0 for t in range(6))
        if c:
            out = [a ^ b for a, b in zip(out, sym_scale(gf, c, square(gf, unit)))]
    return tuple(out)


def sym_to_m(gf: GF, s) -> tuple:
    """Diagonal coordinates of a tensor in the span of squares."""
    if not in_w2(gf, s):
        raise ValueError("tensor has off-diagonal support")
    return tuple(s[t] for t in DIAG_SLOTS)


def ax_on_m(gf: GF, x: int):
    """The action of A_x on the span of squares, in diagonal coordinates."""
    act = action(gf, ax_matrix(gf, x))

    def apply(m6):
        return sym_to_m(gf, act.on_sym(m_to_sym(gf, m6)))

    return apply


def s_generators(gf: GF):
    """Field-span generators of the invariant subspace S, in diagonal
    coordinates: w1^2, w3^2 + w4^2, w5^2, w6^2."""
    return ((1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))


def _pack_m(gf: GF, m6) -> int:
    acc = 0
    for i, c in enumerate(m6):
        acc |= c << (i * gf.k)
    return acc


def order2_solution_space(gf: GF, x: int) -> dict:
    """Solve m^(A_x) + m = x^2 w5^2 over the span of squares and compare the
    solution set with w3^2 + S."""
    if x == 0:
        raise ValueError("x must be nonzero")
    apply_ax = ax_on_m(gf, x)
    nbits = 6 * gf.k

    def cond(bits):
        m6 = _bits_m(gf, bits)
        img = apply_ax(m6)
        return _m_bits(gf, tuple(a ^ b for a, b in zip(img, m6)))

    a_mat = f2_matrix_from_map(cond, nbits, nbits)
    x2 = gf.mul(x, x)
    rhs = _m_bits(gf, (0, 0, 0, 0, x2, 0))
    x0, kernel_basis, cert = solve_affine_f2(a_mat, rhs)
    if cert is not None:
        return {"check": "order2-space", "field": gf.order, "x": x,
                "passed": False, "inconsistent": True}

    sol_span = F2Span()
    for v in kernel_basis:
        sol_span.add(_pack_m(gf, _bits_m(gf, v)))
    s_span = F2Span()
    for g in s_generators(gf):
        for bit in range(gf.k):
            s_span.add(_pack_m(gf, tuple(gf.mul(1 << bit, c) for c in g)))

    w3sq = (0, 0, 1, 0, 0, 0)
    kernel_eq_s = (
        sol_span.dim == s_span.dim == 4 * gf.k
        and all(s_span.contains(r) for r in sol_span.pivots.values())
    )
    particular = _bits_m(gf, x0)
    shift_in_s = s_span.contains(_pack_m(gf, tuple(a ^ b for a, b in zip(particular, w3sq))))
    w3_not_in_s = not s_span.contains(_pack_m(gf, w3sq))
    invariant = True
    for y in order4_subgroup(gf):
        act_y = ax_on_m(gf, y) if y else (lambda m: m)
        for g in s_generators(gf):
            if not s_span.contains(_pack_m(gf, act_y(g))):
                invariant = False
    passed = kernel_eq_s and shift_in_s and w3_not_in_s and invariant
    return {"check": "order2-space", "field": gf.order, "x": x,
            "solution_dim": sol_span.dim, "expected_dim": 4 * gf.k,
            "matches_w3_plus_s": kernel_eq_s and shift_in_s,
            "w3_outside_s": w3_not_in_s, "s_invariant": invariant,
            "violations": 0 if passed else 1, "passed": passed}


def splitting_system(gf: GF, alpha: int | None = None):
    """F2-affine system expressing that c(1), c(alpha) extend to a subgroup
    lift of the transvection family: order-2 conditions for all three
    nonzero elements plus every cross product relation.

    Returns (A, b) with the conventions of solve_affine_f2.
    """
    if alpha is None:
        alpha = alpha_element(gf)
    _, one, al, al1 = order4_subgroup(gf, alpha)
    t1 = ax_on_m(gf, one)
    ta = ax_on_m(gf, al)
    ta1 = ax_on_m(gf, al1)
    k = gf.k
    nbits = 12 * k

    def w52(coef):
        return (0, 0, 0, 0, coef, 0)

    def madd(*ms):
        out = (0,) * 6
        for m in ms:
            out = tuple(a ^ b for a, b in zip(out, m))
        return out

    def conditions(zbits):
        c1 = _bits_m(gf, zbits[: 6 * k])
        ca = _bits_m(gf, zbits[6 * k:])
        e = madd(w52(al), ta(c1), ca)
        rows = [
            madd(t1(c1), c1, w52(gf.mul(one, one))),          # [1,c1]^2 = 1
            madd(ta(ca), ca, w52(gf.mul(al, al))),            # [al,ca]^2 = 1
            madd(ta1(e), e, w52(gf.mul(al1, al1))),           # [al+1,e]^2 = 1
            madd(ta(c1), ca, t1(ca), c1),                     # both product orders agree
            madd(w52(al1), ta1(c1), e, ca),                   # [1,c1][al+1,e] = [al,ca]
            madd(w52(al1), t1(e), c1, ca),                    # [al+1,e][1,c1] = [al,ca]
            madd(w52(gf.mul(al, al1)), ta1(ca), e, c1),       # [al,ca][al+1,e] = [1,c1]
            madd(w52(gf.mul(al, al1)), ta(e), ca, c1),        # [al+1,e][al,ca] = [1,c1]
        ]
        return np.concatenate([_m_bits(gf, r) for r in rows])

    zero_bits = np.zeros(nbits, dtype=np.uint8)
    const = conditions(zero_bits)

    def linear(zbits):
        return conditions(zbits) ^ const

    a_mat = f2_matrix_from_map(linear, nbits, const.size)
    return a_mat, const


def nonsplit_check(gf: GF, alpha: int | None = None) -> dict:
    """Build the splitting system and certify its inconsistency."""
    if gf.order <= 2:
        return {"check": "nonsplit", "field": gf.order, "mode": "linear",
                "status": "not-applicable",
                "reason": "no element outside the prime field",
                "violations": 0, "passed": True}
    a_mat, b = splitting_system(gf, alpha)
    x0, kern, cert = solve_affine_f2(a_mat, b)
    if cert is None:
        return {"check": "nonsplit", "field": gf.order, "mode": "linear",
                "status": "split-found", "violations": 1, "passed": False,
                "witness_solution": [int(v) for v in x0]}
    cert_ok = (not (cert @ a_mat % 2).any()) and int(cert @ b % 2) == 1
    return {"check": "nonsplit", "field": gf.order, "mode": "linear",
            "status": "inconsistent", "violations": 0 if cert_ok else 1,
            "passed": cert_ok,
            "certificate": [int(i) for i in np.nonzero(cert)[0]]}


def brute_force_splitting_gf4() -> dict:
    """Independent oracle over GF(4): enumerate all 4096^2 candidate pairs
    (c(1), c(alpha)) and count those defining a subgroup lift."""
    gf = field_of_order(4)
    _, one, al, al1 = order4_subgroup(gf)
    n = 4096
    arr = np.arange(n, dtype=np.uint16)

    def table_of(x):
        apply_ax = ax_on_m(gf, x)
        imgs = []
        for bit in range(12):
            m6 = _bits_m(gf, [(bit == t) for t in range(12)])
            imgs.append(_pack_m(gf, apply_ax(m6)))
        t = np.zeros(n, dtype=np.uint16)
        for bit in range(12):
            mask = ((arr >> bit) & 1).astype(bool)
            t[mask] ^= np.uint16(imgs[bit])
        return t

    t1, ta, ta1 = table_of(one), table_of(al), table_of(al1)

    def w52(coef):
        return np.uint16(_pack_m(gf, (0, 0, 0, 0, coef, 0)))

    o1 = (t1 ^ arr) == w52(gf.mul(one, one))
    oa = (ta ^ arr) == w52(gf.mul(al, al))
    order2_pairs = int(o1.sum()) * int(oa.sum())

    c1 = arr[:, None]
    ca = arr[None, :]
    e = (ta[arr][:, None] ^ ca) ^ w52(al)
    valid = o1[:, None] & oa[None, :]
    valid &= (ta1[e] ^ e) == w52(gf.mul(al1, al1))
    valid &= (ta[arr][:, None] ^ ca) == (t1[arr][None, :] ^ c1)
    valid &= (ta1[arr][:, None] ^ e ^ w52(al1)) == ca
    valid &= (t1[e] ^ c1 ^ w52(al1)) == ca
    valid &= (ta1[arr][None, :] ^ e ^ w52(gf.mul(al, al1))) == c1
    valid &= (ta[e] ^ ca ^ w52(gf.mul(al, al1))) == c1
    lifts = int(valid.sum())
    return {"check": "nonsplit-bruteforce", "field": 4, "mode": "exhaustive",
            "samples": n * n, "order2_pairs": order2_pairs,
            "violations": lifts, "subgroup_lifts": lifts, "passed": lifts == 0}


# ----------------------------------------------------------------------
# the main covering theorem
# ----------------------------------------------------------------------

def build_cover(cap: int = 10 ** 7) -> dict:
    """The lift component over GF(2) through the base vertex (e1, f1) with
    tag 0, with its edge list and verification data."""
    gf = field_of_order(2)
    graph = build_affine_graph(gf)
    table = voltage_table(graph)
    root = graph.index[vertex_v0(gf)]
    comp = component_of(table, root, cap=cap)
    verts = comp["vertices"]
    base, tag = pair_arrays(verts)
    order = np.lexsort((tag, base))
    base, tag = base[order], tag[order]
    # the lift neighbour of each sorted vertex over each base neighbour
    i, pos = frontier_darts(table.indptr, base)
    nt = tag[i] ^ table.volts[pos]
    up = np.uint64(u_packed(gf))
    j = find_pairs(base, tag, table.indices[pos], np.minimum(nt, nt ^ up))
    # labels sort by base first and each row runs in base order, so the
    # edges i < j come out in (i, j) order
    keep = i < j
    labels = list(range(len(verts)))  # one int object per label, shared by the edges
    return {
        "graph": graph,
        "table": table,
        "component": comp,
        "vertices": [verts[k] for k in order.tolist()],
        "edges": list(zip(map(labels.__getitem__, i[keep].tolist()),
                          map(labels.__getitem__, j[keep].tolist()))),
    }


_cover_cache: list = []


def cover_data(cap: int = 10 ** 7) -> dict:
    """The GF(2) cover, built once; raises CapExceeded when it has more than
    cap vertices, whether it was just built or cached by an earlier call."""
    if not _cover_cache:
        _cover_cache.append(build_cover(cap))
    data = _cover_cache[0]
    if len(data["vertices"]) > cap:
        raise CapExceeded(f"the cover has {len(data['vertices'])} vertices,"
                          f" more than the cap of {cap}")
    return data


def export_cover(path: str, fmt: str = "json", cap: int = 10 ** 7) -> None:
    """Write the GF(2) cover with canonical labels (base index, tag bits)."""
    data = cover_data(cap)
    graph = data["graph"]
    if fmt == "json":
        doc = {
            "field": 2,
            "vertex_count": len(data["vertices"]),
            "edge_count": len(data["edges"]),
            # tuples encode as JSON arrays
            "base_vertices": graph.vertices,
            "vertices": data["vertices"],
            "edges": data["edges"],
        }
        # json.dumps runs the C encoder; json.dump would stream through the
        # pure-Python one
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "edgelist":
        text = "".join([
            f"# cover field=2 vertices={len(data['vertices'])} edges={len(data['edges'])}\n",
            *[f"v {i} {b} {t}\n" for i, (b, t) in enumerate(data["vertices"])],
            *[f"e {i} {j}\n" for i, j in data["edges"]],
        ])
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


def load_cover(path: str, fmt: str = "json") -> dict:
    if fmt == "json":
        with open(path) as fh:
            doc = json.load(fh)
        return {
            "vertices": [(b, t) for b, t in doc["vertices"]],
            "edges": [(i, j) for i, j in doc["edges"]],
        }
    if fmt == "edgelist":
        with open(path) as fh:
            words = re.sub(r"(?m)^#.*$", "", fh.read()).split()
        # "v i base tag" records, then "e i j" records
        nv = 4 * words.count("v")
        vs, es = words[:nv], words[nv:]
        if len(vs) < nv or set(vs[::4]) - {"v"} or set(es[::3]) - {"e"} or len(es) % 3:
            raise ValueError(f"{path}: not a cover edge list")
        b, t, i, j = (np.array(x, dtype=np.uint64).tolist()
                      for x in (vs[2::4], vs[3::4], es[1::3], es[2::3]))
        return {"vertices": list(zip(b, t)), "edges": list(zip(i, j))}
    raise ValueError(f"unknown format {fmt!r}")


def cover_report() -> dict:
    """Verify the GF(2) cover: vertex and edge counts, constant fibers,
    connectivity, and the local isomorphism at every lift vertex."""
    data = cover_data()
    comp = data["component"]
    fibers = comp["fiber_sizes"]
    table = data["table"]
    n = len(data["vertices"])
    m = len(data["edges"])
    liso = verify_local_isomorphism(table, comp, mode="direct")
    # independent connectivity check on the exported edge list
    ends = np.fromiter(chain.from_iterable(data["edges"]), dtype=np.int64, count=2 * m).reshape(-1, 2)
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    dist = csr_distances(indptr, dst[np.argsort(src, kind="stable")], 0)
    connected = bool((dist >= 0).all())
    passed = (
        n == 7680 and m == 107520
        and set(fibers.values()) == {64}
        and len(fibers) == table.graph.n
        and liso["passed"] and connected
    )
    return {"check": "cover", "field": 2, "mode": "exhaustive",
            "vertices": n, "edges": m,
            "fiber_sizes": sorted(set(fibers.values())),
            "local_isomorphism": liso, "connected": connected,
            "violations": 0 if passed else 1, "passed": passed}


def fiber_coset_report(gf: GF, n_vertices: int = 10, n_paths: int = 10,
                       seed: int = 12345) -> dict:
    """Certify the fiber structure over an enumerated reduct graph without
    building the lift: all sampled path voltages from the root to a vertex
    agree modulo the cycle span, so each fiber is a coset of it.

    Each vertex draws one reference path and n_paths paths compared with
    it; the report counts the comparisons actually made."""
    graph = build_projective_graph(gf)
    table = voltage_table(graph)
    rng = random.Random(seed)
    root = graph.index[vertex_v0(gf)]
    violations = 0
    compared = 0
    for _ in range(n_vertices):
        target = rng.randrange(graph.n)
        mids = _common_neighbors(graph, root, target)
        if mids.size == 0:
            continue
        # the graph has no loops, so no mid is the root or the target
        volts = []
        for _ in range(n_paths + 1):
            mid = int(mids[rng.randrange(mids.size)])
            volts.append(table.dart(root, mid) ^ table.dart(mid, target))
        for v in volts[1:]:
            compared += 1
            if not packed_in_w2_plus_u(gf, v ^ volts[0]):
                violations += 1
    return _report("fiber-cosets", gf, "sample", compared, violations, [])


def verify_main_theorem(gf: GF, seed: int = 12345, samples: int = 10 ** 4) -> dict:
    """Composite check of the covering theorem for one field."""
    rng = random.Random(seed)
    if gf.order == 2:
        reductive = check_reductive(gf, lambda a, b: dart_voltage(gf, a, b),
                                    "exhaustive")
        triangles = verify_triangles(gf, "exhaustive")
    else:
        reductive = check_reductive(gf, lambda a, b: dart_voltage(gf, a, b),
                                    "sample", samples=samples, rng=rng)
        triangles = verify_triangles(gf, "sample", samples=samples, seed=seed)
    span = cycle_span_report(gf, seed=seed)
    parts = {"reductive": reductive, "triangles": triangles, "cycle_span": span}
    if gf.order == 2:
        parts["cover"] = cover_report()
    elif gf.order == 4:
        parts["fibers"] = fiber_coset_report(gf, seed=seed)
    passed = all(p["passed"] for p in parts.values())
    return {"check": "main-theorem", "field": gf.order,
            "mode": "exhaustive" if gf.order == 2 else "sample",
            "samples": samples, "parts": parts,
            "violations": sum(p.get("violations", 0) for p in parts.values()),
            "passed": passed}


# ----------------------------------------------------------------------
# invariance suites
# ----------------------------------------------------------------------

def u_invariance_report(gf: GF, n_sl: int = 100, n_gl: int = 20,
                        seed: int = 12345) -> dict:
    """U is fixed by unimodular matrices and scaled by the determinant in
    general."""
    from .linalg import random_gl4, random_sl4

    rng = random.Random(seed)
    u = big_u(gf)
    violations = 0
    for _ in range(n_sl):
        act = action(gf, random_sl4(gf, rng))
        if act.on_sym(u) != u:
            violations += 1
    for _ in range(n_gl):
        act = action(gf, random_gl4(gf, rng))
        if act.on_sym(u) != sym_scale(gf, act.det, u):
            violations += 1
    return _report("u-invariance", gf, "sample", n_sl + n_gl, violations, [])


def reductivity_report(gf: GF, samples: int = 10 ** 5, seed: int = 12345) -> dict:
    if gf.order == 2:
        return check_reductive(gf, lambda a, b: dart_voltage(gf, a, b), "exhaustive")
    rng = random.Random(seed)
    return check_reductive(gf, lambda a, b: dart_voltage(gf, a, b), "sample",
                           samples=samples, rng=rng)


def equivariance_report(gf: GF, n_matrices: int = 20, samples: int = 10 ** 4,
                        seed: int = 12345) -> dict:
    from .linalg import random_sl4
    from .voltage import check_equivariance

    rng = random.Random(seed)
    if gf.order == 2:
        actions = [action(gf, random_sl4(gf, rng)) for _ in range(100)]
        table = voltage_table(build_affine_graph(gf))
        return check_equivariance(gf, lambda a, b: dart_voltage(gf, a, b),
                                  actions, "exhaustive", table=table)
    actions = [action(gf, random_sl4(gf, rng)) for _ in range(n_matrices)]
    return check_equivariance(gf, lambda a, b: dart_voltage(gf, a, b),
                              actions, "sample",
                              samples=samples * n_matrices, rng=rng)


def phi_table_report() -> dict:
    """The six explicit duality identities plus the pairing consistency of
    the duality map, over every supported field."""
    from .field import FIELD_ORDERS
    from .multilinear import phi_consistency_check

    violations = 0
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        # (f3^f4, f2^f4, f2^f3, f1^f4, f1^f3, f1^f2) -> (w1, ..., w6)
        pairs = ((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))
        for slot, (i, j) in enumerate(pairs):
            dual = wedge_covectors(gf, E4[i], E4[j])
            a, b = BIV_PAIRS[slot]
            if phi(dual) != wedge(gf, E4[a], E4[b]):
                violations += 1
        if not phi_consistency_check(gf, random.Random(7), samples=50):
            violations += 1
    return {"check": "phi-table", "field": "all", "mode": "exhaustive",
            "samples": 4 * (36 + 50 + 6), "violations": violations,
            "witnesses": [], "passed": violations == 0}


def diameter_report(gf: GF) -> dict:
    from .graphs import diameter

    graph = build_projective_graph(gf)
    d = diameter(graph)
    return {"check": "diameter", "field": gf.order, "mode": "exhaustive",
            "samples": graph.n, "diameter": d, "violations": 0 if d == 2 else 1,
            "witnesses": [], "passed": d == 2}


def dart_lambda_report(gf: GF) -> dict:
    """The dart voltage between the two distinguished vertices and the
    path-based lambda value, for every element of the order-4 family."""
    if gf.order <= 2:
        return {"check": "dart-lambda", "field": gf.order, "mode": "exhaustive",
                "status": "not-applicable", "violations": 0, "passed": True,
                "reason": "no element outside the prime field"}
    w2b = wedge(gf, E4[0], E4[2])
    w4b = wedge(gf, E4[1], E4[2])
    w5b = wedge(gf, E4[1], E4[3])
    u = vertex_u(gf)
    violations = 0
    for x in order4_subgroup(gf):
        vx = vertex_vx(gf, x)
        want = sym_add(sym_mul(gf, w2b, w5b),
                       sym_scale(gf, x, sym_mul(gf, w4b, w5b)))
        if dart_voltage(gf, u, vx) != want or dart_voltage(gf, vx, u) != want:
            violations += 1
        if lambda_ax(gf, x) != sym_scale(gf, x, sym_mul(gf, w4b, w5b)):
            violations += 1
    return _report("dart-lambda", gf, "exhaustive", 8, violations, [])


def cocycle_report(gf: GF) -> dict:
    """The cocycle equals x y w5^2 on every pair of the order-4 family, and
    is symmetric with trivial first row."""
    if gf.order <= 2:
        return {"check": "cocycle", "field": gf.order, "mode": "exhaustive",
                "status": "not-applicable", "violations": 0, "passed": True,
                "reason": "no element outside the prime field"}
    fam = order4_subgroup(gf)
    violations = 0
    vals = {}
    for x in fam:
        for y in fam:
            f = cocycle_f(gf, x, y)
            vals[(x, y)] = f
            if f != w5_squared(gf, gf.mul(x, y)):
                violations += 1
    for x in fam:
        if vals[(0, x)] != (0,) * 21 or vals[(x, 0)] != (0,) * 21:
            violations += 1
        for y in fam:
            if vals[(x, y)] != vals[(y, x)]:
                violations += 1
    return _report("cocycle", gf, "exhaustive", len(fam) ** 2, violations, [])


def order2_report(gf: GF) -> dict:
    """Order-2 solution spaces for every nonzero element of the family."""
    if gf.order <= 2:
        return {"check": "order2-space", "field": gf.order, "mode": "exhaustive",
                "status": "not-applicable", "violations": 0, "passed": True,
                "reason": "no element outside the prime field"}
    parts = [order2_solution_space(gf, x) for x in order4_subgroup(gf)[1:]]
    passed = all(p["passed"] for p in parts)
    return {"check": "order2-space", "field": gf.order, "mode": "exhaustive",
            "samples": len(parts), "parts": parts,
            "violations": sum(p.get("violations", 1) for p in parts),
            "witnesses": [], "passed": passed}
