"""Reference helpers shared by several test modules."""

import functools

import numpy as np

from phcover.graphs import Graph
from phcover.linalg import mat_vec


def mat_mul(gf, a, b):
    """The matrix product a b, row by row: v (a b) is v a, then times b."""
    return tuple(mat_vec(gf, row, b) for row in a)


def stack(verts):
    """The uint8 arrays (vmat, hmat) of a list of (vector, covector) pairs."""
    return tuple(np.array([pair[side] for pair in verts], dtype=np.uint8).reshape(-1, 4)
                 for side in (0, 1))


def pairs(vmat, hmat):
    """The (vector, covector) tuples of the row pairs of two arrays."""
    return list(zip(map(tuple, np.asarray(vmat).tolist()), map(tuple, np.asarray(hmat).tolist())))


def subgraph(graph, vertex_ids):
    """Induced subgraph on the given vertex indices (kept in the given order)."""
    ids = np.asarray(vertex_ids, dtype=np.intp)
    return Graph(graph.gf, graph.vmat[ids], graph.hmat[ids])


@functools.lru_cache(maxsize=None)
def vertex_index(graph):
    """The id of each vertex of a graph, from its tuples; one dict per
    graph."""
    return {v: i for i, v in enumerate(graph.vertices)}


def random_in_span_loop(gf, basis, rng):
    """The reference for graphs._random_in_span, one loop over any basis: a
    random nonzero combination, its coefficients drawn left to right as
    rng.randrange(q) draws them, all of them again when every one is zero."""
    q, draw, mul = gf.order, rng.getrandbits, gf.mul_rows
    bits = q.bit_length()
    while True:
        o0 = o1 = o2 = o3 = nonzero = 0
        for x0, x1, x2, x3 in basis:
            c = draw(bits)
            while c >= q:
                c = draw(bits)
            if c:
                by_c = mul[c]
                o0 ^= by_c[x0]
                o1 ^= by_c[x1]
                o2 ^= by_c[x2]
                o3 ^= by_c[x3]
                nonzero = 1
        if nonzero:
            return (o0, o1, o2, o3)
