"""Reference helpers shared by several test modules."""

import functools

import numpy as np

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


@functools.lru_cache(maxsize=None)
def vertex_index(graph):
    """The id of each vertex of a graph, from its tuples; one dict per
    graph."""
    return {v: i for i, v in enumerate(graph.vertices)}
