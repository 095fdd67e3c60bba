import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phcover.field import FIELD_ORDERS, field_of_order
from phcover import linalg as la
from helpers import mat_mul


def rref(gf, rows):
    """Reduced row echelon form of rows of length 4 by Gauss-Jordan; returns
    (reduced nonzero rows, pivot columns).  The reference the program's
    two-row kernel is checked against."""
    rows = [list(row) for row in rows]
    n = len(rows)
    pivots = []
    r = 0
    for c in range(4):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = gf.inv(rows[r][c])
        rows[r] = [gf.mul(inv, x) for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                rows[i] = [x ^ gf.mul(coef, y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return [tuple(row) for row in rows[:r]], pivots


def _rref_kernel(gf, rows):
    """The null-space basis of any number of rows read off rref: one vector
    per non-pivot column c, 1 at c and column c of the RREF at the pivots."""
    reduced, pivots = rref(gf, rows)
    basis = []
    for c in range(4):
        if c in pivots:
            continue
        v = [0] * 4
        v[c] = 1
        for row, p in zip(reduced, pivots):
            v[p] = row[c]
        basis.append(tuple(v))
    return basis


def det_by_permutation_sum(gf, m):
    """Permanent-style expansion; in characteristic 2 all signs are +1,
    so this equals the determinant.  Independent of the elimination code."""
    acc = 0
    for perm in itertools.permutations(range(4)):
        term = 1
        for i, j in enumerate(perm):
            term = gf.mul(term, m[i][j])
        acc ^= term
    return acc


def test_evaluate_dual_basis():
    gf = field_of_order(4)
    assert la.evaluate(gf, la.E4[0], la.E4[0]) == 1
    assert la.evaluate(gf, la.E4[2], la.E4[0]) == 0


def test_evaluate_bilinear_example():
    # (f1 + f4)(e3 + lam e2) = 0 for every lam
    for q in (4, 16):
        gf = field_of_order(q)
        f = la.vec_add(la.E4[0], la.E4[3])
        for lam in gf.elements():
            v = la.vec_add(la.E4[2], la.vec_scale(gf, lam, la.E4[1]))
            assert la.evaluate(gf, f, v) == 0


def test_kernel_examples():
    gf = field_of_order(2)
    assert _rref_kernel(gf, [la.E4[0], la.E4[1], la.E4[2]]) == [la.E4[3]]
    assert len(_rref_kernel(gf, [])) == 4
    assert la.kernel(gf, la.E4[0], la.E4[1]) == [la.E4[2], la.E4[3]]
    assert la.kernel(gf, la.E4[1], la.E4[1]) == [la.E4[0], la.E4[2], la.E4[3]]
    assert la.kernel(gf, la.ZERO4, la.ZERO4) == list(la.E4)


def test_rank_nullity_random_triples():
    rng = random.Random(42)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for _ in range(25):
            rows = [tuple(rng.randrange(gf.order) for _ in range(4)) for _ in range(3)]
            r = len(rref(gf, rows)[1])
            assert r + len(_rref_kernel(gf, rows)) == 4
            for v in _rref_kernel(gf, rows):
                for f in rows:
                    assert la.evaluate(gf, f, v) == 0


def test_three_independent_covectors_leave_dimension_one():
    rng = random.Random(7)
    gf = field_of_order(8)
    found = 0
    while found < 20:
        rows = [tuple(rng.randrange(8) for _ in range(4)) for _ in range(3)]
        if len(rref(gf, rows)[1]) == 3:
            found += 1
            assert len(_rref_kernel(gf, rows)) == 1


def test_det_examples():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        assert la.det(gf, la.E4) == 1
        for lam in gf.elements():
            m = ((lam, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
            assert la.det(gf, m) == lam


def test_det_matches_permutation_oracle():
    rng = random.Random(3)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for _ in range(20):
            m = tuple(tuple(rng.randrange(gf.order) for _ in range(4)) for _ in range(4))
            assert la.det(gf, m) == det_by_permutation_sum(gf, m)


def test_det_is_multiplicative_on_samples():
    rng = random.Random(5)
    gf = field_of_order(4)
    for _ in range(20):
        a = tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(4))
        b = tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(4))
        assert la.det(gf, mat_mul(gf, a, b)) == gf.mul(la.det(gf, a), la.det(gf, b))


def test_mat_inv_and_covector_transform():
    rng = random.Random(11)
    for q in (2, 4, 16):
        gf = field_of_order(q)
        for _ in range(15):
            m = la.random_gl4(gf, rng)
            assert mat_mul(gf, m, la.mat_inv(gf, m)) == la.E4
            f = tuple(rng.randrange(gf.order) for _ in range(4))
            v = tuple(rng.randrange(gf.order) for _ in range(4))
            fg = la.mat_vec(gf, f, la.transpose(la.mat_inv(gf, m)))
            vg = la.mat_vec(gf, v, m)
            assert la.evaluate(gf, fg, vg) == la.evaluate(gf, f, v)


def test_mat_inv_singular_raises():
    gf = field_of_order(2)
    with pytest.raises(ValueError):
        la.mat_inv(gf, ((0, 0, 0, 0),) * 4)


def test_random_sl4_is_unimodular_and_seeded():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for seed in range(30):
            m = la.random_sl4(gf, random.Random(seed))
            assert la.det(gf, m) == 1
            assert m == la.random_sl4(gf, random.Random(seed))


def _random_sl4_by_products(gf, rng, length=20):
    """random_sl4 as the product of explicit transvection matrices, with the
    same draws in the same order."""
    m = la.E4
    for _ in range(length):
        i = rng.randrange(4)
        j = (i + 1 + rng.randrange(3)) % 4
        t = [list(row) for row in la.E4]
        t[i][j] = rng.randrange(gf.order)
        m = mat_mul(gf, m, tuple(tuple(row) for row in t))
    return m


def test_random_sl4_equals_product_of_transvections():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for seed in range(300):
            fast, slow = random.Random(seed), random.Random(seed)
            assert la.random_sl4(gf, fast) == _random_sl4_by_products(gf, slow)
            assert fast.getstate() == slow.getstate()


def test_random_sl4_spread_over_gf2():
    gf = field_of_order(2)
    rng = random.Random(0)
    seen = {la.random_sl4(gf, rng) for _ in range(100)}
    assert len(seen) >= 50


# ----------------------------------------------------------------------
# F2 affine solving
# ----------------------------------------------------------------------

def test_solve_affine_f2_inconsistent_x_plus_x():
    # x + x = 1 over F2 collapses to 0 = 1
    a = np.zeros((1, 1), dtype=np.uint8)
    b = np.array([1], dtype=np.uint8)
    x0, kern, cert = la.solve_affine_f2(a, b)
    assert x0 is None and kern is None
    assert cert is not None and cert[0] == 1


def test_solve_affine_f2_empty_system():
    a = np.zeros((0, 5), dtype=np.uint8)
    b = np.zeros(0, dtype=np.uint8)
    x0, kern, cert = la.solve_affine_f2(a, b)
    assert cert is None
    assert not x0.any()
    assert len(kern) == 5


def test_solve_affine_f2_solution_substitutes_back():
    rng = np.random.default_rng(123)
    for _ in range(30):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        a = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        x_true = rng.integers(0, 2, size=n).astype(np.uint8)
        b = (a @ x_true) % 2
        x0, kern, cert = la.solve_affine_f2(a, b)
        assert cert is None
        assert not ((a @ x0) % 2 ^ b).any()
        for v in kern:
            assert not ((a @ v) % 2).any()
            assert not ((a @ ((x0 ^ v) % 2)) % 2 ^ b).any()
        assert len(kern) >= n - m


def test_solve_affine_f2_certificate_property():
    rng = np.random.default_rng(7)
    found = 0
    while found < 20:
        m, n = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        a = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        b = rng.integers(0, 2, size=m).astype(np.uint8)
        x0, kern, cert = la.solve_affine_f2(a, b)
        if cert is None:
            continue
        found += 1
        assert not ((cert @ a) % 2).any()
        assert int((cert @ b) % 2) == 1


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_property(q, data):
    gf = field_of_order(q)
    coord = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.tuples(coord, coord, coord, coord), max_size=5))
    basis = _rref_kernel(gf, rows)
    assert len(basis) == 4 - len(rref(gf, rows)[1])
    for v in basis:
        for f in rows:
            assert la.evaluate(gf, f, v) == 0
    assert len(rref(gf, basis)[1]) == len(basis)
    if q <= 4:  # the whole null space, counted by brute force
        null = sum(all(la.evaluate(gf, f, v) == 0 for f in rows)
                   for v in itertools.product(gf.elements(), repeat=4))
        assert null == q ** len(basis)


@pytest.mark.parametrize("q", (2, 4))
def test_two_row_kernel_equals_rref_kernel_on_every_pair(q):
    # every branch of kernel's closed forms, each named by whether the rows
    # are equal and by the pivots of their RREF: the six rank-2 pivot pairs,
    # the four rank-1 pivot positions of distinct and of equal rows, and
    # two zero rows
    gf = field_of_order(q)
    rows = list(itertools.product(range(q), repeat=4))
    branches = set()
    for r0 in rows:
        for r1 in rows:
            assert la.kernel(gf, r0, r1) == _rref_kernel(gf, [r0, r1])
            branches.add((r0 == r1, tuple(rref(gf, [r0, r1])[1])))
    assert branches == ({(False, pair) for pair in itertools.combinations(range(4), 2)}
                        | {(equal, (p,)) for equal in (False, True) for p in range(4)}
                        | {(True, ())})


@pytest.mark.parametrize("q", (2, 4, 8))
def test_equal_row_kernel_equals_rref_kernel_on_every_row(q):
    gf = field_of_order(q)
    for r in itertools.product(range(q), repeat=4):
        assert la.kernel(gf, r, tuple(r)) == _rref_kernel(gf, [r, r])
    assert la.kernel(gf, la.ZERO4, la.ZERO4) == list(la.E4)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_mat_vec_equals_generic_sum(q):
    gf = field_of_order(q)
    rng = random.Random(q)
    for _ in range(100):
        m = la.random_gl4(gf, rng)
        v = tuple(rng.randrange(q) for _ in range(4))
        want = [0, 0, 0, 0]
        for r in range(4):
            for c in range(4):
                want[c] ^= gf.mul(v[r], m[r][c])
        assert la.mat_vec(gf, v, m) == tuple(want)


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_of_two_nonzero_rows_has_two_or_three_vectors(q, data):
    # the only bases graphs._random_in_span unrolls: the rows of two
    # vertices are nonzero, so their kernel has 2 vectors when they are
    # independent and 3 when one is a multiple of the other
    gf = field_of_order(q)
    coord = st.integers(0, q - 1)
    row = st.tuples(coord, coord, coord, coord).filter(any)
    r0 = data.draw(row)
    r1 = data.draw(st.one_of(row, st.integers(1, q - 1).map(lambda c: la.vec_scale(gf, c, r0))))
    independent = len(rref(gf, [r0, r1])[1]) == 2
    assert len(la.kernel(gf, r0, r1)) == (2 if independent else 3)


@pytest.mark.parametrize("q", (8, 16))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_two_row_kernel_equals_rref_kernel(q, data):
    gf = field_of_order(q)
    coord = st.integers(0, q - 1)
    row = st.tuples(coord, coord, coord, coord)
    r0 = data.draw(row)
    kind = data.draw(st.sampled_from(("any", "zero", "equal", "proportional")))
    if kind == "any":
        r1 = data.draw(row)
    elif kind == "zero":
        r1 = la.ZERO4
    elif kind == "equal":
        r1 = r0
    else:
        r1 = la.vec_scale(gf, data.draw(coord), r0)
    if data.draw(st.booleans()):
        r0, r1 = r1, r0
    assert la.kernel(gf, r0, r1) == _rref_kernel(gf, [r0, r1])
