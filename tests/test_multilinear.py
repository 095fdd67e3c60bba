import random
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phcover.field import FIELD_ORDERS, field_of_order
from phcover.linalg import E4, det, mat_vec, random_gl4, random_sl4, vec_add, vec_scale
from phcover import multilinear as ml


def on_sym_packed_array(act, xs):
    """The packed images of an array of packed values under one action,
    through its byte tables (k <= 3)."""
    return ml.packed_images(ml.byte_tables(act.gf, [act])[0], xs)


def wedge_by_expansion(gf, u, v):
    """Independent oracle: expand u ^ v over basis decomposables, collecting
    the coefficient of e_a ^ e_b (a < b) as u_a v_b - u_b v_a (signs vanish)."""
    coeffs = [0] * 6
    for a in range(4):
        for b in range(4):
            if u[a] and v[b] and a != b:
                c = gf.mul(u[a], v[b])
                slot = ml.BIV_PAIRS.index((min(a, b), max(a, b)))
                coeffs[slot] ^= c
    return tuple(coeffs)


def unit_bivector(slot):
    return tuple(1 if t == slot else 0 for t in range(6))


def bivector_image(gf, act, a):
    """The image of a bivector: the sum of its coordinates times the images
    act.w_rows of the basis bivectors."""
    return reduce(ml.sym_add, map(partial(ml.sym_scale, gf), a, act.w_rows))


def test_wedge_basis_cases():
    gf = field_of_order(2)
    assert ml.wedge(gf, E4[0], E4[1]) == unit_bivector(0)   # w1
    assert ml.wedge(gf, E4[1], E4[3]) == unit_bivector(4)   # w5


def test_wedge_alternating():
    rng = random.Random(0)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for _ in range(20):
            v = tuple(rng.randrange(gf.order) for _ in range(4))
            assert ml.wedge(gf, v, v) == ml.ZERO6


def test_wedge_matches_expansion_oracle():
    rng = random.Random(1)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for _ in range(30):
            u = tuple(rng.randrange(gf.order) for _ in range(4))
            v = tuple(rng.randrange(gf.order) for _ in range(4))
            assert ml.wedge(gf, u, v) == wedge_by_expansion(gf, u, v)


def test_wedge_explicit_expansion_value():
    # (e3 + lam e2) ^ e1 = e3^e1 + lam e2^e1 = w2 + lam w1 in characteristic 2
    for q in (4, 16):
        gf = field_of_order(q)
        for lam in gf.elements():
            u = vec_add(E4[2], vec_scale(gf, lam, E4[1]))
            expected = [0] * 6
            expected[1] = 1      # w2 = e1^e3
            expected[0] = lam    # w1 = e1^e2
            assert ml.wedge(gf, u, E4[0]) == tuple(expected)
            assert ml.wedge(gf, u, E4[0]) == wedge_by_expansion(gf, u, E4[0])


def test_wedge4_normalisation_and_degeneracy():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        assert ml.wedge4(gf, *E4) == 1
        assert ml.wedge4(gf, E4[0], E4[0], E4[2], E4[3]) == 0
        # a row swap is sign-free in characteristic 2
        assert ml.wedge4(gf, E4[1], E4[0], E4[2], E4[3]) == 1


def test_phi_table_lines():
    # the six explicit values: f3^f4 -> w1, f2^f4 -> w2, f2^f3 -> w3,
    # f1^f4 -> w4, f1^f3 -> w5, f1^f2 -> w6
    pairs = ((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for slot, (i, j) in enumerate(pairs):
            dual = ml.wedge_covectors(gf, E4[i], E4[j])
            a, b = ml.BIV_PAIRS[slot]
            assert ml.phi(dual) == ml.wedge(gf, E4[a], E4[b])


def test_phi_linear():
    rng = random.Random(2)
    gf = field_of_order(8)
    for _ in range(30):
        a = tuple(rng.randrange(8) for _ in range(6))
        b = tuple(rng.randrange(8) for _ in range(6))
        assert ml.phi(ml.sym_add(a, b)) == ml.sym_add(ml.phi(a), ml.phi(b))


def test_dual_table_is_the_chi_table_slots_reversed():
    # B(f_s, w_u) == (phi(f_s) ^ w_u)^chi on the basis, phi being slot
    # reversal; both pairings are bilinear, so they then agree everywhere
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        assert ml._dual_pairing_table(gf) == ml._chi_pairing_table(gf)[::-1]


def test_chi_table_is_symmetric():
    for q in FIELD_ORDERS:
        chi = ml._chi_pairing_table(field_of_order(q))
        assert all(chi[s][t] == chi[t][s] for s in range(6) for t in range(6))
        # w_s ^ w_t is nonzero exactly for complementary basis pairs
        assert [row.count(0) for row in chi] == [5] * 6


def test_sym_mul_examples():
    gf = field_of_order(2)
    w1, w6 = unit_bivector(0), unit_bivector(5)
    prod = ml.sym_mul(gf, w1, w6)
    assert prod[ml.SYM_SLOT[(0, 5)]] == 1
    assert sum(prod) == 1
    # (w2 + w3) * w2 = w2^2 + w2 w3
    w2, w3 = unit_bivector(1), unit_bivector(2)
    got = ml.sym_mul(gf, ml.sym_add(w2, w3), w2)
    expect = [0] * 21
    expect[ml.SYM_SLOT[(1, 1)]] = 1
    expect[ml.SYM_SLOT[(1, 2)]] = 1
    assert got == tuple(expect)


def test_sym_mul_symmetric():
    rng = random.Random(5)
    for q in (4, 16):
        gf = field_of_order(q)
        for _ in range(20):
            a = tuple(rng.randrange(gf.order) for _ in range(6))
            b = tuple(rng.randrange(gf.order) for _ in range(6))
            assert ml.sym_mul(gf, a, b) == ml.sym_mul(gf, b, a)


def test_big_u_coordinates():
    # (e1^e2)(e3^e4) + (e1^e3)(e4^e2) + (e1^e4)(e2^e3) = w1w6 + w2w5 + w3w4
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        expect = [0] * 21
        expect[ml.SYM_SLOT[(0, 5)]] = 1
        expect[ml.SYM_SLOT[(1, 4)]] = 1
        expect[ml.SYM_SLOT[(2, 3)]] = 1
        assert ml.big_u(gf) == tuple(expect)


def test_big_u_independent_of_basis():
    rng = random.Random(6)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        count = 0
        while count < 50:
            rows = [tuple(rng.randrange(gf.order) for _ in range(4)) for _ in range(4)]
            d = det(gf, rows)
            if d == 0:
                continue
            rows[0] = vec_scale(gf, gf.inv(d), rows[0])
            count += 1
            assert ml.u_from_basis(gf, *rows) == ml.big_u(gf)


def test_u_from_basis_rejects_non_unimodular():
    gf = field_of_order(4)
    with pytest.raises(ValueError):
        ml.u_from_basis(gf, E4[0], E4[0], E4[2], E4[3])


def test_u_not_in_w2_but_in_w2_plus_u():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        assert not ml.in_w2(gf, ml.big_u(gf))
        assert ml.in_w2_plus_u(gf, ml.big_u(gf))


def test_in_w2_diagonal():
    gf = field_of_order(4)
    for lam in gf.elements():
        s = ml.sym_add(
            ml.sym_scale(gf, lam, ml.square(gf, unit_bivector(0))),
            ml.square(gf, unit_bivector(4)),
        )
        assert ml.in_w2(gf, s)


def test_u_has_one_off_diagonal_part_in_every_field():
    # in_w2_plus_u reads U's off-diagonal part from one constant
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        assert set(ml.big_u(gf)) == {0, 1}
        assert ml._offdiag(ml.big_u(gf)) == ml._U_OFFDIAG


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_in_w2_plus_u_matches_its_definition(q):
    gf = field_of_order(q)
    rng = random.Random(q)
    u = ml.big_u(gf)
    found = set()
    for _ in range(300):
        s = tuple(rng.randrange(q) for _ in range(21))
        sq = ml.square(gf, tuple(rng.randrange(q) for _ in range(6)))
        for t in (s, ml.sym_add(s, u), sq, ml.sym_add(sq, u)):
            want = ml.in_w2(gf, t) or ml.in_w2(gf, ml.sym_add(t, u))
            assert ml.in_w2_plus_u(gf, t) == want
            found.add(want)
        assert ml.in_w2_plus_u(gf, sq) and ml.in_w2_plus_u(gf, ml.sym_add(sq, u))
    assert found == {False, True}


def test_square_additive_and_semilinear():
    rng = random.Random(7)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for _ in range(20):
            a = tuple(rng.randrange(gf.order) for _ in range(6))
            b = tuple(rng.randrange(gf.order) for _ in range(6))
            lam = rng.randrange(gf.order)
            assert ml.square(gf, ml.sym_add(a, b)) == ml.sym_add(ml.square(gf, a), ml.square(gf, b))
            assert ml.square(gf, ml.sym_scale(gf, lam, a)) == ml.sym_scale(gf, gf.mul(lam, lam), ml.square(gf, a))
            assert ml.in_w2(gf, ml.square(gf, a))


def test_square_of_basis():
    gf = field_of_order(2)
    s = ml.square(gf, unit_bivector(0))
    assert s[ml.SYM_SLOT[(0, 0)]] == 1 and sum(s) == 1


# ----------------------------------------------------------------------
# the quotient N
# ----------------------------------------------------------------------

def _packed_draws(gf, rng, count=200):
    """Seeded packed tensors as a uint64 array, with 0, U and the largest
    packed value."""
    top = 21 * gf.k
    xs = [rng.getrandbits(top) for _ in range(count)] + [0, ml.u_packed(gf), (1 << top) - 1]
    return np.array(xs, dtype=np.uint64)


def test_project_n_identifies_coset():
    rng = random.Random(8)
    for q in (2, 4, 8):
        gf = field_of_order(q)
        xs = _packed_draws(gf, rng)
        ys = xs ^ np.uint64(ml.u_packed(gf))
        n = ml.n_project_packed(gf, xs)
        assert n.dtype == np.uint64 and n.shape == xs.shape
        assert (n == ml.n_project_packed(gf, ys)).all()
        assert (ml.n_project_packed(gf, n) == n).all()
        assert ((n == xs) | (n == ys)).all()


def test_project_n_zero_and_u():
    for q in (2, 4, 8):
        gf = field_of_order(q)
        assert ml.n_project_packed(gf, [0, ml.u_packed(gf)]).tolist() == [0, 0]


def test_project_n_canonical_is_lexicographic_minimum():
    rng = random.Random(9)
    for q in (2, 4, 8):
        gf = field_of_order(q)
        tensors = [tuple(rng.randrange(q) for _ in range(21)) for _ in range(50)]
        got = ml.n_project_packed(gf, [ml.pack_sym(gf, s) for s in tensors]).tolist()
        assert got == [ml.pack_sym(gf, min(s, ml.sym_add(s, ml.big_u(gf)))) for s in tensors]


def test_n_add_homomorphism():
    rng = random.Random(10)
    for q in (2, 4, 8):
        gf = field_of_order(q)
        xs, ys = _packed_draws(gf, rng), _packed_draws(gf, rng)
        lhs = ml.n_project_packed(gf, ml.n_project_packed(gf, xs) ^ ml.n_project_packed(gf, ys))
        assert (lhs == ml.n_project_packed(gf, xs ^ ys)).all()


def test_n_cardinality_spot_check():
    # two tensors project together exactly when they differ by 0 or U,
    # so the canonical map is 2-to-1 on 2^21 inputs over GF(2)
    gf = field_of_order(2)
    reps = np.unique(ml.n_project_packed(gf, _packed_draws(gf, random.Random(11), 2000)))
    assert reps.size > 1900  # collisions beyond the forced 2:1 are very rare
    assert (ml.n_project_packed(gf, reps) == reps).all()
    assert (ml.n_project_packed(gf, reps ^ np.uint64(ml.u_packed(gf))) == reps).all()


def test_pack_unpack_roundtrip():
    rng = random.Random(12)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for _ in range(30):
            s = tuple(rng.randrange(gf.order) for _ in range(21))
            assert ml.unpack_sym(gf, ml.pack_sym(gf, s)) == s
    gf = field_of_order(4)
    for _ in range(30):
        s = tuple(rng.randrange(4) for _ in range(21))
        t = tuple(rng.randrange(4) for _ in range(21))
        assert (ml.pack_sym(gf, s) < ml.pack_sym(gf, t)) == (s < t)


def _sym_tensor(q):
    """Symmetric tensors over GF(q): 21 coordinates in range(q)."""
    return st.tuples(*[st.integers(0, q - 1)] * 21)


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unpack_inverts_pack(q, data):
    gf = field_of_order(q)
    s = data.draw(_sym_tensor(q))
    x = ml.pack_sym(gf, s)
    assert 0 <= x < 1 << (21 * gf.k)
    assert ml.unpack_sym(gf, x) == s


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_order_is_lexicographic_order(q, data):
    gf = field_of_order(q)
    s = data.draw(_sym_tensor(q))
    # t shares a drawn prefix with s, so that late slots decide too
    cut = data.draw(st.integers(0, 21))
    t = s[:cut] + data.draw(_sym_tensor(q))[cut:]
    x, y = ml.pack_sym(gf, s), ml.pack_sym(gf, t)
    assert (x < y, x == y) == (s < t, s == t)


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packing_is_additive(q, data):
    gf = field_of_order(q)
    s, t = data.draw(_sym_tensor(q)), data.draw(_sym_tensor(q))
    assert ml.pack_sym(gf, ml.sym_add(s, t)) == ml.pack_sym(gf, s) ^ ml.pack_sym(gf, t)


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_on_sym_is_additive(q, data):
    gf = field_of_order(q)
    act = ml.MatrixAction(gf, random_gl4(gf, random.Random(data.draw(st.integers(0, 2 ** 32)))))
    s, t = data.draw(_sym_tensor(q)), data.draw(_sym_tensor(q))
    assert act.on_sym(ml.sym_add(s, t)) == ml.sym_add(act.on_sym(s), act.on_sym(t))
    assert act.on_sym(ml.ZERO21) == ml.ZERO21


# ----------------------------------------------------------------------
# induced actions
# ----------------------------------------------------------------------

def test_action_functorial_on_wedges():
    rng = random.Random(13)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for _ in range(10):
            act = ml.action(gf, random_gl4(gf, rng))
            u = tuple(rng.randrange(gf.order) for _ in range(4))
            v = tuple(rng.randrange(gf.order) for _ in range(4))
            assert bivector_image(gf, act, ml.wedge(gf, u, v)) == ml.wedge(gf, act.on_vector(u), act.on_vector(v))


def test_action_multiplicative_on_sym():
    rng = random.Random(14)
    gf = field_of_order(4)
    for _ in range(10):
        act = ml.action(gf, random_gl4(gf, rng))
        a = tuple(rng.randrange(4) for _ in range(6))
        b = tuple(rng.randrange(4) for _ in range(6))
        assert act.on_sym(ml.sym_mul(gf, a, b)) == ml.sym_mul(gf, bivector_image(gf, act, a), bivector_image(gf, act, b))


def test_action_composition_right():
    rng = random.Random(15)
    gf = field_of_order(4)
    for _ in range(10):
        g = random_gl4(gf, rng)
        h = random_gl4(gf, rng)
        gh = ml.action(gf, tuple(mat_vec(gf, row, h) for row in g))
        s = tuple(rng.randrange(4) for _ in range(21))
        assert gh.on_sym(s) == ml.action(gf, h).on_sym(ml.action(gf, g).on_sym(s))


def test_squares_stable_under_action():
    rng = random.Random(16)
    for q in (2, 8):
        gf = field_of_order(q)
        for _ in range(10):
            act = ml.action(gf, random_gl4(gf, rng))
            a = tuple(rng.randrange(gf.order) for _ in range(6))
            assert act.on_sym(ml.square(gf, a)) == ml.square(gf, bivector_image(gf, act, a))


def test_u_fixed_by_sl_and_scaled_by_det():
    rng = random.Random(17)
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        u = ml.big_u(gf)
        for _ in range(25):
            act = ml.action(gf, random_sl4(gf, rng))
            assert act.on_sym(u) == u
        for _ in range(10):
            act = ml.action(gf, random_gl4(gf, rng))
            assert act.on_sym(u) == ml.sym_scale(gf, act.det, u)
        for lam in gf.nonzero():
            act = ml.action(gf, ((lam, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
            assert act.on_sym(u) == ml.sym_scale(gf, lam, u)


def test_quotient_action_needs_unimodular():
    # a matrix of determinant d takes U to d U, so the images of s and
    # s + U differ by d U, which is neither 0 nor U when d != 1
    gf = field_of_order(4)
    act = ml.action(gf, ((0b10, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    xs = _packed_draws(gf, random.Random(17))
    images = [ml.n_project_packed(gf, on_sym_packed_array(act, x))
              for x in (xs, xs ^ np.uint64(ml.u_packed(gf)))]
    assert (images[0] != images[1]).all()


def test_quotient_action_well_defined():
    # SL4 fixes U, so the action is well defined on the cosets
    rng = random.Random(18)
    for q in (2, 4, 8):
        gf = field_of_order(q)
        xs = _packed_draws(gf, rng)
        for _ in range(10):
            act = ml.action(gf, random_sl4(gf, rng))
            images = [ml.n_project_packed(gf, on_sym_packed_array(act, x))
                      for x in (xs, xs ^ np.uint64(ml.u_packed(gf)))]
            assert (images[0] == images[1]).all()


def test_packed_action_agrees_with_tuple_action():
    rng = random.Random(19)
    for q in (2, 4, 8):
        gf = field_of_order(q)
        for _ in range(10):
            act = ml.action(gf, random_sl4(gf, rng))
            tensors = [tuple(rng.randrange(q) for _ in range(21)) for _ in range(20)]
            images = on_sym_packed_array(act, [ml.pack_sym(gf, s) for s in tensors])
            assert images.tolist() == [ml.pack_sym(gf, act.on_sym(s)) for s in tensors]


def _on_sym_by_rows(gf, act, s):
    """sum_t s_t * w_i w_j, (i, j) the monomial of slot t, the image of s
    under the induced action."""
    out = ml.ZERO21
    for c, (i, j) in zip(s, ml.SYM_PAIRS):
        out = ml.sym_add(out, ml.sym_scale(gf, c, ml.sym_mul(gf, act.w_rows[i], act.w_rows[j])))
    return out


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_table_actions_match_row_combination(q):
    gf = field_of_order(q)
    rng = random.Random(20 + q)
    for _ in range(8):
        # a fresh action, so that each slot table is built for the first
        # input that needs it: U, then each single slot, then dense inputs
        act = ml.MatrixAction(gf, random_gl4(gf, rng))
        inputs = [ml.big_u(gf)]
        inputs += [tuple(c if t == slot else 0 for t in range(21))
                   for slot in range(21) for c in range(q)]
        inputs += [tuple(rng.randrange(q) for _ in range(21)) for _ in range(30)]
        wants = [_on_sym_by_rows(gf, act, s) for s in inputs]
        assert [act.on_sym(s) for s in inputs] == wants
        if gf.k <= 3:  # 21k packed bits fit a uint64
            images = on_sym_packed_array(act, [ml.pack_sym(gf, s) for s in inputs])
            assert images.tolist() == [ml.pack_sym(gf, want) for want in wants]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_an_action_that_meets_only_u_builds_three_slot_tables(q):
    gf = field_of_order(q)
    act = ml.MatrixAction(gf, random_sl4(gf, random.Random(q)))
    assert act.on_sym(ml.big_u(gf)) == ml.big_u(gf)
    built = [t for t, table in enumerate(act._slot_tables) if table is not ml._UNBUILT]
    # U = w1 w6 + w2 w5 + w3 w4
    assert built == [ml.SYM_SLOT[pair] for pair in ((0, 5), (1, 4), (2, 3))] == [5, 9, 12]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_an_action_that_meets_only_u_makes_three_rows_and_no_inverse(q, monkeypatch):
    gf = field_of_order(q)
    u = ml.big_u(gf)
    calls = []
    for name in ("sym_mul", "mat_inv"):
        real = getattr(ml, name)
        monkeypatch.setattr(ml, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    act = ml.MatrixAction(gf, random_sl4(gf, random.Random(q)))
    assert act.on_sym(u) == u
    assert calls == ["sym_mul"] * 3
    # the inverse transpose is made once, on the first covector
    assert act.on_covector((1, 0, 0, 0)) == act.minv_t[0]
    assert calls == ["sym_mul"] * 3 + ["mat_inv"]


def _scalar_byte_tables(act):
    """Reference byte tables of one action: the span tables of the packed
    images of its 21k bits, read off the scalar slot tables; bit p is bit
    p % k of slot 20 - p // k."""
    k = act.gf.k
    bits = [act._slot_table(20 - p // k)[1 << (p % k)] for p in range(21 * k)]
    bits += [0] * (-len(bits) % 8)
    return [ml._span_table(bits[b:b + 8]) for b in range(0, len(bits), 8)]


@pytest.mark.parametrize("q", (2, 4, 8))
def test_batched_byte_tables_match_the_scalar_slot_tables(q):
    gf = field_of_order(q)
    rng = random.Random(40 + q)
    mats = [E4] + [random_sl4(gf, rng) for _ in range(60)] + [random_gl4(gf, rng) for _ in range(39)]
    acts = [ml.MatrixAction(gf, m) for m in mats]
    assert len(acts) == 100
    want = [_scalar_byte_tables(act) for act in acts]
    for batch in (acts[:1], acts[1:2], acts[-1:], acts):
        got = ml.byte_tables(gf, batch)
        assert got.shape == (len(batch), -(-21 * gf.k // 8), 256) and got.dtype == np.uint64
        assert got.tolist() == [want[acts.index(act)] for act in batch]
    # the identity maps every byte value to itself in place
    assert got[0].tolist() == [[v << (8 * b) & ((1 << 21 * gf.k) - 1) for v in range(256)]
                               for b in range(got.shape[1])]
    assert ml.byte_tables(gf, []).shape == (0, got.shape[1], 256)


def test_byte_tables_refuse_k4():
    gf = field_of_order(16)
    with pytest.raises(ValueError, match="k <= 3"):
        ml.byte_tables(gf, [ml.MatrixAction(gf, E4)])


def test_singular_matrix_rejected():
    gf = field_of_order(2)
    with pytest.raises(ValueError):
        ml.MatrixAction(gf, ((0, 0, 0, 0),) * 4)
