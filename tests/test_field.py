import pytest

from phcover.field import FIELD_ORDERS, GF, field_of_order, is_irreducible


def poly_mulmod(a, b, mod, k):
    """Schoolbook polynomial multiply over GF(2), then trial reduction.

    Independent of the table-driven implementation under test.
    """
    prod = 0
    for i in range(k):
        if (a >> i) & 1:
            prod ^= b << i
    while prod.bit_length() > k:
        prod ^= mod << (prod.bit_length() - 1 - k)
    return prod if k > 1 else prod & 1


def test_moduli_are_irreducible():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        assert is_irreducible(gf.modulus)


def test_is_irreducible_rejects_products():
    # x^2 = x * x and x^2 + 1 = (x + 1)^2 are reducible
    assert not is_irreducible(0b100)
    assert not is_irreducible(0b101)
    assert is_irreducible(0b111)
    assert is_irreducible(0b1011)


def test_mul_matches_polynomial_oracle_exhaustively():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for a in gf.elements():
            for b in gf.elements():
                assert gf.mul(a, b) == poly_mulmod(a, b, gf.modulus, gf.k)


def test_add_is_xor_and_characteristic_two():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for a in gf.elements():
            assert a ^ a == 0
            assert a ^ 0 == a


def test_gf2_one_plus_one():
    gf = field_of_order(2)
    assert 1 ^ 1 == 0


def test_gf4_alpha_arithmetic():
    gf = field_of_order(4)
    alpha = 0b10
    assert alpha ^ 1 == 0b11
    assert gf.mul(alpha, alpha) == alpha ^ 1  # reduce x^2 by x^2+x+1
    assert gf.inv(alpha) == alpha ^ 1
    assert gf.mul(alpha, alpha ^ 1) == 1


def test_identity_and_zero():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for a in gf.elements():
            assert gf.mul(1, a) == a
            assert gf.mul(0, a) == 0


def test_inverse_exhaustive():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        for a in gf.nonzero():
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.mul(gf.inv(a), a) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ValueError):
        field_of_order(8).inv(0)


def test_field_axioms_exhaustive():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        elems = list(gf.elements())
        for a in elems:
            for b in elems:
                assert gf.mul(a, b) == gf.mul(b, a)
                assert a ^ b == b ^ a
                for c in elems:
                    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                    assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)


def test_frobenius_is_additive_and_bijective():
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        images = {gf.mul(a, a) for a in gf.elements()}
        assert len(images) == gf.order
        for a in gf.elements():
            for b in gf.elements():
                assert gf.mul(a ^ b, a ^ b) == gf.mul(a, a) ^ gf.mul(b, b)


def test_enumerate_order_and_closure():
    gf = field_of_order(2)
    assert list(gf.elements()) == [0, 1]
    for q in FIELD_ORDERS:
        gf = field_of_order(q)
        elems = list(gf.elements())
        assert elems[0] == 0
        assert len(set(elems)) == gf.order
        for a in elems:
            for b in elems:
                assert a ^ b in range(gf.order)
                assert gf.mul(a, b) in range(gf.order)


def test_elements_out_of_range_are_usage_errors():
    gf = field_of_order(4)
    with pytest.raises((ValueError, IndexError)):
        gf.mul(7, 1)
    with pytest.raises(ValueError):
        gf.check(4)
    with pytest.raises(ValueError):
        GF(5)
    with pytest.raises(ValueError):
        field_of_order(6)


def test_shared_instances():
    assert field_of_order(8) is field_of_order(8)
