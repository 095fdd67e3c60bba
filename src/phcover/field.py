"""Arithmetic in GF(2^k) for k = 1..4.

Field elements are plain Python ints in ``range(2**k)`` whose binary
digits are the coefficients of a polynomial residue over GF(2); the
constant term is the lowest bit.  A :class:`GF` instance carries the
modulus and supplies the arithmetic; elements themselves stay untyped,
so 0 and 1 are always the additive and multiplicative identities.

One fixed irreducible modulus per extension degree keeps every
exported coordinate reproducible:

    k=1 : x              -> 0b10     (the field is F2 itself)
    k=2 : x^2 + x + 1    -> 0b111
    k=3 : x^3 + x + 1    -> 0b1011
    k=4 : x^4 + x + 1    -> 0b10011

Addition is XOR.  Inverses are read off the multiplication table: the
inverse of a is the b whose product with a is 1.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from ._lazy import np

# Fixed irreducible polynomials over GF(2), keyed by extension degree.
_MODULI = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
}


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    """Remainder of the GF(2)[x] division of a by m."""
    dm = _poly_degree(m)
    while _poly_degree(a) >= dm and a:
        a ^= m << (_poly_degree(a) - dm)
    return a


def is_irreducible(poly: int) -> bool:
    """Trial division of poly by every lower-degree polynomial over GF(2)."""
    d = _poly_degree(poly)
    if d < 1:
        return False
    for q in range(2, 1 << d):
        if _poly_degree(q) >= 1 and _poly_mod(poly, q) == 0:
            return False
    return True


class GF:
    """The field GF(2^k) with bit-packed elements.

    Parameters
    ----------
    k : int
        Extension degree, 1 to 4.  The modulus is fixed per degree.
    """

    def __init__(self, k: int) -> None:
        if k not in _MODULI:
            raise ValueError(f"unsupported extension degree k={k}; must be in {sorted(_MODULI)}")
        self.k = k
        self.modulus = _MODULI[k]
        self.order = 1 << k
        if k > 1 and not is_irreducible(self.modulus):
            raise AssertionError(f"modulus {self.modulus:#b} is reducible")

        # Dense multiplication and inverse tables; the field has at most
        # 16 elements so these are tiny.  Hot scalar loops index them
        # directly: mul_rows[a][b] is a*b, and mul_rows[a] is the
        # multiplication-by-a map.  inverses[0] is 0, not an inverse.
        self.mul_rows = [[self._mul_raw(a, b) for b in range(self.order)]
                         for a in range(self.order)]
        self.inverses = [0] + [row.index(1) for row in self.mul_rows[1:]]

    def _mul_raw(self, a: int, b: int) -> int:
        """Carry-less multiply of a and b, reduced modulo the field modulus."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a >> self.k:
                a ^= self.modulus
            b >>= 1
        return p if self.k > 1 else p & 1

    # ------------------------------------------------------------------
    # element arithmetic
    # ------------------------------------------------------------------
    def check(self, a: int) -> int:
        """Validate that a is an element of this field; returns a."""
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of {self!r}")
        return a

    def mul(self, a: int, b: int) -> int:
        return self.mul_rows[a][b]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ValueError at 0."""
        if a == 0:
            raise ValueError("0 has no multiplicative inverse")
        return self.inverses[a]

    def elements(self) -> range:
        """All 2^k elements, 0 first, in a fixed order."""
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    # ------------------------------------------------------------------
    # numpy lookup tables for vectorised code paths
    # ------------------------------------------------------------------
    @cached_property
    def mul_table(self) -> np.ndarray:
        return np.array(self.mul_rows, dtype=np.uint8)

    @cached_property
    def inv_table(self) -> np.ndarray:
        return np.array(self.inverses, dtype=np.uint8)

    def __repr__(self) -> str:
        return f"GF({self.order})"


@lru_cache(maxsize=None)
def field_of_order(q: int) -> GF:
    """Shared GF instance for q in {2, 4, 8, 16}."""
    k = q.bit_length() - 1
    if q != 1 << k or k not in _MODULI:
        raise ValueError(f"unsupported field order {q}")
    return GF(k)


FIELD_ORDERS = (2, 4, 8, 16)
