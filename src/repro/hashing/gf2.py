"""Arithmetic in the binary extension field ``GF(2^m)``.

The AGHP small-bias construction (:mod:`repro.hashing.small_bias`) works over
``GF(2^m)``: sample-space points are pairs ``(x, y)`` of field elements and
the ``i``-th output bit is ``<x^i, y>`` (inner product of bit vectors).  This
module supplies the required field arithmetic: carry-less multiplication
reduced modulo a fixed irreducible polynomial per degree.
"""

from __future__ import annotations

#: Irreducible polynomials over GF(2), indexed by degree ``m``.  Encoded as
#: integers with bit ``i`` set when ``x^i`` has coefficient 1; taken from
#: standard tables (e.g. Lidl & Niederreiter).
IRREDUCIBLE_POLYNOMIALS: dict[int, int] = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011011,          # x^8 + x^4 + x^3 + x + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def is_irreducible(polynomial: int) -> bool:
    """Brute-force irreducibility test for small GF(2) polynomials.

    Checks divisibility by every polynomial of degree between 1 and half the
    degree of ``polynomial``.  Only intended for the table above (degrees up
    to 16), where the search space is tiny.
    """
    degree = polynomial.bit_length() - 1
    if degree < 1:
        return False
    for candidate in range(2, 1 << (degree // 2 + 1)):
        if candidate.bit_length() - 1 < 1:
            continue
        if poly_mod(polynomial, candidate) == 0:
            return False
    return True


def clmul(a: int, b: int) -> int:
    """Carry-less (polynomial) multiplication of two GF(2) polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def poly_mod(value: int, modulus: int) -> int:
    """Reduce the GF(2) polynomial ``value`` modulo ``modulus``."""
    if modulus == 0:
        raise ZeroDivisionError("polynomial modulus must be nonzero")
    mod_degree = modulus.bit_length() - 1
    while value.bit_length() - 1 >= mod_degree and value:
        shift = (value.bit_length() - 1) - mod_degree
        value ^= modulus << shift
    return value


class GF2Field:
    """The finite field ``GF(2^m)`` with elements encoded as ``m``-bit integers."""

    def __init__(self, degree: int) -> None:
        if degree not in IRREDUCIBLE_POLYNOMIALS:
            raise ValueError(
                f"unsupported field degree {degree}; supported degrees are "
                f"{sorted(IRREDUCIBLE_POLYNOMIALS)}"
            )
        self.degree = degree
        self.modulus = IRREDUCIBLE_POLYNOMIALS[degree]
        self.size = 1 << degree

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR of coefficient vectors)."""
        return a ^ b

    def multiply(self, a: int, b: int) -> int:
        """Field multiplication modulo the irreducible polynomial."""
        self._check(a)
        self._check(b)
        return poly_mod(clmul(a, b), self.modulus)

    def power(self, base: int, exponent: int) -> int:
        """Field exponentiation by repeated squaring."""
        self._check(base)
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        result = 1
        current = base
        while exponent:
            if exponent & 1:
                result = self.multiply(result, current)
            current = self.multiply(current, current)
            exponent >>= 1
        return result

    def inner_product_bit(self, a: int, b: int) -> int:
        """The GF(2) inner product of the bit vectors of ``a`` and ``b``."""
        return (a & b).bit_count() & 1

    def elements(self) -> range:
        """All field elements, encoded as integers ``0 .. 2^m - 1``."""
        return range(self.size)

    def _check(self, value: int) -> None:
        if value < 0 or value >= self.size:
            raise ValueError(f"{value} is not an element of GF(2^{self.degree})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF2Field(2^{self.degree})"
