"""Exact arithmetic on binary polynomials.

A polynomial over GF(2) is held as a nonnegative Python int: bit i of the
int is the coefficient of x**i. Addition is XOR, multiplication is
carry-less, and division is shift-and-subtract long division. The raw-int
helpers (`_mul`, `_divmod`, ...) do the work; :class:`GF2Poly` is a thin
immutable wrapper that keeps degree bookkeeping honest.

Conventions baked in here and relied on everywhere else:

* Octal generator strings ("13", "171", ...) follow the standard coding
  tables: the most significant bit of the octal value is the tap on the
  current input bit, i.e. the constant term. Reading the binary expansion
  of octal 13 (1011) left to right therefore gives the coefficients of
  x^0, x^1, x^2, x^3, so ``parse_octal("13")`` is x^3 + x^2 + 1.
* Hex CRC strings ("0x63", ...) list the m+1 coefficient bits MSB-first,
  MSB being the coefficient of x^m: ``parse_hex_crc("0x63")`` is
  x^6 + x^5 + x + 1, of degree 6.
* A bit sequence u_0, u_1, ..., u_{N-1} in transmission order maps to the
  polynomial sum of u_i * x^i (first bit = constant term), so a word
  packed with u_i at bit i is its own polynomial: ``GF2Poly(word)``.
"""

from __future__ import annotations

from .errors import InvalidCrcError, PolynomialParseError

__all__ = ["GF2Poly", "parse_octal", "parse_hex_crc", "poly_gcd"]


def _mul(a: int, b: int) -> int:
    """Carry-less product of two bit-packed polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
    return out


def _divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of carry-less long division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


class GF2Poly:
    """Immutable binary polynomial.

    Wraps the bit-packed int representation. The zero polynomial has
    ``degree is None`` (a distinguished sentinel rather than -1, so degree
    arithmetic cannot silently underflow).
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: int):
        if not isinstance(bits, int) or bits < 0:
            raise ValueError("coefficient bits must be a nonnegative int")
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("GF2Poly is immutable")

    @property
    def bits(self) -> int:
        """Bit-packed coefficients, bit i = coefficient of x**i."""
        return self._bits

    @property
    def degree(self) -> int | None:
        """Highest set coefficient index, or None for the zero polynomial."""
        return self._bits.bit_length() - 1 if self._bits else None

    @property
    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return self._bits.bit_count()

    @property
    def is_zero(self) -> bool:
        return self._bits == 0

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(self._bits ^ other._bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(_mul(self._bits, other._bits))

    def __divmod__(self, other: "GF2Poly") -> tuple["GF2Poly", "GF2Poly"]:
        q, r = _divmod(self._bits, other._bits)
        return GF2Poly(q), GF2Poly(r)

    def __floordiv__(self, other: "GF2Poly") -> "GF2Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(_divmod(self._bits, other._bits)[1])

    def divides(self, other: "GF2Poly") -> bool:
        """True iff self divides other (self must be nonzero)."""
        return _divmod(other._bits, self._bits)[1] == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2Poly) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((GF2Poly, self._bits))

    def __bool__(self) -> bool:
        return self._bits != 0

    def __repr__(self) -> str:
        return f"GF2Poly(0b{self._bits:b})"

    def __str__(self) -> str:
        if self._bits == 0:
            return "0"
        terms = []
        for i in range(self._bits.bit_length() - 1, -1, -1):
            if (self._bits >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return " + ".join(terms)

    def to_hex(self) -> str:
        """MSB-first hex form, e.g. '0x63' for x^6+x^5+x+1."""
        return f"0x{self._bits:x}"

    def to_octal(self) -> str:
        """Octal tap string under the generator convention (see module doc)."""
        if self._bits == 0:
            raise ValueError("zero polynomial has no octal tap form")
        width = self._bits.bit_length()
        rev = int(f"{self._bits:0{width}b}"[::-1], 2)
        return f"{rev:o}"


def parse_octal(text: str) -> GF2Poly:
    """Parse an octal generator string such as "13" or "171".

    The binary expansion of the octal value, read most significant bit
    first, lists the coefficients from x^0 upward (standard generator
    tables, where the leading bit taps the current input).
    """
    if not text or any(c not in "01234567" for c in text):
        raise PolynomialParseError(f"not an octal digit string: {text!r}")
    value = int(text, 8)
    if value == 0:
        raise PolynomialParseError("generator polynomial must be nonzero")
    width = value.bit_length()
    return GF2Poly(int(f"{value:0{width}b}"[::-1], 2))


def parse_hex_crc(text: str) -> GF2Poly:
    """Parse a CRC generator written as hex, e.g. "0x63".

    The hex value lists the coefficient bits MSB-first, the MSB being the
    coefficient of x^m for a degree-m CRC. A valid CRC generator has
    degree m >= 1 and its constant coefficient set, so the value must be
    odd and at least 0x3.
    """
    body = text[2:] if text[:2].lower() == "0x" else text
    try:
        value = int(body, 16)
    except ValueError:
        raise PolynomialParseError(f"not a hex string: {text!r}") from None
    if value.bit_length() < 2:
        raise InvalidCrcError(f"CRC degree must be >= 1, got {value.bit_length() - 1}")
    if not value & 1:
        raise InvalidCrcError(f"{text} has no constant term; not a CRC generator")
    return GF2Poly(value)


def poly_gcd(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Greatest common divisor (monic by construction over GF(2))."""
    return GF2Poly(_gcd(a.bits, b.bits))
