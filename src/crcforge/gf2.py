"""Exact arithmetic on binary polynomials.

A polynomial over GF(2) is a nonnegative Python int: bit i of the int is
the coefficient of x**i. Addition is XOR, multiplication is carry-less
(`_mul`), and division is shift-and-subtract long division (`_divmod`).
CRCs and generators are held as these ints everywhere; hex output is the
builtin ``hex()``.

Conventions baked in here and relied on everywhere else:

* Octal generator strings ("13", "171", ...) follow the standard coding
  tables: the most significant bit of the octal value is the tap on the
  current input bit, i.e. the constant term. Reading the binary expansion
  of octal 13 (1011) left to right therefore gives the coefficients of
  x^0, x^1, x^2, x^3, so ``parse_octal("13")`` is x^3 + x^2 + 1 (0b1101).
* Hex CRC strings ("0x63", ...) list the m+1 coefficient bits MSB-first,
  MSB being the coefficient of x^m: ``parse_hex_crc("0x63")`` is
  x^6 + x^5 + x + 1, of degree 6, and ``hex(0x63)`` writes it back.
* A bit sequence u_0, u_1, ..., u_{N-1} in transmission order maps to the
  polynomial sum of u_i * x^i (first bit = constant term), so a word
  packed with u_i at bit i is its own polynomial.
"""

from __future__ import annotations

from .errors import InvalidCrcError, PolynomialParseError

__all__ = ["Crc", "parse_octal", "parse_hex_crc", "to_octal"]


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


class Crc(int):
    """A CRC generator's coefficient int that also writes itself as hex.

    ``search_dso`` returns its winner and survivors as Crc because
    ``bench/traced.py`` and the README's library example read
    ``result.winner.to_hex()``; every other CRC is a bare int. Operators
    are the int's, not GF(2)'s: use `_mul` and `_divmod` for polynomials.
    """

    __slots__ = ()

    def to_hex(self) -> str:
        """MSB-first hex form, e.g. '0x63' for x^6+x^5+x+1."""
        return hex(self)


def to_octal(bits: int) -> str:
    """Octal tap string of a generator under the convention above; parse_octal reverses it."""
    return f"{int(f'{bits:b}'[::-1], 2):o}"


def parse_octal(text: str) -> int:
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
    return int(f"{value:b}"[::-1], 2)


def parse_hex_crc(text: str) -> int:
    """Parse a CRC generator written as hex, e.g. "0x63".

    The text is an optional 0x or 0X and then hex digits only: no sign,
    whitespace or underscore. The hex value lists the coefficient bits
    MSB-first, the MSB being the coefficient of x^m for a degree-m CRC. A
    valid CRC generator has degree m >= 1 and its constant coefficient
    set, so the value must be odd and at least 0x3.
    """
    body = text[2:] if text[:2] in ("0x", "0X") else text
    if not body or any(c not in "0123456789abcdefABCDEF" for c in body):
        raise PolynomialParseError(f"not a hex string: {text!r}")
    value = int(body, 16)
    if value.bit_length() < 2:
        raise InvalidCrcError(f"{text} has degree below 1; not a CRC generator")
    if not value & 1:
        raise InvalidCrcError(f"{text} has no constant term; not a CRC generator")
    return value
