import pytest
from hypothesis import given
from hypothesis import strategies as st

from crcforge.errors import InvalidCrcError, PolynomialParseError
from crcforge.gf2 import GF2Poly, parse_hex_crc, parse_octal, poly_gcd


class TestParseOctal:
    def test_standard_table_values(self):
        # Octal digits list taps newest-input-first, so "13" is x^3+x^2+1.
        assert parse_octal("13").bits == 0b1101
        assert parse_octal("17").bits == 0b1111
        assert parse_octal("5").bits == 0b101
        assert parse_octal("7").bits == 0b111
        assert parse_octal("133").bits == 0b1101101
        assert parse_octal("171").bits == 0b1001111

    def test_degrees(self):
        assert parse_octal("13").degree == 3
        assert parse_octal("133").degree == 6

    def test_rejects_garbage(self):
        with pytest.raises(PolynomialParseError):
            parse_octal("18")
        with pytest.raises(PolynomialParseError):
            parse_octal("")
        with pytest.raises(PolynomialParseError):
            parse_octal("0")

    def test_octal_roundtrip(self):
        for text in ("13", "17", "5", "7", "133", "171", "561", "753"):
            assert parse_octal(text).to_octal() == text


class TestParseHexCrc:
    def test_values(self):
        assert parse_hex_crc("0x63").bits == 0x63
        assert parse_hex_crc("0x43").bits == 0x43
        assert parse_hex_crc("0x3").bits == 0x3

    def test_degree_inferred_when_omitted(self):
        assert parse_hex_crc("0x63").degree == 6

    def test_even_value_rejected(self):
        with pytest.raises(InvalidCrcError):
            parse_hex_crc("0x62")

    def test_not_hex(self):
        with pytest.raises(PolynomialParseError):
            parse_hex_crc("0xzz")


class TestArithmetic:
    def test_factorization_of_0x63(self):
        assert GF2Poly(0b11) * GF2Poly(0b100001) == GF2Poly(0x63)

    def test_remainder_example(self):
        # x^6 mod (x^6+x^5+x+1) = x^5+x+1
        assert GF2Poly(1 << 6) % GF2Poly(0x63) == GF2Poly(0x23)

    def test_0x43_divides_x63_plus_1(self):
        assert GF2Poly(0x43).divides(GF2Poly((1 << 63) | 1))

    def test_zero_poly(self):
        zero = GF2Poly(0)
        assert zero.is_zero
        assert zero.degree is None
        assert not zero

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(GF2Poly(0b101), GF2Poly(0))
        with pytest.raises(ZeroDivisionError):
            GF2Poly(0b101) % GF2Poly(0)

    def test_gcd(self):
        # x^2+x and x^2+1 share x+1
        assert poly_gcd(GF2Poly(0b110), GF2Poly(0b101)) == GF2Poly(0b11)

    def test_str_and_hex(self):
        p = GF2Poly(0x63)
        assert str(p) == "x^6 + x^5 + x + 1"
        assert p.to_hex() == "0x63"


nonzero_poly = st.integers(min_value=1, max_value=(1 << 64) - 1).map(GF2Poly)
any_poly = st.integers(min_value=0, max_value=(1 << 64) - 1).map(GF2Poly)


@given(any_poly, nonzero_poly)
def test_divmod_identity(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert a % b == r and a // b == q
    assert r.is_zero or r.degree < b.degree


@given(nonzero_poly, nonzero_poly)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(nonzero_poly, nonzero_poly, nonzero_poly)
def test_mul_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_crc_encoding_identity(message_bits):
    # Appending the remainder of m(x)*x^m makes the word divisible.
    g = GF2Poly(0x63)
    m = GF2Poly(message_bits)
    shifted = m * GF2Poly(1 << g.degree)
    codeword = shifted + shifted % g
    assert g.divides(codeword)

