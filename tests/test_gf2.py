import pytest
from hypothesis import given
from hypothesis import strategies as st

from crcforge.errors import InvalidCrcError, PolynomialParseError
from crcforge.gf2 import Crc, _divmod, _gcd, _mul, parse_hex_crc, parse_octal, to_octal


class TestParseOctal:
    def test_standard_table_values(self):
        # Octal digits list taps newest-input-first, so "13" is x^3+x^2+1.
        assert parse_octal("13") == 0b1101
        assert parse_octal("17") == 0b1111
        assert parse_octal("5") == 0b101
        assert parse_octal("7") == 0b111
        assert parse_octal("133") == 0b1101101
        assert parse_octal("171") == 0b1001111

    def test_degrees(self):
        assert parse_octal("13").bit_length() - 1 == 3
        assert parse_octal("133").bit_length() - 1 == 6

    def test_rejects_garbage(self):
        with pytest.raises(PolynomialParseError):
            parse_octal("18")
        with pytest.raises(PolynomialParseError):
            parse_octal("")
        with pytest.raises(PolynomialParseError):
            parse_octal("0")

    def test_octal_roundtrip(self):
        for text in ("13", "17", "5", "7", "133", "171", "561", "753"):
            assert to_octal(parse_octal(text)) == text


class TestParseHexCrc:
    def test_values(self):
        # 0x63 is x^6+x^5+x+1.
        assert parse_hex_crc("0x63") == 0b1100011
        assert parse_hex_crc("0x43") == 0x43
        assert parse_hex_crc("0x3") == 0x3

    @pytest.mark.parametrize("text,value", [("63", 0x63), ("0X63", 0x63), ("0x063", 0x63), ("0xB4c11DB7", 0xB4C11DB7)])
    def test_optional_prefix_and_either_case(self, text, value):
        assert parse_hex_crc(text) == value

    def test_degree_inferred_when_omitted(self):
        assert parse_hex_crc("0x63").bit_length() - 1 == 6

    def test_even_value_rejected(self):
        with pytest.raises(InvalidCrcError):
            parse_hex_crc("0x62")

    @pytest.mark.parametrize("text", ["0x0", "0x1"])
    def test_degree_below_1_names_the_text(self, text):
        with pytest.raises(InvalidCrcError, match=f"^{text} has degree below 1; not a CRC generator$"):
            parse_hex_crc(text)

    def test_not_hex(self):
        with pytest.raises(PolynomialParseError):
            parse_hex_crc("0xzz")

    @pytest.mark.parametrize(
        "text", ["0x0x63", "0x6_3", "+63", "-0x63", "-63", " 0x63", "0x63 ", "0x 63", "0x", "", "x63", "0x٦٣"]
    )
    def test_only_prefix_and_hex_digits(self, text):
        # int(text, 16) would take a sign, whitespace, underscores, a second
        # prefix and non-ASCII digits; a CRC names none of them.
        with pytest.raises(PolynomialParseError, match="not a hex string"):
            parse_hex_crc(text)


class TestArithmetic:
    def test_factorization_of_0x63(self):
        assert _mul(0b11, 0b100001) == 0x63

    def test_remainder_example(self):
        # x^6 mod (x^6+x^5+x+1) = x^5+x+1
        assert _divmod(1 << 6, 0x63)[1] == 0x23

    def test_0x43_divides_x63_plus_1(self):
        assert _divmod((1 << 63) | 1, 0x43)[1] == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _divmod(0b101, 0)

    def test_gcd(self):
        # x^2+x and x^2+1 share x+1
        assert _gcd(0b110, 0b101) == 0b11

    def test_hex(self):
        assert Crc(0x63).to_hex() == hex(0x63) == "0x63"


nonzero_poly = st.integers(min_value=1, max_value=(1 << 64) - 1)
any_poly = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(any_poly, nonzero_poly)
def test_divmod_identity(a, b):
    q, r = _divmod(a, b)
    assert _mul(q, b) ^ r == a
    assert r.bit_length() < b.bit_length()


@given(nonzero_poly, nonzero_poly)
def test_mul_commutes(a, b):
    assert _mul(a, b) == _mul(b, a)


@given(nonzero_poly, nonzero_poly, nonzero_poly)
def test_mul_associates_and_distributes(a, b, c):
    assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))
    assert _mul(a, b ^ c) == _mul(a, b) ^ _mul(a, c)


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_crc_encoding_identity(message_bits):
    # Appending the remainder of m(x)*x^m makes the word divisible.
    g = 0x63
    shifted = _mul(message_bits, 1 << (g.bit_length() - 1))
    codeword = shifted ^ _divmod(shifted, g)[1]
    assert _divmod(codeword, g)[1] == 0
