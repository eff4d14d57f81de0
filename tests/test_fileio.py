import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (CoefficientTensor, DimensionError, FileFormatError,
                     QVector, decompose)
from pauligl.fileio import (format_coefficients, format_matrix, format_qvector,
                            format_real, parse_coefficients, parse_matrix,
                            parse_qvector, parse_real_literal)

from conftest import coefficient_tensors, random_complex_matrix


def bit_equal(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


class TestFormatReal:
    CASES = [
        (0.0, "0"),
        (-0.0, "-0"),
        (1.0, "1"),
        (-2.0, "-2"),
        (0.5, "0.5"),
        (1e-13, "1e-13"),
        (1e17, "1e+17"),
        (123456.75, "123456.75"),
    ]

    @pytest.mark.parametrize("value,text", CASES)
    def test_known_forms(self, value, text):
        assert format_real(value) == text

    @pytest.mark.parametrize("value,text", CASES)
    def test_round_trip(self, value, text):
        assert bit_equal(parse_real_literal(text), value)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, x):
        assert bit_equal(parse_real_literal(format_real(x)), x)


class TestParseRealLiteral:
    @pytest.mark.parametrize("token", ["x", "1_0", "inf", "-inf", "nan",
                                       "0x1p3", "1e", "", "1 2", "1,5",
                                       "\u0661.\u0665"])
    def test_rejects(self, token):
        with pytest.raises(ValueError):
            parse_real_literal(token)

    @pytest.mark.parametrize("token", ["+1", "-.5", "3.", "2e-3", "0"])
    def test_accepts(self, token):
        parse_real_literal(token)


class TestMatrixFiles:
    def test_round_trip(self, rng):
        a = random_complex_matrix(rng, 4)
        assert np.array_equal(parse_matrix(format_matrix(a)), a)

    def test_known_form(self):
        a = np.array([[1, 0], [0, complex(0, -1)]], dtype=complex)
        assert format_matrix(a) == "2\n1,0 0,0\n0,0 0,-1\n"

    def test_negative_zero_preserved(self):
        # -1j negates both parts, so its real part is an IEEE negative zero
        a = np.array([[-1j]], dtype=complex)
        text = format_matrix(a)
        assert text == "1\n-0,-1\n"
        back = parse_matrix(text)[0, 0]
        assert math.copysign(1.0, back.real) == -1.0

    def test_accepts_trailing_blank_lines(self):
        assert parse_matrix("1\n2,0\n\n\n").shape == (1, 1)

    def test_missing_rows(self):
        with pytest.raises(FileFormatError) as exc:
            parse_matrix("2\n1,0 0,0\n")
        assert exc.value.line == 3

    def test_extra_rows(self):
        with pytest.raises(FileFormatError) as exc:
            parse_matrix("1\n1,0\n2,0\n")
        assert exc.value.line == 3

    def test_wrong_entry_count(self):
        with pytest.raises(FileFormatError) as exc:
            parse_matrix("2\n1,0\n0,0 0,0\n")
        assert exc.value.line == 2

    def test_bad_token_shape(self):
        with pytest.raises(FileFormatError) as exc:
            parse_matrix("1\n1\n")
        assert exc.value.line == 2
        with pytest.raises(FileFormatError):
            parse_matrix("1\n1,2,3\n")

    def test_bad_literal_names_line(self):
        with pytest.raises(FileFormatError) as exc:
            parse_matrix("2\n1,0 0,0\n0,0 0,oops\n")
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_bad_side(self):
        with pytest.raises(FileFormatError):
            parse_matrix("zero\n")
        with pytest.raises(FileFormatError):
            parse_matrix("0\n")

    def test_empty(self):
        with pytest.raises(FileFormatError):
            parse_matrix("")

    def test_rejects_infinite_entry(self):
        with pytest.raises(FileFormatError):
            parse_matrix("1\ninf,0\n")


class TestCoefficientFiles:
    def test_known_form(self):
        c = CoefficientTensor(2, {(3, 0): 1j, (0, 0): 1.0})
        assert format_coefficients(c) == "2\n00 1 0\n30 0 1\n"

    def test_zero_tensor(self):
        assert format_coefficients(CoefficientTensor(3, {})) == "3\n"
        assert parse_coefficients("3\n").coeffs == {}

    @given(coefficient_tensors(max_m=4))
    def test_round_trip_bit_identical(self, c):
        text = format_coefficients(c)
        back = parse_coefficients(text)
        assert back.m == c.m
        assert set(back.coeffs) == set(c.coeffs)
        for idx, v in c.coeffs.items():
            w = back.coeffs[idx]
            assert bit_equal(v.real, w.real) and bit_equal(v.imag, w.imag)
        # canonical: a second print is byte-identical
        assert format_coefficients(back) == text

    def test_output_sorted(self, rng):
        c = decompose(random_complex_matrix(rng, 4), 0.0)
        lines = format_coefficients(c).splitlines()[1:]
        keys = [line.split()[0] for line in lines]
        assert keys == sorted(keys)

    def test_duplicate_index(self):
        with pytest.raises(FileFormatError) as exc:
            parse_coefficients("1\n2 1 0\n2 0 1\n")
        assert exc.value.line == 3

    def test_wrong_digit_count(self):
        with pytest.raises(FileFormatError) as exc:
            parse_coefficients("2\n012 1 0\n")
        assert exc.value.line == 2

    def test_bad_digit(self):
        with pytest.raises(FileFormatError):
            parse_coefficients("1\n4 1 0\n")

    def test_wrong_field_count(self):
        with pytest.raises(FileFormatError):
            parse_coefficients("1\n2 1\n")

    def test_largest_order_round_trip(self):
        text = "32\n" + "0" * 32 + " 1 0\n" + "3" * 32 + " -0 2.5\n"
        assert format_coefficients(parse_coefficients(text)) == text

    def test_order_above_limit(self):
        with pytest.raises(DimensionError):
            parse_coefficients("33\n")
        with pytest.raises(DimensionError):
            parse_coefficients("40\n" + "1" * 40 + " 1 0\n")

    def test_bad_order_line(self):
        with pytest.raises(FileFormatError):
            parse_coefficients("zero\n")
        with pytest.raises(FileFormatError):
            parse_coefficients("0\n")


@pytest.mark.parametrize("parse", [parse_matrix, parse_coefficients])
@pytest.mark.parametrize("header", ["\u0662", "1" * 5000],
                         ids=["arabic-indic-digit", "5000-digits"])
def test_header_rejected_on_line_one(parse, header):
    with pytest.raises(FileFormatError) as exc:
        parse(header + "\n")
    assert exc.value.line == 1


class TestQVectorFiles:
    def test_round_trip(self):
        q = QVector((1.0, -2.5, 0.0), (0.25, 0.0, 3.0))
        assert parse_qvector(format_qvector(q)) == q

    def test_known_form(self):
        q = QVector((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert format_qvector(q) == "1 0 0 0 0 0\n"

    def test_wrong_count(self):
        with pytest.raises(FileFormatError):
            parse_qvector("1 2 3 4 5\n")

    def test_extra_line(self):
        with pytest.raises(FileFormatError) as exc:
            parse_qvector("1 2 3 4 5 6\n7 8\n")
        assert exc.value.line == 2

    def test_empty(self):
        with pytest.raises(FileFormatError):
            parse_qvector("\n")
