import math
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (CoefficientTensor, DimensionError, DomainError,
                     FileFormatError, QVector, decompose, fileio)
from pauligl.fileio import (format_coefficients, format_matrix, format_qvector,
                            format_real, parse_coefficients, parse_matrix,
                            parse_qvector, parse_real_literal)

from conftest import coefficient_tensors, random_complex_matrix
from reference import (reference_format_coefficients, reference_format_matrix,
                       reference_format_real, reference_parse_coefficients,
                       reference_parse_matrix)


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

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_format_rejects_non_matrix(self, shape):
        with pytest.raises(TypeError):
            format_matrix(np.zeros(shape))

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

    def test_short_file_is_refused_before_the_array_is_made(self):
        # 8 KB of text cannot hold the 2000 x 2000 entries its header
        # claims, so the 64 MB array is never made
        n = 2000
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError,
                               match=f"^line 2: expected {n} entries, found 1$"):
                parse_matrix(f"{n}\n" + "0,0\n" * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


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


# -- differential tests against the per-token loops in reference.py ---------

SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    1e-5, 1e-4, 0.1, 0.5, 1.0, -3.0, 123456.75,
    1e15, 1e15 + 0.5, 1e15 + 1, 1e16 - 2, 1e16, 1e16 + 2, -1e16, 1e17,
    2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 53), 2.0 ** 63, 1.5e16, 9.5e15,
]
ALL_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(),
                       st.integers(-2 ** 60, 2 ** 60).map(float))
FINITE_FLOATS = ALL_FLOATS.filter(math.isfinite)


def outcome(parse, text):
    """The bits of what parse returns, or the type, message and line it raises."""
    try:
        got = parse(text)
    except (FileFormatError, DimensionError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    if isinstance(got, np.ndarray):
        return got.shape, got.view(np.uint64).tolist()
    return got.m, got.codes.tolist(), got.values.view(np.uint64).tolist()


def assert_parses_alike(parse, reference, text, block_chars=None):
    want = outcome(reference, text)
    if block_chars is None:
        block_chars = fileio._BLOCK_CHARS
    with mock.patch.object(fileio, "_BLOCK_CHARS", block_chars):
        assert outcome(parse, text) == want


def assert_formats_like(fmt, reference, x, finite):
    """The reference writer's text for finite input; non-finite input, which
    no reader accepts, is refused."""
    if finite:
        assert fmt(x) == reference(x)
    else:
        with pytest.raises(DomainError, match="non-finite"):
            fmt(x)


NON_FINITE = [math.inf, -math.inf, math.nan, complex(0, math.inf),
              complex(math.nan, 1)]


class TestWritersRefuseNonFinite:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_format_matrix_names_the_entry(self, bad):
        a = np.eye(2, dtype=complex)
        a[1, 0] = bad
        with pytest.raises(DomainError,
                           match=r"^cannot write the non-finite matrix entry at \(1, 0\)"):
            format_matrix(a)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_coefficient_tensors_hold_only_finite_values(self, bad):
        # which is why format_coefficients needs no check of its own
        with pytest.raises(DomainError, match="non-finite coefficient at"):
            CoefficientTensor(1, {(1,): bad})
        with pytest.raises(DomainError, match="non-finite coefficient at"):
            CoefficientTensor._from_codes(1, np.array([1], dtype=np.uint64),
                                          np.array([bad], dtype=complex), 0.0)
        c = CoefficientTensor(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            c.values[0] = bad


class TestFormatMatchesReference:
    @given(ALL_FLOATS)
    def test_format_real(self, x):
        assert_formats_like(format_real, reference_format_real, x,
                            math.isfinite(x))

    @pytest.mark.parametrize("x", SPECIAL_FLOATS + [math.inf, -math.inf, math.nan])
    def test_format_real_special(self, x):
        assert_formats_like(format_real, reference_format_real, x,
                            math.isfinite(x))

    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(ALL_FLOATS, min_size=2 * n * n, max_size=2 * n * n)))
    def test_format_matrix(self, reals):
        n = math.isqrt(len(reals) // 2)
        a = np.array(reals).view(complex).reshape(n, n)
        finite = bool(np.isfinite(a).all())
        assert_formats_like(format_matrix, reference_format_matrix, a, finite)
        # a strided view formats as its contents
        assert_formats_like(format_matrix, reference_format_matrix, a.T, finite)

    @given(st.integers(1, 4).flatmap(lambda m: st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * m),
        st.builds(complex, FINITE_FLOATS, FINITE_FLOATS), max_size=40)),
        st.sampled_from([1, 3, 4096]))
    def test_format_coefficients(self, coeffs, block_lines):
        m = len(next(iter(coeffs), (0,)))
        c = CoefficientTensor(m, coeffs, tol=0.0)
        with mock.patch.object(fileio, "_BLOCK_LINES", block_lines):
            assert format_coefficients(c) == reference_format_coefficients(c)

    def test_format_coefficients_over_blocks(self, rng):
        c = decompose(random_complex_matrix(rng, 128), 0.0)
        assert len(c.codes) > 2 * fileio._BLOCK_LINES
        assert format_coefficients(c) == reference_format_coefficients(c)


GOOD_REALS = ["0", "-0", "+1", "1.5", "-2.25e-3", ".5", "5.", "1E3", "0.1",
              "123456789012345678901234567890", "5e-324", "1e-400",
              "1.7976931348623157e308"]
BAD_REALS = ["inf", "-inf", "nan", "1e400", "-1e400", "1_0", "\u0661",
             "\u0661.\u0665", "x", "", "1e", "e5", "0x1p3", "1.2.3", "+-1", "."]
# every character str.split() splits on, including the ones that also end
# a line for str.splitlines()
SEPARATORS = [chr(c) for c in range(0x3001) if chr(c).isspace()] + ["  ", " \t "]
IN_LINE = [sep for sep in SEPARATORS if len(f"a{sep}b".splitlines()) == 1]

good_reals = st.sampled_from(GOOD_REALS)
any_reals = st.one_of(good_reals, st.sampled_from(BAD_REALS))
separators = st.one_of(st.just(" "), st.sampled_from(IN_LINE),
                       st.sampled_from(SEPARATORS))


def rare(draw):
    """True about one time in eight."""
    return draw(st.integers(0, 7)) == 7


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(1, 4))
    rows = [[f"{draw(good_reals)},{draw(good_reals)}" for _ in range(n)]
            for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, len(row)))
        bad = draw(st.one_of(
            st.builds("{},{}".format, any_reals, any_reals),
            st.sampled_from(["1", "1,2,3", ",", "1,,2", ",1", "1,", "1 ,2",
                             ",1 2,", "1,2,3 4", "\u0661,0"])))
        if draw(st.booleans()) and col < len(row):
            row[col] = bad
        else:
            row.insert(col, bad)
    lines = [draw(st.sampled_from([f"+{n}", f"0{n}", str(n + 1), "0", "-1", "x",
                                   "\u0662"])) if rare(draw) else str(n)]
    lines += [draw(separators).join(r) for r in rows]
    if rare(draw):
        del lines[draw(st.integers(1, len(lines) - 1))]
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\n \n"]))
    return text


@st.composite
def coefficient_texts(draw):
    m = draw(st.integers(1, 3))
    indices = draw(st.lists(st.text("0123", min_size=m, max_size=m),
                            max_size=12, unique=True))
    lines = [[i, draw(good_reals), draw(good_reals)] for i in indices]
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        field = draw(st.integers(0, 3))
        if field == 0:
            lines[k][0] = draw(st.one_of(
                st.sampled_from([lines[0][0], "0" * (m + 1), "4" * m, "9" * m,
                                 "\u0661" * m, "x"]),
                st.text("0123456789", min_size=m, max_size=m)))
        elif field == 3:
            lines[k] = lines[k][:draw(st.integers(0, 4))] + ["0"] * 2
        else:
            lines[k][field:field + 1] = [draw(any_reals)]
    text = draw(st.sampled_from([f"+{m}", "0", "33", "x"])) if rare(draw) else str(m)
    text += "\n"
    text += "".join(draw(separators).join(line) + "\n" for line in lines)
    return text


class TestParseMatchesReference:
    @given(matrix_texts(), st.sampled_from([0, 1, 10, 40, None]))
    def test_parse_matrix(self, text, block_chars):
        assert_parses_alike(parse_matrix, reference_parse_matrix, text,
                            block_chars)

    @given(coefficient_texts(), st.sampled_from([0, 1, 10, 40, None]))
    def test_parse_coefficients(self, text, block_chars):
        assert_parses_alike(parse_coefficients, reference_parse_coefficients,
                            text, block_chars)

    MATRIX_CORPUS = [
        "2\n1,2,3 4\n0,0 0,0\n",
        "2\n1 ,2 0,0\n0,0 0,0\n",
        "2\n,1 2,\n0,0 0,0\n",
        "1\ninf,0\n", "1\n0,nan\n", "1\n1e400,0\n", "1\n1_0,0\n",
        "1\n\u0661,0\n", "2\n0,0\t1,1\n2,2\xa03,3\n",
        "2\n0,0\x1f1,1\n2,2 3,3\n", "2\n0,0 1,1\n2,2 3,3 \n\n",
        "2\n0,0 0,x\n0,0 1e400,0\n",
        "2\r\n1,0 0,0\r\n0,0 1,0\r\n", "2\r1,0 0,0\x1c0,0 1,0\u2028\n",
        "2\n1,0 0,0\n\n0,0 1,0\n", "1\n\n1,0\n", "1\n1,0\n \n\t\x0b\x0c\r\n\n",
        "", "\n", " \n\r\n", "1", "1\n1,0",
        # a bad last entry after many good ones
        "1\n" + "1" * 40 + ",0\n",
        "4\n" + "1234,5678 " * 3 + "x,1\n" + "0,0 0,0 0,0 0,0\n" * 3,
        # too short for 4 characters per entry, so checked on one row of
        # scratch: good rows before the bad one, and a non-finite entry
        "3\n0,0 0,0 0,0\n0,0 0,0 0,0\n0,0\n", "3\n1e999,0 0,0 0,0\n0\n0\n",
        # the shortest file of side 2, which fits
        "2\n0,0 0,0\n0,0 0,0",
    ]

    @pytest.mark.parametrize("block_chars", [0, 10, None])
    @pytest.mark.parametrize("text", MATRIX_CORPUS)
    def test_matrix_corpus(self, text, block_chars):
        assert_parses_alike(parse_matrix, reference_parse_matrix, text,
                            block_chars)

    COEFFICIENT_CORPUS = [
        "1\n4 1 0\n", "2\n19 1 0\n", "2\n012 1 0\n", "2\n0 1 0\n",
        "1\n\u0661 1 0\n", "1\n1 1,0 0\n", "1\n1 inf 0\n", "1\n1 0 nan\n",
        "1\n1 1e400 0\n", "1\n1 1_0 0\n", "1\n2\t1\xa00\n3\x1f0 1\n",
        "1\n2 1 0\n2 0 1\n", "1\n2 1 0\n2 x 1\n", "1\n2 x 0\n2 0 1\n",
        "1\n2 1 0\n\n3 0 1\n", "1\n3 1 0\n2 1 0\n1 1 0\n",
        "1\r\n1 1 0\r\n2 0 1\r\n", "1\n1 1 0\x1c2 0 1\r3 0 0\n",
        "1\n\n1 1 0\n", "1\n1 1 0\n \n\n", "", "\n\n", " \t\n", "1", "1\n",
        "1\n1 1\t \n\n", "1\n1 1\xa0\x1f",
        "2\n00 1 0\n01 1 0\n00 x 0\n", "2\n00 1 0\n01 1 0\n01 1 0\n02 x\n",
    ]

    @pytest.mark.parametrize("block_chars", [0, 10, None])
    @pytest.mark.parametrize("text", COEFFICIENT_CORPUS)
    def test_coefficient_corpus(self, text, block_chars):
        assert_parses_alike(parse_coefficients, reference_parse_coefficients,
                            text, block_chars)


def long_coefficient_lines(rng, count):
    """count distinct m=8 lines in a shuffled order, with digit strings."""
    codes = rng.permutation(4 ** 8)[:count]
    indices = [np.base_repr(int(k), 4).zfill(8) for k in codes]
    return indices, [f"{i} {k} -{k}.5" for k, i in enumerate(indices)]


class TestLongCoefficientFiles:
    """Files longer than one block, at the real block size."""

    @pytest.fixture
    def body(self, rng):
        return long_coefficient_lines(rng, 2 * fileio._BLOCK_LINES + 100)

    def check(self, lines, line=None):
        text = "8\n" + "\n".join(lines) + "\n"
        want = outcome(reference_parse_coefficients, text)
        assert outcome(parse_coefficients, text) == want
        if line is not None:
            assert want[0] == "FileFormatError" and want[2] == line

    def test_valid(self, body):
        self.check(body[1])

    def test_duplicate_of_an_earlier_block(self, body):
        indices, lines = body
        lines[5000] = lines[10]
        self.check(lines, line=5002)

    def test_duplicate_before_a_later_format_error(self, body):
        indices, lines = body
        lines[100] = lines[50]
        lines[6000] = "bad line"
        self.check(lines, line=102)

    def test_format_error_before_a_later_duplicate(self, body):
        indices, lines = body
        lines[100] = "bad line"
        lines[6000] = lines[50]
        self.check(lines, line=102)

    def test_duplicate_inside_the_failing_block(self, body):
        indices, lines = body
        lines[4500] = lines[10]
        lines[4600] = f"{indices[4600]} inf 0"
        self.check(lines, line=4502)


def test_bad_row_fails_in_linear_time(tmp_path):
    # The row and block patterns repeat the real-literal pattern once per
    # token; with an ambiguous literal pattern a bad last token would take
    # exponential time to reject, so this run would not end.
    script = textwrap.dedent("""
        import numpy as np
        import pytest
        from pauligl import FileFormatError
        from pauligl.fileio import parse_coefficients, parse_matrix
        n = 64
        with pytest.raises(FileFormatError, match="line 2: not a decimal"):
            parse_matrix(f"{n}\\n" + "1234,5678 " * (n - 1) + "x,1\\n"
                         + "0,0\\n" * (n - 1))
        n = 4096
        with pytest.raises(FileFormatError, match=f"line {n + 1}: not a"):
            parse_coefficients("7\\n" + "".join(
                f"{np.base_repr(k, 4):0>7} 1234 5678\\n" for k in range(n - 1))
                + "3333333 1234 x\\n")
    """)
    proc = subprocess.run([sys.executable, "-c", script], timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind", ["matrix", "coefficients"])
def test_peak_memory_of_an_m8_round_trip(rng, kind):
    a = random_complex_matrix(rng, 256)
    if kind == "matrix":
        text, parse, fmt = format_matrix(a), parse_matrix, format_matrix
    else:
        text = format_coefficients(decompose(a, 0.0))
        parse, fmt = parse_coefficients, format_coefficients
    tracemalloc.start()
    try:
        parsed = parse(text)
        assert fmt(parsed) == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = parsed.nbytes if kind == "matrix" else (
        parsed.codes.nbytes + parsed.values.nbytes)
    # The output text, the pieces it is joined from and the parsed arrays,
    # plus one block of line and token objects.  Splitting or formatting
    # the whole file at once holds two to three times more.
    assert peak < 2 * len(text) + nbytes + 2 * 2 ** 20
