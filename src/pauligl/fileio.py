"""Text file formats for matrices, coefficient tensors, and vector pairs.

Three formats, all line-oriented ASCII:

  matrix file       first line: side N >= 1; then N rows of N tokens "re,im"
  coefficient file  first line: tensor order m; then zero or more lines
                    "D re im" where D is m digits, each in 0..3
  vector-pair file  one line "a1 a2 a3 b1 b2 b3"

Reals print as repr prints them (the shortest decimal that reads back),
with integral values printed as bare integers ("1", not "1.0") and
negative zero kept as "-0".  Coefficient files are written sorted by
digit string with near-zero entries already pruned, so equal tensors
produce byte-identical files.  A writer refuses what its reader refuses:
inf and nan with DomainError (a CoefficientTensor never holds them), and
a matrix that is not square or has side 0 with DimensionError.

The writer finds the digits of a block of reals with Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020; JDK 19's
Double.toString) in exact uint64 array arithmetic, changed to match repr:
one digit fewer is tried whenever s >= 10 (the JDK's s >= 100 writes
5e-324 as 4.9e-324), and that branch, too, uses the exponent k + dk.

Files are read and written a block of lines at a time.  Byte operations
check that a block is laid out as the writers lay it out (ASCII, literal
characters between single separators, for a matrix row the bytes of _row
that the writer tiles); a block that is not is re-spaced once (each line's
fields joined by single spaces) and checked again.  A literal, in a block
or alone, is spelled with _LITERAL's characters only, over which float()
accepts exactly the literal grammar.  A block that fails is walked a line
at a time to find its first error.  Parse errors raise FileFormatError
carrying the 1-based line number of the first error in line order, with
one exception: a matrix file with the wrong number of rows reports the
count first, at the line of the first extra or missing row, before any
row is read.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .algebra import code_digits
from .decomposition import CoefficientTensor, _checked_order
from .errors import DimensionError, DomainError, FileFormatError
from .symmetry import QVector

__all__ = [
    "format_real",
    "parse_real_literal",
    "format_matrix",
    "parse_matrix",
    "format_coefficients",
    "parse_coefficients",
    "format_qvector",
    "parse_qvector",
]

# The characters of a real literal, over which float() accepts exactly the
# grammar [+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?.  Deleting them
# from a block laid out as the writers lay it out leaves its separators.
_LITERAL = b"0123456789+-.eE"

# Files are read in blocks of about this many characters, cut after a
# newline, and written this many lines, or matrix rows holding about twice
# as many reals, at a time.  Either bounds what is alive at once to a block.
_BLOCK_CHARS = 1 << 15
_BLOCK_LINES = 4096


# -- the writer --------------------------------------------------------------

_NSIG = 17  # the most significant digits a double needs
# a value's row of bytes: digit j of its 18-digit significand in column
# 2 + j (columns 0 and 1 hold "0"), the sign, the separator after it, ".",
# "e", the exponent's sign and three digits, and a 0 that the text drops
_ZERO, _SIGN, _SEP, _DOT, _E, _EXP, _PAD = 0, 20, 21, 22, 23, 24, 28


def _template(cls: int, n: int) -> list:
    """The 25 columns written for n significant digits in class cls (_slots)."""
    digits, p = list(range(2, 2 + n)), cls - 3
    if cls >= 20:  # exponent form
        body = (digits[:1] + [_DOT] * (n > 1) + digits[1:] + [_E, _EXP]
                + list(range(_EXP + 2 - (cls & 1), _EXP + 4)))
    elif p <= 0:
        body = [_ZERO, _DOT] + [_ZERO] * -p + digits
    else:  # an integral value has no ".0"
        body = digits[:p] + [_ZERO] * (p - n) + [_DOT] * (p < n) + digits[p:]
    return ([_SIGN] + body + [_SEP] + [_PAD] * 25)[:25]


@functools.cache
def _tables() -> tuple:
    """The writer's tables, built on its first use: Schubfach's
    g = floor(10^-k * 2^-r) + 1, 2^125 <= g - 1 < 2^126, for k = -324..292,
    as g >> 63 and g mod 2^63; 10^0..10^18; the ASCII digits of 0..9999 as
    uint32s and the place (1..4, 0 for 0) of their last nonzero digit; the
    sign and digits of the exponents -324..308; and the templates."""
    g = []
    for k in range(-324, 293):
        r = ((-k * 913124641741) >> 38) - 125  # floor(log2(10^-k)) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    g = np.array(g, dtype=object)
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    exponent = "".join(f"{e:+04}" for e in range(-324, 309)).encode()
    templates = np.array([_template(key // _NSIG, key % _NSIG + 1)
                          for key in range(22 * _NSIG)], dtype=np.intp)
    return (np.array(g >> 63, dtype=np.uint64), np.array(g & (2 ** 63 - 1), dtype=np.uint64),
            10 ** np.arange(19, dtype=np.uint64), digits.view(np.uint32).ravel(),
            np.select(list(digits.T[::-1] > 48), [4, 3, 2, 1]).astype(np.uint8),
            np.frombuffer(exponent, dtype=np.uint32), templates)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: g * cp / 2^127 for g = g1 * 2^63 + g0, rounded to odd."""
    b1, b0 = cp >> 32, cp & 0xFFFFFFFF

    def high(a):  # the high 64 bits of a * cp, for a < 2^63 and cp < 2^59
        a1, a0 = a >> 32, a & 0xFFFFFFFF
        return a1 * b1 + ((a1 * b0 + a0 * b1 + (a0 * b0 >> 32)) >> 32)
    z = (g1 * cp >> 1) + high(g0)
    return high(g1) + (z >> 63) | ((z & (2 ** 63 - 1)) + (2 ** 63 - 1)) >> 63


def _shortest(bits: np.ndarray) -> tuple:
    """Schubfach's decimal d * 10^e of each nonzero finite double, given as
    its uint64 bits: d has the fewest digits that read back, and is the
    nearest of those.  No int64 array meets a uint64 one: numpy makes float64."""
    g1, g0 = _tables()[:2]
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    t = bits & (2 ** 52 - 1)
    tiny = (bq == 0) & (t < 3)  # a subnormal c < 3 is scaled by 10, dk = -1
    irregular = (t == 0) & (bq > 1)  # c = 2^52 above the least exponent
    c = np.where(bq > 0, t | 2 ** 52, np.where(tiny, t * 10, t))
    q = np.maximum(bq, 1) - 1075
    del bq, t  # a block's arrays are kept few, as its scratch is bounded
    # k = floor(log10(2^q)), or floor(log10(3/4 * 2^q)) where irregular
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    del q
    g1, g0 = g1[k + 324], g0[k + 324]
    cb = c << 2
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, cb - 2 + irregular << h)
    vbr = _rop(g1, g0, cb + 2 << h)
    out = c & 1
    vbl += out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    shorter = (s >= 10) & (upin != ((sp10 << 2) + 40 + out <= vbr))
    uin = vbl <= s << 2
    win = (s << 2) + 4 + out <= vbr
    # both in range: the nearer, s on a tie when s is even
    mid = (s << 2) + 2
    above = (vb > mid) | ((vb == mid) & (s & 1 == 1))
    d = np.where(shorter, np.where(upin, sp10, sp10 + 10),
                 s + np.where(uin != win, win, above))
    return d, k - tiny


def _slots(reals: np.ndarray, seps) -> np.ndarray:
    """(len(reals), 25) uint8: the text of each real, then its separator seps
    (one byte, or one per real), padded with 0 bytes."""
    _, _, pow10, chunk, last, exponent, templates = _tables()
    bits = reals.view(np.uint64)
    zero = bits << 1 == 0
    d, e = _shortest(np.where(zero, 0x3FF0000000000000, bits))  # 0 as 1.0
    nd = np.searchsorted(pow10, d, side="right")  # digits of d
    decpt = nd + e
    # d with 0s appended to 18 digits, in chunks of 2, 4, 4, 4 and 4 digits
    d *= pow10[18 - nd]
    del e, nd
    chunks = np.empty((5, len(d)), dtype=np.intp)
    for j, place in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        chunks[j] = high = d // place
        d -= high * place  # not d % place, which is slow on uint64
    chunks[4] = d
    del d, high
    rows = np.zeros((len(decpt), 32), dtype=np.uint8)
    rows.view(np.uint32)[:, :5] = chunk[chunks.T]
    rows[zero, 2] = ord("0")
    rows[:, _SIGN] = (bits >> 63).astype(np.uint8) * ord("-")
    rows[:, _SEP] = seps
    rows[:, _DOT:_EXP] = (ord("."), ord("e"))
    rows.view(np.uint32)[:, _EXP // 4] = exponent[decpt + 323]
    # the significant digits run to the last chunk with a nonzero digit
    places = last[chunks]
    del chunks
    places += np.arange(0, 20, 4, dtype=np.uint8)[:, None] * (places > 0)
    nsig = places.max(axis=0) - 2
    # class: decpt + 3 in fixed form, else 20 + (3 exponent digits)
    cls = np.where((decpt > -4) & (decpt < 17), decpt + 3,
                   20 + ((decpt < -98) | (decpt > 100)))
    key = cls * _NSIG + nsig - 1
    out = np.empty((len(key), 25), dtype=np.uint8)
    for start in range(0, len(key), 1024):  # 200 KiB of indices at a time
        index = templates[key[start:start + 1024]]
        index += np.arange(32 * start, 32 * start + 32 * len(index), 32)[:, None]
        np.take(rows.ravel(), index, out=out[start:start + 1024])
    return out


def _text(head: str, blocks) -> str:
    """head, then the text of each block of rows of _slots, less its 0s."""
    return "".join(itertools.chain([head], (
        str(rows[rows != 0].data, "ascii") for rows in blocks)))


def _write_reals(reals: list, seps) -> str:
    """The text of a list of floats, each followed by its separator."""
    for x in reals:
        if not math.isfinite(x):
            raise DomainError(f"cannot write the non-finite value {x!r}")
    return _text("", [_slots(np.array(reals, dtype=float), seps)])


def format_real(x: float) -> str:
    return _write_reals([float(x)], 0)


def parse_real_literal(token: str) -> float:
    """Strict decimal-literal parse; rejects inf, nan, and underscores."""
    try:
        if token.translate(dict.fromkeys(_LITERAL)):  # a character no literal has
            raise ValueError
        value = float(token)
    except ValueError:
        raise ValueError(f"not a decimal literal: {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value: {token!r}")
    return value


def _parse_real(token: str, line: int) -> float:
    try:
        return parse_real_literal(token)
    except ValueError as exc:
        raise FileFormatError(str(exc), line=line) from None


def _parse_int(token: str, line: int | None, what: str) -> int:
    """int(token) for one optional sign, then ASCII digits."""
    digits = token[1:] if token.startswith(("+", "-")) else token
    if not (digits.isascii() and digits.isdigit()):
        raise FileFormatError(f"{what} must be an integer, got {token!r}", line=line)
    try:
        return int(token)
    except ValueError:
        # above sys.get_int_max_str_digits() digits
        raise FileFormatError(
            f"{what} has {len(token)} characters, too many for an integer",
            line=line) from None


def _line(text: str, start: int, keepends: bool) -> str:
    """The line of text that begins at start, with or without its break."""
    end = text.find("\n", start) + 1 or len(text)
    return text[start:end].splitlines(keepends)[0]


def _content_end(text: str) -> int:
    """The end of the last non-space character of text, 0 if it has none."""
    # str.rstrip() copies what it keeps, so it strips 4096 characters at a time
    stop = len(text)
    while stop and text[stop - 1].isspace():
        start = max(stop - 4096, 0)
        stop = start + len(text[start:stop].rstrip())
    return stop


def _line_blocks(text: str):
    """Yield the lines of text.splitlines(), without its trailing blank
    lines and the blanks that end its last line, in blocks of text.

    Each block is the whole lines of about _BLOCK_CHARS characters of text,
    ending with "\n" (added to the last line), so the lines of the whole
    text never exist at once.
    """
    stop = _content_end(text)
    pos = 0
    while pos < stop:
        # a newline always ends a line, also as the second half of "\r\n"
        cut = text.find("\n", pos + _BLOCK_CHARS, stop)
        end = stop if cut < 0 else cut + 1
        yield text[pos:end] + ("\n" if end == stop else "")
        pos = end


def _header(text: str, what: str) -> tuple:
    """The stripped first line of a `what` file, and the blocks of the
    lines after it (_line_blocks)."""
    blocks = _line_blocks(text)
    first = next(blocks, None)
    if first is None:
        raise FileFormatError(f"empty {what} file", line=1)
    head = _line(first, 0, True)
    return head.strip(), itertools.chain([first[len(head):]], blocks)


def _canonical_lines(block: str, line: bytes) -> int | None:
    """The number of lines of block if they are laid out as the writers lay
    them out, else None: ASCII, each with the separators of `line` (", ,\n"
    for the row "1,0 0,-1\n") between literal characters.  The literals
    may still be empty or malformed."""
    if not block.isascii():
        return None
    layout = block.encode("ascii").translate(None, _LITERAL)
    count = len(layout) // len(line)
    return count if layout == line * count else None


def _spaced(block: str) -> str:
    """block with each line's fields joined by single spaces and ended by
    "\n": the separators the writers write, if it has the right fields."""
    return "".join(" ".join(raw.split()) + "\n" for raw in block.splitlines())


def _fields(block: str, line: bytes) -> list | None:
    """The literals of a block whose lines are laid out as `line`
    (_canonical_lines), re-spaced once first if they are not.  None if they
    still are not, or if a literal is empty."""
    count = _canonical_lines(block, line)
    if count is None:
        block = _spaced(block)
        count = _canonical_lines(block, line)
        if count is None:
            return None
    literals = block.replace(",", " ").split()
    # each separator ends one literal, so an empty literal leaves fewer
    return literals if len(literals) == count * len(line) else None


def _finite_reals(literals: list) -> np.ndarray | None:
    """The literals, each spelled with _LITERAL's characters only, as
    floats; None unless each is a finite real."""
    try:
        reals = np.fromiter(map(float, literals), float, len(literals))
    except ValueError:
        return None
    return reals if np.isfinite(reals).all() else None


def _row(n: int) -> bytes:
    """The separators of a matrix row of n entries, one after each real."""
    return b", " * (n - 1) + b",\n"


def format_matrix(matrix) -> str:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise TypeError(f"expected a 2-D matrix, got {a.ndim} dimensions")
    n = len(a)
    if a.shape != (n, n) or not n:
        raise DimensionError(f"cannot write a {a.shape[0]} x {a.shape[1]} matrix: "
                             "a matrix file holds a square one of side >= 1")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise DomainError(
            f"cannot write the non-finite matrix entry at ({i}, {j}): {a[i, j]}")
    # whole rows of ~2 * _BLOCK_LINES reals
    per = max(1, _BLOCK_LINES // n)
    seps = np.tile(np.frombuffer(_row(n), dtype=np.uint8), per)
    blocks = (_slots(reals, seps[:len(reals)]) for reals in (
        np.ascontiguousarray(a[start:start + per]).view(float).ravel()
        for start in range(0, n, per)))
    return _text(f"{n}\n", blocks)


def _raise_row_error(block: str, n: int, first: int) -> int:
    """Raise the first error of a block of matrix rows, the first on line
    `first`, in the order the rows are read; if there is none, return the
    number of rows."""
    rows = block.splitlines()
    for lineno, raw in enumerate(rows, start=first):
        tokens = raw.split()
        if len(tokens) != n:
            raise FileFormatError(
                f"expected {n} entries, found {len(tokens)}", line=lineno)
        for token in tokens:
            parts = token.split(",")
            if len(parts) != 2:
                raise FileFormatError(
                    f"entry must be 're,im', got {token!r}", line=lineno)
            _parse_real(parts[0], lineno)
            _parse_real(parts[1], lineno)
    return len(rows)


def parse_matrix(text: str) -> np.ndarray:
    head, body = _header(text, "matrix")
    n = _parse_int(head, 1, "matrix side")
    if n < 1:
        raise FileFormatError(f"matrix side must be >= 1, got {n}", line=1)
    # a valid file spends 4 characters or more per entry ("0,0" and a
    # separator); a shorter one has a bad row, which the walk finds without
    # the n x n array
    fits = len(text) >= 4 * n * n
    line = _row(n) if fits else None
    found = sum(len(block.splitlines()) for block in body)
    if found != n:
        bad = found + 2 if found < n else n + 2
        raise FileFormatError(f"expected {n} rows, found {found}", line=bad)
    out = np.empty((n if fits else 0, n), dtype=complex)
    reals = out.view(float)  # row i holds re, im, re, im, ... of matrix row i
    i = 0  # rows read
    for block in _header(text, "matrix")[1]:
        literals = _fields(block, line) if fits else None
        rows = None if literals is None else _finite_reals(literals)
        if rows is None:
            # the walk returns past a block of good rows, which fails the
            # checks only in a file too short to fit (it is not checked)
            first, i = i + 2, i + _raise_row_error(block, n, i + 2)
            if fits:
                raise AssertionError(f"line {first}: block check and row checks disagree")
            continue
        reals[i:i + len(rows) // (2 * n)] = rows.reshape(-1, 2 * n)
        i += len(rows) // (2 * n)
    return out


def _digit_strings(codes: np.ndarray, m: int) -> list:
    """The m-digit index string of each code."""
    # one m-character string per code, from its digit bytes
    digits = code_digits(codes, m) + ord("0")
    return digits.view(f"S{m}").astype(str).ravel().tolist()


def format_coefficients(c: CoefficientTensor) -> str:
    seps = np.tile(np.frombuffer(b" \n", dtype=np.uint8), _BLOCK_LINES)

    def blocks():  # each line is "D ", then the two reals
        for start in range(0, len(c.codes), _BLOCK_LINES):
            index = code_digits(c.codes[start:start + _BLOCK_LINES], c.m) + ord("0")
            reals = c.values[start:start + _BLOCK_LINES].view(float)
            yield np.hstack((np.pad(index, ((0, 0), (0, 1)), constant_values=ord(" ")),
                             _slots(reals, seps[:len(reals)]).reshape(len(index), -1)))
    return _text(f"{c.m}\n", blocks())


def _check_distinct(codes: np.ndarray, m: int) -> None:
    """Raise on the earliest line whose index an earlier line already has.

    codes[k] was read from line k + 2.
    """
    if not np.any(codes[1:] <= codes[:-1]):
        return
    order = np.argsort(codes, kind="stable")
    repeats = np.flatnonzero(codes[order[1:]] == codes[order[:-1]]) + 1
    if repeats.size:
        # a stable sort keeps equal codes in line order, so the earliest
        # repeating line is the smallest position that follows a tie
        k = int(order[repeats].min())
        digits = _digit_strings(codes[k:k + 1], m)[0]
        raise FileFormatError(f"duplicate index {digits}", line=k + 2)


def _raise_block_error(block: str, first: int, m: int, codes: np.ndarray):
    """Raise the first error of a block of lines, the first on line `first`.

    codes holds the indices of every earlier line, which were all read
    without error; so an index they repeat comes first.
    """
    _check_distinct(codes, m)
    seen = set(codes.tolist())
    for lineno, raw in enumerate(block.splitlines(), start=first):
        parts = raw.split()
        if len(parts) != 3:
            raise FileFormatError(
                f"expected 'INDEX re im', got {raw!r}", line=lineno)
        digits = parts[0]
        if len(digits) != m or digits.strip("0123"):
            raise FileFormatError(
                f"index must be {m} digits in 0..3, got {digits!r}", line=lineno)
        code = int(digits, 4)
        if code in seen:
            raise FileFormatError(f"duplicate index {digits}", line=lineno)
        seen.add(code)
        _parse_real(parts[1], lineno)
        _parse_real(parts[2], lineno)
    raise AssertionError(f"line {first}: block check and line checks disagree")


def _coefficient_lines(fields: list, m: int) -> tuple | None:
    """The index digits and the reals of lines given as their fields
    (index, re, im of each line in turn), or None unless each index is m
    digits in 0..3 and each real is finite."""
    index = fields[0::3]
    if set(map(len, index)) - {m}:
        return None
    index = "".join(index).encode("ascii")
    if index.translate(None, b"0123"):
        return None
    del fields[0::3]
    reals = _finite_reals(fields)
    if reals is None:
        return None
    return np.frombuffer(index, dtype=np.uint8).reshape(-1, m) - ord("0"), reals


def parse_coefficients(text: str) -> CoefficientTensor:
    head, body = _header(text, "coefficient")
    m = _parse_int(head, 1, "tensor order")
    if m < 1:
        raise FileFormatError(f"tensor order must be >= 1, got {m}", line=1)
    _checked_order(m)
    weights = np.uint64(4) ** np.arange(m - 1, -1, -1, dtype=np.uint64)
    codes, values = [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=complex)]
    first = 2  # line number of the block's first line
    for block in body:
        fields = _fields(block, b"  \n")
        got = None if fields is None else _coefficient_lines(fields, m)
        if got is None:
            if next(body, None) is None:
                # the last block: its last line as the file spells it, with
                # the blanks _line_blocks leaves out
                stop = _content_end(text)
                block = block[:-1] + _line(text, stop - 1, False)[1:] + "\n"
            _raise_block_error(block, first, m, np.concatenate(codes))
        digits, reals = got
        codes.append(digits.astype(np.uint64) @ weights)
        values.append(reals.view(complex))
        first += len(digits)
    codes = np.concatenate(codes)
    _check_distinct(codes, m)
    return CoefficientTensor._from_codes(m, codes, np.concatenate(values), 0.0)


def format_qvector(q: QVector) -> str:
    return _write_reals([float(x) for x in (*q.a, *q.b)],
                        np.frombuffer(b"     \n", dtype=np.uint8))


def parse_qvector(text: str) -> QVector:
    head, body = _header(text, "vector-pair")
    if any(body):  # stops at the block that holds the second line
        raise FileFormatError("expected a single line of six values", line=2)
    tokens = head.split()
    if len(tokens) != 6:
        raise FileFormatError(
            f"expected six values, found {len(tokens)}", line=1)
    values = [_parse_real(t, 1) for t in tokens]
    return QVector(tuple(values[:3]), tuple(values[3:]))
