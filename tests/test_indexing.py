import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (BlockCuts, BlockLocal, DomainError, Half, basis_element,
                     block_global_from_local, block_local_from_global,
                     lex_global_from_local, lex_local_from_global,
                     pauli_matrix)
from pauligl.indexing import _block_stack, _lex_stack
from pauligl.verify import _factor_shapes

from reference import (reference_lex_global_from_local,
                       reference_lex_local_from_global)


def all_shapes(limit):
    """Every tuple of factor sizes >= 2 whose product is <= limit."""
    shapes = []

    def grow(prefix, prod):
        for size in range(2, limit // prod + 1):
            shape = prefix + (size,)
            shapes.append(shape)
            grow(shape, prod * size)

    grow((), 1)
    return shapes


class TestBlockMaps:
    CUTS = BlockCuts(4, 2, 2)

    def test_low_low(self):
        assert block_local_from_global(0, 1, self.CUTS) == BlockLocal(
            Half.LOW, Half.LOW, 0, 1)

    def test_high_low(self):
        assert block_local_from_global(2, 0, self.CUTS) == BlockLocal(
            Half.HIGH, Half.LOW, 0, 0)

    def test_corner(self):
        assert block_local_from_global(3, 3, self.CUTS) == BlockLocal(
            Half.HIGH, Half.HIGH, 1, 1)

    def test_inverse_examples(self):
        assert block_global_from_local(
            BlockLocal(Half.HIGH, Half.LOW, 0, 0), self.CUTS) == (2, 0)
        assert block_global_from_local(
            BlockLocal(Half.LOW, Half.LOW, 0, 0), self.CUTS) == (0, 0)
        assert block_global_from_local(
            BlockLocal(Half.LOW, Half.HIGH, 1, 1), self.CUTS) == (1, 3)

    def test_round_trip_exhaustive(self):
        for n in range(2, 9):
            for rc in range(1, n):
                for cc in range(1, n):
                    cuts = BlockCuts(n, rc, cc)
                    for i in range(n):
                        for j in range(n):
                            loc = block_local_from_global(i, j, cuts)
                            assert block_global_from_local(loc, cuts) == (i, j)

    def test_out_of_range_global(self):
        with pytest.raises(DomainError):
            block_local_from_global(4, 0, self.CUTS)
        with pytest.raises(DomainError):
            block_local_from_global(0, -1, self.CUTS)

    def test_local_exceeds_block(self):
        with pytest.raises(DomainError):
            block_global_from_local(
                BlockLocal(Half.LOW, Half.LOW, 2, 0), self.CUTS)

    def test_local_col_exceeds_block(self):
        with pytest.raises(DomainError,
                           match="local col 3 out of range for block width 1"):
            block_global_from_local(
                BlockLocal(Half.LOW, Half.HIGH, 0, 3), BlockCuts(4, 2, 3))

    @pytest.mark.parametrize("loc, message", [
        (BlockLocal("low", "low", 0, 0), "block row must be a Half member, got 'low'"),
        (BlockLocal(None, Half.LOW, 1, 1), "block row must be a Half member, got None"),
        (BlockLocal(Half.HIGH, 0, 1, 1), "block col must be a Half member, got 0"),
    ])
    def test_block_id_not_a_half(self, loc, message):
        # once read as HIGH: ('low', 'low', 0, 0) mapped to (2, 2)
        with pytest.raises(DomainError) as info:
            block_global_from_local(loc, self.CUTS)
        assert str(info.value) == message

    def test_invalid_cuts(self):
        with pytest.raises(DomainError):
            BlockCuts(4, 0, 2)
        with pytest.raises(DomainError):
            BlockCuts(4, 2, 4)
        with pytest.raises(DomainError):
            BlockCuts(1, 1, 1)

    @pytest.mark.parametrize("args", [(4.5, 1, 1), (4, 1.5, 1), (4, 1, "2")])
    def test_non_integral_cuts(self, args):
        with pytest.raises(DomainError, match="must be an integer"):
            BlockCuts(*args)

    def test_integral_cuts_stored_as_ints(self):
        cuts = BlockCuts(4.0, np.int64(2), 2)
        assert cuts == BlockCuts(4, 2, 2)
        assert [type(v) for v in (cuts.n, cuts.row_cut, cuts.col_cut)] == [int] * 3
        assert block_local_from_global(3, 1, cuts) == BlockLocal(
            Half.HIGH, Half.LOW, 1, 1)

    @pytest.mark.parametrize("i, j", [(1.5, 0), (0, 2.5), ("1", 0)])
    def test_non_integral_global(self, i, j):
        # truncated to a local offset of 0.5 (or parsed from text) before
        with pytest.raises(DomainError, match="must be an integer"):
            block_local_from_global(i, j, BlockCuts(4, 1, 1))

    @pytest.mark.parametrize("row, col", [(0.5, 0), (0, 1.5)])
    def test_non_integral_local(self, row, col):
        with pytest.raises(DomainError, match="must be an integer"):
            block_global_from_local(
                BlockLocal(Half.LOW, Half.HIGH, row, col), self.CUTS)

    def test_block_diagonal_detection(self):
        # off-diagonal blocks of a block-diagonal matrix hold only zeros
        cuts = BlockCuts(4, 2, 2)
        m = [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]
        for i in range(4):
            for j in range(4):
                loc = block_local_from_global(i, j, cuts)
                if loc.block_row != loc.block_col:
                    assert m[i][j] == 0


class TestLexMaps:
    def test_to_global_examples(self):
        assert lex_global_from_local((1, 0), (2, 2)) == 2
        assert lex_global_from_local((0, 0), (2, 2)) == 0
        assert lex_global_from_local((1, 1), (2, 3)) == 4

    def test_to_local_examples(self):
        assert lex_local_from_global(3, (2, 2)) == (1, 1)
        assert lex_local_from_global(2, (2, 2)) == (1, 0)
        assert lex_local_from_global(5, (2, 3)) == (1, 2)

    def test_last_factor_fastest(self):
        shape = (2, 3)
        flat = [lex_global_from_local((i, j), shape)
                for i in range(2) for j in range(3)]
        assert flat == list(range(6))

    def test_round_trip_exhaustive(self):
        for shape in all_shapes(64):
            size = 1
            for s in shape:
                size *= s
            seen = set()
            for g in range(size):
                locals_ = lex_local_from_global(g, shape)
                assert lex_global_from_local(locals_, shape) == g
                seen.add(locals_)
            assert len(seen) == size

    def test_arity_mismatch(self):
        with pytest.raises(DomainError):
            lex_global_from_local((1,), (2, 2))

    def test_range_violations(self):
        with pytest.raises(DomainError):
            lex_global_from_local((2, 0), (2, 2))
        with pytest.raises(DomainError):
            lex_local_from_global(4, (2, 2))
        with pytest.raises(DomainError):
            lex_local_from_global(-1, (2, 2))

    @pytest.mark.parametrize("locals_", [(1.5, 0), (0, 0.5), ("1", 0)])
    def test_non_integral_local_index(self, locals_):
        # (1.5, 0) was truncated to (1, 0), giving global index 2
        with pytest.raises(DomainError,
                           match="local index must be an integer, got "):
            lex_global_from_local(locals_, (2, 2))

    @pytest.mark.parametrize("i", [2.7, 0.5, "2"])
    def test_non_integral_global_index(self, i):
        # 2.7 was truncated to 2, giving (1, 0)
        with pytest.raises(DomainError,
                           match="global index must be an integer, got "):
            lex_local_from_global(i, (2, 2))

    @pytest.mark.parametrize("call", [
        # each returned 5 or (1, 2) from the truncated shape (2, 3)
        lambda: lex_global_from_local((1, 2), (2.0, 3.5)),
        lambda: lex_global_from_local((1, 2), ("2", "3")),
        lambda: lex_local_from_global(5, (2, 3.9)),
    ])
    def test_non_integral_factor_size(self, call):
        with pytest.raises(DomainError,
                           match="factor size must be an integer, got "):
            call()

    def test_integral_scalars_accepted(self):
        assert lex_global_from_local((1.0, np.int64(1)), (2, 2)) == 3
        assert lex_local_from_global(2.0, (2, 2)) == (1, 0)
        assert lex_local_from_global(np.uint8(3), (2, 2)) == (1, 1)

    def test_factor_size_floor(self):
        with pytest.raises(DomainError):
            lex_global_from_local((0, 0), (2, 1))

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=4).flatmap(
        lambda sizes: st.tuples(
            st.just(tuple(sizes)),
            st.tuples(*(st.integers(0, s - 1) for s in sizes)))))
    def test_round_trip_random(self, case):
        shape, locals_ = case
        g = lex_global_from_local(locals_, shape)
        assert lex_local_from_global(g, shape) == locals_


class TestKronEntryConsistency:
    # entry (i, j) of a basis element factors over the per-axis local indices
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_entries_factor(self, m):
        shape = (2,) * m
        for idx in itertools.product(range(4), repeat=m):
            dense = basis_element(idx)
            factors = [pauli_matrix(mu) for mu in idx]
            for i in range(2 ** m):
                rows = lex_local_from_global(i, shape)
                for j in range(2 ** m):
                    cols = lex_local_from_global(j, shape)
                    prod = 1 + 0j
                    for k in range(m):
                        prod *= factors[k][rows[k], cols[k]]
                    assert dense[i, j] == prod


def outcome(f, *args):
    """The result of f(*args), or the type and message of what it raised."""
    try:
        return ("ok", f(*args))
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))


# shapes are factories, so a generator is fresh for each call
BAD_SHAPES = {
    "empty": lambda: (),
    "one": lambda: (1,),
    "zero": lambda: (0, 2),
    "negative": lambda: (-3,),
    "text": lambda: ("x",),
    "none": lambda: (None,),
    "unhashable": lambda: ([2],),
    "nested_list": lambda: [[2]],
    # equal to (2, 2), but int() rejects it
    "complex": lambda: (2, 2 + 0j),
    # int() would truncate 3.5 to 3 and parse "2" as 2
    "fraction": lambda: (2.0, 3.5),
    "digit_text": lambda: ("2", 3),
    "list": lambda: [2, 1],
    "generator": lambda: (s for s in (2, 0)),
    "ndarray": lambda: np.array([2, 1]),
    "not_iterable": lambda: 2,
}

GOOD_SHAPES = {
    "tuple": lambda: (2, 3),
    "list": lambda: [2, 3],
    "generator": lambda: (s for s in (2, 3)),
    "ndarray": lambda: np.array([2, 3]),
    "floats": lambda: (2.0, 3.0),
    "array_element": lambda: (np.array(2), 3),
}


class TestShapeCache:
    """Shape validation of the lex maps against the reference maps, also when
    many distinct shapes are passed and when shapes repeat."""

    def test_matches_reference_past_maxsize(self):
        shapes = [(a, b) for a in range(2, 40) for b in range(2, 6)]
        for _ in range(2):
            for shape in shapes:
                size = shape[0] * shape[1]
                for g in (0, size - 1, size, -1):
                    assert (outcome(lex_local_from_global, g, shape)
                            == outcome(reference_lex_local_from_global, g, shape))
                for locals_ in ((0, 0), (shape[0] - 1, shape[1] - 1), (0, shape[1])):
                    assert (outcome(lex_global_from_local, locals_, shape)
                            == outcome(reference_lex_global_from_local, locals_, shape))

    @pytest.mark.parametrize("name", BAD_SHAPES)
    def test_errors_unchanged(self, name):
        make = BAD_SHAPES[name]
        # twice, with a valid shape of equal elements checked in between
        for _ in range(2):
            want = outcome(reference_lex_local_from_global, 0, make())
            assert want[0] != "ok"
            assert outcome(lex_local_from_global, 0, make()) == want
            want = outcome(reference_lex_global_from_local, (0,), make())
            assert outcome(lex_global_from_local, (0,), make()) == want
            lex_local_from_global(0, (2,))
            lex_local_from_global(0, (2, 2))

    @pytest.mark.parametrize("name", GOOD_SHAPES)
    def test_shape_types(self, name):
        make = GOOD_SHAPES[name]
        for _ in range(2):
            for g in range(6):
                local = lex_local_from_global(g, make())
                assert local == reference_lex_local_from_global(g, make())
                assert lex_global_from_local(local, make()) == g


class TestArrayLexMaps:
    """Integer arrays against the scalar maps, value for value."""

    def test_matches_scalar_on_every_verified_shape(self):
        for shape in _factor_shapes(64):
            size = math.prod(shape)
            local = lex_local_from_global(np.arange(size), shape)
            assert local.dtype == np.int64 and local.shape == (len(shape), size)
            assert [tuple(v) for v in local.T.tolist()] == [
                lex_local_from_global(g, shape) for g in range(size)]
            vectors = list(itertools.product(*map(range, shape)))
            got = lex_global_from_local(np.array(vectors).T, shape)
            assert got.dtype == np.int64
            assert got.tolist() == [lex_global_from_local(v, shape)
                                    for v in vectors]

    def test_index_axes_are_kept(self):
        g = np.array([[0, 5], [23, 7]])
        local = lex_local_from_global(g, (2, 3, 4))
        assert local.shape == (3, 2, 2)
        assert local[:, 1, 0].tolist() == [1, 2, 3]
        assert np.array_equal(lex_global_from_local(local, (2, 3, 4)), g)
        # one index, one digit vector
        assert lex_local_from_global(np.array(5), (2, 3)).tolist() == [1, 2]
        assert lex_global_from_local(np.array([1, 2]), (2, 3)) == 5
        empty = lex_local_from_global(np.arange(0), (2, 2))
        assert empty.shape == (2, 0)
        assert lex_global_from_local(empty, (2, 2)).shape == (0,)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
    def test_integer_dtypes(self, dtype):
        g = np.arange(12, dtype=dtype)
        local = lex_local_from_global(g, (3, 4))
        assert local.dtype == np.int64
        assert np.array_equal(
            lex_global_from_local(local.astype(dtype), (3, 4)), np.arange(12))

    @pytest.mark.parametrize("bad", [-1, 6, 2 ** 40])
    def test_global_out_of_range(self, bad):
        # the message is the scalar one, for the first bad entry in ravel order
        want = outcome(lex_local_from_global, bad, (2, 3))
        assert want[0] is DomainError
        g = np.array([[0, 5], [bad, -7]])
        assert outcome(lex_local_from_global, g, (2, 3)) == want

    def test_global_out_of_range_unsigned(self):
        g = np.array([1, 2 ** 64 - 1], dtype=np.uint64)
        assert outcome(lex_local_from_global, g, (2, 2)) == (
            DomainError, f"global index {2 ** 64 - 1} out of range for shape "
                         "of size 4")

    def test_local_out_of_range(self):
        # factor order first: the bad digit of factor 0 is reported, although
        # factor 1 has one at an earlier position
        digits = np.array([[0, 0, 5, 2], [0, 3, 0, 0]])
        want = outcome(lex_global_from_local, (5, 0), (2, 3))
        assert outcome(lex_global_from_local, digits, (2, 3)) == want
        digits = np.array([[0, 1], [-1, 3]])
        want = outcome(lex_global_from_local, (1, -1), (2, 3))
        assert want[0] is DomainError
        assert outcome(lex_global_from_local, digits, (2, 3)) == want

    @pytest.mark.parametrize("rows", [1, 3])
    def test_wrong_factor_count(self, rows):
        want = outcome(lex_global_from_local, (0,) * rows, (2, 3))
        assert want[0] is DomainError
        digits = np.zeros((rows, 4), dtype=np.int64)
        assert outcome(lex_global_from_local, digits, (2, 3)) == want

    @pytest.mark.parametrize("dtype", [float, bool, complex, object])
    def test_non_integer_dtype(self, dtype):
        g = np.zeros(2, dtype=dtype)
        assert outcome(lex_local_from_global, g, (2, 2)) == (
            TypeError, f"global indices must have an integer dtype, got {g.dtype}")
        digits = np.zeros((2, 2), dtype=dtype)
        assert outcome(lex_global_from_local, digits, (2, 2)) == (
            TypeError, f"local indices must have an integer dtype, got {g.dtype}")

    def test_zero_dimensional_digits(self):
        assert outcome(lex_global_from_local, np.array(1), (2,)) == (
            TypeError, "local indices need a factor axis, got a 0-d array")

    def test_shape_too_large_for_int64(self):
        # 2**63 entries; the scalar maps take it, the int64 arrays cannot
        shape = (2,) * 63
        assert lex_local_from_global(2 ** 63 - 1, shape) == (1,) * 63
        want = (DomainError, f"shape of size {2 ** 63} is too large for int64 "
                             "index arrays")
        assert outcome(lex_local_from_global, np.zeros(1, dtype=np.int64), shape) == want
        assert outcome(lex_global_from_local, np.zeros((63, 1), dtype=np.int64),
                       shape) == want
        big = np.array([2 ** 62 - 1])
        assert lex_local_from_global(big, (2,) * 62)[:, 0].tolist() == [1] * 62


class TestArrayBlockMaps:
    """Integer arrays against the scalar block maps, value for value."""

    def test_matches_scalar_on_every_cut(self):
        every_cut = [BlockCuts(n, rc, cc) for n in range(2, 9)
                     for rc in range(1, n) for cc in range(1, n)]
        for cuts in every_cut:
            i, j = np.divmod(np.arange(cuts.n ** 2), cuts.n)
            loc = block_local_from_global(i, j, cuts)
            assert loc.local_row.dtype == loc.local_col.dtype == np.int64
            fields = zip(loc.block_row, loc.block_col, loc.local_row.tolist(),
                         loc.local_col.tolist())
            assert [BlockLocal(*f) for f in fields] == [
                block_local_from_global(a, b, cuts)
                for a, b in zip(i.tolist(), j.tolist())]
            back = block_global_from_local(loc, cuts)
            assert [v.dtype for v in back] == [np.int64] * 2
            assert back[0].tolist() == i.tolist() and back[1].tolist() == j.tolist()

    def test_index_axes_are_kept(self):
        cuts = BlockCuts(4, 1, 3)
        i = np.array([[0, 3], [2, 1]], dtype=np.uint8)
        loc = block_local_from_global(i, i.T, cuts)
        assert loc.block_row.shape == loc.local_col.shape == (2, 2)
        assert loc.block_row[0, 1] is Half.HIGH and loc.local_row[0, 1] == 2
        back = block_global_from_local(loc, cuts)
        assert np.array_equal(back[0], i) and np.array_equal(back[1], i.T)
        empty = block_local_from_global(np.arange(0), np.arange(0), cuts)
        assert [v.shape for v in block_global_from_local(empty, cuts)] == [(0,)] * 2

    def test_scalar_and_array_arguments_mix(self):
        cuts = BlockCuts(5, 2, 3)
        loc = block_local_from_global(np.arange(5), 4, cuts)
        assert loc.block_col.tolist() == [Half.HIGH] * 5
        assert loc.local_col.tolist() == [1] * 5
        assert loc.local_row.tolist() == [0, 1, 0, 1, 2]
        i, j = block_global_from_local(
            BlockLocal(Half.HIGH, loc.block_col[:3], np.arange(3), 1), cuts)
        assert i.tolist() == [2, 3, 4] and j.tolist() == [4, 4, 4]
        # one index as a 0-d array takes the array path too
        loc = block_local_from_global(np.array(3), 0, cuts)
        assert loc.block_row.shape == () and loc.block_row.item() is Half.HIGH

    @pytest.mark.parametrize("bad", [(-1, 0), (0, 5), (5, 5), (2 ** 40, 0)])
    def test_global_out_of_range(self, bad):
        # the scalar call's message, for the first bad entry in ravel order
        cuts = BlockCuts(5, 2, 3)
        want = outcome(block_local_from_global, *bad, cuts)
        assert want[0] is DomainError
        i = np.array([[0, 4], [bad[0], -7]])
        j = np.array([[1, 2], [bad[1], 9]])
        assert outcome(block_local_from_global, i, j, cuts) == want

    def test_global_out_of_range_unsigned(self):
        i = np.array([1, 2 ** 64 - 1], dtype=np.uint64)
        assert outcome(block_local_from_global, i, 0, BlockCuts(4, 2, 2)) == (
            DomainError, f"index ({2 ** 64 - 1}, 0) out of range for side 4")

    @pytest.mark.parametrize("bad", [
        BlockLocal(Half.LOW, Half.LOW, 2, 0),
        BlockLocal(Half.HIGH, Half.LOW, -1, 0),
        BlockLocal(Half.LOW, Half.HIGH, 0, 2),
        BlockLocal(Half.HIGH, Half.HIGH, 3, 9),
        BlockLocal("low", Half.HIGH, 0, 0),
        BlockLocal(Half.LOW, None, 0, 0),
    ])
    def test_local_out_of_range(self, bad):
        cuts = BlockCuts(5, 2, 3)
        want = outcome(block_global_from_local, bad, cuts)
        assert want[0] is DomainError
        loc = BlockLocal(np.array([Half.LOW, Half.HIGH, bad.block_row, Half.LOW]),
                         np.array([Half.HIGH, Half.LOW, bad.block_col, None]),
                         np.array([1, 2, bad.local_row, 9]),
                         np.array([1, 2, bad.local_col, 0]))
        assert outcome(block_global_from_local, loc, cuts) == want

    @pytest.mark.parametrize("dtype", [float, bool, complex, object])
    def test_non_integer_dtype(self, dtype):
        cuts = BlockCuts(4, 2, 2)
        good, bad = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=dtype)
        want = f"must have an integer dtype, got {bad.dtype}"
        for args, what in (((bad, good), "row index"), ((good, bad), "col index"),
                           ((bad, 0), "row index"), ((0, bad), "col index")):
            assert outcome(block_local_from_global, *args, cuts) == (
                TypeError, f"{what} {want}")
        halves = np.array([Half.LOW] * 2)
        for loc, what in ((BlockLocal(halves, halves, bad, good), "local row"),
                          (BlockLocal(halves, halves, good, bad), "local col"),
                          (BlockLocal(Half.LOW, Half.LOW, 0, bad), "local col")):
            assert outcome(block_global_from_local, loc, cuts) == (
                TypeError, f"{what} {want}")

    def test_side_too_large_for_int64(self):
        # the scalar maps take any side; the int64 arrays take a side of
        # 2**63 at most, as the lex maps take fewer than 2**63 entries
        big = BlockCuts(2 ** 70, 2 ** 69, 1)
        loc = block_local_from_global(2 ** 70 - 1, 0, big)
        assert loc == BlockLocal(Half.HIGH, Half.LOW, 2 ** 69 - 1, 0)
        assert block_global_from_local(loc, big) == (2 ** 70 - 1, 0)
        for n in (2 ** 63 + 1, 2 ** 70):
            cuts = BlockCuts(n, n // 2, 1)
            want = (DomainError, f"matrix side {n} is too large for int64 index arrays")
            assert outcome(block_local_from_global, np.array([0]), np.array([0]),
                           cuts) == want
            assert outcome(block_global_from_local,
                           BlockLocal(Half.LOW, Half.LOW, np.array([0]), 0), cuts) == want
        cuts = BlockCuts(2 ** 63, 2 ** 63 - 1, 1)
        loc = block_local_from_global(np.array([0, 2 ** 63 - 1]), np.array([0, 0]), cuts)
        assert loc.block_row.tolist() == [Half.LOW, Half.HIGH]
        assert loc.local_row.tolist() == [0, 0]
        back = block_global_from_local(loc, cuts)
        assert back[0].tolist() == [0, 2 ** 63 - 1] and back[1].tolist() == [0, 0]


@st.composite
def lex_stacks(draw):
    """Shapes of ranks 1-6 with sizes >= 2 and fewer than 2**63 entries, and
    a few global indices of each."""
    shapes = draw(st.lists(st.integers(1, 6).flatmap(
        lambda rank: st.tuples(*[st.integers(2, 2 ** (62 // rank))] * rank)),
        min_size=1, max_size=8))
    indices = [draw(st.lists(st.integers(0, math.prod(s) - 1), max_size=4))
               for s in shapes]
    return shapes, indices


@st.composite
def block_stacks(draw):
    """Cut triples of sides up to 2**62, and a few entries of each."""
    cuts = draw(st.lists(st.integers(2, 2 ** 62).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1), st.integers(1, n - 1))),
        min_size=1, max_size=8))
    entries = [draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=4)) for n, _, _ in cuts]
    return cuts, entries


class TestStackedKernels:
    """The stacked kernels against the public one-shape array maps, member
    by member, and the scalar message for a stack's first bad entry."""

    @given(lex_stacks())
    def test_lex_stack_matches_the_one_shape_maps(self, case):
        shapes, indices = case
        for rank in {len(s) for s in shapes}:
            members = [k for k, s in enumerate(shapes) if len(s) == rank]
            stack = np.array([shapes[k] for k in members], dtype=np.int64)
            ids = np.repeat(np.arange(len(members)), [len(indices[k]) for k in members])
            x = np.array([g for k in members for g in indices[k]], dtype=np.int64)
            digits = _lex_stack(x, stack, ids, to_local=True)
            back = _lex_stack(digits, stack, ids, to_local=False)
            assert np.array_equal(back, x)
            for row, k in enumerate(members):
                own = ids == row
                one = lex_local_from_global(np.array(indices[k], dtype=np.int64),
                                            shapes[k])
                assert np.array_equal(digits[:, own], one)
                assert np.array_equal(back[own], lex_global_from_local(one, shapes[k]))

    @given(block_stacks())
    def test_block_stack_matches_the_one_cut_maps(self, case):
        cuts, entries = case
        per = [len(e) for e in entries]
        n, rc, cc = (np.repeat(np.array(v, dtype=np.int64), per) for v in zip(*cuts))
        i, j = np.array([ij for e in entries for ij in e], dtype=np.int64).reshape(-1, 2).T
        loc = _block_stack((i, j), n, rc, cc)
        back = _block_stack(loc, n, rc, cc)
        assert np.array_equal(back[0], i) and np.array_equal(back[1], j)
        start = 0
        for triple, count in zip(cuts, per):
            own = slice(start, start + count)
            one = block_local_from_global(i[own], j[own], BlockCuts(*triple))
            for got, want in zip((loc.block_row, loc.block_col, loc.local_row,
                                  loc.local_col), (one.block_row, one.block_col,
                                                   one.local_row, one.local_col)):
                assert got[own].tolist() == want.tolist()
            start += count

    def test_first_bad_entry_in_a_later_shape(self):
        shapes = np.array([(2, 3), (4, 5)], dtype=np.int64)
        # entry 2 (shape 1) comes before entry 3, which is bad for shape 0
        ids = np.array([0, 1, 1, 0])
        want = outcome(lex_local_from_global, 25, (4, 5))
        assert want[0] is DomainError
        assert outcome(_lex_stack, np.array([0, 1, 25, 7]), shapes, ids, True) == want
        # factor 0 first: shape 1's digit 4 is reported, not shape 0's 3
        digits = np.array([[0, 4, 1], [0, 0, 3]])
        want = outcome(lex_global_from_local, (4, 0), (4, 5))
        assert want[0] is DomainError
        assert outcome(_lex_stack, digits, shapes, ids[:3], False) == want
        n, rc, cc = np.array([4, 6, 4]), np.array([2, 1, 2]), np.array([1, 5, 1])
        want = outcome(block_local_from_global, 6, 0, BlockCuts(6, 1, 5))
        assert want[0] is DomainError
        assert outcome(_block_stack, (np.array([0, 6, 4]), np.array([0, 0, 0])),
                       n, rc, cc) == want
        loc = BlockLocal(np.array([Half.LOW, Half.HIGH, Half.LOW]),
                         np.array([Half.LOW, Half.HIGH, Half.LOW]),
                         np.array([0, 5, 2]), np.array([0, 0, 0]))
        want = outcome(block_global_from_local,
                       BlockLocal(Half.HIGH, Half.HIGH, 5, 0), BlockCuts(6, 1, 5))
        assert want[0] is DomainError
        assert outcome(_block_stack, loc, n, rc, cc) == want
