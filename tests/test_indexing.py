import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauligl import (BlockCuts, BlockLocal, DomainError, Half, basis_element,
                     block_global_from_local, block_local_from_global,
                     lex_global_from_local, lex_local_from_global,
                     pauli_matrix)
from pauligl.indexing import SHAPE_CACHE_SIZE, _checked_shape

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

    def test_invalid_cuts(self):
        with pytest.raises(DomainError):
            BlockCuts(4, 0, 2)
        with pytest.raises(DomainError):
            BlockCuts(4, 2, 4)
        with pytest.raises(DomainError):
            BlockCuts(1, 1, 1)

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
    # equal to the cached (2, 2), but int() rejects it
    "complex": lambda: (2, 2 + 0j),
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
    "floats": lambda: (2.0, 3.5),
    "array_element": lambda: (np.array(2), 3),
}


class TestShapeCache:
    """Cached shape validation against the uncached maps it replaced."""

    def test_bounded(self):
        info = _checked_shape.cache_info()
        assert info.maxsize == SHAPE_CACHE_SIZE <= 1024

    def test_matches_reference_past_maxsize(self):
        shapes = [(a, b) for a in range(2, 40) for b in range(2, 6)]
        assert len(shapes) > SHAPE_CACHE_SIZE
        for _ in range(2):  # the second pass runs on evicted entries
            for shape in shapes:
                size = shape[0] * shape[1]
                for g in (0, size - 1, size, -1):
                    assert (outcome(lex_local_from_global, g, shape)
                            == outcome(reference_lex_local_from_global, g, shape))
                for locals_ in ((0, 0), (shape[0] - 1, shape[1] - 1), (0, shape[1])):
                    assert (outcome(lex_global_from_local, locals_, shape)
                            == outcome(reference_lex_global_from_local, locals_, shape))
        assert _checked_shape.cache_info().currsize <= SHAPE_CACHE_SIZE

    @pytest.mark.parametrize("name", BAD_SHAPES)
    def test_errors_unchanged(self, name):
        make = BAD_SHAPES[name]
        # twice, with a valid shape of equal elements cached in between
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
