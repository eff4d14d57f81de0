import numpy as np
import pytest
from hypothesis import settings, strategies as st

from pauligl import CoefficientTensor
from pauligl.decomposition import _Stack, _stack

settings.register_profile("repo", deadline=None)
settings.load_profile("repo")

# bounded magnitudes keep absolute error tolerances meaningful
complex_coeffs = st.complex_numbers(max_magnitude=10.0,
                                    allow_nan=False, allow_infinity=False)

# finite floats with the edge cases drawn often: signed zeros, subnormals,
# the smallest normal and values whose sums and products overflow
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.0, -1.0, 1.7e308, -1.7e308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def multi_indices(m):
    return st.tuples(*([st.integers(0, 3)] * m))


@st.composite
def coefficient_tensors(draw, min_m=1, max_m=3, max_terms=8):
    m = draw(st.integers(min_m, max_m))
    coeffs = draw(st.dictionaries(multi_indices(m), complex_coeffs,
                                  max_size=max_terms))
    return CoefficientTensor(m, coeffs, tol=0.0)


def tensor_outcome(f, *args, **kwargs):
    """The order, codes and value bits of the tensor f returns, or the type
    and message of what it raised."""
    try:
        c = f(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return c.m, c.codes.tolist(), c.values.view(np.uint64).tolist()


def stacks(pairs):
    """The left and the right stack of a non-empty list of pairs of tensors."""
    return _stack([a for a, _ in pairs]), _stack([b for _, b in pairs])


def member_tensors(stack):
    """One tensor per member of a stack, on one untagged copy of its codes and
    views of its values; the stack is left as it is.  The tests' per-member
    oracle: shipped code only ever turns a one-member stack into a tensor."""
    codes = stack.untagged()
    codes.flags.writeable = False
    bounds = [0, *np.cumsum(stack.sizes()).tolist()]
    return [_Stack(stack.m, codes[lo:hi], stack.values[lo:hi], 1).tensor()
            for lo, hi in zip(bounds, bounds[1:])]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# The acceptance tests record one verdict line apiece; echo them in a block
# at the end of the run so they survive pytest's output capture.
_acceptance_verdicts = []


def record_verdict(line):
    _acceptance_verdicts.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_verdicts:
            terminalreporter.write_line(line)
