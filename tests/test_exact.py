import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernlab.exact import BoundedValue

ends = st.one_of(st.floats(min_value=0.0, max_value=10.0),
                 st.floats(allow_nan=False, allow_infinity=False))


class TestFromBracket:
    @settings(max_examples=2000, deadline=None)
    @given(ends, ends)
    # (lo + hi)/2 ± (hi - lo)/2 put the lower end 8.9e-16 above lo here
    @example(float.fromhex("0x1.e5173fd738320p+2"), float.fromhex("0x1.0e3709bf68e97p+3"))
    # a narrow bracket across a power of two
    @example(8.0 - 3e-10, 8.0 + 1e-10)
    # lo + hi overflows
    @example(0.75 * sys.float_info.max, sys.float_info.max)
    def test_contains_both_ends(self, a, b):
        lo, hi = min(a, b), max(a, b)
        v = BoundedValue.from_bracket(lo, hi)
        assert v.lower <= lo and v.upper >= hi
        # and not much wider: a few ulps of the larger end
        slack = 2 * math.ulp(max(abs(lo), abs(hi)))
        assert v.lower >= lo - slack and v.upper <= hi + slack

    def test_infinite_upper_end_keeps_lower(self):
        v = BoundedValue.from_bracket(2.5, math.inf)
        assert v.lower == 2.5 and v.upper == math.inf
