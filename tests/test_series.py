from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from hopfmzv.errors import PrecisionExceeded
from hopfmzv.realizations import x_series
from hopfmzv.series import (
    LaurentSeries,
    coefficient,
    constant,
    equal_on_window,
    monomial,
    pole_part,
    regular_part,
    series_add,
    series_diff,
    series_from_json,
    series_mul,
    series_scale,
    series_slice,
    series_sum,
    series_to_json,
    zero_series,
)

Fr = Fraction


def L(ord_, *coeffs):
    return LaurentSeries(ord_, tuple(Fr(c) for c in coeffs))


def test_window_bookkeeping():
    a = L(-2, 1, 0, 3)
    assert a.valid_through == 0
    assert coefficient(a, -2) == 1
    assert coefficient(a, 0) == 3
    with pytest.raises(PrecisionExceeded):
        coefficient(a, 1)


def test_coeffs_are_coerced_to_fractions():
    a = LaurentSeries(0, (1, 2))
    assert all(isinstance(c, Fraction) for c in a.coeffs)


def test_add_takes_worst_window():
    a = L(-1, 1, 1, 1, 1)  # valid through 2
    b = L(0, 5, 5)  # valid through 1
    s = series_add(a, b)
    assert s.ord == -1
    assert s.valid_through == 1
    assert s.coeffs == (Fr(1), Fr(6), Fr(6))


def test_mul_monomials_and_polynomials():
    assert series_mul(monomial(-1, 1, 5), monomial(1, 1, 5)).coefficient(0) == 1
    p = series_mul(L(0, 1, 1, 0, 0), L(0, 1, -1, 0, 0))
    assert (p.coefficient(0), p.coefficient(1), p.coefficient(2)) == (1, 0, -1)


def test_mul_window_erosion():
    a = L(-1, 1, 1, 1)  # vt 1
    b = L(-2, 1, 1, 1, 1, 1)  # vt 2
    p = series_mul(a, b)
    assert p.ord == -3
    # min(vt_a + ord_b, vt_b + ord_a) = min(1 - 2, 2 - 1) = -1
    assert p.valid_through == -1


def test_square_of_x_constant_term():
    # (-1/z - 1/2 - z/12 - ...)^2 at z^0: 2*(-1)*(-1/12) + (1/2)^2 = 5/12
    x = x_series(6)
    assert series_mul(x, x).coefficient(0) == Fr(5, 12)


def test_diff_costs_one_exponent():
    a = L(-1, 1, 2, 3)
    d = series_diff(a)
    assert d.ord == -2
    assert d.valid_through == a.valid_through - 1
    assert d.coefficient(-2) == -1
    assert d.coefficient(0) == 3


def test_pole_and_regular_parts_partition():
    a = L(-2, 7, 8, 9, 10)
    p, r = pole_part(a), regular_part(a)
    assert p.coeffs == (Fr(7), Fr(8), Fr(0), Fr(0))
    assert r.coeffs == (Fr(0), Fr(0), Fr(9), Fr(10))
    assert equal_on_window(series_add(p, r), a)


def test_zero_series_window():
    z = zero_series(5)
    assert z.valid_through == 5
    assert coefficient(z, 3) == 0
    with pytest.raises(PrecisionExceeded):
        coefficient(z, 6)


def test_slice_shrinks_but_never_widens():
    a = L(-1, 1, 2, 3, 4)
    s = series_slice(a, 1)
    assert s.valid_through == 1
    assert s.coeffs == (Fr(1), Fr(2), Fr(3))
    with pytest.raises(PrecisionExceeded):
        series_slice(a, 9)


def test_equal_on_window_needs_overlap():
    a = L(0, 1, 2)
    b = L(5, 9)
    # windows [0,1] and [5,5] share only 2 known exponents ([0,1] for both,
    # b's being known zeros) -- asking for 3 is PrecisionExceeded, not False
    with pytest.raises(PrecisionExceeded):
        equal_on_window(a, b, 3)
    assert not equal_on_window(a, b)  # 1 != 0 at z^0
    assert equal_on_window(L(0, 1, 2, 3), L(0, 1, 2))
    assert not equal_on_window(L(0, 1, 2, 3), L(0, 1, 99))


def test_json_round_trip():
    a = L(-2, 1, 0, Fr(-7, 3))
    obj = series_to_json(a)
    assert obj["ord"] == -2 and obj["valid_through"] == 0
    back = series_from_json(obj)
    assert back.ord == a.ord and back.coeffs == a.coeffs


small_series = st.builds(
    lambda o, cs: LaurentSeries(o, tuple(cs)),
    st.integers(min_value=-3, max_value=3),
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
        min_size=1,
        max_size=6,
    ),
)


@given(small_series, small_series)
def test_mul_commutes(a, b):
    x, y = series_mul(a, b), series_mul(b, a)
    assert x.ord == y.ord and x.coeffs == y.coeffs


@given(small_series, small_series, small_series)
def test_mul_distributes_over_add(a, b, c):
    lhs = series_mul(a, series_add(b, c))
    rhs = series_add(series_mul(a, b), series_mul(a, c))
    if min(lhs.valid_through, rhs.valid_through) >= min(lhs.ord, rhs.ord):
        assert equal_on_window(lhs, rhs)


# -- plain-Fraction reference: (ord, list of Fractions), same window rules --


def ref_vt(r):
    return r[0] + len(r[1]) - 1


def ref_get(r, n):
    return Fr(0) if n < r[0] else r[1][n - r[0]]


def ref_add(r, s):
    vt, lo = min(ref_vt(r), ref_vt(s)), min(r[0], s[0])
    if vt < lo:
        return vt + 1, []
    return lo, [ref_get(r, n) + ref_get(s, n) for n in range(lo, vt + 1)]


def ref_mul(r, s):
    lo = r[0] + s[0]
    vt = min(ref_vt(r) + s[0], ref_vt(s) + r[0])
    if vt < lo:
        return vt + 1, []
    return lo, [
        sum((r[1][i] * s[1][m - i] for i in range(m + 1)), Fr(0))
        for m in range(vt - lo + 1)
    ]


def ref_mask(r, keep):
    return r[0], [c if keep(r[0] + i) else Fr(0) for i, c in enumerate(r[1])]


def ref_slice(r, vt):
    return (vt + 1, []) if vt < r[0] else (r[0], r[1][: vt - r[0] + 1])


def assert_matches(s, r):
    assert (s.ord, s.coeffs) == (r[0], tuple(r[1]))
    for n in range(s.ord - 2, s.valid_through + 1):
        assert coefficient(s, n) == ref_get(r, n)
    with pytest.raises(PrecisionExceeded):
        coefficient(s, s.valid_through + 1)


# (ord, coefficients): the series under test and its reference are both built
# from these, so the reference never reads the implementation's storage
wide_series = st.tuples(
    st.integers(min_value=-4, max_value=8),
    st.lists(
        st.one_of(
            st.just(Fr(0)),
            st.fractions(min_value=-50, max_value=50, max_denominator=60),
        ),
        max_size=7,
    ),
)
scalars = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=12))


def ref_sum(terms):
    """Fold of ref_add over the scaled references, as a chain of adds."""
    scaled = [(r[0], [x * Fr(c) for x in r[1]]) for c, r in terms]
    acc = scaled[0]
    for r in scaled[1:]:
        acc = ref_add(acc, r)
    return acc


sum_terms = st.lists(st.tuples(scalars, wide_series), min_size=1, max_size=4)
one_term = [(1, (0, [1]))]


@given(wide_series, wide_series, scalars, st.integers(-8, 12), sum_terms)
@example((-2, [1, 2]), (3, [4, 5, 6]), Fr(1, 2), 0, one_term)  # b.ord past a's window
@example((3, [4, 5, 6]), (-2, [1, 2]), 3, -5, one_term)  # a.ord past b's window
@example((-3, [2, 0, 4, 6]), (0, []), 0, -3, one_term)  # empty window; scale by zero
# a later term starting lower with a shorter window: the low end must be
# extended before the window is cut
@example(
    (0, [1]), (0, [1]), 1, 0, [(1, (0, [0, 1])), (0, (0, [0])), (-2, (-2, [1]))]
)
# three denominators whose lcm rises term by term (2, 6, 30), the last term
# starting lower and ending sooner than the terms before it
@example(
    (0, [1]),
    (0, [1]),
    1,
    0,
    [
        (1, (0, [Fr(1, 2), 1, 1, 1])),
        (3, (1, [Fr(1, 3), 1])),
        (-1, (-1, [Fr(1, 5), 2])),
    ],
)
def test_operations_match_fraction_reference(ra, rb, c, vt, terms):
    ra, rb = (ra[0], [Fr(x) for x in ra[1]]), (rb[0], [Fr(x) for x in rb[1]])
    a, b = LaurentSeries(*ra), LaurentSeries(*rb)
    assert_matches(a, ra)
    assert_matches(series_add(a, b), ref_add(ra, rb))
    terms = [(k, (r[0], [Fr(x) for x in r[1]])) for k, r in terms]
    assert_matches(
        series_sum((k, LaurentSeries(*r)) for k, r in terms), ref_sum(terms)
    )
    assert_matches(series_mul(a, b), ref_mul(ra, rb))
    assert_matches(series_scale(a, c), (ra[0], [x * Fr(c) for x in ra[1]]))
    assert_matches(
        series_diff(a), (ra[0] - 1, [(ra[0] + i) * x for i, x in enumerate(ra[1])])
    )
    assert_matches(pole_part(a), ref_mask(ra, lambda n: n < 0))
    assert_matches(regular_part(a), ref_mask(ra, lambda n: n >= 0))
    if vt > a.valid_through:
        with pytest.raises(PrecisionExceeded):
            series_slice(a, vt)
    else:
        assert_matches(series_slice(a, vt), ref_slice(ra, vt))
    hi, lo = min(ref_vt(ra), ref_vt(rb)), min(a.ord, b.ord)
    if hi >= lo:
        want = all(ref_get(ra, n) == ref_get(rb, n) for n in range(lo, hi + 1))
        assert equal_on_window(a, b) == want
    else:
        with pytest.raises(PrecisionExceeded):
            equal_on_window(a, b)


def test_sum_of_no_terms_is_an_error():
    with pytest.raises(ValueError):
        series_sum(iter(()))


def assert_canonical(s):
    assert s.den > 0
    assert gcd(s.den, *s.nums) == 1
    assert all(type(x) is int for x in s.nums)
    assert all(type(c) is Fraction for c in s.coeffs)
    for n in range(s.ord - 1, s.valid_through + 1):
        assert type(coefficient(s, n)) is Fraction


@given(wide_series, wide_series, scalars, st.integers(-8, 12))
def test_results_stay_canonical_fractions(ra, rb, c, vt):
    a, b = LaurentSeries(*ra), LaurentSeries(*rb)
    results = [
        a,
        series_add(a, b),
        series_sum([(c, a), (1, b)]),
        series_mul(a, b),
        series_scale(a, c),
        series_diff(a),
        pole_part(a),
        regular_part(a),
        series_from_json(series_to_json(a)),
        series_slice(a, min(vt, a.valid_through)),
        monomial(-1, c, 3),
        zero_series(vt),
    ]
    for s in results:
        assert_canonical(s)
