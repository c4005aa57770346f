from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfmzv.errors import NonzeroConstantTerm, TruncationMismatch
from hopfmzv.realizations import (
    BivariateSeries,
    _ps_mul,
    eval_t_eq_q,
    li_J,
    li_nested,
    mul_bivariate,
    op_Dq,
    op_Eq,
    op_J,
    op_Pq,
    op_delta,
    qchar_realization,
    qz_rational,
    qz_series,
    y_bivariate,
    y_powerseries,
)

Fr = Fraction


# --------------------------------------------------------------- t-side


def test_li_closed_forms():
    T = 8
    assert li_J((0,), T) == y_powerseries(T)
    assert li_J((1,), T) == (Fr(0),) + tuple(Fr(1, m) for m in range(1, T + 1))
    assert li_J((2,), T) == (Fr(0),) + tuple(Fr(1, m * m) for m in range(1, T + 1))
    # J^{-1} = delta:  t/(1-t)^2
    assert li_J((-1,), T) == (Fr(0),) + tuple(Fr(m) for m in range(1, T + 1))


def test_li_double_index_is_the_nested_sum():
    for k in [(1, 1), (2, 1), (0, 0), (-1, 2), (1, -2, 0)]:
        for T in (0, 1, 2, 12):
            got = li_J(k, T)
            assert got == li_nested(k, T)
            assert all(type(c) is Fr for c in got)


@pytest.mark.parametrize(
    "route", [li_J, li_nested, qz_series, qz_rational, qchar_realization]
)
def test_negative_truncations_are_rejected(route):
    for T in (-1, -3):
        with pytest.raises(ValueError):
            route((1,), T)
    assert route((1,), 0) == (Fr(0),)  # every route has the same shape at 0


def test_li_nested_literal():
    # sum_{m1 > m2 > 0} t^{m1} / m2:  coefficient of t^m is H_{m-1}
    got = li_nested((0, 1), 5)
    assert got == (Fr(0), Fr(0), Fr(1), Fr(3, 2), Fr(11, 6), Fr(25, 12))


def test_J_and_delta_guard_the_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        op_J((Fr(1), Fr(0)))
    with pytest.raises(NonzeroConstantTerm):
        op_delta((Fr(2), Fr(1)))


def test_J_keeps_int_input_exact():
    for s, want in [
        ((0, 1, 2), (0, 1, 1)),
        ((0, 1, 1, 1), (0, 1, Fr(1, 2), Fr(1, 3))),
    ]:
        got = op_J(s)
        assert got == want
        assert all(type(c) is Fraction for c in got)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
def test_delta_inverts_J(tail):
    s = (Fr(0),) + tuple(Fr(c) for c in tail)
    assert op_delta(op_J(s)) == s


def test_empty_index_vector_rejected():
    for fn in (li_J, li_nested, qz_series, qz_rational, qchar_realization):
        with pytest.raises(ValueError):
            fn((), 4)


# --------------------------------------------------------------- q-side


def test_Eq_dilates_rows():
    e = op_Eq(y_bivariate(4, 6))
    # row a of E_q[y] is t^a q^a
    for a in range(1, 5):
        row = e.rows[a - 1]
        assert row[a] == 1
        assert sum(1 for c in row if c) == 1


def test_Pq_makes_geometric_rows():
    p = op_Pq(y_bivariate(3, 8))
    assert p.rows[1] == tuple(Fr(1) if b % 2 == 0 else Fr(0) for b in range(9))
    assert p.rows[2][0] == 1 and p.rows[2][3] == 1 and p.rows[2][6] == 1
    assert p.rows[2][1] == 0 and p.rows[2][2] == 0


def test_Pq_inverts_Dq():
    s = mul_bivariate(op_Eq(y_bivariate(6, 6)), y_bivariate(6, 6))
    assert op_Pq(op_Dq(s)).rows == s.rows
    assert op_Dq(op_Pq(s)).rows == s.rows


def test_eval_on_the_diagonal():
    assert eval_t_eq_q(y_bivariate(5, 5)) == (Fr(0),) + (Fr(1),) * 5
    with pytest.raises(TruncationMismatch):
        eval_t_eq_q(y_bivariate(3, 5))


def test_qz_weight_one_literal():
    # sum q^m (1 - q^m) = (q + q^2 + ...) - (q^2 + q^4 + ...)
    want = tuple(Fr(1) if m % 2 == 1 else Fr(0) for m in range(9))
    assert qz_series((1,), 8) == want


def test_qz_one_one_literal():
    # checked by listing pairs m1 > m2 through q^8 by hand
    got = qz_series((1, 1), 8)
    assert got == (Fr(0), Fr(0), Fr(1), Fr(1), Fr(1), Fr(3), Fr(1), Fr(4), Fr(2))


def test_qz_rational_matches_nested():
    for k in [(1,), (2,), (0, 1), (1, 1), (2, 1), (0, 0, 1)]:
        assert qz_rational(k, 24) == qz_series(k, 24), k


def test_operator_route_realizes_qz():
    assert qchar_realization((1,), 10) == qz_series((1,), 10)
    assert qchar_realization((1, 1), 12) == qz_series((1, 1), 12)
    assert qchar_realization((0, 2), 10) == qz_series((0, 2), 10)


def test_convolution_outputs_stay_fractions():
    # the routes compute in ints; an int handed out would turn into a float
    # under J, so every coefficient must come back as a Fraction
    outputs = [
        li_J((2, 1, 3), 10),
        qz_series((1, 2), 10),
        qz_rational((2, 1), 10),
        qchar_realization((1, 1), 8),
        *mul_bivariate(y_bivariate(6, 6), op_Dq(y_bivariate(6, 6))).rows,
    ]
    for coeffs in outputs:
        assert all(type(c) is Fr for c in coeffs)


# ------------------------------------------- common-denominator products

# numerators over mixed denominators; most values are not integers
fractions = st.builds(Fr, st.integers(-9, 9), st.integers(1, 12))


def _ps_mul_reference(a, b):
    n = len(a)
    out = [Fr(0)] * n
    for i in range(n):
        for j in range(min(n - i, len(b))):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def _bivariate_reference(s1, s2):
    A = min(s1.t_truncation, s2.t_truncation)
    Q = min(s1.q_truncation, s2.q_truncation)
    out = [[Fr(0)] * (Q + 1) for _ in range(A)]
    for a1 in range(1, A + 1):
        for a2 in range(1, A - a1 + 1):
            for b1 in range(Q + 1):
                for b2 in range(Q + 1 - b1):
                    out[a1 + a2 - 1][b1 + b2] += (
                        s1.rows[a1 - 1][b1] * s2.rows[a2 - 1][b2]
                    )
    return tuple(tuple(r) for r in out)


@st.composite
def power_series_pairs(draw):
    T = draw(st.sampled_from([0, 1, 2, 5]))
    vec = st.lists(fractions, min_size=T + 1, max_size=T + 1).map(tuple)
    return draw(vec), draw(vec)


@st.composite
def bivariate_pairs(draw):
    Q = draw(st.integers(0, 3))

    def series(A):
        row = st.lists(fractions, min_size=Q + 1, max_size=Q + 1).map(tuple)
        rows = draw(st.lists(row, min_size=A, max_size=A))
        return BivariateSeries(tuple(rows))

    return series(draw(st.sampled_from([0, 1, 2, 4]))), series(
        draw(st.sampled_from([0, 1, 2, 4]))
    )


@example(((Fr(1, 2), Fr(1, 3)), (Fr(1, 5), Fr(2, 7))))
@given(power_series_pairs())
def test_ps_mul_matches_a_fraction_double_loop(pair):
    a, b = pair
    got = _ps_mul(a, b)
    assert got == _ps_mul_reference(a, b)
    assert all(type(c) is Fr for c in got)


@example(
    (
        BivariateSeries(((Fr(1, 2), Fr(1, 3)), (Fr(3, 4), Fr(0)))),
        BivariateSeries(((Fr(2, 5), Fr(1, 7)), (Fr(1), Fr(5, 6)))),
    )
)
@given(bivariate_pairs())
def test_mul_bivariate_matches_a_fraction_double_loop(pair):
    s1, s2 = pair
    got = mul_bivariate(s1, s2).rows
    assert got == _bivariate_reference(s1, s2)
    assert all(type(c) is Fr for row in got for c in row)


# ----------------------------------------------- brute-force q-oracle


def _qz_brute_force(k, Q):
    """sum over m_1 > ... > m_n > 0 of q^{m_1} prod (1 - q^{m_i})^{k_i}."""
    total = [0] * (Q + 1)
    for ms in combinations(range(Q, 0, -1), len(k)):  # m_1 > ... > m_n
        poly = [0] * (Q + 1)
        poly[ms[0]] = 1
        for m, e in zip(ms, k):
            for _ in range(e):  # multiply by (1 - q^m), highest power first
                for b in range(Q, m - 1, -1):
                    poly[b] -= poly[b - m]
        total = [t + p for t, p in zip(total, poly)]
    return tuple(total)


def test_both_q_routes_equal_the_direct_sum():
    for n in (1, 2, 3):
        for k in product(range(3), repeat=n):
            want = _qz_brute_force(k, 12)
            for route in (qz_series, qz_rational):
                got = route(k, 12)
                assert got == want, (route.__name__, k)
                assert all(type(c) is Fr for c in got)
