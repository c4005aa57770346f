from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfmzv.errors import NonzeroConstantTerm, TruncationMismatch
from hopfmzv.realizations import (
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
        assert li_J(k, 12) == li_nested(k, 12)


def test_li_nested_literal():
    # sum_{m1 > m2 > 0} t^{m1} / m2:  coefficient of t^m is H_{m-1}
    got = li_nested((0, 1), 5)
    assert got == (Fr(0), Fr(0), Fr(1), Fr(3, 2), Fr(11, 6), Fr(25, 12))


def test_J_and_delta_guard_the_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        op_J((Fr(1), Fr(0)))
    with pytest.raises(NonzeroConstantTerm):
        op_delta((Fr(2), Fr(1)))


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
    # int zeros in a Fraction convolution would turn into floats under J
    outputs = [
        li_J((2, 1, 3), 10),
        qz_series((1, 2), 10),
        qz_rational((2, 1), 10),
        qchar_realization((1, 1), 8),
        *mul_bivariate(y_bivariate(6, 6), op_Dq(y_bivariate(6, 6))).rows,
    ]
    for coeffs in outputs:
        assert all(type(c) is Fr for c in coeffs)
