import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfmzv import clear_caches, realizations
from hopfmzv.birkhoff import CharacterTable
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
    phi,
    psi,
    qchar_realization,
    qz_rational,
    qz_series,
    y_bivariate,
    y_powerseries,
)
from hopfmzv.series import LaurentSeries, _make, convolve, series_mul
from test_faults import FAULTS, check

Fr = Fraction


# --------------------------------------------------------------- t-side


def test_li_closed_forms():
    T = 8
    assert li_J((0,), T).coeffs == y_powerseries(T).coeffs
    assert li_J((1,), T).coeffs == (Fr(0),) + tuple(Fr(1, m) for m in range(1, T + 1))
    assert li_J((2,), T).coeffs == (Fr(0),) + tuple(Fr(1, m * m) for m in range(1, T + 1))
    # J^{-1} = delta:  t/(1-t)^2
    assert li_J((-1,), T).coeffs == (Fr(0),) + tuple(Fr(m) for m in range(1, T + 1))


def test_li_at_negative_indices_is_a_polynomial_in_y(ypoly):
    # li_J(-k, T) = P_k(y(t)), y^j = sum_{m >= 1} C(m - 1, j - 1) t^m
    T = 30
    for k in (k for n in (1, 2, 3) for k in product(range(4), repeat=n)):
        cs, s = ypoly(k), li_J(tuple(-e for e in k), T)
        want = [0] + [
            sum(c * comb(m - 1, j - 1) for j, c in enumerate(cs) if j) for m in range(1, T + 1)
        ]
        assert [s.coefficient(m) for m in range(T + 1)] == want, k


def test_li_at_one_negative_index_has_the_stirling_coefficients(ypoly):
    # Li_{-k}(t) = sum_j (j - 1)! S(k + 1, j) y^j, S the Stirling numbers of the second kind
    S = {(0, 0): 1}
    for n in range(1, 11):
        for j in range(n + 1):
            S[n, j] = j * S.get((n - 1, j), 0) + S.get((n - 1, j - 1), 0)
    for k in range(10):
        assert ypoly((k,)) == [factorial(j - 1) * S[k + 1, j] if j else 0 for j in range(k + 2)], k


def test_li_double_index_is_the_nested_sum():
    for k in [(1, 1), (2, 1), (0, 0), (-1, 2), (1, -2, 0)]:
        for T in (0, 1, 2, 12):
            got = li_J(k, T).coeffs
            assert got == li_nested(k, T).coeffs
            assert all(type(c) is Fr for c in got)


@pytest.mark.parametrize(
    "route", [li_J, li_nested, qz_series, qz_rational, qchar_realization]
)
def test_negative_truncations_are_rejected(route):
    for T in (-1, -3):
        with pytest.raises(ValueError):
            route((1,), T)
    # every route has the same shape at 0: a t-side series or a q-side tuple
    got = route((1,), 0)
    assert getattr(got, "coeffs", got) == (Fr(0),)


def _chi_plus_dy(prec):
    return CharacterTable("phi", prec=prec).chi_plus("dy")


@pytest.mark.parametrize(
    "route, bad, good",
    [
        (li_J, ((0.5,), 3), ((1,), 3)),
        (li_nested, ((0.5,), 3), ((1,), 3)),
        (li_J, ((1,), 2.0), ((1,), 2)),
        (qz_series, ((1,), 2.0), ((1,), 2)),
        (qz_rational, ((1,), 2.5), ((1,), 2)),
        (_chi_plus_dy, (1.5,), (1,)),
        (phi, ("dy", 2.0), ("dy", 2)),
        (psi, ("dy", 2.0), ("dy", 2)),
    ],
)
def test_non_integer_indices_and_truncations_are_refused_cold_and_warm(
    route, bad, good
):
    # refused up front, before any memo or the Bernoulli table is read
    clear_caches()
    with pytest.raises(ValueError, match="integer"):
        route(*bad)
    route(*good)
    with pytest.raises(ValueError, match="integer"):
        route(*bad)


@pytest.mark.parametrize("route", [qz_series, qz_rational, qchar_realization])
def test_q_side_routes_reject_negative_indices(route):
    # the q-side values live at arguments -k_i <= 0, as the words do
    for k in [(-1,), (1, -1)]:
        with pytest.raises(ValueError):
            route(k, 5)


def test_li_nested_literal():
    # sum_{m1 > m2 > 0} t^{m1} / m2:  coefficient of t^m is H_{m-1}
    got = li_nested((0, 1), 5).coeffs
    assert got == (Fr(0), Fr(0), Fr(1), Fr(3, 2), Fr(11, 6), Fr(25, 12))


def test_J_and_delta_guard_the_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        op_J(LaurentSeries(0, (Fr(1), Fr(0))))
    with pytest.raises(NonzeroConstantTerm):
        op_delta(LaurentSeries(0, (Fr(2), Fr(1))))
    # a t-side series starts at t^0: exponents are not read off a shifted window
    for op in (op_J, op_delta):
        with pytest.raises(ValueError, match="ord 0"):
            op(LaurentSeries(1, (Fr(1), Fr(2))))


def test_J_keeps_int_input_exact():
    for s, want in [
        ((0, 1, 2), (0, 1, 1)),
        ((0, 1, 1, 1), (0, 1, Fr(1, 2), Fr(1, 3))),
    ]:
        got = op_J(LaurentSeries(0, s)).coeffs
        assert got == want
        assert all(type(c) is Fraction for c in got)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
def test_delta_inverts_J(tail):
    s = LaurentSeries(0, (Fr(0),) + tuple(Fr(c) for c in tail))
    assert op_delta(op_J(s)).coeffs == s.coeffs


def test_empty_index_vector_rejected():
    for fn in (li_J, li_nested, qz_series, qz_rational, qchar_realization):
        with pytest.raises(ValueError):
            fn((), 4)


# --------------------------------------------------------------- q-side


def test_Eq_dilates_rows():
    e = op_Eq(y_bivariate(4, 6))
    # row a of E_q[y] is t^a q^a
    for a in range(1, 5):
        row = e[a - 1]
        assert row[a] == 1
        assert sum(1 for c in row if c) == 1


def test_Pq_makes_geometric_rows():
    p = op_Pq(y_bivariate(3, 8))
    assert p[1] == tuple(1 if b % 2 == 0 else 0 for b in range(9))
    assert p[2][0] == 1 and p[2][3] == 1 and p[2][6] == 1
    assert p[2][1] == 0 and p[2][2] == 0


def test_Pq_inverts_Dq():
    s = mul_bivariate(op_Eq(y_bivariate(6, 6)), y_bivariate(6, 6))
    assert op_Pq(op_Dq(s)) == s
    assert op_Dq(op_Pq(s)) == s


def test_eval_on_the_diagonal():
    assert eval_t_eq_q(y_bivariate(5, 5)) == (0,) + (1,) * 5
    with pytest.raises(TruncationMismatch):
        eval_t_eq_q(y_bivariate(3, 5))


def test_qz_weight_one_literal():
    # sum q^m (1 - q^m) = (q + q^2 + ...) - (q^2 + q^4 + ...)
    want = tuple(1 if m % 2 == 1 else 0 for m in range(9))
    assert qz_series((1,), 8) == want


def test_qz_one_one_literal():
    # checked by listing pairs m1 > m2 through q^8 by hand
    got = qz_series((1, 1), 8)
    assert got == (0, 0, 1, 1, 1, 3, 1, 4, 2)


def test_qz_rational_matches_nested():
    for k in [(1,), (2,), (0, 1), (1, 1), (2, 1), (0, 0, 1)]:
        assert qz_rational(k, 24) == qz_series(k, 24), k


def test_operator_route_realizes_qz():
    assert qchar_realization((1,), 10) == qz_series((1,), 10)
    assert qchar_realization((1, 1), 12) == qz_series((1, 1), 12)
    assert qchar_realization((0, 2), 10) == qz_series((0, 2), 10)


def test_route_outputs_are_fractions_on_t_and_ints_on_q():
    # the t-side values are rational: an int handed out there would turn into
    # a float under J, so each coefficient comes back as a canonical Fraction;
    # the q-side lives in t*Z[[t, q]] and hands out ints
    for s, T in [
        (li_J((2, 1, 3), 10), 10),
        (li_nested((1, -2), 10), 10),
        (op_J(LaurentSeries(0, (0, 1, 1, 1))), 3),
    ]:
        assert s.ord == 0 and s.valid_through == T
        assert _canonical(s.coeffs)
    outputs = [
        qz_series((1, 2), 10),
        qz_rational((2, 1), 10),
        qchar_realization((1, 1), 8),
        eval_t_eq_q(op_Pq(y_bivariate(6, 6))),
        *mul_bivariate(y_bivariate(6, 6), op_Dq(y_bivariate(6, 6))),
        *op_Eq(y_bivariate(3, 4)),
    ]
    for coeffs in outputs:
        assert all(type(c) is int for c in coeffs)


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
    A = min(len(s1), len(s2))
    Q = min(len(s[0]) - 1 if s else 0 for s in (s1, s2))
    out = [[Fr(0)] * (Q + 1) for _ in range(A)]
    for a1 in range(1, A + 1):
        for a2 in range(1, A - a1 + 1):
            for b1 in range(Q + 1):
                for b2 in range(Q + 1 - b1):
                    out[a1 + a2 - 1][b1 + b2] += (
                        s1[a1 - 1][b1] * s2[a2 - 1][b2]
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
        row = st.lists(st.integers(-9, 9), min_size=Q + 1, max_size=Q + 1).map(tuple)
        rows = draw(st.lists(row, min_size=A, max_size=A))
        return tuple(rows)

    return series(draw(st.sampled_from([0, 1, 2, 4]))), series(
        draw(st.sampled_from([0, 1, 2, 4]))
    )


@example(((Fr(1, 2), Fr(1, 3)), (Fr(1, 5), Fr(2, 7))))
@given(power_series_pairs())
def test_ps_mul_matches_a_fraction_double_loop(pair):
    a, b = pair
    got = series_mul(LaurentSeries(0, a), LaurentSeries(0, b)).coeffs
    assert got == _ps_mul_reference(a, b)
    assert all(type(c) is Fr for c in got)


@example(
    (
        ((1, -3), (4, 0)),
        ((2, 7), (1, -5)),
    )
)
@given(bivariate_pairs())
def test_mul_bivariate_matches_a_fraction_double_loop(pair):
    s1, s2 = pair
    got = mul_bivariate(s1, s2)
    assert got == _bivariate_reference(s1, s2)
    assert all(type(c) is int for row in got for c in row)


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
                assert all(type(c) is int for c in got)


def _qz_rational_leaves(k, Q):
    """qz_rational's closed form summed leaf by leaf, one convolution per
    level: the prod(k_i + 1) leaves of the l-sum as written."""
    n = len(k)

    def geom_factor(L: int) -> list[int]:
        out = [0] * (Q + 1)
        for i in range(L, Q + 1, L):
            out[i] = -1
        return out

    total = [0] * (Q + 1)

    def descend(j: int, lsum: int, coeff: int, prod):
        if j == n:
            for i, c in enumerate(prod):
                total[i] += coeff * c
            return
        for l in range(k[j] + 1):
            c = coeff * comb(k[j], l) * (-1) ** (l + 1)
            factor = geom_factor(lsum + l + 1)
            nxt = factor if prod is None else convolve(prod, factor, Q + 1)
            descend(j + 1, lsum + l, c, nxt)

    descend(0, 0, 1, None)
    return tuple(total)


def test_qz_rational_equals_its_leaf_enumeration():
    # the block DP shared with psi against the sum over every leaf
    for n in (1, 2, 3):
        for k in product(range(4), repeat=n):
            for Q in (0, 1, 30):
                got = qz_rational(k, Q)
                assert got == _qz_rational_leaves(k, Q), (k, Q)
                assert all(type(c) is int for c in got), (k, Q)


# ------------------------------ integer routes against Fraction references
# The compositions below are the Fraction forms of the t-side routes, one
# coefficient at a time: J divides by m, delta multiplies by m, and products
# go through the Fraction double loop above.  The q-side operator route is
# held against the nested q-sum, an independent route.


def _li_J_reference(k, T):
    def power(s, e):
        for _ in range(abs(e)):
            s = (Fr(0),) + tuple(
                c / m if e > 0 else c * m for m, c in enumerate(s[1:], start=1)
            )
        return s

    y = (Fr(0),) + (Fr(1),) * T
    acc = power(y, k[-1])
    for e in reversed(k[:-1]):
        acc = power(_ps_mul_reference(y, acc), e)
    return acc


def _li_nested_reference(k, T):
    layer = [Fr(0)] + [Fr(1) / Fr(m) ** k[-1] for m in range(1, T + 1)]
    for e in reversed(k[:-1]):
        run, partial = Fr(0), [Fr(0)] * (T + 1)
        for m in range(1, T + 1):
            partial[m] = run  # the layer summed over indices < m
            run += layer[m]
        layer = [Fr(0)] + [partial[m] / Fr(m) ** e for m in range(1, T + 1)]
    return tuple(layer)


_LI_ROUTES = ((li_J, _li_J_reference), (li_nested, _li_nested_reference))


def _canonical(coeffs):
    return all(
        type(c) is Fr and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        for c in coeffs
    )


def test_li_routes_equal_their_fraction_references():
    for n in (1, 2, 3):
        for k in product(range(-2, 4), repeat=n):
            for route, reference in _LI_ROUTES:
                got = route(k, 30).coeffs
                assert got == reference(k, 30), (route.__name__, k)
                assert _canonical(got), (route.__name__, k)


def test_qchar_realization_equals_the_nested_q_sum():
    for n in (1, 2, 3):
        for k in product(range(4), repeat=n):
            got = qchar_realization(k, 20)
            assert got == qz_series(k, 20), k
            assert all(type(c) is int for c in got), k


def test_routes_at_the_smallest_truncations():
    for k in [(0,), (2,), (-1, 3), (3, 0, -2)]:
        for route, reference in _LI_ROUTES:
            assert route(k, 0).coeffs == reference(k, 0) == (Fr(0),)
            got = route(k, 1).coeffs
            assert got == reference(k, 1) and _canonical(got)
    for k in [(0,), (3,), (1, 2), (0, 0, 1)]:
        for Q in (0, 1):
            got = qchar_realization(k, Q)
            assert got == qz_series(k, Q) == _qz_brute_force(k, Q), (k, Q)
            assert all(type(c) is int for c in got), (k, Q)


# ------------------------------------- products by the geometric factors
# li_J, qchar_realization and qz_rational multiply by y(t) = t/(1 - t), by
# the bivariate y and by the atom q^L/(q^L - 1) = -(q^L + q^{2L} + ...) as
# running sums; the generic products are their reference.

_SIZES = (0, 1, 2, 30)


def _form(s):
    return s.ord, s.nums, s.den


def _random_series(rng, T):
    return _make(0, [rng.randint(-9, 9) for _ in range(T + 1)], rng.randint(1, 9))


def _qatom(L, Q):
    return _make(0, [-1 if i and i % L == 0 else 0 for i in range(Q + 1)], 1)


def _running_sum_mismatches(
    times_y=realizations._times_y,
    times_y_rows=realizations._times_y_rows,
    times_qatom=realizations._times_qatom,
):
    """The cases where a running sum differs from the generic product, on
    seeded random ints at T, Q in _SIZES and L in 1 .. Q."""
    rng = random.Random(33)
    bad = []
    for T in _SIZES:
        s = _random_series(rng, T)
        if _form(times_y(s)) != _form(series_mul(y_powerseries(T), s)):
            bad.append(("y", T))
        for Q in _SIZES:
            rows = tuple(
                tuple(rng.randint(-9, 9) for _ in range(Q + 1)) for _ in range(T)
            )
            if times_y_rows(rows) != mul_bivariate(y_bivariate(T, Q), rows):
                bad.append(("rows", T, Q))
    for Q in _SIZES:
        for L in range(1, Q + 1):
            s = _random_series(rng, Q)
            if _form(times_qatom(L, s)) != _form(series_mul(_qatom(L, Q), s)):
                bad.append(("atom", Q, L))
    return bad


def test_the_running_sums_equal_the_generic_products():
    assert _running_sum_mismatches() == []


@pytest.mark.parametrize(
    "fault",
    [
        pytest.param("times-y-with-current", id="t-side"),
        pytest.param("times-y-rows-with-current", id="q-side"),
        pytest.param("times-qatom-with-current", id="q-atom"),
    ],
)
def test_a_running_sum_that_includes_the_current_term_is_caught(fault):
    check(fault)
    (_, name), = FAULTS[fault].where
    assert _running_sum_mismatches(**{name[1:]: FAULTS[fault].plant(None)})
