import json
from fractions import Fraction
from importlib import resources
from math import factorial

import pytest

from hopfmzv.bernoulli import bernoulli
from hopfmzv.errors import EvenWeight, NotAdmissible, PrecisionExceeded
from hopfmzv.realizations import (
    mero_depth1,
    mero_depth2,
    phi,
    psi,
    psi_C,
    psi_factor,
    x_series,
)
from hopfmzv.series import (
    LaurentSeries,
    equal_on_window,
    series_from_json,
    series_mul,
    series_slice,
)
from hopfmzv.verify import _psi_coeff_oracle
from hopfmzv.words import admissible_words, weight, word_to_indices

Fr = Fraction


def _fixture_entries():
    text = (
        resources.files("hopfmzv")
        .joinpath("fixtures/example_series.json")
        .read_text()
    )
    return json.loads(text)


def test_worked_series_match_the_fixture_exactly():
    for entry in _fixture_entries():
        char = phi if entry["kind"] == "phi" else psi
        want = series_from_json(entry["series"])
        got = series_slice(char(entry["word"], want.valid_through), want.valid_through)
        assert got.ord == want.ord, entry["word"]
        assert got.coeffs == want.coeffs, (entry["kind"], entry["word"])


def test_phi_of_y_is_the_x_atom():
    assert equal_on_window(phi("y", 8), x_series(8), 6)


def test_psi_of_y_equals_phi_of_y():
    assert equal_on_window(phi("y", 8), psi("y", 8), 6)


def test_phi_leading_pole():
    # phi(d^k y) ~ (-1)^(k+1) k! z^-(k+1)
    for k in range(5):
        s = phi("d" * k + "y", 1)
        assert s.ord == -(k + 1)
        assert s.coefficient(-(k + 1)) == Fr((-1) ** (k + 1) * factorial(k))


def test_psi_depth_one_pole_is_simple():
    # every psi(d^k y) keeps a simple pole: sum_l binom(k,l)(-1)^(l+1)/(l+1)
    for k in range(1, 5):
        assert psi("d" * k + "y", 1).ord == -1


def test_atoms_equal_the_fraction_series():
    # f(Lz) = sum_m B_m L^(m-1)/m! z^(m-1) as one Fraction per coefficient
    for L in range(1, 17):
        for V in range(-2, 31):
            a = psi_factor(L, V)
            coeffs = [bernoulli(m) * Fr(L) ** (m - 1) / factorial(m) for m in range(V + 2)]
            b = LaurentSeries(-1, coeffs)
            assert (a.ord, a.nums, a.den) == (b.ord, b.nums, b.den)


@pytest.mark.parametrize("level", [2.5, Fr(3, 2), 0, -1, "2"])
def test_atom_level_must_be_a_positive_integer(level):
    with pytest.raises(ValueError, match="level must be (an integer|>= 1)"):
        psi_factor(level, 2)


def test_atom_window_is_an_integer_from_minus_two():
    # at -2 the atom is empty below its pole; a window further down is refused
    assert psi_factor(3, -2).valid_through == -2 and not psi_factor(3, -2).nums
    for V, message in [(-3, "window must be >= -2, got -3"), (2.0, "window must be an integer")]:
        with pytest.raises(ValueError, match=message):
            psi_factor(1, V)


def test_psi_dydy_as_an_explicit_f_combination():
    # f(z)^2 - f(z) f(2z) - f(2z)^2 + f(2z) f(3z)
    V = 8
    f1, f2, f3 = psi_factor(1, V), psi_factor(2, V), psi_factor(3, V)
    explicit = (
        series_mul(f1, f1)
        - series_mul(f1, f2)
        - series_mul(f2, f2)
        + series_mul(f2, f3)
    )
    assert equal_on_window(psi("dydy", 5), explicit, 6)


def test_constant_oracle_structure():
    # C^k_m vanishes for m = 1..k and equals (-1)^(k+1) k! at m = k+1
    for k in range(1, 6):
        for m in range(1, k + 1):
            assert psi_C((k,), (m,)) == 0
        assert psi_C((k,), (k + 1,)) == Fr((-1) ** (k + 1) * factorial(k))
    assert psi_C((0,), (1,)) == -1
    with pytest.raises(ValueError):
        psi_C((1, 2), (1,))


def test_inadmissible_words_rejected():
    with pytest.raises(NotAdmissible):
        phi("dyd", 1)
    with pytest.raises(NotAdmissible):
        psi("d", 1)


def test_empty_word_realizes_the_unit():
    for char in (phi, psi):
        s = char("", 4)
        assert s.coefficient(0) == 1
        assert all(s.coefficient(n) == 0 for n in range(1, 5))


def test_requested_window_is_honoured():
    s = phi("ddydy", 7)
    assert s.valid_through >= 7
    with pytest.raises(PrecisionExceeded):
        s.coefficient(s.valid_through + 1)


def test_plan_is_exact():
    words = list(admissible_words(8, include_empty=True))
    for P in (-1, 0, 3, 14):
        for w in words:
            assert phi(w, P).valid_through == P, (w, P)
            assert psi(w, P).valid_through == P, (w, P)


def _x_list(n):
    """x = -sum_m B_m z^{m-1}/m! (B_1 = +1/2), n Fractions from z^-1."""
    return [-bernoulli(m) / factorial(m) for m in range(n)]


def _times(x, acc):
    """The Cauchy product of two Fraction lists, as long as acc."""
    return [sum(x[i] * acc[m - i] for i in range(m + 1)) for m in range(len(acc))]


def _phi_chain(w, P):
    """D^{k_1}[x * D^{k_2}[x * ... D^{k_n}[x]]] as (ord, Fractions from z^ord),
    x = -sum_m B_m z^{m-1}/m! (B_1 = +1/2) through P + wt - 1.  An inline
    Cauchy product by x (ord -1) and a termwise derivative each lower ord by
    one and keep the list's length, so the chain, at ord -wt, ends at z^P.
    phi's chain run on Fraction lists: no series arithmetic."""
    x = _x_list(P + weight(w) + 1)
    ord_, acc = 0, None
    for k in reversed(word_to_indices(w)):
        acc = x if acc is None else _times(x, acc)
        ord_ -= 1
        for _ in range(k):
            acc = [(ord_ + i) * c for i, c in enumerate(acc)]
            ord_ -= 1
    return ord_, acc


def test_phi_equals_the_full_derivative_chain():
    for P in (-1, 0, 3):
        for w in admissible_words(8):
            got, (ord_, want) = phi(w, P), _phi_chain(w, P)
            assert (ord_, ord_ + len(want) - 1) == (-weight(w), P), (w, P)
            assert got.valid_through == P, (w, P)
            assert [got.coefficient(e) for e in range(ord_, P + 1)] == want, (w, P)


def test_phi_is_a_polynomial_in_x(ypoly):
    # phi(w) = P_w(x), read at _phi_chain's Fraction x-series through Cauchy
    # powers of x: x^j from z^-j, its list as long as x's, reaches z^(P + wt - j)
    for P in (-1, 0, 3):
        for w in admissible_words(8):
            g, cs = weight(w), ypoly(word_to_indices(w))
            assert (len(cs), cs[0]) == (g + 1, 0), w  # degree wt, no constant term
            x = _x_list(P + g + 1)
            want, power = [Fr(0)] * (P + g + 1), x
            for j, c in enumerate(cs[1:], 1):
                for r in range(P + j + 1):  # x^j at z^(r - j), through z^P
                    want[r - j + g] += c * power[r]
                power = _times(x, power)
            got = phi(w, P)
            assert [got.coefficient(e) for e in range(-g, P + 1)] == want, (w, P)


def test_a_deep_word_needs_no_recursion():
    # one loop pass per block, so y^600 is as safe as y: x^600 at its pole
    s = phi("y" * 600, -600)
    assert (s.ord, s.nums, s.den) == (-600, (1,), 1)


def test_psi_equals_the_constant_oracle_past_the_verify_range():
    # verify checks n + |k| <= 5; here every word to weight 7 at every depth,
    # 1083 coefficients, since the oracle counts in integers
    for w in admissible_words(7):
        k = word_to_indices(w)
        s = psi(w, 4)
        for e in range(-len(k), 5):
            assert s.coefficient(e) == _psi_coeff_oracle(k, e), (k, e)


def test_depth1_closed_form():
    assert mero_depth1(0) == Fr(-1, 2)
    assert mero_depth1(1) == Fr(-1, 12)
    assert mero_depth1(2) == 0
    assert mero_depth1(3) == Fr(1, 120)
    with pytest.raises(ValueError):
        mero_depth1(-1)


def test_depth2_closed_form():
    assert mero_depth2(0, 1) == Fr(1, 24)
    assert mero_depth2(1, 0) == Fr(1, 12)
    assert mero_depth2(3, 2) == Fr(1, 504)
    with pytest.raises(EvenWeight):
        mero_depth2(1, 1)
    with pytest.raises(ValueError):
        mero_depth2(-1, 2)
