from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from hopfmzv.coproduct import (
    coproduct_combinatorial,
    coproduct_recursive,
    reduced_coproduct,
)
from hopfmzv.errors import NotAdmissible
from hopfmzv.words import admissible_words, indices_to_word

Fr = Fraction


def test_y_is_grouplike_ish():
    assert coproduct_recursive("y", Fr(-1)) == {("", "y"): Fr(1), ("y", ""): Fr(1)}


def test_powers_of_y_give_binomials():
    for n in (2, 3, 4):
        w = "y" * n
        cop = coproduct_recursive(w, Fr(3))
        assert cop == {
            ("y" * l, "y" * (n - l)): Fr(comb(n, l)) for l in range(n + 1)
        }


def test_dny_is_primitive_for_every_lambda():
    for lam in (Fr(0), Fr(-1), Fr(7, 2)):
        for n in (1, 2, 3, 4):
            w = "d" * n + "y"
            assert reduced_coproduct(w, lam) == {}


def test_yddy_has_no_lambda_corrections():
    w = "yddy"
    for lam in (Fr(0), Fr(-1), Fr(5)):
        assert coproduct_recursive(w, lam) == {
            ("", w): Fr(1),
            ("y", "ddy"): Fr(1),
            ("ddy", "y"): Fr(1),
            (w, ""): Fr(1),
        }


def test_dydny_picks_up_lambda_terms():
    lam = Fr(-1)
    w = "dyddy"  # n = 2
    assert coproduct_recursive(w, lam) == {
        ("", w): Fr(1),
        (w, ""): Fr(1),
        ("y", "dddy"): Fr(1),
        ("ddy", "dy"): Fr(1),
        ("dy", "ddy"): Fr(1),
        ("dddy", "y"): Fr(1),
        ("dy", "dddy"): lam,
        ("dddy", "dy"): lam,
    }


def test_ddydy_full_display():
    # weight-5 word with two blocks: the lambda-filtration goes to lambda^2
    lam = Fr(5)
    w = "ddydy"
    assert coproduct_recursive(w, lam) == {
        ("", w): Fr(1),
        (w, ""): Fr(1),
        ("y", "dddy"): Fr(1),
        ("dy", "ddy"): Fr(3),
        ("ddy", "dy"): Fr(3),
        ("dddy", "y"): Fr(1),
        ("dy", "dddy"): 2 * lam,
        ("ddy", "ddy"): 4 * lam,
        ("dddy", "dy"): 2 * lam,
        ("ddy", "dddy"): lam**2,
        ("dddy", "ddy"): lam**2,
    }


def test_reduced_coproducts_at_zero():
    assert reduced_coproduct("yddy", Fr(0)) == {
        ("y", "ddy"): Fr(1),
        ("ddy", "y"): Fr(1),
    }
    assert reduced_coproduct("dydy", Fr(0)) == {
        ("y", "ddy"): Fr(1),
        ("ddy", "y"): Fr(1),
        ("dy", "dy"): Fr(2),
    }


def test_reduced_coproduct_at_minus_one_adds_corrections():
    assert reduced_coproduct("dydy", Fr(-1)) == {
        ("y", "ddy"): Fr(1),
        ("ddy", "y"): Fr(1),
        ("dy", "dy"): Fr(2),
        ("dy", "ddy"): Fr(-1),
        ("ddy", "dy"): Fr(-1),
    }


def test_inadmissible_words_rejected():
    with pytest.raises(NotAdmissible):
        coproduct_recursive("yd", Fr(-1))
    with pytest.raises(NotAdmissible):
        coproduct_combinatorial("d", Fr(0))
    with pytest.raises(NotAdmissible):
        reduced_coproduct("", Fr(0))


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3),
    st.sampled_from([Fr(0), Fr(-1), Fr(3), Fr(-1, 2)]),
)
def test_recursive_equals_combinatorial(k, lam):
    w = indices_to_word(k)
    recursive = coproduct_recursive(w, lam)
    combinatorial = coproduct_combinatorial(w, lam)
    assert recursive == combinatorial
    reduced = reduced_coproduct(w, lam)
    assert reduced == {key: c for key, c in combinatorial.items() if "" not in key}
    if lam.denominator == 1:  # Z[lambda] is Z: every coefficient an int
        for t in (recursive, combinatorial, reduced):
            assert all(type(c) is int for c in t.values())


def test_flat_form_equals_combinatorial_to_weight_8():
    for lam in (Fr(0), Fr(-1)):
        for w in admissible_words(8):
            flat = reduced_coproduct(w, lam)
            assert all(w1 and w2 and type(c) is int and c for (w1, w2), c in flat.items())
            full = {("", w): 1, **flat, (w, ""): 1}
            assert full == coproduct_combinatorial(w, lam), (w, lam)
    for lam in (Fr(3), Fr(-1, 2), Fr(2, 3)):
        for w in admissible_words(8):
            full = coproduct_recursive(w, lam)
            assert full == coproduct_combinatorial(w, lam), (w, lam)
            # a term with no doubled d owes no power of lambda: it stays an int
            assert all(type(c) is int for (l, r), c in full.items() if len(l + r) == len(w))
