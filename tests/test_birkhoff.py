import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hopfmzv.birkhoff import (
    CharacterTable,
    qzeta_plus,
    zeta_plus,
    zeta_plus_via_primitives,
)
from hopfmzv.errors import DepthOne
from hopfmzv.realizations import mero_depth2
from hopfmzv.series import equal_on_window, series_add
from hopfmzv.words import admissible_words, depth, word_to_indices

Fr = Fraction


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        CharacterTable("chi")


def test_counterterm_of_a_primitive_is_one_pure_pole():
    table = CharacterTable("phi", prec=2)
    for k in range(5):
        minus = table.chi_minus("d" * k + "y")
        assert minus.coefficient(-(k + 1)) == Fr((-1) ** k * factorial(k))
        others = [
            n
            for n in range(minus.ord, minus.valid_through + 1)
            if n != -(k + 1) and minus.coefficient(n) != 0
        ]
        assert others == []


def test_dydy_constant_terms():
    table = CharacterTable("phi", prec=1)
    assert table.chi("dydy").coefficient(0) == Fr(1, 240)
    assert table.chi_bar("dydy").coefficient(0) == Fr(1, 144)
    assert table.chi_plus("dydy").coefficient(0) == Fr(1, 144)
    assert table.chi_minus("dydy").coefficient(0) == 0


def test_yddy_renormalizes_to_zero():
    table = CharacterTable("phi", prec=1)
    assert table.chi_plus("yddy").coefficient(0) == 0


def test_plus_minus_bar_identity():
    for kind in ("phi", "psi"):
        table = CharacterTable(kind, prec=4)
        for w in ("dy", "dydy", "yddy", "ddydy", "yyy"):
            lhs = series_add(table.chi_plus(w), -table.chi_minus(w))
            assert equal_on_window(lhs, table.chi_bar(w), 4), (kind, w)


def test_plus_part_is_pole_free():
    table = CharacterTable("psi", prec=3)
    for w in ("dy", "ddy", "dydy", "dyddy"):
        plus = table.chi_plus(w)
        assert all(plus.coefficient(n) == 0 for n in range(plus.ord, 0)), w


def test_rows_are_valid_through_prec():
    for kind in ("phi", "psi"):
        for prec in (1, 3):
            table = CharacterTable(kind, prec=prec)
            for w in admissible_words(7):
                for name in ("chi", "chi_bar", "chi_minus", "chi_plus"):
                    s = getattr(table, name)(w)
                    assert s.valid_through >= prec, (kind, prec, w, name)


def test_zeta_plus_literals():
    assert zeta_plus((0,)).value == Fr(-1, 2)
    assert zeta_plus((1,)).value == Fr(-1, 12)
    assert zeta_plus((0, 0)).value == Fr(1, 4)
    assert zeta_plus((1, 1)).value == Fr(1, 144)
    assert zeta_plus((3, 3)).value == Fr(107, 100800)


def test_the_quarter_is_not_the_naive_three_eighths():
    # the unrenormalized stuffle heuristic would give 3/8 at (0,0)
    assert zeta_plus((0, 0)).value != Fr(3, 8)


def test_qzeta_matches_zeta_at_spots():
    for k in [(0,), (2,), (0, 0), (1, 1), (2, 1)]:
        assert qzeta_plus(k).value == zeta_plus(k).value, k


def test_psi_plus_rescaling_window():
    table = CharacterTable("psi", prec=4)
    plus = table.chi_plus("dydy")  # |k| = 2
    assert plus.coefficient(0) == 0
    assert plus.coefficient(1) == 0
    assert plus.coefficient(2) == Fr(1, 144)


def test_provenance_tags():
    assert zeta_plus((1,)).provenance == "phi-constant-term"
    assert qzeta_plus((1,)).provenance == "psi-rescaled-limit"
    assert zeta_plus_via_primitives((1, 1)).provenance == "primitive-decomposition"


def test_primitive_route_agrees():
    for k in [(0, 0), (1, 1), (2, 1), (3, 3), (1, 0, 1)]:
        assert zeta_plus_via_primitives(k).value == zeta_plus(k).value, k


def test_primitive_route_needs_depth_two():
    with pytest.raises(DepthOne):
        zeta_plus_via_primitives((2,))


def test_argument_validation():
    with pytest.raises(ValueError):
        zeta_plus(())
    with pytest.raises(ValueError):
        zeta_plus((1, -2))


def test_table_is_thread_safe():
    words = list(admissible_words(5))
    reference = {}
    single = CharacterTable("phi", prec=1)
    for w in words:
        reference[w] = single.chi_plus(w).coefficient(0)

    shared = CharacterTable("phi", prec=1)
    jobs = words * 4
    random.Random(7).shuffle(jobs)

    def probe(w):
        return w, shared.chi_plus(w).coefficient(0)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for w, v in pool.map(probe, jobs):
            assert v == reference[w], w


def test_depth_two_matches_the_closed_form_through_weight_25():
    for total in range(1, 26, 2):
        for a in range(total + 1):
            k = (a, total - a)
            assert zeta_plus(k).value == mero_depth2(*k), k


def test_primitive_route_agrees_on_every_word_to_weight_8():
    for w in admissible_words(8):
        if depth(w) >= 2:
            k = word_to_indices(w)
            assert zeta_plus(k).value == zeta_plus_via_primitives(k).value, w


@st.composite
def _vectors(draw, max_weight=12):
    """Index vectors of depth 2-4 whose word has weight <= max_weight."""
    n = draw(st.integers(min_value=2, max_value=4))
    budget = max_weight - n
    k = []
    for _ in range(n):
        k.append(draw(st.integers(min_value=0, max_value=budget)))
        budget -= k[-1]
    return tuple(k)


@settings(max_examples=60, deadline=None)
@given(_vectors())
def test_three_routes_agree(k):
    value = zeta_plus(k).value
    assert qzeta_plus(k).value == value
    assert zeta_plus_via_primitives(k).value == value
