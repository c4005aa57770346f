import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hopfmzv import birkhoff, clear_caches
from hopfmzv.birkhoff import (
    CharacterTable,
    _counterterm,
    qzeta_plus,
    zeta_plus,
    zeta_plus_via_primitives,
)
from hopfmzv.errors import DepthOne
from hopfmzv.realizations import mero_depth2, phi, psi
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
    # entries are integers, not anything int() would truncate or parse
    for route in (zeta_plus, qzeta_plus, zeta_plus_via_primitives):
        for k in [(1.5,), ("3",), (1, Fr(1, 2)), (1, None)]:
            with pytest.raises(ValueError):
                route(k)


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


def test_counterterms_are_shared_across_calls():
    first = zeta_plus((1, 2, 1))
    misses = _counterterm.cache_info().misses
    assert zeta_plus((1, 2, 1)) == first
    assert _counterterm.cache_info().misses == misses
    clear_caches()
    assert _counterterm.cache_info().currsize == 0
    assert zeta_plus((1, 2, 1)) == first
    assert _counterterm.cache_info().currsize > 0


def test_a_rebound_kinds_table_is_seen(monkeypatch):
    # a tool that wraps the characters rebinds _KINDS with new
    # (character, lambda) pairs; the engine reads it on every miss
    calls = Counter()

    def counted(char):
        def wrapper(w, P):
            calls[char.__name__] += 1
            return char(w, P)

        return wrapper

    expected = zeta_plus((1, 2)).value, qzeta_plus((1, 2)).value
    kinds = {kind: (counted(char), lam) for kind, (char, lam) in birkhoff._KINDS.items()}
    monkeypatch.setattr(birkhoff, "_KINDS", kinds)
    clear_caches()
    assert (zeta_plus((1, 2)).value, qzeta_plus((1, 2)).value) == expected
    assert calls["phi"] > 0 and calls["psi"] > 0


def test_each_coproduct_is_enumerated_once(monkeypatch):
    # the engine reads a word's coproduct only behind a memoized counterterm
    # or a top-level value, so a coproduct memo would never be hit
    seen = Counter()
    enumerate_legs = birkhoff.reduced_legs

    def counted(w, lam):
        seen[w, lam] += 1
        return enumerate_legs(w, lam)

    monkeypatch.setattr(birkhoff, "reduced_legs", counted)
    clear_caches()
    misses = _counterterm.cache_info().misses
    zeta_plus((1,) * 5)
    qzeta_plus((2, 2, 2))
    assert seen and set(seen.values()) == {1}
    assert sum(seen.values()) == _counterterm.cache_info().misses - misses + 2


@pytest.mark.parametrize(
    "value, k, char",
    [(zeta_plus, (1,) * 5, phi), (qzeta_plus, (2, 2, 2), psi)],
    ids=["phi", "psi"],
)
def test_one_character_per_word_per_call(value, k, char):
    # one atom window per call: each word's character is built once, so the
    # character memo holds the top-level word and one entry per counterterm
    clear_caches()
    value(k)
    assert char.cache_info().currsize == _counterterm.cache_info().currsize + 1
    assert birkhoff._WINDOW.get(None) is None  # reset when the call returns


_VECTORS = [(3,), (0, 0), (2, 1), (1, 1, 1), (0, 3, 1), (2, 2, 1), (1, 2, 1, 0)]


def _both_values(k):
    return zeta_plus(k).value, qzeta_plus(k).value


def test_values_do_not_depend_on_the_window():
    fresh = {}
    for k in _VECTORS:
        clear_caches()
        fresh[k] = _both_values(k)
    # a counterterm is built under the window of whichever call needs it
    # first: small calls first, large calls first, or several at once
    for reverse in (False, True):
        clear_caches()
        for k in sorted(_VECTORS, key=lambda k: sum(k) + len(k), reverse=reverse):
            assert _both_values(k) == fresh[k], (k, reverse)
    clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(_both_values, _VECTORS * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [fresh[k] for k in _VECTORS * 3]


def _shape(s):
    return s.ord, s.nums, s.den


def _rows(kind, w, precs):
    """Every CharacterTable row of w at each prec, and w's counterterm."""
    rows = []
    for prec in precs:
        table = CharacterTable(kind, prec=prec)
        for name in ("chi", "chi_bar", "chi_minus", "chi_plus"):
            s = getattr(table, name)(w)
            assert s.valid_through == prec, (kind, w, prec, name)
            rows.append(_shape(s))
    return rows, _shape(_counterterm(kind, w))


@pytest.mark.parametrize(
    "kind, wide, max_weight",
    [("phi", lambda: zeta_plus((1,) * 6), 6), ("psi", lambda: qzeta_plus((2, 2, 2)), 5)],
    ids=["phi", "psi"],
)
def test_rows_after_a_wide_call_equal_fresh_rows(kind, wide, max_weight):
    words, precs = list(admissible_words(max_weight)), (-2, -1, 0, 3)
    fresh = {}
    for w in words:
        clear_caches()
        fresh[w] = _rows(kind, w, precs)
    clear_caches()
    wide()
    for w in words:
        assert _rows(kind, w, precs) == fresh[w], w


def test_depth_two_matches_the_closed_form_through_weight_25():
    for total in range(1, 26, 2):
        for a in range(total + 1):
            k = (a, total - a)
            assert zeta_plus(k).value == mero_depth2(*k), k


def test_primitive_route_agrees_on_every_word_to_weight_10():
    for w in admissible_words(10):
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
