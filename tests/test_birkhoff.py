import hashlib
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
    _qzeta_plus_birkhoff,
    _zeta_plus_birkhoff,
    qzeta_plus,
    zeta_plus,
    zeta_plus_via_primitives,
)
from hopfmzv.errors import DepthOne
from hopfmzv.realizations import mero_depth2, phi, psi
from hopfmzv.series import equal_on_window, pole_part, regular_part, series_add, series_slice
from hopfmzv.words import admissible_words, depth, weight, word_to_indices

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
    assert zeta_plus((1,)).provenance == "phi-placement-dp"
    assert qzeta_plus((1,)).provenance == "psi-placement-dp"
    assert _zeta_plus_birkhoff((1,)).provenance == "phi-constant-term"
    assert _qzeta_plus_birkhoff((1,)).provenance == "psi-rescaled-limit"
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
    first = _zeta_plus_birkhoff((1, 2, 1))
    misses = _counterterm.cache_info().misses
    assert _zeta_plus_birkhoff((1, 2, 1)) == first
    assert _counterterm.cache_info().misses == misses
    clear_caches()
    assert _counterterm.cache_info().currsize == 0
    assert _zeta_plus_birkhoff((1, 2, 1)) == first
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

    expected = _zeta_plus_birkhoff((1, 2)).value, _qzeta_plus_birkhoff((1, 2)).value
    kinds = {kind: (counted(char), lam) for kind, (char, lam) in birkhoff._KINDS.items()}
    monkeypatch.setattr(birkhoff, "_KINDS", kinds)
    clear_caches()
    assert (_zeta_plus_birkhoff((1, 2)).value, _qzeta_plus_birkhoff((1, 2)).value) == expected
    assert calls["phi"] > 0 and calls["psi"] > 0


def test_each_coproduct_is_enumerated_once(monkeypatch):
    # the engine reads a word's coproduct only behind a memoized counterterm
    # or a top-level row, so a coproduct memo would never be hit
    seen = Counter()
    enumerate_legs = birkhoff.reduced_legs

    def counted(w, lam):
        seen[w, lam] += 1
        return enumerate_legs(w, lam)

    monkeypatch.setattr(birkhoff, "reduced_legs", counted)
    clear_caches()
    misses = _counterterm.cache_info().misses
    _zeta_plus_birkhoff((1,) * 5)
    _qzeta_plus_birkhoff((2, 2, 2))
    assert seen and set(seen.values()) == {1}
    assert sum(seen.values()) == _counterterm.cache_info().misses - misses + 2


_VECTORS = [(3,), (0, 0), (2, 1), (1, 1, 1), (0, 3, 1), (2, 2, 1), (1, 2, 1, 0)]


def _both_values(k):
    return _zeta_plus_birkhoff(k).value, _qzeta_plus_birkhoff(k).value


def test_values_do_not_depend_on_the_window():
    fresh = {}
    for k in _VECTORS:
        clear_caches()
        fresh[k] = _both_values(k)
    # the memos hold whatever the calls before left there: small calls
    # first, large calls first, or several at once
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
    [
        ("phi", lambda: _zeta_plus_birkhoff((1,) * 6), 6),
        ("psi", lambda: _qzeta_plus_birkhoff((2, 2, 2)), 5),
    ],
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


# sha256 of (ord, nums, den) for every CharacterTable row of both kinds and
# every word to weight 6, at each prec below.  Rows are exact, so a change to
# the engine that keeps them keeps this digest.  At prec -5 the short words'
# rows are empty windows below their order, whose ord is part of the form.
_ROWS_DIGEST = "f891a215ded8ac1320e1c93387e7519ba2688a218ca420ba4a141690a11215eb"


def test_rows_are_pinned():
    digest = hashlib.sha256()
    for kind in ("phi", "psi"):
        for w in admissible_words(6):
            for shape in _rows(kind, w, (-5, -2, -1, 0, 3))[0]:
                digest.update(repr(shape).encode())
    assert digest.hexdigest() == _ROWS_DIGEST


def test_depth_two_matches_the_closed_form_below_40():
    for a in range(40):
        for b in range(40):
            if (a + b) % 2:
                assert zeta_plus((a, b)).value == mero_depth2(a, b), (a, b)


def test_primitive_route_agrees_on_every_word_to_weight_10():
    # the placement DP, the Birkhoff engine and the primitive recursion
    for w in admissible_words(10):
        if w:
            k = word_to_indices(w)
            value = zeta_plus(k).value
            assert _zeta_plus_birkhoff(k).value == value, w
            if depth(w) >= 2:
                assert zeta_plus_via_primitives(k).value == value, w


def test_q_side_dp_equals_the_engine_to_weight_8():
    for w in admissible_words(8):
        if w:
            k = word_to_indices(w)
            assert qzeta_plus(k).value == _qzeta_plus_birkhoff(k).value, w


def test_deep_vectors_agree_at_both_lambdas():
    # past the engine's reach (its cost grows about 5x per unit of depth);
    # the two lambdas build on independent depth-one data, Bernoulli numbers
    # and psi atoms, so each is the other's reference
    for k in [(1,) * 10, (1,) * 20, (3,) * 8]:
        assert zeta_plus(k).value == qzeta_plus(k).value, k


@pytest.mark.parametrize("kind, grade", [("phi", weight), ("psi", depth)], ids=["phi", "psi"])
def test_rows_factor_through_depth_one(kind, grade):
    # the character group is abelian, so chi_minus = exp(-pi Z) and
    # chi_plus = exp((1 - pi) Z) with Z = log chi supported on depth one:
    # the placement sum of -pi chi(d^a y), resp. (1 - pi) chi(d^a y).  The
    # legs that share a d (lambda = -1) add nothing to a value, but they do
    # reach these rows.
    prec = 2
    table = CharacterTable(kind, prec=prec)
    lam = int(table.lam)
    for w in admissible_words(8):
        if not w:
            continue
        # each factor wide enough that the n-fold product is valid to prec
        wide = CharacterTable(kind, prec=prec + grade(w))
        ks = word_to_indices(w)
        minus = birkhoff._placements(ks, lam, lambda a: -pole_part(wide.chi("d" * a + "y")))
        plus = birkhoff._placements(ks, lam, lambda a: regular_part(wide.chi("d" * a + "y")))
        assert _shape(series_slice(minus, prec)) == _shape(table.chi_minus(w)), w
        assert _shape(series_slice(plus, prec)) == _shape(table.chi_plus(w)), w


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
    assert _zeta_plus_birkhoff(k).value == value
