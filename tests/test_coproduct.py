from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from hopfmzv import clear_caches, coproduct, shuffle, verify
from hopfmzv.coproduct import (
    coproduct_combinatorial,
    coproduct_recursive,
    reduced_coproduct,
)
from hopfmzv.errors import NotAdmissible
from hopfmzv.shuffle import shuffle_lambda
from hopfmzv.words import admissible_words, indices_to_word, word_to_indices
from test_faults import check, planted

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


def _rescaling_mismatches(reduced=reduced_coproduct):
    """The (w, lambda), w to weight 8, where reduced(w, lambda) is not
    N(l, r) lambda^j with N the lambda = 1 counts and j = |l| + |r| - |w|
    the doubled d's, or holds a non-int at integral lambda."""
    bad = []
    for w in admissible_words(8):
        counts = reduced(w, 1)
        for lam in (Fr(0), Fr(-1), Fr(3), Fr(-1, 2), Fr(2, 3), Fr(-5)):
            want = {
                (l, r): c * lam ** (len(l) + len(r) - len(w))
                for (l, r), c in counts.items()
            }
            got = reduced(w, lam)
            if got != {key: c for key, c in want.items() if c} or (
                lam.denominator == 1 and any(type(c) is not int for c in got.values())
            ):
                bad.append((w, lam))
    return bad


def test_every_lambda_rescales_the_lambda_one_counts():
    assert _rescaling_mismatches() == []


def _misses_hits(fn):
    info = fn.cache_info()
    return info.misses, info.hits


def test_a_word_is_counted_once_for_every_lambda():
    w = "dyddydy"
    clear_caches()
    got = {lam: reduced_coproduct(w, lam) for lam in (1, -1, 3, Fr(-1, 2))}
    # each call reads the count for its keys, and each new lambda's scaling
    # reads it once more
    assert _misses_hits(coproduct._counts) == (1, 7)
    assert _misses_hits(coproduct._scaled) == (4, 0)
    # lambda = 0 drops every doubled term: its smaller count is its own entry
    got[0] = reduced_coproduct(w, 0)
    assert reduced_coproduct(w, 0) == got[0]
    assert _misses_hits(coproduct._counts) == (2, 9)
    assert _misses_hits(coproduct._scaled) == (5, 1)
    # a lambda asked for again is a hit on both memos
    assert reduced_coproduct(w, Fr(-1, 2)) == got[Fr(-1, 2)]
    assert _misses_hits(coproduct._counts) == (2, 10)
    assert _misses_hits(coproduct._scaled) == (5, 2)
    kept = {lam: dict(t) for lam, t in got.items()}
    for t in got.values():  # a caller that edits its result
        t[("y", "dyddy")] = 99
        t.pop(("dy", "ddydy"))
    for lam, t in kept.items():
        assert reduced_coproduct(w, lam) == t, lam


def test_a_wrong_lambda_power_in_the_rescaling_is_caught():
    check("scaled-lambda-power")
    with planted("scaled-lambda-power"):
        assert _rescaling_mismatches()


# each group spells one lambda in several ways: an int, an unreduced
# Fraction, a str and a float all key the memos by the same (p, q)
_SPELLINGS = [(-1, Fr(-2, 2), "-1"), (Fr(-1, 3), "-1/3"), (Fr(1, 2), 0.5)]


def _typed(t):
    return [(key, type(c), c) for key, c in t.items()]


@pytest.mark.parametrize("spellings", _SPELLINGS, ids=str)
def test_every_spelling_of_a_lambda_shares_one_memo_entry(spellings):
    w = "dyddydy"
    clear_caches()
    first, *others = spellings
    want = _typed(reduced_coproduct(w, first))
    full = _typed(coproduct_recursive(w, first))
    for lam in others:
        assert _typed(reduced_coproduct(w, lam)) == want, lam
        assert _typed(coproduct_recursive(w, lam)) == full, lam
    assert _misses_hits(coproduct._scaled) == (1, 2 * len(others) + 1)
    shuffled = _typed(shuffle_lambda("dydy", "ddy", first))
    misses = _misses_hits(shuffle._shuffle)[0]
    for lam in others:
        assert _typed(shuffle_lambda("dydy", "ddy", lam)) == shuffled, lam
    assert _misses_hits(shuffle._shuffle)[0] == misses


_LAMBDA_ROUTES = {
    "reduced": lambda lam: reduced_coproduct("dyy", lam),
    "recursive": lambda lam: coproduct_recursive("dyy", lam),
    "combinatorial": lambda lam: coproduct_combinatorial("dy", lam),
    "shuffle": lambda lam: shuffle_lambda("dy", "y", lam),
}


@pytest.mark.parametrize("lam", ["1/0", None, float("inf"), float("nan")], ids=repr)
@pytest.mark.parametrize("route", _LAMBDA_ROUTES)
def test_a_lambda_that_is_not_a_rational_number_is_a_value_error(route, lam):
    # not a ZeroDivisionError, TypeError or OverflowError from Fraction()
    with pytest.raises(ValueError, match=f"lambda must be a rational number, not {lam!r}"):
        _LAMBDA_ROUTES[route](lam)


def test_a_misaligned_scaling_is_caught():
    check("scaled-misaligned")


def _one_lambda_subset_formula(w, lam):
    """The subset formula at one lambda, as coproduct_combinatorial ran it
    before the lambda-free counts were split from the per-lambda build: the
    J-terms are not enumerated at lambda = 0."""
    p, q = Fraction(lam).as_integer_ratio()
    n = len(w)
    threshold = n - (word_to_indices(w)[-1] + 1) if w else 0
    cand = sum(1 << i for i in range(threshold - 1) if w[i] == "d")
    sub = [""] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        sub[S] = w[low.bit_length() - 1] + sub[S ^ low]
    counts: dict = {}
    full = (1 << n) - 1
    for S, left in enumerate(sub):
        comp = full ^ S
        if left[-1:] == "d" or sub[comp][-1:] == "d":
            continue
        key = (left, sub[comp], 0)
        counts[key] = counts.get(key, 0) + 1
        avail = S & cand if p else 0
        J = avail
        while J:
            aug_right = sub[comp | J]
            if aug_right[-1:] != "d":
                key = (left, aug_right, J.bit_count())
                counts[key] = counts.get(key, 0) + 1
            J = (J - 1) & avail
    acc: dict = {}
    for (left, right, j), c in counts.items():
        term = c * p**j if q == 1 or not j else Fraction(c * p**j, q**j)
        key = left, right
        acc[key] = acc[key] + term if key in acc else term
    return {key: c for key, c in acc.items() if c}


def test_the_split_subset_formula_equals_the_one_lambda_formula():
    # same terms, coefficient types and insertion order, to weight 8
    for w in admissible_words(8, include_empty=True):
        for lam in (0, -1, 3, Fr(-1, 2), Fr(2, 3), 1, -5):
            got = list(coproduct_combinatorial(w, lam).items())
            want = list(_one_lambda_subset_formula(w, lam).items())
            assert got == want, (w, lam)
            assert [type(c) for _, c in got] == [type(c) for _, c in want], (w, lam)


def test_the_route_check_enumerates_each_word_once(monkeypatch):
    calls = []
    real = verify._subset_counts
    monkeypatch.setattr(verify, "_subset_counts", lambda w: calls.append(w) or real(w))
    routes = dict(verify.SUITES["hopf"]())["coproduct-recursive-equals-combinatorial"]
    assert routes() == (True, "")
    words = list(admissible_words(7, include_empty=True))
    assert calls == words
