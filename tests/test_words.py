from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfmzv import coproduct, realizations, shuffle
from hopfmzv.errors import NotAdmissible
from hopfmzv.words import (
    MEMO_ENTRIES,
    admissible_words,
    depth,
    indices_to_word,
    is_admissible,
    parse_word,
    project_T,
    weight,
    word_key,
    word_to_indices,
    wordsum_from_json,
    wordsum_to_json,
    ws_add,
    ws_scale,
)


def test_parse_word_accepts_dy_strings():
    assert parse_word("ddydy") == "ddydy"
    assert parse_word("") == ""


def test_parse_word_rejects_other_letters():
    for bad in ("dxy", "DY", "d y", "01"):
        with pytest.raises(SyntaxError):
            parse_word(bad)


def test_admissibility_weight_depth():
    assert is_admissible("") and is_admissible("y") and is_admissible("ddy")
    assert not is_admissible("d") and not is_admissible("yd")
    assert weight("ddydy") == 5 and depth("ddydy") == 2
    assert weight("") == 0 and depth("") == 0


def test_index_vector_round_trip():
    assert indices_to_word((2, 1)) == "ddydy"
    assert indices_to_word((0,)) == "y"
    assert word_to_indices("ddydy") == (2, 1)
    assert word_to_indices("y") == (0,)
    with pytest.raises(NotAdmissible):
        word_to_indices("ddy" + "d")
    with pytest.raises(ValueError):
        indices_to_word(())
    with pytest.raises(ValueError):
        indices_to_word((-1,))


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4))
def test_round_trip_is_identity(k):
    assert word_to_indices(indices_to_word(k)) == tuple(k)


def test_admissible_words_canonical_order():
    words = list(admissible_words(3))
    assert words == ["y", "dy", "yy", "ddy", "dyy", "ydy", "yyy"]
    assert next(admissible_words(2, include_empty=True)) == ""
    # canonical order sorts by (length, lexicographic)
    assert sorted(words, key=word_key) == words


def test_projection_drops_trailing_d():
    s = {"dy": Fraction(1), "yd": Fraction(5), "": Fraction(2)}
    assert project_T(s) == {"dy": Fraction(1), "": Fraction(2)}


def test_wordsum_algebra_drops_zeros():
    a = {"y": Fraction(1), "dy": Fraction(2)}
    b = {"dy": Fraction(-2)}
    assert ws_add(a, b) == {"y": Fraction(1)}
    assert ws_scale(a, 0) == {}


def test_wordsum_json_round_trip():
    s = {"ydy": Fraction(-1, 3), "y": Fraction(2), "": Fraction(1)}
    obj = wordsum_to_json(s)
    words = [t["word"] for t in obj["terms"]]
    assert words == sorted(words, key=word_key)
    assert wordsum_from_json(obj) == s


def test_every_process_wide_memo_is_bounded():
    caches = {
        name: fn
        for mod in (realizations, shuffle, coproduct)
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_info")
    }
    assert set(caches) == {
        "psi_factor",
        "_phi_planned",
        "_psi_planned",
        "_shuffle",
        "_coproduct_recursive",
        "_coproduct_combinatorial",
    }
    for name, fn in caches.items():
        assert fn.cache_info().maxsize == MEMO_ENTRIES, name
