from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hopfmzv
from hopfmzv import birkhoff, coproduct, realizations, shuffle
from hopfmzv.errors import NotAdmissible
from hopfmzv.words import (
    MEMO_ENTRIES,
    admissible_words,
    depth,
    indices_to_word,
    is_admissible,
    parse_word,
    project_T,
    scalar,
    weight,
    word_key,
    word_to_indices,
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


def test_a_letter_other_than_d_or_y_is_not_admissible():
    # each of these once read only the last letter and returned dy's value
    assert not any(is_admissible(w) for w in ("xy", "zy", "dxy", "Dy", "d y"))
    calls = [
        (word_to_indices, "xy"),
        (realizations.phi, "xy", 2),
        (realizations.psi, "xy", 2),
        (hopfmzv.CharacterTable("phi").chi_plus, "zy"),
        (coproduct.coproduct_recursive, "xy", 0),
    ]
    for fn, *args in calls:
        with pytest.raises(NotAdmissible):
            fn(*args)


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
    # entries are integers, not anything int() would truncate or parse
    for k in [(1.5,), ("3",), (1, None)]:
        with pytest.raises(ValueError):
            indices_to_word(k)


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


def test_scalar_is_an_int_when_integral():
    for c in (3, -4, Fraction(6, 3), "-4/2", "0", 2.0):
        assert type(scalar(c)) is int and scalar(c) == Fraction(c), c
    for c in (Fraction(-1, 2), "1/3", 1.5):
        assert type(scalar(c)) is Fraction and scalar(c) == Fraction(c), c
    with pytest.raises(ValueError):
        scalar("x")  # what Fraction() rejects
    total = ws_add({"y": 1}, ws_scale({"y": 1, "dy": 2}, "6/3"))
    assert total == {"y": 3, "dy": 4} and all(type(c) is int for c in total.values())


def test_wordsum_json_round_trip():
    s = {"ydy": Fraction(-1, 3), "y": Fraction(2), "": Fraction(1)}
    obj = wordsum_to_json(s)
    words = [t["word"] for t in obj["terms"]]
    assert words == sorted(words, key=word_key)
    assert {t["word"]: Fraction(t["coeff"]) for t in obj["terms"]} == s


def _process_wide_memos() -> dict:
    return {
        name: fn
        for mod in (realizations, shuffle, coproduct, birkhoff)
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_info")
    }


def test_every_process_wide_memo_is_bounded():
    caches = _process_wide_memos()
    assert set(caches) == {
        "psi_factor",
        "phi",
        "psi",
        "_shuffle",
        "_counterterm",
        "_rows",
        "_primitive_value",
        "_counts",
        "_scaled",
    }
    for name, fn in caches.items():
        assert fn.cache_parameters() == {"maxsize": MEMO_ENTRIES, "typed": True}, name


@pytest.mark.parametrize(
    "name, bad, good, error",
    [
        ("psi_factor", (2.0, 2), (2, 2), ValueError),
        ("psi_factor", (Fraction(2), 2), (2, 2), ValueError),
        ("phi", ("dy", 3.0), ("dy", 3), ValueError),
    ],
)
def test_a_memo_hit_does_not_skip_the_argument_check(name, bad, good, error):
    # an argument equal to a cached one but of another type is a miss, so
    # the bad call raises the same error cold and after the good call
    fn = getattr(realizations, name)
    hopfmzv.clear_caches()
    with pytest.raises(error) as cold:
        fn(*bad)
    fn(*good)
    with pytest.raises(error) as warm:
        fn(*bad)
    assert str(warm.value) == str(cold.value)


def test_clear_caches_empties_every_memo():
    before = birkhoff._zeta_plus_birkhoff((1, 2, 1))
    birkhoff._qzeta_plus_birkhoff((1, 2))
    hopfmzv.zeta_plus_via_primitives((1, 2))
    hopfmzv.shuffle_lambda("dy", "ddy", -1)
    hopfmzv.CharacterTable("psi", prec=1).chi_plus("dydy")
    caches = _process_wide_memos()
    assert all(fn.cache_info().currsize > 0 for fn in caches.values())
    hopfmzv.clear_caches()
    for name, fn in caches.items():
        assert fn.cache_info().currsize == 0, name
    assert birkhoff._zeta_plus_birkhoff((1, 2, 1)) == before
