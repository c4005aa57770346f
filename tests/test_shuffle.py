from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfmzv.errors import LambdaZero
from hopfmzv.shuffle import (
    map_wordsum,
    ordinary_shuffle,
    phi_iso,
    sho_positive,
    shuffle_lambda,
    shuffle_zero,
)
from hopfmzv.words import depth, indices_to_word

Fr = Fraction

admissible = st.lists(
    st.integers(min_value=0, max_value=2), min_size=1, max_size=3
).map(indices_to_word)


def test_unit_and_y_pull():
    assert shuffle_lambda("", "dy", Fr(-1)) == {"dy": Fr(1)}
    assert shuffle_lambda("dy", "", Fr(-1)) == {"dy": Fr(1)}
    # the y-rule is a plain pull, so y x y collapses to a single word
    assert shuffle_lambda("y", "y", Fr(-1)) == {"yy": Fr(1)}
    assert shuffle_lambda("y", "dy", Fr(7)) == {"ydy": Fr(1)}


def test_d_rule_at_minus_one():
    assert shuffle_lambda("dy", "dy", Fr(-1)) == {"ydy": Fr(2), "dyy": Fr(-1)}


def test_d_rule_at_two():
    # (1/2)(d(y x y) - dy x y - y x dy) = dyy/2 - ydy
    assert shuffle_lambda("dy", "dy", Fr(2)) == {"dyy": Fr(1, 2), "ydy": Fr(-1)}


def test_lambda_zero_is_rejected_by_the_generic_rule():
    with pytest.raises(LambdaZero):
        shuffle_lambda("dy", "dy", 0)


def test_degenerate_product_worked_examples():
    assert shuffle_zero("y", "ddy") == {"yddy": Fr(1)}
    assert shuffle_zero("dy", "dy") == {"dydy": Fr(1), "yddy": Fr(-1)}
    assert shuffle_zero("dy", "ddy") == {"dyddy": Fr(1), "ydddy": Fr(-1)}
    # the iterated branch with k >= 2 on the left
    assert shuffle_zero("ddy", "dy") == {
        "ddydy": Fr(1),
        "dyddy": Fr(-2),
        "ydddy": Fr(1),
    }
    assert shuffle_zero("dddy", "ddy") == {
        "dddyddy": Fr(1),
        "ddydddy": Fr(-3),
        "dyddddy": Fr(3),
        "ydddddy": Fr(-1),
    }


def test_degenerate_product_annihilates_pure_d():
    assert shuffle_zero("d", "d") == {}
    assert shuffle_zero("dd", "ddy") == {}


def test_degenerate_product_is_order_sensitive_as_representatives():
    # both orders realize the same class, but the words differ
    assert shuffle_zero("ddy", "dy") != shuffle_zero("dy", "ddy")


@given(admissible, admissible, st.sampled_from([Fr(-1), Fr(2), Fr(-1, 3)]))
def test_commutative_away_from_zero(u, v, lam):
    assert shuffle_lambda(u, v, lam) == shuffle_lambda(v, u, lam)


@given(admissible, admissible, st.sampled_from([Fr(-1), Fr(5)]))
def test_depth_is_additive(u, v, lam):
    d = depth(u) + depth(v)
    assert all(depth(w) == d for w in shuffle_lambda(u, v, lam))


def test_ordinary_shuffle_counts():
    assert ordinary_shuffle("1", "1") == {"11": Fr(2)}
    assert ordinary_shuffle("01", "1") == {"011": Fr(2), "101": Fr(1)}
    # |shuffle of disjoint-ish words| adds up to binom(4, 2) = 6 terms
    assert sum(ordinary_shuffle("01", "01").values()) == 6
    with pytest.raises(ValueError):
        ordinary_shuffle("1", "y")  # y would be pulled, not interleaved


def test_phi_iso_block_encoding():
    assert phi_iso("1") == "jy"
    assert phi_iso("01") == "jjy"
    assert phi_iso("011") == "jjyjy"
    assert phi_iso("0101") == "jjyjjy"
    with pytest.raises(ValueError):
        phi_iso("10")  # must end in 1
    with pytest.raises(ValueError):
        phi_iso("1y")


def test_positive_sector_product():
    assert sho_positive("jy", "jy") == {"jyjy": Fr(2)}


def test_positive_sector_is_the_image_of_the_ordinary_shuffle():
    for u, v in [("1", "1"), ("01", "1"), ("01", "01"), ("11", "01")]:
        lhs = map_wordsum(phi_iso, ordinary_shuffle(u, v))
        assert lhs == sho_positive(phi_iso(u), phi_iso(v))
