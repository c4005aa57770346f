"""Words over {d, y}, gradings, linear combinations, tensors.

A word is a plain str over the two letters; the admissible ones end in y (or
are empty) and form the basis of the quotient by the trailing-d ideal.  The
nonempty admissible words biject with index vectors of non-negative integers:

    (k_1, ..., k_n)  <->  d^{k_1} y d^{k_2} y ... d^{k_n} y

Linear combinations are finitely supported dicts word -> int or Fraction
(WordSum) or (word, word) -> coefficient (TensorSum), normalized to carry no
zeros; scalar() makes every scalar an int when integral, and ratio() keys a
lambda by its integer pair (p, q).  The canonical ordering for printing and
JSON is graded lexicographic — weight first, then letterwise with d < y —
which plain (len(w), w) delivers since 'd' < 'y' in ASCII.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .errors import NotAdmissible

WordSum = dict  # word -> int or Fraction
TensorSum = dict  # (word, word) -> int or Fraction

# Every process-wide memo (shuffles, coproduct counts and their scalings,
# atoms, characters, counterterms, values) is declared with @memo, so each
# keeps at most MEMO_ENTRIES results however long the process lives.  The
# bound is above every per-process count the benchmark workloads reach, so
# none of them evicts.  memo also records each cache, so that clear_caches()
# empties all of them.  The caches are typed: 2 and 2.0 compare equal, and an
# untyped cache would hand the result for 2 to a call with 2.0 that the
# function itself rejects.
MEMO_ENTRIES = 1 << 14
_MEMOS: list = []


def memo(fn):
    cached = lru_cache(maxsize=MEMO_ENTRIES, typed=True)(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every cache declared with @memo; later calls recompute."""
    for cached in _MEMOS:
        cached.cache_clear()

__all__ = [
    "admissible_words",
    "clear_caches",
    "depth",
    "indices_to_word",
    "is_admissible",
    "parse_word",
    "project_T",
    "scalar",
    "tensorsum_to_json",
    "weight",
    "word_key",
    "word_to_indices",
    "wordsum_to_json",
    "ws_add",
    "ws_scale",
]


def parse_word(text: str) -> str:
    """Validate and return a word over {d, y} ("" is the empty word)."""
    for ch in text:
        if ch not in "dy":
            raise SyntaxError(f"invalid letter {ch!r} in word {text!r}")
    return text


def is_admissible(w: str) -> bool:
    """Whether w is a word over {d, y} that is empty or ends in y."""
    return (w == "" or w[-1] == "y") and not w.strip("dy")


def weight(w: str) -> int:
    return len(w)


def depth(w: str) -> int:
    return w.count("y")


def word_key(w: str):
    """Graded-lexicographic sort key (weight first, then d < y)."""
    return (len(w), w)


def indices_to_word(k: Iterable[int]) -> str:
    """The word d^{k_1} y ... d^{k_n} y of an index vector.

    This is the one check of an index vector (k_1, ..., k_n) standing for
    the arguments (-k_1, ..., -k_n): it is nonempty and its entries are
    integers (operator.index: no float, str or Fraction) with every
    k_i >= 0.  Anything else raises ValueError.
    """
    try:
        k = tuple(operator.index(ki) for ki in k)
    except TypeError:
        raise ValueError(f"index vector entries must be integers: {k!r}") from None
    if not k:
        raise ValueError("index vector must have length >= 1")
    if any(ki < 0 for ki in k):
        raise ValueError("index vector entries must be non-negative: k_i >= 0")
    return "".join("d" * ki + "y" for ki in k)


def word_to_indices(w: str) -> tuple[int, ...]:
    """Inverse of indices_to_word on nonempty admissible words."""
    if w == "" or not is_admissible(w):
        raise NotAdmissible(f"word {w!r} is empty or not admissible")
    return tuple(len(run) for run in w.split("y")[:-1])


def project_T(s: WordSum) -> WordSum:
    """Drop every word ending in d (projection modulo the trailing-d ideal)."""
    return {w: c for w, c in s.items() if is_admissible(w)}


def scalar(c):
    """c as an int when integral, else as a Fraction; c is anything
    Fraction() accepts.  An int comes back as it is, and a Fraction, being
    reduced already, as its numerator or as it is."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratio(lam) -> tuple[int, int]:
    """lam as its integer pair (p, q), lam = p/q in lowest terms with q > 0:
    the one key of a lambda, whatever type it is given as.  An int or a
    Fraction gives its own pair; anything else goes through Fraction(), and
    one it refuses (None, "1/0", inf, nan, ...) raises ValueError."""
    if type(lam) is int or type(lam) is Fraction:
        return lam.as_integer_ratio()
    try:
        return Fraction(lam).as_integer_ratio()
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"lambda must be a rational number, not {lam!r}") from None


def ws_add(*sums: WordSum) -> WordSum:
    acc: WordSum = {}
    for s in sums:
        for w, c in s.items():
            acc[w] = acc.get(w, 0) + c
    return {w: c for w, c in acc.items() if c != 0}


def ws_scale(s: WordSum, c) -> WordSum:
    c = scalar(c)
    if c == 0:
        return {}
    return {w: cv * c for w, cv in s.items()}


def admissible_words(max_weight: int, *, include_empty: bool = False) -> Iterator[str]:
    """Nonempty admissible words of weight at most max_weight, in canonical
    order; the empty word first if requested."""
    if include_empty:
        yield ""
    for n in range(1, max_weight + 1):
        for prefix in product("dy", repeat=n - 1):
            yield "".join(prefix) + "y"


# ---------------------------------------------------------------------------
# JSON forms
#   WordSum:   {"terms": [{"word": "dydy", "coeff": "1"}, ...]}
#   TensorSum: {"terms": [{"left": "dy", "right": "ddy", "coeff": "3"}, ...]}
# ---------------------------------------------------------------------------


def wordsum_to_json(s: WordSum) -> dict:
    return {
        "terms": [
            {"word": w, "coeff": str(s[w])} for w in sorted(s, key=word_key)
        ]
    }


def tensorsum_to_json(t: TensorSum) -> dict:
    ordered = sorted(t, key=lambda p: (word_key(p[0]), word_key(p[1])))
    return {
        "terms": [
            {"left": l, "right": r, "coeff": str(t[(l, r)])} for l, r in ordered
        ]
    }
