"""Shuffle products on words: one recursion, three d-rules.

Every product here is the same word recursion, memoized once in _shuffle:

    (P1)  e is the unit;
    (P2)  yu x v = u x yv = y(u x v)         (pull a leading y out front);

and when neither word starts with y, a rule expands u x v into terms
(prefix, left, right, coeff), meaning the sum of coeff * prefix(left x right).
The three rules:

_lam_rule — the deformed shuffle for lambda != 0 (shuffle_lambda):
    (P3)  du x dv = (1/lambda)[d(u x v) - du x v - u x dv].
Every P3 branch strictly decreases total length, so the recursion terminates.
Coefficients lie in Z[1/lambda], ints wherever 1/lambda is; words.project_T
drops the words ending in d, i.e. lands in the admissible-word basis.
shuffle_lambda keys the memo by lambda's integer pair (p, q), lambda = p/q in
lowest terms, so every spelling of one lambda shares its entries and a hit
hashes two ints; _lam_rule forms 1/lambda = q/p on a miss only.

_zero_rule — the lambda = 0 product on representatives (shuffle_zero).  When
both words start with d the naive rule does not shrink, so the left word is
written d^k y w (k >= 1) and expanded by the iterated form

    d^k y w x dv = d( sum_{i=0}^{k-1} (-1)^i [d^{k-1-i} y w x d^{i+1} v] )
                   + (-1)^k y(w x d^{k+1} v),

while a pure-d left factor against a d-initial right factor annihilates
(d^n x d^m w = 0).  The output is one representative: two evaluation orders
may differ by elements of the ideal generated by the derivation defect
d(u x v) - du x v - u x dv.  Semantic equality at lambda = 0 is therefore
certified through the character realization (see the birkhoff verify suite),
never asserted on representatives.

_interleave — u_0(u' x v) + v_0(u x v'), for the positive-sector comparison:
ordinary_shuffle is the textbook shuffle on binary words (letters '0' and
'1', so the y-pull never fires), sho_positive the {j, y}-product given by
(i) y-pull and (ii) ju x jv = j(u x jv) + j(ju x v), and phi_iso the
isomorphism 0^{a_1} 1 ... 0^{a_n} 1 |-> j^{a_1+1} y ... j^{a_n+1} y between
them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LambdaZero
from .words import WordSum, memo, ratio, scalar, word_key, ws_add

__all__ = [
    "ordinary_shuffle",
    "phi_iso",
    "sho_positive",
    "shuffle_lambda",
    "shuffle_zero",
]


# Callers pass all four arguments positionally: lru_cache keys
# _shuffle(u, v, rule) and _shuffle(u, v, rule, None) as different entries.
@memo
def _shuffle(u: str, v: str, rule, param) -> tuple:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    if u[0] == "y":
        terms = (("y", u[1:], v, 1),)
    elif v[0] == "y":
        terms = (("y", u, v[1:], 1),)
    else:
        terms = rule(u, v, param)
    acc: dict = {}
    for prefix, left, right, coeff in terms:
        for w, c in _shuffle(left, right, rule, param):
            w = prefix + w
            # most terms carry coeff 1: skip a product for each of them
            acc[w] = acc.get(w, 0) + (c if coeff == 1 else coeff * c)
    return tuple((w, acc[w]) for w in sorted(acc, key=word_key) if acc[w] != 0)


def _lam_rule(u: str, v: str, lam: tuple[int, int]) -> tuple:
    p, q = lam
    inv = scalar(Fraction(q, p))  # 1/lambda, formed on a memo miss only
    return (("d", u[1:], v[1:], inv), ("", u, v[1:], -inv), ("", u[1:], v, -inv))


def _zero_rule(u: str, v: str, param: None) -> tuple:
    if "y" not in u:
        return ()  # pure d-power annihilates against a d-initial word
    k = u.index("y")
    w_tail = u[k + 1 :]  # u == d^k y w_tail
    v_tail = v[1:]  # v == d v_tail
    terms = [
        ("d", "d" * (k - 1 - i) + "y" + w_tail, "d" * (i + 1) + v_tail, (-1) ** i)
        for i in range(k)
    ]
    terms.append(("y", w_tail, "d" * (k + 1) + v_tail, (-1) ** k))
    return tuple(terms)


def _interleave(u: str, v: str, param: None) -> tuple:
    return ((u[0], u[1:], v, 1), (v[0], u, v[1:], 1))


def _check_letters(u: str, v: str, alphabet: str, name: str) -> None:
    # the recursion reads any non-y letter as the rule's other letter
    if (u + v).strip(alphabet):
        raise ValueError(f"{u!r} x {v!r}: {name} takes words over {alphabet!r}")


def shuffle_lambda(u: str, v: str, lam) -> WordSum:
    """Deformed shuffle of two words; LambdaZero routes lambda = 0 away."""
    _check_letters(u, v, "dy", "shuffle_lambda")
    lam = ratio(lam)
    if not lam[0]:
        raise LambdaZero("the deformed shuffle divides by lambda; use shuffle_zero")
    return dict(_shuffle(u, v, _lam_rule, lam))


def shuffle_zero(u: str, v: str) -> WordSum:
    """lambda = 0 product on representatives (see module docstring)."""
    _check_letters(u, v, "dy", "shuffle_zero")
    return dict(_shuffle(u, v, _zero_rule, None))


def ordinary_shuffle(u: str, v: str) -> WordSum:
    """Textbook shuffle product; letters are '0' and '1'."""
    _check_letters(u, v, "01", "ordinary_shuffle")
    return dict(_shuffle(u, v, _interleave, None))


def sho_positive(u: str, v: str) -> WordSum:
    """Product on {j, y}-words by y-pull and ju x jv = j(u x jv) + j(ju x v)."""
    _check_letters(u, v, "jy", "sho_positive")
    return dict(_shuffle(u, v, _interleave, None))


def phi_iso(w: str) -> str:
    """Binary word 0^{a_1}1 ... 0^{a_n}1  |->  j^{a_1+1}y ... j^{a_n+1}y."""
    if w == "":
        return ""
    if w[-1] != "1" or any(ch not in "01" for ch in w):
        raise ValueError(f"{w!r} is not a binary word ending in 1")
    return "".join("j" * (len(run) + 1) + "y" for run in w.split("1")[:-1])


def map_wordsum(f, s: WordSum) -> WordSum:
    """Apply a word-to-word map to every term (helper for the iso check)."""
    return ws_add(*({f(w): c} for w, c in s.items())) if s else {}
