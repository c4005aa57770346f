"""Deformed coproducts on admissible words, and convolution.

The coproduct is defined on letters by

    y  |->  e (x) y + y (x) e
    d  |->  e (x) d + d (x) e + lambda * d (x) d

and extended multiplicatively (componentwise concatenation of tensor legs)
over a word; terms in which either leg ends in d are then dropped — that
projection modulo the trailing-d ideal is the ground truth and makes the
admissible words a coalgebra basis.  reduced_coproduct implements exactly
this and is authoritative.  It leaves out the group-like terms e (x) w and
w (x) e, so every leg is nonempty admissible with depth between 1 and
dpt(w) - 1.  coproduct_recursive adds those two terms back.

Each lambda-term doubles one d, so the coefficient of l (x) r is
N(l, r) lambda^j, where N is the count at lambda = 1 and
j = |l| + |r| - |w| is the number of doubled d's.  _counts runs the letter
loop once per word, at lambda = 1, and is memoized: it reads the word from
the right, so each leg's last letter is the first it receives, and drops a
leg that would end in d as soon as it takes that d.  reduced_coproduct
rescales those counts into a fresh dict for each call: N p^j at integral
lambda = p, Fraction(N p^j, q^j) at lambda = p/q.  At lambda = 0 only the
terms with j = 0 survive, and they are far fewer (6 824 of 58 909 for
(dy)^8), so that case runs the loop without doubling, memoized on its own
key, and reduced_coproduct copies its counts.

coproduct_combinatorial is the verified second implementation: writing the
word as w = d^{n_1 - 1} y ... d^{n_k - 1} y of weight n, with y at positions
N = {n_1, n_1 + n_2, ..., n}, it sums w_S (x) w_complement(S) over subsets S
whose two legs are both admissible, plus the lambda-weighted terms

    lambda^{|J|}  w_S (x) w_{[n] \\ (S \\ J)}

over nonempty J contained in S, avoiding the y positions, with
max(J) < n_1 + ... + n_{k-1} — and an explicit admissibility filter on the
augmented right leg (the doubled d-positions of J can otherwise leave it
ending in d).  It runs over bit sets: the subword of every position set is
built once, from the set without its lowest position, S runs over all
masks and J over the nonempty submasks of S & cand, where cand holds the
d positions below the threshold, and the augmented right leg is the
subword of complement(S) | J.  The two constructions are asserted equal in
the verify suite.  The (S, J) counts do not depend on lambda, so
_subset_counts enumerates a word once, and _subset_scalars builds the
coproduct at each lambda from those counts; coproduct_combinatorial is the
two in turn, and the verify check enumerates each word once for all of its
lambdas.

Coefficients lie in Z[lambda]; both routes count in ints, and a term with
no doubled d stays an int at every lambda.  The oracle shares no code with
the letter loop: it counts the (S, J) per term and |J| and builds one scalar
c lambda^|J| per (term, |J|).

star(f, g, w, lambda) is the convolution sum f(w_1) * g(w_2) of two
series-valued maps over the full coproduct.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAdmissible
from .series import LaurentSeries, series_mul, series_sum
from .words import TensorSum, is_admissible, memo, word_to_indices

__all__ = [
    "coproduct_combinatorial",
    "coproduct_recursive",
    "reduced_coproduct",
    "star",
    "tensor_shuffle",
]


@memo
def _counts(w: str, doubled: bool) -> TensorSum:
    """The reduced coproduct of w at lambda = 1 if doubled, else at
    lambda = 0, where no term doubles a d.

    Equal legs share one string, which saves about 40 % of an entry's size.
    """
    pairs: dict = {("", ""): 1}
    for ch in reversed(w):  # legs grow leftwards; an empty leg takes no d
        nxt: dict = {}
        get = nxt.get
        for (l, r), c in pairs.items():
            if ch == "y":
                grown = (("y" + l, r), (l, "y" + r))
            elif not l:
                grown = ((l, "d" + r),) if r else ()
            elif not r:
                grown = (("d" + l, r),)
            elif doubled:
                grown = (("d" + l, "d" + r), ("d" + l, r), (l, "d" + r))
            else:
                grown = (("d" + l, r), (l, "d" + r))
            for key in grown:
                nxt[key] = get(key, 0) + c
        pairs = nxt
    share = {}.setdefault
    return {(share(l, l), share(r, r)): c for (l, r), c in pairs.items() if l and r}


def reduced_coproduct(w: str, lam) -> TensorSum:
    """Full coproduct minus e (x) w and w (x) e: every leg nonempty."""
    if w == "" or not is_admissible(w):
        raise NotAdmissible(
            f"reduced coproduct needs a nonempty admissible word, got {w!r}"
        )
    p, q = Fraction(lam).as_integer_ratio()
    if not p:
        return dict(_counts(w, False))
    counts, n = _counts(w, True), len(w)
    # j doubled d's make len(l) + len(r) = n + j; each is one of w's d's
    js = range(w.count("d") + 1)
    scale = [p**j if q == 1 or not j else Fraction(p**j, q**j) for j in js]
    return {lr: c * scale[len(lr[0]) + len(lr[1]) - n] for lr, c in counts.items()}


def coproduct_recursive(w: str, lam) -> TensorSum:
    """Letterwise coproduct followed by the trailing-d projection."""
    if not is_admissible(w):
        raise NotAdmissible(f"coproduct needs an admissible word, got {w!r}")
    reduced = reduced_coproduct(w, lam) if w else {}  # Delta(e) = e (x) e
    return {("", w): 1, **reduced, (w, ""): 1}


def coproduct_combinatorial(w: str, lam) -> TensorSum:
    """Admissible-subset formula; must equal coproduct_recursive."""
    return _subset_scalars(_subset_counts(w), lam)


def _subset_counts(w: str) -> dict:
    """The subset formula without lambda: (left, right, |J|) -> the number
    of (S, J) giving that term, J = {} included."""
    if not is_admissible(w):
        raise NotAdmissible(f"coproduct needs an admissible word, got {w!r}")
    n = len(w)
    threshold = n - (word_to_indices(w)[-1] + 1) if w else 0  # n_1 + ... + n_{k-1}
    # bit i is position i + 1; J may use the d's at positions <= threshold - 1
    cand = sum(1 << i for i in range(threshold - 1) if w[i] == "d")
    sub = [""] * (1 << n)  # sub[S]: the subword on the positions in S
    for S in range(1, 1 << n):
        low = S & -S
        sub[S] = w[low.bit_length() - 1] + sub[S ^ low]
    counts: dict = {}
    full = (1 << n) - 1
    # subwords of w are over {d, y}: one is admissible unless it ends in d
    for S, left in enumerate(sub):
        comp = full ^ S
        if left[-1:] == "d" or sub[comp][-1:] == "d":
            continue
        key = (left, sub[comp], 0)
        counts[key] = counts.get(key, 0) + 1
        avail = S & cand
        J = avail
        while J:  # the nonempty submasks of avail
            aug_right = sub[comp | J]
            if aug_right[-1:] != "d":
                key = (left, aug_right, J.bit_count())
                counts[key] = counts.get(key, 0) + 1
            J = (J - 1) & avail
    return counts


def _subset_scalars(counts: dict, lam) -> TensorSum:
    """The coproduct at lambda from _subset_counts: one scalar c lambda^|J|
    per count; at lambda = 0 only the |J| = 0 counts."""
    p, q = Fraction(lam).as_integer_ratio()
    acc: dict = {}
    for (left, right, j), c in counts.items():
        if j and not p:
            continue
        term = c * p**j if q == 1 or not j else Fraction(c * p**j, q**j)
        key = left, right
        acc[key] = acc[key] + term if key in acc else term
    # insertion order: every consumer sums exactly or sorts for printing
    return {key: c for key, c in acc.items() if c}


def star(f, g, w: str, lam) -> LaurentSeries:
    """Convolution (f * g)(w) = sum f(w_1) g(w_2) over the full coproduct."""
    return series_sum(
        (c, series_mul(f(w1), g(w2)))
        for (w1, w2), c in coproduct_recursive(w, lam).items()
    )


def tensor_shuffle(t1: TensorSum, t2: TensorSum, shuffle_fn) -> TensorSum:
    """Componentwise product of tensors: legs multiply by shuffle_fn.

    shuffle_fn(u, v) must return a WordSum; used by the bialgebra
    compatibility check Delta(u x v) = Delta(u) x Delta(v).
    """
    acc: dict = {}
    for (l1, r1), c1 in t1.items():
        for (l2, r2), c2 in t2.items():
            c = c1 * c2
            right = shuffle_fn(r1, r2).items()
            for lw, lc in shuffle_fn(l1, l2).items():
                for rw, rc in right:
                    key = (lw, rw)
                    acc[key] = acc.get(key, 0) + c * lc * rc
    return {k: v for k, v in acc.items() if v != 0}
