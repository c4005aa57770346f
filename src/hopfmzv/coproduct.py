"""Deformed coproducts on admissible words, and convolution.

The coproduct is defined on letters by

    y  |->  e (x) y + y (x) e
    d  |->  e (x) d + d (x) e + lambda * d (x) d

and extended multiplicatively (componentwise concatenation of tensor legs)
over a word; terms in which either leg ends in d are then dropped — that
projection modulo the trailing-d ideal is the ground truth and makes the
admissible words a coalgebra basis.  reduced_legs implements exactly this
and is authoritative; it reads the word from the right, so each leg's last
letter is the first it receives, and drops a leg that would end in d as
soon as it takes that d.  It is the engine form: the reduced coproduct,
without the group-like terms e (x) w and w (x) e, grouped by right leg,
which is the shape the Birkhoff bar sum consumes.  It is not memoized: the
engine reads a word's coproduct once, in the bar sum behind its memoized
counterterm or row, so a stored enumeration would never be read again.
Every leg in it is nonempty admissible with depth between 1 and dpt(w) - 1,
the recursion measure of the Birkhoff engine.  coproduct_recursive and
reduced_coproduct are its TensorSum views.

coproduct_combinatorial is the verified second implementation: writing the
word as w = d^{n_1 - 1} y ... d^{n_k - 1} y of weight n, with y at positions
N = {n_1, n_1 + n_2, ..., n}, it sums w_S (x) w_complement(S) over subsets S
whose two legs are both admissible, plus the lambda-weighted terms

    lambda^{|J|}  w_S (x) w_{[n] \\ (S \\ J)}

over nonempty J contained in S, avoiding the y positions, with
max(J) < n_1 + ... + n_{k-1} — and an explicit admissibility filter on the
augmented right leg (the doubled d-positions of J can otherwise leave it
ending in d).  The two constructions are asserted equal in the verify suite.

Both routes count in ints at integral lambda (phi uses 0, psi uses -1, the
verify suite also 3), in Fractions otherwise; the TensorSum forms hand out
Fraction coefficients.

star(f, g, w, lambda) is the convolution sum f(w_1) * g(w_2) of two
series-valued maps over the full coproduct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import NotAdmissible
from .series import LaurentSeries, series_mul, series_sum
from .words import TensorSum, is_admissible, word_to_indices

Fr = Fraction

__all__ = [
    "coproduct_combinatorial",
    "coproduct_recursive",
    "reduced_coproduct",
    "star",
    "tensor_shuffle",
]


def reduced_legs(w: str, lam: Fraction) -> tuple:
    """The reduced coproduct of a nonempty admissible word, by right leg.

    ((w2, ((w1, c), ...)), ...); each c is nonzero, an int at integral lambda.
    """
    lam_c = lam.numerator if lam.denominator == 1 else lam  # int when integral
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
            else:
                grown = (("d" + l, r), (l, "d" + r))
                if lam_c:
                    key = ("d" + l, "d" + r)
                    nxt[key] = get(key, 0) + c * lam_c
            for key in grown:
                nxt[key] = get(key, 0) + c
        pairs = nxt
    legs: dict = {}
    for (l, r), c in pairs.items():
        if c and l and r:
            legs.setdefault(r, []).append((l, c))
    return tuple((r, tuple(ls)) for r, ls in legs.items())


def coproduct_recursive(w: str, lam) -> TensorSum:
    """Letterwise coproduct followed by the trailing-d projection."""
    if not is_admissible(w):
        raise NotAdmissible(f"coproduct needs an admissible word, got {w!r}")
    reduced = reduced_coproduct(w, lam) if w else {}  # Delta(e) = e (x) e
    return {("", w): Fr(1), **reduced, (w, ""): Fr(1)}


def coproduct_combinatorial(w: str, lam) -> TensorSum:
    """Admissible-subset formula; must equal coproduct_recursive."""
    if not is_admissible(w):
        raise NotAdmissible(f"coproduct needs an admissible word, got {w!r}")
    lam = Fr(lam)
    lam_c = lam.numerator if lam.denominator == 1 else lam  # int when integral
    n = len(w)
    ypos = {i + 1 for i, ch in enumerate(w) if ch == "y"}
    blocks = word_to_indices(w) if w else ()
    # positions are 1-based; the y's sit at the partial sums of (k_i + 1)
    threshold = n - (blocks[-1] + 1) if w else 0  # n_1 + ... + n_{k-1}

    def subword(positions) -> str:
        return "".join(w[p - 1] for p in positions)

    acc: dict = {}
    universe = list(range(1, n + 1))
    for size in range(n + 1):
        for S in combinations(universe, size):
            sset = set(S)
            left = subword(S)
            if not is_admissible(left):
                continue
            comp = [p for p in universe if p not in sset]
            right = subword(comp)
            if not is_admissible(right):
                continue
            key = (left, right)
            acc[key] = acc.get(key, 0) + 1
            if lam_c == 0:
                continue
            j_candidates = [p for p in S if p not in ypos and p <= threshold - 1]
            for jsize in range(1, len(j_candidates) + 1):
                for J in combinations(j_candidates, jsize):
                    aug = sorted(comp + list(J))
                    aug_right = subword(aug)
                    if not is_admissible(aug_right):
                        continue
                    key = (left, aug_right)
                    acc[key] = acc.get(key, 0) + lam_c**jsize
    # insertion order: every consumer sums exactly or sorts for printing
    return {key: Fr(c) for key, c in acc.items() if c}


def reduced_coproduct(w: str, lam, *, method: str = "recursive") -> TensorSum:
    """Full coproduct minus e (x) w and w (x) e."""
    if w == "" or not is_admissible(w):
        raise NotAdmissible(
            f"reduced coproduct needs a nonempty admissible word, got {w!r}"
        )
    if method == "recursive":
        legs = reduced_legs(w, Fr(lam))
        fr = {c: Fr(c) for c in {c for _, lefts in legs for _, c in lefts}}
        return {(w1, w2): fr[c] for w2, lefts in legs for w1, c in lefts}
    units = (("", w), (w, ""))  # coefficient 1 each, checked on the full form
    return {k: c for k, c in coproduct_combinatorial(w, lam).items() if k not in units}


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
            for lw, lc in shuffle_fn(l1, l2).items():
                for rw, rc in shuffle_fn(r1, r2).items():
                    key = (lw, rw)
                    acc[key] = acc.get(key, Fr(0)) + c * lc * rc
    return {k: v for k, v in acc.items() if v != 0}
