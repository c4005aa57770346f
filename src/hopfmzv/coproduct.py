"""Deformed coproducts on admissible words, and convolution.

The coproduct is defined on letters by

    y  |->  e (x) y + y (x) e
    d  |->  e (x) d + d (x) e + lambda * d (x) d

and extended multiplicatively (componentwise concatenation of tensor legs)
over a word; terms in which either leg ends in d are then dropped — that
projection modulo the trailing-d ideal is the ground truth and makes the
admissible words a coalgebra basis.  coproduct_recursive implements exactly
this and is authoritative; it reads the word from the right, so each leg's
last letter is the first it receives, and drops a leg that would end in d
as soon as it takes that d.  At integral lambda (phi uses 0, psi uses -1) it
counts in ints and converts only the kept coefficients to Fractions.

coproduct_combinatorial is the verified second implementation: writing the
word as w = d^{n_1 - 1} y ... d^{n_k - 1} y of weight n, with y at positions
N = {n_1, n_1 + n_2, ..., n}, it sums w_S (x) w_complement(S) over subsets S
whose two legs are both admissible, plus the lambda-weighted terms

    lambda^{|J|}  w_S (x) w_{[n] \\ (S \\ J)}

over nonempty J contained in S, avoiding the y positions, with
max(J) < n_1 + ... + n_{k-1} — and an explicit admissibility filter on the
augmented right leg (the doubled d-positions of J can otherwise leave it
ending in d).  The two constructions are asserted equal in the verify suite.

reduced_coproduct strips the two group-like terms e (x) w and w (x) e; every
remaining leg is nonempty admissible with depth between 1 and dpt(w) - 1,
which is the recursion measure of the Birkhoff engine.

star(f, g, w, lambda) is the convolution sum f(w_1) * g(w_2) of two
series-valued maps over the full coproduct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import NotAdmissible
from .series import LaurentSeries, series_add, series_mul, series_scale
from .words import (
    TensorSum,
    is_admissible,
    memo,
    word_key,
    word_to_indices,
)

Fr = Fraction

__all__ = [
    "coproduct_combinatorial",
    "coproduct_recursive",
    "reduced_coproduct",
    "star",
    "tensor_shuffle",
]


def _canonical(acc: dict) -> tuple:
    ordered = sorted(acc, key=lambda p: (word_key(p[0]), word_key(p[1])))
    return tuple(((l, r), acc[(l, r)]) for l, r in ordered if acc[(l, r)] != 0)


@memo
def _coproduct_recursive(w: str, lam: Fraction) -> tuple:
    lam_c = lam.numerator if lam.denominator == 1 else lam  # int when integral
    pairs: dict = {("", ""): 1}
    for ch in reversed(w):  # legs grow leftwards; an empty leg takes no d
        nxt: dict = {}
        for (l, r), c in pairs.items():
            if ch == "y":
                grown = [("y" + l, r, c), (l, "y" + r, c)]
            else:
                grown = [("d" + l, r, c)] if l else []
                if r:
                    grown.append((l, "d" + r, c))
                    if l and lam_c:
                        grown.append(("d" + l, "d" + r, c * lam_c))
            for gl, gr, gc in grown:
                key = (gl, gr)
                nxt[key] = nxt.get(key, 0) + gc
        pairs = nxt
    return _canonical({key: Fr(c) for key, c in pairs.items()})


def coproduct_recursive(w: str, lam) -> TensorSum:
    """Letterwise coproduct followed by the trailing-d projection."""
    if not is_admissible(w):
        raise NotAdmissible(f"coproduct needs an admissible word, got {w!r}")
    return dict(_coproduct_recursive(w, Fr(lam)))


@memo
def _coproduct_combinatorial(w: str, lam: Fraction) -> tuple:
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
            acc[key] = acc.get(key, Fr(0)) + 1
            if lam == 0:
                continue
            j_candidates = [p for p in S if p not in ypos and p <= threshold - 1]
            for jsize in range(1, len(j_candidates) + 1):
                for J in combinations(j_candidates, jsize):
                    aug = sorted(comp + list(J))
                    aug_right = subword(aug)
                    if not is_admissible(aug_right):
                        continue
                    key = (left, aug_right)
                    acc[key] = acc.get(key, Fr(0)) + lam**jsize
    return _canonical(acc)


def coproduct_combinatorial(w: str, lam) -> TensorSum:
    """Admissible-subset formula; must equal coproduct_recursive."""
    if not is_admissible(w):
        raise NotAdmissible(f"coproduct needs an admissible word, got {w!r}")
    return dict(_coproduct_combinatorial(w, Fr(lam)))


def reduced_coproduct(w: str, lam, *, method: str = "recursive") -> TensorSum:
    """Full coproduct minus e (x) w and w (x) e."""
    if w == "" or not is_admissible(w):
        raise NotAdmissible(
            f"reduced coproduct needs a nonempty admissible word, got {w!r}"
        )
    full = (
        coproduct_recursive(w, lam)
        if method == "recursive"
        else coproduct_combinatorial(w, lam)
    )
    out = dict(full)
    for key in (("", w), (w, "")):
        c = out.get(key, Fr(0)) - 1
        if c == 0:
            out.pop(key, None)
        else:  # pragma: no cover - connectedness says this can't happen
            out[key] = c
    return out


def star(f, g, w: str, lam) -> LaurentSeries:
    """Convolution (f * g)(w) = sum f(w_1) g(w_2) over the full coproduct."""
    total = None
    for (w1, w2), c in coproduct_recursive(w, lam).items():
        term = series_scale(series_mul(f(w1), g(w2)), c)
        total = term if total is None else series_add(total, term)
    if total is None:  # pragma: no cover - full coproduct is never empty
        raise ValueError("empty coproduct")
    return total


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
