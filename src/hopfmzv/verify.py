"""Executable property suites (the engine behind the `verify` subcommand).

Four suites, each a list of named checks that return (ok, detail):

  hopf        coproduct route agreement, coassociativity, cocommutativity,
              counit, product commutativity/associativity, bialgebra
              compatibility, the squaring identity m o Delta = 2^dpt,
              an independently coded lambda = -1 recursion, the positive-
              sector isomorphism, grading bookkeeping
  birkhoff    polar/pole-free splits, chi_plus - chi_minus = chi_bar,
              convolution reconstruction chi_minus * chi = chi_plus,
              character multiplicativity of phi and psi, renormalized
              product relations on both sides, the K * K primitive identity,
              primitive-decomposition agreement, closed-form continuation
              compatibility, the 1/4-vs-3/8 negative control, and zeta_plus
              at spots against the rescaled psi rows and the recursion on psi
  rota-baxter J/delta and P_q/E_q/D_q operator identities (Rota-Baxter of
              weight 0 and -1), polylogarithm route agreement li_J = li_nested
  qseries     q-sum route agreement (nested sum vs rational closed form vs
              bivariate operator realization), psi vs the alternating-
              binomial constant oracle, atom pins (with B_0 .. B_20
              against sum_{j<N} C(N, j) B_j = N)

Checks are deterministic: the only randomness is a fixed-seed RNG for the
operator-identity sample series.  A check that raises reports FAIL with the
exception rather than aborting the suite.

The checks share what they build through the package's memos, so they read
two windows: every phi and psi at _CHAR_PREC = 14 and every Birkhoff row at
_ROW_PREC = 8, but for qzeta-equals-zeta-spots, whose rows are read at the
spot's N.  At
lambda = p/q the coassociativity and squaring checks scale their terms by
powers of q so that they sum ints (but for the shuffle's powers of 1/2 at
lambda = 2); each comparison is unchanged, every term at one key carrying
the same power.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import comb, factorial, lcm

from .bernoulli import bernoulli
from .birkhoff import (
    CharacterTable,
    _qzeta_plus_birkhoff,
    _rescaled_limit,
    qzeta_plus,
    zeta_plus,
    zeta_plus_via_primitives,
)
from .coproduct import (
    _subset_counts,
    _subset_scalars,
    coproduct_recursive,
    reduced_coproduct,
    star,
    tensor_shuffle,
)
from .errors import EvenWeight, NonzeroConstantTerm, TruncationMismatch
from .realizations import (
    _times_y,
    _times_y_rows,
    eval_t_eq_q,
    li_J,
    li_nested,
    mero_depth1,
    mero_depth2,
    mul_bivariate,
    op_Dq,
    op_Eq,
    op_J,
    op_Pq,
    op_delta,
    phi,
    psi,
    psi_C,
    psi_factor,
    qchar_realization,
    qz_rational,
    qz_series,
    x_series,
    y_bivariate,
    y_powerseries,
)
from .series import (
    LaurentSeries,
    equal_on_window,
    series_add,
    series_mul,
    series_scale,
    series_sum,
    zero_series,
)
from .shuffle import (
    map_wordsum,
    ordinary_shuffle,
    phi_iso,
    sho_positive,
    shuffle_lambda,
    shuffle_zero,
)
from .words import (
    admissible_words,
    depth,
    indices_to_word,
    project_T,
    ratio,
    scalar,
    weight,
    word_to_indices,
    ws_add,
    ws_scale,
)

Fr = Fraction

_SEED = 20260819

# The one window of every phi and psi the checks read, so each character of
# a word is built once.  equal_on_window compares through the lesser
# valid_through, and a product of two characters through z^14 is valid
# through 14 minus the larger pole order, z^9 at least for two nonempty legs
# of a word to weight 6.  A wider read narrows no comparison; at 8 those
# products would hold through z^3 only.
_CHAR_PREC = 14

# The one window of the Birkhoff rows, so each (kind, word) row triple is
# built once; only qzeta-equals-zeta-spots reads its rows at the spot's N
# (z^0 .. z^N, N up to 14).  Through z^8, convolution-reconstruction's terms
# chi_minus(w') chi(w'') hold through z^2 at least (chi_minus(e) through
# z^8 times a weight-6 pole), renormalized-relations-qzeta reads z^0 .. z^N,
# N <= 4, and closed-form-compatibility z^0.  Rows through z^14 raise the
# peak RSS of one process running the four suites by 0.2 - 0.3 MB (CPython
# 3.11, x86-64 Linux).
_ROW_PREC = 8

__all__ = ["SUITES", "run_suite"]


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _linear(f, s: dict) -> dict:
    """sum c * f(key) over s: f extended linearly (f returns a word sum)."""
    return ws_add(*(ws_scale(f(key), c) for key, c in s.items()))


def _total(terms):
    """sum c * s over (c, s) terms; an empty sum is zero_series(_CHAR_PREC)."""
    return series_sum(chain([(1, zero_series(_CHAR_PREC))], terms))


def _raises(exc: type, fn, *args) -> bool:
    """Whether fn(*args) raises exc; any other exception propagates."""
    try:
        fn(*args)
    except exc:
        return True
    return False


def _all_words(max_len: int):
    """Every nonempty word over {d, y} up to max_len (not nec. admissible)."""
    for n in range(1, max_len + 1):
        for tup in product("dy", repeat=n):
            yield "".join(tup)


def _unordered_pairs_total_weight(max_total: int):
    """Pairs u <= v of nonempty admissible words, wt(u) + wt(v) <= max_total."""
    for u in admissible_words(max_total - 1):
        for v in admissible_words(max_total - weight(u)):
            if u <= v:
                yield u, v


def _bernoulli_compositions(total: int, parts: int) -> list:
    """Tuples of `parts` parts summing to `total`, each part an m with
    B_m != 0 (0, 1 or even), built one part at a time."""
    allowed = [m for m in range(total + 1) if m < 2 or m % 2 == 0]
    heads = [((), 0)]  # (the first parts, their sum)
    for _ in range(parts - 1):
        heads = [(h + (m,), used + m) for h, used in heads for m in allowed if used + m <= total]
    return [h + (total - used,) for h, used in heads if total - used in allowed]


# ---------------------------------------------------------------------------
# hopf suite
# ---------------------------------------------------------------------------

_LAMS_COP = (0, -1, 3, Fr(-1, 2))
_LAMS_SH = (-1, 2, Fr(-1, 3))


def _check_cop_routes():
    # the subset counts do not depend on lambda: one enumeration per word
    for w in admissible_words(7, include_empty=True):
        counts = _subset_counts(w)
        for lam in _LAMS_COP:
            if coproduct_recursive(w, lam) != _subset_scalars(counts, lam):
                return False, f"routes disagree at w={w!r}, lambda={lam}"
    return True, ""


def _rescaled_cops(lam) -> dict:
    """u -> the coproduct of u at lam = p/q, each coefficient times
    q^(|a| + |b| - |u|), for every admissible word u to weight 6 (every leg
    of one is itself one of these words).  A term N lam^j, j = |a| + |b| - |u|
    the doubled d's, becomes the int N p^j."""
    q = Fr(ratio(lam)[1])
    cops = {}
    for u in admissible_words(6, include_empty=True):
        cop = coproduct_recursive(u, lam)
        cops[u] = {(a, b): scalar(c * q ** (len(a) + len(b) - len(u))) for (a, b), c in cop.items()}
    return cops


def _check_coassoc():
    # Rescaled, every term at the key (x, y, z) on either side carries the
    # same factor q^(|x| + |y| + |z| - |w|), whatever the coefficients are:
    # the comparison is the unscaled one, summed in ints.
    for lam in _LAMS_COP:
        cops = _rescaled_cops(lam)
        for w, cop in cops.items():
            left: dict = {}
            right: dict = {}
            for (a, b), c in cop.items():
                for (a1, a2), c2 in cops[a].items():
                    key = (a1, a2, b)
                    left[key] = left.get(key, 0) + c * c2
                for (b1, b2), c2 in cops[b].items():
                    key = (a, b1, b2)
                    right[key] = right.get(key, 0) + c * c2
            if {k: c for k, c in left.items() if c} != {k: c for k, c in right.items() if c}:
                return False, f"not coassociative at w={w!r}, lambda={lam}"
    return True, ""


def _check_cocomm():
    for lam in _LAMS_COP:
        for w in admissible_words(7, include_empty=True):
            cop = coproduct_recursive(w, lam)
            if {(b, a): c for (a, b), c in cop.items()} != cop:
                return False, f"not cocommutative at w={w!r}, lambda={lam}"
    return True, ""


def _check_counit():
    for lam in _LAMS_COP:
        for w in admissible_words(7):
            cop = coproduct_recursive(w, lam)
            if cop.get(("", w)) != 1 or cop.get((w, "")) != 1:
                return False, f"counit fails at w={w!r}, lambda={lam}"
    return True, ""


def _realize(char, s: dict):
    """A character applied linearly to a word sum (phi: ground truth modulo L_-)."""
    return _total((c, char(w, _CHAR_PREC)) for w, c in s.items())


def _check_shuffle_comm():
    for lam in _LAMS_SH:
        for u, v in _unordered_pairs_total_weight(6):
            if shuffle_lambda(u, v, lam) != shuffle_lambda(v, u, lam):
                return False, f"u={u!r}, v={v!r}, lambda={lam}"
    # lambda = 0 yields representatives modulo the defect ideal, so the two
    # orders may differ as word sums; equality is semantic, through phi.
    for u, v in _unordered_pairs_total_weight(6):
        lhs = _realize(phi, shuffle_zero(u, v))
        rhs = _realize(phi, shuffle_zero(v, u))
        if not equal_on_window(lhs, rhs, 6):
            return False, f"u={u!r}, v={v!r}, lambda=0 (phi-realized)"
    return True, ""


def _check_shuffle_assoc():
    for lam in _LAMS_SH:
        for u in admissible_words(4):
            for v in admissible_words(5 - weight(u)):
                for t in admissible_words(6 - weight(u) - weight(v)):
                    lhs = _linear(
                        lambda w: shuffle_lambda(w, t, lam), shuffle_lambda(u, v, lam)
                    )
                    rhs = _linear(
                        lambda w: shuffle_lambda(u, w, lam), shuffle_lambda(v, t, lam)
                    )
                    if lhs != rhs:
                        return False, f"u={u!r}, v={v!r}, t={t!r}, lambda={lam}"
    # lambda = 0: representatives again, so associate through phi
    for u in admissible_words(3):
        for v in admissible_words(4 - weight(u)):
            for t in admissible_words(6 - weight(u) - weight(v)):
                left = _linear(lambda w: shuffle_zero(w, t), shuffle_zero(u, v))
                right = _linear(lambda w: shuffle_zero(u, w), shuffle_zero(v, t))
                if not equal_on_window(_realize(phi, left), _realize(phi, right), 6):
                    return False, f"u={u!r}, v={v!r}, t={t!r}, lambda=0"
    return True, ""


def _check_bialgebra():
    for lam in _LAMS_SH:
        for u, v in _unordered_pairs_total_weight(6):
            lhs = _linear(
                lambda w: coproduct_recursive(w, lam), shuffle_lambda(u, v, lam)
            )
            rhs = tensor_shuffle(
                coproduct_recursive(u, lam),
                coproduct_recursive(v, lam),
                lambda a, b: shuffle_lambda(a, b, lam),
            )
            if lhs != rhs:
                return False, f"u={u!r}, v={v!r}, lambda={lam}"
    return True, ""


def _check_squaring():
    # m o Delta(w) = 2^dpt(w) w, exactly, for every lambda != 0.  Both sides
    # times q^(the d's of w), lambda = p/q: a coproduct term N lam^j, j <= the
    # d's of w, becomes an int, and a shuffle coefficient lies in Z[q/p], ints
    # at lambda = -1 and -1/3.  At lambda = 2 the shuffle's powers of 1/2 stay
    # Fractions.
    for lam in _LAMS_SH:
        q = ratio(lam)[1]
        for w in admissible_words(6):
            scale, acc = q ** w.count("d"), {}
            for (a, b), c in coproduct_recursive(w, lam).items():
                c = scalar(c * scale)
                for u, cu in shuffle_lambda(a, b, lam).items():
                    acc[u] = acc.get(u, 0) + c * cu
            if {u: c for u, c in acc.items() if c} != {w: 2 ** depth(w) * scale}:
                return False, f"m o Delta != 2^dpt at w={w!r}, lambda={lam}"
    return True, ""


def _check_squaring_zero():
    # at lambda = 0 the identity holds through the realization phi
    char = CharacterTable("phi", prec=_CHAR_PREC).chi
    for w in admissible_words(6):
        lhs = star(char, char, w, 0)
        rhs = series_scale(char(w), 2 ** depth(w))
        if not equal_on_window(lhs, rhs, 6):
            return False, f"phi-realized squaring fails at w={w!r}"
    return True, ""


def _check_independent_minus_one():
    # Direct recursion for the lambda = -1 product, coded from the
    # {d, y} rewriting rules with no division: must match shuffle_lambda.
    memo: dict = {}

    def rec(u: str, v: str) -> dict:
        key = (u, v)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not u:
            out = {v: 1}
        elif not v:
            out = {u: 1}
        elif u[0] == "y":
            out = {"y" + w: c for w, c in rec(u[1:], v).items()}
        elif v[0] == "y":
            out = {"y" + w: c for w, c in rec(u, v[1:]).items()}
        else:
            out = ws_add(
                rec(u[1:], v),
                rec(u, v[1:]),
                ws_scale({"d" + w: c for w, c in rec(u[1:], v[1:]).items()}, -1),
            )
        memo[key] = out
        return out

    for u in _all_words(4):
        for v in _all_words(min(4, 6 - len(u))):
            if rec(u, v) != shuffle_lambda(u, v, -1):
                return False, f"u={u!r}, v={v!r}"
    return True, ""


def _check_positive_sector():
    binaries = [
        "".join(t) + "1" for n in range(0, 5) for t in product("01", repeat=n)
    ]
    for u in binaries:
        for v in binaries:
            if len(u) + len(v) > 6:
                continue
            lhs = map_wordsum(phi_iso, ordinary_shuffle(u, v))
            rhs = sho_positive(phi_iso(u), phi_iso(v))
            if lhs != rhs:
                return False, f"u={u!r}, v={v!r}"
    return True, ""


def _check_gradings():
    # depth is additive everywhere; weight only survives at lambda = 0
    for lam in _LAMS_SH:
        for u, v in _unordered_pairs_total_weight(5):
            d = depth(u) + depth(v)
            for w in shuffle_lambda(u, v, lam):
                if depth(w) != d:
                    return False, f"dpt drifts: u={u!r}, v={v!r}, lambda={lam}"
    for u, v in _unordered_pairs_total_weight(5):
        d, n = depth(u) + depth(v), weight(u) + weight(v)
        for w in shuffle_zero(u, v):
            if depth(w) != d or weight(w) != n:
                return False, f"grading drifts: u={u!r}, v={v!r}, lambda=0"
    for lam in _LAMS_COP:
        for w in admissible_words(6):
            for (a, b) in coproduct_recursive(w, lam):
                if depth(a) + depth(b) != depth(w):
                    return False, f"dpt not additive across Delta at w={w!r}"
                if lam == 0 and weight(a) + weight(b) != weight(w):
                    return False, f"wt not additive across Delta_0 at w={w!r}"
    return True, ""


def _suite_hopf():
    return [
        ("coproduct-recursive-equals-combinatorial", _check_cop_routes),
        ("coassociativity", _check_coassoc),
        ("cocommutativity", _check_cocomm),
        ("counit", _check_counit),
        ("shuffle-commutativity", _check_shuffle_comm),
        ("shuffle-associativity", _check_shuffle_assoc),
        ("bialgebra-compatibility", _check_bialgebra),
        ("squaring-identity", _check_squaring),
        ("squaring-identity-lambda0-realized", _check_squaring_zero),
        ("independent-minus-one-recursion", _check_independent_minus_one),
        ("positive-sector-isomorphism", _check_positive_sector),
        ("grading-bookkeeping", _check_gradings),
    ]


# ---------------------------------------------------------------------------
# birkhoff suite
# ---------------------------------------------------------------------------

def _check_split_shapes():
    for kind in ("phi", "psi"):
        table = CharacterTable(kind, prec=_ROW_PREC)
        for w in admissible_words(6):
            minus = table.chi_minus(w)
            plus = table.chi_plus(w)
            if any(
                minus.coefficient(n) != 0
                for n in range(0, minus.valid_through + 1)
            ):
                return False, f"{kind}_minus({w!r}) is not purely polar"
            if any(plus.coefficient(n) != 0 for n in range(plus.ord, 0)):
                return False, f"{kind}_plus({w!r}) keeps a pole"
            if not equal_on_window(plus - minus, table.chi_bar(w), 4):
                return False, f"{kind}: plus - minus != bar at {w!r}"
    return True, ""


def _check_star_reconstruction():
    for kind in ("phi", "psi"):
        table = CharacterTable(kind, prec=_ROW_PREC)
        chi = CharacterTable(kind, prec=_CHAR_PREC).chi
        for w in admissible_words(6):
            lhs = star(table.chi_minus, chi, w, table.lam)
            if not equal_on_window(lhs, table.chi_plus(w), 3):
                return False, f"{kind}: chi_minus * chi != chi_plus at {w!r}"
    return True, ""


def _check_character(char, product):
    # char(u) char(v) = char(u x v) for the product matching the character
    for u, v in _unordered_pairs_total_weight(6):
        lhs = series_mul(char(u, _CHAR_PREC), char(v, _CHAR_PREC))
        if not equal_on_window(lhs, _realize(char, product(u, v)), 6):
            return False, f"{char.__name__} not multiplicative at u={u!r}, v={v!r}"
    return True, ""


def _check_renorm_relations_zeta():
    for u, v in _unordered_pairs_total_weight(6):
        lhs = zeta_plus(word_to_indices(u)).value * zeta_plus(word_to_indices(v)).value
        rhs = Fr(0)
        for w, c in shuffle_zero(u, v).items():
            rhs += c * zeta_plus(word_to_indices(w)).value
        if lhs != rhs:
            return False, f"zeta_plus relation fails at u={u!r}, v={v!r}"
    return True, ""


def _check_renorm_relations_qzeta():
    table = CharacterTable("psi", prec=_ROW_PREC)
    for u, v in _unordered_pairs_total_weight(6):
        N = weight(u) + weight(v) - depth(u) - depth(v)
        terms = project_T(shuffle_lambda(u, v, -1)).items()
        plus = series_sum((c, table.chi_plus(w)) for w, c in terms)
        lhs = _rescaled_limit(f"{u} * {v}", plus, N)
        rhs = qzeta_plus(word_to_indices(u)).value * qzeta_plus(word_to_indices(v)).value
        if lhs != rhs:
            return False, f"qzeta relation fails at u={u!r}, v={v!r} (N={N})"
    return True, ""


def _check_kstar_primitive():
    char = CharacterTable("phi", prec=_CHAR_PREC).chi
    for w in admissible_words(6):
        terms = reduced_coproduct(w, 0).items()
        acc = _total((c, series_mul(char(w1), char(w2))) for (w1, w2), c in terms)
        rhs = series_scale(char(w), 2 ** depth(w) - 2)
        if not equal_on_window(acc, rhs, 6):
            return False, f"K * K identity fails at w={w!r}"
    return True, ""


def _check_primitive_decomposition():
    vectors = [
        (a, b) for a in range(4) for b in range(4)
    ] + [(0, 0, 0), (1, 0, 1), (2, 1, 0), (1, 1, 1)]
    for k in vectors:
        via = zeta_plus_via_primitives(k).value
        std = zeta_plus(k).value
        if via != std:
            return False, f"k={k}: primitives give {via}, standard gives {std}"
    return True, ""


def _check_mero_compat():
    # depth 1 against phi: zeta_plus((k,)) is mero_depth1(k) by construction,
    # and chi_plus(d^k y) is the regular part of phi(d^k y), built from x(z)
    table = CharacterTable("phi", prec=_ROW_PREC)
    for k in range(13):
        if table.chi_plus("d" * k + "y").coefficient(0) != mero_depth1(k):
            return False, f"depth-1 mismatch at k={k}"
    for a in range(7):
        for b in range(7):
            if (a + b) % 2 == 0:
                continue
            if zeta_plus((a, b)).value != mero_depth2(a, b):
                return False, f"depth-2 mismatch at (a, b)=({a}, {b})"
    if not _raises(EvenWeight, mero_depth2, 1, 1):
        return False, "mero_depth2(1, 1) should raise EvenWeight"
    return True, ""


def _check_negative_control():
    v = zeta_plus((0, 0)).value
    if v == Fr(3, 8):
        return False, "zeta_plus(0, 0) landed on the rejected value 3/8"
    if v != Fr(1, 4):
        return False, f"zeta_plus(0, 0) = {v} != 1/4"
    if zeta_plus_via_primitives((0, 0)).value != Fr(1, 4):
        return False, "primitive route disagrees at (0, 0)"
    return True, ""


def _check_qzeta_equals_zeta_spots():
    # two q-side routes that read no zeta(-a): the psi rows (psi's l-sum on
    # the split atoms f(L z)), rescaled, and to weight 9 the recursion on psi
    for k in [(1,), (2,), (0, 0), (1, 1), (2, 1), (0, 1, 0), (2, 2, 2), (7, 7)]:
        w, N, zz = indices_to_word(k), sum(k), zeta_plus(k).value
        rows = _rescaled_limit(w, CharacterTable("psi", prec=N).chi_plus(w), N)
        if rows != zz:
            return False, f"k={k}: the psi rows give {rows}, zeta_plus gives {zz}"
        rec = _qzeta_plus_birkhoff(k).value if weight(w) <= 9 else zz
        if rec != zz:
            return False, f"k={k}: the recursion gives {rec}, zeta_plus gives {zz}"
    return True, ""


def _suite_birkhoff():
    return [
        ("minus-polar-plus-regular-and-bar", _check_split_shapes),
        ("convolution-reconstruction", _check_star_reconstruction),
        (
            "phi-multiplicative-on-shuffle0",
            partial(_check_character, phi, shuffle_zero),
        ),
        (
            "psi-multiplicative-on-shuffle-minus1",
            partial(_check_character, psi, lambda u, v: shuffle_lambda(u, v, -1)),
        ),
        ("renormalized-relations-zeta", _check_renorm_relations_zeta),
        ("renormalized-relations-qzeta", _check_renorm_relations_qzeta),
        ("kstar-primitive-identity", _check_kstar_primitive),
        ("primitive-decomposition-agreement", _check_primitive_decomposition),
        ("closed-form-compatibility", _check_mero_compat),
        ("quarter-not-three-eighths", _check_negative_control),
        ("qzeta-equals-zeta-spots", _check_qzeta_equals_zeta_spots),
    ]


# ---------------------------------------------------------------------------
# rota-baxter suite
# ---------------------------------------------------------------------------


def _rand_powerseries(rng: random.Random, T: int) -> LaurentSeries:
    return LaurentSeries(
        0, [0] + [Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(T)]
    )


def _rand_bivariate(rng: random.Random, A: int, Q: int) -> tuple:
    return tuple(tuple(rng.randint(-5, 5) for _ in range(Q + 1)) for _ in range(A))


def _bv_combine(*signed):
    rows = None
    for sign, s in signed:
        if rows is None:
            rows = [[sign * c for c in row] for row in s]
        else:
            for i, row in enumerate(s):
                for j, c in enumerate(row):
                    rows[i][j] += sign * c
    return tuple(tuple(r) for r in rows)


def _check_J_delta():
    rng = random.Random(_SEED)
    for _ in range(5):
        s = _rand_powerseries(rng, 30)
        back = op_J(op_delta(s)), op_delta(op_J(s))
        if not all(equal_on_window(r, s, 31) for r in back):
            return False, "J and delta are not mutually inverse"
    if not _raises(NonzeroConstantTerm, op_J, LaurentSeries(0, (1, 2))):
        return False, "J accepted a nonzero constant term"
    if not _raises(NonzeroConstantTerm, op_delta, LaurentSeries(0, (3,))):
        return False, "delta accepted a nonzero constant term"
    return True, ""


def _check_J_rota_baxter():
    rng = random.Random(_SEED + 1)
    for _ in range(4):
        f = _rand_powerseries(rng, 24)
        g = _rand_powerseries(rng, 24)
        lhs = series_mul(op_J(f), op_J(g))
        inner = series_add(series_mul(op_J(f), g), series_mul(f, op_J(g)))
        if not equal_on_window(lhs, op_J(inner), 25):
            return False, "J fails the weight-0 Rota-Baxter identity"
        # li_J multiplies by y as a running sum
        yf, ref = _times_y(f), series_mul(y_powerseries(24), f)
        if (yf.ord, yf.nums, yf.den) != (ref.ord, ref.nums, ref.den):
            return False, "y * f as a running sum differs from the product"
    return True, ""


def _check_q_operators():
    rng = random.Random(_SEED + 2)
    for _ in range(3):
        f = _rand_bivariate(rng, 8, 8)
        g = _rand_bivariate(rng, 8, 8)
        fg = mul_bivariate(f, g)
        if op_Eq(fg) != mul_bivariate(op_Eq(f), op_Eq(g)):
            return False, "E_q is not multiplicative"
        leib = _bv_combine(
            (1, mul_bivariate(op_Dq(f), g)),
            (1, mul_bivariate(f, op_Dq(g))),
            (-1, mul_bivariate(op_Dq(f), op_Dq(g))),
        )
        if op_Dq(fg) != leib:
            return False, "D_q fails its generalized Leibniz rule"
        if op_Pq(op_Dq(f)) != f or op_Dq(op_Pq(f)) != f:
            return False, "P_q and D_q are not mutually inverse"
        rb = op_Pq(
            _bv_combine(
                (1, mul_bivariate(op_Pq(f), g)),
                (1, mul_bivariate(f, op_Pq(g))),
                (-1, fg),
            )
        )
        if mul_bivariate(op_Pq(f), op_Pq(g)) != rb:
            return False, "P_q fails the weight -1 Rota-Baxter identity"
        # qchar_realization multiplies by y as a running sum of rows
        if _times_y_rows(f) != mul_bivariate(y_bivariate(8, 8), f):
            return False, "y * f as a running sum of rows differs from the product"
    return True, ""


def _check_li_routes():
    entries = (-2, -1, 0, 1, 2)
    vectors = [
        k
        for n in (1, 2, 3)
        for k in product(entries, repeat=n)
    ]
    for k in vectors:
        if not equal_on_window(li_J(k, 30), li_nested(k, 30), 31):
            return False, f"li routes disagree at k={k}"
    return True, ""


def _check_li_closed_forms():
    T = 12
    if li_J((0,), T).coeffs != tuple(Fr(0 if m == 0 else 1) for m in range(T + 1)):
        return False, "li(0) != sum t^m"
    if li_J((-1,), T).coeffs != tuple(Fr(m) for m in range(T + 1)):
        return False, "li(-1) != sum m t^m"
    if li_J((0, 0), T).coeffs != tuple(Fr(max(m - 1, 0)) for m in range(T + 1)):
        return False, "li(0, 0) != sum (m-1) t^m"
    return True, ""


def _check_truncation_guard():
    s = ((1,) * 6, (0,) * 6)  # A=2, Q=5
    if not _raises(TruncationMismatch, eval_t_eq_q, s):
        return False, "eval_t_eq_q accepted A < Q"
    return True, ""


def _suite_rota_baxter():
    return [
        ("J-delta-inverse-pair", _check_J_delta),
        ("J-weight0-rota-baxter", _check_J_rota_baxter),
        ("q-operator-identities", _check_q_operators),
        ("li-route-agreement", _check_li_routes),
        ("li-closed-forms", _check_li_closed_forms),
        ("truncation-guard", _check_truncation_guard),
    ]


# ---------------------------------------------------------------------------
# qseries suite
# ---------------------------------------------------------------------------


def _check_qz_routes():
    vectors = [
        k for n in (1, 2, 3) for k in product(range(4), repeat=n)
    ]
    for k in vectors:
        if qz_series(k, 30) != qz_rational(k, 30):
            return False, f"nested sum and closed form disagree at k={k}"
    return True, ""


def _check_qchar_realization():
    vectors = [k for n in (1, 2) for k in product(range(4), repeat=n)]
    vectors += [(1, 1, 1), (2, 0, 1)]
    for k in vectors:
        if qchar_realization(k, 20) != qz_series(k, 20):
            return False, f"operator realization disagrees at k={k}"
    return True, ""


def _psi_coeff_oracle(k: tuple[int, ...], e: int) -> Fraction:
    n = len(k)
    bs = [bernoulli(j) for j in range(e + n + 1)]
    weights = [(b.numerator, b.denominator * factorial(j)) for j, b in enumerate(bs)]
    sums: dict = {}  # denominator -> sum of numerators
    for m in _bernoulli_compositions(e + n, n):
        num, den = 1, 1  # prod B_{m_i} / m_i! as num / den
        for mi in m:
            num, den = num * weights[mi][0], den * weights[mi][1]
        C = psi_C(k, m)
        den *= C.denominator
        sums[den] = sums.get(den, 0) + num * C.numerator
    D = lcm(*sums)
    return Fr(sum(num * (D // den) for den, num in sums.items()), D)


def _check_psi_vs_constants():
    vectors = []
    for n in range(1, 6):
        for k in product(range(5), repeat=n):
            if n + sum(k) <= 5:
                vectors.append(k)
    for k in vectors:
        w = indices_to_word(k)
        s = psi(w, _CHAR_PREC)
        for e in range(-len(k), 5):
            if s.coefficient(e) != _psi_coeff_oracle(k, e):
                return False, f"psi coefficient z^{e} off at k={k}"
    return True, ""


def _check_atoms():
    for L in range(1, 9):
        if psi_factor(L, 10).coefficient(-1) != Fr(1, L):
            return False, f"residue of f({L}z) is not 1/{L}"
    f1 = psi_factor(1, 12)
    for m in range(14):
        if f1.coefficient(m - 1) != bernoulli(m) / factorial(m):
            return False, f"f(z) coefficient at z^{m - 1} drifts"
    B = [bernoulli(j) for j in range(21)]  # B_0 .. B_20, every one the suites read
    D = lcm(*(b.denominator for b in B))  # sum_{j<N} C(N, j) B_j = N, in ints over D
    for N in (5, 13, 21):  # holds with B_1 = +1/2 only
        if sum(comb(N, j) * b.numerator * D // b.denominator for j, b in enumerate(B[:N])) != N * D:
            return False, f"B_0 .. B_{N - 1} break sum_(j<{N}) C({N}, j) B_j = {N} (B_1 = +1/2)"
    if not equal_on_window(x_series(10), series_scale(psi_factor(1, 10), -1)):
        return False, "x != -f"
    if not equal_on_window(phi("y", _CHAR_PREC), psi("y", _CHAR_PREC), 6):
        return False, "phi(y) != psi(y)"
    if mero_depth1(0) != Fr(-1, 2):
        return False, "zeta(0) != -1/2"
    return True, ""


def _suite_qseries():
    return [
        ("qz-nested-equals-rational", _check_qz_routes),
        ("qz-operator-realization", _check_qchar_realization),
        ("psi-vs-constant-oracle", _check_psi_vs_constants),
        ("atom-pins", _check_atoms),
    ]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

SUITES = {
    "hopf": _suite_hopf,
    "birkhoff": _suite_birkhoff,
    "rota-baxter": _suite_rota_baxter,
    "qseries": _suite_qseries,
}


def run_suite(name: str) -> list[dict]:
    """Run one suite; returns [{'name', 'ok', 'detail'}, ...]."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    results = []
    for check_name, fn in SUITES[name]():
        try:
            ok, detail = fn()
        except Exception as exc:  # surface as a failure, never abort the run
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": check_name, "ok": bool(ok), "detail": detail})
    return results
