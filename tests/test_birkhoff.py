import hashlib
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hopfmzv import birkhoff, clear_caches, realizations
from hopfmzv.birkhoff import (
    CharacterTable,
    _counterterm,
    _qzeta_plus_birkhoff,
    _rescaled_limit,
    _zeta_plus_birkhoff,
    qzeta_plus,
    zeta_plus,
    zeta_plus_via_primitives,
)
from hopfmzv.coproduct import star
from hopfmzv.errors import DepthOne, NonvanishingLowerTerm, PrecisionExceeded
from hopfmzv.realizations import _chain, _lsum, mero_depth1, mero_depth2, psi, psi_C, psi_factor
from hopfmzv.series import (
    LaurentSeries,
    constant,
    equal_on_window,
    pole_part,
    regular_part,
    series_add,
    series_diff,
    series_mul,
    series_slice,
    zero_series,
)
from hopfmzv.words import admissible_words, depth, indices_to_word, weight, word_to_indices
from test_faults import FAULTS, check, lift, planted, reduced_with

Fr = Fraction


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        CharacterTable("chi")


def test_table_lambda_is_an_int():
    lams = [CharacterTable(kind).lam for kind in ("phi", "psi")]
    assert lams == [0, -1] and all(type(lam) is int for lam in lams)


def test_counterterm_of_a_primitive_is_one_pure_pole():
    table = CharacterTable("phi", prec=2)
    for k in range(5):
        minus = table.chi_minus("d" * k + "y")
        assert minus.coefficient(-(k + 1)) == Fr((-1) ** k * factorial(k))
        others = [
            n
            for n in range(minus.ord, minus.valid_through + 1)
            if n != -(k + 1) and minus.coefficient(n) != 0
        ]
        assert others == []


def test_dydy_constant_terms():
    table = CharacterTable("phi", prec=1)
    assert table.chi("dydy").coefficient(0) == Fr(1, 240)
    assert table.chi_bar("dydy").coefficient(0) == Fr(1, 144)
    assert table.chi_plus("dydy").coefficient(0) == Fr(1, 144)
    assert table.chi_minus("dydy").coefficient(0) == 0


def test_yddy_renormalizes_to_zero():
    table = CharacterTable("phi", prec=1)
    assert table.chi_plus("yddy").coefficient(0) == 0


def test_plus_minus_bar_identity():
    for kind in ("phi", "psi"):
        table = CharacterTable(kind, prec=4)
        for w in ("dy", "dydy", "yddy", "ddydy", "yyy"):
            lhs = series_add(table.chi_plus(w), -table.chi_minus(w))
            assert equal_on_window(lhs, table.chi_bar(w), 4), (kind, w)


def test_plus_part_is_pole_free():
    table = CharacterTable("psi", prec=3)
    for w in ("dy", "ddy", "dydy", "dyddy"):
        plus = table.chi_plus(w)
        assert all(plus.coefficient(n) == 0 for n in range(plus.ord, 0)), w


def test_rows_are_valid_through_prec():
    # every word to weight 8 at every prec from -12 to 8; below the leading
    # pole z^{-g(w)}, g the kind's grading, every row is the zero series
    for kind, grade in realizations._GRADINGS.items():
        for prec in range(-12, 9):
            table = CharacterTable(kind, prec=prec)
            for w in admissible_words(8):
                for name in ("chi", "chi_bar", "chi_minus", "chi_plus"):
                    s = getattr(table, name)(w)
                    assert s.valid_through == prec, (kind, prec, w, name)
                    if prec < -grade(w):
                        assert _shape(s) == _shape(zero_series(prec)), (kind, prec, w, name)


def test_zeta_plus_literals():
    assert zeta_plus((0,)).value == Fr(-1, 2)
    assert zeta_plus((1,)).value == Fr(-1, 12)
    assert zeta_plus((0, 0)).value == Fr(1, 4)
    assert zeta_plus((1, 1)).value == Fr(1, 144)
    assert zeta_plus((3, 3)).value == Fr(107, 100800)


def test_the_quarter_is_not_the_naive_three_eighths():
    # the unrenormalized stuffle heuristic would give 3/8 at (0,0)
    assert zeta_plus((0, 0)).value != Fr(3, 8)


def test_qzeta_matches_zeta_at_spots():
    for k in [(0,), (2,), (0, 0), (1, 1), (2, 1)]:
        assert qzeta_plus(k).value == zeta_plus(k).value, k


def test_psi_plus_rescaling_window():
    table = CharacterTable("psi", prec=4)
    plus = table.chi_plus("dydy")  # |k| = 2
    assert plus.coefficient(0) == 0
    assert plus.coefficient(1) == 0
    assert plus.coefficient(2) == Fr(1, 144)


def test_regular_part_of_psi_depth_one_starts_at_z_a():
    # qzeta_plus keeps only the lambda = 0 placements: a d shared by two legs
    # counts in both legs' a, so such a placement starts above z^{|k|}.  The
    # finite-difference lemma, against psi's own l-sum: z^0 .. z^{a-1} are 0
    # and the z^a coefficient is (-1)^a zeta(-a)
    for a in range(61):
        s = psi("d" * a + "y", a)
        assert all(s.coefficient(m) == 0 for m in range(a)), a
        assert s.coefficient(a) == (-1) ** a * mero_depth1(a), a


def test_qzeta_plus_builds_no_psi_series():
    clear_caches()
    qzeta_plus((7, 7))
    assert psi.cache_info().misses == 0
    assert psi_factor.cache_info().misses == 0


def test_provenance_tags():
    assert zeta_plus((1,)).provenance == "phi-placement-dp"
    assert qzeta_plus((1,)).provenance == "psi-placement-dp"
    assert _zeta_plus_birkhoff((1,)).provenance == "phi-constant-term"
    assert _qzeta_plus_birkhoff((1,)).provenance == "psi-rescaled-limit"
    assert zeta_plus_via_primitives((1, 1)).provenance == "primitive-decomposition"


def test_primitive_route_agrees():
    for k in [(0, 0), (1, 1), (2, 1), (3, 3), (1, 0, 1)]:
        assert zeta_plus_via_primitives(k).value == zeta_plus(k).value, k


def test_primitive_route_needs_depth_two():
    with pytest.raises(DepthOne):
        zeta_plus_via_primitives((2,))


def test_argument_validation():
    with pytest.raises(ValueError):
        zeta_plus(())
    with pytest.raises(ValueError):
        zeta_plus((1, -2))
    # entries are integers, not anything int() would truncate or parse
    for route in (zeta_plus, qzeta_plus, zeta_plus_via_primitives):
        for k in [(1.5,), ("3",), (1, Fr(1, 2)), (1, None)]:
            with pytest.raises(ValueError):
                route(k)


def test_table_is_thread_safe():
    words = list(admissible_words(5))
    reference = {}
    single = CharacterTable("phi", prec=1)
    for w in words:
        reference[w] = single.chi_plus(w).coefficient(0)

    shared = CharacterTable("phi", prec=1)
    jobs = words * 4
    random.Random(7).shuffle(jobs)

    def probe(w):
        return w, shared.chi_plus(w).coefficient(0)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for w, v in pool.map(probe, jobs):
            assert v == reference[w], w


def _monomial_counterterm(kind, w):
    """c_w in chi_minus(w) = c_w z^{-g(w)}: for phi the product over blocks j
    of (-1)^{k_j} s_j (s_j + 1) ... (s_j + k_j - 1), s_j = 1 + the weight of
    the blocks after j; for psi (-1)^n psi_C(k, (0,)*n)."""
    ks = word_to_indices(w)
    if kind == "psi":
        return (-1) ** len(ks) * psi_C(ks, (0,) * len(ks))
    c, s = 1, 1
    for k in reversed(ks):
        c, s = c * (-1) ** k * prod(range(s, s + k)), s + k + 1
    return c


@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_counterterms_are_monomials(kind):
    # the split atoms' pole parts are monomials, -pi x = 1/z and
    # -pi f(Lz) = -1/(Lz), so each row's chi_minus is one: every word to
    # weight 9 from the rows, to weight 7 from the recursion
    table, grade = CharacterTable(kind, prec=0), {"phi": weight, "psi": depth}[kind]
    for w in admissible_words(9):
        g, c = grade(w), _monomial_counterterm(kind, w)
        rows = [table.chi_minus(w)] + ([_counterterm(kind, w)] if weight(w) <= 7 else [])
        for s in rows:
            top = min(s.valid_through, 0)
            got = [s.coefficient(e) for e in range(-g - 1, top + 1)]
            assert got == [0, c] + [0] * (top + g), (kind, w)


def test_counterterms_are_shared_across_calls():
    first = _zeta_plus_birkhoff((1, 2, 1))
    misses = _counterterm.cache_info().misses
    assert _zeta_plus_birkhoff((1, 2, 1)) == first
    assert _counterterm.cache_info().misses == misses
    clear_caches()
    assert _counterterm.cache_info().currsize == 0
    assert _zeta_plus_birkhoff((1, 2, 1)) == first
    assert _counterterm.cache_info().currsize > 0


def test_a_rebound_kinds_table_is_seen(monkeypatch):
    # a tool that wraps the characters rebinds _KINDS with new
    # (character, lambda) pairs; the engine reads it on every miss
    calls = Counter()

    def counted(char):
        def wrapper(w, P):
            calls[char.__name__] += 1
            return char(w, P)

        return wrapper

    expected = _zeta_plus_birkhoff((1, 2)).value, _qzeta_plus_birkhoff((1, 2)).value
    kinds = {kind: (counted(char), lam) for kind, (char, lam) in birkhoff._KINDS.items()}
    monkeypatch.setattr(birkhoff, "_KINDS", kinds)
    clear_caches()
    assert (_zeta_plus_birkhoff((1, 2)).value, _qzeta_plus_birkhoff((1, 2)).value) == expected
    assert calls["phi"] > 0 and calls["psi"] > 0


def _with_constant_at_ddy(char):
    # a nonzero z^0 term on one depth-one word: its q -> 1 limit blows up
    def wrapper(w, P):
        s = char(w, P)
        return series_add(s, constant(1, P)) if w == "ddy" else s

    return wrapper


def test_the_oracle_raises_a_nonvanishing_lower_term(monkeypatch):
    expected = _qzeta_plus_birkhoff((2,)).value
    kinds = dict(birkhoff._KINDS)
    kinds["psi"] = (_with_constant_at_ddy(psi), kinds["psi"][1])
    monkeypatch.setattr(birkhoff, "_KINDS", kinds)
    clear_caches()
    with pytest.raises(NonvanishingLowerTerm, match="'ddy'"):
        _qzeta_plus_birkhoff((2,))
    monkeypatch.undo()
    clear_caches()
    assert _qzeta_plus_birkhoff((2,)).value == expected


def test_each_coproduct_is_enumerated_once(monkeypatch):
    # the engine asks for each (word, lambda) once, behind a memoized
    # counterterm or a top-level row; the count memo under reduced_coproduct
    # is hit by the other lambdas that checks and callers ask for
    seen = Counter()
    enumerate_coproduct = birkhoff.reduced_coproduct

    def counted(w, lam):
        seen[w, lam] += 1
        return enumerate_coproduct(w, lam)

    monkeypatch.setattr(birkhoff, "reduced_coproduct", counted)
    clear_caches()
    misses = _counterterm.cache_info().misses
    _zeta_plus_birkhoff((1,) * 5)
    _qzeta_plus_birkhoff((2, 2, 2))
    assert seen and set(seen.values()) == {1}
    assert sum(seen.values()) == _counterterm.cache_info().misses - misses + 2


_VECTORS = [(3,), (0, 0), (2, 1), (1, 1, 1), (0, 3, 1), (2, 2, 1), (1, 2, 1, 0)]


def _both_values(k):
    return _zeta_plus_birkhoff(k).value, _qzeta_plus_birkhoff(k).value


def test_values_do_not_depend_on_the_window():
    fresh = {}
    for k in _VECTORS:
        clear_caches()
        fresh[k] = _both_values(k)
    # the memos hold whatever the calls before left there: small calls
    # first, large calls first, or several at once
    for reverse in (False, True):
        clear_caches()
        for k in sorted(_VECTORS, key=lambda k: sum(k) + len(k), reverse=reverse):
            assert _both_values(k) == fresh[k], (k, reverse)
    clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(_both_values, _VECTORS * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [fresh[k] for k in _VECTORS * 3]


def _shape(s):
    return s.ord, s.nums, s.den


def _rows(kind, w, precs):
    """Every CharacterTable row of w at each prec, and w's counterterm."""
    rows = []
    for prec in precs:
        table = CharacterTable(kind, prec=prec)
        for name in ("chi", "chi_bar", "chi_minus", "chi_plus"):
            s = getattr(table, name)(w)
            assert s.valid_through == prec, (kind, w, prec, name)
            rows.append(_shape(s))
    return rows, _shape(_counterterm(kind, w))


@pytest.mark.parametrize(
    "kind, wide, max_weight",
    [
        ("phi", lambda: _zeta_plus_birkhoff((1,) * 6), 6),
        ("psi", lambda: _qzeta_plus_birkhoff((2, 2, 2)), 5),
    ],
    ids=["phi", "psi"],
)
def test_rows_after_a_wide_call_equal_fresh_rows(kind, wide, max_weight):
    words, precs = list(admissible_words(max_weight)), (-2, -1, 0, 3)
    fresh = {}
    for w in words:
        clear_caches()
        fresh[w] = _rows(kind, w, precs)
    clear_caches()
    wide()
    for w in words:
        assert _rows(kind, w, precs) == fresh[w], w


# sha256 of (ord, nums, den) for every CharacterTable row of both kinds and
# every word to weight 6, at each prec below.  Rows are exact, so a change to
# the engine that keeps them keeps this digest.  At prec -5 the short words'
# rows are empty windows below their order, whose ord is part of the form.
_ROWS_DIGEST = "f891a215ded8ac1320e1c93387e7519ba2688a218ca420ba4a141690a11215eb"


def test_rows_are_pinned():
    digest = hashlib.sha256()
    for kind in ("phi", "psi"):
        for w in admissible_words(6):
            for shape in _rows(kind, w, (-5, -2, -1, 0, 3))[0]:
                digest.update(repr(shape).encode())
    assert digest.hexdigest() == _ROWS_DIGEST


def test_depth_two_matches_the_closed_form_below_40():
    for a in range(40):
        for b in range(40):
            if (a + b) % 2:
                assert zeta_plus((a, b)).value == mero_depth2(a, b), (a, b)


def test_primitive_route_agrees_on_every_word_to_weight_10():
    # the placement DP, the Birkhoff engine and the primitive recursion
    for w in admissible_words(10):
        if w:
            k = word_to_indices(w)
            value = zeta_plus(k).value
            assert _zeta_plus_birkhoff(k).value == value, w
            if depth(w) >= 2:
                assert zeta_plus_via_primitives(k).value == value, w


def test_q_side_dp_equals_the_engine_to_weight_8():
    for w in admissible_words(8):
        if w:
            k = word_to_indices(w)
            assert qzeta_plus(k).value == _qzeta_plus_birkhoff(k).value, w


def test_deep_vectors_agree_at_both_lambdas():
    # past the engine's reach (its cost grows about 5x per unit of depth):
    # the lambda = 0 sum of zeta(-a) against the psi rows, psi's l-sum on
    # the split atoms (the lambda = -1 placements, shared d's included), rescaled
    for k in [(1,) * 10, (1,) * 20, (3,) * 8]:
        w, N = indices_to_word(k), sum(k)
        rows = _rescaled_limit(w, CharacterTable("psi", prec=N).chi_plus(w), N)
        assert zeta_plus(k).value == rows, k


def test_a_depth_one_value_reads_zeta_once_at_k(monkeypatch):
    for route in (zeta_plus, qzeta_plus):
        for k in (0, 1, 7, 40):
            calls = []
            monkeypatch.setattr(
                birkhoff, "mero_depth1", lambda a: calls.append(a) or mero_depth1(a)
            )
            assert (route((k,)).value, calls) == (mero_depth1(k), [k]), (route, k)


def test_zeta_vanishes_at_every_even_a_the_values_skip():
    assert all(mero_depth1(a) == 0 for a in range(2, 601, 2))


@pytest.mark.parametrize("k", [(1,) * 9, (0, 2, 0, 2), (3, 4, 5)])
def test_a_deep_value_reads_zeta_once_at_zero_and_each_odd_a(monkeypatch, k):
    want = [0, *range(1, sum(k) + 1, 2)]
    for route in (zeta_plus, qzeta_plus):
        calls = []
        monkeypatch.setattr(birkhoff, "mero_depth1", lambda a: calls.append(a) or mero_depth1(a))
        assert (route(k).value, sorted(calls)) == (_split_atom_chain(k), want), route


def _placements(ks, lam, f):
    """The reference: sum over placements of prod_j f(a_j), w = d^{k_1}y...d^{k_n}y.

    Leg j is headed by the j-th y; each d of block i joins a nonempty set S
    of the legs j >= i, weight lam^{|S| - 1}; a_j counts leg j's d's.  After
    block j, u of the d's seen are in no leg and s = seen - u in some.  Leg
    j takes a1 of the u and a2 of the s, C(u, a1) C(s, a2) lam^{a2} ways;
    the last leg takes all u.  f's values need + and * (ints, Fraction, series).
    """
    fs = {a: f(a) for a in (range(sum(ks) + 1) if len(ks) > 1 else ks)}

    @cache
    def leg(s, a1):  # sum over a2 of C(s, a2) lam^a2 f(a1 + a2)
        shared = range(1, s + 1 if lam else 1)
        return sum((fs[a1 + a2] * (comb(s, a2) * lam**a2) for a2 in shared), fs[a1])

    states, seen = {0: 1}, 0
    for j, k in enumerate(ks):
        seen += k
        nxt: dict = {}
        for u, acc in states.items():
            u += k
            for a1 in range(u + 1) if j < len(ks) - 1 else (u,):
                term = leg(seen - u, a1) * acc * comb(u, a1)
                nxt[u - a1] = nxt[u - a1] + term if u - a1 in nxt else term
        states = nxt
    return states[0]


@pytest.mark.parametrize("lam", [0, -1])
def test_a_depth_one_placement_reads_f_once_at_k(lam):
    # the reference's depth-one sum is f(k) alone, read once, at either lambda
    for k in (0, 1, 7, 40):
        calls = []
        value = _placements((k,), lam, lambda a: calls.append(a) or Fr(a + 1))
        assert (value, calls) == (k + 1, [k]), k


def _placed_rows(kind, w, prec):
    # the rows as placements of the split depth-one characters, each read
    # through prec + g(w) and the sum sliced at prec
    char, lam = birkhoff._KINDS[kind]
    P, ks = prec + realizations._GRADINGS[kind](w), word_to_indices(w)

    def split(part):
        placed = _placements(ks, lam, lambda a: part(char("d" * a + "y", P)))
        return series_slice(placed, prec)

    minus, plus = split(lambda s: -pole_part(s)), split(regular_part)
    return minus, plus, plus - minus


def test_rows_are_the_placements_of_the_split_depth_one_characters():
    for kind in ("phi", "psi"):
        for prec in range(-2, 7):
            for w in admissible_words(7):
                rows = birkhoff._rows(kind, w, prec)
                placed = _placed_rows(kind, w, prec)
                assert [_shape(s) for s in rows] == [_shape(s) for s in placed], (kind, w, prec)


def _random_series(rng, ord_, V):
    coeffs = [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ord_, V + 1)]
    return LaurentSeries(ord_, coeffs)


def test_the_split_atom_identities_hold_for_random_atoms():
    # _rows' two arguments read no atom: at lambda = 0 the placements of the
    # D^a a equal the chain on a, and at lambda = -1 the placements of the
    # depth-one l-sums equal the l-sum, for any atom a and any family a(L)
    rng = random.Random(28)
    for w in admissible_words(7):
        ks = word_to_indices(w)
        atom = _random_series(rng, rng.randint(-2, 1), 3)

        def diffs(a):
            s = atom
            for _ in range(a):
                s = series_diff(s)
            return s

        lam0 = _placements(ks, 0, diffs)
        assert _shape(lam0) == _shape(_chain(ks, atom, series_mul, series_diff)), w
        ord_ = rng.randint(-2, 1)
        family = {L: _random_series(rng, ord_, 3) for L in range(1, sum(ks) + 2)}
        times = lambda L, s: series_mul(family[L], s)  # noqa: E731
        lam1 = _placements(ks, -1, lambda a: _lsum((a,), family.__getitem__, times))
        assert _shape(lam1) == _shape(_lsum(ks, family.__getitem__, times)), w


# every k in {0..4}^n with n <= 4
_SMALL = [k for n in range(1, 5) for k in product(range(5), repeat=n)]


def _unreduced_mismatches(value):
    # the vectors where value differs from the unreduced sum on ints
    bad = []
    for k in _SMALL + [(1,) * 40]:
        nums, D = lift(k)
        if value(k) != Fr(_placements(k, 0, nums.__getitem__), D ** len(k)):
            bad.append(k)
    return bad


def test_the_reduced_loop_equals_the_unreduced_sum():
    assert _unreduced_mismatches(birkhoff._value) == []


@pytest.mark.parametrize("fault", ["den-not-divided", "first-block-skips-D"])
def test_a_fault_in_the_reduction_is_caught(fault):
    check(fault)
    assert _unreduced_mismatches(reduced_with(fault))


def test_a_skipped_leg_is_caught():
    # a1 = 1 is the first odd leg past the trivial zeros the loop skips
    check("skips-a1-1")
    assert _unreduced_mismatches(reduced_with("skips-a1-1"))


def test_the_planted_loop_without_a_fault_is_the_loop():
    assert _unreduced_mismatches(reduced_with(None)) == []


def _split_atom_chain(ks):
    # D^{k_1}[F D^{k_2}[F ... D^{k_n}[F]]] at 0, with F^(a)(0) = zeta(-a): at
    # lambda = 0 each d of block i goes to one leg j >= i, the Leibniz rule.
    # A level is its vector of derivatives at 0; D^k shifts it by k, and a
    # product is h_m = sum_i C(m, i) f_i g_{m-i}.  No placements, no _value.
    f = [mero_depth1(a) for a in range(sum(ks) + 1)]
    g = [Fr(1)] + [Fr(0)] * sum(ks)  # the constant 1 under the innermost F
    for k in reversed(ks):
        g = [
            sum(comb(m, i) * f[i] * g[m - i] for i in range(m + 1) if f[i])
            for m in range(k, len(g))
        ]
    return g[0]


def test_values_equal_the_split_atom_chain():
    deep = [(1,) * 60, (5,) * 12, (50,) * 3, (7, 0, 3, 9, 2)]
    even = [(2,) * 10, (0, 2) * 5, (4, 0, 6, 0, 8)]  # each partial sum an even a
    for k in _SMALL + deep + even:
        assert zeta_plus(k).value == _split_atom_chain(k) == qzeta_plus(k).value, k


def test_a_wrong_denominator_in_the_lift_is_caught():
    check("lift-off-by-one")
    with planted("lift-off-by-one"), pytest.raises(AssertionError):
        test_depth_two_matches_the_closed_form_below_40()


@pytest.mark.parametrize(
    "fault",
    ["bar-counterterm", "bar-top", pytest.param("lsum-one-at-dydy", id="lsum"), "psi-row"],
)
def test_a_q_side_fault_fails_the_spot_check(fault):
    # the values never reach the recursion, psi or the rows: the spot check
    # reads the rescaled psi rows and, to weight 9, the recursion on psi
    check(fault)
    assert "birkhoff/qzeta-equals-zeta-spots" in FAULTS[fault].fails


def test_a_phi_row_fault_fails_the_reconstruction():
    # no value reads the phi rows: the convolution check and the recursion do
    check("phi-row")
    with planted("phi-row"), pytest.raises(AssertionError):
        test_rows_factor_through_depth_one("phi")


@pytest.mark.parametrize(
    "kind, atom, short",
    [
        ("phi", "x_series", lambda x: lambda V: x(V - 1)),
        ("psi", "psi_factor", lambda f: lambda L, V: f(L, V - 1)),
    ],
)
def test_a_short_atom_makes_a_row_raise(monkeypatch, kind, atom, short):
    # the rows read the atoms through realizations' own bindings, and the
    # builder checks the window they come out with
    monkeypatch.setattr(realizations, atom, short(getattr(realizations, atom)))
    clear_caches()
    with pytest.raises(PrecisionExceeded):
        CharacterTable(kind, prec=2).chi_plus("dydy")
    monkeypatch.undo()
    clear_caches()
    assert CharacterTable(kind, prec=2).chi_plus("dydy").valid_through == 2


@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_rows_factor_through_depth_one(kind):
    # CharacterTable's rows are placement sums of depth-one data, built as
    # each character's loop on its split atom: the character group is
    # abelian, so chi_minus = exp(-pi Z) and chi_plus = exp((1 - pi) Z) with
    # Z = log chi supported on depth one.  The Bogoliubov recursion builds
    # the same rows from the whole coproduct.
    # The legs that share a d (lambda = -1) add nothing to a value, but they
    # do reach these rows.
    prec = 2
    table = CharacterTable(kind, prec=prec)
    for w in admissible_words(8):
        if not w:
            continue
        bar = birkhoff._bar(kind, w, prec)
        engine = (-pole_part(bar), regular_part(bar), bar)
        rows = (table.chi_minus(w), table.chi_plus(w), table.chi_bar(w))
        assert [_shape(s) for s in rows] == [_shape(s) for s in engine], w


@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_rows_past_the_engine_are_the_birkhoff_split(kind):
    # the decomposition is unique: chi_minus polar, chi_plus pole-free and
    # chi_minus * chi = chi_plus pin the rows without the recursion
    prec, grade = 2, realizations._GRADINGS[kind]
    table = CharacterTable(kind, prec=prec)
    for k in [(2, 1, 3), (1,) * 6, (2, 2, 2, 2), (3, 3, 3), (6, 6), (1,) * 12]:
        w = indices_to_word(k)
        minus, plus = table.chi_minus(w), table.chi_plus(w)
        assert all(minus.coefficient(n) == 0 for n in range(prec + 1)), k
        assert all(plus.coefficient(n) == 0 for n in range(plus.ord, 0)), k
        if len(k) > 6:
            continue  # the full coproduct of dy^12 is too large to convolve
        wide = CharacterTable(kind, prec=prec + grade(w))
        lhs = star(wide.chi_minus, wide.chi, w, table.lam)
        assert lhs.valid_through == prec and equal_on_window(lhs, plus, 3), k


def test_no_row_or_value_reaches_the_recursion():
    clear_caches()
    for kind in ("phi", "psi"):
        for prec in (-2, 0, 3):
            table = CharacterTable(kind, prec=prec)
            for w in admissible_words(6):
                for name in ("chi_bar", "chi_minus", "chi_plus"):
                    getattr(table, name)(w)
    for w in admissible_words(6):
        if w:
            zeta_plus(word_to_indices(w))
            qzeta_plus(word_to_indices(w))
    assert _counterterm.cache_info().misses == 0


@st.composite
def _vectors(draw, max_weight=12, max_depth=4):
    """Index vectors of depth 2-max_depth whose word has weight <= max_weight."""
    n = draw(st.integers(min_value=2, max_value=max_depth))
    budget = max_weight - n
    k = []
    for _ in range(n):
        k.append(draw(st.integers(min_value=0, max_value=budget)))
        budget -= k[-1]
    return tuple(k)


@settings(max_examples=60, deadline=None)
@given(_vectors())
def test_three_routes_agree(k):
    value = zeta_plus(k).value
    assert qzeta_plus(k).value == value
    assert zeta_plus_via_primitives(k).value == value
    assert _zeta_plus_birkhoff(k).value == value


@settings(max_examples=60, deadline=None)
@given(_vectors(max_weight=40, max_depth=6))
def test_values_equal_the_split_atom_chain_on_random_vectors(k):
    assert zeta_plus(k).value == qzeta_plus(k).value == _split_atom_chain(k), k
