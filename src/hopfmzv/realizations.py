"""Character realizations and the operator laboratory behind them.

z-side characters (exact Laurent series in the regulator z):

  phi(d^{k_1}y ... d^{k_n}y) = D^{k_1}[ x * D^{k_2}[ x * ... * D^{k_n}[x] ] ]
  with D = d/dz and the atom x(z) = exp(z)/(1 - exp(z)), whose expansion is
  -(1/z + sum_{n>=0} B_{n+1}/(n+1)! z^n) in the B(1) = +1/2 convention.

  psi(d^{k_1}y ... d^{k_n}y) =
      sum over 0 <= l_j <= k_j of  prod_j (-1)^{l_j+1} binom(k_j, l_j)
                                   * prod_j f(L_j z),  L_j = l_1+...+l_j+1,
  with the atom f(u) = exp(u)/(exp(u) - 1) = sum_{m>=0} B_m/m! u^{m-1};
  f(L z) has residue 1/L at z = 0.  psi is the z-realization of the modified
  q-sums below after q = exp(z).  psi_C is the independent low-order oracle:
  the same double sum reorganized through the finite alternating-binomial
  constants C, with psi(w) = sum_m prod_i B_{m_i}/m_i! * C * z^{sum(m) - n}.

Both characters, and the Birkhoff rows, come from one builder, _build.  An
atom window through V holds V + 2 coefficients from z^{-1}, and series_diff
and series_mul keep that length, so a character's window ends at its order
plus V + 1.  A kind's order is -g(w), g its grading (_GRADINGS: weight for
phi, depth for psi), so _build(kind, w, P) builds the atoms through
V = P + g(w) - 1 and the result is valid through exactly P; anything else
is a PrecisionExceeded bug, not a retry.  phi runs the chain loop, _chain,
innermost block first, with the atom x through V at every level; psi runs
the l-sum, _lsum, a dynamic program over the blocks with n * wt states
instead of the prod(k_j + 1) leaves of the sum as written, each state an
atom times a series by series_mul.  Given a part (the pole or regular
part), _build runs the same loop on the split atoms: those are the Birkhoff
rows.  phi and psi are memoized per (word, P), so the checks run once per
entry.  qchar_realization reuses _chain on the q-side operators, and
qz_rational reuses _lsum on the q-side atom.

t-side (one-variable polylogarithm realization): a truncation through t^T
is a LaurentSeries at ord 0, valid through t^T.  J divides the m-th
coefficient by m, delta multiplies it by m, J o delta = delta o J = Id on
series with no constant term; each is one pass over the integer numerators,
J over the extra denominator L = lcm(1..T).  li_J composes op_J, op_delta
and the product by y(t) = t/(1-t) = sum_{m>=1} t^m, which is a running sum
(_times_y), O(T) where series_mul is O(T^2); li_nested is the brute-force
nested sum oracle, counted in ints over a power of L.

q-side: bivariate truncations of t*Z[[t, q]] with the dilation E_q
(t^a q^b -> t^a q^{a+b}), the difference D_q = Id - E_q, and its inverse
P_q (rowwise multiplication by 1/(1 - q^a)), a Rota-Baxter operator of
weight -1.  These, the product and t = q keep integer coefficients, so the
modified q-values below are integer series.
qz_series sums the modified nested q-value

    sum_{m_1 > ... > m_n > 0} q^{m_1} (1-q^{m_1})^{k_1} ... (1-q^{m_n})^{k_n}

directly; qz_rational is psi's l-sum with the atom q^L/(q^L - 1) =
-(q^L + q^{2L} + ...) in place of f(L z), the same formula read on the
other side of q = exp(z), and multiplies by that atom as the O(Q) running
sum h[i] = h[i - L] - s[i - L] (_times_qatom); qchar_realization builds the
same series as D_q^{k_1}[y * D_q^{k_2}[...]](t) evaluated at t = q, from
the public operators, with y * rows the running sum of rows
(_times_y_rows), since y has no q-dependence.  series_mul and mul_bivariate
stay the generic products and the reference for the three running sums,
which the operator-identity checks compare with them.

Both sides count in ints.  The q-side is int rows end to end: each of E_q,
D_q, P_q, the product and t = q is one function on a tuple of int rows.  The
t-side values are rational, held as integer numerators over one denominator
in the same LaurentSeries as the z-side, whose general product series_mul
serves both.

mero_depth1 / mero_depth2 are the closed-form continuation oracles
  zeta(-l) = -B_{l+1}/(l+1),
  zeta(-a, -b) = (1/2)(1 + delta_0(b)) B_{a+b+1}/(a+b+1)   (a+b odd).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm

from .bernoulli import bernoulli
from .errors import (
    EvenWeight,
    NonzeroConstantTerm,
    NotAdmissible,
    PrecisionExceeded,
    TruncationMismatch,
)
from .series import (
    LaurentSeries,
    _make,
    constant,
    convolve,
    series_diff,
    series_mul,
    series_scale,
    series_sum,
    zero_series,
)
from .words import depth, indices_to_word, is_admissible, memo, weight, word_to_indices

Fr = Fraction

__all__ = [
    "eval_t_eq_q",
    "li_J",
    "li_nested",
    "mero_depth1",
    "mero_depth2",
    "mul_bivariate",
    "op_Dq",
    "op_Eq",
    "op_J",
    "op_Pq",
    "op_delta",
    "phi",
    "psi",
    "psi_C",
    "psi_factor",
    "qchar_realization",
    "qz_rational",
    "qz_series",
    "x_series",
    "y_bivariate",
    "y_powerseries",
]


# ---------------------------------------------------------------------------
# z-side atoms and characters
# ---------------------------------------------------------------------------


@memo
def psi_factor(level: int, valid_through: int) -> LaurentSeries:
    """f(L z), L = level, with f(u) = sum_{m>=0} B_m/m! u^{m-1}; residue 1/L.

    L f(L z) = sum_m B_m/m! L^m z^m, so the numerators b_m (V+1)!/m! L^m
    over D (V+1)! L, with b_m = D B_m, come from running products in ints.
    """
    try:
        L = operator.index(level)
    except TypeError:
        L = 0
    if L < 1:
        raise ValueError("level must be a positive integer")
    bs = [bernoulli(m) for m in range(valid_through + 2)]  # B_0 .. B_{V+1}: z^-1 .. z^V
    D = lcm(*(B.denominator for B in bs))
    F = factorial(max(len(bs) - 1, 0))  # (V+1)!
    nums, f, p = [], F, 1
    for m, B in enumerate(bs):  # f = (V+1)!/m!, p = L^m
        nums.append(B.numerator * (D // B.denominator) * f * p)
        f, p = f // (m + 1), p * L
    return _make(-1, nums, D * F * L)


def x_series(valid_through: int) -> LaurentSeries:
    """x(z) = exp(z)/(1 - exp(z)) = -f(z)."""
    return series_scale(psi_factor(1, valid_through), -1)


# kind -> the grading additive across the kind's coproduct: chi's pole order
_GRADINGS = {"phi": weight, "psi": depth}


def _build(kind: str, w: str, P: int, part=None) -> LaurentSeries:
    """The kind's character at w, valid through exactly z^P: phi's chain on x
    or psi's l-sum on f(L z), the atoms through V = P + g(w) - 1; with a part
    (the pole or regular part), the same loop on part(atom)."""
    if not is_admissible(w):
        raise NotAdmissible(f"{kind} needs an admissible word, got {w!r}")
    try:
        P = operator.index(P)  # no float, str or Fraction
    except TypeError:
        raise ValueError(f"{kind} needs an integer precision, not {P!r}") from None
    g = _GRADINGS[kind](w)
    if P < -g:  # below the leading pole z^{-g(w)}
        return zero_series(P)
    if w == "":
        return constant(1, P)
    ks, V, part = word_to_indices(w), P + g - 1, part or (lambda s: s)
    if kind == "phi":
        s = _chain(ks, part(x_series(V)), series_mul, series_diff)
    else:  # the l-sum reads f(L z) at L = 1 .. |k| + 1: each built once
        atoms = {L: part(psi_factor(L, V)) for L in range(1, sum(ks) + 2)}
        s = _lsum(ks, atoms.__getitem__, lambda L, f: series_mul(atoms[L], f))
    if s.valid_through != P:
        raise PrecisionExceeded(
            f"{kind}({w!r}) came out valid through z^{s.valid_through}, planned z^{P}"
        )
    return s


@memo
def phi(w: str, P: int) -> LaurentSeries:
    """The polylogarithm-limit character, valid through exactly z^P."""
    return _build("phi", w, P)


@memo
def psi(w: str, P: int) -> LaurentSeries:
    """The modified q-value character at q = exp(z), valid through exactly z^P."""
    return _build("psi", w, P)


def _chain(ks: tuple[int, ...], atom, mul, d):
    """d^{k_1}[atom * d^{k_2}[atom * ... d^{k_n}[atom]]], innermost block
    first, * being mul: phi's chain with D = d/dz, and the q-side's with D_q.
    """
    acc = None
    for k in reversed(ks):
        acc = atom if acc is None else mul(atom, acc)
        for _ in range(k):
            acc = d(acc)
    return acc


def _lsum(ks: tuple[int, ...], atom, times) -> LaurentSeries:
    """psi's l-sum with atom(L) in place of f(L z), as a dynamic program
    over the blocks, last first.  F[s] is the l-sum over blocks j.. when the
    l of the blocks before j add up to s; G[t] = atom(t + 1) * (F of block
    j + 1)[t] serves every l with s + l = t, that product being
    times(t + 1, F[t]).
    """
    F = None  # past the last block: the empty product 1
    for j in reversed(range(len(ks))):
        k, S = ks[j], sum(ks[:j])
        G = [
            atom(t + 1) if F is None else times(t + 1, F[t])
            for t in range(S + k + 1)
        ]
        F = [
            series_sum(((-1) ** (l + 1) * comb(k, l), G[s + l]) for l in range(k + 1))
            for s in range(S + 1)
        ]
    return F[0]


def psi_C(k: tuple[int, ...], m: tuple[int, ...]) -> Fraction:
    """Alternating-binomial constants C^k_m (independent psi oracle).

    C = sum over 0 <= l_j <= k_j of
        prod_i binom(k_i, l_i) (-1)^{l_i + 1} (l_1 + ... + l_i + 1)^{m_i - 1};
    m_i = 0 makes the power an honest rational 1/(l_1+...+l_i+1).  Each term
    is an integer numerator over the product of those L_i; the numerators
    are summed per denominator, and one Fraction is built at the end.
    """
    if len(k) != len(m):
        raise ValueError("index vectors k and m must have equal length")
    n = len(k)
    sums: dict = {}  # denominator -> sum of numerators
    exps = [(max(mi - 1, 0), max(1 - mi, 0)) for mi in m]  # L^{m_i - 1} = L^up / L^down

    def descend(i: int, lsum: int, num: int, den: int):
        if i == n:
            sums[den] = sums.get(den, 0) + num
            return
        up, down = exps[i]
        for l in range(k[i] + 1):
            L = lsum + l + 1
            c = num * comb(k[i], l) * (-1) ** (l + 1)
            descend(i + 1, lsum + l, c * L**up, den * L**down)

    descend(0, 0, 1, 1)
    D = lcm(*sums)
    return Fr(sum(num * (D // den) for den, num in sums.items()), D)


# ---------------------------------------------------------------------------
# t-side: power series in t, J and delta, polylogarithms
# ---------------------------------------------------------------------------
# A power series truncated at t^T is a LaurentSeries at ord 0, valid through
# t^T.


def y_powerseries(T: int) -> LaurentSeries:
    """y(t) = t/(1-t) = sum_{m>=1} t^m."""
    return _make(0, (0,) + (1,) * T, 1)


def _times_y(s: LaurentSeries) -> LaurentSeries:
    """y * s for s at ord 0 through t^T: the running sum [0, s_0, s_0 + s_1,
    ...] over s.den, equal to series_mul(y_powerseries(T), s)."""
    return _make(0, list(accumulate(s.nums[:-1], initial=0)), s.den)


def _operand(op: str, s: LaurentSeries) -> None:
    """J and delta act on t-side series with a vanishing constant term."""
    if s.ord != 0:
        raise ValueError(f"{op} takes a series at ord 0, got ord {s.ord}")
    if s.nums and s.nums[0]:
        raise NonzeroConstantTerm(f"{op} needs a vanishing constant term")


def op_J(s: LaurentSeries) -> LaurentSeries:
    """Divide the m-th coefficient by m (weight-0 Rota-Baxter operator).

    With L = lcm(1..T), the numerator of t^m is multiplied by L/m and the
    denominator by L.
    """
    _operand("J", s)
    L = lcm(*range(1, s.valid_through + 1))
    return _make(0, [x * (L // m) if m else 0 for m, x in enumerate(s.nums)], s.den * L)


def op_delta(s: LaurentSeries) -> LaurentSeries:
    """Multiply the m-th coefficient by m (Euler derivation t d/dt)."""
    _operand("delta", s)
    return _make(0, [m * x for m, x in enumerate(s.nums)], s.den)


def _check_truncation(k: tuple[int, ...], T: int) -> None:
    """The shared preconditions of the t- and q-side truncations below: the
    entries of k and T are integers (operator.index: no float, str or
    Fraction), k is nonempty and T >= 0."""
    try:
        for x in (*k, T):
            operator.index(x)
    except TypeError:
        raise ValueError(
            f"index entries and truncation must be integers: k={k!r}, T={T!r}"
        ) from None
    if not k:
        raise ValueError("index vector must have length >= 1")
    if T < 0:
        raise ValueError(f"truncation must be >= 0, got {T}")


def li_J(k: tuple[int, ...], T: int) -> LaurentSeries:
    """One-variable polylogarithm at integer indices of any sign, to t^T.

    J^{k_1}[ y * J^{k_2}[ ... J^{k_n}[y] ] ] with J^{-m} = delta^m.
    """
    _check_truncation(k, T)
    acc = None
    for e in reversed(k):
        acc = y_powerseries(T) if acc is None else _times_y(acc)
        for _ in range(abs(e)):
            acc = op_J(acc) if e > 0 else op_delta(acc)
    return acc


def li_nested(k: tuple[int, ...], T: int) -> LaurentSeries:
    """Oracle: sum_{m_1 > ... > m_n > 0} t^{m_1} / prod m_i^{k_i}.

    Counted in ints over L^{sum of the positive k_i}, L = lcm(1..T), as
    1/m^e = (L/m)^e / L^e.
    """
    _check_truncation(k, T)
    L = lcm(*range(1, T + 1))
    layer, den = [1] + [0] * T, 1  # the empty tail, at m_{n+1} = 0
    for e in reversed(k):
        below = list(accumulate(layer[:-1], initial=0))  # below[m] = sum(layer[:m])
        layer = [0] + [
            below[m] * ((L // m) ** e if e > 0 else m**-e) for m in range(1, T + 1)
        ]
        den *= L ** max(e, 0)
    return _make(0, layer, den)


# ---------------------------------------------------------------------------
# q-side: bivariate truncations of t Z[[t, q]]
# ---------------------------------------------------------------------------
# A truncation through t^A and q^Q is a tuple of A int rows of Q + 1 each:
# rows[a-1][b] = coefficient of t^a q^b.  Its t-truncation is len(rows), its
# q-truncation len(rows[0]) - 1, or 0 when there are no rows.

_Rows = tuple[tuple[int, ...], ...]


def y_bivariate(A: int, Q: int) -> _Rows:
    """y(t) = sum_{m=1}^{A} t^m (no q-dependence)."""
    return ((1,) + (0,) * Q,) * A


def _times_y_rows(rows: _Rows) -> _Rows:
    """y * rows: y has no q-dependence, so row a is the sum of rows
    1 .. a - 1, equal to mul_bivariate(y_bivariate(A, Q), rows)."""
    out, run = [], (0,) * (len(rows[0]) if rows else 0)
    for row in rows:
        out.append(run)
        run = tuple(map(operator.add, run, row))
    return tuple(out)


def op_Eq(rows: _Rows) -> _Rows:
    """Dilation t -> qt: shifts row a up by a powers of q."""
    return tuple(((0,) * a + row)[: len(row)] for a, row in enumerate(rows, start=1))


def op_Dq(rows: _Rows) -> _Rows:
    """q-difference Id - E_q."""
    return tuple(
        tuple(c - e for c, e in zip(row, (0,) * a + row))
        for a, row in enumerate(rows, start=1)
    )


def op_Pq(rows: _Rows) -> _Rows:
    """Inverse of D_q: row a multiplies by 1/(1 - q^a) = sum_j q^{aj}."""
    rows = [list(row) for row in rows]
    for a, row in enumerate(rows, start=1):
        for b in range(a, len(row)):
            row[b] += row[b - a]  # the updated row: accumulates all q^{aj}
    return tuple(map(tuple, rows))


def mul_bivariate(s1: _Rows, s2: _Rows) -> _Rows:
    A = min(len(s1), len(s2))
    Q = min(len(s[0]) - 1 if s else 0 for s in (s1, s2))
    rows = [[0] * (Q + 1) for _ in range(A)]
    for a1 in range(1, A):  # a1 + a2 <= A with a2 >= 1
        r1 = s1[a1 - 1]
        for a2 in range(1, A - a1 + 1):
            convolve(r1, s2[a2 - 1], Q + 1, rows[a1 + a2 - 1])
    return tuple(map(tuple, rows))


def eval_t_eq_q(rows: _Rows) -> tuple[int, ...]:
    """Substitute t = q; needs t-truncation >= q-truncation."""
    A, Q = len(rows), (len(rows[0]) - 1 if rows else 0)
    if A < Q:
        raise TruncationMismatch(f"t-truncation {A} < q-truncation {Q}")
    out = [0] * (Q + 1)
    for a, row in enumerate(rows[:Q], start=1):
        for b, c in enumerate(row[: Q + 1 - a]):
            out[a + b] += c
    return tuple(out)


def qchar_realization(k: tuple[int, ...], Q: int) -> tuple[int, ...]:
    """D_q^{k_1}[ y * D_q^{k_2}[ ... ] ](t) at t = q, to q^Q."""
    k = word_to_indices(indices_to_word(k))  # k_i >= 0: arguments -k_i
    _check_truncation(k, Q)
    times = lambda y, rows: _times_y_rows(rows)  # noqa: E731
    return eval_t_eq_q(_chain(k, y_bivariate(Q, Q), times, op_Dq))


def qz_series(k: tuple[int, ...], Q: int) -> tuple[int, ...]:
    """Modified nested q-sum at arguments (-k_1, ..., -k_n), to q^Q.

    sum_{m_1 > ... > m_n > 0} q^{m_1} prod_i (1 - q^{m_i})^{k_i};
    only the outermost index carries the factor q^{m_1}.
    """
    k = word_to_indices(indices_to_word(k))  # k_i >= 0: arguments -k_i
    _check_truncation(k, Q)

    def times_binom(m: int, e: int, run: list[int]) -> list[int]:
        # (1 - q^m)^e * run, as long as run: one shifted add per nonzero term
        out = list(run)
        for i in range(1, min(e, (len(run) - 1) // m) + 1):
            c, s = comb(e, i) * (-1) ** i, i * m
            out[s:] = [x + c * y for x, y in zip(out[s:], run)]
        return out

    # layer[m] = sum over admissible (m_j, ..., m_n) with m_j = m, through
    # q^(Q - m) only: the outer factor q^{m_1}, or an outer index above m,
    # shifts it up by at least m
    layer = [[]] + [times_binom(m, k[-1], [1] + [0] * (Q - m)) for m in range(1, Q + 1)]
    for e in reversed(k[:-1]):
        below, run = layer, [0] * Q  # run = sum(below[1:m]), through q^(Q - m)
        layer = [[]]
        for m in range(1, Q + 1):
            layer.append(times_binom(m, e, run))
            run = [x + y for x, y in zip(run, below[m][: Q - m])]
    total = [0] * (Q + 1)
    for m in range(1, Q + 1):
        total[m:] = map(operator.add, total[m:], layer[m])  # the outer q^{m_1}
    return tuple(total)


def qz_rational(k: tuple[int, ...], Q: int) -> tuple[int, ...]:
    """Closed-form expansion of the same value, to q^Q: psi's l-sum with the
    atom q^L/(q^L - 1) = -(q^L + q^{2L} + ...) in place of f(L z).

    Every atom is an integer series over denominator 1, so the l-sum's
    numerators are the coefficients.
    """
    k = word_to_indices(indices_to_word(k))  # k_i >= 0: arguments -k_i
    _check_truncation(k, Q)

    def atom(L: int) -> LaurentSeries:
        nums = [0] * (Q + 1)
        nums[L::L] = [-1] * (Q // L)
        return _make(0, nums, 1)

    return _lsum(k, atom, _times_qatom).nums


def _times_qatom(L: int, s: LaurentSeries) -> LaurentSeries:
    """q^L/(q^L - 1) * s for s at ord 0: h[i] = h[i - L] - s[i - L], equal
    to series_mul with qz_rational's atom through s's window."""
    h = [0] * len(s.nums)
    for i in range(L, len(h)):
        h[i] = h[i - L] - s.nums[i - L]
    return _make(0, h, s.den)


# ---------------------------------------------------------------------------
# closed-form continuation oracles (depth 1 and 2)
# ---------------------------------------------------------------------------


def mero_depth1(k: int) -> Fraction:
    """zeta(-k) = -B_{k+1}/(k+1)."""
    try:
        k = operator.index(k)
    except TypeError:
        k = -1  # no float, str or Fraction
    if k < 0:
        raise ValueError("depth-1 oracle takes an integer k >= 0")
    B = bernoulli(k + 1)
    return Fraction(-B.numerator, B.denominator * (k + 1))


def mero_depth2(a: int, b: int) -> Fraction:
    """zeta(-a, -b) = (1/2)(1 + delta_0(b)) B_{a+b+1}/(a+b+1), a+b odd."""
    a, b = word_to_indices(indices_to_word((a, b)))  # integers a, b >= 0
    if (a + b) % 2 == 0:
        raise EvenWeight(f"(-{a}, -{b}) lies in the singular set (a+b even)")
    scale = Fr(1, 2) * (2 if b == 0 else 1)
    return scale * bernoulli(a + b + 1) / (a + b + 1)
