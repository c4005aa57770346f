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

Both characters are planned exactly.  An atom window through V holds V + 2
coefficients from z^{-1}, and series_diff and series_mul keep that length,
so a character's window ends at its order plus V + 1.  phi(w) has order
-wt(w), so phi(w, P) builds its atoms through V = P + wt(w) - 1; psi(w) has
order -dpt(w), so psi(w, P) needs V = P + dpt(w) - 1.  Either is valid
through exactly P; anything else is a PrecisionExceeded bug, not a retry.
phi and psi are memoized per (word, P), so both checks run once per entry.
phi recurses on suffixes, phi(d^k y w', P) = D^k[x * phi(w', P + k + 1)],
with the same V at every level, and reuses the memoized suffix; psi runs
the l-sum as a dynamic program over blocks with n * wt states instead of
the prod(k_j + 1) leaves of the sum as written.

t-side (one-variable polylogarithm realization): J divides the m-th
coefficient by m, delta multiplies by m, J o delta = delta o J = Id on power
series with no constant term; li_J iterates them from y(t) = t/(1-t) =
sum_{m>=1} t^m, li_nested is the brute-force nested sum oracle.

q-side: bivariate truncations of t*Q[[t, q]] with the dilation E_q
(t^a q^b -> t^a q^{a+b}), the difference D_q = Id - E_q, and its inverse
P_q (rowwise multiplication by 1/(1 - q^a)), a Rota-Baxter operator of
weight -1.  The modified q-values below have integer coefficients, and
qz_series and qz_rational compute them in ints throughout; mul_bivariate,
like the t-side product _ps_mul, convolves integer numerators over one
common denominator.  All of them return Fractions.  qz_series sums the
modified nested q-value

    sum_{m_1 > ... > m_n > 0} q^{m_1} (1-q^{m_1})^{k_1} ... (1-q^{m_n})^{k_n}

directly; qz_rational expands the closed form
sum_l prod_i [(-1)^{l_i+1} binom(k_i, l_i)] * prod_j q^{L_j}/(q^{L_j} - 1);
qchar_realization builds the same series as D_q^{k_1}[y * D_q^{k_2}[...]](t)
evaluated at t = q.

mero_depth1 / mero_depth2 are the closed-form continuation oracles
  zeta(-l) = -B_{l+1}/(l+1),
  zeta(-a, -b) = (1/2)(1 + delta_0(b)) B_{a+b+1}/(a+b+1)   (a+b odd).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

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
    constant,
    convolve,
    numerators_over_lcm,
    series_diff,
    series_mul,
    series_scale,
    series_sum,
    zero_series,
)
from .words import depth, is_admissible, memo, weight, word_to_indices

Fr = Fraction

__all__ = [
    "BivariateSeries",
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
    """f(level * z) with f(u) = sum_{m>=0} B_m/m! u^{m-1}; residue 1/level."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    coeffs = [
        bernoulli(m) * Fr(level) ** (m - 1) / factorial(m)
        for m in range(valid_through + 2)
    ]
    return LaurentSeries(-1, tuple(coeffs))


def x_series(valid_through: int) -> LaurentSeries:
    """x(z) = exp(z)/(1 - exp(z)) = -f(z)."""
    return series_scale(psi_factor(1, valid_through), -1)


def _exact(name: str, w: str, P: int, s: LaurentSeries) -> LaurentSeries:
    if s.valid_through != P:
        raise PrecisionExceeded(
            f"{name}({w!r}) came out valid through z^{s.valid_through}, "
            f"planned z^{P}"
        )
    return s


@memo
def phi(w: str, P: int) -> LaurentSeries:
    """The polylogarithm-limit character, valid through exactly z^P."""
    if not is_admissible(w):
        raise NotAdmissible(f"phi needs an admissible word, got {w!r}")
    wt = weight(w)
    if P < -wt:  # below the leading pole z^{-wt(w)}
        return zero_series(P)
    if w == "":
        return constant(1, P)
    # w = d^k y w': phi(w) = D^k[x * phi(w')], the suffix through P + k + 1
    k = w.index("y")
    acc = x_series(P + wt - 1)
    if k + 1 < wt:
        acc = series_mul(acc, phi(w[k + 1 :], P + k + 1))
    for _ in range(k):
        acc = series_diff(acc)
    return _exact("phi", w, P, acc)


@memo
def psi(w: str, P: int) -> LaurentSeries:
    """The modified q-value character at q = exp(z), valid through exactly z^P."""
    if not is_admissible(w):
        raise NotAdmissible(f"psi needs an admissible word, got {w!r}")
    n = depth(w)
    if P < -n:  # below the leading pole z^{-dpt(w)}
        return zero_series(P)
    if w == "":
        return constant(1, P)
    ks = word_to_indices(w)
    V = P + n - 1
    # DP over the blocks, last first.  F[s] is the l-sum over blocks j.. when
    # the l of the blocks before j add up to s; G[t] = f((t + 1) z) * (F of
    # block j + 1)[t] serves every l with s + l = t.
    F = None  # past the last block: the empty product 1
    for j in reversed(range(n)):
        k, S = ks[j], sum(ks[:j])
        G = [
            psi_factor(t + 1, V) if F is None else series_mul(psi_factor(t + 1, V), F[t])
            for t in range(S + k + 1)
        ]
        F = [
            series_sum(((-1) ** (l + 1) * comb(k, l), G[s + l]) for l in range(k + 1))
            for s in range(S + 1)
        ]
    return _exact("psi", w, P, F[0])


def psi_C(k: tuple[int, ...], m: tuple[int, ...]) -> Fraction:
    """Alternating-binomial constants C^k_m (independent psi oracle).

    C = sum over 0 <= l_j <= k_j of
        prod_i binom(k_i, l_i) (-1)^{l_i + 1} (l_1 + ... + l_i + 1)^{m_i - 1};
    m_i = 0 makes the power an honest rational 1/(l_1+...+l_i+1).
    """
    if len(k) != len(m):
        raise ValueError("index vectors k and m must have equal length")
    n = len(k)
    total = Fr(0)

    def descend(i: int, lsum: int, coeff: Fraction):
        nonlocal total
        if i == n:
            total += coeff
            return
        for l in range(k[i] + 1):
            L = lsum + l + 1
            c = coeff * comb(k[i], l) * (-1) ** (l + 1) * Fr(L) ** (m[i] - 1)
            descend(i + 1, lsum + l, c)

    descend(0, 0, Fr(1))
    return total


# ---------------------------------------------------------------------------
# t-side: power series in t, J and delta, polylogarithms
# ---------------------------------------------------------------------------
# A power series truncated at t^T is a tuple of T+1 Fractions (index = power).
# Products go through integer numerators over one common denominator.


def y_powerseries(T: int) -> tuple[Fraction, ...]:
    """y(t) = t/(1-t) = sum_{m>=1} t^m."""
    return (Fr(0),) + (Fr(1),) * T


def op_J(s: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Divide the m-th coefficient by m (weight-0 Rota-Baxter operator)."""
    if s[0] != 0:
        raise NonzeroConstantTerm("J needs a vanishing constant term")
    return (Fr(0),) + tuple(Fr(c) / m for m, c in enumerate(s[1:], start=1))


def op_delta(s: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Multiply the m-th coefficient by m (Euler derivation t d/dt)."""
    if s[0] != 0:
        raise NonzeroConstantTerm("delta needs a vanishing constant term")
    return (Fr(0),) + tuple(c * m for m, c in enumerate(s[1:], start=1))


def _ps_mul(a, b):
    n = len(a)
    na, da = numerators_over_lcm(a)
    nb, db = numerators_over_lcm(b)
    d = da * db
    return tuple(Fr(x, d) for x in convolve(na, nb, n))


def _check_truncation(k: tuple[int, ...], T: int) -> None:
    """The shared preconditions of the t- and q-side truncations below."""
    if not k:
        raise ValueError("index vector must have length >= 1")
    if T < 0:
        raise ValueError(f"truncation must be >= 0, got {T}")


def li_J(k: tuple[int, ...], T: int) -> tuple[Fraction, ...]:
    """One-variable polylogarithm at integer indices of any sign, to t^T.

    J^{k_1}[ y * J^{k_2}[ ... J^{k_n}[y] ] ] with J^{-m} = delta^m.
    """
    _check_truncation(k, T)
    y = y_powerseries(T)

    def power(s, e):
        op = op_J if e > 0 else op_delta
        for _ in range(abs(e)):
            s = op(s)
        return s

    acc = power(y, k[-1])
    for e in reversed(k[:-1]):
        acc = power(_ps_mul(y, acc), e)
    return acc


def li_nested(k: tuple[int, ...], T: int) -> tuple[Fraction, ...]:
    """Oracle: sum_{m_1 > ... > m_n > 0} t^{m_1} / prod m_i^{k_i}."""
    _check_truncation(k, T)
    n = len(k)
    layer = [Fr(0)] * (T + 1)  # layer[m] = inner sum with m_j = m
    for m in range(1, T + 1):
        layer[m] = Fr(1) / Fr(m) ** k[n - 1]
    for j in range(n - 2, -1, -1):
        partial = [Fr(0)] * (T + 1)
        run = Fr(0)
        for m in range(1, T + 1):
            partial[m] = run  # sum of layer over indices < m
            run += layer[m]
        layer = [
            Fr(0) if m == 0 else partial[m] / Fr(m) ** k[j] for m in range(T + 1)
        ]
    return tuple(layer)


# ---------------------------------------------------------------------------
# q-side: bivariate truncations of t Q[[t, q]]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivariateSeries:
    """Element of t*Q[[t, q]]: rows[a-1][b] = coefficient of t^a q^b."""

    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def t_truncation(self) -> int:
        return len(self.rows)

    @property
    def q_truncation(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else 0


def y_bivariate(A: int, Q: int) -> BivariateSeries:
    """y(t) = sum_{m=1}^{A} t^m (no q-dependence)."""
    row = (Fr(1),) + (Fr(0),) * Q
    return BivariateSeries(tuple(row for _ in range(A)))


def op_Eq(s: BivariateSeries) -> BivariateSeries:
    """Dilation t -> qt: shifts row a up by a powers of q."""
    Q = s.q_truncation
    rows = []
    for a, row in enumerate(s.rows, start=1):
        shifted = (Fr(0),) * min(a, Q + 1) + row[: max(Q + 1 - a, 0)]
        rows.append(shifted)
    return BivariateSeries(tuple(rows))


def op_Dq(s: BivariateSeries) -> BivariateSeries:
    """q-difference Id - E_q."""
    e = op_Eq(s)
    return BivariateSeries(
        tuple(
            tuple(c - ec for c, ec in zip(row, erow))
            for row, erow in zip(s.rows, e.rows)
        )
    )


def op_Pq(s: BivariateSeries) -> BivariateSeries:
    """Inverse of D_q: row a multiplies by 1/(1 - q^a) = sum_j q^{aj}."""
    Q = s.q_truncation
    rows = []
    for a, row in enumerate(s.rows, start=1):
        out = list(row)
        for b in range(a, Q + 1):
            out[b] += out[b - a]  # out, not row: accumulates all q^{aj}
        rows.append(tuple(out))
    return BivariateSeries(tuple(rows))


def _int_rows(s: BivariateSeries, A: int, Q: int) -> tuple[list[list[int]], int]:
    """Rows 1..A through q^Q as integer numerators over one denominator."""
    flat, den = numerators_over_lcm([c for row in s.rows[:A] for c in row[: Q + 1]])
    return [flat[i : i + Q + 1] for i in range(0, len(flat), Q + 1)], den


def mul_bivariate(s1: BivariateSeries, s2: BivariateSeries) -> BivariateSeries:
    A = min(s1.t_truncation, s2.t_truncation)
    Q = min(s1.q_truncation, s2.q_truncation)
    rows1, d1 = _int_rows(s1, A, Q)
    rows2, d2 = _int_rows(s2, A, Q)
    rows = [[0] * (Q + 1) for _ in range(A)]
    for a1 in range(1, A):  # a1 + a2 <= A with a2 >= 1
        r1 = rows1[a1 - 1]
        for a2 in range(1, A - a1 + 1):
            convolve(r1, rows2[a2 - 1], Q + 1, rows[a1 + a2 - 1])
    d = d1 * d2
    return BivariateSeries(tuple(tuple(Fr(x, d) for x in r) for r in rows))


def eval_t_eq_q(s: BivariateSeries) -> tuple[Fraction, ...]:
    """Substitute t = q; needs t-truncation >= q-truncation."""
    Q = s.q_truncation
    if s.t_truncation < Q:
        raise TruncationMismatch(
            f"t-truncation {s.t_truncation} < q-truncation {Q}"
        )
    out = [Fr(0)] * (Q + 1)
    for a, row in enumerate(s.rows, start=1):
        for b, c in enumerate(row):
            if c and a + b <= Q:
                out[a + b] += c
    return tuple(out)


def qchar_realization(k: tuple[int, ...], Q: int) -> tuple[Fraction, ...]:
    """D_q^{k_1}[ y * D_q^{k_2}[ ... ] ](t) at t = q, to q^Q."""
    _check_truncation(k, Q)
    y = y_bivariate(Q, Q)

    def dq_power(s, e):
        for _ in range(e):
            s = op_Dq(s)
        return s

    acc = dq_power(y, k[-1])
    for e in reversed(k[:-1]):
        acc = dq_power(mul_bivariate(y, acc), e)
    return eval_t_eq_q(acc)


def qz_series(k: tuple[int, ...], Q: int) -> tuple[Fraction, ...]:
    """Modified nested q-sum at arguments (-k_1, ..., -k_n), to q^Q.

    sum_{m_1 > ... > m_n > 0} q^{m_1} prod_i (1 - q^{m_i})^{k_i};
    only the outermost index carries the factor q^{m_1}.
    """
    _check_truncation(k, Q)
    n = len(k)

    def binom_poly(m: int, e: int) -> list[int]:
        # (1 - q^m)^e truncated at Q
        out = [0] * (Q + 1)
        for i in range(e + 1):
            if i * m > Q:
                break
            out[i * m] = comb(e, i) * (-1) ** i
        return out

    # layer[m] = sum over admissible (m_j, ..., m_n) with m_j = m
    layer = [binom_poly(m, k[n - 1]) if m else [0] * (Q + 1) for m in range(Q + 1)]
    for j in range(n - 2, -1, -1):
        partial = [[0] * (Q + 1) for _ in range(Q + 1)]
        run = [0] * (Q + 1)
        for m in range(1, Q + 1):
            partial[m] = run
            run = [x + y for x, y in zip(run, layer[m])]
        layer = [
            convolve(binom_poly(m, k[j]), partial[m], Q + 1) if m else [0] * (Q + 1)
            for m in range(Q + 1)
        ]
    total = [0] * (Q + 1)
    for m in range(1, Q + 1):
        row = layer[m]
        for b in range(Q + 1 - m):
            total[m + b] += row[b]  # the outer factor q^{m_1}
    return tuple(Fr(x) for x in total)


def qz_rational(k: tuple[int, ...], Q: int) -> tuple[Fraction, ...]:
    """Closed-form expansion of the same value, to q^Q.

    sum over 0 <= l_i <= k_i of prod_i [(-1)^{l_i+1} binom(k_i, l_i)]
    * prod_j q^{L_j}/(q^{L_j} - 1) with L_j = l_1 + ... + l_j + 1; each
    factor q^L/(q^L - 1) = -(q^L + q^{2L} + ...).
    """
    _check_truncation(k, Q)
    n = len(k)

    def geom_factor(L: int) -> list[int]:
        out = [0] * (Q + 1)
        for i in range(L, Q + 1, L):
            out[i] = -1
        return out

    total = [0] * (Q + 1)

    def descend(j: int, lsum: int, coeff: int, prod):
        if j == n:
            for i, c in enumerate(prod):
                total[i] += coeff * c
            return
        for l in range(k[j] + 1):
            c = coeff * comb(k[j], l) * (-1) ** (l + 1)
            factor = geom_factor(lsum + l + 1)
            nxt = factor if prod is None else convolve(prod, factor, Q + 1)
            descend(j + 1, lsum + l, c, nxt)

    descend(0, 0, 1, None)
    return tuple(Fr(x) for x in total)


# ---------------------------------------------------------------------------
# closed-form continuation oracles (depth 1 and 2)
# ---------------------------------------------------------------------------


def mero_depth1(k: int) -> Fraction:
    """zeta(-k) = -B_{k+1}/(k+1)."""
    if k < 0:
        raise ValueError("depth-1 oracle takes k >= 0")
    return -bernoulli(k + 1) / (k + 1)


def mero_depth2(a: int, b: int) -> Fraction:
    """zeta(-a, -b) = (1/2)(1 + delta_0(b)) B_{a+b+1}/(a+b+1), a+b odd."""
    if a < 0 or b < 0:
        raise ValueError("depth-2 oracle takes a, b >= 0")
    if (a + b) % 2 == 0:
        raise EvenWeight(f"(-{a}, -{b}) lies in the singular set (a+b even)")
    scale = Fr(1, 2) * (2 if b == 0 else 1)
    return scale * bernoulli(a + b + 1) / (a + b + 1)
