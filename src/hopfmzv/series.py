"""Truncated Laurent series over exact rationals, with validity windows.

A series is stored as integer numerators over one shared denominator, the
form of FLINT's fmpq_poly: (ord, nums, den) stands for

    sum_i  nums[i] / den * z**(ord + i),

with den > 0 and gcd(den, *nums) == 1, so the form is canonical and the
integers stay as small as the values allow.  Every operation works on the
integers and reduces once at the end; products are one integer convolution
(`convolve`) with a single denominator product instead of a Fraction
multiply-add per term.  The `coeffs` property and `coefficient` hand out
`Fraction`s, so callers see exact rationals as before.

Exponents below ord are known to vanish; exponents above

    valid_through = ord + len(nums) - 1

are *unknown*, and asking for one raises PrecisionExceeded instead of
returning a silently wrong zero.  Derivative chains eat one exponent of
validity per step and products intersect windows, so every operation here
computes the exact exponent range on which its output is trustworthy:

    add:  valid_through = min of the operands'
    mul:  ord = a.ord + b.ord,
          valid_through = min(a.valid_through + b.ord, b.valid_through + a.ord)
    diff: everything shifts down by one
    pad:  an exact polynomial (a counterterm) extends with zeros; never narrows

Negative ord houses pole terms; pole_part / regular_part split a series into
the two images of the complementary idempotent projectors used by the
Birkhoff decomposition (pole_part is a Rota-Baxter operator of weight -1 on
the window, which the test suite checks).

Equality is deliberately not structural: two series are compared on the
intersection of their validity windows, with a minimum overlap supplied by
the caller (equal_on_window).  Tests never compare unknown regions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PrecisionExceeded

Fr = Fraction

__all__ = [
    "LaurentSeries",
    "coefficient",
    "constant",
    "equal_on_window",
    "monomial",
    "pole_part",
    "regular_part",
    "series_add",
    "series_diff",
    "series_from_json",
    "series_mul",
    "series_pad",
    "series_scale",
    "series_slice",
    "series_sum",
    "series_to_json",
    "zero_series",
]


class LaurentSeries:
    """ord + exact coefficient window; immutable and safe to share.

    `LaurentSeries(ord, coeffs)` takes Fractions or ints; the stored form is
    `nums` (a tuple of ints) over the positive denominator `den`.
    """

    __slots__ = ("ord", "nums", "den")

    ord: int
    nums: tuple[int, ...]
    den: int

    def __new__(cls, ord: int, coeffs=()):
        # a value that is neither an int nor a Fraction goes through Fraction()
        fracs = [c if isinstance(c, (int, Fraction)) else Fr(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return _make(ord, [c.numerator * (den // c.denominator) for c in fracs], den)

    def __setattr__(self, name, value):
        raise AttributeError(f"LaurentSeries is immutable; cannot set {name!r}")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fr(x, den) for x in self.nums)

    @property
    def valid_through(self) -> int:
        return self.ord + len(self.nums) - 1

    def coefficient(self, n: int) -> Fraction:
        return coefficient(self, n)

    # -- convenience operator forms (the named functions below are the API) --
    def __add__(self, other):
        return series_add(self, other)

    def __sub__(self, other):
        return series_sum(((1, self), (-1, other)))

    def __neg__(self):
        return series_scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return series_mul(self, other)
        return series_scale(self, other)

    __rmul__ = __mul__

    def __reduce__(self):  # pickle and copy without __setattr__
        return _make, (self.ord, self.nums, self.den)

    def __repr__(self):
        return f"LaurentSeries(ord={self.ord}, coeffs={self.coeffs!r})"


def _make(ord_: int, nums, den: int) -> LaurentSeries:
    """The series nums/den at ord, reduced by gcd(den, *nums); den > 0."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    s = object.__new__(LaurentSeries)
    object.__setattr__(s, "ord", ord_)
    object.__setattr__(s, "nums", tuple(nums))
    object.__setattr__(s, "den", den)
    return s


def convolve(a, b, n, out=None):
    """First n coefficients of the Cauchy product of coefficient vectors.

    The entries are ints: a rational caller convolves numerators over a
    common denominator and divides once afterwards, as series_mul does.
    Zero entries are skipped (exact zeros are common in these series: odd
    Bernoulli tails, parity gaps).  The products are added into `out` when
    it is given (at least n int slots), else into a fresh list of zeros.
    """
    if out is None:
        out = [0] * n
    nonzero_b = [(j, bj) for j, bj in enumerate(b[:n]) if bj]
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        jmax = n - i
        for j, bj in nonzero_b:
            if j >= jmax:
                break
            out[i + j] += ai * bj
    return out


def zero_series(valid_through: int) -> LaurentSeries:
    """The zero series, known to vanish through the given exponent."""
    return _make(valid_through + 1, (), 1)


def monomial(exponent: int, coeff, valid_through: int) -> LaurentSeries:
    if valid_through < exponent:
        raise ValueError("window ends below the monomial's exponent")
    c = Fr(coeff)
    pad = valid_through - exponent
    return _make(exponent, (c.numerator,) + (0,) * pad, c.denominator)


def constant(value, valid_through: int) -> LaurentSeries:
    return monomial(0, value, valid_through)


def _num(a: LaurentSeries, n: int) -> int:
    """Numerator of z^n over a.den, assuming n <= a.valid_through."""
    if n < a.ord:
        return 0
    return a.nums[n - a.ord]


def coefficient(a: LaurentSeries, n: int) -> Fraction:
    """Coefficient of z^n; PrecisionExceeded beyond the validity horizon."""
    if n > a.valid_through:
        raise PrecisionExceeded(
            f"coefficient of z^{n} requested but series is only valid "
            f"through z^{a.valid_through}"
        )
    return Fr(_num(a, n), a.den)


def series_add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return series_sum(((1, a), (1, b)))


def series_sum(terms) -> LaurentSeries:
    """sum c * s over an iterable of (scalar c, series s) pairs, reduced once.

    As for add, the result starts at the lowest ord and is valid through the
    smallest valid_through; a zero c still narrows the window.  Raises
    ValueError on an empty iterable.

    Two passes.  The first reads every term's ord, window end and
    denominator, and fixes the result's ord, window end and denominator
    (the lcm) from them.  The second adds each c * s once into one vector
    of integer numerators of that fixed length, which is never negative:
    every window ends at or after its ord - 1.  No intermediate series is
    built.
    """
    plan = [(c if isinstance(c, (int, Fraction)) else Fr(c), s) for c, s in terms]
    if not plan:
        raise ValueError("series_sum of no terms")
    lo = min(s.ord for _, s in plan)
    vt = min(s.valid_through for _, s in plan)
    den = lcm(*(s.den * c.denominator for c, s in plan))
    out = [0] * (vt - lo + 1)
    for c, s in plan:
        f = den // (s.den * c.denominator) * c.numerator
        n = max(vt - s.ord + 1, 0)  # exponents s.ord..vt; none past the window
        for i, x in enumerate(s.nums[:n], s.ord - lo):
            if x:
                out[i] += x * f
    return _make(lo, out, den)  # vt == lo - 1 leaves the empty window at lo


def series_scale(a: LaurentSeries, c) -> LaurentSeries:
    c = Fr(c)
    if c == 0:
        return _make(a.ord, (0,) * len(a.nums), 1)
    p = c.numerator
    return _make(a.ord, [x * p for x in a.nums], a.den * c.denominator)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    ord_ = a.ord + b.ord
    vt = min(a.valid_through + b.ord, b.valid_through + a.ord)
    n = vt - ord_ + 1
    if n <= 0:
        return _make(vt + 1, (), 1)
    return _make(ord_, convolve(a.nums, b.nums, n), a.den * b.den)


def series_diff(a: LaurentSeries) -> LaurentSeries:
    """Termwise d/dz; costs one exponent of validity."""
    return _make(
        a.ord - 1, [(a.ord + i) * x for i, x in enumerate(a.nums)], a.den
    )


def pole_part(a: LaurentSeries) -> LaurentSeries:
    """Strictly negative exponents of a; idempotent."""
    k = min(max(-a.ord, 0), len(a.nums))  # entries with exponent < 0
    return _make(a.ord, a.nums[:k] + (0,) * (len(a.nums) - k), a.den)


def regular_part(a: LaurentSeries) -> LaurentSeries:
    """a - pole_part(a): exponents >= 0 only."""
    k = min(max(-a.ord, 0), len(a.nums))
    return _make(a.ord, (0,) * k + a.nums[k:], a.den)


def series_slice(a: LaurentSeries, valid_through: int) -> LaurentSeries:
    """Shrink the window (never widens); used for deterministic printing."""
    if valid_through > a.valid_through:
        raise PrecisionExceeded(
            f"cannot widen window to z^{valid_through}; series valid "
            f"through z^{a.valid_through}"
        )
    if valid_through < a.ord:
        return _make(valid_through + 1, (), 1)
    return _make(a.ord, a.nums[: valid_through - a.ord + 1], a.den)


def series_pad(a: LaurentSeries, valid_through: int) -> LaurentSeries:
    """An exact polynomial a, read through at least z^valid_through.

    The exponents past a's window are zeros, which only an exact polynomial
    (a counterterm, a sum of them) may claim.  A smaller window leaves a as
    it is: sliced below its ord, a would lose its ord, and a product with it
    would lose window.
    """
    pad = valid_through - a.valid_through
    return _make(a.ord, a.nums + (0,) * pad, a.den) if pad > 0 else a


def equal_on_window(a: LaurentSeries, b: LaurentSeries, min_overlap: int = 1) -> bool:
    """Compare all coefficients on the intersection of validity windows.

    The window is [min(ords), min(valid_throughs)] — exponents below either
    ord are known zeros, so everything in that range is known for both sides.
    If the window holds fewer than min_overlap exponents the comparison would
    be vacuous, which is reported as PrecisionExceeded rather than True.
    """
    hi = min(a.valid_through, b.valid_through)
    lo = min(a.ord, b.ord)
    if hi - lo + 1 < min_overlap:
        raise PrecisionExceeded(
            f"only {max(hi - lo + 1, 0)} comparable exponents, "
            f"{min_overlap} required"
        )
    return all(
        _num(a, n) * b.den == _num(b, n) * a.den for n in range(lo, hi + 1)
    )


# ---------------------------------------------------------------------------
# JSON form: {"ord": int, "valid_through": int, "coeffs": ["p/q", ...]}
# ---------------------------------------------------------------------------


def series_to_json(a: LaurentSeries) -> dict:
    return {
        "ord": a.ord,
        "valid_through": a.valid_through,
        "coeffs": [str(c) for c in a.coeffs],
    }


def series_from_json(obj: dict) -> LaurentSeries:
    coeffs = tuple(Fr(c) for c in obj["coeffs"])
    s = LaurentSeries(int(obj["ord"]), coeffs)
    if s.valid_through != int(obj["valid_through"]):
        raise ValueError(
            "inconsistent series JSON: valid_through must equal "
            "ord + len(coeffs) - 1"
        )
    return s
