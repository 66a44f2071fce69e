"""Exact truncated power series and Laurent polynomial arithmetic.

PowerSeries is the exact workhorse for all generating-function
computations.  Its coefficients stay Python ints as long as the inputs
are ints and every division is by a series with constant term +-1; a
Fraction appears only when a caller passes one in or a division really
needs it.  Products and quotients take one C-level dot product per output
coefficient.  FloatSeries is its float64 twin for orders where exact
arithmetic is unaffordable; it exists for large-order convergence studies
and is never used by exact oracles.  LaurentPoly and BivariateSeries add
the label variable x for the profile-correlation series.

All values are immutable after construction and every operation is a pure
function, so values are safe to share across threads.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

import numpy as np

Number = Union[int, Fraction]


def _exact(xs: list) -> list:
    """xs itself, after checking that every entry is an int or a Fraction."""
    for x in xs:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact coefficient must be int or Fraction, got {type(x).__name__}")
    return xs


class PowerSeries:
    """Truncated power series in t with exact int or Fraction coefficients.

    Ring operations are exact modulo t^(N+1); mixed-order operands resolve
    to the minimum order so precision is never silently overstated.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Number], order: int | None = None):
        cs = _exact(list(coeffs))
        if order is None:
            if not cs:
                raise ValueError("order is required with an empty coefficient list")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs[: order + 1])

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([], order=order) if order >= 0 else cls([0])

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order=order)

    @classmethod
    def monomial(cls, c: Number, k: int, order: int) -> "PowerSeries":
        if k < 0:
            raise ValueError("monomial exponent must be non-negative")
        cs = [0] * (order + 1)
        if k <= order:
            cs[k] = c
        return cls(cs, order=order)

    def coeff(self, n: int) -> int | Fraction:
        """Coefficient of t^n; raises IndexError beyond the truncation order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1], order=order)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by t^k, keeping the truncation order."""
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if k == 0:
            return self
        cs = (0,) * k + self.coeffs[: self.order + 1 - k]
        return PowerSeries(cs, order=self.order)

    def t_ddt(self) -> "PowerSeries":
        return PowerSeries([n * c for n, c in enumerate(self.coeffs)], order=self.order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], order=n)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], order=n)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs], order=self.order)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            a = self.coeffs[: n + 1]
            rb = other.coeffs[n::-1]  # rb[n - j] == b[j]
            return PowerSeries(
                [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)], order=n
            )
        if isinstance(other, (int, Fraction)):
            return PowerSeries([other * x for x in self.coeffs], order=self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return self * Fraction(1, other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        vb = other.valuation()
        if vb is None:
            raise ZeroDivisionError("division by the zero series")
        a, b = self.coeffs, other.coeffs
        if vb > 0:
            va = self.valuation()
            if va is not None and va < vb:
                raise ZeroDivisionError(
                    f"division impossible: numerator valuation {va} below denominator valuation {vb}"
                )
            a = a[vb : n + 1]
            b = b[vb : n + 1]
            n -= vb
        b0 = b[0]
        # A unit constant term keeps int numerators in Z.
        unit = b0 == 1 or b0 == -1
        rb = b[n:0:-1]  # rb[n - j] == b[j] for j >= 1
        q: list[Number] = []
        for i in range(n + 1):
            acc = a[i] - sum(map(mul, q, rb[n - i :]))
            q.append(acc * b0 if unit else Fraction(acc, b0))
        return PowerSeries(q, order=n)

    def is_zero(self) -> bool:
        return self.valuation() is None

    def __eq__(self, other):
        return (
            isinstance(other, PowerSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(6, self.order + 1)])
        tail = ", ..." if self.order > 5 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


class FloatSeries:
    """float64 twin of PowerSeries with the same truncation semantics."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if order is None:
            if arr.size == 0:
                raise ValueError("order is required with an empty coefficient list")
            order = arr.size - 1
        if arr.size < order + 1:
            arr = np.concatenate([arr, np.zeros(order + 1 - arr.size)])
        arr = arr[: order + 1].copy()
        arr.setflags(write=False)
        self.order = order
        self.coeffs = arr

    @classmethod
    def zero(cls, order: int) -> "FloatSeries":
        return cls(np.zeros(order + 1))

    @classmethod
    def one(cls, order: int) -> "FloatSeries":
        a = np.zeros(order + 1)
        a[0] = 1.0
        return cls(a)

    def coeff(self, n: int) -> float:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return float(self.coeffs[n])

    def shift(self, k: int) -> "FloatSeries":
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if k == 0:
            return self
        out = np.zeros(self.order + 1)
        out[k:] = self.coeffs[: self.order + 1 - k]
        return FloatSeries(out)

    def t_ddt(self) -> "FloatSeries":
        return FloatSeries(self.coeffs * np.arange(self.order + 1))

    def __add__(self, other):
        if not isinstance(other, FloatSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return FloatSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def __sub__(self, other):
        if not isinstance(other, FloatSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return FloatSeries(self.coeffs[: n + 1] - other.coeffs[: n + 1])

    def __neg__(self):
        return FloatSeries(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, FloatSeries):
            n = min(self.order, other.order)
            full = np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])
            return FloatSeries(full[: n + 1])
        if isinstance(other, (int, float, Fraction)):
            return FloatSeries(self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return FloatSeries(self.coeffs / float(other))
        if not isinstance(other, FloatSeries):
            return NotImplemented
        n = min(self.order, other.order)
        b = other.coeffs[: n + 1]
        if b[0] == 0.0:
            raise ZeroDivisionError("float series division needs a nonzero constant term")
        a = self.coeffs[: n + 1]
        q = np.empty(n + 1)
        q[0] = a[0] / b[0]
        for i in range(1, n + 1):
            q[i] = (a[i] - np.dot(b[1 : i + 1], q[i - 1 :: -1])) / b[0]
        return FloatSeries(q)

    def __repr__(self):
        return f"FloatSeries(order={self.order})"


class LaurentPoly:
    """Exact Laurent polynomial in x, trimmed at both ends.

    Coefficients are ints or Fractions; the zero polynomial is stored as an
    empty coefficient tuple with min exponent 0.
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, coeffs: Iterable[Number], lo: int = 0):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("Laurent coefficients must be int or Fraction")
        start = 0
        while start < len(cs) and not cs[start]:
            start += 1
        end = len(cs)
        while end > start and not cs[end - 1]:
            end -= 1
        if start == end:
            self.lo = 0
            self.coeffs = ()
        else:
            self.lo = lo + start
            self.coeffs = tuple(cs[start:end])

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls([])

    @classmethod
    def const(cls, c: Number) -> "LaurentPoly":
        return cls([c])

    @classmethod
    def x_power(cls, k: int, c: Number = 1) -> "LaurentPoly":
        return cls([c], lo=k)

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> Number:
        """Coefficient of x^j (0 outside the stored range)."""
        if not self.coeffs or j < self.lo or j > self.hi:
            return 0
        return self.coeffs[j - self.lo]

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.lo - lo + i] = c
        for i, c in enumerate(other.coeffs):
            out[other.lo - lo + i] += c
        return LaurentPoly(out, lo=lo)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly([-c for c in self.coeffs], lo=self.lo)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly([c * other for c in self.coeffs], lo=self.lo)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return LaurentPoly(out, lo=self.lo + other.lo)

    __rmul__ = __mul__

    def divide_monomial(self, c: Number, e: int) -> "LaurentPoly":
        """Exact division by c*x^e; int coefficients stay int when c is +-1."""
        if not c:
            raise ZeroDivisionError("division by the zero monomial")
        if c in (1, -1) and all(type(a) is int for a in self.coeffs):
            return LaurentPoly([a * c for a in self.coeffs], lo=self.lo - e)
        return LaurentPoly([Fraction(a, 1) / c if not isinstance(a, Fraction) else a / c
                            for a in self.coeffs], lo=self.lo - e)

    def monomial_term(self) -> tuple[Number, int] | None:
        """(coefficient, exponent) when exactly one coefficient is nonzero."""
        nz = [(c, self.lo + i) for i, c in enumerate(self.coeffs) if c]
        return nz[0] if len(nz) == 1 else None

    def at_one(self) -> Number:
        return sum(self.coeffs, start=0)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs)) and self.lo == -self.hi

    def eval_unit_circle(self, u: float) -> complex:
        """Sum of coeff_j * exp(i j u) in double precision."""
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(1j * (self.lo + i) * u)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.lo == other.lo
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = ", ".join(f"{c}*x^{self.lo + i}" for i, c in enumerate(self.coeffs) if c)
        return f"LaurentPoly({terms})"


class BivariateSeries:
    """Series in t whose coefficients are Laurent polynomials in x."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[LaurentPoly], order: int | None = None):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, LaurentPoly):
                raise TypeError("coefficients must be LaurentPoly values")
        if order is None:
            if not cs:
                raise ValueError("order is required with an empty coefficient list")
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs.extend([LaurentPoly.zero()] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs[: order + 1])

    @classmethod
    def from_power_series(cls, s: PowerSeries) -> "BivariateSeries":
        return cls([LaurentPoly.const(c) for c in s.coeffs], order=s.order)

    @classmethod
    def from_laurent(cls, p: LaurentPoly, order: int) -> "BivariateSeries":
        return cls([p], order=order)

    def coeff(self, n: int) -> LaurentPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def shift(self, k: int) -> "BivariateSeries":
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if k == 0:
            return self
        cs = (LaurentPoly.zero(),) * k + self.coeffs[: self.order + 1 - k]
        return BivariateSeries(cs, order=self.order)

    def __add__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return BivariateSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], order=n
        )

    def __sub__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return BivariateSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], order=n
        )

    def __neg__(self):
        return BivariateSeries([-c for c in self.coeffs], order=self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariateSeries([c * other for c in self.coeffs], order=self.order)
        if isinstance(other, LaurentPoly):
            return BivariateSeries([c * other for c in self.coeffs], order=self.order)
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [LaurentPoly.zero()] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return BivariateSeries(out, order=n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        n = min(self.order, other.order)
        mono = other.coeffs[0].monomial_term()
        if mono is None:
            raise ZeroDivisionError(
                "bivariate division needs a monomial constant-in-t coefficient"
            )
        c0, e0 = mono
        q: list[LaurentPoly] = []
        for i in range(n + 1):
            acc = self.coeffs[i]
            for j in range(1, i + 1):
                b = other.coeffs[j]
                if not b.is_zero() and not q[i - j].is_zero():
                    acc = acc - b * q[i - j]
            q.append(acc.divide_monomial(c0, e0))
        return BivariateSeries(q, order=n)

    def __eq__(self, other):
        return (
            isinstance(other, BivariateSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"BivariateSeries(order={self.order})"


def sqrt_one_minus(c: Number, order: int) -> PowerSeries:
    """Exact binomial expansion of sqrt(1 - c*t) to the given order.

    The t^k coefficient is -C(2k, k) (c/4)^k / (2k - 1); it is stored as
    an int whenever it is integral, as for every k at c = 4, 8 and 12.
    """
    (c,) = _exact([c])
    coeffs: list[Number] = [1]
    term = Fraction(1)
    for k in range(1, order + 1):
        term = term * c * (2 * k - 3) / (2 * k)
        coeffs.append(term.numerator if term.denominator == 1 else term)
    return PowerSeries(coeffs, order=order)


def sqrt_one_minus_4t(order: int) -> PowerSeries:
    """Exact series s with s(0)=1 and s^2 = 1 - 4t modulo t^(order+1)."""
    return sqrt_one_minus(4, order)
