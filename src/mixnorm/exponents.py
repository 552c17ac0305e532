"""Exact arithmetic on Lebesgue exponents and sharp Fourier constants.

Exponents live in [1, inf] and are stored through their reciprocals in
[0, 1], so that inf is representable exactly (reciprocal 0) and conjugacy
``1/a + 1/a' = 1`` is closed under the arithmetic. Every reciprocal is an
exact ``Fraction``: a float input becomes the rational it represents
exactly, so the exponent relations are decided without any tolerance.

There is one ``Exponent`` per reciprocal, so equal exponents are the same
object and compare and hash by identity. Its float, string, conjugate,
sharp constant and power kernel are set when it is made; an
``ExponentTuple`` decides its admissibility once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

__all__ = [
    "Exponent",
    "ExponentTuple",
    "Admissibility",
    "InadmissibleExponents",
    "as_exponent",
    "beckner_constant",
    "beckner_power",
    "admissible",
]

ExponentLike = Union["Exponent", int, float, str, Fraction]


@functools.total_ordering
class Exponent:
    """A Lebesgue exponent in [1, inf], held through its reciprocal."""

    __slots__ = ("_recip", "_float", "_str", "_conjugate", "_beckner", "_kernel")

    #: The one instance per reciprocal, for each distinct exponent made.
    _instances: dict[Fraction, "Exponent"] = {}

    def __new__(cls, value: ExponentLike):
        if isinstance(value, Exponent):
            return value
        if isinstance(value, str):
            text = value.strip()
            if text.lower() in ("inf", "infinity", "oo"):
                return cls.from_reciprocal(Fraction(0))
            try:
                value = Fraction(text)  # handles "4/3", "2", "1.5"
            except ZeroDivisionError:
                raise ValueError(f"exponent {text!r} has a zero denominator") from None
        if isinstance(value, bool):
            raise TypeError("booleans are not exponents")
        if not isinstance(value, (int, float, Fraction)):
            raise TypeError(f"cannot build an exponent from {value!r}")
        if value == math.inf:
            return cls.from_reciprocal(Fraction(0))
        if not value >= 1:  # also rejects nan and -inf
            raise ValueError(f"exponent must be >= 1, got {value}")
        return cls.from_reciprocal(1 / Fraction(value))

    @classmethod
    def from_reciprocal(cls, recip: Fraction) -> "Exponent":
        """The exponent whose reciprocal is ``recip``, in [0, 1]."""
        e = cls._instances.get(recip)
        if e is not None:
            return e
        if not 0 <= recip <= 1:
            raise ValueError(f"reciprocal must lie in [0, 1], got {recip}")
        e = object.__new__(cls)
        e._recip = recip = Fraction(recip)
        e._str = str(e.value)  # str(math.inf) is "inf"
        try:
            e._float = float(e.value)
        except OverflowError:  # an exponent past the largest float reads as inf
            e._float = math.inf
        e._beckner = None  # the sharp constant, defined for r in [1, 2] alone
        if recip == Fraction(1, 2) or e._float == 1.0:  # 1, or within 3e-15 of it
            e._beckner = 1.0
        elif Fraction(1, 2) < recip < 1:
            rv, tv = e._float, e._float / (e._float - 1.0)
            e._beckner = rv ** (1.0 / (2.0 * rv)) * tv ** (-1.0 / (2.0 * tv))
        # The power kernel: (k, j, d) for an exponent k + j/d with d in 1, 2
        # or 3, whose powers take squarings and one root; None for pow. The
        # exponent's denominator is the reciprocal's numerator.
        e._kernel = None
        if recip.numerator in (1, 2, 3):
            k, j = divmod(recip.denominator, recip.numerator)
            e._kernel = (k, j, recip.numerator)
        # The code is single-threaded, so the insert always stores e. The
        # conjugate is made after it, so that its own conjugate finds e.
        e = cls._instances.setdefault(recip, e)
        e._conjugate = cls.from_reciprocal(1 - recip)
        return e

    @property
    def reciprocal(self) -> Fraction:
        return self._recip

    @property
    def value(self) -> Fraction | float:
        """The exponent itself; ``math.inf`` for the exponent inf."""
        return math.inf if self._recip == 0 else 1 / self._recip

    def conjugate(self) -> "Exponent":
        """The exponent a' with 1/a + 1/a' = 1 (conjugate of 1 is inf)."""
        return self._conjugate

    def __float__(self) -> float:
        return self._float

    # Equality and hashing are identity, one instance per value, so no number
    # equals an exponent. Reciprocals reverse the order, and as denominators
    # are positive, cross-multiplied ints order them.
    def __lt__(self, other) -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        a, b = self._recip, other._recip
        return a.numerator * b.denominator > b.numerator * a.denominator

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"Exponent({self._str!r})"

    # Under every pickle protocol, the reciprocal finds the one instance.
    def __reduce__(self):
        return (Exponent.from_reciprocal, (self._recip,))


def as_exponent(x: ExponentLike) -> Exponent:
    return x if isinstance(x, Exponent) else Exponent(x)


@dataclass(frozen=True)
class ExponentTuple:
    """The exponent quintuple of the bilinear restriction inequality.

    Roles: ``p`` and ``s`` are the outer/inner exponents of the first
    factor function, ``q`` and ``t`` of the second, and ``r`` is the
    target exponent of the restricted transform norm.
    """

    p: Exponent
    s: Exponent
    q: Exponent
    t: Exponent
    r: Exponent

    def __post_init__(self):
        for name in ("p", "s", "q", "t", "r"):
            object.__setattr__(self, name, as_exponent(getattr(self, name)))

    def as_dict(self) -> dict[str, str]:
        """The exponents as strings, keyed by role: one dict per tuple, built
        on first use and shared by every report made under the tuple."""
        return self._strings

    @functools.cached_property
    def _strings(self) -> dict[str, str]:
        return {name: str(getattr(self, name)) for name in ("p", "s", "q", "t", "r")}

    @functools.cached_property
    def _verdict(self) -> "Admissibility":
        if self.s.reciprocal + self.t.reciprocal != 1:
            return Admissibility(False, "s-t-relation")
        if self.r.reciprocal != 1 - self.p.reciprocal - self.q.reciprocal:
            return Admissibility(False, "r-relation")
        if self.r.reciprocal > Fraction(1, 2):
            return Admissibility(False, "r-range")
        return Admissibility(True, None)

    def __str__(self) -> str:
        return "(p={p}, s={s}, q={q}, t={t}, r={r})".format(**self.as_dict())


class Admissibility(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class InadmissibleExponents(ValueError):
    """Raised when an operation requires an admissible exponent tuple."""

    def __init__(self, reason: str, exponents: ExponentTuple):
        self.reason = reason
        self.exponents = exponents
        super().__init__(f"inadmissible exponents {exponents}: violates {reason}")


def admissible(exponents: ExponentTuple) -> Admissibility:
    """Decide the two exponent relations plus the r >= 2 range gate.

    Checks, in order: 1/s + 1/t = 1 ("s-t-relation"), then
    1/r = 1 - 1/p - 1/q ("r-relation"), then r >= 2 ("r-range").
    The reason names the first violated relation. A tuple is decided
    once; later calls return the kept verdict.
    """
    return exponents._verdict


def beckner_constant(r: ExponentLike) -> float:
    """Sharp per-dimension Hausdorff-Young constant for r in [1, 2].

    Equals ``r**(1/2r) * (r')**(-1/2r')`` with ``r'`` the conjugate
    exponent; Gaussians attain it. The value is below 1 strictly inside
    (1, 2) and exactly 1 at both endpoints. It is set when the exponent is
    made, the endpoints in closed form to avoid the limit expressions.
    """
    e = as_exponent(r)
    if e._beckner is None:
        raise ValueError(f"sharp constant is defined for exponents in [1, 2], got {e}")
    return e._beckner


def beckner_power(r: ExponentLike, dims: int) -> float:
    """``beckner_constant(r)`` raised to an integer dimension count."""
    n = int(dims)
    if n < 0:
        raise ValueError(f"dimension power must be >= 0, got {n}")
    if n == 0:
        return 1.0
    return beckner_constant(r) ** n

