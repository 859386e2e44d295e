"""Exact scalar arithmetic over the rationals and over prime fields.

Field elements are plain Python objects (``Fraction`` for Q, ``int`` in
``[0, p)`` for F_p) so that inner loops pay no wrapper overhead.  A field
object carries the arithmetic; values never know their own field.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field Q.  Elements are ``Fraction`` (lowest terms, positive denominator)."""

    name = "Q"
    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def of_int(self, n) -> Fraction:
        """The element an int, or an exact rational, stands for."""
        return n if type(n) is Fraction else Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, s) -> Fraction:
        if isinstance(s, (int, Fraction)) and type(s) is not bool:
            return Fraction(s)
        if isinstance(s, str):
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise FieldError(f"rational {s!r} has a zero denominator") from None
        raise FieldError(f"cannot parse rational from {s!r}")

    def fmt(self, a) -> str:
        return str(Fraction(a))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p.  Elements are ints reduced to the range [0, p)."""

    char: int

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, s) -> int:
        if isinstance(s, int) and type(s) is not bool:
            return s % self.p
        if isinstance(s, str):
            if "/" in s:
                num, den = (int(x) % self.p for x in s.split("/"))
                if den == 0:
                    raise FieldError(f"{s!r} has a denominator divisible by {self.p}")
                return self.div(num, den)
            return int(s) % self.p
        raise FieldError(f"cannot parse F{self.p} element from {s!r}")

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_by_name(name: str):
    """Parse a field tag: "Q", "F2", "F3", ... (used by CLI and file loaders)."""
    name = name.strip()
    if name in ("Q", "QQ", "q"):
        return QQ
    if name and name[0] in "Ff" and name[1:].isdigit():
        return GF(int(name[1:]))
    raise FieldError(f"unknown field {name!r} (expected Q or Fp)")
