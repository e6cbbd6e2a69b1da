"""Exact arithmetic in prime fields GF(p) with a discrete-log view of GF(p)^x.

Elements are plain integer residues in [0, p).  The multiplicative group is
cyclic of order p - 1; fixing a primitive root turns multiplicative equations
into affine-linear ones over Z_(p-1), which is how the lattice solvers in
:mod:`fusionkit.zmodlin` consume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .errors import DomainError, ResourceError, ValidationError, integers

# discrete log is a precomputed table of size p, so fields stay desk-sized
MAX_MODULUS = 1_000_003


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    qs = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ValidationError(f"no primitive root mod {p}; is it prime?")


@dataclass(frozen=True)
class Field:
    """GF(p) with a fixed primitive root of the unit group."""

    p: int
    generator: int = 0

    def __post_init__(self):
        p = integers(self.p, "modulus")
        if p.shape:
            raise ValidationError(f"modulus must be one integer, got {self.p!r}")
        object.__setattr__(self, "p", int(p))
        if self.p > MAX_MODULUS:  # before the trial division, which would not end
            raise ResourceError(f"modulus {self.p} exceeds table bound {MAX_MODULUS}")
        if not is_prime(self.p):
            raise ValidationError(f"modulus {self.p} is not prime")
        if self.generator == 0:
            object.__setattr__(self, "generator", _primitive_root(self.p))
        else:
            g = self.generator % self.p
            if g == 0 or self.order_of(g) != self.p - 1:
                raise ValidationError(f"{self.generator} is not a primitive root mod {self.p}")
            object.__setattr__(self, "generator", g)

    @cached_property
    def _exp_table(self) -> np.ndarray:
        table = np.zeros(self.p - 1, dtype=np.int64)
        x = 1
        for e in range(self.p - 1):
            table[e] = x
            x = x * self.generator % self.p
        return table

    @cached_property
    def _log_table(self) -> np.ndarray:
        table = np.zeros(self.p, dtype=np.int64)
        table[self._exp_table] = np.arange(self.p - 1)
        return table

    # ---- element arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DomainError("0 is not invertible")
        try:
            return pow(a, self.p - 2, self.p)
        except TypeError:
            integers(a, "field element", DomainError)  # a float: one line; else the error as it was
            raise

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p) if e >= 0 else pow(self.inv(a), -e, self.p)

    def order_of(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise DomainError("0 has no multiplicative order")
        x, k = a, 1
        while x != 1:
            x = x * a % self.p
            k += 1
        return k

    # ---- exponent view ------------------------------------------------------

    def exp(self, e: int) -> int:
        """generator**e, for e taken mod p-1."""
        return pow(self.generator, e % (self.p - 1), self.p)

    def log(self, a: int) -> int:
        if a % self.p == 0:
            raise DomainError("discrete log of 0 is undefined")
        try:
            return int(self._log_table[a % self.p])
        except IndexError:
            integers(a, "field element", DomainError)  # a float: one line; else the error as it was
            raise

    def units(self) -> range:
        return range(1, self.p)


def roots_of_unity(field: Field, n: int) -> list[int]:
    """All solutions of x**n = 1 in GF(p), sorted.

    >>> roots_of_unity(Field(17), 4)
    [1, 4, 13, 16]
    """
    if n < 1:
        raise DomainError("n must be positive")
    try:
        d = gcd(n, field.p - 1)
    except TypeError:
        integers(n, "exponent", DomainError)
        raise
    step = (field.p - 1) // d
    return sorted(field.exp(k * step) for k in range(d))


def nth_roots_of(field: Field, a: int, n: int) -> list[int]:
    """All solutions of x**n = a in GF(p), sorted (possibly empty)."""
    if n < 1:
        raise DomainError("n must be positive")
    a %= field.p
    if a == 0:
        if n == 1:
            return [0]
        raise DomainError("a = 0 only admits roots for n = 1")
    m = field.p - 1
    t = field.log(a)
    try:
        d = gcd(n, m)
    except TypeError:
        integers(n, "exponent", DomainError)
        raise
    if t % d != 0:
        return []
    md = m // d
    e0 = (t // d) * pow(n // d, -1, md) % md
    return sorted(field.exp(e0 + k * md) for k in range(d))
