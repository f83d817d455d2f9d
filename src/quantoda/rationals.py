"""Exact Gaussian arithmetic on (re, im) pairs of Python ints.

Two rings share the representation:

* Z[i] -- plain tuples ``(re, im)``.  The Weyl-algebra coefficients of
  `weyl` live here: the algebra never divides, so no modulus is needed and a
  zero result is an exact zero.  `weyl` combines the pairs inline in its
  product loop; `as_gauss`, `gauss_mul` and `gauss_str` serve the rest.
* F_p[i], p = 2**61 - 1 -- `FpI`, a tuple subclass whose entries are kept
  reduced mod p.  Since p = 3 mod 4, -1 is not a square mod p, so x^2 + 1 is
  irreducible and F_p[i] is a field: re + im*i = 0 exactly when
  re = im = 0 mod p, and every nonzero element has an inverse.  The
  randomized identity checks of `gz` and `separation` evaluate in it, at
  points that `random_fp` draws.

Mixed arithmetic with floats or complex numbers is refused (TypeError):
a residue mod p has no floating-point value.
"""

from __future__ import annotations

import random
from typing import List, Tuple

Gauss = Tuple[int, int]

P = (1 << 61) - 1

ONE: Gauss = (1, 0)
I: Gauss = (0, 1)
MINUS_I: Gauss = (0, -1)


def as_gauss(c) -> Gauss:
    """An int or an (re, im) pair of ints as a Z[i] pair."""
    return (c, 0) if isinstance(c, int) else (c[0], c[1])


def gauss_mul(a: Gauss, b: Gauss) -> Gauss:
    """Product in Z[i]."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_str(a: Gauss) -> str:
    re, im = a
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def _fp(re: int, im: int) -> "FpI":
    """FpI from parts already reduced mod P."""
    return tuple.__new__(FpI, (re, im))


class FpI(tuple):
    """The element re + im*i of F_p[i], p = P = 2**61 - 1.

    Construct from Python ints, which are reduced mod p; a Gaussian
    rational a/b with b prime to p maps to FpI(a) / FpI(b).  Equality and
    hashing are those of the reduced pair.
    """

    __slots__ = ()

    def __new__(cls, re: int = 0, im: int = 0):
        if type(re) is not int or type(im) is not int:
            raise TypeError("FpI parts must be ints")
        return tuple.__new__(cls, (re % P, im % P))

    @property
    def re(self) -> int:
        return self[0]

    @property
    def im(self) -> int:
        return self[1]

    def is_zero(self) -> bool:
        return not (self[0] or self[1])

    def __add__(self, other):
        if type(other) is FpI:
            return _fp((self[0] + other[0]) % P, (self[1] + other[1]) % P)
        if type(other) is int:
            return _fp((self[0] + other) % P, self[1])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _fp(-self[0] % P, -self[1] % P)

    def __sub__(self, other):
        if type(other) is FpI:
            return _fp((self[0] - other[0]) % P, (self[1] - other[1]) % P)
        if type(other) is int:
            return _fp((self[0] - other) % P, self[1])
        return NotImplemented

    def __mul__(self, other):
        if type(other) is FpI:
            a, b = self
            c, d = other
            return _fp((a * c - b * d) % P, (a * d + b * c) % P)
        if type(other) is int:
            return _fp(self[0] * other % P, self[1] * other % P)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "FpI":
        return _fp(self[0], -self[1] % P)

    def inverse(self) -> "FpI":
        """1/z = conj(z) / |z|^2; |z|^2 = 0 mod p only for z = 0."""
        a, b = self
        norm = (a * a + b * b) % P
        if norm == 0:
            raise ZeroDivisionError("division by zero in F_p[i]")
        # extended Euclid; the same inverse as norm**(P-2) mod P, faster
        return self.conjugate() * pow(norm, -1, P)

    def __truediv__(self, other):
        if type(other) is int:
            other = FpI(other)
        if type(other) is not FpI:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        if type(k) is not int:
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = _fp(1, 0)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"FpI({self[0]}, {self[1]})"


def random_fp(rng: random.Random, count: int, low: int = 0) -> List[FpI]:
    """`count` distinct elements of F_p, drawn uniformly from low..p-1."""
    out: List[FpI] = []
    while len(out) < count:
        v = FpI(rng.randrange(low, P))
        if v not in out:
            out.append(v)
    return out


# perfbench/tracing.py counts F_p[i] operations under this name.
QI = FpI
