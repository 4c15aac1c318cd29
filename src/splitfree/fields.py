"""Exact arithmetic in GF(p) and in the quadratic extension GF(p^2).

Elements are coefficient pairs (c0, c1) meaning c0 + c1*w, where w is a root
of the reduction polynomial x^2 + r1*x + r0 chosen at field construction.
Prime-field elements always have c1 = 0.  The canonical ordering of elements
(and of candidate reduction polynomials) is by the integer encoding
c1*p + c0, so GF(4) enumerates as [0, 1, w, w+1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CompositeCharacteristic, ElementOutOfField


class FieldElement(NamedTuple):
    c0: int
    c1: int = 0


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine for the sizes used here."""
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


def _smallest_irreducible_quadratic(p: int) -> tuple[int, int]:
    """Return (r0, r1) of the first monic irreducible x^2 + r1*x + r0 over GF(p).

    Candidates are scanned in canonical encoding order r1*p + r0; a monic
    quadratic over GF(p) is irreducible iff it has no root in GF(p).
    """
    for code in range(p * p):
        r1, r0 = divmod(code, p)
        if all((x * x + r1 * x + r0) % p for x in range(p)):
            return r0, r1
    raise AssertionError("no irreducible quadratic found; p is not prime")


@dataclass(frozen=True)
class Field:
    """GF(p) (degree 1) or GF(p^2) (degree 2) with a fixed reduction polynomial."""

    p: int
    degree: int
    reduction: tuple[int, int] | None = None  # (r0, r1) of x^2 + r1*x + r0, degree 2 only

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def check(self, a: FieldElement) -> FieldElement:
        if not (0 <= a.c0 < self.p and 0 <= a.c1 < self.p):
            raise ElementOutOfField(f"{a} has coefficients outside [0, {self.p})")
        if self.degree == 1 and a.c1 != 0:
            raise ElementOutOfField(f"{a} has a nonzero extension coefficient in GF({self.p})")
        return a

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self.check(a), self.check(b)
        return FieldElement((a.c0 + b.c0) % self.p, (a.c1 + b.c1) % self.p)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self.check(a), self.check(b)
        p = self.p
        if self.degree == 1:
            return FieldElement(a.c0 * b.c0 % p, 0)
        # (a0 + a1 w)(b0 + b1 w) with w^2 = -r1 w - r0
        r0, r1 = self.reduction
        hi = a.c1 * b.c1
        return FieldElement(
            (a.c0 * b.c0 - hi * r0) % p,
            (a.c0 * b.c1 + a.c1 * b.c0 - hi * r1) % p,
        )

    # Vectorized coefficient arithmetic on int arrays, used by the affine-plane
    # builder.  No per-element validation; exhaustively cross-checked against
    # the scalar operations in the test suite.
    def add_arrays(self, a0, a1, b0, b1):
        return (a0 + b0) % self.p, (a1 + b1) % self.p

    def mul_arrays(self, a0, a1, b0, b1):
        p = self.p
        if self.degree == 1:
            return (a0 * b0) % p, np.zeros_like(a0)
        r0, r1 = self.reduction
        hi = a1 * b1
        return (a0 * b0 - hi * r0) % p, (a0 * b1 + a1 * b0 - hi * r1) % p


def make_prime_field(p: int) -> Field:
    """GF(p) for prime p; raises CompositeCharacteristic otherwise."""
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    return Field(p=p, degree=1)


def make_quadratic_field(p: int) -> Field:
    """GF(p^2) with the canonical (smallest-encoding) irreducible reduction polynomial."""
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    return Field(p=p, degree=2, reduction=_smallest_irreducible_quadratic(p))
