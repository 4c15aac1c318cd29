"""Exact arithmetic in the quadratic extension GF(p^2).

Elements are coefficient pairs (c0, c1) meaning c0 + c1*w, where w is a root
of the reduction polynomial x^2 + r1*x + r0 chosen at field construction.
The canonical ordering of elements (and of candidate reduction polynomials)
is by the integer encoding c1*p + c0, so GF(4) enumerates as [0, 1, w, w+1].
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositeCharacteristic, InvariantViolation, SizeGuard

# Miller-Rabin with the first 13 primes as witnesses is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017, "Strong pseudoprimes to twelve prime bases")
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test.  A composite verdict is certain at any
    size; a number at or above MR_EXACT_BELOW that passes every witness
    raises SizeGuard, since no witness set here decides it."""
    if n < 2:
        return False
    for a in MR_WITNESSES:
        if n % a == 0:
            return n == a
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    if n >= MR_EXACT_BELOW:
        raise SizeGuard(f"{n} passes every Miller-Rabin witness, but they decide "
                        f"primality only below {MR_EXACT_BELOW}")
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
    raise InvariantViolation(f"no irreducible quadratic over GF({p}); {p} is not prime")


@dataclass(frozen=True)
class Field:
    """GF(p^2) with a fixed reduction polynomial."""

    p: int
    reduction: tuple[int, int]  # (r0, r1) of x^2 + r1*x + r0

    @property
    def order(self) -> int:
        return self.p * self.p

    # Vectorized coefficient arithmetic on int arrays, used by the affine-plane
    # builder.  No per-element validation; exhaustively cross-checked against
    # a scalar reference in the test suite.
    def add_arrays(self, a0, a1, b0, b1):
        return (a0 + b0) % self.p, (a1 + b1) % self.p

    def mul_arrays(self, a0, a1, b0, b1):
        p = self.p
        # (a0 + a1 w)(b0 + b1 w) with w^2 = -r1 w - r0
        r0, r1 = self.reduction
        hi = a1 * b1
        return (a0 * b0 - hi * r0) % p, (a0 * b1 + a1 * b0 - hi * r1) % p


def make_quadratic_field(p: int) -> Field:
    """GF(p^2) with the canonical (smallest-encoding) irreducible reduction polynomial."""
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    return Field(p=p, reduction=_smallest_irreducible_quadratic(p))
