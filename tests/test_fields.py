"""Field arithmetic: frozen small-case values plus exhaustive axiom checks
for every supported order up to 49."""

import numpy as np
import pytest

from splitfree.errors import CompositeCharacteristic, ElementOutOfField, ZeroInverse
from splitfree.fields import FieldElement, make_prime_field, make_quadratic_field

PRIMES = [2, 3, 5, 7]


def all_fields():
    return [make_prime_field(p) for p in PRIMES] + \
           [make_quadratic_field(p) for p in PRIMES]


def elements(f):
    """All elements in canonical order (ascending c1*p + c0), built from the coefficients."""
    return [FieldElement(c0, c1) for c1 in range(f.order // f.p) for c0 in range(f.p)]


def test_prime_field_examples():
    assert make_prime_field(7).order == 7
    assert make_prime_field(2).order == 2
    with pytest.raises(CompositeCharacteristic):
        make_prime_field(9)
    with pytest.raises(CompositeCharacteristic):
        make_quadratic_field(10)


def brute_irreducible_quadratics(p):
    """Oracle: all (r0, r1) with x^2 + r1 x + r0 rootless over GF(p)."""
    return {(r0, r1) for r0 in range(p) for r1 in range(p)
            if all((x * x + r1 * x + r0) % p for x in range(p))}


@pytest.mark.parametrize("p, expected", [(2, (1, 1)), (3, (1, 0)), (5, (2, 0))])
def test_reduction_polynomial_choice(p, expected):
    f = make_quadratic_field(p)
    options = brute_irreducible_quadratics(p)
    assert f.reduction in options
    # canonical choice: minimal encoding r1*p + r0
    assert f.reduction == min(options, key=lambda t: t[1] * p + t[0])
    assert f.reduction == expected


def test_quadratic_field_deterministic():
    for p in PRIMES:
        assert make_quadratic_field(p) == make_quadratic_field(p)


def test_arith_examples():
    gf4 = make_quadratic_field(2)
    x = FieldElement(0, 1)
    assert gf4.mul(x, x) == FieldElement(1, 1)  # x^2 = x + 1 under x^2+x+1

    gf7 = make_prime_field(7)
    assert gf7.add(FieldElement(3), FieldElement(5)) == FieldElement(1)
    assert gf7.sub(FieldElement(1), FieldElement(5)) == FieldElement(3)

    gf9 = make_quadratic_field(3)
    assert gf9.reduction == (1, 0)
    assert gf9.mul(FieldElement(0, 1), FieldElement(0, 1)) == FieldElement(2, 0)


def test_invert_examples():
    gf4 = make_quadratic_field(2)
    x = FieldElement(0, 1)
    # oracle: exhaustive search over the 3 nonzero elements
    inverse = next(b for b in elements(gf4) if b != gf4.zero and gf4.mul(x, b) == gf4.one)
    assert inverse == FieldElement(1, 1)
    assert gf4.inv(x) == inverse

    gf7 = make_prime_field(7)
    assert gf7.inv(FieldElement(3)) == FieldElement(5)
    for f in all_fields():
        assert f.inv(f.one) == f.one
        with pytest.raises(ZeroInverse):
            f.inv(f.zero)


def test_enumerate_examples():
    gf2 = make_prime_field(2)
    assert [gf2.from_index(i) for i in range(2)] == [FieldElement(0), FieldElement(1)]
    gf4 = make_quadratic_field(2)
    assert [gf4.from_index(i) for i in range(4)] == [
        FieldElement(0, 0), FieldElement(1, 0), FieldElement(0, 1), FieldElement(1, 1)]
    for f in all_fields():
        elems = elements(f)
        assert len(elems) == f.order
        assert [f.index(e) for e in elems] == list(range(f.order))
        assert [f.from_index(i) for i in range(f.order)] == elems


def test_element_validation():
    gf7 = make_prime_field(7)
    with pytest.raises(ElementOutOfField):
        gf7.add(FieldElement(7, 0), FieldElement(0))
    with pytest.raises(ElementOutOfField):
        gf7.mul(FieldElement(1, 1), FieldElement(1))  # extension coeff in GF(p)
    gf4 = make_quadratic_field(2)
    with pytest.raises(ElementOutOfField):
        gf4.mul(FieldElement(2, 0), FieldElement(1, 0))


@pytest.mark.parametrize("f", all_fields(), ids=lambda f: f"GF({f.order})")
def test_field_axioms_exhaustive(f):
    """Commutativity, associativity, distributivity, identities and inverses,
    checked over all pairs/triples via numpy tables built from scalar ops."""
    order = f.order
    elems = elements(f)
    add = np.empty((order, order), dtype=np.int64)
    mul = np.empty((order, order), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            add[i, j] = f.index(f.add(a, b))
            mul[i, j] = f.index(f.mul(a, b))

    assert (add == add.T).all() and (mul == mul.T).all()     # commutativity
    idx = np.arange(order)
    assert (add[0, idx] == idx).all()                        # additive identity
    assert (mul[1, idx] == idx).all()                        # multiplicative identity
    assert sorted(np.argwhere(add == 0)[:, 0].tolist()) == idx.tolist()  # neg exists

    i3, j3, k3 = np.meshgrid(idx, idx, idx, indexing="ij")
    assert (add[add[i3, j3], k3] == add[i3, add[j3, k3]]).all()
    assert (mul[mul[i3, j3], k3] == mul[i3, mul[j3, k3]]).all()
    assert (mul[i3, add[j3, k3]] == add[mul[i3, j3], mul[i3, k3]]).all()

    for a in elems[1:]:
        assert f.mul(a, f.inv(a)) == f.one                   # inverse round trip

    for a in elems:                                          # sub is add of neg
        for b in elems:
            assert f.sub(a, b) == f.add(a, f.neg(b))
        assert f.add(a, f.neg(a)) == f.zero

    # vectorized coefficient ops agree with the scalar tables
    a0 = np.repeat([e.c0 for e in elems], order)
    a1 = np.repeat([e.c1 for e in elems], order)
    b0 = np.tile([e.c0 for e in elems], order)
    b1 = np.tile([e.c1 for e in elems], order)
    r0, r1 = f.mul_arrays(a0, a1, b0, b1)
    assert (r1 * f.p + r0 == mul.reshape(-1)).all()
    s0, s1 = f.add_arrays(a0, a1, b0, b1)
    assert (s1 * f.p + s0 == add.reshape(-1)).all()
