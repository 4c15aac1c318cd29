"""Field arithmetic: frozen small-case values plus exhaustive axiom checks
for GF(p^2) at every p up to 7."""

import numpy as np
import pytest

from splitfree.errors import CompositeCharacteristic, ElementOutOfField
from splitfree.fields import FieldElement, make_quadratic_field

PRIMES = [2, 3, 5, 7]


def all_fields():
    return [make_quadratic_field(p) for p in PRIMES]


def elements(f):
    """All elements in canonical order (ascending c1*p + c0), built from the coefficients."""
    return [FieldElement(c0, c1) for c1 in range(f.order // f.p) for c0 in range(f.p)]


def index(f, a):
    """Canonical index c1*p + c0 of an element."""
    return a.c1 * f.p + a.c0


def test_prime_field_examples():
    assert make_quadratic_field(7).order == 49
    assert make_quadratic_field(2).order == 4
    with pytest.raises(CompositeCharacteristic):
        make_quadratic_field(9)
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

    gf49 = make_quadratic_field(7)  # the prime subfield: c1 = 0
    assert gf49.add(FieldElement(3), FieldElement(5)) == FieldElement(1)
    assert gf49.mul(FieldElement(3), FieldElement(5)) == FieldElement(1)

    gf9 = make_quadratic_field(3)
    assert gf9.reduction == (1, 0)
    assert gf9.mul(FieldElement(0, 1), FieldElement(0, 1)) == FieldElement(2, 0)


def inverses(f, a):
    """All b with a*b = 1, by exhaustive search with the scalar mul."""
    return [b for b in elements(f) if f.mul(a, b) == FieldElement(1)]


def test_invert_examples():
    assert inverses(make_quadratic_field(2), FieldElement(0, 1)) == [FieldElement(1, 1)]
    assert inverses(make_quadratic_field(7), FieldElement(3)) == [FieldElement(5)]
    for f in all_fields():
        assert inverses(f, FieldElement(1)) == [FieldElement(1)]
        assert inverses(f, FieldElement(0)) == []


def test_enumerate_examples():
    assert elements(make_quadratic_field(2)) == [
        FieldElement(0, 0), FieldElement(1, 0), FieldElement(0, 1), FieldElement(1, 1)]
    for f in all_fields():
        elems = elements(f)
        assert len(elems) == f.order
        assert [index(f, e) for e in elems] == list(range(f.order))
        assert all(f.check(e) == e for e in elems)


def test_element_validation():
    gf49 = make_quadratic_field(7)
    with pytest.raises(ElementOutOfField):
        gf49.add(FieldElement(7, 0), FieldElement(0))
    with pytest.raises(ElementOutOfField):
        gf49.mul(FieldElement(1, 7), FieldElement(1))
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
            add[i, j] = index(f, f.add(a, b))
            mul[i, j] = index(f, f.mul(a, b))

    assert (add == add.T).all() and (mul == mul.T).all()     # commutativity
    idx = np.arange(order)
    assert (add[0, idx] == idx).all()                        # additive identity
    assert (mul[1, idx] == idx).all()                        # multiplicative identity
    assert sorted(np.argwhere(add == 0)[:, 0].tolist()) == idx.tolist()  # neg exists

    i3, j3, k3 = np.meshgrid(idx, idx, idx, indexing="ij")
    assert (add[add[i3, j3], k3] == add[i3, add[j3, k3]]).all()
    assert (mul[mul[i3, j3], k3] == mul[i3, mul[j3, k3]]).all()
    assert (mul[i3, add[j3, k3]] == add[mul[i3, j3], mul[i3, k3]]).all()

    # every nonzero row holds 1 exactly once (inverses exist and are unique); row 0 never
    assert ((mul[1:] == 1).sum(axis=1) == 1).all() and not (mul[0] == 1).any()

    # vectorized coefficient ops agree with the scalar tables
    a0 = np.repeat([e.c0 for e in elems], order)
    a1 = np.repeat([e.c1 for e in elems], order)
    b0 = np.tile([e.c0 for e in elems], order)
    b1 = np.tile([e.c1 for e in elems], order)
    r0, r1 = f.mul_arrays(a0, a1, b0, b1)
    assert (r1 * f.p + r0 == mul.reshape(-1)).all()
    s0, s1 = f.add_arrays(a0, a1, b0, b1)
    assert (s1 * f.p + s0 == add.reshape(-1)).all()
