import random

import pytest

from fusionkit import Field, nth_roots_of, roots_of_unity
from fusionkit.errors import DomainError, ResourceError, ValidationError
from math import gcd


def scan_roots(p, a, n):
    """Independent oracle: exhaustive scan of all units."""
    return sorted(x for x in range(1, p) if pow(x, n, p) == a % p)


def test_roots_of_unity_gf17():
    assert roots_of_unity(Field(17), 4) == [1, 4, 13, 16]
    assert roots_of_unity(Field(17), 4) == scan_roots(17, 1, 4)


def test_roots_of_unity_identity_case():
    assert roots_of_unity(Field(17), 1) == [1]


def test_roots_of_unity_gf5():
    assert roots_of_unity(Field(5), 2) == [1, 4] == scan_roots(5, 1, 2)


@pytest.mark.parametrize("p", [5, 7, 13, 17])
def test_roots_of_unity_count_is_gcd(p):
    F = Field(p)
    for n in range(1, p + 1):
        roots = roots_of_unity(F, n)
        assert roots == scan_roots(p, 1, n)
        assert len(roots) == gcd(n, p - 1)


def test_nth_roots_of_minus_one():
    assert nth_roots_of(Field(17), 16, 4) == [2, 8, 9, 15] == scan_roots(17, 16, 4)


def test_nth_roots_of_square():
    assert nth_roots_of(Field(17), 9, 2) == [3, 14] == scan_roots(17, 9, 2)


def test_nth_roots_nonresidue_empty():
    assert nth_roots_of(Field(7), 5, 2) == [] == scan_roots(7, 5, 2)


def test_nth_roots_of_zero():
    F = Field(7)
    assert nth_roots_of(F, 0, 1) == [0]
    with pytest.raises(DomainError):
        nth_roots_of(F, 0, 2)


def test_discrete_log_anchors():
    F = Field(17)
    assert F.generator == 3
    assert F.log(1) == 0
    assert F.log(3) == 1
    assert F.log(13) == 4  # 3^4 = 81 = 13 mod 17
    with pytest.raises(DomainError):
        F.log(0)


def test_log_is_a_homomorphism():
    F = Field(17)
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.randrange(1, 17), rng.randrange(1, 17)
        assert (F.log(a) + F.log(b)) % 16 == F.log(F.mul(a, b))


def test_exponent_round_trip():
    F = Field(13)
    for a in F.units():
        assert F.exp(F.log(a)) == a
    for e in range(12):
        assert F.log(F.exp(e)) == e


def test_field_validation():
    with pytest.raises(ValidationError):
        Field(15)
    with pytest.raises(ResourceError):
        Field(1_000_033)
    with pytest.raises(ResourceError):  # a Mersenne prime: the bound comes before the trial division
        Field(2**61 - 1)
    with pytest.raises(ValidationError):
        Field(17, generator=2)  # 2 has order 8 mod 17


def test_basic_arithmetic():
    F = Field(7)
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.div(1, 3) == 5
    assert F.pow(3, -1) == 5
    assert F.neg(2) == 5
    with pytest.raises(DomainError):
        F.inv(0)
