import pytest

from fusionkit import (
    cyclic,
    dihedral,
    direct_product,
    homomorphisms,
    isomorphisms,
    klein_four,
    named_group,
    quaternion,
    standard_catalog,
    trivial_group,
)
from fusionkit.errors import DomainError, ValidationError
from fusionkit.groups import FiniteGroup, automorphisms, identify_group


def test_construction_validates():
    with pytest.raises(ValidationError):
        FiniteGroup(["a", "b"], [[0, 1], [0, 1]])  # no unit column
    with pytest.raises(ValidationError):
        FiniteGroup(["a", "b", "c"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative


def test_catalog_is_complete_through_8():
    cat = standard_catalog(8)
    by_order = {}
    for g in cat:
        by_order.setdefault(len(g), []).append(g)
    counts = {n: len(gs) for n, gs in by_order.items()}
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}
    for gs in by_order.values():
        for i, g in enumerate(gs):
            for h in gs[i + 1 :]:
                assert not isomorphisms(g, h)


def test_known_hom_counts():
    z4 = cyclic(4)
    assert len(homomorphisms(z4, z4)) == 4
    assert len(homomorphisms(cyclic(2), cyclic(3))) == 1
    assert len(homomorphisms(dihedral(3), cyclic(2))) == 2
    assert len(homomorphisms(quaternion(), cyclic(2))) == 4
    for f in homomorphisms(z4, cyclic(2)):
        assert f[z4.unit] == 0


def test_known_automorphism_counts():
    assert len(automorphisms(cyclic(4))) == 2
    assert len(automorphisms(klein_four())) == 6
    assert len(automorphisms(quaternion())) == 24
    assert len(automorphisms(direct_product(cyclic(2), klein_four()))) == 168


def test_index2_subgroups():
    assert cyclic(4).index2_subgroups() == [frozenset({0, 2})]
    assert len(klein_four().index2_subgroups()) == 3
    assert cyclic(3).index2_subgroups() == []
    assert len(dihedral(4).index2_subgroups()) == 3


def test_named_and_identify():
    assert named_group("Z4").name == "Z4"
    assert named_group("S3").name == "D3"
    assert identify_group(direct_product(cyclic(3), cyclic(2))) == "Z6"
    assert identify_group(trivial_group()) == "1"
    with pytest.raises(DomainError):
        named_group("E8")


def test_element_orders_and_inverses():
    q8 = quaternion()
    i = q8.index("i")
    assert q8.element_order(i) == 4
    assert q8.mul(i, q8.inverse(i)) == q8.unit
    assert not q8.is_abelian
    assert cyclic(5).is_abelian


@pytest.mark.parametrize("g", standard_catalog(8), ids=lambda g: g.name)
def test_every_catalog_group_resolves_by_its_name(g):
    named = named_group(g.name)
    assert len(named) == len(g) and isomorphisms(named, g)
