import pytest

from fusionkit import (
    Field,
    HomDatum,
    cyclic,
    detect_feudal,
    group_rule,
    homomorphisms,
    klein_four,
    moore_read,
    phi,
    standard_catalog,
    tambara_yamagami,
)


@pytest.fixture(scope="session")
def f17():
    return Field(17)


@pytest.fixture(scope="session")
def f5():
    return Field(5)


@pytest.fixture(scope="session")
def f7():
    return Field(7)


@pytest.fixture(scope="session")
def f13():
    return Field(13)


@pytest.fixture(scope="session")
def mr():
    return moore_read()


@pytest.fixture(scope="session")
def ty2():
    return tambara_yamagami(cyclic(2))


@pytest.fixture(scope="session")
def ty3():
    return tambara_yamagami(cyclic(3))


@pytest.fixture(scope="session")
def z4_graded():
    return detect_feudal(group_rule(cyclic(4, labels=["1", "i", "-1", "-i"])))


@pytest.fixture(scope="session")
def v4_rule():
    return group_rule(klein_four())


@pytest.fixture(scope="session")
def hom_data_8():
    """The 834 homomorphisms S -> G with order-2 cokernel over the catalog of order <= 8."""
    cat = standard_catalog(8)
    return [
        HomDatum(S, G, u)
        for S in cat
        for G in cat
        if len(G) % 2 == 0
        for u in homomorphisms(S, G)
        if 2 * len(set(u.tolist())) == len(G)
    ]


@pytest.fixture(scope="session")
def phi_rules_8(hom_data_8):
    """phi of each of the 834 hom data, in the same order."""
    return [phi(h) for h in hom_data_8]
