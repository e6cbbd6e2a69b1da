import random

import numpy as np
import pytest

from fusionkit import (
    Ambi,
    Field,
    adjoint_subrule,
    enumerate_feudal,
    graded_group,
    moore_read,
    standard_catalog,
    tambara_yamagami,
)
from fusionkit.errors import DomainError


def axiom_violations(A: Ambi, samples: int = 40, seed: int = 0) -> list[str]:
    """Spot-check the involutory ambidextrous axioms of A on random data."""
    rng = random.Random(seed)
    p = A.field.p
    bad = []
    serfs = A.serf_ids
    for _ in range(samples):
        a, b, c, d = (rng.choice(serfs) for _ in range(4))
        mu = np.array([rng.randrange(p) for _ in range(A.npoints)])
        nu = np.array([rng.randrange(p) for _ in range(A.npoints)])
        f = A.feudal
        if not A.eq(A.act(a, A.act(b, mu, c), d), A.act(f.serf_mul(a, b), mu, f.serf_mul(c, d))):
            bad.append(f"composition fails at ({a},{b},{c},{d})")
        if not A.eq(A.bar(A.bar(mu)), mu):
            bad.append("involution is not order two")
        if not A.eq(A.bar(A.mul(mu, nu)), A.mul(A.bar(mu), A.bar(nu))):
            bad.append("involution is not a ring map on the commutative B")
        if not A.eq(
            A.bar(A.act(a, mu, b)),
            A.act(f.serf_inv(b), A.bar(mu), f.serf_inv(a)),
        ):
            bad.append(f"compatibility fails at ({a},{b})")
        if not A.eq(A.act(a, A.mul(mu, nu), b), A.mul(A.act(a, mu, b), A.act(a, nu, b))):
            bad.append(f"action is not a ring map at ({a},{b})")
    return bad


def test_axioms_hold_on_fixtures(f17, mr, ty2, ty3, z4_graded):
    for fr in (mr, ty2, ty3, z4_graded):
        A = Ambi(fr, f17)
        assert axiom_violations(A, samples=60) == []


def test_trivial_actors_equal_adjoint_subrule(f17, mr, ty2, ty3, z4_graded):
    for fr in (mr, ty2, ty3, z4_graded):
        A = Ambi(fr, f17)
        assert set(A.trivial_actors) == set(adjoint_subrule(fr.rule))


def test_fix_is_constants_on_feudal_rules(f17, mr, ty3, z4_graded):
    # serf actions are transitive on lords, so the equalizer is the constants
    for fr in (mr, ty3, z4_graded):
        A = Ambi(fr, f17)
        assert len(A.orbits) == 1
        assert A.in_fix(A.const(5))
        if A.npoints > 1:
            v = A.one()
            v[0] = 2
            assert not A.in_fix(v)


def test_action_and_involution_mechanics(f17, mr):
    A = Ambi(mr, f17)
    mu = np.array([3, 5])
    # bar swaps the two mutually dual lords
    assert A.bar(mu).tolist() == [5, 3]
    i = mr.rule.index("i")
    minus1 = mr.rule.index("-1")
    # -1 fixes lords; i swaps them
    assert A.act(minus1, mu).tolist() == [3, 5]
    assert A.act(i, mu).tolist() == [5, 3]
    assert A.mul(mu, A.inv(mu)).tolist() == [1, 1]


# ---- the feudal structure, read off FeudalRule, against the scans it replaced ----------

# Ambi's action dict, stabilizer scan and orbit search as they stood before Ambi
# read the adjoint subrule and the single lord orbit off FeudalRule, kept
# verbatim as oracles.
def _reference_act(A: Ambi) -> dict:
    """act_perm[(a, b)][i] = position of abar * m_i * bbar."""
    feudal = A.feudal
    pos = {m: i for i, m in enumerate(A.lord_ids)}
    act = {}
    for a in A.serf_ids:
        ab = feudal.serf_inv(a)
        for b in A.serf_ids:
            bb = feudal.serf_inv(b)
            perm = np.array([pos[feudal.act_right(feudal.act_left(ab, m), bb)] for m in A.lord_ids])
            act[(a, b)] = perm
    return act


def _reference_trivial_actors(A: Ambi) -> tuple[int, ...]:
    """Serfs acting trivially on both sides (the adjoint subrule, by the
    stabilizer description)."""
    act = _reference_act(A)
    out = []
    idp = np.arange(A.npoints)
    for a in A.serf_ids:
        if (act[(a, A.unit_serf)] == idp).all() and (act[(A.unit_serf, a)] == idp).all():
            out.append(a)
    return tuple(out)


def _reference_orbits(A: Ambi) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of lord positions under the two-sided action."""
    act = _reference_act(A)
    seen, orbits = set(), []
    for i in range(A.npoints):
        if i in seen:
            continue
        orb = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for perm in act.values():
                k = int(perm[j])
                if k not in orb:
                    orb.add(k)
                    frontier.append(k)
        seen |= orb
        orbits.append(tuple(sorted(orb)))
    return tuple(orbits)


def test_adjoint_subrule_and_single_orbit_match_the_scans(f17):
    """On 166 feudal rules (enumerate_feudal(16), TY(A) for every catalog group
    of order 2 to 12, Moore-Read, and every graded group of order <= 12) the
    stabilizer scan finds the adjoint subrule and the orbit search one orbit."""
    groups = standard_catalog(12)
    rules = list(enumerate_feudal(16).rules)
    rules += [tambara_yamagami(g) for g in groups if len(g) >= 2]
    rules.append(moore_read())
    rules += [graded_group(g, s) for g in groups for s in g.index2_subgroups()]
    assert len(rules) == 166
    for fr in rules:
        A = Ambi(fr, f17)
        assert A.trivial_actors == _reference_trivial_actors(A) == fr.adjoint_ids
        assert A.orbits == _reference_orbits(A) == (tuple(range(A.npoints)),)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 41, 257])
def test_inverse_through_the_tables_matches_pow(p, ty2):
    """Ambi.inv through the log/exp tables is pow(v, -1, p) on every unit, for
    any representative, with int64 values; a 0 raises as before."""
    A = Ambi(ty2, Field(p))
    units = np.arange(1, p, dtype=np.int64)
    want = np.array([pow(int(v), -1, p) for v in units], dtype=np.int64)
    for rep in (units, units - p, units + 3 * p):
        got = A.inv(rep)
        assert got.dtype == np.int64 and (got == want).all()
    for bad in ([0], [1, p], [-p, 1]):
        with pytest.raises(DomainError, match="^element is not invertible$"):
            A.inv(np.array(bad))
