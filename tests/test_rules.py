import random
import re
from itertools import permutations, product

import numpy as np
import pytest

from fusionkit import (
    FusionRule,
    RuleReport,
    adjoint_subrule,
    automorphisms,
    cyclic,
    dihedral,
    direct_product,
    fuse_multisets,
    gamma,
    group_rule,
    is_homomorphism,
    klein_four,
    left_cosets,
    nilpotency_class,
    phi,
    simple_currents,
    subrule_generated,
    tambara_yamagami,
    universal_grading,
    verify_fusion_rule,
)
from fusionkit.errors import DomainError, ResourceError, ValidationError
from fusionkit.feudal import HomDatum, enumerate_feudal
from fusionkit.groups import FiniteGroup, homomorphisms, identify_group, standard_catalog
from fusionkit.rules import (
    MAX_MULTIPLICITY,
    WITNESS_CAP,
    as_multiset,
    group_from_members,
    is_grading,
    is_subrule,
    rule_isomorphisms,
)


def fibonacci_rule():
    """{1, t} with t*t = 1 + t: valid, but the adjoint series stalls."""
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[0, 1, 1] = table[1, 0, 1] = 1
    table[1, 1, 0] = table[1, 1, 1] = 1
    return FusionRule(["1", "t"], table, 0, [0, 1])


# ---- axioms ---------------------------------------------------------------------


def test_fixtures_pass_all_axioms(mr, ty2, ty3):
    for fr in (mr, ty2, ty3):
        rep = verify_fusion_rule(fr.rule)
        assert rep.passed and rep.consequences_ok


def test_group_rules_pass():
    for g in (cyclic(2), klein_four(), dihedral(4)):
        assert verify_fusion_rule(group_rule(g)).passed


def test_mutated_ty_fails_associativity(ty2):
    table = ty2.rule.table.copy()
    m = ty2.rule.index("m")
    g = ty2.rule.index("g")
    table[m, m, g] = 0  # m*m = {1} instead of the whole serf group
    bad = FusionRule(ty2.rule.labels, table, ty2.rule.unit, ty2.rule.dual)
    rep = verify_fusion_rule(bad)
    assert not rep.associative

    # independent oracle: expand both sides of every triple directly
    def side(x, y, z, left):
        out = np.zeros(3, dtype=np.int64)
        for u in range(3):
            if left:
                out += table[x, y, u] * table[u, z]
            else:
                out += table[y, z, u] * table[x, u]
        return out

    oracle = sorted(
        (x, y, z)
        for x, y, z in product(range(3), repeat=3)
        if (side(x, y, z, True) != side(x, y, z, False)).any()
    )
    assert oracle and sorted(rep.assoc_witnesses) == oracle
    # both sides of (m,m,m) collapse to {m}, so it is NOT a witness
    assert (m, m, m) not in oracle


def test_fibonacci_is_valid_but_not_nilpotent():
    fib = fibonacci_rule()
    assert verify_fusion_rule(fib).passed
    assert not fib.is_multiplicity_free or fib.is_multiplicity_free  # mult-free here
    assert nilpotency_class(fib) is None


# ---- multiset fusion --------------------------------------------------------------


def test_ty_fusion_anchors(ty2):
    r = ty2.rule
    m = r.index("m")
    mm = fuse_multisets(r, [m], [m])
    assert mm.tolist() == [1, 1, 0]  # m*m = A
    mmm = fuse_multisets(r, mm, [m])
    assert mmm.tolist() == [0, 0, 2]  # (m*m)*m has m with multiplicity |A|


def test_unit_law_on_random_multisets(mr):
    r = mr.rule
    rng = random.Random(5)
    for _ in range(20):
        X = np.array([rng.randrange(4) for _ in range(r.n)])
        assert (fuse_multisets(r, [r.unit], X) == X).all()
        assert (fuse_multisets(r, X, [r.unit]) == X).all()


def test_multiset_fusion_is_associative_fuzz(mr, ty3):
    rng = random.Random(6)
    for fr in (mr, ty3):
        r = fr.rule
        for _ in range(25):
            X = np.array([rng.randrange(3) for _ in range(r.n)])
            Y = np.array([rng.randrange(3) for _ in range(r.n)])
            Z = np.array([rng.randrange(3) for _ in range(r.n)])
            left = fuse_multisets(r, fuse_multisets(r, X, Y), Z)
            right = fuse_multisets(r, X, fuse_multisets(r, Y, Z))
            assert (left == right).all()


# ---- homomorphisms ----------------------------------------------------------------


def test_identity_is_homomorphism(mr):
    assert is_homomorphism(np.arange(mr.rule.n), mr.rule, mr.rule)


def test_universal_grading_map_is_homomorphism(mr):
    grading = universal_grading(mr.rule)
    target = group_rule(grading.group)
    assert is_homomorphism(grading.projection, mr.rule, target)


def test_constant_to_unit_is_homomorphism(ty2):
    r = ty2.rule
    assert is_homomorphism(np.full(r.n, r.unit), r, r)


def test_homomorphism_requires_total_map(ty2):
    with pytest.raises(DomainError):
        is_homomorphism({"1": "1"}, ty2.rule, ty2.rule)


def test_homomorphism_refuses_a_map_that_is_not_integer(ty2):
    """A float or bool map array, a sequence entry and a dict key or value
    that is not an integer are refused naming the first bad entry: a cast
    used to truncate [0.9, 0.2, 2.7] to [0, 0, 2] and {1: 1.9} to {1: 1},
    both homomorphisms of TY(Z2).  An id past int64 is refused, where it
    used to raise a bare OverflowError."""
    r = ty2.rule
    for mapping, bad in (
        (np.array([0.9, 0.2, 2.7]), 0.9),
        (np.array([0.0, 1.0, 2.0]), 0.0),
        (np.array([True, False, True]), True),
    ):
        with pytest.raises(DomainError, match=f"^map: {bad} is not an integer$"):
            is_homomorphism(mapping, r, r)
    for mapping, bad in (
        ([0.9, 0.2, 2.7], 0.9),
        ([0, 1, 2.0], 2.0),
        ([0, True, 2], True),
        ({0: 0, 1: 1.9, 2: 2}, 1.9),
        ({0: 0, 1.0: 1, 2: 2}, 1.0),
        ({0: 0, 1: np.float64(1.0), 2: 2}, np.float64(1.0)),
        ({0: 0, 1: np.True_, 2: 2}, np.True_),
    ):
        with pytest.raises(DomainError, match=f"^member ids: {re.escape(repr(bad))} is not an integer$"):
            is_homomorphism(mapping, r, r)
    with pytest.raises(DomainError, match=f"^member ids: {2**64} is past int64$"):
        is_homomorphism([0, 1, 2**64], r, r)
    for mapping in ([0, 1, 2], np.array([0, 1, 2], dtype=np.uint8), np.array([0, 1, 2], dtype=object), {0: 0, "g": "g", 2: np.int32(2)}):
        assert is_homomorphism(mapping, r, r)


# ---- subrules, cosets, adjoint, nilpotence ------------------------------------------


def test_subrule_generated_anchors(mr, ty3):
    r = mr.rule
    got = subrule_generated(r, [r.index("-1")])
    assert got == {r.index("1"), r.index("-1")}
    assert subrule_generated(r, []) == {r.unit}
    t3 = ty3.rule
    assert subrule_generated(t3, [t3.index("m")]) == set(range(t3.n))


def test_member_ids_outside_the_carrier_raise(mr):
    """An id below 0 or at n, or one that is not an integer, is refused by
    every entry point that takes member ids, naming the id, instead of
    wrapping to the end of the carrier, raising a bare IndexError or being
    truncated by int(): 0.7 is not the id 0, [0.9] does not name the
    trivial group on {0}, and [True] is not the id 1; an id past int64 is
    refused too, where it used to raise a bare OverflowError.  A float
    multiset vector is refused naming its first entry; an integer one of any
    width is read as it is.  A multiplicity in the dict form that is a float,
    bool or str is refused naming it: {0: 1.5, 2: 2.9} on TY(Z2) used to
    read as [1, 0, 2]."""
    r = mr.rule
    entry_points = [
        lambda i: as_multiset(r, i),
        lambda i: as_multiset(r, [0, i]),
        lambda i: as_multiset(r, {0: 1, i: 2}),
        lambda i: subrule_generated(r, [i]),
        lambda i: left_cosets(r, [i]),
        lambda i: fuse_multisets(r, [0], [i]),
        lambda i: is_subrule(r, [i]),
        lambda i: group_from_members(r, [0, i]),
        lambda i: group_from_members(r, [i]),
    ]
    for bad in (-1, r.n):
        for call in entry_points:
            with pytest.raises(DomainError, match=f"^member id {bad} is outside the carrier 0..5$"):
                call(bad)
    for bad in (0.7, 0.9, 1.0, np.float64(0.5), True, np.True_):
        for call in entry_points:
            with pytest.raises(DomainError, match=f"^member ids: {re.escape(repr(bad))} is not an integer$"):
                call(bad)
    for call in entry_points:
        with pytest.raises(DomainError, match=f"^member ids: {2**64} is past int64$"):
            call(2**64)
    # the dict form's multiplicities: a float, bool or str is refused naming it, not cast by int()
    for member, bad in ((0, 1.5), (2, 2.9), ("i", 0.5), (0, True), (0, np.float64(1.0)), ("-1", "2")):
        with pytest.raises(DomainError, match=f"^multiplicities: {re.escape(repr(bad))} is not an integer$"):
            as_multiset(r, {1: 1, member: bad})
    assert as_multiset(r, {"-1": np.int32(2), 0: 1}).tolist() == [1, 2, 0, 0, 0, 0]
    assert as_multiset(r, {0: np.uint64(1), 1: np.uint64(2)}).tolist() == [1, 2, 0, 0, 0, 0]
    assert as_multiset(r, {0: np.uint64(1), 1: np.int64(2)}).tolist() == [1, 2, 0, 0, 0, 0]
    assert (as_multiset(r, r.n - 1) == np.eye(r.n, dtype=np.int64)[-1]).all()
    assert as_multiset(r, [np.int64(1), 1]).tolist() == [0, 2, 0, 0, 0, 0]
    with pytest.raises(DomainError, match="^multiset vector: 0.7 is not an integer$"):
        as_multiset(r, np.full(r.n, 0.7))
    assert as_multiset(r, np.arange(r.n, dtype=np.int32)).tolist() == list(range(r.n))


def test_misshapen_projections_and_sectors_name_their_field(ty2):
    """A projection or a sector of the wrong shape is a DomainError naming it,
    not a bare ValueError from broadcasting; one with a float or bool entry
    is a DomainError naming the entry, not an array truncated by a cast (a
    sector 0.5 is not the class 0, and the identity shortcut is not taken on
    it); integer arrays of any width are read as they are."""
    r = ty2.rule  # 3 elements
    with pytest.raises(DomainError, match=r"^projection must hold one class per element, shape \(3,\), got \(2,\)$"):
        is_grading(r, [0, 1], cyclic(2))
    with pytest.raises(DomainError, match=r"^projection .* got \(3, 1\)$"):
        is_grading(r, [[0], [1], [1]], cyclic(2))
    assert is_grading(r, [0, 0, 1], cyclic(2))
    with pytest.raises(DomainError, match=r"^sector must hold a class per element of both rules, shape \(2, 3\), got \(2, 2\)$"):
        rule_isomorphisms(r, r, sector=np.zeros((2, 2), np.int64))
    with pytest.raises(DomainError, match=r"^sector .* got \(3,\)$"):
        rule_isomorphisms(r, r, sector=[0, 0, 1])
    assert len(rule_isomorphisms(r, r, sector=[[0, 0, 1], [0, 0, 1]])) == 1
    for sector in ([[0, 0, 0.5], [0, 0, 0]], [[0, 0, 0.5], [0, 0, 0.5]]):
        with pytest.raises(DomainError, match=r"^sector: 0.5 is not an integer$"):
            rule_isomorphisms(r, r, sector=sector, first_only=True)
    with pytest.raises(DomainError, match=r"^sector: 0.0 is not an integer$"):
        rule_isomorphisms(r, r, sector=np.zeros((2, 2)))
    with pytest.raises(DomainError, match=r"^projection: 0.4 is not an integer$"):
        is_grading(r, [0, 0.4, 1.2], cyclic(2))
    with pytest.raises(DomainError, match=r"^projection: False is not an integer$"):
        is_grading(r, [False, False, True], cyclic(2))
    assert is_grading(r, np.array([0, 0, 1], dtype=np.uint8), cyclic(2))
    assert len(rule_isomorphisms(r, r, sector=np.array([[0, 0, 1], [0, 0, 1]], dtype=np.int32))) == 1


def test_labels_and_ids_name_the_same_members(mr):
    """is_subrule and as_multiset read a label as the id it names, a single
    label string included, whatever its length."""
    r = mr.rule
    one, minus = r.index("1"), r.index("-1")
    assert is_subrule(r, ["1", "-1"]) and is_subrule(r, [one, minus]) and is_subrule(r, {"1", minus})
    assert not is_subrule(r, ["-1"]) and not is_subrule(r, ["1", "i"])
    for label in r.labels:
        i = r.index(label)
        unit = np.eye(r.n, dtype=np.int64)[i]
        for form in (label, i, [label], [i]):
            assert (as_multiset(r, form) == unit).all()
    assert len(max(r.labels, key=len)) > 1
    assert (as_multiset(r, ["-i", "-i", "i"]) == as_multiset(r, {"-i": 2, "i": 1})).all()
    with pytest.raises(DomainError, match="unknown label"):
        as_multiset(r, "-j")


def test_constructors_keep_their_own_copy_of_array_inputs(mr):
    """FusionRule, FiniteGroup and HomDatum keep a read-only copy of the arrays
    they are given: the caller's arrays stay writeable, and writing to them
    changes nothing that was built from them."""
    r, z4 = mr.rule, cyclic(4)
    table, dual, group_table, mapping = np.array(r.table), np.array(r.dual), np.array(z4.table), np.array([0, 2, 0, 2])
    rule = FusionRule(r.labels, table, r.unit, dual)
    group = FiniteGroup(z4.labels, group_table)
    datum = HomDatum(z4, z4, mapping)
    assert all(a.flags.writeable for a in (table, dual, group_table, mapping))
    assert not any(a.flags.writeable for a in (rule.table, rule.dual, group.table, datum.mapping))
    table[0, 0] = 7
    dual[:] = 0
    group_table[:] = 0
    mapping[:] = 1
    assert rule == r and group == z4
    assert datum.mapping.tolist() == [0, 2, 0, 2] and datum.image_ids == (0, 2) and datum.lord_ids == (1, 3)


def test_left_cosets_anchors(mr, ty2):
    r = mr.rule
    sc, _ = simple_currents(r)
    assert left_cosets(r, sc).index == 2
    assert left_cosets(r, range(r.n)).index == 1
    t = ty2.rule
    dec = left_cosets(t, [t.unit])
    assert dec.index == 3
    assert set(dec.cosets) == {frozenset({0}), frozenset({1}), frozenset({2})}


def test_adjoint_subrule_anchors(mr, ty3):
    r = mr.rule
    assert adjoint_subrule(r) == {r.index("1"), r.index("-1")}
    assert adjoint_subrule(group_rule(dihedral(4))) == {0}
    assert adjoint_subrule(ty3.rule) == set(range(3))


def test_nilpotency_anchors(mr, ty2):
    assert nilpotency_class(mr.rule) == 2
    assert nilpotency_class(group_rule(cyclic(1))) == 0
    assert nilpotency_class(ty2.rule) == 2
    assert nilpotency_class(group_rule(dihedral(3))) == 1


# ---- gradings -----------------------------------------------------------------------


def test_universal_grading_anchors(mr, ty2, ty3):
    assert identify_group(universal_grading(mr.rule).group) == "Z4"
    assert identify_group(universal_grading(ty2.rule).group) == "Z2"
    assert identify_group(universal_grading(ty3.rule).group) == "Z2"
    g = dihedral(4)
    ug = universal_grading(group_rule(g))
    assert identify_group(ug.group) == "D4"


def test_every_grading_factors_through_universal(mr, ty2, ty3):
    """Surjective homs onto small groups factor through the universal projection."""
    small_groups = [g for g in standard_catalog(4)]
    for fr in (ty2, ty3, mr):
        r = fr.rule
        ug = universal_grading(r)
        ug_rule = group_rule(ug.group)
        for g in small_groups:
            g_rule = group_rule(g)
            for f in _surjective_rule_maps(r, g):
                # find h with h(proj(x)) = f(x) and check it is a group hom
                h = {}
                ok = True
                for x in range(r.n):
                    c = int(ug.projection[x])
                    if h.setdefault(c, f[x]) != f[x]:
                        ok = False
                        break
                assert ok, "grading failed to factor through the universal one"
                hmap = np.array([h[c] for c in range(len(ug.group))])
                assert is_homomorphism(hmap, ug_rule, g_rule)


def _surjective_rule_maps(rule, group):
    """All surjective homomorphisms from the underlying multimagma onto a group."""
    g_rule = group_rule(group)
    n, k = rule.n, len(group)
    if k > n:
        return
    for assign in product(range(k), repeat=n - 1):
        f = np.zeros(n, dtype=np.int64)
        rest = [x for x in range(n) if x != rule.unit]
        f[rule.unit] = group.unit
        for x, v in zip(rest, assign):
            f[x] = v
        if set(f.tolist()) == set(range(k)) and is_homomorphism(f, rule, g_rule):
            yield f


# ---- simple currents ------------------------------------------------------------------


def test_simple_currents_anchors(mr, ty3):
    g = dihedral(4)
    sc, idx = simple_currents(group_rule(g))
    assert sc == set(range(8)) and idx == 1
    sc, idx = simple_currents(mr.rule)
    assert sorted(mr.rule.labels[i] for i in sc) == ["-1", "-i", "1", "i"] and idx == 2
    sc, idx = simple_currents(ty3.rule)
    assert sc == set(range(3)) and idx == 2


def test_simple_current_characterizations(mr, ty2, ty3):
    """a abar = 1 iff abar a = 1 iff all products with a are singletons."""
    for fr in (mr, ty2, ty3):
        r = fr.rule
        e = np.eye(r.n, dtype=np.int64)
        for a in range(r.n):
            d = int(r.dual[a])
            c1 = (r.table[a, d] == e[r.unit]).all()
            c2 = (r.table[d, a] == e[r.unit]).all()
            c3 = all(
                r.table[a, z].sum() == 1 and r.table[z, a].sum() == 1 for z in range(r.n)
            )
            assert c1 == c2 == c3


def test_simple_current_multiplicity_bound(mr, ty3):
    for fr in (mr, ty3):
        r = fr.rule
        sc, _ = simple_currents(r)
        for a in sc:
            assert (r.table[:, :, a] <= 1).all()


def test_simple_current_cosets_partition(mr, ty3):
    for fr in (mr, ty3):
        r = fr.rule
        sc, _ = simple_currents(r)
        dec = left_cosets(r, sc)
        assert dec.partitions


# ---- automorphisms ----------------------------------------------------------------------


def test_automorphism_counts(ty2, ty3, mr):
    assert len(automorphisms(ty2.rule)) == 1
    assert len(automorphisms(ty3.rule)) == 2
    # full 6!-scan oracle gives 4 for the six-element rule: the serf swap and
    # the lord swap are independent automorphisms
    assert len(automorphisms(mr.rule)) == 4


def test_automorphisms_brute_force_oracle(mr):
    r = mr.rule
    count = 0
    for p in permutations(range(r.n)):
        perm = np.array(p)
        if perm[r.unit] != r.unit:
            continue
        if any(perm[int(r.dual[x])] != int(r.dual[perm[x]]) for x in range(r.n)):
            continue
        if all(
            r.table[perm[x], perm[y], perm[z]] == r.table[x, y, z]
            for x, y, z in product(range(r.n), repeat=3)
        ):
            count += 1
    assert count == len(automorphisms(r))


def test_automorphism_bound():
    g = group_rule(dihedral(6))
    with pytest.raises(ResourceError):
        automorphisms(g, bound=10)


# ---- randomized construction property -------------------------------------------------


def test_phi_outputs_always_pass_axioms():
    rng = random.Random(9)
    cat = standard_catalog(6)
    hom_data = []
    for S in cat:
        for G in cat:
            if len(G) % 2:
                continue
            for u in homomorphisms(S, G):
                if 2 * len(set(u.tolist())) == len(G):
                    hom_data.append(HomDatum(S, G, u))
    assert hom_data
    for h in rng.sample(hom_data, min(12, len(hom_data))):
        fr = phi(h)
        rep = verify_fusion_rule(fr.rule)
        assert rep.passed and rep.consequences_ok
        assert is_subrule(fr.rule, fr.serfs)


# ---- array kernels against the loops they replace ---------------------------------------


def _reference_verify(rule):
    """verify_fusion_rule as int64 einsums and per-label loops."""
    T, n, e = rule.table, rule.n, rule.unit
    lhs = np.einsum("xyu,uzw->xyzw", T, T)
    rhs = np.einsum("yzv,xvw->xyzw", T, T)
    bad = np.argwhere((lhs != rhs).any(axis=3))
    eye = np.eye(n, dtype=np.int64)
    unit_bad = [x for x in range(n) if (T[e, x] != eye[x]).any() or (T[x, e] != eye[x]).any()]
    dual_bad = []
    for x in range(n):
        want = eye[rule.dual[x]]
        if (T[x, :, e] != want).any() or (T[:, x, e] != want).any():
            dual_bad.append((x, int(rule.dual[x])))
    empt = np.argwhere(T.sum(axis=2) == 0)
    units = [
        u for u in range(n)
        if all((T[u, x] == eye[x]).all() and (T[x, u] == eye[x]).all() for x in range(n))
    ]
    assoc = [tuple(map(int, w)) for w in bad[:WITNESS_CAP]]
    return RuleReport(
        associative=not assoc,
        assoc_witnesses=assoc,
        unit_ok=not unit_bad,
        unit_witnesses=unit_bad[:WITNESS_CAP],
        duals_ok=not dual_bad,
        dual_witnesses=dual_bad[:WITNESS_CAP],
        products_nonempty=empt.size == 0,
        empty_witnesses=[tuple(map(int, w)) for w in empt[:WITNESS_CAP]],
        unit_unique=len(units) == 1,
        dual_involutive=bool((rule.dual[rule.dual] == np.arange(n)).all()) and rule.dual[e] == e,
        multiplicity_free=bool((T <= 1).all()),
    )


def _reference_rule_isomorphisms(a, b, sector=None, first_only=False):
    """rule_isomorphisms with per-point profiles and a per-triple consistency loop."""
    if len(a) != len(b):
        return []
    n = len(a)
    sec_a = sector[0] if sector is not None else np.zeros(n, dtype=np.int64)
    sec_b = sector[1] if sector is not None else np.zeros(n, dtype=np.int64)

    def profile(r, x, sec):
        row = tuple(sorted(int(v) for v in r.table[x].sum(axis=1)))
        col = tuple(sorted(int(v) for v in r.table[:, x].sum(axis=1)))
        return (int(sec[x]), x == r.unit, int(r.dual[x]) == x, row, col)

    prof_a = [profile(a, x, sec_a) for x in range(n)]
    prof_b = [profile(b, x, sec_b) for x in range(n)]
    cands = [[y for y in range(n) if prof_b[y] == prof_a[x]] for x in range(n)]
    if not all(cands) or b.unit not in cands[a.unit]:
        return []
    out, perm, used = [], np.full(n, -1, dtype=np.int64), [False] * n
    ta, tb = a.table, b.table

    def consistent(x):
        y = int(perm[x])
        xd = int(a.dual[x])
        if perm[xd] >= 0 and int(perm[xd]) != int(b.dual[y]):
            return False
        assigned = [z for z in range(n) if perm[z] >= 0]
        for u in assigned:
            for v in assigned:
                pu, pv = perm[u], perm[v]
                if ta[x, u, v] != tb[y, pu, pv] or ta[u, x, v] != tb[pu, y, pv] or ta[u, v, x] != tb[pu, pv, y]:
                    return False
        return True

    perm[a.unit] = b.unit
    used[b.unit] = True
    order = sorted((x for x in range(n) if x != a.unit), key=lambda x: len(cands[x]))

    def rec(i):
        if out and first_only:
            return
        if i == len(order):
            out.append(perm.copy())
            return
        x = order[i]
        for y in cands[x]:
            if used[y]:
                continue
            perm[x], used[y] = y, True
            if consistent(x):
                rec(i + 1)
            perm[x], used[y] = -1, False

    rec(0)
    return out


def _reference_group_from_members(rule, members):
    ids = sorted(members)
    pos = {g: i for i, g in enumerate(ids)}
    table = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for a, b in product(ids, repeat=2):
        supp = tuple(np.nonzero(rule.table[a, b])[0].tolist())
        if len(supp) != 1 or supp[0] not in pos or rule.table[a, b, supp[0]] != 1:
            raise ValidationError("member set does not fuse as a group")
        table[pos[a], pos[b]] = pos[supp[0]]
    return table


def _reference_subrule_generated(rule, seed):
    members = {rule.unit} | set(seed)
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            d = int(rule.dual[x])
            if d not in members:
                members.add(d)
                nxt.append(d)
        for x, y in product(list(members), repeat=2):
            for z in np.nonzero(rule.table[x, y])[0].tolist():
                if z not in members:
                    members.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(members)


def _reference_left_cosets(rule, members):
    """left_cosets as a per-element dedupe and a per-coset max-reduce: (cosets, table, partitions)."""
    ind = (np.isin(np.arange(rule.n), sorted(members))).astype(np.int64)
    raw = np.einsum("s,xsz->xz", ind, rule.table)
    cosets = []
    for x in range(rule.n):
        c = frozenset(np.nonzero(raw[x])[0].tolist())
        if c not in cosets:
            cosets.append(c)
    cosets.sort(key=sorted)
    idx = [np.fromiter(sorted(c), dtype=np.int64) for c in cosets]
    m1 = np.stack([rule.table[:, :, m].max(axis=2) for m in idx], axis=2)
    m2 = np.stack([m1[m].max(axis=0) for m in idx], axis=0)
    table = np.stack([m2[:, m].max(axis=1) for m in idx], axis=1)
    partitions = set().union(*cosets) == set(range(rule.n)) and sum(len(c) for c in cosets) == rule.n
    return cosets, table.tolist(), partitions


def _reference_grading(rule):
    """universal_grading's quotient table and projection as per-cell and per-element loops."""
    cosets, table, _ = _reference_left_cosets(rule, adjoint_subrule(rule))
    k = len(cosets)
    gtab = np.zeros((k, k), dtype=np.int64)
    for i, j in product(range(k), repeat=2):
        hits = np.nonzero(table[i][j])[0]
        assert len(hits) == 1
        gtab[i, j] = hits[0]
    proj = np.zeros(rule.n, dtype=np.int64)
    for i, c in enumerate(cosets):
        for x in c:
            proj[x] = i
    return gtab.tolist(), proj.tolist()


def _outcome(fn):
    """fn()'s result, or the message of the ValidationError it raises."""
    try:
        return fn()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _corrupt(rule, rng, kind):
    table, dual, unit = rule.table.copy(), rule.dual.copy(), rule.unit
    n = rule.n
    if kind == "entry":
        for _ in range(rng.randint(1, 3)):
            x, y, z = (rng.randrange(n) for _ in range(3))
            table[x, y, z] = rng.choice([0, 1, 2]) if table[x, y, z] == 0 else 0
    elif kind == "row":
        x, y = rng.randrange(n), rng.randrange(n)
        table[x, y] = 0
    elif kind == "dual":
        x = rng.randrange(n)
        dual[x] = rng.randrange(n)
    else:
        unit = rng.randrange(n)
    return FusionRule(rule.labels, table, unit, dual)


def test_verify_fusion_rule_matches_reference(phi_rules_8):
    rng = random.Random(3)
    failed = dict.fromkeys(["associative", "unit_ok", "duals_ok", "products_nonempty", "unit_unique"], 0)
    for fr in phi_rules_8:
        assert verify_fusion_rule(fr.rule) == _reference_verify(fr.rule)
    for fr in rng.sample(phi_rules_8, 150):
        for kind in ("entry", "row", "dual", "unit"):
            bad = _corrupt(fr.rule, rng, kind)
            rep = verify_fusion_rule(bad)
            assert rep == _reference_verify(bad)
            for k in failed:
                failed[k] += not getattr(rep, k)
    assert all(failed.values()), failed


def test_multiplicity_bound_rejects_the_int64_wraparound():
    # all labels self-dual; (b*b)*c and b*(b*c) differ by 2**32 * 2**32 = 2**64, which
    # an int64 product wraps to 0, so this non-associative rule used to verify as associative
    m = 2**32
    table = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 1], [0, 1, m]], [[0, 0, 1], [0, 1, m], [1, m, 0]]]
    with pytest.raises(ResourceError, match="exceeds the bound 65536"):
        FusionRule(["1", "b", "c"], table, 0, [0, 1, 2])
    table[2][2][1] = table[1][2][2] = table[2][1][2] = MAX_MULTIPLICITY
    rep = verify_fusion_rule(FusionRule(["1", "b", "c"], table, 0, [0, 1, 2]))
    assert not rep.associative and rep == _reference_verify(FusionRule(["1", "b", "c"], table, 0, [0, 1, 2]))


def test_supports_subrules_and_cosets_match_reference(phi_rules_8):
    rng = random.Random(5)
    for fr in rng.sample(phi_rules_8, 120):
        r = fr.rule
        want = tuple(tuple(np.nonzero(r.table[x, y])[0].tolist()) for x in range(r.n) for y in range(r.n))
        assert r._supports == want
        for seed in ([], [r.n - 1], rng.sample(range(r.n), 2)):
            assert subrule_generated(r, seed) == _reference_subrule_generated(r, seed)
        ad = adjoint_subrule(r)
        assert ad == _reference_subrule_generated(r, {z for x in range(r.n) for z in r.support(x, int(r.dual[x]))})
        grading = universal_grading(r)
        assert (grading.group.table.tolist(), grading.projection.tolist()) == _reference_grading(r)
        for members in (ad, fr.serfs, set(rng.sample(range(r.n), 2))):
            dec = left_cosets(r, members)
            assert (list(dec.cosets), dec.table.tolist(), dec.partitions) == _reference_left_cosets(r, members)
            assert _outcome(lambda: group_from_members(r, members).table.tolist()) == _outcome(
                lambda: _reference_group_from_members(r, members).tolist()
            )
    for fr in rng.sample(phi_rules_8, 60):
        bad = _corrupt(fr.rule, rng, "entry")
        for members in (fr.serfs, set(rng.sample(range(bad.n), min(3, bad.n)))):
            assert _outcome(lambda: group_from_members(bad, members).table.tolist()) == _outcome(
                lambda: _reference_group_from_members(bad, members).tolist()
            )


def _perms(found):
    return [p.tolist() for p in found]


def test_rule_isomorphisms_match_reference(ty3, hom_data_8, phi_rules_8):
    classify_rules = [fr.rule for fr in enumerate_feudal(8).rules]
    classify_rules += [ty3.rule, tambara_yamagami(cyclic(5)).rule]
    for r in classify_rules:
        assert _perms(automorphisms(r)) == _perms(_reference_rule_isomorphisms(r, r))
    rng = random.Random(11)
    picked = rng.sample(range(len(hom_data_8)), 120)
    for i, j in zip(picked, picked[1:]):
        f1, f2 = phi(gamma(phi_rules_8[i])), phi_rules_8[i]
        for a, b in ((f1, f2), (f1, phi_rules_8[j])):
            sec = (
                np.array([0 if x in a.serfs else 1 for x in range(a.rule.n)]),
                np.array([0 if x in b.serfs else 1 for x in range(b.rule.n)]),
            )
            for first_only in (True, False)[: 1 + (a.rule.n <= 10)]:  # every isomorphism only when small
                got = rule_isomorphisms(a.rule, b.rule, sector=sec, first_only=first_only, bound=16)
                assert _perms(got) == _perms(_reference_rule_isomorphisms(a.rule, b.rule, sec, first_only))


@pytest.fixture(scope="module")
def rules_11(mr):
    """The 41 feudal rules of enumerate_feudal(11), Moore-Read and TY(Z2^3)."""
    return [*enumerate_feudal(11).rules, mr, tambara_yamagami(direct_product(cyclic(2), klein_four()))]


def test_identity_shortcut_is_the_searchs_first_isomorphism(rules_11, monkeypatch):
    """Between a rule and a copy made apart, with no sector or the serf/lord
    sector on both, first_only returns the identity without a search, and
    that is the first entry of the unchanged search's full list."""
    from fusionkit import rules

    searches = []
    search = rules._isomorphism_search
    monkeypatch.setattr(rules, "_isomorphism_search", lambda *args: searches.append(args) or search(*args))
    assert len(rules_11) == 43
    for fr in rules_11:
        a = fr.rule
        b = FusionRule(a.labels, a.table.copy(), a.unit, a.dual.copy())
        split = np.isin(np.arange(a.n), fr.lord_ids).astype(np.int64)
        for sector in (None, np.stack([split, split])):
            full = rule_isomorphisms(a, b, sector=sector, bound=a.n)
            before = len(searches)
            got = rule_isomorphisms(a, b, sector=sector, first_only=True, bound=a.n)
            assert len(searches) == before
            assert _perms(got) == _perms(full[:1]) == [list(range(a.n))] and got[0].dtype == full[0].dtype
    # a sector that differs between the two rules is searched
    rule_isomorphisms(a, b, sector=[split, split[::-1]], first_only=True, bound=a.n)
    assert len(searches) == before + 1


def _reference_key(rule):
    """FusionRule.key as first written: the repr of labels, unit, dual and table."""
    return repr((rule.labels, rule.unit, rule.dual.tolist(), rule.table.tolist())).encode()


def test_content_key_agrees_with_the_repr_key(rules_11):
    """Two rules have equal keys exactly when their repr keys are equal, over
    every pair among these rules, a copy of each made apart, and copies with
    one label, the unit, the dual or one table cell changed."""
    rules = []
    for fr in rules_11:
        r = fr.rule
        table = r.table.copy()
        table[-1, -1, 0] ^= 1
        rules += [
            r,
            FusionRule(r.labels, r.table.copy(), r.unit, r.dual.copy()),
            FusionRule([*r.labels[:-1], r.labels[-1] + "'"], r.table, r.unit, r.dual),
            FusionRule(r.labels, r.table, (r.unit + 1) % r.n, r.dual),
            FusionRule(r.labels, r.table, r.unit, np.roll(r.dual, 1)),
            FusionRule(r.labels, table, r.unit, r.dual),
        ]
    old = [_reference_key(r) for r in rules]
    equal = 0
    for i, j in product(range(len(rules)), repeat=2):
        same = rules[i].key == rules[j].key
        assert same == (old[i] == old[j]) == (rules[i] == rules[j])
        equal += same
    # each rule equals itself and its copy; rules_11 holds no two equal rules
    assert equal == len(rules) + 2 * len(rules_11), equal


def test_verify_fusion_rule_each_check_failing_alone_matches_reference(phi_rules_8):
    """Each axiom failing by itself, so that each witness branch runs alone."""
    rng = random.Random(13)
    g = dihedral(4)
    gr = group_rule(g)
    # declared unit the central r2 of D4, duals x -> x^-1 r2: x.y and y.x hold it exactly when y = xbar
    c = 2
    unit_only = FusionRule(gr.labels, gr.table, c, [g.mul(int(g.inv[x]), c) for x in range(len(g))])
    dual = gr.dual.copy()
    dual[1], dual[3] = 1, 3  # r1 and r3 declared self-dual
    cases = [(unit_only, "unit_ok"), (FusionRule(gr.labels, gr.table, gr.unit, dual), "duals_ok")]
    for fr in rng.sample(phi_rules_8, 40):
        r = fr.rule
        # one more summand in a product x.y that holds neither the unit nor any unit row or column
        x, y = (int(v) for v in rng.sample([v for v in range(r.n) if v != r.unit], 2))
        if int(r.dual[x]) == y:
            continue
        table = r.table.copy()
        table[x, y, [z for z in range(r.n) if z != r.unit and table[x, y, z] == 0][0]] = 1
        cases.append((FusionRule(r.labels, table, r.unit, r.dual), "associative"))
        # an empty product x.y fails associativity too: (x.y).ybar is empty, x.(y.ybar) holds x
        table = r.table.copy()
        table[x, y] = 0
        cases.append((FusionRule(r.labels, table, r.unit, r.dual), "products_nonempty"))
    checks = ("associative", "unit_ok", "duals_ok", "products_nonempty")
    seen = set()
    for rule, failing in cases:
        rep = verify_fusion_rule(rule)
        assert rep == _reference_verify(rule)
        failed = {k for k in checks if not getattr(rep, k)}
        assert failed == ({failing, "associative"} if failing == "products_nonempty" else {failing}), rep
        seen.add(failing)
    assert seen == set(checks)


def test_left_cosets_overlapping_and_unit_match_reference(phi_rules_8):
    rng = random.Random(17)
    overlapping = 0
    for fr in rng.sample(phi_rules_8, 150):
        r = fr.rule
        for members in ({r.unit}, set(rng.sample(range(r.n), 4))):
            dec = left_cosets(r, members)
            assert (list(dec.cosets), dec.table.tolist(), dec.partitions) == _reference_left_cosets(r, members)
            overlapping += sum(map(len, dec.cosets)) > r.n
    assert overlapping > 50, overlapping
    # no member: every xS is empty, one empty coset whose block is a max over nothing
    dec = left_cosets(phi_rules_8[0].rule, [])
    assert dec.cosets == (frozenset(),) and dec.table.tolist() == [[[0]]] and not dec.partitions


def test_round_trip_derives_the_adjoint_once(hom_data_8, monkeypatch):
    """gamma reads a phi output's adjoint subrule, ker u, off its datum, so the
    round trip derives it never; a FeudalRule built through the public
    constructor derives it once, for its check and gamma's grading together."""
    from fusionkit import FeudalRule, rules

    calls = []
    real = subrule_generated

    def counted(rule, seed):
        calls.append(rule)
        return real(rule, seed)

    monkeypatch.setattr("fusionkit.rules.subrule_generated", counted)
    monkeypatch.setattr(rules, "_COMPILED_CACHE", {})
    h = hom_data_8[-1]
    fr = phi(HomDatum(h.source, h.target, h.mapping))
    gamma(fr)
    assert calls == []
    gamma(FeudalRule(fr.rule, fr.serfs))
    assert calls == [fr.rule]
