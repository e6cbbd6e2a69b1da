import ast
import hashlib
import pathlib
import random
import re
from itertools import product

import numpy as np
import pytest

from fusionkit import (
    FusionRule,
    adjoint_subrule,
    cyclic,
    detect_feudal,
    dihedral,
    gamma,
    graded_group,
    graded_isomorphic,
    group_rule,
    hom_datum_isomorphic,
    moore_read,
    phi,
    round_trip_check,
    tambara_yamagami,
)
from fusionkit.errors import ValidationError
from fusionkit.feudal import FeudalRule, HomDatum, _datum_grading, enumerate_feudal
from fusionkit.groups import FiniteGroup
from fusionkit.groups import direct_product, homomorphisms, isomorphisms, standard_catalog
from fusionkit.rules import (
    group_from_members,
    is_grading,
    require_valid,
    rule_isomorphisms,
    universal_grading,
    verify_fusion_rule,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionkit"


def z2_feudal_gradings(rule: FusionRule) -> list[frozenset[int]]:
    """All serf sets of valid feudal Z2 gradings, by exhaustive search."""
    out = []
    n = rule.n
    rest = [x for x in range(n) if x != rule.unit]
    for bits in product((0, 1), repeat=n - 1):
        grading = np.zeros(n, dtype=np.int64)
        grading[rest] = bits
        if not any(grading):
            continue  # not surjective
        if not is_grading(rule, grading, cyclic(2)):
            continue
        serfs = frozenset(np.nonzero(grading == 0)[0].tolist())
        try:
            FeudalRule(rule, serfs)
        except ValidationError:
            continue
        out.append(serfs)
    return out


def doubling_datum():
    z4 = cyclic(4)
    return HomDatum(z4, z4, np.array([0, 2, 0, 2]))


def trivial_z3_z2():
    return HomDatum(cyclic(3), cyclic(2), np.zeros(3, dtype=np.int64))


def inclusion_datum():
    # Z4 inside D4 as the rotation subgroup
    d4 = dihedral(4)
    z4 = cyclic(4)
    for f in homomorphisms(z4, d4):
        if len(set(f.tolist())) == 4:
            return HomDatum(z4, d4, f)
    raise AssertionError


# ---- hom datum validation -----------------------------------------------------------


def test_hom_datum_requires_index_two():
    with pytest.raises(ValidationError):
        HomDatum(cyclic(2), cyclic(2), np.array([0, 1]))  # surjective: cokernel trivial
    with pytest.raises(ValidationError):
        HomDatum(cyclic(3), cyclic(3), np.zeros(3, dtype=np.int64))  # cokernel of order 3
    with pytest.raises(ValidationError):
        HomDatum(cyclic(4), cyclic(4), np.array([0, 1, 2, 3]) * 0 + np.array([0, 3, 2, 1]))


def test_a_datum_phi_kept_cannot_change():
    """phi's output keeps its datum for gamma, so a datum's fields cannot be
    reassigned (gamma raised a bare IndexError after h.mapping was); a new
    datum goes through the checks."""
    import dataclasses

    h = doubling_datum()
    fr = phi(h)
    for field, value in (("mapping", np.zeros(4, dtype=np.int64)), ("target", cyclic(2)), ("source", cyclic(2))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, field, value)
    assert gamma(fr).mapping.tolist() == gamma(FeudalRule(fr.rule, fr.serfs)).mapping.tolist()
    with pytest.raises(ValidationError, match="^cokernel must have order 2$"):
        dataclasses.replace(h, mapping=[0, 0, 0, 0])


def test_hom_datum_parts():
    h = doubling_datum()
    assert h.kernel_ids == (0, 2)
    assert h.image_ids == (0, 2)
    assert h.lord_ids == (1, 3)


# ---- phi ------------------------------------------------------------------------------


def test_phi_trivial_hom_gives_tambara_yamagami(ty3):
    fr = phi(trivial_z3_z2())
    assert graded_isomorphic(fr, ty3) is not None


def test_phi_doubling_gives_moore_read(mr):
    fr = phi(doubling_datum())
    assert graded_isomorphic(fr, mr) is not None


def test_phi_inclusion_gives_graded_group():
    h = inclusion_datum()
    fr = phi(h)
    want = graded_group(dihedral(4), {int(x) for x in h.mapping})
    assert graded_isomorphic(fr, want) is not None


def test_phi_lord_products_have_kernel_multiplicity():
    """(m * l) * q is |ker u| times a single lord, for every catalog datum."""
    for h in _catalog_hom_data(6):
        fr = phi(h)
        r = fr.rule
        A = len(h.kernel_ids)
        lords = fr.lord_ids
        for m, l, q in product(lords, repeat=3):
            ml = r.table[m, l]
            mlq = np.einsum("u,uz->z", ml, r.table[:, q])
            support = np.nonzero(mlq)[0]
            assert len(support) == 1 and mlq[support[0]] == A
            assert int(support[0]) in fr.lords


# ---- gamma ----------------------------------------------------------------------------


def test_gamma_moore_read_is_doubling(mr):
    assert hom_datum_isomorphic(gamma(mr), doubling_datum()) is not None


def test_gamma_ty_is_trivial_hom(ty3):
    assert hom_datum_isomorphic(gamma(ty3), trivial_z3_z2()) is not None


def test_gamma_graded_group_is_inclusion():
    d4 = dihedral(4)
    serfs = sorted(d4.index2_subgroups()[0])
    fr = graded_group(d4, serfs)
    h = gamma(fr)
    assert len(h.kernel_ids) == 1  # inclusion: trivial kernel
    assert hom_datum_isomorphic(h, HomDatum(h.source, h.target, h.mapping)) is not None


# ---- round trips ----------------------------------------------------------------------


def test_round_trips_on_anchors(mr, ty2):
    assert round_trip_check(doubling_datum())
    assert round_trip_check(ty2)
    assert round_trip_check(graded_group(cyclic(4), {0, 2}))
    assert round_trip_check(mr)


def _catalog_hom_data(max_g: int):
    out = []
    cat = standard_catalog(max_g)
    for S in cat:
        for G in cat:
            if len(G) % 2 or len(G) > max_g:
                continue
            for u in homomorphisms(S, G):
                if 2 * len(set(u.tolist())) == len(G):
                    out.append(HomDatum(S, G, u))
    return out


def test_detect_recovers_serfs_from_phi():
    for h in _catalog_hom_data(4):
        fr = phi(h)
        det = detect_feudal(fr.rule)
        assert det is not None
        if len(h.kernel_ids) > 1:
            # properly feudal: detection is forced and unique
            assert det.serfs == fr.serfs
            assert det.grading_count == 1


# ---- detection ------------------------------------------------------------------------


def test_detect_feudal_anchors(mr, ty3):
    det = detect_feudal(mr.rule)
    assert det.serfs == mr.serfs and det.lords == {4, 5}
    det3 = detect_feudal(ty3.rule)
    assert det3.serfs == set(range(3))
    assert detect_feudal(group_rule(cyclic(3))) is None


def test_detect_flags_grading_multiplicity(v4_rule):
    det = detect_feudal(v4_rule)
    assert det is not None and det.grading_count == 3
    z4 = detect_feudal(group_rule(cyclic(4)))
    assert z4.grading_count == 1
    # exhaustive grading search agrees with the subgroup count on groups
    assert len(z2_feudal_gradings(v4_rule)) == 3
    assert len(z2_feudal_gradings(group_rule(cyclic(4)))) == 1


def test_properly_feudal_grading_is_unique(mr, ty2, ty3):
    for fr in (mr, ty2, ty3):
        assert z2_feudal_gradings(fr.rule) == [fr.serfs]


def test_lord_pair_products_are_stabilizer_cosets(mr, ty3):
    """m*l = {a : mbar a = l} = {a : m = a lbar}, computed three ways."""
    for fr in (mr, ty3, graded_group(cyclic(4), {0, 2})):
        r = fr.rule
        for m, l in product(fr.lord_ids, repeat=2):
            direct = set(r.support(m, l))
            mb, lb = int(r.dual[m]), int(r.dual[l])
            via_left = {a for a in fr.serf_ids if fr.act_right(mb, a) == l}
            via_right = {a for a in fr.serf_ids if fr.act_left(a, lb) == m}
            assert direct == via_left == via_right


# ---- enumeration ------------------------------------------------------------------------


def test_enumerate_feudal_order_3(ty2):
    res = enumerate_feudal(3)
    assert len(res.rules) == 1
    assert graded_isomorphic(res.rules[0], ty2) is not None
    assert not res.warnings


def test_enumerate_feudal_order_2_empty():
    assert enumerate_feudal(2).rules == []


def test_enumerate_feudal_order_6_contains_mr(mr):
    res = enumerate_feudal(6)
    assert any(graded_isomorphic(fr, mr) is not None for fr in res.rules)
    # herd check: every output is properly feudal and distinct up to isomorphism
    for i, fr in enumerate(res.rules):
        assert detect_feudal(fr.rule) is not None
        for other in res.rules[i + 1 :]:
            assert graded_isomorphic(fr, other) is None


def test_enumerate_feudal_warns_beyond_curated_orders():
    res = enumerate_feudal(10)
    assert res.warnings and "curated" in res.warnings[0]
    from fusionkit.errors import DomainError

    with pytest.raises(DomainError):
        enumerate_feudal(17)


def _reference_enumerate_hom_data(max_order, catalog):
    """enumerate_feudal's hom data as they were: each new datum compared with every kept one."""
    found = []
    for S in catalog:
        for G in catalog:
            if len(G) % 2 or len(S) + len(G) // 2 > max_order:
                continue
            for u in homomorphisms(S, G):
                if 2 * len(set(u.tolist())) != len(G):
                    continue
                if sum(1 for a in range(len(S)) if int(u[a]) == G.unit) < 2:
                    continue
                h = HomDatum(S, G, u)
                if not any(hom_datum_isomorphic(h, other) for other in found):
                    found.append(h)
    return found


def _relabelled(g, perm, name):
    """g carried over to the ids perm: element a of g is perm[a], labelled afresh."""
    perm = np.asarray(perm)
    table = np.empty_like(g.table)
    table[perm[:, None], perm] = perm[g.table]
    return FiniteGroup([f"{name}{i}" for i in range(len(g))], table, name=name)


def test_enumerate_feudal_dedupe_matches_reference():
    """Comparing a new datum only with the kept data of its invariant keeps
    the same data, in the same order, as comparing it with all of them:
    through order 12, and on a catalog with two copies each of Z4 and Z2xZ2
    on other tables and labels, so that neither object nor table identity
    tells the copies apart."""
    z4, v4 = cyclic(4), direct_product(cyclic(2), cyclic(2))
    z4b, v4b = _relabelled(z4, [1, 3, 0, 2], "c"), _relabelled(v4, [1, 2, 3, 0], "v")
    assert z4b.table_key != z4.table_key and v4b.table_key != v4.table_key and z4b.unit == v4b.unit == 1
    custom = [cyclic(2), z4, v4, cyclic(3), z4b, v4b, dihedral(3)]
    for max_order, catalog in ((12, standard_catalog(12)), (7, custom)):
        got = enumerate_feudal(max_order, catalog).hom_data
        want = _reference_enumerate_hom_data(max_order, catalog)
        assert len(got) == len(want) > 0
        assert all(h.source is w.source and h.target is w.target for h, w in zip(got, want))
        assert [h.mapping.tolist() for h in got] == [w.mapping.tolist() for w in want]
    # the copies give data (squaring on Z4 among them), each isomorphic to one on the originals
    assert any(len(set(u.tolist())) == 2 for u in homomorphisms(z4b, z4))
    assert len(got) == len(enumerate_feudal(7, [g for g in custom if g is not z4b and g is not v4b]).hom_data)


# ---- array kernels against the loops they replace ---------------------------------------


def _reference_phi_table(h):
    S, G, u = h.source, h.target, h.mapping
    ns, lords = len(S), list(h.lord_ids)
    lpos = {m: ns + i for i, m in enumerate(lords)}
    n = ns + len(lords)
    table = np.zeros((n, n, n), dtype=np.int64)
    for a, b in product(range(ns), repeat=2):
        table[a, b, S.mul(a, b)] = 1
    for a in range(ns):
        for m in lords:
            table[a, lpos[m], lpos[G.mul(int(u[a]), m)]] = 1
            table[lpos[m], a, lpos[G.mul(m, int(u[a]))]] = 1
    for m, l in product(lords, repeat=2):
        for a in range(ns):
            if int(u[a]) == G.mul(m, l):
                table[lpos[m], lpos[l], a] = 1
    dual = [int(S.inv[a]) for a in range(ns)] + [lpos[int(G.inv[m])] for m in lords]
    return table, dual


def _reference_feudal_check(rule, serfs):
    """FeudalRule's validation as per-lord and per-pair loops: the first failure's message, or None."""
    r, serfs = rule, frozenset(serfs)
    lords = frozenset(range(r.n)) - serfs

    def support(x, y):
        return tuple(np.nonzero(r.table[x, y])[0].tolist())

    try:
        if any(x not in range(r.n) for x in serfs):
            raise ValidationError("serfs must be elements of the carrier")
        if not lords:
            raise ValidationError("a feudal rule needs at least one lord")
        if not r.is_multiplicity_free:
            raise ValidationError("feudal rules are multiplicity-free")
        if not is_grading(r, np.array([0 if x in serfs else 1 for x in range(r.n)]), cyclic(2)):
            raise ValidationError("serf/lord split is not a Z2 grading")
        group_from_members(r, serfs)
        for act in (lambda a, m: support(a, m), lambda a, m: support(m, a)):
            for m in sorted(lords):
                orbit = {m}
                for a in sorted(serfs):
                    got = act(a, m)
                    if len(got) != 1:
                        raise ValidationError("serf action on lords is not single-valued")
                    orbit.add(got[0])
                if orbit != lords:
                    raise ValidationError("serf action on lords is not transitive")
        ad = sorted(adjoint_subrule(r))
        for m, l in product(sorted(lords), repeat=2):
            prod_supp = set(support(m, l))
            if not prod_supp <= serfs:
                raise ValidationError("lords do not fuse into serfs")
            if not prod_supp:  # the loops raised StopIteration here; an empty product is no coset
                raise ValidationError("lord products are not adjoint cosets")
            base = next(iter(prod_supp))
            if prod_supp != {support(a, base)[0] for a in ad}:
                raise ValidationError("lord products are not adjoint cosets")
    except ValidationError as exc:
        return str(exc)
    return None


def _feudal_check(rule, serfs):
    try:
        FeudalRule(rule, serfs)
    except ValidationError as exc:
        return str(exc)
    return None


def test_lord_in_a_product_of_lords_is_no_grading():
    # Fibonacci: t*t = 1 + t; and Z3 split as {0} | {1, 2}, where 1*1 = 2
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = table[1, 1, 0] = table[1, 1, 1] = 1
    fib = FusionRule(["1", "t"], table, 0, [0, 1])
    for rule in (fib, group_rule(cyclic(3))):
        assert rule.table[1, 1, rule.n - 1] == 1  # a lord in the product of two lords
        assert _feudal_check(rule, {0}) == "serf/lord split is not a Z2 grading"


def _reference_hom_datum_check(S, G, mapping):
    u = np.asarray(mapping, dtype=np.int64)
    if u.shape != (len(S),):
        return "mapping must be total on the source"
    if any(not 0 <= v < len(G) for v in u.tolist()):
        return "mapping must take values in the target"
    for a, b in product(range(len(S)), repeat=2):
        if G.mul(int(u[a]), int(u[b])) != int(u[S.mul(a, b)]):
            return "mapping is not a homomorphism"
    if 2 * len(set(u.tolist())) != len(G):
        return "cokernel must have order 2"
    return None


def _reference_hom_datum_isomorphic(h1, h2):
    for h0 in isomorphisms(h1.source, h2.source):
        for t in isomorphisms(h1.target, h2.target):
            if any(int(t[h1.mapping[a]]) != int(h2.mapping[h0[a]]) for a in range(len(h1.source))):
                continue
            if any(int(t[m]) not in h2.lord_ids for m in h1.lord_ids):
                continue
            return h0, t
    return None


def _pair(found):
    return None if found is None else (found[0].tolist(), found[1].tolist())


def test_phi_table_matches_reference(hom_data_8, phi_rules_8):
    for h, fr in zip(hom_data_8, phi_rules_8):
        table, dual = _reference_phi_table(h)
        assert (fr.rule.table == table).all() and fr.rule.dual.tolist() == dual


def test_hom_datum_isomorphic_witness_matches_reference(hom_data_8, phi_rules_8):
    rng = random.Random(2)
    by_shape = {}
    for h in hom_data_8:
        by_shape.setdefault((len(h.source), len(h.target)), []).append(h)
    found_none = 0
    for i in rng.sample(range(len(hom_data_8)), 150):
        h = hom_data_8[i]
        back = gamma(phi_rules_8[i])
        other = rng.choice(by_shape[(len(h.source), len(h.target))])
        for h1, h2 in ((back, h), (h, other), (other, back)):
            got = hom_datum_isomorphic(h1, h2)
            assert _pair(got) == _pair(_reference_hom_datum_isomorphic(h1, h2))
            found_none += got is None
    assert found_none > 25


def test_hom_datum_validation_matches_reference():
    rng = random.Random(4)
    cat = standard_catalog(8)
    seen = set()
    for _ in range(400):
        S, G = rng.choice(cat), rng.choice(cat)
        mapping = [rng.randrange(len(G)) for _ in range(len(S) + (rng.random() < 0.05))]
        if rng.random() < 0.3 and len(G) % 2 == 0:
            good = [u for u in homomorphisms(S, G) if 2 * len(set(u.tolist())) == len(G)]
            mapping = list(rng.choice(good)) if good else mapping
        want = _reference_hom_datum_check(S, G, mapping)
        try:
            HomDatum(S, G, mapping)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == want
        seen.add(want)
    assert len(seen) == 4, seen


def test_feudal_validation_matches_reference(phi_rules_8):
    rng = random.Random(6)
    seen = {}
    for fr in rng.sample(phi_rules_8, 200):
        r, n = fr.rule, fr.rule.n
        cases = [(r, set(rng.sample(range(n), rng.randint(1, n)))), (r, fr.serfs | {r.n - 1})]
        for _ in range(3):
            table = r.table.copy()
            for _ in range(rng.randint(1, 2)):
                x, y, z = (rng.randrange(n) for _ in range(3))
                table[x, y, z] = rng.choice([1, 1, 1, 2]) if table[x, y, z] == 0 else 0
            cases.append((FusionRule(r.labels, table, r.unit, r.dual), fr.serfs))
        m, l = fr.lord_ids[0], fr.lord_ids[-1]
        table = r.table.copy()
        table[list(fr.serfs), m] = 0
        table[list(fr.serfs), m, m] = 1  # every serf fixes m
        cases.append((FusionRule(r.labels, table, r.unit, r.dual), fr.serfs))
        table = r.table.copy()
        table[m, l] = 0
        table[m, l, r.unit] = 1  # m*l a single serf, not a coset of a nontrivial adjoint subrule
        cases.append((FusionRule(r.labels, table, r.unit, r.dual), fr.serfs))
        for rule, serfs in cases:
            want = _reference_feudal_check(rule, serfs)
            assert _feudal_check(rule, serfs) == want
            seen[want] = seen.get(want, 0) + 1
    # every check is reached but "lords do not fuse into serfs", which the Z2 grading check subsumes
    assert len(seen) == 8 and "lords do not fuse into serfs" not in seen, seen


def test_serfs_that_are_not_integer_ids_are_validation_errors(ty2):
    """A float serf lies in range(n) but indexes nothing, and True is not the
    serf 1: a ValidationError naming the field and the first bad serf in the
    caller's order, not a bare IndexError; a label mixed with ids is not an
    integer, not a bare TypeError from sorting."""
    cases = (([0.0, 1.0], "0.0"), ([0, 1.0], "1.0"), ([1, 0.0], "0.0"), (["1", 0], "'1'"), ({0, True}, "True"))
    for serfs, bad in cases:
        with pytest.raises(ValidationError, match=f"^serfs: {re.escape(bad)} is not an integer$"):
            FeudalRule(ty2.rule, serfs)
    assert FeudalRule(ty2.rule, [np.int64(0), 1]).serfs == ty2.serfs


def test_ids_outside_the_carrier_are_validation_errors(mr):
    for mapping in ([0, 6], [0, -1], [9, 2]):
        want = _reference_hom_datum_check(cyclic(2), cyclic(4), mapping)
        assert want == "mapping must take values in the target"
        with pytest.raises(ValidationError, match=want):
            HomDatum(cyclic(2), cyclic(4), mapping)
    # range(7) also leaves no lord on the six elements
    for serfs in ([0, 1, 2, 3, 99], [0, 1, 2, 3, -1], range(7)):
        want = _reference_feudal_check(mr.rule, serfs)
        assert want == "serfs must be elements of the carrier"
        assert _feudal_check(mr.rule, serfs) == want


def test_non_integer_mappings_are_validation_errors():
    """A float or bool mapping is refused naming its first entry, not
    truncated by the cast: [0.0, 2.7] on Z2 -> Z4 is not the mapping [0, 2].
    The entries are checked before the shape, and an integer array of any
    width is kept as int64."""
    cases = [([0.0, 2.7], "0.0"), ([0, 2.0], "2.0"), (np.array([0.0, 2.0]), "0.0"), ([False, True], "False"), ([0.5], "0.5")]
    for mapping, bad in cases:
        with pytest.raises(ValidationError, match=f"^mapping: {bad} is not an integer$"):
            HomDatum(cyclic(2), cyclic(4), mapping)
    with pytest.raises(ValidationError, match="^mapping must be total on the source$"):
        HomDatum(cyclic(2), cyclic(4), [0])
    h = HomDatum(cyclic(2), cyclic(4), np.array([0, 2], dtype=np.int32))
    assert h.mapping.dtype == np.int64 and h.mapping.tolist() == [0, 2] and not h.mapping.flags.writeable


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or real(*args))


def test_equal_feudal_rules_share_one_check(monkeypatch):
    """A FeudalRule equal in content to a checked one, its rule and serf set
    made apart, shares the checked serf group and runs _validate once; its
    serf ids are ints whatever integer type the serfs were given in.  Another
    serf set on the same rule is another content, checked again."""
    from fusionkit import rules

    monkeypatch.setattr(rules, "_COMPILED_CACHE", {})
    calls = []
    _counting(monkeypatch, FeudalRule, "_validate", calls)
    r = moore_read().rule
    first = FeudalRule(r, moore_read().serfs)  # phi checks nothing: the first check is the constructor's
    again = FeudalRule(FusionRule(r.labels, r.table.copy(), r.unit, r.dual.copy()), [np.int64(x) for x in first.serfs])
    assert calls == ["_validate"]
    assert again.serf_group is first.serf_group
    assert again.serf_ids == first.serf_ids and again.lord_ids == first.lord_ids
    assert all(type(x) is int for x in again.serf_ids)
    assert _same_feudal(again, first)
    sub = [x for x in first.serf_ids if x in r.adjoint]  # the serfs {1, -1} leave no Z2 grading
    with pytest.raises(ValidationError):
        FeudalRule(r, sub)
    assert calls == ["_validate"] * 2


def test_a_failed_check_is_never_stored(mr, monkeypatch):
    """A rule one table cell off raises the same ValidationError on every
    construction, and each construction runs the check in full: a failing
    verdict is never kept in the compiled store."""
    from fusionkit import rules

    r = mr.rule
    m, l = mr.lord_ids[0], mr.lord_ids[-1]
    z = next(z for z in mr.serf_ids if r.table[m, l, z] == 0)
    table = r.table.copy()
    table[m, l, z] = 1
    bad = FusionRule(r.labels, table, r.unit, r.dual)
    calls = []
    _counting(monkeypatch, FeudalRule, "_validate", calls)
    _counting(monkeypatch, rules, "verify_fusion_rule", calls)
    feudal_errors, axiom_errors = set(), set()
    for k in range(3):
        with pytest.raises(ValidationError) as raised:
            FeudalRule(FusionRule(bad.labels, bad.table, bad.unit, bad.dual), mr.serfs)
        feudal_errors.add(str(raised.value))
        with pytest.raises(ValidationError) as raised:
            require_valid(bad)
        axiom_errors.add(str(raised.value))
        assert calls == ["_validate", "verify_fusion_rule"] * (k + 1)
    assert feudal_errors == {_reference_feudal_check(bad, mr.serfs)}
    assert len(axiom_errors) == 1 and next(iter(axiom_errors)).startswith("not a fusion rule: associative=False")
    assert not any(key[1] in (bad.key, (bad.key, mr.serfs)) for key in rules._COMPILED_CACHE)


def test_a_round_trip_checks_each_rule_content_once(monkeypatch):
    """One round trip on a datum not seen before (HomDatum, phi, gamma,
    hom_datum_isomorphic, phi, graded_isomorphic) checks neither the fusion
    rule axioms nor the feudal split, which phi's outputs satisfy by
    construction (test_every_phi_output_passes_the_checks_phi_skips), reads
    the universal grading off the datum without deriving the adjoint
    subrule or its cosets, and finds the graded isomorphism, the identity,
    without entering the isomorphism search.  On an empty group axiom store
    it checks the table axioms once for each distinct table of the groups it
    builds."""
    from fusionkit import feudal, groups, rules

    monkeypatch.setattr(rules, "_COMPILED_CACHE", {})
    monkeypatch.setattr(groups, "_AXIOM_CACHE", {})
    calls, checked, built = [], [], []
    _counting(monkeypatch, rules, "verify_fusion_rule", calls)
    _counting(monkeypatch, FeudalRule, "_validate", calls)
    _counting(monkeypatch, rules, "_isomorphism_search", calls)
    for owner in (feudal, rules):
        _counting(monkeypatch, owner, "universal_grading", calls)
    _counting(monkeypatch, rules, "left_cosets", calls)
    _counting(monkeypatch, rules, "subrule_generated", calls)
    real_axioms, real_init = groups._table_axioms, groups.FiniteGroup.__init__
    monkeypatch.setattr(groups, "_table_axioms", lambda t, labels: checked.append(t.tobytes()) or real_axioms(t, labels))

    def init(g, *args, **kwargs):
        real_init(g, *args, **kwargs)
        built.append(g.table_key)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", init)
    h = HomDatum(cyclic(4), cyclic(4), [0, 2, 0, 2])  # squaring: phi(h) is Moore-Read
    rule = phi(h)
    back = gamma(rule)
    assert hom_datum_isomorphic(back, h) is not None
    perm = graded_isomorphic(phi(back), rule)
    assert perm.tolist() == list(range(rule.rule.n))
    assert calls == []
    assert len(built) > len(set(built)) and sorted(checked) == sorted(set(built))


def test_gamma_derives_and_checks_the_grading_of_a_checked_rule(mr, monkeypatch):
    """A FeudalRule built through the public constructor or detect_feudal
    holds no hom datum, so gamma derives its grading with universal_grading,
    once a call, which checks it with is_grading; the datum it gives equals,
    byte for byte, the one gamma reads off moore_read()'s datum."""
    from fusionkit import feudal, rules

    want = gamma(moore_read())
    calls = []
    for fr in (FeudalRule(mr.rule, mr.serfs), detect_feudal(mr.rule)):
        assert fr._phi_datum is None
        _counting(monkeypatch, feudal, "universal_grading", calls)
        _counting(monkeypatch, rules, "is_grading", calls)
        got = gamma(fr)
        monkeypatch.undo()
        assert calls == ["universal_grading", "is_grading"]
        calls.clear()
        assert got.mapping.tobytes() == want.mapping.tobytes()
        g, w = got.target, want.target
        assert (g.labels, g.table.tobytes(), g.name) == (w.labels, w.table.tobytes(), w.name)


def test_detect_feudal_reads_the_stored_verdict(mr, monkeypatch):
    """detect_feudal checks the axioms through require_valid: on an equal rule
    made apart a second call does not run verify_fusion_rule, while a rule
    one table cell off gives None on every call, each checking it in full."""
    from fusionkit import rules

    monkeypatch.setattr(rules, "_COMPILED_CACHE", {})
    calls = []
    _counting(monkeypatch, rules, "verify_fusion_rule", calls)
    r = mr.rule
    first, again = (detect_feudal(FusionRule(r.labels, r.table.copy(), r.unit, r.dual.copy())) for _ in range(2))
    assert calls == ["verify_fusion_rule"]
    assert again.serfs == first.serfs == mr.serfs and again.grading_count == 1
    table = r.table.copy()
    m, l = mr.lord_ids[0], mr.lord_ids[-1]
    table[m, l, next(z for z in mr.serf_ids if r.table[m, l, z] == 0)] = 1
    for k in range(2):
        assert detect_feudal(FusionRule(r.labels, table, r.unit, r.dual)) is None
        assert calls == ["verify_fusion_rule"] * (k + 2)


def test_round_trip_witness_is_the_searchs_first_isomorphism(phi_rules_8):
    """On a seeded sample of the 834 phi outputs, graded_isomorphic(phi(gamma(L)), L)
    is the first entry of the full search's list of graded isomorphisms."""
    rng = random.Random(27)
    for fr in rng.sample(phi_rules_8, 120):
        back = phi(gamma(fr))
        sec = _reference_sectors(back, fr)
        full = rule_isomorphisms(back.rule, fr.rule, sector=sec, bound=fr.rule.n)
        assert graded_isomorphic(back, fr).tolist() == full[0].tolist()


def _reference_sectors(f1, f2):
    return [[0 if x in f.serfs else 1 for x in range(f.rule.n)] for f in (f1, f2)]


def test_graded_isomorphic_sectors_match_reference(phi_rules_8, monkeypatch):
    """graded_isomorphic scatters its two sector rows over the serf ids; they
    equal the per-element loop's on phi outputs, whose serfs come first, and
    on graded groups and detected rules, whose serfs do not."""
    from fusionkit import feudal

    seen, real = [], feudal.rule_isomorphisms
    monkeypatch.setattr(feudal, "rule_isomorphisms", lambda a, b, **kw: seen.append(kw["sector"]) or real(a, b, **kw))
    d4 = dihedral(4)
    z4 = graded_group(cyclic(4), {0, 2})
    pairs = [(fr, fr) for fr in phi_rules_8[::40]] + [(z4, detect_feudal(z4.rule)), (phi(gamma(z4)), z4)]
    pairs += [(graded_group(d4, s), graded_group(d4, t)) for s in d4.index2_subgroups() for t in d4.index2_subgroups()]
    for f1, f2 in pairs:
        graded_isomorphic(f1, f2)
        assert seen.pop().tolist() == _reference_sectors(f1, f2)


# sha256 of the round trip on all 834 hom data, recorded once; a kernel rewrite must
# reproduce it, never re-record it
ROUND_TRIP_SHA256 = "73292f3dac9e4e02af77c3f79d3a0ec972e3ecf24bed6d63e07ba38292e2c46a"


def test_round_trip_digest(hom_data_8, phi_rules_8):
    """phi's labels, table and dual, gamma's mapping and target table, and both isomorphism witnesses."""
    digest = hashlib.sha256()
    for h, fr in zip(hom_data_8, phi_rules_8):
        back = gamma(fr)
        perm = graded_isomorphic(phi(back), fr)
        r = fr.rule
        digest.update(repr((
            r.labels, r.table.tolist(), r.dual.tolist(),
            back.mapping.tolist(), back.target.table.tolist(),
            _pair(hom_datum_isomorphic(back, h)),
            None if perm is None else perm.tolist(),
        )).encode())
    assert digest.hexdigest() == ROUND_TRIP_SHA256


# ---- the named rules as images of phi ----------------------------------------------------


def _reference_group_rule(g):
    n = len(g)
    table = np.zeros((n, n, n), dtype=np.int64)
    for a, b in product(range(n), repeat=2):
        table[a, b, g.mul(a, b)] = 1
    return FusionRule(g.labels, table, g.unit, g.inv)


def _reference_tambara_yamagami(a, lord_label="m"):
    n = len(a)
    labels = list(a.labels) + [lord_label]
    table = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    for x, y in product(range(n), repeat=2):
        table[x, y, a.mul(x, y)] = 1
    table[n, : n + 1, :], table[: n + 1, n, :] = 0, 0
    for x in range(n):
        table[x, n, n] = 1
        table[n, x, n] = 1
    table[n, n, :n] = 1
    dual = list(a.inv) + [n]
    rule = require_valid(FusionRule(labels, table, a.unit, dual))
    return FeudalRule(rule, range(n))


def _reference_moore_read():
    labels = ["1", "-1", "i", "-i", "i'", "-i'"]
    vals = {"1": 1, "-1": -1, "i": 1j, "-i": -1j}
    serf_of = {v: k for k, v in vals.items()}
    lord_of = {1j: "i'", -1j: "-i'"}
    idx = {lab: k for k, lab in enumerate(labels)}
    table = np.zeros((6, 6, 6), dtype=np.int64)
    for x, p in vals.items():
        for y, q in vals.items():
            table[idx[x], idx[y], idx[serf_of[p * q]]] = 1
    for x, p in vals.items():
        for lm, q in (("i'", 1j), ("-i'", -1j)):
            table[idx[x], idx[lm], idx[lord_of[p * p * q]]] = 1
            table[idx[lm], idx[x], idx[lord_of[p * p * q]]] = 1
    # lord products: p' * q' = the two square roots of p*q
    table[idx["i'"], idx["i'"], idx["i"]] = 1
    table[idx["i'"], idx["i'"], idx["-i"]] = 1
    table[idx["-i'"], idx["-i'"], idx["i"]] = 1
    table[idx["-i'"], idx["-i'"], idx["-i"]] = 1
    table[idx["i'"], idx["-i'"], idx["1"]] = 1
    table[idx["i'"], idx["-i'"], idx["-1"]] = 1
    table[idx["-i'"], idx["i'"], idx["1"]] = 1
    table[idx["-i'"], idx["i'"], idx["-1"]] = 1
    dual = [idx["1"], idx["-1"], idx["-i"], idx["i"], idx["-i'"], idx["i'"]]
    rule = require_valid(FusionRule(labels, table, 0, dual))
    return FeudalRule(rule, [idx[x] for x in ("1", "-1", "i", "-i")])


def _same_feudal(got, want):
    return got.rule.key == want.rule.key and got.serfs == want.serfs and got.grading_count == want.grading_count


def test_named_rules_match_reference():
    """Tambara-Yamagami and the group rules, built through phi and one
    comparison, equal the cell-by-cell tables on the catalog through order 15
    plus Z2xD3, with lord labels m, q and x'; a lord label that is already a
    serf label is refused as before; Moore-Read equals its hand-filled table."""
    groups = standard_catalog(15) + [direct_product(cyclic(2), dihedral(3))]
    assert len(groups) == 27
    for g in groups:
        assert group_rule(g).key == _reference_group_rule(g).key
        for lord in ("m", "q", "x'"):
            assert _same_feudal(tambara_yamagami(g, lord), _reference_tambara_yamagami(g, lord))
        for lord in g.labels:
            for build in (tambara_yamagami, _reference_tambara_yamagami):
                with pytest.raises(ValidationError, match="^duplicate labels$"):
                    build(g, lord)
    assert _same_feudal(moore_read(), _reference_moore_read())


def test_an_odd_group_rule_has_no_feudal_structure():
    """A group of odd order has no index-2 subgroup, so its rule has no serf
    set; Z4 has one, and is feudal on it."""
    for g in (cyclic(3), cyclic(5)):
        assert detect_feudal(group_rule(g)) is None
    assert detect_feudal(group_rule(cyclic(4))).serf_ids == (0, 2)


# ---- phi's proof obligation ---------------------------------------------------------------


def _assert_phi_output_passes_the_full_checks(h, fr):
    """fr = phi(h) passes verify_fusion_rule and the full FeudalRule check,
    which find the serfs, lords and serf group phi built unchecked; its
    adjoint subrule is ker u; and the grading gamma reads off the datum fr
    keeps equals universal_grading's, derived and checked, in every field."""
    r, ns = fr.rule, len(h.source)
    assert fr._phi_datum is h
    got, want = _datum_grading(fr._phi_datum, r), universal_grading(r)
    assert got.subrule == want.subrule == frozenset(h.kernel_ids)
    assert got.cosets == want.cosets
    assert got.projection.dtype == want.projection.dtype and got.projection.tobytes() == want.projection.tobytes()
    g, w = got.group, want.group
    assert (g.labels, g.table.tobytes(), g.name) == (w.labels, w.table.tobytes(), w.name)
    assert verify_fusion_rule(r).passed
    checked = FeudalRule(r, fr.serfs)
    assert checked.serf_ids == fr.serf_ids == tuple(range(ns))
    assert checked.lord_ids == fr.lord_ids == tuple(range(ns, r.n))
    got, want = fr.serf_group, checked.serf_group
    assert (got.labels, got.table.tobytes(), got.name) == (want.labels, want.table.tobytes(), want.name)
    assert fr.grading_count == checked.grading_count == 1
    assert tuple(sorted(r.adjoint)) == h.kernel_ids


def test_every_phi_output_passes_the_checks_phi_skips(hom_data_8, monkeypatch):
    """phi checks no rule axiom and no feudal split, and gamma reads a phi
    output's grading off its datum; this oracle runs every check in full,
    with the compiled store off, on every phi output: the 834 hom data
    of order at most 8, the 41 data behind enumerate_feudal(11), and the data
    behind TY(A) for A in the catalog through order 8 and Moore-Read."""
    from fusionkit import feudal, rules

    monkeypatch.setattr(rules, "_COMPILED_CACHE", {})
    monkeypatch.setattr(rules, "COMPILED_LIMIT", 0)  # the store keeps nothing: every check runs
    enum = enumerate_feudal(11)
    named, real = [], feudal.phi
    monkeypatch.setattr(feudal, "phi", lambda h: named.append((h, real(h))) or named[-1][1])
    catalog = standard_catalog(8)
    built = [tambara_yamagami(a) for a in catalog] + [moore_read()]
    assert [fr for _, fr in named] == built and len(built) == len(catalog) + 1
    pairs = [(h, phi(h)) for h in hom_data_8] + list(zip(enum.hom_data, enum.rules)) + named
    assert len(hom_data_8) == 834 and len(enum.rules) == 41
    for h, fr in pairs:
        _assert_phi_output_passes_the_full_checks(h, fr)
    assert rules._COMPILED_CACHE == {}


def _unchecked_path_users(source: str) -> list[str]:
    """The functions of source, by dotted name ("<module>" at top level), that
    name FeudalRule._from_phi: an attribute, a bare name or a string, each
    occurrence once."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, [*scope, child.name])
                continue
            names = (getattr(child, "attr", None), getattr(child, "id", None), getattr(child, "value", None))
            if "_from_phi" in names:
                found.append(".".join(scope) or "<module>")
            walk(child, scope)

    walk(ast.parse(source), [])
    return found


def _datum_writers(source: str) -> list[str]:
    """The functions of source, by dotted name ("<module>" at top level, the
    class name in a class body), that give _phi_datum a value: an attribute
    or a name stored or deleted, a keyword, or a string (setattr, vars()),
    each occurrence once.  An assignment of the literal None hands gamma no
    datum and is not counted."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, [*scope, child.name])
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and isinstance(child.value, ast.Constant) and child.value.value is None:
                continue
            stored = isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del))
            names = (getattr(child, "attr", None), getattr(child, "id", None)) if stored else ()
            if "_phi_datum" in (*names, getattr(child, "arg", None), getattr(child, "value", None)):
                found.append(".".join(scope) or "<module>")
            walk(child, scope)

    walk(ast.parse(source), [])
    return found


def test_only_phi_takes_the_unchecked_path():
    """FeudalRule._from_phi skips every check; phi is the one caller, so no
    other path to a FeudalRule skips them.  gamma trusts the datum a
    FeudalRule keeps as _phi_datum, and _from_phi is the one function that
    sets it, so no other path hands gamma an unchecked grading."""
    snippet = 'FeudalRule._from_phi(r, 1, g)\nclass C:\n    def m(self):\n        return getattr(F, "_from_phi"), _from_phi\n'
    assert _unchecked_path_users(snippet) == ["<module>", "C.m", "C.m"]
    found = {p.name: _unchecked_path_users(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 10 and {name: users for name, users in found.items() if users} == {"feudal.py": ["phi"]}
    snippet = (
        "class F:\n    _phi_datum: object = None\n    def a(self, h):\n        self._phi_datum = h\n"
        "    def b(self, h):\n        setattr(self, '_phi_datum', h)\n        del self._phi_datum\n"
        "        self._phi_datum = None\n        return self._phi_datum, replace(self, _phi_datum=h)\n"
        "_phi_datum = 2\n"
    )
    assert _datum_writers(snippet) == ["F.a", "F.b", "F.b", "F.b", "<module>"]
    found = {p.name: _datum_writers(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 10 and {name: users for name, users in found.items() if users} == {"feudal.py": ["FeudalRule._from_phi"]}
