import copy
import functools
import pickle
import random
import re
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from fusionkit import (
    Ambi,
    Field,
    FusionSystem,
    admissible_sextuples,
    apply_gauge,
    cyclic,
    enumerate_fusion_systems_bruteforce,
    enumerate_uber,
    group_rule,
    identity_gauge,
    klein_four,
    random_gauge,
    recoupling_matrix,
    verify_fusion_system,
)
from fusionkit.errors import DomainError, ResourceError, ValidationError
from fusionkit.feudal import detect_feudal
from fusionkit.fields import MAX_MODULUS
from fusionkit.rules import FusionRule
from fusionkit.systems import (
    DEFAULT_BUDGET_BITS,
    GaugeXi,
    Sextuple,
    matrix_inverse_modp,
    pentagon_instances,
)


def oracle_sextuples(rule):
    """Independent nested-loop generator straight from the membership conditions."""
    out = []
    T, n = rule.table, rule.n
    for x, y, z, u, v, r in product(range(n), repeat=6):
        if T[x, y, u] and T[y, z, v] and T[u, z, r] and T[x, v, r]:
            out.append((x, y, z, u, r, v))
    return sorted(out)


def trivial_system(rule, field):
    return FusionSystem(rule, field, {k: 1 for k in admissible_sextuples(rule)})


# ---- admissibility ---------------------------------------------------------------


def test_admissible_counts_frozen(ty2, mr):
    z2 = group_rule(cyclic(2))
    assert len(admissible_sextuples(z2)) == 8
    # oracle-derived values: 8 serf-only plus 28 involving the lord
    assert len(admissible_sextuples(ty2.rule)) == 36
    assert len(admissible_sextuples(mr.rule)) == 288


def test_admissible_matches_oracle(ty2, mr, ty3):
    for fr in (ty2, ty3, mr):
        assert sorted(admissible_sextuples(fr.rule)) == oracle_sextuples(fr.rule)


def test_admissible_rejects_multiplicity():
    from tests.test_rules import fibonacci_rule

    fib = fibonacci_rule()
    assert not (fib.table <= 1).all() or True
    # build a rule with multiplicity 2: (m*m)*m in a thickened table
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = 1
    t[0, 1, 1] = t[1, 0, 1] = 1
    t[1, 1, 0] = 2
    from fusionkit import FusionRule

    thick = FusionRule(["1", "x"], t, 0, [0, 1])
    with pytest.raises(DomainError):
        admissible_sextuples(thick)


# ---- verification -----------------------------------------------------------------


def test_trivial_system_on_group_passes(f5):
    z2 = group_rule(cyclic(2))
    rep = verify_fusion_system(trivial_system(z2, f5))
    assert rep.passed and rep.one_top_ok


def test_cocycle_twist_passes_and_non_cocycle_fails(f5):
    z2 = group_rule(cyclic(2))
    for t, good in ((1, True), (4, True), (2, False), (3, False)):
        coeffs = {k: 1 for k in admissible_sextuples(z2)}
        coeffs[(1, 1, 1, 0, 1, 0)] = t
        rep = verify_fusion_system(FusionSystem(z2, f5, coeffs))
        assert rep.passed is good
        if not good:
            assert rep.pentagon_failures  # witness tuples are reported


def test_support_is_validated(f5):
    z2 = group_rule(cyclic(2))
    good = {k: 1 for k in admissible_sextuples(z2)}
    with pytest.raises(ValidationError):
        FusionSystem(z2, f5, good | {(0, 0, 0, 0, 0, 1): 1})
    with pytest.raises(ValidationError):
        FusionSystem(z2, f5, good | {(0, 0, 0, 0, 0, 0): 0})
    missing = dict(good)
    missing.popitem()
    with pytest.raises(ValidationError):
        FusionSystem(z2, f5, missing)


def _ty_closed_form_system(g, field):
    """A TY(g) class on an elementary abelian 2-group g from the closed form:
    chi(a,b) = (-1)^(a.b) on coordinates along a generating sequence, ups = 1
    and tau^2 = 1/|g|."""
    from fusionkit import Ambi, reconstruct, tambara_yamagami
    from fusionkit.uber import Uberderivation

    fr = tambara_yamagami(g)
    gens = g.generating_sequence()
    coords = {}
    for es in product((0, 1), repeat=len(gens)):
        x = g.unit
        for e, h in zip(es, gens):
            x = g.mul(x, h) if e else x
        coords[x] = es
    minus = field.p - 1
    chi = {
        (a, b): [minus if sum(i * j for i, j in zip(coords[a], coords[b])) % 2 else 1]
        for a in fr.serf_ids
        for b in fr.serf_ids
    }
    ups = {(a, b): [1] for a in fr.serf_ids for b in fr.serf_ids}
    tau = next(t for t in range(1, field.p) if len(g) * t * t % field.p == 1)
    return reconstruct(Uberderivation(Ambi(fr, field), chi, ups, [tau]))


@pytest.fixture(scope="module")
def check_systems(f13, f17, ty3, mr):
    """Accepted systems: a class of Moore-Read, TY(Z3)@13 and the (Z4,V4)
    six-element rule from enumerate_uber, and TY(Z2), TY(Z2xZ2), TY(Z2^3)
    from the closed form."""
    from fusionkit import Ambi, direct_product, enumerate_uber, klein_four, reconstruct
    from tests.test_uber import _six_element_rule

    six = _six_element_rule(cyclic(4), klein_four())
    classes = [
        reconstruct(enumerate_uber(Ambi(fr, F), with_orbits=False).class_reps[0])
        for fr, F in ((mr, f17), (ty3, f13), (six, f17))
    ]
    for g in (cyclic(2), klein_four(), direct_product(cyclic(2), klein_four())):
        classes.append(_ty_closed_form_system(g, f17))
    return classes


def test_compiled_pentagon_matches_scalar_reference(check_systems):
    """verify_fusion_system reports exactly the instances, in instance order,
    on which pentagon_instance_value finds the two sides different."""
    from fusionkit.systems import pentagon_instance_value, pentagon_instances

    rng = random.Random(404)
    checked = []
    for f in check_systems:
        rule, F = f.rule, f.field
        assert verify_fusion_system(f).passed
        coeffs = dict(apply_gauge(f, random_gauge(rule, F, rng)).coeffs)
        for k in rng.sample(sorted(coeffs), rng.randint(1, 3)):
            coeffs[k] = coeffs[k] * rng.randrange(2, F.p) % F.p
        g = FusionSystem(rule, F, coeffs)
        insts = pentagon_instances(rule)
        want = []
        for inst in insts:
            lhs, rhs = pentagon_instance_value(g, inst)
            if lhs != rhs:
                want.append(inst[:9])
        rep = verify_fusion_system(g, witness_cap=10**9)
        assert rep.pentagon_failures == want and want
        assert not rep.pentagon_ok
        assert rep.pentagon_checked == len(insts)
        for cap in (0, 16):
            assert verify_fusion_system(g, witness_cap=cap).pentagon_failures == want[: max(cap, 1)]
        checked.append(rep.pentagon_checked)
    assert checked[::5] == [3072, 58368]  # Moore-Read, TY(Z2^3)


def _reference_pentagon_program(rule) -> dict:
    """The walked fields of _pentagon_program(rule) from the loops that built
    them before: the live pentagon instances per (w,x,y,z), then p, q, u, v
    and r, their terms per s, with supports as bit masks; and each recoupling
    block (x,y,z,r), r in first-seen order, with its slot matrix."""
    slot = {k: i for i, k in enumerate(admissible_sextuples(rule))}
    zero = len(slot)
    n = rule.n
    sup = [rule.support(a, b) for a in range(n) for b in range(n)]
    mask = [sum(1 << r for r in s) for s in sup]
    total = 0
    lhs, terms, starts, wit = [], [], [], []
    for w, x, y, z in product(range(n), repeat=4):
        xy = sup[x * n + y]
        for pp in sup[w * n + x]:
            for q in sup[y * n + z]:
                m_pq = mask[pp * n + q]
                for u in sup[pp * n + y]:
                    m_uz = mask[u * n + z]
                    for v in sup[x * n + q]:
                        m_wv = mask[w * n + v]
                        total += (m_uz | m_wv | m_pq).bit_count()
                        live = m_uz & m_wv
                        if not live:
                            continue
                        ss = [s for s in xy if mask[s * n + z] >> v & 1 and mask[w * n + s] >> u & 1]
                        for r in sup[u * n + z]:
                            if not live >> r & 1:
                                continue
                            if m_pq >> r & 1:
                                lhs.append((slot[(w, x, q, pp, r, v)], slot[(pp, y, z, u, r, q)]))
                            else:
                                lhs.append((zero, zero))
                            starts.append(len(terms))
                            for s in ss:
                                term_keys = ((x, y, z, s, v, q), (w, s, z, u, r, v), (w, x, y, pp, u, s))
                                terms.append(tuple(slot[k] for k in term_keys))
                            if not ss:
                                terms.append((zero, zero, zero))
                            wit.append((w, x, y, z, pp, u, r, v, q))
    keys, nonsquare, single, single_slots, square = [], [], [], [], {}
    for x, y, z in product(range(n), repeat=3):
        for r in dict.fromkeys(r for u in sup[x * n + y] for r in sup[u * n + z]):
            us = [u for u in sup[x * n + y] if mask[u * n + z] >> r & 1]
            vs = [v for v in sup[y * n + z] if mask[x * n + v] >> r & 1]
            if not (us and vs):
                continue
            i = len(keys)
            keys.append((x, y, z, r))
            slots = [[slot[(x, y, z, u, r, v)] for u in us] for v in vs]
            if len(us) != len(vs):
                nonsquare.append(i)
            elif len(us) == 1:
                single.append(i)
                single_slots.append(slots[0][0])
            else:
                square.setdefault(len(us), []).append((i, slots))
    return {
        "total": total,
        "lhs": np.array(lhs, np.intp).reshape(-1, 2).T,
        "terms": np.array(terms, np.intp).reshape(-1, 3).T,
        "starts": np.array(starts, np.intp),
        "witnesses": np.array(wit, np.short).reshape(-1, 9),
        "blocks": np.array(keys, np.short).reshape(-1, 4),
        "nonsquare": np.array(nonsquare, np.intp),
        "single": np.array(single, np.intp),
        "single_slots": np.array(single_slots, np.intp),
        "square": [([i for i, _ in stack], [m for _, m in stack]) for _, stack in sorted(square.items())],
    }


@functools.cache
def _reference_program(rule) -> SimpleNamespace:
    """_reference_pentagon_program(rule) with its fields as attributes, built
    once per rule content."""
    return SimpleNamespace(**_reference_pentagon_program(rule))


def _reference_term_rows(ref) -> dict:
    """The first, extra, owners and ends rows of _PentagonProgram read off the
    reference program's terms and starts: each live instance's first term,
    the others in order, the instances that have others and the position of
    the last one of each."""
    bounds = [*ref.starts.tolist(), ref.terms.shape[1]]
    extra, owners, ends = [], [], []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if b - a > 1:
            extra.extend(range(a + 1, b))
            owners.append(i)
            ends.append(len(extra) - 1)
    return {
        "first": ref.terms[:, ref.starts],
        "extra": ref.terms[:, np.array(extra, np.intp)],
        "owners": np.array(owners, np.intp),
        "ends": np.array(ends, np.intp),
    }


def test_pentagon_program_matches_reference_walks(check_systems, f5, z4_graded):
    """The array walks of _pentagon_program compile the instances, terms,
    witnesses and blocks of the loops, in their order, as contiguous intp
    slot rows, on associative rules of order 2 to 9 and a non-associative
    one with non-square blocks and instances without a live term."""
    from fusionkit.systems import _pentagon_program

    rules = [f.rule for f in check_systems] + [_nonassociative_system(f5).rule, z4_graded.rule]
    rules.append(group_rule(cyclic(2)))
    for rule in rules:
        prog, ref = _pentagon_program(rule), _reference_program(rule)
        want = {**vars(ref), **_reference_term_rows(ref)}
        assert prog.total == want["total"] and len(prog.square) == len(want["square"])
        names = ("lhs", "first", "extra", "owners", "ends", "witnesses", "blocks", "nonsquare", "single", "single_slots")
        for name in names:
            got = getattr(prog, name)
            assert got.dtype == want[name].dtype and got.tolist() == want[name].tolist(), name
        for name in ("lhs", "first", "extra"):
            assert getattr(prog, name).flags.c_contiguous
        for (at, slots), (want_at, want_slots) in zip(prog.square, want["square"]):
            assert at.tolist() == want_at and slots.dtype == np.intp and slots.tolist() == want_slots


def _reference_pentagon_failures(prog, c: np.ndarray, p: int) -> np.ndarray:
    """_PentagonProgram.failures as it stood: every product reduced after each
    factor and each side on its own, over (live, 2) and (terms, 3) slot
    tables.  It scattered the sums into the instances with a term; every
    live instance now has one."""
    lhs_slots, term_slots = prog.lhs.T, prog.terms.T
    lhs = c[lhs_slots[:, 0]] * c[lhs_slots[:, 1]] % p
    t = c[term_slots[:, 0]] * c[term_slots[:, 1]] % p * c[term_slots[:, 2]] % p
    rhs = np.add.reduceat(t, prog.starts) % p
    return np.flatnonzero(lhs != rhs)


@pytest.fixture(scope="module")
def fmax():
    return Field(MAX_MODULUS)


def _live_terms(rule) -> np.ndarray:
    """The number of live right-side terms of each live instance, from the
    reference program, where an instance without one holds a term of 0 slots."""
    ref = _reference_program(rule)
    counts = np.diff([*ref.starts.tolist(), ref.terms.shape[1]])
    counts[(ref.terms[:, ref.starts] == len(admissible_sextuples(rule))).all(axis=0)] = 0
    return counts


def test_pentagon_gather_matches_reference(check_systems, f17, fmax):
    """failures finds the instances of the per-factor reductions of
    _reference_pentagon_failures, and instances with no live term, one and
    several are all found failing: on the accepted, gauged and corrupted
    systems at p = 17 of Moore-Read, TY(Z2^3) and the other check systems,
    of a group rule and of a non-associative rule; and at the largest
    modulus, where a term reaches (p-1)**3, which must stay below 2**63, on
    random vectors on each of these rules and on a gauged group system that
    passes and its corruptions."""
    from fusionkit.systems import _pentagon_program

    assert MAX_MODULUS**3 < 2**63
    rng = random.Random(2023)
    nprng = np.random.default_rng(2023)
    v4 = group_rule(klein_four())
    failing, kinds = 0, set()  # kinds: the live-term counts, 2 for several, of the instances found failing

    def check(g) -> bool:
        nonlocal failing
        c, p = np.append(g.vec, 0), g.field.p
        got = _pentagon_program(g.rule).failures(c, p)
        assert got.tolist() == _reference_pentagon_failures(_reference_program(g.rule), c, p).tolist()
        failing += bool(got.size)
        kinds.update(np.minimum(_live_terms(g.rule)[got], 2).tolist())
        return not got.size

    odd = _nonassociative_system(f17)
    for f in (*check_systems, trivial_system(v4, f17), odd):
        gauged = apply_gauge(f, random_gauge(f.rule, f.field, rng))
        assert check(f) == check(gauged) == (f is not odd)
        for g in _corruptions(gauged, rng):
            check(g)
        for top in (MAX_MODULUS, 3, 2):  # random residues; p-1 and p-2; p-1 alone
            check(FusionSystem.from_vec(f.rule, fmax, MAX_MODULUS - nprng.integers(1, top, size=len(f.vec))))
    assert failing >= 3 * len(check_systems)
    g = apply_gauge(trivial_system(v4, fmax), random_gauge(v4, fmax, rng))
    assert verify_fusion_system(g).passed and g.vec.max() > MAX_MODULUS // 2
    assert check(g) and not all(map(check, _corruptions(g, rng)))
    assert kinds == {0, 1, 2}


def test_negative_witness_cap_is_rejected(check_systems):
    """A negative witness_cap is a DomainError, not a slice end that drops the
    last witnesses, and so is one that is not an integer, a bool included,
    not a bare TypeError from a slice or a cap of 1, and one that is not one
    integer; a numpy integer is a cap
    like any other, and cap 0 keeps one pentagon witness and no others."""
    f = check_systems[0]  # a Moore-Read class at p = 17
    keys = list(f.coeffs)[:40]  # each one a unit entry (e,x,y,x,r,r) of its own triple
    bad = FusionSystem(f.rule, f.field, {**f.coeffs, **{k: 3 * f.coeffs[k] for k in keys}})
    assert len(verify_fusion_system(bad, witness_cap=10**9).one_top_failures) == 40
    rep = verify_fusion_system(bad)
    assert len(rep.one_top_failures) == 16 and not rep.pentagon_ok
    for cap in (-1, -16, -(10**9), [3]):
        with pytest.raises(DomainError, match=f"^witness_cap must be a nonnegative integer, got {re.escape(repr(cap))}$"):
            verify_fusion_system(bad, witness_cap=cap)
    for cap in (1.5, 2.0, True, False, "3", None):
        with pytest.raises(DomainError, match=f"^witness_cap: {re.escape(repr(cap))} is not an integer$"):
            verify_fusion_system(bad, witness_cap=cap)
    assert verify_fusion_system(bad, witness_cap=np.int64(3)) == verify_fusion_system(bad, witness_cap=3)
    rep = verify_fusion_system(bad, witness_cap=0)
    assert len(rep.pentagon_failures) == 1 and not rep.one_top_ok and not rep.one_top_failures


def _reference_matrix_inverse_modp(mat: np.ndarray, p: int) -> np.ndarray | None:
    """matrix_inverse_modp as it stood: Gauss-Jordan with a Python loop over
    the rows of each column."""
    n = mat.shape[0]
    a = mat.astype(np.int64) % p
    inv = np.eye(n, dtype=np.int64)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r, col] % p), None)
        if piv is None:
            return None
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        w = pow(int(a[col, col]), -1, p)
        a[col] = a[col] * w % p
        inv[col] = inv[col] * w % p
        for r in range(n):
            if r != col and a[r, col] % p:
                q = int(a[r, col])
                a[r] = (a[r] - q * a[col]) % p
                inv[r] = (inv[r] - q * inv[col]) % p
    return inv


def _first_zero_pivot(mat: np.ndarray, p: int) -> int | None:
    """The first column in which the elimination without row exchanges meets a
    0 pivot: the order of the first singular leading block, less one."""
    k = len(mat)
    return next((j for j in range(k) if _reference_matrix_inverse_modp(mat[: j + 1, : j + 1], p) is None), None)


def _invertible_with_first_zero_pivot(rng, k: int, j: int | None, p: int) -> np.ndarray:
    """A random invertible k x k matrix whose first 0 pivot is in column j, or
    that has none if j is None: row j's leading j+1 entries are a multiple of
    row 0's (a multiple of p at (0, 0) for j = 0)."""
    while True:
        mat = rng.integers(-3 * p, 3 * p, size=(k, k))
        if j == 0:
            mat[0, 0] = p * rng.integers(-2, 3)
        elif j is not None:
            mat[j, : j + 1] = mat[0, : j + 1] * rng.integers(1, p) + p * rng.integers(-2, 3, size=j + 1)
        if _first_zero_pivot(mat, p) == j and _reference_matrix_inverse_modp(mat, p) is not None:
            return mat


def test_matrix_inverse_matches_reference(fmax, monkeypatch):
    """The batched inverse gives the row loop's inverse, or None with it at
    the same position, on stacks of B = 1-9 random and singular k x k
    matrices, k = 1-8; on one stack per k whose members first meet a 0 pivot
    in each column j <= k-2 and in none, a stack per k with none, and one
    member whose first 0 pivot is in a column j >= 1; all over five primes
    and the largest modulus.  Every call runs one elimination."""
    from fusionkit import systems

    calls = []
    eliminate = systems._eliminate
    monkeypatch.setattr(systems, "_eliminate", lambda mats, p: calls.append(len(mats)) or eliminate(mats, p))
    rng = np.random.default_rng(31)
    singular = exchanged = 0
    for field in (*map(Field, (5, 7, 13, 17, 41)), fmax):
        p = field.p
        for k in range(2, 9):
            columns = [*range(k - 1), None]
            rng.shuffle(columns)
            stacks = [
                [_invertible_with_first_zero_pivot(rng, k, j, p) for j in columns],
                [_invertible_with_first_zero_pivot(rng, k, None, p) for _ in range(3)],
                [_invertible_with_first_zero_pivot(rng, k, int(rng.integers(1, k - 1)), p)] if k > 2 else [],
            ]
            for mats in filter(None, stacks):
                before = len(calls)
                got = matrix_inverse_modp(np.array(mats), field)
                assert calls[before:] == [len(mats)]
                for mat, inv in zip(mats, got):
                    assert inv.tolist() == _reference_matrix_inverse_modp(mat, p).tolist()
        for k in range(1, 9):
            for b in range(1, 10):
                mats = rng.integers(-3 * p, 3 * p, size=(b, k, k))
                for m in range(0, b, 3):  # a dependent row, or a zero one for k = 1
                    i, j = rng.integers(k, size=2)
                    mats[m, i] = 0 if i == j else mats[m, j] * rng.integers(p) + p * rng.integers(-2, 3, size=k)
                if b % 4 == 1:  # a zero first pivot, so the elimination needs a row exchange
                    mats[-1, 0, 0] = p
                before = len(calls)
                got = matrix_inverse_modp(mats, field)
                assert len(got) == b and calls[before:] == [b]
                for mat, inv in zip(mats, got):
                    want = _reference_matrix_inverse_modp(mat, p)
                    assert (inv is None) == (want is None)
                    if want is None:
                        singular += 1
                        continue
                    exchanged += mat[0, 0] % p == 0
                    assert inv.dtype == np.int64 and inv.tolist() == want.tolist()
                    assert (mat % p @ inv % p == np.eye(k, dtype=np.int64)).all()
    assert singular >= 6 * 8 * 9 and exchanged >= 6 * 7


def test_matrix_inverse_refuses_what_is_not_a_square_stack(f17):
    """An input that is not a (B, k, k) stack is a DomainError naming its
    shape, not a bare ValueError from unpacking or broadcasting: a single
    matrix, a non-square stack, a vector, a scalar and a stack of stacks."""
    for shape in ((2, 2), (1, 2, 3), (3,), (), (1, 1, 2, 2)):
        with pytest.raises(DomainError, match=rf"^expected a \(B, k, k\) stack of matrices, got shape {re.escape(str(shape))}$"):
            matrix_inverse_modp(np.ones(shape, np.int64), f17)
    assert matrix_inverse_modp(np.zeros((0, 3, 3), np.int64), f17) == []


def _reference_checks(f, witness_cap=16) -> dict:
    """The invertibility, triangle, rigidity and one-top checks as loops over
    recoupling_matrix, the row-loop matrix inverse and FusionSystem.coeff."""
    rule, p = f.rule, f.field.p
    n, e = rule.n, rule.unit
    non_inv = []
    for x, y, z in product(range(n), repeat=3):
        seen = set()
        for u in rule.support(x, y):
            for r in rule.support(u, z):
                if r in seen:
                    continue
                seen.add(r)
                mat, vs, us = recoupling_matrix(f, x, y, z, r)
                if mat.size == 0:
                    continue
                if mat.shape[0] != mat.shape[1] or _reference_matrix_inverse_modp(mat, p) is None:
                    non_inv.append((x, y, z, r))
    tri_fail = []
    for x, y in product(range(n), repeat=2):
        for r in rule.support(x, y):
            if f.coeff(x, e, y, x, r, y) != 1:
                tri_fail.append((x, y, r))
    rig_fail = []
    for r in range(n):
        rb = int(rule.dual[r])
        mat, vs, us = recoupling_matrix(f, rb, r, rb, rb)
        inv = _reference_matrix_inverse_modp(mat, p)
        ok = False
        if inv is not None and e in vs and e in us:
            # inverse is indexed (u, v); take the unit-unit entry
            entry = int(inv[us.index(e), vs.index(e)])
            ok = entry != 0 and f.coeff(r, rb, r, e, r, e) == entry
        if not ok:
            rig_fail.append(r)
    ot_fail = []
    for x, y in product(range(n), repeat=2):
        for r in rule.support(x, y):
            if f.coeff(e, x, y, x, r, r) != 1 or f.coeff(x, y, e, r, r, y) != 1:
                ot_fail.append((x, y, r))
    return {
        "invertibility_ok": not non_inv,
        "non_invertible": non_inv[:witness_cap],
        "triangle_ok": not tri_fail,
        "triangle_failures": tri_fail[:witness_cap],
        "rigidity_ok": not rig_fail,
        "rigidity_failures": rig_fail[:witness_cap],
        "one_top_ok": not ot_fail,
        "one_top_failures": ot_fail[:witness_cap],
    }


def _zeroed(f, key):
    """A copy of f with the coefficient at key set to 0, which every
    constructor refuses: its slot vector is replaced after construction,
    past the read-only guard."""
    out = FusionSystem.from_vec(f.rule, f.field, f.vec)
    vec = out.vec.copy()
    vec[list(f.coeffs).index(key)] = 0
    object.__setattr__(out, "vec", vec)
    return out


def _corruptions(f, rng):
    """Copies of f with: a 1x1 coefficient zeroed after construction; a larger
    block made singular by copying one row onto another, together with such a
    zero; a broken triangle, unit and rigidity entry; and a random gauge with
    1-3 scaled coefficients."""
    rule, F, e = f.rule, f.field, f.rule.unit
    blocks = {(x, y, z, r): recoupling_matrix(f, x, y, z, r) for x, y, z, u, r, v in f.coeffs}
    one_by_one = [k for k in f.coeffs if blocks[(*k[:3], k[4])][0].shape == (1, 1)]
    larger = sorted(b for b, (mat, _, _) in blocks.items() if 2 <= mat.shape[0] == mat.shape[1])
    out = []
    out.append(_zeroed(f, rng.choice(one_by_one)))
    if larger:
        x, y, z, r = rng.choice(larger)
        _, vs, us = blocks[(x, y, z, r)]
        v0, v1 = rng.sample(vs, 2)
        coeffs = {**f.coeffs, **{(x, y, z, u, r, v1): f.coeffs[(x, y, z, u, r, v0)] for u in us}}
        out.append(FusionSystem(rule, F, coeffs))
        out.append(_zeroed(out[-1], rng.choice(one_by_one)))
    triples = [(x, y, r) for x, y in product(range(rule.n), repeat=2) for r in rule.support(x, y)]
    x, y, r = rng.choice(triples)
    rb = int(rule.dual[r])
    for key in ((x, e, y, x, r, y), (e, x, y, x, r, r), (r, rb, r, e, r, e)):
        coeffs = dict(f.coeffs)
        coeffs[key] = coeffs[key] * rng.randrange(2, F.p) % F.p
        out.append(FusionSystem(rule, F, coeffs))
    coeffs = dict(apply_gauge(f, random_gauge(rule, F, rng)).coeffs)
    for k in rng.sample(sorted(coeffs), rng.randint(1, 3)):
        coeffs[k] = coeffs[k] * rng.randrange(2, F.p) % F.p
    out.append(FusionSystem(rule, F, coeffs))
    return out


def _nonassociative_system(field):
    """The all-ones system on a three-label rule that is not associative, so
    that some recoupling blocks are not square."""
    from fusionkit import FusionRule

    t = np.zeros((3, 3, 3), dtype=np.int64)
    for x in range(3):
        t[0, x, x] = t[x, 0, x] = 1
    t[1, 1] = [1, 0, 0]
    t[1, 2] = t[2, 1] = [1, 1, 0]
    t[2, 2] = [1, 0, 1]
    rule = FusionRule(["1", "a", "b"], t, 0, [0, 1, 2])
    return trivial_system(rule, field)


def test_compiled_checks_match_reference_loops(check_systems, f5):
    """verify_fusion_system reports the invertibility, triangle, rigidity and
    one-top failures of the loops over recoupling_matrix, witnesses and caps
    included, on accepted systems, random gauges and targeted corruptions."""
    from fusionkit.systems import _pentagon_program

    rng = random.Random(707)
    failed = {k: 0 for k in ("invertibility_ok", "triangle_ok", "rigidity_ok", "one_top_ok")}
    singular_lord_block = False
    odd = _nonassociative_system(f5)
    assert len(_pentagon_program(odd.rule).nonsquare)
    for f in (*check_systems, odd):
        gauged = apply_gauge(f, random_gauge(f.rule, f.field, rng))
        for g in (f, gauged, *_corruptions(gauged, rng)):
            for cap in (0, 1, 16, 10**9):
                rep = verify_fusion_system(g, witness_cap=cap)
                want = _reference_checks(g, cap)
                assert {k: getattr(rep, k) for k in want} == want
            for k in failed:
                failed[k] += not want[k]
            m = f.rule.n - 1
            singular_lord_block |= (m, m, m, m) in want["non_invertible"] and len(f.rule.support(m, m)) == 8
    assert all(failed.values()), failed
    assert singular_lord_block  # the 8x8 block of TY(Z2^3)


def test_only_larger_square_blocks_are_inverted(check_systems, monkeypatch):
    """The rigidity check reads a 1x1 block off its coefficient and a larger
    one off the inverses of the square blocks, so a verify_fusion_system call
    inverts exactly the square blocks with k >= 2, rigidity blocks included,
    each once, in one matrix_inverse_modp call per block size."""
    from fusionkit import systems
    from fusionkit.systems import _pentagon_program

    calls = []
    real = systems.matrix_inverse_modp
    monkeypatch.setattr(systems, "matrix_inverse_modp", lambda mats, field: calls.append(mats) or real(mats, field))
    rigidity_square = 0
    for f in check_systems:
        rule = f.rule
        square = {}  # the recoupling matrices with k >= 2 by size, as the loops over recoupling_matrix find them
        for x, y, z in product(range(rule.n), repeat=3):
            for r in {r for u in rule.support(x, y) for r in rule.support(u, z)}:
                mat, _, _ = recoupling_matrix(f, x, y, z, r)
                if 2 <= mat.shape[0] == mat.shape[1]:
                    square.setdefault(mat.shape[0], []).append(mat.tolist())
        calls.clear()
        assert verify_fusion_system(f).rigidity_ok
        assert [mats.shape[1:] for mats in calls] == [(k, k) for k in sorted(square)]
        assert [sorted(mats.tolist()) for mats in calls] == [sorted(square[k]) for k in sorted(square)]
        rigid = [recoupling_matrix(f, rb, r, rb, rb)[0].shape for r, rb in enumerate(rule.dual.tolist())]
        larger = [r for r, (k, l) in enumerate(rigid) if 2 <= k == l]
        assert [r for r, *_ in _pentagon_program(rule).rigid_square] == larger
        rigidity_square += len(larger)
    assert rigidity_square  # the lord blocks (m,m,m,m) of the TY rules


def test_verified_systems_have_identity_unit_matrices(f17, ty2, mr):
    # every verified system has identity 1-top matrices, checked independently
    from fusionkit import Ambi, enumerate_uber, reconstruct

    for fr in (ty2, mr):
        cls = enumerate_uber(Ambi(fr, f17), with_orbits=False)
        f = reconstruct(cls.class_reps[0])
        rep = verify_fusion_system(f)
        assert rep.passed and rep.one_top_ok


# ---- recoupling matrices -------------------------------------------------------------


def test_recoupling_shapes_group(f5):
    z2 = group_rule(cyclic(2))
    f = trivial_system(z2, f5)
    for x, y, z in product(range(2), repeat=3):
        for r in range(2):
            mat, vs, us = recoupling_matrix(f, x, y, z, r)
            assert mat.shape in ((0, 0), (1, 1))


def test_recoupling_shape_ty(f17, ty2):
    from fusionkit import Ambi, enumerate_uber, reconstruct

    cls = enumerate_uber(Ambi(ty2, f17), with_orbits=False)
    f = reconstruct(cls.class_reps[0])
    m = ty2.rule.index("m")
    mat, vs, us = recoupling_matrix(f, m, m, m, m)
    assert mat.shape == (2, 2)
    assert matrix_inverse_modp(mat[None], f17)[0] is not None


def test_recoupling_shape_mr(f17, mr):
    from fusionkit import Ambi, enumerate_uber, reconstruct

    cls = enumerate_uber(Ambi(mr, f17), with_orbits=False)
    f = reconstruct(cls.class_reps[0])
    i1 = mr.rule.index("i'")
    i2 = mr.rule.index("-i'")
    for r in mr.rule.support(i1, mr.rule.support(i1, i2)[0]):
        pass
    mat, vs, us = recoupling_matrix(f, i1, i2, i1, i1)
    assert mat.shape == (2, 2)


def test_recoupling_shape_law_every_matrix(f17, mr, ty2, z4_graded):
    """Nonempty matrices are 1x1, or indexed by adjoint cosets on all-lord triples."""
    from fusionkit import Ambi, enumerate_uber, reconstruct

    for fr in (ty2, z4_graded, mr):
        cls = enumerate_uber(Ambi(fr, f17), with_orbits=False)
        f = reconstruct(cls.class_reps[0])
        r_ = fr.rule
        ad = set(fr.adjoint_ids)
        for x, y, z in product(range(r_.n), repeat=3):
            seen = set()
            for u in r_.support(x, y):
                for r in r_.support(u, z):
                    if r in seen:
                        continue
                    seen.add(r)
                    mat, vs, us = recoupling_matrix(f, x, y, z, r)
                    if mat.size == 0:
                        continue
                    all_lords = x in fr.lords and y in fr.lords and z in fr.lords
                    if all_lords:
                        assert mat.shape == (len(ad), len(ad))
                        # rows and columns are cosets of the adjoint subrule
                        assert {frozenset(fr.serf_mul(a, vs[0]) for a in ad)} == {frozenset(vs)}
                        assert {frozenset(fr.serf_mul(a, us[0]) for a in ad)} == {frozenset(us)}
                    else:
                        assert mat.shape == (1, 1)


# ---- gauges ---------------------------------------------------------------------------


def test_identity_gauge_is_identity(f17, ty2):
    from fusionkit import Ambi, enumerate_uber, reconstruct

    cls = enumerate_uber(Ambi(ty2, f17), with_orbits=False)
    f = reconstruct(cls.class_reps[0])
    assert apply_gauge(f, identity_gauge(ty2.rule, f17)) == f


def test_gauge_composition_multiplies(f17, mr):
    from fusionkit import Ambi, enumerate_uber, reconstruct

    cls = enumerate_uber(Ambi(mr, f17), with_orbits=False)
    f = reconstruct(cls.class_reps[0])
    rng = random.Random(11)
    x1 = random_gauge(mr.rule, f17, rng)
    x2 = random_gauge(mr.rule, f17, rng)
    product_gauge = GaugeXi(mr.rule, f17, {k: v * x2.values[k] for k, v in x1.values.items()})
    assert apply_gauge(apply_gauge(f, x1), x2) == apply_gauge(f, product_gauge)


def test_gauge_inverse_round_trip(f17, mr):
    from fusionkit import Ambi, enumerate_uber, reconstruct

    cls = enumerate_uber(Ambi(mr, f17), with_orbits=False)
    f = reconstruct(cls.class_reps[0])
    xi = random_gauge(mr.rule, f17, random.Random(12))
    assert apply_gauge(apply_gauge(f, xi), xi.inverse()) == f


def test_gauge_on_group_is_coboundary_twist(f5):
    """On a group, the rectangle axiom multiplies by the coboundary of xi."""
    z2 = group_rule(cyclic(2))
    f = trivial_system(z2, f5)
    vals = {(x, y, int(np.nonzero(z2.table[x, y])[0][0])): 1 for x, y in product(range(2), repeat=2)}
    vals[(1, 1, 0)] = 3
    xi = GaugeXi(z2, f5, vals)
    out = apply_gauge(f, xi)
    # d(xi)(a,b,c) = xi(b,c) xi(a,bc) / (xi(a,b) xi(ab,c))
    def dxi(a, b, c):
        g = lambda x, y: vals[(x, y, (x + y) % 2)]
        return g(b, c) * g(a, (b + c) % 2) * pow(g(a, b) * g((a + b) % 2, c), -1, 5) % 5

    for (x, y, z, u, r, v), val in out.coeffs.items():
        assert val == f.coeffs[(x, y, z, u, r, v)] * dxi(x, y, z) % 5
    assert verify_fusion_system(out).passed


def test_gauge_validation(f17, ty2):
    vals = {
        (x, y, r): 1
        for x, y in product(range(3), repeat=2)
        for r in ty2.rule.support(x, y)
    }
    bad = dict(vals)
    bad[(0, 1, 1)] = 2  # breaks unit normalization
    with pytest.raises(ValidationError):
        GaugeXi(ty2.rule, f17, bad)


# ---- the array checks of the constructors and the gathered gauge -----------------------

# FusionSystem.__init__, GaugeXi.__init__ and apply_gauge as they stood, with a
# Python loop per key, kept as oracles for the array checks over the cached
# key -> slot index and for the gather through the four gauge positions.  A
# key is looked up as given, and a key or value that is not integers is
# refused, where int() used to truncate it.
def _reference_integer(x, what: str) -> int:
    """x, once it is an integer, a bool excluded; the error names what and x."""
    if type(x) is bool or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"{what}: {x!r} is not an integer" + " (ragged or nested)" * isinstance(x, list))
    return int(x)


def _reference_key(k, support, outside: str) -> tuple:
    """The key of support equal to k, or the error for a key outside it."""
    if k in support:
        return tuple(int(i) for i in k)
    entries = tuple(_reference_integer(i, "key") for i in (k if isinstance(k, tuple) else [k]))
    raise ValidationError(f"{outside} {entries if isinstance(k, tuple) else entries[0]}")


def _reference_fusion_system_init(rule, field, coeffs) -> dict:
    """The coefficient table FusionSystem.__init__ kept, or the error it raised."""
    adm = admissible_sextuples(rule)
    support = set(adm)
    cleaned: dict[Sextuple, int] = {}
    for k, val in coeffs.items():
        k = _reference_key(k, support, "coefficient at inadmissible sextuple")
        val = _reference_integer(val, f"coefficient at {k}") % field.p
        if val == 0:
            raise ValidationError(f"zero coefficient at {k}")
        cleaned[k] = val
    missing = support - set(cleaned)
    if missing:
        raise ValidationError(f"missing coefficients, e.g. {sorted(missing)[0]}")
    return {k: cleaned[k] for k in adm}


def _reference_gauge_xi_init(rule, field, values) -> dict:
    """The values GaugeXi.__init__ kept, or the error it raised."""
    support = {(x, y, r) for x, y in product(range(rule.n), repeat=2) for r in rule.support(x, y)}
    cleaned = {}
    for k, val in values.items():
        k = _reference_key(k, support, "gauge value at unsupported triple")
        val = _reference_integer(val, f"gauge value at {k}") % field.p
        if val == 0:
            raise ValidationError(f"gauge value must be invertible at {k}")
        cleaned[k] = val
    if support - set(cleaned):
        raise ValidationError("gauge must be total on the support")
    e = rule.unit
    for r in range(rule.n):
        if cleaned[(e, r, r)] != 1 or cleaned[(r, e, r)] != 1:
            raise ValidationError("gauge must be normalized at the unit")
    return {k: cleaned[k] for k in sorted(cleaned)}


def _reference_apply_gauge(f: FusionSystem, xi: GaugeXi) -> dict:
    """The coefficient table of the system apply_gauge returned."""
    if xi.rule != f.rule or xi.field.p != f.field.p:
        raise DomainError("gauge and system live on different data")
    p, g = f.field.p, xi.values
    out = {}
    for key, val in f.coeffs.items():
        x, y, z, u, r, v = key
        out[key] = val * g[(y, z, v)] * g[(x, v, r)] * pow(g[(x, y, u)] * g[(u, z, r)], -1, p) % p
    return _reference_fusion_system_init(f.rule, f.field, out)


def _outcome(build, *args):
    """What build(*args) gives: its items with the types of keys, key entries
    and values, or the type and message of what it raised."""
    try:
        out = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    types = {(type(k), *map(type, k), type(v)) for k, v in out.items()}
    return list(out.items()), types


def _system_init(rule, field, coeffs) -> dict:
    return FusionSystem(rule, field, coeffs).coeffs


def _gauge_init(rule, field, values) -> dict:
    return GaugeXi(rule, field, values).values


def _key_forms(d: dict, n: int, p: int, rng) -> list[dict]:
    """d in other forms each constructor accepts: shuffled, keyed by numpy
    ints, keyed by integral floats (a key is looked up as given), and with
    values off by multiples of p (beyond int64 too)."""
    items = list(d.items())
    rng.shuffle(items)
    return [
        dict(items),
        {tuple(map(np.int64, k)): np.int64(v) for k, v in items},
        {tuple(map(float, k)): v for k, v in items},
        {k: v + p * rng.choice((2**70, -3, 1)) for k, v in items},
    ]


def _corrupt(d: dict, units: list, p: int, rng) -> dict:
    """d with 1-3 faults at random items: a key d does not have, a value 0 mod
    p, a dropped key, a key or value that is not integers (a digit string or
    a fraction among them, which int() used to read), or a unit entry (for
    a gauge, units lists them) other than 1.  A bad key may come with a bad
    value, which the key's error comes before."""
    items = list(d.items())
    for _ in range(rng.randint(1, 3)):
        i = rng.choice([j for j, (k, _) in enumerate(items) if isinstance(k, tuple)])
        k, v = items[i]
        kind = rng.choice(["outside", "outside", "zero", "zero", "drop", "drop", "key", "value"] + ["unit"] * bool(units))
        if kind == "outside":
            far = tuple(x + 1 for x in k) if rng.random() < 0.5 else k[:-1]
            items[i] = (far if far not in d else k + (0,), rng.choice((v, 0, "x")))
        elif kind == "zero":
            items[i] = (k, p * rng.choice((0, 1, -2)))
        elif kind == "drop" and len(items) > 1:
            del items[i]
        elif kind == "key":
            key = rng.choice(("ab", 7, "".join(map(str, k)), tuple(x + 0.5 for x in k)))
            items[i] = (key, rng.choice((v, 0, None)))
        elif kind == "value":
            items[i] = (k, rng.choice(("x", None, "3", 2.5, 3.0, True, [3])))
        elif kind == "unit":
            u = rng.choice(units)
            items = [(key, 2 if key == u else val) for key, val in items]
    return dict(items)


SYSTEM_MESSAGES = (
    "coefficient at inadmissible sextuple ",
    "coefficient at (",
    "zero coefficient at (",
    "missing coefficients, e.g. (",
)
GAUGE_MESSAGES = (
    "gauge value at (",
    "gauge value at unsupported triple ",
    "gauge value must be invertible at (",
    "gauge must be total on the support",
    "gauge must be normalized at the unit",
)


def _unit_off_at_b(field):
    """The all-ones system on the three-label rule of _nonassociative_system
    with 1.b = a, so that (1,b,b) is no gauge key: the gauge loop's unit check
    raised KeyError there."""
    from fusionkit import FusionRule

    t = _nonassociative_system(field).rule.table.copy()
    t[0, 2] = [0, 1, 0]
    return trivial_system(FusionRule(["1", "a", "b"], t, 0, [0, 1, 2]), field)


def test_constructors_reject_as_the_per_key_loops(check_systems, f5):
    """Seeded broken coefficient tables and gauges raise what the per-key
    loops raised first, type and message, and every ValidationError message
    of both constructors is reached."""
    rng = random.Random(21)
    seen = set()
    for f in check_systems + [trivial_system(group_rule(cyclic(2)), f5), _unit_off_at_b(f5)]:
        rule, F = f.rule, f.field
        e = rule.unit
        support = [(x, y, r) for x, y in product(range(rule.n), repeat=2) for r in rule.support(x, y)]
        gauge = {k: 1 if e in k[:2] else rng.randrange(1, F.p) for k in support}
        units = [k for r in range(rule.n) for k in ((e, r, r), (r, e, r))]
        for _ in range(40):
            for build, reference, table, faults, messages in (
                (_system_init, _reference_fusion_system_init, f.coeffs, [], SYSTEM_MESSAGES),
                (_gauge_init, _reference_gauge_xi_init, gauge, units, GAUGE_MESSAGES),
            ):
                broken = _corrupt(table, faults, F.p, rng)
                got = _outcome(build, rule, F, broken)
                assert got == _outcome(reference, rule, F, broken)
                kind, text = got
                seen.add(next((m for m in (*messages, "key: ") if text.startswith(m)), None) if kind is ValidationError else kind)
    assert seen == {*SYSTEM_MESSAGES, *GAUGE_MESSAGES, "key: ", KeyError}


def test_constructors_accept_what_the_per_key_loops_accepted(check_systems, f5):
    """Tables and gauges keyed by numpy ints or integral floats, with values
    off by multiples of p, in any order, give the dict the per-key loops
    gave: keys in order, values, and the types of both."""
    rng = random.Random(22)
    for f in check_systems + [trivial_system(group_rule(cyclic(2)), f5)]:
        rule, F = f.rule, f.field
        xi = random_gauge(rule, F, rng)
        for coeffs in _key_forms(f.coeffs, rule.n, F.p, rng):
            want = _outcome(_reference_fusion_system_init, rule, F, coeffs)
            assert want[0] is not ValidationError and _outcome(_system_init, rule, F, coeffs) == want
        for values in _key_forms(xi.values, rule.n, F.p, rng):
            want = _outcome(_reference_gauge_xi_init, rule, F, values)
            assert want[0] is not ValidationError and _outcome(_gauge_init, rule, F, values) == want


def test_from_vec_checks_as_the_dict_constructors(check_systems):
    """from_vec reduces mod p and gives the system or gauge of the keyed
    table; a wrong length, a zero slot and a gauge off the unit are refused,
    the zero slot with the dict constructor's message for its first zero; the
    vector and the keyed views are read-only."""
    rng = random.Random(23)
    for f in check_systems:
        rule, F = f.rule, f.field
        keys = list(f.coeffs)
        assert keys == admissible_sextuples(rule)
        g = FusionSystem.from_vec(rule, F, f.vec + F.p * rng.choice((1, -2)))
        assert g == f and g == FusionSystem(rule, F, dict(f.coeffs)) and list(g.coeffs.items()) == list(f.coeffs.items())
        assert {type(v) for v in g.coeffs.values()} == {int}
        for bad in (f.vec[:-1], np.append(f.vec, 1), f.vec.reshape(1, -1)):
            with pytest.raises(ValidationError, match="^expected .* coefficients"):
                FusionSystem.from_vec(rule, F, bad)
        vec = f.vec.copy()
        at = sorted(rng.sample(range(len(vec)), 2))
        vec[at] = F.p * np.array([0, 3])
        with pytest.raises(ValidationError) as got:
            FusionSystem.from_vec(rule, F, vec)
        with pytest.raises(ValidationError) as want:
            FusionSystem(rule, F, dict(zip(keys, vec.tolist())))
        assert str(got.value) == str(want.value) == f"zero coefficient at {keys[at[0]]}"
        with pytest.raises(TypeError):
            f.coeffs[keys[0]] = 1
        with pytest.raises(ValueError):
            f.vec[0] = 1

        xi = random_gauge(rule, F, rng)
        support = list(xi.values)
        assert GaugeXi.from_vec(rule, F, xi.vec - F.p).values == GaugeXi(rule, F, dict(xi.values)).values == xi.values
        with pytest.raises(ValidationError, match="^expected .* gauge values"):
            GaugeXi.from_vec(rule, F, xi.vec[1:])
        e = rule.unit
        for unit in ((e, e, e), (e, rule.n - 1, rule.n - 1), (rule.n - 1, e, rule.n - 1)):
            vec = xi.vec.copy()
            vec[support.index(unit)] = 2
            with pytest.raises(ValidationError, match="^gauge must be normalized at the unit$"):
                GaugeXi.from_vec(rule, F, vec)
        vec = xi.vec.copy()
        vec[-1] = 0
        with pytest.raises(ValidationError) as got:
            GaugeXi.from_vec(rule, F, vec)
        assert str(got.value) == f"gauge value must be invertible at {support[-1]}"
        with pytest.raises(TypeError):
            xi.values[support[0]] = 1
        with pytest.raises(ValueError):
            xi.vec[0] = 1
        assert GaugeXi.from_vec(rule, F, xi.inverse().vec * xi.vec).values == identity_gauge(rule, F).values


def test_systems_and_gauges_are_read_only_and_copy(check_systems):
    """A system and a gauge refuse rebinding any attribute: f.coeffs = {}
    was accepted, and verify_fusion_system still passed on the untouched
    vec.  Once their keyed views are read they still copy, deep-copy and
    pickle (a mappingproxy does not), to the same vec, and still verify."""
    f = check_systems[0]  # a Moore-Read class at p = 17
    xi = random_gauge(f.rule, f.field, random.Random(24))
    assert f.coeffs and xi.values  # the views, built and held in the instances
    for x, view in ((f, "coeffs"), (xi, "values")):
        for name in (view, "vec", "rule", "field", "other"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(x, name, {})
    assert len(f.coeffs) == len(f.vec) and verify_fusion_system(f).passed
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(copied) is FusionSystem and np.array_equal(copied.vec, f.vec) and not copied.vec.flags.writeable
        assert copied == f and verify_fusion_system(copied).passed
    for copied in (copy.deepcopy(xi), pickle.loads(pickle.dumps(xi))):
        assert type(copied) is GaugeXi and np.array_equal(copied.vec, xi.vec) and copied.values == xi.values
    gauged = apply_gauge(copy.deepcopy(f), pickle.loads(pickle.dumps(xi)))
    assert gauged == apply_gauge(f, xi) and verify_fusion_system(gauged).passed


# ---- brute force ------------------------------------------------------------------------


def test_bruteforce_z2(f5):
    z2 = group_rule(cyclic(2))
    sols = enumerate_fusion_systems_bruteforce(z2, f5)
    assert len(sols) == 2
    assert sorted(f.coeffs[(1, 1, 1, 0, 1, 0)] for f in sols) == [1, 4]
    assert len(enumerate_fusion_systems_bruteforce(z2, Field(2))) == 1


def test_bruteforce_budget(f17, mr):
    with pytest.raises(ResourceError):
        enumerate_fusion_systems_bruteforce(mr.rule, f17)


def test_bruteforce_ty2_normal_slice(f17, ty2):
    sols = enumerate_fusion_systems_bruteforce(ty2.rule, f17)
    assert len(sols) == 32  # chi(g,g) forced, 16 free ups values, tau = +-3
    for f in sols[:4]:
        assert verify_fusion_system(f).passed


@pytest.mark.parametrize("name, p", [("Moore-Read", 3), ("TY(Z3)", 7)])
def test_bruteforce_and_uber_find_no_system(name, p, mr, ty3):
    """Moore-Read@3 and TY(Z3)@7 carry no fusion system: the brute force,
    which branches first on the slots most live pentagon instances read, and
    enumerate_uber both find none."""
    fr = {"Moore-Read": mr, "TY(Z3)": ty3}[name]
    assert enumerate_fusion_systems_bruteforce(fr.rule, Field(p), budget_bits=300) == []
    assert enumerate_uber(Ambi(fr, Field(p))).gauge_classes == 0


# The brute-force enumerator as it stood with its own scalar pentagon
# evaluator over sextuple keys, kept verbatim as an oracle for the search
# on the compiled pentagon program.
def _reference_bruteforce(
    rule: FusionRule,
    field: Field,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    normal_slice: bool = True,
) -> list[FusionSystem]:
    """All fusion systems on a tiny rule, by backtracking with pentagon propagation.

    On feudal rules the search is restricted to the normal gauge slice
    (coefficients of lord-against-unit shape pinned to 1), which is what makes
    the search finite in practice; every gauge class contains such a point.
    """
    adm = admissible_sextuples(rule)
    bits = len(adm) * ((field.p - 1).bit_length() - 1)
    if bits > budget_bits:
        raise ResourceError(f"search space of {bits} bits exceeds budget {budget_bits}")

    e = rule.unit
    pinned: dict[Sextuple, int] = {}
    for x, y, z, u, r, v in adm:
        if y == e or x == e or z == e:
            pinned[(x, y, z, u, r, v)] = 1
    if normal_slice:
        fr = detect_feudal(rule)
        if fr is not None:
            for a in fr.serf_ids:
                ab = fr.serf_inv(a)
                for m in fr.lord_ids:
                    am = fr.act_left(a, m)
                    ma = fr.act_right(m, a)
                    mbar = int(rule.dual[m])
                    # beta1(a,1)(m) = f^{a,m,mbar abar}_{am,1,abar} = 1
                    z1 = fr.act_right(mbar, ab)
                    pinned[(a, m, z1, am, e, ab)] = 1
                    # beta2(a,1)(m) = f^{m,a,abar mbar}_{ma,1,mbar} = 1
                    z2 = fr.act_left(ab, mbar)
                    pinned[(m, a, z2, ma, e, mbar)] = 1

    variables = [k for k in adm if k not in pinned]
    var_index = {k: i for i, k in enumerate(variables)}
    insts = pentagon_instances(rule)

    # incidence: variable -> instances that mention it
    incidence: list[list[int]] = [[] for _ in variables]
    inst_keys = []
    for idx, inst in enumerate(insts):
        w, x, y, z, pp, u, r, v, q, xy = inst
        keys = [(w, x, q, pp, r, v), (pp, y, z, u, r, q)]
        for s in xy:
            keys += [(x, y, z, s, v, q), (w, s, z, u, r, v), (w, x, y, pp, u, s)]
        inst_keys.append(keys)
        seen = set()
        for k in keys:
            i = var_index.get(k)
            if i is not None and i not in seen:
                incidence[i].append(idx)
                seen.add(i)

    adm_set = set(adm)
    assign: dict[Sextuple, int] = dict(pinned)
    results: list[FusionSystem] = []
    p = field.p

    def coeff_of(k):
        if k not in adm_set:
            return 0
        return assign.get(k)  # None = unassigned

    def eval_instance(idx):
        """(status, payload): 'ok'/'fail'/'solve'(key,val)/'open'."""
        w, x, y, z, pp, u, r, v, q, xy = insts[idx]
        unknown = None
        count = 0

        def track(k):
            nonlocal unknown, count
            unknown = k
            count += 1

        lk1, lk2 = (w, x, q, pp, r, v), (pp, y, z, u, r, q)
        c1, c2 = coeff_of(lk1), coeff_of(lk2)
        lhs_known = True
        if c1 is None:
            track(lk1)
            lhs_known = False
        if c2 is None:
            track(lk2)
            lhs_known = False
        rhs_terms = []
        for s in xy:
            ks = [(x, y, z, s, v, q), (w, s, z, u, r, v), (w, x, y, pp, u, s)]
            cs = [coeff_of(k) for k in ks]
            if 0 in cs:
                continue
            for k, c in zip(ks, cs):
                if c is None:
                    track(k)
            rhs_terms.append((ks, cs))
        if count == 0:
            lhs = (c1 or 0) * (c2 or 0) % p
            rhs = sum(cs[0] * cs[1] * cs[2] for _, cs in rhs_terms) % p
            return ("ok", None) if lhs == rhs else ("fail", None)
        if count > 1:
            return ("open", None)
        # exactly one unknown occurrence: solve linearly
        k0 = unknown
        if k0 in (lk1, lk2) and lhs_known is False:
            other = c2 if k0 == lk1 else c1
            if other is None:
                return ("open", None)
            rhs = sum(cs[0] * cs[1] * cs[2] for _, cs in rhs_terms) % p
            if other == 0:
                # the unknown drops out; the instance reduces to 0 = rhs
                return ("ok", None) if rhs == 0 else ("fail", None)
            val = rhs * pow(other, -1, p) % p
            return ("solve", (k0, val))
        lhs = c1 * c2 % p
        known_sum = 0
        coef = None
        for ks, cs in rhs_terms:
            if None not in cs:
                known_sum = (known_sum + cs[0] * cs[1] * cs[2]) % p
            else:
                rest = 1
                for k, c in zip(ks, cs):
                    if c is not None:
                        rest = rest * c % p
                coef = rest
        val = (lhs - known_sum) * pow(coef, -1, p) % p
        return ("solve", (k0, val))

    order = list(range(len(variables)))

    def dfs(queue: list[int]):
        trail = []

        def undo():
            for k in trail:
                del assign[k]

        # propagate
        pending = list(queue)
        seen_q = set(pending)
        while pending:
            idx = pending.pop()
            seen_q.discard(idx)
            status, payload = eval_instance(idx)
            if status == "fail":
                undo()
                return
            if status == "solve":
                k0, val = payload
                if val == 0:
                    undo()
                    return
                assign[k0] = val
                trail.append(k0)
                for nxt in incidence[var_index[k0]]:
                    if nxt not in seen_q:
                        pending.append(nxt)
                        seen_q.add(nxt)
        free = next((variables[i] for i in order if variables[i] not in assign), None)
        if free is None:
            _finish()
            undo()
            return
        for val in range(1, p):
            assign[free] = val
            dfs(incidence[var_index[free]])
            del assign[free]
        undo()

    def _finish():
        cand = FusionSystem(rule, field, dict(assign))
        if verify_fusion_system(cand).passed:
            results.append(cand)

    dfs(list(range(len(insts))))
    results.sort(key=lambda f: tuple(sorted(f.coeffs.items())))
    return results


@pytest.mark.parametrize(
    "name, p",
    [("Z2", 2), ("Z2", 5), ("Z2", 17), ("Z3", 7), ("Z4", 5), ("V4", 3), ("TY2", 5), ("TY2", 7), ("TY2", 17)],
)
def test_bruteforce_matches_reference(name, p, ty2):
    """The slot search finds the systems of the key search, in the same sorted
    order, with the same coefficients in the same key order."""
    rule = {
        "Z2": group_rule(cyclic(2)),
        "Z3": group_rule(cyclic(3)),
        "Z4": group_rule(cyclic(4)),
        "V4": group_rule(klein_four()),
        "TY2": ty2.rule,
    }[name]
    got = enumerate_fusion_systems_bruteforce(rule, Field(p))
    want = _reference_bruteforce(rule, Field(p))
    assert [list(f.coeffs.items()) for f in got] == [list(f.coeffs.items()) for f in want]


def test_report_summary_text(f17, mr):
    """The one-line summary of a passing and of a failing report, word for
    word: the verify benchmark digests these lines."""
    from fusionkit import Ambi, enumerate_uber, reconstruct

    f = reconstruct(enumerate_uber(Ambi(mr, f17), with_orbits=False).class_reps[0])
    assert verify_fusion_system(f).summary() == (
        "invertible=True, pentagon=True (3072 instances), triangle=True, rigidity=True, unit_matrices=True"
    )
    coeffs = dict(f.coeffs)
    coeffs[(0, 0, 5, 0, 5, 5)] = coeffs[(0, 0, 5, 0, 5, 5)] * 3 % 17
    assert verify_fusion_system(FusionSystem(f.rule, f17, coeffs)).summary() == (
        "invertible=True, pentagon=False (3072 instances), triangle=False, rigidity=True, unit_matrices=False, "
        "pentagon_fail_at=[(0, 0, 1, 5, 0, 1, 5, 5, 5), (0, 0, 2, 4, 0, 2, 5, 5, 5)]"
    )
