import copy
import pickle
import random
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from fusionkit import (
    Ambi,
    Field,
    coboundary,
    cocycle_to_fusion_system,
    cohomologous3,
    cyclic,
    decompose,
    detect_feudal,
    dihedral,
    enumerate_feudal,
    enumerate_fusion_systems_bruteforce,
    enumerate_uber,
    FusionSystem,
    fusion_system_to_cocycle,
    graded_group,
    group_rule,
    h3,
    h3_via_uber,
    is_cocycle,
    klein_four,
    moore_read,
    normalize_cocycle3,
    quaternion,
    reconstruct,
    standard_catalog,
    tambara_yamagami,
    trivial_group,
    verify_fusion_system,
)
from fusionkit.cohomology import (
    Cochain,
    Units,
    _cyclic_generator,
    _cyclic_trace,
    _delta,
    _normalize3_logs,
    coboundary_logs,
)
from fusionkit.errors import DomainError, ResourceError, ValidationError
from fusionkit.systems import admissible_sextuples
from fusionkit.uber import Uberderivation, uber_constraint_system, vec_to_uber
from fusionkit.zmodlin import Gather, nullspace_mod, solve_mod
from test_report_digests import H3_UNIVERSAL_COEFFICIENTS


def trivial_cochain(group, degree: int, field: Field) -> Cochain:
    """The cochain that is 1 everywhere."""
    return Cochain.from_logs(group, degree, np.zeros((len(group) ** degree, 1), dtype=np.int64), Units(field))


def random_cochain(g, degree, field, rng, module=None):
    module = module or Units(field)
    vals = {
        k: [rng.randrange(1, field.p) for _ in range(module.points)] if module.ambi else rng.randrange(1, field.p)
        for k in product(range(len(g)), repeat=degree)
    }
    return Cochain(g, degree, vals, module)


def _reference_coboundary(h, side):
    """The multiplicative coboundary written out per degree and side, as a
    dict of values; an independent oracle for the signed-gather coboundary.
    Group element i of a B^x cochain acts as the serf serf_ids[i]."""
    g, mod = h.group, h.module
    mul, inv = mod.mul, mod.inv
    A = mod.ambi

    def act(a, x, b=None):
        if A is None:
            return x
        serf = lambda i: A.unit_serf if i is None else A.serf_ids[i]
        return A.act(serf(a), x, serf(b))

    gm = g.mul
    n = len(g)
    out = {}
    if h.degree == 1:
        for a, b in product(range(n), repeat=2):
            if side == "left":
                out[(a, b)] = mul(h(a), act(a, h(b)), inv(h(gm(a, b))))
            else:
                out[(a, b)] = mul(act(None, h(a), b), h(b), inv(h(gm(a, b))))
    elif h.degree == 2:
        for a, b, c in product(range(n), repeat=3):
            if side == "left":
                out[(a, b, c)] = mul(h(a, gm(b, c)), act(a, h(b, c)), inv(mul(h(a, b), h(gm(a, b), c))))
            else:
                out[(a, b, c)] = mul(h(a, gm(b, c)), h(b, c), inv(mul(act(None, h(a, b), c), h(gm(a, b), c))))
    else:
        # the right side is only defined for trivial actions, where it agrees with the left
        for a, b, c, d in product(range(n), repeat=4):
            out[(a, b, c, d)] = mul(
                h(a, b, c),
                h(a, gm(b, c), d),
                act(a, h(b, c, d)),
                inv(mul(h(a, b, gm(c, d)), h(gm(a, b), c, d))),
            )
    return out


def _matches_reference(h, side):
    d = coboundary(h, side)
    ref = _reference_coboundary(h, side)
    return d.degree == h.degree + 1 and set(d.values) == set(ref) and all(
        h.module.eq(d.values[k], v) for k, v in ref.items()
    )


# ---- coboundary operators -------------------------------------------------------


@pytest.mark.parametrize("p", [2, 5, 17])
def test_units_convert_whole_arrays_like_the_field(p, mr):
    """Units.log, Units.exp and Cochain.from_logs/logs on whole arrays give
    the values and types of Field.log/Field.exp applied one value at a time,
    and a zero still raises."""
    F = Field(p)
    rng = random.Random(p)
    for mod in (Units(F), Units(F, Ambi(mr, F))):
        m = mod.points
        vals = [[rng.randrange(1, p) for _ in range(m)] for _ in range(8)]
        logs = mod.log(vals if mod.ambi else [v[0] for v in vals])
        assert logs.tolist() == [[F.log(x) for x in v] for v in vals]
        assert mod.log(vals[0] if mod.ambi else vals[0][0]).tolist() == [F.log(x) for x in vals[0]]
        back = mod.exp(logs - 3 * (p - 1))
        want = [[F.exp(int(e)) for e in row] for row in logs]
        if mod.ambi is None:
            assert back == [w[0] for w in want] and all(type(x) is int for x in back)
            assert mod.one() == 1 and type(mod.exp(logs[0])) is int
        else:
            assert back.dtype == np.int64 and back.tolist() == want
        h = Cochain.from_logs(cyclic(2), 3, logs, mod)
        assert (h.logs() == logs).all()
        with pytest.raises(DomainError, match="discrete log of 0"):
            mod.log([[1] * m, [0] + [1] * (m - 1)] if mod.ambi else [1, p])


def test_cochain_keys_become_int_tuples_and_must_be_total(f17):
    """A cochain keys its values in product order of the tuples, as tuples of
    ints whatever integer type they came in, with their values mod p; a
    missing, out-of-range, wrongly sized or non-integer key is refused with
    one message."""
    g, mod = cyclic(3), Units(f17)
    tuples = list(product(range(3), repeat=2))[::-1]
    h = Cochain(g, 2, {tuple(np.int64(i) for i in k): 20 + i for i, k in enumerate(tuples)}, mod)
    assert list(h.values) == tuples[::-1] and all(type(i) is int for k in h.values for i in k)
    assert list(h.values.values()) == [(20 + 8 - i) % 17 for i in range(9)]
    good = dict.fromkeys(product(range(3), repeat=2), 1)
    rest = dict(list(good.items())[1:])  # (0, 0) left out
    for values in (rest, {}, good | {(0, 3): 1}, rest | {(0, 3): 1}, rest | {(-1, 0): 1},
                   rest | {(0,): 1}, rest | {(0, 0, 0): 1}, rest | {"ab": 1}, rest | {(0.5, 0): 1}):
        with pytest.raises(ValidationError, match=r"^cochain must be total on S\^n$"):
            Cochain(g, 2, values, mod)


def test_cochain_names_its_first_ragged_or_mis_sized_value(f17, mr):
    """A value that is not one integer per point of the module, ragged, too
    long or too short or not an integer, raises a ValidationError naming
    its key, the first in the caller's order; Moore-Read@17 with length-3
    values used to raise numpy's reshape error.  A float, bool or str value
    is not an integer: a cast used to truncate 1.9 to 1 and read True as 1.
    Integer values of any width are read as they are, and one past int64
    is reduced mod p exactly, as Python's % reduces it."""
    keys = list(product(range(4), repeat=2))
    bx, scalar = Units(f17, Ambi(mr, f17)), Units(f17)
    size = lambda module: "must be " + ("one integer" if module is scalar else "2 integers")
    cases = [
        (bx, dict.fromkeys(keys, [1, 2, 3]), keys[0], size(bx)),
        (bx, {k: [[1, 2], [3]] if k == keys[5] else [1, 2] for k in keys}, keys[5], ": [1, 2] is not an integer (ragged or nested)"),
        (bx, {k: [1] if k in keys[3:] else [1, 2] for k in keys}, keys[3], size(bx)),
        (bx, {k: 4 if k == keys[7] else [1, 2] for k in keys}, keys[7], size(bx)),
        (bx, {k: [1, None] if k == keys[9] else [1, 2] for k in keys}, keys[9], ": None is not an integer"),
        (scalar, {k: [1, 2] if k == keys[4] else 3 for k in keys}, keys[4], size(scalar)),
        (scalar, {k: [3] if k == keys[3] else 3 for k in keys}, keys[3], size(scalar)),
        (scalar, {k: 1.9 if k == keys[2] else 3 for k in keys}, keys[2], ": 1.9 is not an integer"),
        (scalar, {k: True if k == keys[8] else 3 for k in keys}, keys[8], ": True is not an integer"),
        (scalar, {k: "3" if k == keys[1] else 3 for k in keys}, keys[1], ": '3' is not an integer"),
        (scalar, {k: np.float64(3.0) if k == keys[11] else 3 for k in keys}, keys[11], ": np.float64(3.0) is not an integer"),
        (bx, {k: [1, 2.5] if k == keys[10] else [1, 2] for k in keys}, keys[10], ": 2.5 is not an integer"),
        (bx, {k: np.array([True, False]) if k == keys[12] else [1, 2] for k in keys}, keys[12], ": True is not an integer"),
    ]
    for module, values, bad, message in cases:
        with pytest.raises(ValidationError) as exc:
            Cochain(mr.serf_group, 2, values, module)
        assert str(exc.value) == f"cochain value at {bad}{' ' * (message[0] != ':')}{message}"
    narrow = Cochain(mr.serf_group, 2, {k: np.int8(3) if k == keys[0] else 3 for k in keys}, scalar)
    assert narrow.vec.tolist() == Cochain(mr.serf_group, 2, dict.fromkeys(keys, 3), scalar).vec.tolist()
    for module, big, small in ((scalar, 2**70, 3), (scalar, 2**63, 3), (bx, [1, 2**64 + 1], [1, 2])):
        c = Cochain(mr.serf_group, 2, {k: big if k == keys[6] else small for k in keys}, module)
        want = np.array(big, dtype=object) % 17
        assert (np.reshape(c.values[keys[6]], -1) == np.reshape(want, -1).astype(np.int64)).all()
    assert Cochain(mr.serf_group, 2, {k: 2**70 if k == keys[6] else 3 for k in keys}, scalar).values[keys[6]] == 13


def test_trivial_cochain_has_trivial_coboundary(f17):
    h = trivial_cochain(cyclic(3), 2, f17)
    d = coboundary(h, "left")
    assert all(v == 1 for v in d.values.values())


def test_dd_is_one_exhaustive_small(f17):
    rng = random.Random(0)
    for g in (cyclic(2), cyclic(3), cyclic(4), klein_four()):
        for _ in range(5):
            h1 = random_cochain(g, 1, f17, rng)
            dd1 = coboundary(coboundary(h1, "left"), "left")
            assert all(v == 1 for v in dd1.values.values())
            h2 = random_cochain(g, 2, f17, rng)
            dd2 = coboundary(coboundary(h2, "left"), "left")
            assert all(v == 1 for v in dd2.values.values())


def test_left_and_right_agree_for_trivial_action(f17):
    rng = random.Random(1)
    g = cyclic(4)
    for deg in (1, 2, 3):
        h = random_cochain(g, deg, f17, rng)
        left = coboundary(h, "left")
        right = coboundary(h, "right")
        assert all(left.values[k] == right.values[k] for k in left.values)


def test_bimodule_coboundary_hand_formula(f17, mr):
    """d(phi)(a,b)(m) = phi(a)(m) phi(b)(abar m) / phi(ab)(m), checked directly."""
    A = Ambi(mr, f17)
    mod = Units(A.field, A)
    S = mr.serf_group
    rng = random.Random(2)
    vals = {(a,): np.array([rng.randrange(1, 17), rng.randrange(1, 17)]) for a in range(4)}
    phi = Cochain(S, 1, vals, mod)
    d = coboundary(phi, "left")
    for a, b in product(range(4), repeat=2):
        for j, m in enumerate(mr.lord_ids):
            sa = mr.serf_ids[a]
            am = mr.act_left(mr.serf_inv(sa), m)
            jj = mr.lord_ids.index(am)
            want = (
                vals[(a,)][j]
                * vals[(b,)][jj]
                * pow(int(vals[(int(S.table[a, b]),)][j]), -1, 17)
                % 17
            )
            assert int(d.values[(a, b)][j]) == want


def test_degree3_right_bimodule_raises(f17, mr):
    A = Ambi(mr, f17)
    mod = Units(A.field, A)
    S = mr.serf_group
    rng = random.Random(3)
    vals = {
        k: np.array([rng.randrange(1, 17), rng.randrange(1, 17)])
        for k in product(range(4), repeat=3)
    }
    h = Cochain(S, 3, vals, mod)
    with pytest.raises(DomainError, match="^degree-3 right coboundary is only defined for trivial actions$"):
        coboundary(h, "right")


def test_degree3_right_coboundary_with_one_lord_is_the_left(f17):
    """With one lord both serf actions on B^x are trivial, so the degree-3 right
    coboundary is defined and agrees with the left."""
    fr = tambara_yamagami(klein_four())
    A = Ambi(fr, f17)
    assert A.npoints == 1
    h = random_cochain(fr.serf_group, 3, f17, random.Random(8), Units(f17, A))
    left, right = coboundary(h, "left"), coboundary(h, "right")
    assert all((left.values[k] == right.values[k]).all() for k in left.values)


def test_h3_rejects_a_coboundary_image_that_is_not_closed(f17, monkeypatch):
    """A corrupted delta^2 whose image delta^3 does not kill fails the closure check."""
    from fusionkit import cohomology

    real = cohomology._delta

    def corrupt(g, degree, side, action):
        d = real(g, degree, side, action)
        if degree == 2:  # the first term of row 0 reads the next column
            src = d.src.copy()
            src[0, 0] += 1
            d = Gather(src, d.signs)
        return d

    monkeypatch.setattr(cohomology, "_delta", corrupt)
    with pytest.raises(ValidationError, match="^coboundary image is not closed$"):
        h3(cyclic(4), f17)


def test_h3_builds_each_coboundary_once_and_never_indexes(f17, monkeypatch):
    """h3 builds delta^3 and delta^2 once each, with the trivial action,
    and its quotient carries no row transform for index, which it never
    calls: only the relation matrix's elimination tracks Vinv."""
    from fusionkit import cohomology, zmodlin

    want = h3(klein_four(), f17)
    built, quots, elims = [], [], []
    real_delta, real_quot, real_smith = cohomology._delta, cohomology.quotient_structure, zmodlin.smith_mod
    monkeypatch.setattr(cohomology, "_delta", lambda g, k, side, act: built.append((k, side, act.tolist())) or real_delta(g, k, side, act))
    monkeypatch.setattr(cohomology, "quotient_structure", lambda *a, **kw: quots.append(real_quot(*a, **kw)) or quots[-1])
    monkeypatch.setattr(zmodlin, "smith_mod", lambda A, n, rhs=None, **kw: elims.append(real_smith(A, n, rhs, **kw)) or elims[-1])
    got = h3(klein_four(), f17)
    assert sorted(built) == [(2, "left", [[0]] * 4), (3, "left", [[0]] * 4)]  # the trivial action
    assert len(quots) == 1 and quots[0]._solver is None
    assert [sm.Vinv is not None for sm in elims] == [False, False, False, True]  # kernel of D3, of GH.T, GH.T, relations
    assert elims[2].rhs.shape[1] == len(klein_four()) ** 2  # D2's columns alone, no identity
    assert got.order == want.order and got.invariant_factors == want.invariant_factors
    assert [r.logs().tolist() for r in got.representatives] == [r.logs().tolist() for r in want.representatives]


def test_coboundary_matches_reference_trivial_action(f17):
    rng = random.Random(6)
    for g in (cyclic(4), klein_four(), dihedral(3), quaternion()):
        for deg, side in product((1, 2, 3), ("left", "right")):
            assert _matches_reference(random_cochain(g, deg, f17, rng), side), (g.name, deg, side)


def _bimodule_fixtures():
    z4 = detect_feudal(group_rule(cyclic(4, labels=["1", "i", "-1", "-i"])))
    return {"moore_read": moore_read(), "ty_v4": tambara_yamagami(klein_four()), "graded_z4": z4}


@pytest.mark.parametrize("name", ["moore_read", "ty_v4", "graded_z4"])
def test_coboundary_matches_reference_bimodule(f17, name):
    fr = _bimodule_fixtures()[name]
    mod = Units(f17, Ambi(fr, f17))
    rng = random.Random(7)
    for deg, side in [(1, "left"), (2, "left"), (3, "left"), (1, "right"), (2, "right")]:
        h = random_cochain(fr.serf_group, deg, f17, rng, mod)
        assert _matches_reference(h, side), (deg, side)


def _reference_delta(g, degree: int, side: str):
    """_delta as it stood, before the action was folded into its gather:
    (src, signs, acted, actor), where src[r, j] is the C^k tuple index of
    term j at the r-th (k+1)-tuple in product order, term j enters with
    exponent signs[j], and term `acted` is acted on by element actor[r]."""
    n, k = len(g), degree
    t = np.indices((n,) * (k + 1)).reshape(k + 1, -1).T
    terms = [t[:, 1:]]
    terms += [np.column_stack([t[:, : i - 1], g.table[t[:, i - 1], t[:, i]], t[:, i + 1 :]]) for i in range(1, k + 1)]
    terms.append(t[:, :k])
    weights = n ** np.arange(k - 1, -1, -1)
    src = np.stack([x @ weights for x in terms], axis=1)
    signs = (-1) ** np.arange(k + 2)
    if side == "left":
        return src, signs, 0, t[:, 0]
    return src, signs, k + 1, t[:, k]


def test_delta_matches_reference(f17):
    """The coboundary gather is the reference's 4-tuple with the action
    folded in: row r * M + i reads term j's tuple at point i, or, for the
    acted term, at the point actor[r] moves i to; on every degree and side,
    with the trivial action on four groups and with B^x on three rules."""
    modules = [(g, Units(f17)) for g in (cyclic(4), klein_four(), dihedral(3), quaternion())]
    modules += [(fr.serf_group, Units(f17, Ambi(fr, f17))) for fr in _bimodule_fixtures().values()]
    for (g, mod), degree, side in product(modules, (1, 2, 3), ("left", "right")):
        src, signs, acted, actor = _reference_delta(g, degree, side)
        action = mod.action(len(g), side)
        m = action.shape[1]
        want = np.repeat(src * m, m, axis=0) + np.tile(np.arange(m), len(src))[:, None]
        want[:, acted] = np.repeat(src[:, acted] * m, m) + action[actor].ravel()
        got = _delta(g, degree, side, action)
        assert got.src.dtype == np.intp and got.signs.dtype == np.int64
        assert (got.src == want).all() and (got.signs == signs).all(), (g.name, mod.points, degree, side)


def test_bimodule_coboundary_reads_serfs_by_carrier_id(f17):
    """Group index i of the serf group is the serf serf_ids[i], which need not be i."""
    fr = detect_feudal(group_rule(cyclic(4)))
    assert fr.serf_ids == (0, 2)
    mod = Units(f17, Ambi(fr, f17))
    h = Cochain(fr.serf_group, 1, {(0,): [3, 5], (1,): [2, 7]}, mod)
    d = coboundary(h, "left")
    # d(h)(1, 1) = h(1) * (serf 2 . h(1)) / h(0), where serf 2 swaps the two lords
    assert d.values[(1, 1)].tolist() == [2 * 7 * pow(3, -1, 17) % 17, 7 * 2 * pow(5, -1, 17) % 17]
    assert _matches_reference(h, "left") and _matches_reference(h, "right")


def _ups_cochain(u):
    """ups as a 2-cochain over the serf group."""
    fr, serfs = u.ambi.feudal, u.ambi.serf_ids
    vals = {(i, j): u.ups[(a, b)] for (i, a), (j, b) in product(enumerate(serfs), repeat=2)}
    return Cochain(fr.serf_group, 2, vals, Units(u.ambi.field, u.ambi))


@pytest.mark.parametrize("name", ["moore_read", "ty_v4", "graded_z4"])
def test_reconstruct_alpha_is_inverse_coboundary_of_ups(f17, name):
    fr = _bimodule_fixtures()[name]
    serfs = fr.serf_ids
    for u in enumerate_uber(Ambi(fr, f17), with_orbits=False).class_reps:
        alpha = decompose(reconstruct(u), fr).alpha
        ups = _ups_cochain(u)
        for (i, j, k), v in _reference_coboundary(ups, "left").items():
            assert (ups.module.inv(v) == alpha[(serfs[i], serfs[j], serfs[k])]).all()


def test_reconstruct_rejects_nonscalar_coboundary_of_ups(f17, mr):
    """alpha = (d ups)^-1 must be scalar; such a ups also fails the biderivation rows."""
    u = enumerate_uber(Ambi(mr, f17), with_orbits=False).class_reps[0]
    a = mr.serf_ids[1]
    u = Uberderivation(u.ambi, u.chi, {**u.ups, (a, a): u.ups[(a, a)] * [3, 1] % 17}, u.tau)
    assert any(len(set(v.tolist())) > 1 for v in _reference_coboundary(_ups_cochain(u), "left").values())
    with pytest.raises(DomainError):
        reconstruct(u)


def test_monomial_axioms_force_a_scalar_coboundary_of_ups():
    """On every solution of the monomial rows, d ups is scalar, so reconstruct
    needs no check of its own: seeded samples x0 + sum c_i h_i of the solution
    lattice on every feudal rule of order <= 8, Moore-Read and TY(V4), at
    p = 13 and 17 (the (rule, p) pairs whose rows are consistent)."""
    rng = np.random.default_rng(5)
    rules = [*enumerate_feudal(8).rules, moore_read(), tambara_yamagami(klein_four())]
    samples = 0
    for fr, p in product(rules, (13, 17)):
        A, n = Ambi(fr, Field(p)), p - 1
        mat, rhs, _ = uber_constraint_system(A)
        x0 = None if mat is None else solve_mod(mat, rhs, n)
        if x0 is None:
            continue
        hom = np.array(nullspace_mod(mat, n)).reshape(-1, len(x0))
        mod = Units(A.field, A)
        for c in rng.integers(0, n, (30, len(hom))):
            u = vec_to_uber(A, (x0 + c @ hom) % n)
            ups = mod.log([u.ups[k] for k in product(A.serf_ids, repeat=2)])
            d = coboundary_logs(ups, mod, fr.serf_group, 2, "left")
            assert (d % n == d[:, :1] % n).all()
            samples += 1
    assert samples == 660


# ---- normalization -----------------------------------------------------------------


def test_normalize_cocycle_and_witness(f17):
    reps = h3(cyclic(4), f17).representatives
    rng = random.Random(4)
    for c in reps:
        # twist by a random coboundary to get a non-normalized cohomologous cocycle
        k = random_cochain(cyclic(4), 2, f17, rng)
        twisted = c.mul(coboundary(k, "left"))
        assert is_cocycle(twisted)
        norm, wit = normalize_cocycle3(twisted)
        assert norm.is_normalized()
        assert norm.eq(twisted.mul(coboundary(wit, "left")))


# ---- H^3 ----------------------------------------------------------------------------


def test_h3_z4_gf17(f17):
    rep = h3(cyclic(4), f17)
    assert rep.order == 4
    assert rep.invariant_factors == [4]
    assert sorted(rep.roots_table.values()) == [1, 4, 13, 16]
    for c in rep.representatives:
        assert c.is_normalized() and is_cocycle(c)
    # representatives are pairwise non-cohomologous
    for i, c1 in enumerate(rep.representatives):
        for c2 in rep.representatives[i + 1 :]:
            assert cohomologous3(c1, c2, f17) is None


def test_h3_z2_gf5_with_brute_oracle(f5):
    rep = h3(cyclic(2), f5)
    assert rep.order == 2
    # oracle: scan all normalized 3-cochains on Z2 (one free value) directly
    g = cyclic(2)
    cocycles = []
    for t in range(1, 5):
        vals = {k: 1 for k in product(range(2), repeat=3)}
        vals[(1, 1, 1)] = t
        c = Cochain(g, 3, vals, Units(f5))
        if is_cocycle(c):
            cocycles.append(c)
    assert len(cocycles) == 2  # t = +-1; on Z2 normalized coboundaries are trivial
    for c in cocycles:
        assert sum(1 for r in rep.representatives if cohomologous3(r, c, f5) is not None) == 1


def test_h3_trivial_group(f5):
    assert h3(trivial_group(), f5).order == 1


@pytest.mark.parametrize("p", [17, 13])
def test_h3_twice_the_klein_group(p):
    # over Z_(p-1) coefficients the universal-coefficient Ext term contributes,
    # on top of the classical Z2^3: total order 16 for both p = 17 and 13
    assert h3(klein_four(), Field(p)).order == 16


# ---- the bridge to fusion systems -----------------------------------------------------


def test_cocycle_system_round_trip(f17):
    g = cyclic(4)
    for c in h3(g, f17).representatives:
        f = cocycle_to_fusion_system(g, c, f17)
        assert verify_fusion_system(f).passed
        back = fusion_system_to_cocycle(f)
        assert back.eq(c)


def test_cocycle_on_another_group_is_refused(f17):
    """A cocycle passed with a group other than its own raises DomainError:
    an H^3(Z2xZ2) representative passed with Z4 used to give a system that
    fails verification, and an H^3(Z2) one a bare IndexError."""
    for g in (klein_four(), cyclic(2)):
        for c in h3(g, f17).representatives[-2:]:
            with pytest.raises(DomainError, match="^omega is a cochain on a different group$"):
                cocycle_to_fusion_system(cyclic(4), c, f17)


def test_trivial_cocycle_gives_trivial_system(f5):
    g = cyclic(2)
    c = trivial_cochain(g, 3, f5)
    f = cocycle_to_fusion_system(g, c, f5)
    assert all(v == 1 for v in f.coeffs.values())


def test_nonnormalized_input_is_normalized_first(f17):
    g = cyclic(4)
    rng = random.Random(5)
    c = h3(g, f17).representatives[1]
    k = random_cochain(g, 2, f17, rng)
    twisted = c.mul(coboundary(k, "left"))
    f = cocycle_to_fusion_system(g, twisted, f17)
    assert verify_fusion_system(f).passed


def test_system_gauge_classes_biject_with_h3(f5):
    systems = enumerate_fusion_systems_bruteforce(group_rule(cyclic(2)), f5)
    reps = h3(cyclic(2), f5).representatives
    assert len(systems) == len(reps) == 2
    for f in systems:
        c = fusion_system_to_cocycle(f)
        assert sum(1 for r in reps if cohomologous3(r, c, f5) is not None) == 1


# ---- the uber cross-check ----------------------------------------------------------------


@pytest.mark.parametrize("p", [17, 13])
def test_h3_via_uber_matrix(p):
    field = Field(p)
    for g in (cyclic(2), cyclic(4), klein_four()):
        serfs = g.index2_subgroups()[0]
        rep = h3_via_uber(g, serfs, field)
        assert rep.agree
        assert rep.h3_order == h3(g, field).order


GRADED_ORDER_6_TO_8 = [g for g in standard_catalog(8) if 6 <= len(g) <= 8 and g.index2_subgroups()]


@pytest.mark.parametrize("g", GRADED_ORDER_6_TO_8, ids=[g.name for g in GRADED_ORDER_6_TO_8])
def test_graded_group_classes_match_universal_coefficients(g, f17):
    """On every Z2-grading of a catalog group of order 6 to 8 (Z7 has none),
    the gauge classes of uberderivations number |H^3(G, GF(17)^x)|, as the
    universal coefficient theorem gives it; h3 itself is not run."""
    order, _ = H3_UNIVERSAL_COEFFICIENTS[f"{g.name}@17"]
    for serfs in g.index2_subgroups():
        cls = enumerate_uber(Ambi(graded_group(g, serfs), f17), with_orbits=False)
        assert cls.gauge_classes == order


def test_h3_via_uber_z4_anchor(f17):
    rep = h3_via_uber(cyclic(4), frozenset({0, 2}), f17)
    assert rep.count == 4


def test_h3_via_uber_trivial_serfs(f5):
    rep = h3_via_uber(cyclic(2), frozenset({0}), f5)
    assert rep.count == 2


def test_three_routes_agree_on_graded_z4_gf5(f5):
    """Brute-force system enumeration, lattice classification, and direct H^3
    are three independent computations of the same count."""
    from fusionkit import (
        Ambi,
        detect_feudal,
        enumerate_uber,
        gauge_equivalent_uber,
        psi,
    )

    z4 = cyclic(4, labels=["1", "i", "-1", "-i"])
    fr = detect_feudal(group_rule(z4))
    systems = enumerate_fusion_systems_bruteforce(fr.rule, f5)
    assert len(systems) == 64
    ambi = Ambi(fr, f5)
    buckets = []
    for f in systems:
        u = psi(f, fr, ambi)
        if not any(gauge_equivalent_uber(b, u) for b in buckets):
            buckets.append(u)
    lattice = enumerate_uber(ambi, with_orbits=False).gauge_classes
    direct = h3(z4, f5).order
    assert len(buckets) == lattice == direct == 4


def test_degenerate_two_element_field():
    f2 = Field(2)
    assert h3(cyclic(4), f2).order == 1
    rep = h3_via_uber(cyclic(4), frozenset({0, 2}), f2)
    assert rep.count == 1 and rep.agree


@pytest.mark.parametrize(
    "g, serfs, p, error, message",
    [
        (cyclic(4), {0}, 17, DomainError, "serfs must form an index-2 subgroup"),
        (cyclic(4), {0, 1}, 17, ValidationError, "serf/lord split is not a Z2 grading"),
        (cyclic(4), {0, 2}, 263, ResourceError, "enumeration is bounded at p <= 257"),
        (cyclic(10), {0, 2, 4, 6, 8}, 11, ResourceError, "h3 is bounded at |G| <= 8"),
    ],
    ids=["not_index_2", "not_a_subgroup", "p_past_the_count_bound", "group_past_the_h3_bound"],
)
def test_h3_via_uber_errors_keep_their_order(g, serfs, p, error, message):
    """h3_via_uber checks the serfs and counts the classes before it runs h3,
    so a bad input raises what the first failing stage raises."""
    with pytest.raises(error) as raised:
        h3_via_uber(g, serfs, Field(p))
    assert str(raised.value) == message


def test_h3_resource_bounds():
    from fusionkit import dihedral
    from fusionkit.errors import ResourceError

    with pytest.raises(ResourceError):
        h3(dihedral(5), Field(17))  # order 10 exceeds the bound
    with pytest.raises(ResourceError):
        h3(cyclic(2), Field(263))


def test_cochain_inverse_is_pointwise(f17):
    """inv inverts each value in the module: c times c.inv() is the trivial
    cochain, and inverting twice gives c back."""
    rng = random.Random(12)
    A = Ambi(tambara_yamagami(cyclic(2)), f17)
    for module in (Units(f17), Units(f17, A)):
        c = random_cochain(cyclic(3), 2, f17, rng, module)
        inv = c.inv()
        assert all(module.eq(module.mul(v, inv.values[k]), module.one()) for k, v in c.values.items())
        assert c.mul(inv).eq(trivial_cochain(cyclic(3), 2, f17)) and inv.inv().eq(c)


# ---- a cochain is its log array ---------------------------------------------------------


def test_from_logs_refuses_a_log_array_of_the_wrong_shape(f17, mr):
    """from_logs takes (n^degree, M) rows and columns, no more and no fewer:
    a longer array is not truncated, a shorter one is not padded."""
    mod = Units(f17)
    for rows in (10, 5, 3, 0):
        with pytest.raises(ValidationError, match=r"\(n\^degree, M\) = \(4, 1\), got \(%d, 1\)" % rows):
            Cochain.from_logs(cyclic(2), 2, np.arange(rows).reshape(-1, 1), mod)
    with pytest.raises(ValidationError, match=r"\(n\^degree, M\) = \(4, 2\), got \(4, 1\)"):
        Cochain.from_logs(mr.serf_group, 1, np.zeros((4, 1), np.int64), Units(f17, Ambi(mr, f17)))
    with pytest.raises(ValidationError, match=r"got \(4,\)"):
        Cochain.from_logs(cyclic(2), 2, np.zeros(4, np.int64), mod)
    with pytest.raises(DomainError, match="^degree must be 1, 2, 3, or 4$"):
        Cochain.from_logs(cyclic(2), 5, np.zeros((32, 1), np.int64), mod)
    assert Cochain.from_logs(cyclic(2), 2, np.arange(4).reshape(-1, 1), mod).logs().tolist() == [[0], [1], [2], [3]]


def test_equal_cochains_are_equal_in_both_modules(f17, mr):
    """== compares group, degree, module and log array: cochains built apart,
    one from values and one from logs, over separately built modules, are
    equal for GF(p)^x and for B^x (Moore-Read), and a change to any part is
    not."""
    rng = random.Random(21)
    for module, again in ((Units(f17), Units(Field(17))), (Units(f17, Ambi(mr, f17)), Units(f17, Ambi(mr, f17)))):
        g = mr.serf_group
        c = random_cochain(g, 1, f17, rng, module)
        same = Cochain.from_logs(g, 1, c.logs(), again)
        assert c == same and not c != same and c.eq(same)
        other = Cochain.from_logs(g, 1, c.logs() + np.eye(len(c.logs()), module.points, dtype=np.int64), module)
        assert c != other and not c.eq(other)
        assert c != Cochain.from_logs(cyclic(4), 1, c.logs(), module)  # the same table, another group
        f17_5 = Field(17, 5)  # another primitive root
        assert c != Cochain.from_logs(g, 1, c.logs(), Units(f17_5, Ambi(mr, f17_5) if module.ambi else None))
        assert c != coboundary(c) and c != c.logs() and c != dict(c.values)
    assert trivial_cochain(cyclic(2), 2, f17) != trivial_cochain(cyclic(2), 2, Field(5))


def test_cochain_is_read_only_and_copies_through_from_logs(f17, mr):
    """values is a read-only view of the log array, with read-only rows for
    B^x, and no attribute can be rebound, so a cochain cannot be made to
    disagree with its logs; copy, deepcopy and pickle rebuild it with from_logs."""
    rng = random.Random(22)
    for module in (Units(f17), Units(f17, Ambi(mr, f17))):
        c = random_cochain(mr.serf_group, 2, f17, rng, module)
        with pytest.raises(TypeError):
            c.values[(0, 0)] = 0
        for name, value in (("values", {}), ("vec", c.vec), ("degree", 3), ("module", Units(Field(5)))):
            with pytest.raises(AttributeError, match="^Cochain is read-only"):
                setattr(c, name, value)
        with pytest.raises(ValueError, match="read-only"):
            c.logs()[0, 0] = 1
        if module.ambi is not None:
            with pytest.raises(ValueError, match="read-only"):
                c.values[(0, 0)][0] = 0
        assert c.__reduce__()[0] == Cochain.from_logs
        for back in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert back == c and back is not c and not back.logs().flags.writeable
            assert all(module.eq(v, back.values[k]) for k, v in c.values.items())
        assert is_cocycle(coboundary(c))


@pytest.mark.parametrize("g", [cyclic(4), klein_four(), quaternion()], ids=lambda g: g.name)
def test_coboundary_logs_of_k_cochains_side_by_side(g, f17):
    """With the trivial action, a (n^degree, K) log array is K cochains: its
    coboundary is the K coboundaries side by side, in degrees 2 and 3."""
    rng = np.random.default_rng(23)
    mod = Units(f17)
    for degree, side in product((2, 3), ("left", "right")):
        logs = rng.integers(0, 16, (len(g) ** degree, 3))
        batch = coboundary_logs(logs, mod, g, degree, side)
        for j in range(3):
            one = coboundary_logs(logs[:, j : j + 1], mod, g, degree, side)
            assert (batch[:, j : j + 1] == one).all(), (degree, side, j)


# ---- per-key oracles for the array operations of a cochain -------------------------------


def _reference_mul(c1, c2):
    return {k: c1.module.mul(v, c2.values[k]) for k, v in c1.values.items()}


def _reference_inv(c):
    return {k: c.module.inv(v) for k, v in c.values.items()}


def _reference_eq(c1, c2):
    return all(c1.module.eq(v, c2.values[k]) for k, v in c1.values.items())


def _reference_is_normalized(c):
    e = c.group.unit
    one = c.module.one()
    return all(c.module.eq(v, one) for k, v in c.values.items() if e in k)


def _reference_cyclic_generator(g):
    for a in range(len(g)):
        if g.element_order(a) == len(g):
            return a
    return None


def _reference_cyclic_trace(c, gen):
    g = c.group
    out = 1
    x = g.unit
    for _ in range(len(g)):
        out = c.module.mul(out, c(gen, x, gen))
        x = g.mul(x, gen)
    return out


def _reference_cocycle_to_fusion_system(g, omega, field):
    if omega.degree != 3 or not is_cocycle(omega):
        raise DomainError("omega must be a 3-cocycle")
    if not _reference_is_normalized(omega):
        omega, _ = normalize_cocycle3(omega)
    rule = group_rule(g)
    coeffs = {}
    for (x, y, z, u, r, v) in admissible_sextuples(rule):
        coeffs[(x, y, z, u, r, v)] = omega(x, y, z)
    return FusionSystem(rule, field, coeffs)


def _reference_fusion_system_to_cocycle(f):
    from fusionkit.rules import group_from_members

    n = f.rule.n
    g = group_from_members(f.rule, range(n))
    vals = {}
    for a, b, c in product(range(n), repeat=3):
        ab = g.mul(a, b)
        vals[(a, b, c)] = f.coeff(a, b, c, ab, g.mul(ab, c), g.mul(b, c))
    c = Cochain(g, 3, vals, Units(f.field))
    if not is_cocycle(c):
        raise ValidationError("fusion system does not define a cocycle")
    return c


ORACLE_CASES = [(g, 17) for g in standard_catalog(8)] + [(g, 13) for g in standard_catalog(5)]


@lru_cache(maxsize=None)
def _h3_report(g, p):
    return h3(g, Field(p))


@pytest.mark.parametrize("g, p", ORACLE_CASES, ids=[f"{g.name}@{p}" for g, p in ORACLE_CASES])
def test_cochain_arrays_match_the_per_key_references(g, p):
    """On the h3 representatives, and on each twisted by the coboundary of a
    seeded 2-cochain (so not normalized), mul, inv, eq, is_normalized, the
    cyclic trace (and the roots table it fills) and both bridges give what
    the per-key bodies give, and the twisted ones normalized in one batch are
    what normalize_cocycle3 makes of each.  The per-key references take ~35 ms
    a representative on the groups of order 8, so they run on every k-th one,
    k = |H^3| // 16 (64 on Z2xZ2xZ2@17, 2 on D4 and Z2xZ4, 1 elsewhere)."""
    field, rng = Field(p), random.Random(len(g) * p)
    report = _h3_report(g, p)
    gen = _reference_cyclic_generator(g)
    assert _cyclic_generator(g) == gen and (report.roots_table is None) == (gen is None)
    sample = list(enumerate(report.representatives))[:: max(1, len(report.representatives) // 16)]
    twists = [c.mul(coboundary(random_cochain(g, 2, field, rng), "left")) for _, c in sample]
    batch, _ = _normalize3_logs(np.hstack([t.logs() for t in twists]), Units(field), g)
    touching = [i for i, k in enumerate(product(range(len(g)), repeat=3)) if g.unit in k]
    for (i, c), twisted, normalized in zip(sample, twists, batch.T):
        assert (normalize_cocycle3(twisted)[0].logs()[:, 0] == normalized).all()
        assert c.mul(twisted).values == _reference_mul(c, twisted)
        assert twisted.inv().values == _reference_inv(twisted)
        for a, b in ((c, c), (c, twisted)):
            assert a.eq(b) == _reference_eq(a, b) == (a == b)
        bumped = np.zeros((len(g) ** 3, 1), dtype=np.int64)
        bumped[rng.choice(touching)] = 1  # off the normalized slice at one row only
        assert not _reference_is_normalized(c.mul(Cochain.from_logs(g, 3, bumped, c.module)))
        assert not c.mul(Cochain.from_logs(g, 3, bumped, c.module)).is_normalized()
        for h in (c, twisted):
            assert h.is_normalized() == _reference_is_normalized(h)
            f = cocycle_to_fusion_system(g, h, field)
            assert f == _reference_cocycle_to_fusion_system(g, h, field)
            assert fusion_system_to_cocycle(f) == _reference_fusion_system_to_cocycle(f)
            if gen is not None:
                assert _cyclic_trace(h, gen) == _reference_cyclic_trace(h, gen)
        if gen is not None:
            assert report.roots_table[i] == _reference_cyclic_trace(c, gen)
