import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import random
import re
import sys
import weakref
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from fusionkit import (
    Ambi,
    Field,
    GaugeTriple,
    Uberderivation,
    apply_gauge,
    apply_gauge_uber,
    canonicalize_tau,
    check_existence_obstructions,
    cyclic,
    decompose,
    dihedral,
    enumerate_feudal,
    enumerate_uber,
    gauge_equivalent_uber,
    graded_group,
    is_normal,
    klein_four,
    moore_read,
    named_group,
    normalize,
    psi,
    random_gauge,
    reconstruct,
    tambara_yamagami,
    verify_fusion_system,
)
from fusionkit.cohomology import Units, coboundary_logs
from fusionkit.errors import DomainError, ValidationError
from fusionkit.feudal import FeudalRule, detect_feudal
from fusionkit import jsonio, systems
from fusionkit.systems import FusionSystem, GaugeXi, admissible_sextuples
from fusionkit import uber
from fusionkit.uber import (
    Decomposition,
    _gauge_lattice,
    _shape_slots,
    _slot_gauge,
    gauge_shift,
    transport,
    uber_constraint_system,
    uber_to_vec,
    uber_unknown_keys,
    vec_to_uber,
)
from fusionkit.zmodlin import Gather, solve_mod


def is_valid(self: Uberderivation) -> bool:
    """Whether a triple fails no axiom."""
    return not self.report()


def ty2_uber(f17, ty2, tau=3):
    A = Ambi(ty2, f17)
    e, a = ty2.serf_ids
    one = A.one()
    chi = {(e, e): one, (e, a): one, (a, e): one, (a, a): A.const(16)}
    ups = {k: one.copy() for k in chi}
    return Uberderivation(A, chi, ups, A.const(tau))


def pinned_uber(ambi, chi_pins, extra_pins=()):
    """Solve the monomial axioms with chi pinned to explicit values."""
    F = ambi.field
    n = F.p - 1
    mat, rhs, keys = uber_constraint_system(ambi)
    idx = {k: i for i, k in enumerate(keys)}
    rows, extra = [], []
    for (a, b, j), val in chi_pins.items():
        row = np.zeros(len(keys), dtype=np.int64)
        row[idx[("chi", a, b, j)]] = 1
        rows.append(row)
        extra.append(F.log(val))
    for key, val in extra_pins:
        row = np.zeros(len(keys), dtype=np.int64)
        row[idx[key]] = 1
        rows.append(row)
        extra.append(F.log(val))
    full = np.vstack([mat] + rows)
    frhs = np.concatenate([rhs, np.array(extra, dtype=np.int64)])
    sol = solve_mod(full, frhs, n)
    assert sol is not None, "pinned system is inconsistent"
    return vec_to_uber(ambi, sol)


def mr_uber(f17, mr, x=2, p=(2, 8), r=(2, 15)):
    """The explicit two-lord triple with chi in its constant-tau matrix form."""
    A = Ambi(mr, f17)
    one, minus1, i, minusi = mr.serf_ids
    neg = lambda v: tuple(f17.neg(c) for c in v)
    rbar = (r[1], r[0])
    chi_rows = {
        (minus1, minus1): (16, 16),
        (minus1, i): p,
        (minus1, minusi): neg(p),
        (i, minus1): p,
        (i, i): (x, x),
        (i, minusi): r,
        (minusi, minus1): neg(p),
        (minusi, i): rbar,
        (minusi, minusi): (x, x),
    }
    pins = {}
    for a in mr.serf_ids:
        for b in mr.serf_ids:
            vals = chi_rows.get((a, b), (1, 1))
            pins[(a, b, 0)] = vals[0]
            pins[(a, b, 1)] = vals[1]
    # pin tau constant so the solved representative is in matrix form
    u = pinned_uber(A, pins, extra_pins=[(("tau", 0), 3), (("tau", 1), 3)])
    u.validate()
    return u


# ---- small anchored triples ----------------------------------------------------------


def test_ty2_uber_valid_and_reconstructs(f17, ty2):
    u = ty2_uber(f17, ty2)
    assert is_valid(u)
    f = reconstruct(u)
    rep = verify_fusion_system(f)
    assert rep.passed
    assert is_normal(f, ty2)
    assert psi(f, ty2, u.ambi) == u


def test_ty2_tau_values_are_pm_3(f17, ty2):
    # |A| tau taubar = 1 with |A| = 2 forces tau^2 = 9, so tau = 3 or 14
    assert is_valid(ty2_uber(f17, ty2, 3))
    assert is_valid(ty2_uber(f17, ty2, 14))
    assert not is_valid(ty2_uber(f17, ty2, 5))


def test_gamma11_reads_tau_back(f17, ty2):
    u = ty2_uber(f17, ty2, 14)
    dec = decompose(reconstruct(u), ty2)
    e = ty2.rule.unit
    assert dec.gamma[(e, e)].tolist() == [14]


def test_z4_example_uber(f17, z4_graded):
    """Two serfs, two lords: determined by p = chi(-1,-1) and q = ups(-1,-1)
    with p in F, p^2 = q/qbar, and tau constant with tau taubar = 1."""
    A = Ambi(z4_graded, f17)
    e, s = A.serf_ids
    one = A.one()
    p_val = 4  # a 4th root of unity
    q = np.array([f17.mul(p_val * p_val % 17, 1), 1])
    chi = {(e, e): one, (e, s): one, (s, e): one, (s, s): A.const(p_val)}
    ups = {(e, e): one, (e, s): one, (s, e): one, (s, s): q}
    u = Uberderivation(A, chi, ups, one)
    u.validate()
    f = reconstruct(u)
    assert verify_fusion_system(f).passed
    assert psi(f, z4_graded, A) == u
    # nonconstant p is not quasisymmetric once tau is constant
    bad = Uberderivation(A, {**chi, (s, s): np.array([4, 1])}, ups, one)
    assert not is_valid(bad)


def test_decomposition_normalizations_on_verified_systems(f17, mr):
    """alpha and the alpha_i are normalized, and every beta_i(1,-) is one,
    on any verified system (unit-matrix consequences)."""
    rng = random.Random(13)
    u = mr_uber(f17, mr)
    f = apply_gauge(reconstruct(u), random_gauge(mr.rule, f17, rng))
    dec = decompose(f, mr)
    e = mr.rule.unit
    for a in mr.serf_ids:
        for b in mr.serf_ids:
            assert dec.alpha[(e, a, b)] == dec.alpha[(a, e, b)] == dec.alpha[(a, b, e)] == 1
        for table in (dec.alpha1, dec.alpha2, dec.alpha3):
            assert (table[(e, a)] % 17 == 1).all() and (table[(a, e)] % 17 == 1).all()
        for table in (dec.beta1, dec.beta2, dec.beta3):
            assert (table[(e, a)] % 17 == 1).all()


def test_trivial_system_decomposes_to_ones(f17):
    v4 = klein_four()
    fr = graded_group(v4, sorted(v4.index2_subgroups()[0]))
    rule = fr.rule
    f = FusionSystem(rule, f17, {k: 1 for k in admissible_sextuples(rule)})
    assert verify_fusion_system(f).passed
    dec = decompose(f, fr)
    for table in (dec.alpha1, dec.alpha2, dec.alpha3, dec.beta1, dec.beta2, dec.beta3, dec.gamma):
        for v in table.values():
            assert (v % 17 == 1).all()
    assert all(v == 1 for v in dec.alpha.values())
    u = psi(f, fr)
    assert is_valid(u) and (u.tau == 1).all()


# ---- the explicit six-element fixture --------------------------------------------------


def test_mr_uber_matrix_form(f17, mr):
    u = mr_uber(f17, mr)
    assert is_valid(u)
    one, minus1, i, minusi = mr.serf_ids
    # chi matches the constant-tau matrix form with x = 2, p = (2,8), r = (2,15)
    assert u.chi[(i, i)].tolist() == [2, 2]
    assert u.chi[(minus1, minus1)].tolist() == [16, 16]
    assert u.chi[(i, minusi)].tolist() == [2, 15]
    assert u.chi[(minusi, i)].tolist() == [15, 2]
    # p pbar = -1 and r rbar = -x^2
    A = u.ambi
    assert A.mul(u.chi[(minus1, i)], A.bar(u.chi[(minus1, i)])).tolist() == [16, 16]
    assert A.mul(u.chi[(i, minusi)], A.bar(u.chi[(i, minusi)])).tolist() == [13, 13]


def test_mr_uber_ups_ratio_matrix(f17, mr):
    """ups/upsbar follows the constant-tau matrix pattern in x, p, r."""
    u = mr_uber(f17, mr)
    A = u.ambi
    one, minus1, i, minusi = mr.serf_ids
    x, p, r = A.const(2), u.chi[(minus1, i)], u.chi[(i, minusi)]
    rbar, pbar = A.bar(r), A.bar(p)
    neg = lambda v: (-v) % 17
    ratio = lambda a, b: A.div(u.ups[(a, b)], A.bar(u.ups[(a, b)]))
    want = {
        (minus1, minus1): A.mul(p, p),
        (minus1, i): neg(A.div(A.mul(p, r), x)),
        (minus1, minusi): neg(A.div(A.mul(p, x), r)),
        (i, minus1): neg(A.div(A.mul(pbar, r), x)),
        (i, i): A.div(A.mul(x, x), p),
        (i, minusi): A.mul(x, r),
        (minusi, minus1): neg(A.div(A.mul(pbar, x), r)),
        (minusi, i): A.mul(x, rbar),
        (minusi, minusi): neg(A.div(A.mul(x, x), p)),
    }
    for (a, b), val in want.items():
        assert A.eq(ratio(a, b), val), (mr.rule.labels[a], mr.rule.labels[b])
    for b in mr.serf_ids:
        assert A.eq(ratio(one, b), A.one())
        assert A.eq(ratio(b, one), A.one())


def test_mr_reconstruct_and_round_trip(f17, mr):
    u = mr_uber(f17, mr)
    f = reconstruct(u)
    rep = verify_fusion_system(f)
    assert rep.passed and rep.pentagon_checked > 0
    assert psi(f, mr, u.ambi) == u


def test_mr_gauge_class_determined_by_x(f17, mr):
    u1 = mr_uber(f17, mr, x=2, p=(2, 8), r=(2, 15))
    u2 = mr_uber(f17, mr, x=2, p=(8, 2), r=(2, 15))  # same x, different p
    u3 = mr_uber(f17, mr, x=9, p=(2, 8), r=(2, 2))  # different x
    assert gauge_equivalent_uber(u1, u2) is not None
    assert gauge_equivalent_uber(u1, u3) is None
    assert gauge_equivalent_uber(u1, u1) is not None


# ---- psi of gauges, normalization -------------------------------------------------------


def test_normalize_identity_on_normal(f17, ty2):
    u = ty2_uber(f17, ty2)
    f = reconstruct(u)
    out, xi = normalize(f, ty2)
    assert out == f
    assert all(v == 1 for v in xi.values.values())


def test_normalize_recovers_normal_form(f17, mr):
    rng = random.Random(3)
    u = mr_uber(f17, mr)
    f = reconstruct(u)
    for _ in range(3):
        xi = random_gauge(mr.rule, f17, rng)
        g = apply_gauge(f, xi)
        out, wit = normalize(g, mr)
        assert is_normal(out, mr)
        assert verify_fusion_system(out).passed
        assert apply_gauge(g, wit) == out


def test_reconstruct_output_is_normal(f17, mr, ty2):
    for fr, u in ((mr, mr_uber(f17, mr)), (ty2, ty2_uber(f17, ty2))):
        assert is_normal(reconstruct(u), fr)


def test_reconstruct_validates_input(f17, ty2):
    u = ty2_uber(f17, ty2, tau=5)  # violates the norm condition
    with pytest.raises(DomainError):
        reconstruct(u)


def test_psi_on_non_normal_system_classifies_through_normal_form(f17, mr):
    """The literal triple of a gauged (non-normal) system may fail the axioms;
    psi must still return a valid triple for the same gauge class."""
    rng = random.Random(31)
    u = mr_uber(f17, mr)
    f = reconstruct(u)
    g = apply_gauge(f, random_gauge(mr.rule, f17, rng))
    assert not is_normal(g, mr)
    ug = psi(g, mr, u.ambi)
    assert is_valid(ug)
    fn, _ = normalize(g, mr)
    assert ug == psi(fn, mr, u.ambi)
    assert gauge_equivalent_uber(ug, u) is not None


def test_psi_decomposes_each_system_once(f17, mr, monkeypatch):
    """psi builds no Decomposition: it gathers the normal check and the
    triple off the coefficient vector, on a normal and a non-normal input."""
    import fusionkit.uber as uber_mod

    u = mr_uber(f17, mr)
    f = reconstruct(u)
    g = apply_gauge(f, random_gauge(mr.rule, f17, random.Random(31)))
    want = psi(g, mr, u.ambi)
    calls = []
    real = uber_mod.decompose
    monkeypatch.setattr(uber_mod, "decompose", lambda *a: calls.append(a[0]) or real(*a))
    assert psi(g, mr, u.ambi) == want and not is_normal(g, mr)
    assert psi(f, mr, u.ambi) == u
    assert len(calls) == 1 and calls[0] is g  # is_normal's, not psi's


def test_psi_is_class_functorial_with_self_dual_lords(f17):
    """On the graded Klein rule the literal triple of a non-normal system can
    be valid yet sit in the wrong gauge class; psi must classify correctly."""
    v4 = klein_four()
    fr = graded_group(v4, sorted(v4.index2_subgroups()[0]))
    A = Ambi(fr, f17)
    cls = enumerate_uber(A, with_orbits=False)
    assert cls.gauge_classes == 16
    rng = random.Random(1001)
    for u in cls.class_reps[:4]:
        f = reconstruct(u)
        for _ in range(3):
            g = apply_gauge(f, random_gauge(fr.rule, f17, rng))
            ug = psi(g, fr, A)
            hits = [
                k
                for k, rep in enumerate(cls.class_reps)
                if gauge_equivalent_uber(ug, rep) is not None
            ]
            assert hits == [cls.class_reps.index(u)]


def test_canonicalize_tau_self_dual_lords_split(f17):
    """Self-dual lords pin tau pointwise: mixed-sign tau admits no constant
    form, while equal-sign tau is already constant."""
    v4 = klein_four()
    fr = graded_group(v4, sorted(v4.index2_subgroups()[0]))
    A = Ambi(fr, f17)
    cls = enumerate_uber(A, with_orbits=False)
    constant, rigid = 0, 0
    for u in cls.class_reps:
        if int(u.tau[0]) == int(u.tau[1]):
            assert canonicalize_tau(u) == u
            constant += 1
        else:
            with pytest.raises(DomainError):
                canonicalize_tau(u)
            rigid += 1
    assert constant == 8 and rigid == 8


# ---- canonicalize tau ---------------------------------------------------------------------


def test_canonicalize_tau_mr(f17, mr):
    A = Ambi(mr, f17)
    u = mr_uber(f17, mr)
    sig = np.array([5, 1], dtype=np.int64)
    g = GaugeTriple(A, {k: A.one() for k in u.ups}, {a: A.one() for a in A.serf_ids}, sig)
    skew = apply_gauge_uber(u, g)
    assert skew.tau[0] != skew.tau[1]
    fixed = canonicalize_tau(skew)
    assert fixed.tau[0] == fixed.tau[1]
    assert is_valid(fixed)
    assert gauge_equivalent_uber(skew, fixed) is not None


def test_canonicalize_tau_constant_is_fixed_point(f17, mr):
    u = mr_uber(f17, mr)
    assert canonicalize_tau(u) == u


def test_canonicalize_tau_z4(f17, z4_graded):
    cls = enumerate_uber(Ambi(z4_graded, f17), with_orbits=False)
    for u in cls.class_reps:
        c = canonicalize_tau(u)
        assert c.tau[0] == c.tau[1] and is_valid(c)


def test_canonicalize_tau_needs_square_root(f7, ty3):
    # lone lord: tau is trivially constant, no field demand
    A = Ambi(ty3, f7)
    e = ty3.rule.unit
    one = A.one()
    chi = {(a, b): one for a in ty3.serf_ids for b in ty3.serf_ids}
    ups = {k: one.copy() for k in chi}
    u = Uberderivation(A, chi, ups, A.const(2))
    assert canonicalize_tau(u) == u


# ---- enumeration ----------------------------------------------------------------------------


def test_enumerate_ty2(f17, ty2):
    cls = enumerate_uber(Ambi(ty2, f17))
    assert cls.gauge_classes == 2 == cls.equivalence_classes
    taus = sorted(int(u.tau[0]) for u in cls.class_reps)
    assert taus == [3, 14]
    for u in cls.class_reps:
        assert u.chi[(ty2.serf_ids[1],) * 2].tolist() == [16]


def test_enumerate_mr(f17, mr):
    cls = enumerate_uber(Ambi(mr, f17))
    assert cls.gauge_classes == 4 == cls.equivalence_classes
    i = mr.rule.index("i")
    xs = sorted(inv["chi_diag"]["i"][0] for inv in cls.invariants)
    assert xs == [2, 8, 9, 15]
    # the explicit fixture lands in the x = 2 class
    u2 = mr_uber(f17, mr, x=2)
    hits = [
        k
        for k, rep in enumerate(cls.class_reps)
        if gauge_equivalent_uber(rep, u2) is not None
    ]
    assert len(hits) == 1


def test_enumerate_ty3_over_gf7_is_empty(f7, ty3):
    cls = enumerate_uber(Ambi(ty3, f7))
    assert cls.gauge_classes == 0
    assert not cls.obstructions.clear


def test_enumerate_ty3_over_gf13(ty3):
    cls = enumerate_uber(Ambi(ty3, Field(13)))
    # chi(g,g) is a primitive cube root (2 choices) and tau = +-sqrt(1/3);
    # inversion fixes each bicharacter (chi(g^2,g^2) = chi(g,g)^4 = chi(g,g)),
    # so no classes merge under automorphisms
    assert cls.gauge_classes == 4
    assert cls.equivalence_classes == 4


def test_enumerate_ty_z4(f17):
    """Nondegenerate symmetric bicharacters on Z4 pair with tau = +-1/2."""
    from fusionkit import cyclic
    from fusionkit.fields import roots_of_unity

    fr = tambara_yamagami(cyclic(4))
    cls = enumerate_uber(Ambi(fr, f17))
    # oracle: chi(g,g) must be a primitive 4th root of unity
    prim = [z for z in roots_of_unity(f17, 4) if f17.order_of(z) == 4]
    assert len(prim) == 2
    assert cls.gauge_classes == len(prim) * 2 == 4
    assert cls.equivalence_classes == 4  # inversion fixes each bicharacter
    assert sorted({int(u.tau[0]) for u in cls.class_reps}) == [8, 9]  # +-1/2


def test_enumerate_ty_klein(f17):
    """Four nondegenerate symmetric bicharacters on the Klein group, S3 merging
    them into two orbits; two tau signs throughout."""
    from fusionkit import klein_four
    from itertools import product as iproduct

    # oracle: symmetric 2x2 Gram matrices over {1,-1}, nondegenerate means
    # every nontrivial element has a character summing to zero
    v4 = klein_four()
    count = 0
    decomp = [_klein_decomp(v4, a) for a in range(4)]
    for d1, d2, off in iproduct((1, 16), repeat=3):
        gram = [[d1, off], [off, d2]]
        chi = np.ones((4, 4), dtype=np.int64)
        for a in range(4):
            for b in range(4):
                v = 1
                for i in range(2):
                    for j in range(2):
                        if decomp[a][i] and decomp[b][j]:
                            v = v * gram[i][j] % 17
                chi[a, b] = v
        if all(int(chi[a].sum() % 17) == 0 for a in range(1, 4)):
            count += 1
    assert count == 4

    fr = tambara_yamagami(v4)
    cls = enumerate_uber(Ambi(fr, f17))
    assert cls.gauge_classes == count * 2 == 8
    assert cls.equivalence_classes == 4


def _klein_decomp(v4, a):
    gens = v4.generating_sequence()
    for e1 in (0, 1):
        for e2 in (0, 1):
            x = v4.unit
            if e1:
                x = v4.mul(x, gens[0])
            if e2:
                x = v4.mul(x, gens[1])
            if x == a:
                return (e1, e2)
    raise AssertionError


def _six_element_rule(S, G):
    from fusionkit.groups import homomorphisms
    from fusionkit.feudal import HomDatum, phi as phi_fn

    datum = next(
        HomDatum(S, G, u)
        for u in homomorphisms(S, G)
        if 2 * len(set(u.tolist())) == len(G)
        and sum(1 for a in range(len(S)) if int(u[a]) == G.unit) >= 2
    )
    return phi_fn(datum)


def test_other_six_element_families_classify_and_reconstruct(f17):
    """The two-lord rules beyond the bundled one: gauge and equivalence
    counts (the orbit merge on two lords) are frozen as regressions and every
    class reconstructs to a verified system."""
    from fusionkit import cyclic, klein_four

    z4, v4 = cyclic(4), klein_four()
    for (S, G), want in (((v4, z4), (4, 2)), ((z4, v4), (16, 12)), ((v4, v4), (16, 12))):
        fr = _six_element_rule(S, G)
        cls = enumerate_uber(Ambi(fr, f17))
        assert (cls.gauge_classes, cls.equivalence_classes) == want
        for u in cls.class_reps[:4]:
            f = reconstruct(u)
            assert verify_fusion_system(f).passed
            assert psi(f, fr, u.ambi) == u


def _pairwise_orbits(cls):
    """The orbit partition built pair by pair: classes i < j are joined when
    some graded automorphism moves rep i into the gauge class of rep j."""
    from fusionkit.rules import automorphisms

    fr = cls.ambi.feudal
    perms = [
        p
        for p in automorphisms(fr.rule, bound=max(10, fr.rule.n))
        if all(int(p[s]) in fr.serfs for s in fr.serf_ids)
    ]
    reps = cls.class_reps
    label = list(range(len(reps)))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if label[i] != label[j] and any(
                gauge_equivalent_uber(transport(reps[i], p), reps[j]) is not None for p in perms
            ):
                old = label[j]
                label = [label[i] if lab == old else lab for lab in label]
    groups = {}
    for i, lab in enumerate(label):
        groups.setdefault(lab, []).append(i)
    return sorted(groups.values())


def test_orbits_match_pairwise_gauge_equivalence(f17):
    """The orbits read off by coset index are the ones the pairwise span test finds."""
    from fusionkit import cyclic, klein_four

    rules = [
        (_six_element_rule(cyclic(4), klein_four()), f17),
        (_six_element_rule(klein_four(), klein_four()), f17),
        (tambara_yamagami(cyclic(5)), Field(41)),
    ]
    for fr, F in rules:
        cls = enumerate_uber(Ambi(fr, F))
        assert cls.orbits == _pairwise_orbits(cls)
        assert any(len(orbit) > 1 for orbit in cls.orbits)


def test_enumerate_graded_d4(f17):
    d4 = dihedral(4)
    fr = graded_group(d4, sorted(d4.index2_subgroups()[0]))
    cls = enumerate_uber(Ambi(fr, f17))
    assert (cls.gauge_classes, cls.equivalence_classes) == (32, 24)


def test_witness_back_from_random_gauge_two_lords(f17):
    """A class representative and a randomly gauged copy of it are joined by
    a witness the lattice span test finds."""
    from fusionkit import cyclic, klein_four

    fr = _six_element_rule(cyclic(4), klein_four())
    A = Ambi(fr, f17)
    rng = random.Random(21)
    e = A.unit_serf
    for u in enumerate_uber(A, with_orbits=False).class_reps[::5]:
        theta = {k: A.one() if e in k else A.const(rng.randrange(1, 17)) for k in u.ups}
        phi_ = {
            a: A.one() if a == e else np.array([rng.randrange(1, 17) for _ in range(A.npoints)])
            for a in A.serf_ids
        }
        sig = np.array([rng.randrange(1, 17) for _ in range(A.npoints)])
        gauged = apply_gauge_uber(u, GaugeTriple(A, theta, phi_, sig))
        w = gauge_equivalent_uber(u, gauged)
        assert w is not None and apply_gauge_uber(u, w) == gauged
        assert gauge_equivalent_uber(gauged, u) is not None


def test_morphism_dictionary_round_trip(f17, mr):
    """Lifting a triple-level gauge to a coefficient-level one and reading it
    back is the identity, and the lift carries the normal system of u to the
    normal system of the gauged triple, exactly."""
    from fusionkit.uber import gauge_xi_from_triple, psi_gauge

    rng = random.Random(55)
    A = Ambi(mr, f17)
    cls = enumerate_uber(A, with_orbits=False)
    e = A.unit_serf
    for u in cls.class_reps[:2]:
        f = reconstruct(u)
        for _ in range(3):
            theta = {
                k: (A.one() if e in k else A.const(rng.randrange(1, 17))) for k in u.ups
            }
            phi_ = {
                a: (A.one() if a == e else np.array([rng.randrange(1, 17) for _ in range(2)]))
                for a in A.serf_ids
            }
            sig = np.array([rng.randrange(1, 17), rng.randrange(1, 17)])
            g = GaugeTriple(A, theta, phi_, sig)
            u2 = apply_gauge_uber(u, g)
            assert is_valid(u2)
            xi = gauge_xi_from_triple(g)
            back = psi_gauge(xi, mr, A)
            assert all(A.eq(back.theta[k], g.theta[k]) for k in g.theta)
            assert all(A.eq(back.phi[a], g.phi[a]) for a in g.phi)
            assert A.eq(back.sigma, g.sigma)
            assert apply_gauge(f, xi) == reconstruct(u2)


def test_xi_components_round_trip(f17, mr, ty2):
    """xi_from_components inverts xi_components on random gauges."""
    from fusionkit.uber import xi_components, xi_from_components

    rng = random.Random(3)
    for fr in (mr, ty2):
        xi = random_gauge(fr.rule, f17, rng)
        assert xi_from_components(fr, f17, *xi_components(xi, fr)).values == xi.values


def _reference_xi_components(xi: GaugeXi, fr: FeudalRule):
    """xi_components as it stood: one keyed read per component entry."""
    serfs, lords = fr.serf_ids, fr.lord_ids
    inv = fr.serf_inv
    L, R = fr.act_left, fr.act_right
    dual = lambda m: int(fr.rule.dual[m])
    theta = {(a, b): xi[(a, b, fr.serf_mul(a, b))] for a in serfs for b in serfs}
    phi = {a: np.array([xi[(a, L(inv(a), m), m)] for m in lords], dtype=np.int64) for a in serfs}
    psi_ = {a: np.array([xi[(R(m, inv(a)), a, m)] for m in lords], dtype=np.int64) for a in serfs}
    omega = {a: np.array([xi[(m, R(dual(m), a), a)] for m in lords], dtype=np.int64) for a in serfs}
    return theta, phi, psi_, omega


def _reference_xi_from_components(fr: FeudalRule, field: Field, theta, phi, psi_, omega) -> GaugeXi:
    """xi_from_components as it stood: the support walked once, in sorted
    order, by the lordness of x, y."""
    rule = fr.rule
    pos = {m: i for i, m in enumerate(fr.lord_ids)}
    vals = []
    for x, y in product(range(rule.n), repeat=2):
        for r in rule.support(x, y):
            if x in fr.serfs and y in fr.serfs:
                v = theta[(x, y)]
            elif x in fr.serfs:
                v = phi[x][pos[r]]
            elif y in fr.serfs:
                v = psi_[y][pos[r]]
            else:
                v = omega[r][pos[x]]
            vals.append(v)
    return GaugeXi.from_vec(rule, field, vals)


def test_gauge_components_match_reference(gauge_rules):
    """xi_components, one gather through the component positions, and
    xi_from_components, one scatter, equal the support walks on every rule
    under seeded random gauges and components: keys, order, values and types."""
    from fusionkit.uber import xi_components, xi_from_components

    rng = random.Random(29)
    for A in gauge_rules:
        fr, F, e = A.feudal, A.field, A.unit_serf
        point = lambda: np.array([rng.randrange(1, F.p) for _ in range(A.npoints)])
        for _ in range(3):
            xi = random_gauge(fr.rule, F, rng)
            got, want = xi_components(xi, fr), _reference_xi_components(xi, fr)
            assert [(k, v, type(v)) for k, v in got[0].items()] == [(k, v, type(v)) for k, v in want[0].items()]
            for g, w in zip(got[1:], want[1:]):
                assert list(g) == list(w) and all(type(g[a]) is np.ndarray and _same_array(g[a], w[a]) for a in w)
            comps = (
                {k: 1 if e in k else rng.randrange(1, F.p) for k in product(A.serf_ids, repeat=2)},
                *({a: A.one() if a == e else point() for a in A.serf_ids} for _ in range(2)),
                {a: point() for a in A.serf_ids},
            )
            for c in (want, comps):
                assert _same_array(xi_from_components(fr, F, *c).vec, _reference_xi_from_components(fr, F, *c).vec)
    other = gauge_rules[0].feudal.rule  # not the graded D4 of the last loop
    with pytest.raises(DomainError, match="different rules"):
        xi_components(random_gauge(other, F, rng), fr)


def _reference_gauge_xi_from_triple(g: GaugeTriple) -> GaugeXi:
    """gauge_xi_from_triple as it stood: the morphism formulas per serf, in B."""
    A, fr = g.ambi, g.ambi.feudal
    inv, serfs = fr.serf_inv, fr.serf_ids
    theta = {k: v[0] for k, v in g.theta.items()}
    psi_ = {a: A.mul(A.ract(A.bar(g.phi[a]), a), A.ract(g.sigma, a), A.inv(g.sigma)) for a in serfs}
    omega = {a: A.div(A.mul(A.act(a, g.phi[inv(a)]), A.act(a, g.sigma)), g.theta[(inv(a), a)]) for a in serfs}
    return _reference_xi_from_components(fr, A.field, theta, g.phi, psi_, omega)


def test_gauge_xi_from_triple_matches_reference(gauge_rules):
    """The lift of a triple gauge, on arrays, equals the per-serf formulas on
    every rule under seeded random gauge triples, and psi_gauge reads the
    triple gauge back."""
    from fusionkit.uber import gauge_xi_from_triple, psi_gauge

    rng = random.Random(37)
    for A in gauge_rules:
        for _ in range(3):
            g = _random_gauge_triple(A, rng)
            xi = gauge_xi_from_triple(g)
            assert _same_array(xi.vec, _reference_gauge_xi_from_triple(g).vec)
            assert _same_array(psi_gauge(xi, A.feudal, A).vec, g.vec)


def test_gauge_triple_names_its_first_bad_entry(f17, mr, ty2):
    """A gauge keyed other than by the serf pairs (theta) or the serfs (phi),
    or with an entry that is not one residue per lord, raises a
    ValidationError naming the field and the entry, also where every entry
    has the same wrong shape; the per-entry loop accepted these, or failed
    later with a bare KeyError, AttributeError or numpy ValueError."""
    for fr in (mr, ty2):
        A = Ambi(fr, f17)
        g = _random_gauge_triple(A, random.Random(4))
        e, a, m = A.unit_serf, A.serf_ids[1], A.lord_ids[0]
        show = lambda *k: ",".join(fr.rule.labels[i] for i in k)
        without = lambda d, k: {j: v for j, v in d.items() if j != k}
        cases = [
            ({**g.theta, (a, a): g.theta[(a, a)][:1]} if A.npoints > 1 else None, g.phi, g.sigma, f"'theta' at {show(a, a)!r}"),
            ({**g.theta, (a, a): [[1, 2]]} if A.npoints == 1 else None, g.phi, g.sigma, f"'theta' at {show(a, a)!r}"),
            (without(g.theta, (a, a)), g.phi, g.sigma, f"'theta' must be keyed by the serf pairs; it differs at {show(a, a)!r}"),
            ({**g.theta, (a, m): A.one()}, g.phi, g.sigma, f"'theta' must be keyed by the serf pairs; it differs at {show(a, m)!r}"),
            (g.theta, without(g.phi, a), g.sigma, f"'phi' must be keyed by the serfs; it differs at {show(a)!r}"),
            (g.theta, without(g.phi, e), g.sigma, f"'phi' must be keyed by the serfs; it differs at {show(e)!r}"),
            ({k: 1 for k in g.theta}, g.phi, g.sigma, f"'theta' at {show(e, e)!r} must list one residue per lord"),
            (g.theta, {**g.phi, a: [1, 2, 3]}, g.sigma, f"'phi' at {show(a)!r} must list one residue per lord"),
            (g.theta, {b: [1] * 3 for b in g.phi}, g.sigma, f"'phi' at {show(e)!r} must list one residue per lord"),
            (g.theta, g.phi, [1] * 5, "'sigma' must list one residue per lord"),
        ]
        for theta, phi, sigma, message in cases:
            if theta is not None:
                with pytest.raises(ValidationError) as exc:
                    GaugeTriple(A, theta, phi, sigma)
                assert str(exc.value).startswith(message)


def test_gauge_equivalence_is_an_equivalence(f17, mr):
    rng = random.Random(8)
    A = Ambi(mr, f17)
    u = mr_uber(f17, mr)
    us = [u]
    for _ in range(2):
        theta = {
            k: (A.one() if A.unit_serf in k else A.const(rng.randrange(1, 17)))
            for k in u.ups
        }
        phi = {
            a: (A.one() if a == A.unit_serf else np.array([rng.randrange(1, 17) for _ in range(2)]))
            for a in A.serf_ids
        }
        sig = np.array([rng.randrange(1, 17), rng.randrange(1, 17)])
        us.append(apply_gauge_uber(us[-1], GaugeTriple(A, theta, phi, sig)))
    w01 = gauge_equivalent_uber(us[0], us[1])
    w12 = gauge_equivalent_uber(us[1], us[2])
    w02 = gauge_equivalent_uber(us[0], us[2])
    assert w01 and w12 and w02
    # witnesses compose: applying w01 then w12 lands on us[2]
    assert apply_gauge_uber(apply_gauge_uber(us[0], w01), w12) == us[2]
    # symmetric: a witness back exists
    assert gauge_equivalent_uber(us[2], us[0]) is not None


def test_transport_by_automorphism_preserves_validity(f17, mr):
    from fusionkit.rules import automorphisms

    # graded D4 has automorphisms of order 4 on its four lords, TY(V4) of
    # order 3 on its serfs; a random gauge makes the entries differ
    d4 = dihedral(4)
    rng = random.Random(5)
    us = [mr_uber(f17, mr)]
    for fr in (graded_group(d4, sorted(d4.index2_subgroups()[0])), tambara_yamagami(klein_four())):
        A = Ambi(fr, f17)
        rep = enumerate_uber(A, with_orbits=False).class_reps[0]
        nm = A.npoints
        theta = {k: A.one() if A.unit_serf in k else A.const(rng.randrange(1, 17)) for k in rep.ups}
        phi = {a: np.array([rng.randrange(1, 17) for _ in range(nm)]) for a in A.serf_ids}
        phi[A.unit_serf] = A.one()
        sigma = np.array([rng.randrange(1, 17) for _ in range(nm)])
        us.append(apply_gauge_uber(rep, GaugeTriple(A, theta, phi, sigma)))
    for u in us:
        A = u.ambi
        pos = {m: i for i, m in enumerate(A.lord_ids)}
        for perm in automorphisms(A.feudal.rule):  # all graded on these rules
            v = transport(u, perm)
            assert is_valid(v)
            # each entry is read at the preimage serfs and lord
            pre = {int(perm[x]): x for x in range(len(perm))}
            lords = [pos[pre[m]] for m in A.lord_ids]
            for a, b in u.chi:
                assert A.eq(v.chi[(a, b)], u.chi[(pre[a], pre[b])][lords])
                assert A.eq(v.ups[(a, b)], u.ups[(pre[a], pre[b])][lords])
            assert A.eq(v.tau, u.tau[lords])


def test_transport_rejects_a_permutation_off_the_graded_automorphisms(f17, mr):
    """On Moore-Read, swapping serf -1 with lord i' (no grading kept) and
    swapping the unit with serf -1 (no automorphism) both raise DomainError,
    and so does a map that is no permutation."""
    u = mr_uber(f17, mr)
    assert mr.rule.labels[1] == "-1" and mr.rule.labels[4] == "i'"
    for swap in ((1, 4), (0, 1)):
        perm = np.arange(mr.rule.n)
        perm[list(swap)] = perm[list(swap[::-1])]
        with pytest.raises(DomainError, match="^transport needs a rule automorphism that maps serfs to serfs$"):
            transport(u, perm)
    with pytest.raises(DomainError):
        transport(u, np.zeros(mr.rule.n, np.int64))


# ---- the named rows against the multiplicative axioms -----------------------------------


def _reference_report(u):
    """The axioms written multiplicatively, pointwise in B, on an invertible
    triple: the oracle that the named constraint rows are checked against."""
    from itertools import product

    A = u.ambi
    f = A.feudal
    e = A.unit_serf
    serfs = A.serf_ids
    issues = {}
    check = lambda name, witness: issues.setdefault(name, []).append(witness)
    for a, b in product(serfs, repeat=2):
        if (a == e or b == e) and not A.eq(u.ups[(a, b)], A.one()):
            check("ups_normalized", (a, b))
    for a, b in product(serfs, repeat=2):
        ai, bi = f.serf_inv(a), f.serf_inv(b)
        rhs = A.mul(
            A.act(ai, u.chi[(a, b)], bi),
            A.act(ai, u.tau, bi),
            u.tau,
            A.inv(A.act(ai, u.tau)),
            A.inv(A.ract(u.tau, bi)),
        )
        if not A.eq(A.bar(u.chi[(b, a)]), rhs):
            check("quasisymmetric", (a, b))
    for a, b, c in product(serfs, repeat=3):
        lhs = A.mul(u.ups[(a, b)], A.inv(A.ract(u.ups[(a, b)], c)), u.chi[(f.serf_mul(a, b), c)])
        if not A.eq(lhs, A.mul(u.chi[(a, c)], A.act(a, u.chi[(b, c)]))):
            check("biderivation", (a, b, c))
    acts = A.trivial_actors
    for a, b in product(acts, repeat=2):
        if not A.eq(u.chi[(a, b)], u.chi[(b, a)]):
            check("symmetric_on_A", (a, b))
        for c in acts:
            if not A.eq(u.chi[(f.serf_mul(a, b), c)], A.mul(u.chi[(a, c)], u.chi[(b, c)])):
                check("bicharacter_on_A", (a, b, c))
    for a in acts:
        if a != e and (sum(u.chi[(a, b)] for b in acts) % A.field.p).any():
            check("nondegenerate_on_A", a)
    if not A.eq(A.mul(A.const(len(acts)), u.tau, A.bar(u.tau)), A.one()):
        check("tau_norm", "|A| tau taubar != 1")
    return issues


def _random_gauge_triple(A, rng):
    p, e = A.field.p, A.unit_serf
    unit = lambda: np.array([rng.randrange(1, p) for _ in range(A.npoints)])
    pairs = [(a, b) for a in A.serf_ids for b in A.serf_ids]
    theta = {k: A.one() if e in k else A.const(rng.randrange(1, p)) for k in pairs}
    phi = {a: A.one() if a == e else unit() for a in A.serf_ids}
    return GaugeTriple(A, theta, phi, unit())


def test_report_matches_multiplicative_axioms(f17, f13, mr, ty2, ty3):
    """report, read off the named rows, fails exactly the axioms (and at
    exactly the witnesses) that the multiplicative definitions fail.  The
    bicharacter law on A x A x A is the biderivation law there, and symmetry
    is witnessed by the pair a < b."""
    from fusionkit import cyclic, klein_four

    rng = random.Random(13)
    rules = [
        (mr, f17),
        (ty2, f17),
        (tambara_yamagami(klein_four()), f17),
        (ty3, f13),
        (_six_element_rule(cyclic(4), klein_four()), f17),
    ]
    kinds = set()

    def agree(u):
        want = {}
        for axiom, witnesses in _reference_report(u).items():
            if axiom == "symmetric_on_A":
                witnesses = [(a, b) for a, b in witnesses if a < b]
            if axiom == "bicharacter_on_A":
                axiom = "biderivation"
            want.setdefault(axiom, set()).update(witnesses)
        got = u.report()
        assert is_valid(u) == (not want)
        assert {k: set(v) for k, v in got.items()} == want
        kinds.update(got)

    for fr, F in rules:
        A = Ambi(fr, F)
        n = F.p - 1
        for _ in range(6):  # random exponent vectors
            agree(vec_to_uber(A, np.array([rng.randrange(n) for _ in uber_unknown_keys(A)])))
        reps = enumerate_uber(A, with_orbits=False).class_reps
        assert reps
        for _ in range(6):  # gauged class representatives, and a one-entry corruption of each
            u = apply_gauge_uber(rng.choice(reps), _random_gauge_triple(A, rng))
            agree(u)
            x = uber_to_vec(u)
            x[rng.randrange(len(x))] += rng.randrange(1, n)
            agree(vec_to_uber(A, x))
    axioms = ("ups_normalized", "quasisymmetric", "biderivation", "symmetric_on_A", "nondegenerate_on_A")
    assert kinds == {*axioms, "tau_norm"}


def test_report_on_zero_entries_names_invertible(f17, ty2):
    """A zero entry has no exponent coordinates: invertibility is all that is reported."""
    a = ty2.serf_ids[1]
    for part in ("chi", "ups"):
        u = ty2_uber(f17, ty2)
        tables = {"chi": dict(u.chi), "ups": dict(u.ups)}
        tables[part][(a, a)] = u.ambi.zero()
        u = Uberderivation(u.ambi, tables["chi"], tables["ups"], u.tau)
        assert u.report() == {"invertible": [(a, a)]}
    u = ty2_uber(f17, ty2, tau=0)
    assert u.report() == {"invertible": ["tau"]}
    with pytest.raises(DomainError, match="invertible"):
        u.validate()


# ---- obstructions -----------------------------------------------------------------------


def test_obstruction_nonabelian_adjoint(f17):
    ty_s3 = tambara_yamagami(dihedral(3))
    rep = check_existence_obstructions(ty_s3, f17)
    assert not rep.clear
    assert any(name == "adjoint_abelian" and not ok for name, ok, _ in rep.items)
    assert enumerate_uber(Ambi(ty_s3, f17), with_orbits=False).gauge_classes == 0


def test_obstruction_characteristic(ty2):
    rep = check_existence_obstructions(ty2, Field(2))
    assert not rep.clear
    assert any(name == "char_does_not_divide_A" and not ok for name, ok, _ in rep.items)


def test_obstruction_sqrt(f7, ty3):
    rep = check_existence_obstructions(ty3, f7)
    assert not rep.clear
    assert any(name == "sqrt_of_A_order" and not ok for name, ok, _ in rep.items)


def test_enumeration_resource_bounds(ty2):
    from fusionkit import dihedral as dih
    from fusionkit.errors import ResourceError

    big = tambara_yamagami(dih(6))  # 12 serfs
    with pytest.raises(ResourceError):
        enumerate_uber(Ambi(big, Field(17)))
    with pytest.raises(ResourceError):
        enumerate_uber(Ambi(ty2, Field(263)))


def _ty_closed_form_counts(A, F):
    """(gauge classes, equivalence classes) of TY(A) over F by the closed form of
    Tambara and Yamagami (J. Algebra 209, 1998): the nondegenerate symmetric
    bicharacters on A, and their Aut(A)-orbits, each times the number of
    square roots of 1/|A| in F."""
    from fusionkit.groups import automorphisms, from_mul, homomorphisms

    n = F.p - 1
    # characters A -> F^x in log coordinates, and the group they form
    chars = [tuple(c.tolist()) for c in homomorphisms(A, cyclic(n))]
    pos = {c: str(i) for i, c in enumerate(chars)}
    dual = from_mul(list(pos.values()), lambda i, j: pos[tuple((np.add(chars[int(i)], chars[int(j)]) % n).tolist())])
    # a bicharacter is a homomorphism a -> chi(a, -) from A to its characters,
    # nondegenerate iff injective
    bichars = []
    for f in homomorphisms(A, dual):
        chi = [[chars[int(f[a])][b] for b in range(len(A))] for a in range(len(A))]
        if len(set(f.tolist())) == len(A) and all(chi[a][b] == chi[b][a] for a in range(len(A)) for b in range(a)):
            bichars.append(chi)
    orbits = {
        min(tuple(chi[int(s[a])][int(s[b])] for a in range(len(A)) for b in range(len(A))) for s in automorphisms(A))
        for chi in bichars
    }
    roots = sum(1 for t in range(1, F.p) if len(A) * t * t % F.p == 1)
    return len(bichars) * roots, len(orbits) * roots


@pytest.mark.parametrize(
    "A, p, want",
    [
        (cyclic(2), 17, (2, 2)),
        (cyclic(3), 13, (4, 4)),
        (cyclic(4), 17, (4, 4)),
        (klein_four(), 17, (8, 4)),
        (cyclic(5), 41, (8, 4)),
        (cyclic(6), 37, (0, 0)),  # 6 is not a square mod 37
        (cyclic(6), 73, (4, 4)),
        (cyclic(7), 29, (12, 4)),
        (cyclic(8), 17, (8, 8)),
        (named_group("Z2xZ4"), 17, (8, 2)),
        (named_group("Z2xZ2xZ2"), 17, (56, 2)),
    ],
    ids=[
        "Z2@17", "Z3@13", "Z4@17", "Z2xZ2@17", "Z5@41", "Z6@37", "Z6@73",
        "Z7@29", "Z8@17", "Z2xZ4@17", "Z2xZ2xZ2@17",
    ],
)
def test_tambara_yamagami_closed_form(A, p, want):
    """enumerate_uber on TY(A) counts the classes the closed form predicts."""
    F = Field(p)
    assert _ty_closed_form_counts(A, F) == want
    cls = enumerate_uber(Ambi(tambara_yamagami(A), F))
    assert (cls.gauge_classes, cls.equivalence_classes) == want


# ---- the gauge action against its multiplicative reference --------------------------


def _reference_gauge_shift(ambi, g):
    """gauge_shift before the gather: the multiplicative formulas, one
    Ambi.mul/div chain per serf pair."""
    A = ambi
    f = A.feudal
    chi_s, ups_s = {}, {}
    for a, b in product(A.serf_ids, repeat=2):
        num = A.mul(
            g.phi[a],
            A.act(a, A.bar(g.phi[b]), b),
            A.act(a, g.sigma, b),
            g.sigma,
        )
        den = A.mul(
            A.ract(g.phi[a], b),
            A.ract(A.bar(g.phi[b]), b),
            A.act(a, g.sigma),
            A.ract(g.sigma, b),
        )
        chi_s[(a, b)] = A.div(num, den)
        dphi = A.div(A.mul(g.phi[a], A.act(a, g.phi[b])), g.phi[f.serf_mul(a, b)])
        ups_s[(a, b)] = A.div(dphi, g.theta[(a, b)])
    tau_s = A.div(A.bar(g.sigma), g.sigma)
    return chi_s, ups_s, tau_s


def _reference_vec_to_uber(ambi, vec):
    """vec_to_uber before the table lookup: one Field.exp per key."""
    F = ambi.field
    parts = {"chi": {}, "ups": {}}
    tau = ambi.one()
    for k, eexp in zip(uber_unknown_keys(ambi), vec):
        val = F.exp(int(eexp))
        if k[0] == "tau":
            tau[k[1]] = val
        else:
            parts[k[0]].setdefault(k[1:3], ambi.one())[k[3]] = val
    return Uberderivation(ambi, parts["chi"], parts["ups"], tau)


def _reference_uber_to_vec(u):
    """uber_to_vec before the table lookup: one Field.log per key."""
    F = u.ambi.field
    parts = {"chi": u.chi, "ups": u.ups}
    vals = (u.tau[k[1]] if k[0] == "tau" else parts[k[0]][k[1:3]][k[3]] for k in uber_unknown_keys(u.ambi))
    return np.array([F.log(int(v)) for v in vals], dtype=np.int64)


def _reference_slot_gauge(ambi: Ambi, slots: list[tuple], exps) -> GaugeTriple:
    """_slot_gauge before the gather: the product of the generators at slots,
    generator i to the power exps[i], one slot at a time."""
    A = ambi
    theta = {(a, b): A.one() for a in A.serf_ids for b in A.serf_ids}
    phi = {a: A.one() for a in A.serf_ids}
    sigma = A.one()
    for slot, k in zip(slots, exps):
        val = A.field.exp(int(k))
        if slot[0] == "theta":
            theta[slot[1:3]][list(slot[3])] = val
        elif slot[0] == "phi":
            phi[slot[1]][slot[2]] = val
        else:
            sigma[slot[1]] = val
    return GaugeTriple(A, theta, phi, sigma)


def _reference_gauge_lattice(ambi):
    """(slots, shifts, n) of _gauge_lattice before the gather: one
    GaugeTriple, one gauge_shift and one uber_to_vec per generator."""
    nonunit = [a for a in ambi.serf_ids if a != ambi.unit_serf]
    slots = [("theta", a, b, orb) for a in nonunit for b in nonunit for orb in ambi.orbits]
    slots += [("phi", a, j) for a in nonunit for j in range(ambi.npoints)]
    slots += [("sigma", j) for j in range(ambi.npoints)]
    gens = (_reference_slot_gauge(ambi, slots, row) for row in np.eye(len(slots), dtype=np.int64))
    shifts = np.array(
        [_reference_uber_to_vec(Uberderivation(ambi, *_reference_gauge_shift(ambi, g))) for g in gens]
    )
    return slots, shifts, ambi.field.p - 1


@pytest.fixture(scope="module")
def gauge_rules():
    """The 16 feudal rules of order <= 8 at p=17, TY(Z3)@13, TY(Z5)@41,
    TY(Z2^3)@17, Moore-Read@17 and graded D4@17, as Ambis."""
    rules = [(fr, 17) for fr in enumerate_feudal(8).rules]
    rules += [(tambara_yamagami(cyclic(3)), 13), (tambara_yamagami(cyclic(5)), 41)]
    rules += [(tambara_yamagami(named_group("Z2xZ2xZ2")), 17), (moore_read(), 17)]
    d4 = dihedral(4)
    rules.append((graded_group(d4, sorted(d4.index2_subgroups()[0])), 17))
    return [Ambi(fr, Field(p)) for fr, p in rules]


def _same_array(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and (x == y).all()


def _same_lattice(lat, ref):
    slots, shifts, n = ref
    return lat.slots == slots and lat.n == n and _same_array(lat.shifts, shifts)


def _same_shift(got, want):
    """Equal chi and ups dicts (keys in order, values and dtypes) and tau."""
    for g, w in zip(got[:2], want[:2]):
        if list(g) != list(w) or not all(_same_array(g[k], w[k]) for k in w):
            return False
    return _same_array(got[2], want[2])


def test_gauge_lattice_matches_reference(gauge_rules):
    """The lattice from one batched gather has the slots and shifts (dtype,
    shape and values) of the per-generator multiplicative loop."""
    assert len(gauge_rules) == 21
    for A in gauge_rules:
        assert _same_lattice(_gauge_lattice(A), _reference_gauge_lattice(A))


def test_gauge_shift_matches_reference(gauge_rules):
    """gauge_shift through the gather gives the multiplicative shifts on
    seeded random gauge triples: keys in order, values and dtypes."""
    rng = random.Random(33)
    for A in gauge_rules:
        for _ in range(3):
            g = _random_gauge_triple(A, rng)
            assert _same_shift(gauge_shift(A, g), _reference_gauge_shift(A, g))


def test_gauge_shift_zero_entry_is_not_invertible(f17, mr):
    """A zero anywhere in theta, phi or sigma, where the multiplicative inverse
    raised a DomainError, is rejected when the gauge is built: a
    ValidationError naming the field and the key."""
    A = Ambi(mr, f17)
    rng = random.Random(4)
    a = next(s for s in A.serf_ids if s != A.unit_serf)
    label = mr.rule.labels[a]
    for where, message in (("theta", f"'theta' at '{label},{label}'"), ("phi", f"'phi' at '{label}'"), ("sigma", "'sigma'")):
        g = _random_gauge_triple(A, rng)
        theta, phi, sigma = dict(g.theta), dict(g.phi), g.sigma.copy()
        if where == "theta":
            theta[(a, a)] = A.zero()
        elif where == "phi":
            phi[a] = np.append(phi[a][:-1], 0)
        else:
            sigma[0] = 0
        with pytest.raises(ValidationError, match=f"^{re.escape(message)} has an entry 0 mod p, not invertible$"):
            GaugeTriple(A, theta, phi, sigma)
        with pytest.raises(DomainError, match="^element is not invertible$"):
            _reference_gauge_shift(A, SimpleNamespace(theta=theta, phi=phi, sigma=sigma))
    vec = g.vec.copy()
    vec[-1] = 0
    with pytest.raises(ValidationError, match=f"^entry {len(vec) - 1} is 0 mod p, not invertible$"):
        GaugeTriple.from_vec(A, vec)


def _drop_left_sigma(gather, fr):
    """The gather without the act(a, sigma) term of chi: sign 0 on its rows."""
    signs = gather.signs.copy()
    signs[uber._layout_of(fr).chi.ravel(), 6] = 0
    return Gather(gather.src, signs)


def _flip_theta(gather, fr):
    """The gather with the theta term of ups entering with the wrong sign."""
    signs = gather.signs.copy()
    signs[uber._layout_of(fr).ups.ravel(), 3] *= -1
    return Gather(gather.src, signs)


@pytest.mark.parametrize("mutate", [_drop_left_sigma, _flip_theta])
def test_gauge_reference_checks_catch_a_mutant(gauge_rules, monkeypatch, mutate):
    """A gather that drops a term or flips a sign fails both comparisons."""
    real = uber._gauge_gather
    monkeypatch.setattr(uber, "_gauge_gather", lambda fr: mutate(real(fr), fr))
    rng = random.Random(33)
    lattices, shifts = [], []
    for A in gauge_rules[-3:]:
        fresh = Ambi(A.feudal, A.field)
        lattices.append(_same_lattice(_gauge_lattice(fresh), _reference_gauge_lattice(fresh)))
        g = _random_gauge_triple(fresh, rng)
        shifts.append(_same_shift(gauge_shift(fresh, g), _reference_gauge_shift(fresh, g)))
    assert not all(lattices) and not all(shifts)


def test_vec_to_uber_and_back_match_reference(gauge_rules):
    """The table-lookup conversions give the per-key ones: the same triple
    (keys in order, values, dtypes) and the same exponent vector; a zero
    entry has no exponent vector."""
    rng = np.random.default_rng(12)
    for A in gauge_rules:
        n = A.field.p - 1
        for vec in rng.integers(-2 * n, 2 * n, (4, len(uber_unknown_keys(A)))):
            u, ref = vec_to_uber(A, vec), _reference_vec_to_uber(A, vec)
            assert _same_shift((u.chi, u.ups, u.tau), (ref.chi, ref.ups, ref.tau))
            assert _same_array(uber_to_vec(u), _reference_uber_to_vec(u))
            assert _same_array(uber_to_vec(u), vec % n)
    u = vec_to_uber(A, np.zeros(len(uber_unknown_keys(A)), dtype=np.int64))
    e = A.unit_serf
    u = Uberderivation(A, u.chi, {**u.ups, (e, e): np.append(0, u.ups[(e, e)][1:])}, u.tau)
    with pytest.raises(DomainError, match="^discrete log of 0 is undefined$"):
        uber_to_vec(u)


# ---- the feudal dictionary as one slot table --------------------------------------------

# decompose and assemble as they stood with the eight sextuple formulas and
# the eight-way lordness branch written out, kept verbatim as oracles for the
# gather and the scatter through the shape slots.
def _reference_decompose(f: FusionSystem, fr: FeudalRule | None = None) -> Decomposition:
    """Read the eight coefficient functions off a fusion system."""
    if fr is None:
        fr = detect_feudal(f.rule)
        if fr is None:
            raise DomainError("rule carries no feudal structure")
    if fr.rule != f.rule:
        raise DomainError("feudal structure belongs to a different rule")
    serfs, lords = fr.serf_ids, fr.lord_ids
    inv, mul = fr.serf_inv, fr.serf_mul
    L, R = fr.act_left, fr.act_right
    dual = lambda m: int(fr.rule.dual[m])

    def vec(fn):
        return np.array([fn(m) for m in lords], dtype=np.int64)

    alpha, alpha1, alpha2, alpha3 = {}, {}, {}, {}
    beta1, beta2, beta3, gamma = {}, {}, {}, {}
    for a, b in product(serfs, repeat=2):
        ai, bi = inv(a), inv(b)
        for c in serfs:
            alpha[(a, b, c)] = f.coeff(a, b, c, mul(a, b), mul(mul(a, b), c), mul(b, c))
        alpha1[(a, b)] = vec(lambda m: f.coeff(R(R(m, bi), ai), a, b, R(m, bi), m, mul(a, b)))
        alpha2[(a, b)] = vec(lambda m: f.coeff(a, R(L(ai, m), bi), b, R(m, bi), m, L(ai, m)))
        alpha3[(a, b)] = vec(lambda m: f.coeff(a, b, L(mul(bi, ai), m), mul(a, b), m, L(ai, m)))
        beta1[(a, b)] = vec(lambda m: f.coeff(a, m, R(R(dual(m), ai), b), L(a, m), b, mul(ai, b)))
        beta2[(a, b)] = vec(lambda m: f.coeff(m, a, R(L(ai, dual(m)), b), R(m, a), b, R(dual(m), b)))
        beta3[(a, b)] = vec(lambda m: f.coeff(L(mul(b, ai), dual(m)), m, a, mul(b, ai), b, R(m, a)))
        gamma[(a, b)] = vec(lambda m: f.coeff(R(m, ai), R(L(a, dual(m)), b), L(bi, m), b, m, a))
    return Decomposition(fr, f.field, alpha, alpha1, alpha2, alpha3, beta1, beta2, beta3, gamma)


def _reference_assemble(dec: Decomposition) -> FusionSystem:
    """Rebuild the sparse coefficient table from the eight functions."""
    fr, F = dec.feudal, dec.field
    rule = fr.rule
    pos = {m: i for i, m in enumerate(fr.lord_ids)}
    coeffs = {}
    for key in admissible_sextuples(rule):
        x, y, z, u, r, v = key
        lx, ly, lz = x in fr.lords, y in fr.lords, z in fr.lords
        if not (lx or ly or lz):
            val = dec.alpha[(x, y, z)]
        elif lx and not ly and not lz:
            val = dec.alpha1[(y, z)][pos[r]]
        elif ly and not lx and not lz:
            val = dec.alpha2[(x, z)][pos[r]]
        elif lz and not lx and not ly:
            val = dec.alpha3[(x, y)][pos[r]]
        elif not lx and ly and lz:
            val = dec.beta1[(x, r)][pos[y]]
        elif lx and not ly and lz:
            val = dec.beta2[(y, r)][pos[x]]
        elif lx and ly and not lz:
            val = dec.beta3[(z, r)][pos[y]]
        else:
            val = dec.gamma[(v, u)][pos[r]]
        coeffs[key] = int(val) % F.p
    return FusionSystem(rule, F, coeffs)


def _same_decomposition(got, want):
    """Equal fields: alpha as Python ints, every other shape as int64 arrays,
    keys in the same order."""
    if (got.feudal, got.field) != (want.feudal, want.field):
        return False
    if list(got.alpha.items()) != list(want.alpha.items()) or {type(v) for v in got.alpha.values()} != {int}:
        return False
    for name in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "gamma"):
        g, w = getattr(got, name), getattr(want, name)
        if list(g) != list(w) or not all(_same_array(g[k], w[k]) for k in w):
            return False
    return True


def test_decomposition_is_its_slot_vector(f17, mr):
    """A Decomposition holds its FeudalRule and the system itself, whose
    field and read-only slot vector it reads, and no table until a view is
    read; the eight views are read-only, no attribute can be rebound, copy,
    deepcopy and pickle go through from_vec, and the dict constructor
    scatters the views back to the same vector."""
    u = mr_uber(f17, mr)
    f = apply_gauge(reconstruct(u), random_gauge(mr.rule, f17, random.Random(7)))
    dec = decompose(f, mr)
    assert set(vars(dec)) == {"feudal", "system"} and dec.system is f
    assert dec.field == f17 and dec.vec is f.vec and not dec.vec.flags.writeable
    e = mr.rule.unit
    with pytest.raises(TypeError):
        dec.alpha[(e, e, e)] = 1
    with pytest.raises(ValueError, match="read-only"):
        dec.gamma[(e, e)][0] = 1
    for name in ("vec", "alpha", "feudal", "system"):
        with pytest.raises(AttributeError, match="^Decomposition is read-only"):
            setattr(dec, name, None)
    views = [getattr(dec, name) for name in _shape_slots(mr)]
    assert _same_decomposition(Decomposition(mr, f17, *views), dec)
    assert _same_array(Decomposition(mr, f17, *views).system.vec, f.vec)
    assert dec.is_normal() is False and decompose(reconstruct(u), mr).is_normal() is True
    for back in (copy.copy(dec), copy.deepcopy(dec), pickle.loads(pickle.dumps(dec))):
        assert type(back) is Decomposition and back.feudal.key == mr.key and back.field == f17
        assert _same_array(back.vec, dec.vec) and not back.vec.flags.writeable
        assert list(back.alpha.items()) == list(dec.alpha.items())
        assert all(_same_array(back.beta3[k], v) for k, v in dec.beta3.items())


def _dictionary_systems(A, rng):
    """Up to two reconstructed class representatives, a random gauge of each,
    and a table of random nonzero coefficients (not a fusion system, but
    decompose reads any table)."""
    fr, F = A.feudal, A.field
    normal = [reconstruct(u) for u in enumerate_uber(A, with_orbits=False).class_reps[:2]]
    gauged = [apply_gauge(f, random_gauge(fr.rule, F, rng)) for f in normal]
    noise = {k: rng.randrange(1, F.p) for k in admissible_sextuples(fr.rule)}
    return normal + gauged + [FusionSystem(fr.rule, F, noise)]


def test_decompose_and_assemble_match_reference(gauge_rules):
    """The gather and the scatter through the shape slots give the eight
    written-out formulas and the lordness branch: the same fields and types,
    and the same coefficient table back."""
    rng = random.Random(41)
    checked = 0
    for A in gauge_rules:
        fr = A.feudal
        for f in _dictionary_systems(A, rng):
            dec, ref = decompose(f, fr), _reference_decompose(f, fr)
            assert _same_decomposition(dec, ref)
            assert list(ref.system.coeffs.items()) == list(_reference_assemble(ref).coeffs.items())
            assert dec.system == f
            checked += 1
    assert checked == 69


def test_decompose_detects_the_feudal_structure(f17, ty2):
    f = reconstruct(ty2_uber(f17, ty2))
    dec = decompose(f)
    assert dec.feudal.serfs == detect_feudal(f.rule).serfs
    assert _same_decomposition(dec, _reference_decompose(f, dec.feudal))
    with pytest.raises(DomainError, match="^feudal structure belongs to a different rule$"):
        decompose(f, moore_read())


def test_shapes_partition_admissible_sextuples(gauge_rules):
    """Every admissible sextuple is in exactly one of the eight shapes, once,
    and no shape names an inadmissible one, so a decomposition's views cover every slot."""
    for A in gauge_rules:
        slots = np.concatenate([s.ravel() for s in _shape_slots(A.feudal).values()])
        assert (np.sort(slots) == np.arange(len(admissible_sextuples(A.feudal.rule)))).all()


# ---- the action table and the shape slots per rule ------------------------------------


def _reference_gauge_gather(ambi, act_dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """_gauge_gather as it stood, stacking the action from Ambi's (a, b) dict."""
    A = ambi
    s, m = len(A.serf_ids), A.npoints
    at = {a: i for i, a in enumerate(A.serf_ids)}
    e = at[A.unit_serf]
    act = np.array([[act_dict[(a, b)] for b in A.serf_ids] for a in A.serf_ids])
    prod = np.array([[at[A.feudal.serf_mul(a, b)] for b in A.serf_ids] for a in A.serf_ids])
    bar = A.bar_perm
    theta = lambda a, b, j: (a * s + b) * m + j
    phi = lambda a, j: (s * s + a) * m + j
    sigma = lambda j: (s * s + s) * m + j
    a, b, j = (x.ravel() for x in np.indices((s, s, m)))
    ab, eb, ae = act[a, b, j], act[e, b, j], act[a, e, j]
    chi = [phi(a, j), phi(b, bar[ab]), sigma(ab), sigma(j), phi(a, eb), phi(b, bar[eb]), sigma(ae), sigma(eb)]
    ups = [phi(a, j), phi(b, ae), phi(prod[a, b], j), theta(a, b, j)]
    tau = [sigma(bar), sigma(np.arange(m))]
    return [
        (np.stack(chi, axis=1), np.array([1, 1, 1, 1, -1, -1, -1, -1])),
        (np.stack(ups, axis=1), np.array([1, 1, -1, -1])),
        (np.stack(tau, axis=1), np.array([1, -1])),
    ]


def _gather_holds(got: Gather, blocks) -> bool:
    """Whether got's rows are the (src, signs) blocks laid end to end, each
    block's terms first and the rest of its row padded with sign 0, with
    src of dtype intp and signs of int64."""
    ok, row = got.src.dtype == np.intp and got.signs.dtype == np.int64, 0
    for src, signs in blocks:
        at, w = slice(row, row + len(src)), src.shape[1]
        ok &= (got.src[at, :w] == src).all() and (got.signs[at, :w] == signs).all() and not got.signs[at, w:].any()
        row += len(src)
    return bool(ok) and row == len(got.src)


def test_action_table_matches_reference(gauge_rules):
    """act, ract, Units.action and the gauge gather, all read off the (s, s, m)
    action table, equal their forms over the old (a, b) dict: values, shapes
    and dtypes."""
    from test_ambient import _reference_act

    rng = np.random.default_rng(5)
    for A in gauge_rules:
        ref, e = _reference_act(A), A.unit_serf
        mu = rng.integers(0, A.field.p, A.npoints)
        for a, b in product(A.serf_ids, repeat=2):
            assert _same_array(A.act(a, mu, b), mu[ref[(a, b)]])
        for a in A.serf_ids:
            assert _same_array(A.act(a, mu), mu[ref[(a, e)]])
            assert _same_array(A.ract(mu, a), mu[ref[(e, a)]])
        units = Units(A.field, A)
        pts = np.arange(A.npoints)
        for side, key in (("left", lambda s: (s, e)), ("right", lambda s: (e, s))):
            want = np.array([pts[ref[key(s)]] for s in A.serf_ids])
            assert _same_array(units.action(len(A.serf_ids), side), want)
        assert _gather_holds(uber._gauge_gather(A.feudal), _reference_gauge_gather(A, ref))


def test_dictionary_without_a_feudal_rule_matches_with_one(gauge_rules):
    """decompose, is_normal, normalize and psi find the same feudal structure
    (detect_feudal) and give what they give with it passed in."""
    rng = random.Random(43)
    for A in gauge_rules:
        fr = A.feudal
        systems = _dictionary_systems(A, rng)
        for f in systems:
            dec = decompose(f)
            assert dec.feudal.serfs == fr.serfs
            views = (getattr(dec, name) for name in _shape_slots(fr))
            assert _same_decomposition(Decomposition(fr, dec.field, *views), decompose(f, fr))
            assert is_normal(f) == is_normal(f, fr)
        for f in systems[:-1]:  # the random table is no fusion system
            (g, xi), (g_fr, xi_fr) = normalize(f), normalize(f, fr)
            assert g == g_fr and xi.values == xi_fr.values
            assert psi(f) == psi(f, fr)


def test_shape_slots_are_kept_per_rule_and_let_it_go(f17, monkeypatch):
    """Every FeudalRule on one rule and serf set (detect_feudal builds a new one
    per call) shares one shape-slot table, and the cache keeps no rule alive."""
    built = []
    real = uber._shape_slots
    monkeypatch.setattr(uber, "_shape_slots", lambda fr: built.append(fr) or real(fr))
    fr = tambara_yamagami(klein_four())
    f = reconstruct(enumerate_uber(Ambi(fr, f17), with_orbits=False).class_reps[0])
    g = apply_gauge(f, random_gauge(fr.rule, f17, random.Random(2)))
    decompose(f), decompose(g), is_normal(g), normalize(g), psi(g)
    assert len(built) == 1
    rule = weakref.ref(fr.rule)
    del fr, f, g, built
    gc.collect()
    assert rule() is None


def _count_builds(monkeypatch, *names) -> list:
    """Wrap each named uber table builder so that every build records its
    name; returns the record."""
    built = []
    for name in names:
        real = getattr(uber, name)
        monkeypatch.setattr(uber, name, lambda *args, name=name, real=real: built.append(name) or real(*args))
    return built


def test_equal_ambis_share_their_compiled_tables(f17, monkeypatch):
    """Every Ambi on one rule, serf set and field (psi and normalize make one
    per call without it) shares one set of axiom rows and one gauge-shift
    lattice; an Ambi over another primitive root of the field builds its own."""
    built = _count_builds(monkeypatch, "_axiom_rows", "_gauge_lattice")
    fr = tambara_yamagami(klein_four())
    A, B = Ambi(fr, f17), Ambi(fr, f17)
    u = enumerate_uber(A, with_orbits=False).class_reps[0]
    f = reconstruct(u)
    g = apply_gauge(f, random_gauge(fr.rule, f17, random.Random(4)))
    for _ in range(3):
        psi(f, fr), psi(g, fr), normalize(g)
        assert gauge_equivalent_uber(psi(g, fr, B), u) is not None
    assert sorted(built) == ["_axiom_rows", "_gauge_lattice"]
    enumerate_uber(Ambi(fr, Field(17, generator=5)), with_orbits=False)
    assert sorted(built) == ["_axiom_rows", "_axiom_rows", "_gauge_lattice", "_gauge_lattice"]


def test_emptying_the_caches_rebuilds_every_compiled_table(f17, monkeypatch):
    """Emptying every dict named with CACHE in the fusionkit modules, as the
    benchmark does before each cold CLI job, makes the next call on the same
    live Ambi and FeudalRule build their tables again: no weak store outlives
    the emptying."""
    built = _count_builds(monkeypatch, "_axiom_rows", "_shape_slots")
    fr = tambara_yamagami(klein_four())
    A = Ambi(fr, f17)
    f = reconstruct(enumerate_uber(A, with_orbits=False).class_reps[0])
    psi(f, fr, A)
    assert sorted(built) == ["_axiom_rows", "_shape_slots"]
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("fusionkit.")]
    caches = [v for m in modules for attr, v in vars(m).items() if "CACHE" in attr and isinstance(v, dict)]
    saved = [dict(c) for c in caches]
    try:
        for c in caches:
            c.clear()
        psi(f, fr, A)
    finally:
        for c, content in zip(caches, saved):
            c.clear()
            c.update(content)
    assert sorted(built) == ["_axiom_rows", "_axiom_rows", "_shape_slots", "_shape_slots"]
    assert not [v for m in modules for v in vars(m).values() if isinstance(v, weakref.WeakKeyDictionary)]


def _same_compiled(a, b) -> bool:
    """Whether two compiled tables are equal array for array: the same types
    throughout, and arrays of the same dtype, shape and entries."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())
    if dataclasses.is_dataclass(a):
        return all(_same_compiled(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_compiled(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_compiled, a, b))
    return a == b


def test_compiled_store_keeps_at_most_its_limit(f17, mr, monkeypatch):
    """Over many (rule, p) pairs the store never holds more than
    COMPILED_LIMIT tables: it drops the least recently used, keeps one in
    use, and a dropped table built again equals the first build array for
    array."""
    from fusionkit import rules

    monkeypatch.setattr(rules, "_COMPILED_CACHE", {})
    monkeypatch.setattr(rules, "COMPILED_LIMIT", 8)
    # built first: enumerate_feudal keeps each checked rule's verdict and split in the store
    feudal_rules = enumerate_feudal(8).rules[:6]
    hot, cold = Ambi(tambara_yamagami(cyclic(2)), f17), Ambi(mr, f17)
    rows, lattice = rules.compiled(hot, uber._axiom_rows), rules.compiled(cold, uber._gauge_lattice)
    sizes = []
    for fr in feudal_rules:
        for p in (5, 13, 17, 41):
            enumerate_uber(Ambi(fr, Field(p)), with_orbits=False)
            sizes.append(len(rules._COMPILED_CACHE))
            assert rules.compiled(hot, uber._axiom_rows) is rows
    assert max(sizes) == 8 and (uber._gauge_lattice, cold.key) not in rules._COMPILED_CACHE
    again = rules.compiled(cold, uber._gauge_lattice)
    assert again is not lattice and _same_compiled(again, lattice)
    assert _same_compiled(uber._axiom_rows(hot), rows)


def test_enumerate_uber_names_the_first_representative_off_the_axioms(f17, monkeypatch):
    """The stacked axiom check raises on the first representative that fails
    a monomial axiom, naming its failed axioms as a per-representative check
    does; a class found before it does not hide it."""
    A = Ambi(tambara_yamagami(klein_four()), f17)
    real = uber.quotient_structure
    bad = {}

    def spoiled(*args, **kwargs):
        q = real(*args, **kwargs)
        reps = list(q.representatives())
        x = (reps[1] + 1) % q._n  # no longer a solution of the homogeneous rows
        bad["x"] = x
        q.representatives = lambda limit: iter([reps[0], x, *reps[2:]])
        return q

    monkeypatch.setattr(uber, "quotient_structure", spoiled)
    with pytest.raises(ValidationError) as raised:
        enumerate_uber(A, with_orbits=False)
    x0 = solve_mod(*uber_constraint_system(A)[:2], f17.p - 1)
    failures = uber._axiom_rows(A).failures((x0 + bad["x"]) % (f17.p - 1))
    assert failures and str(raised.value) == f"lattice representative violates monomial axioms: {sorted(failures)}"


def test_gauge_triple_rejects_a_theta_off_the_constants(f17, mr):
    """theta must be fixed by the actions: constant on the one lord orbit."""
    A = Ambi(mr, f17)
    g = _random_gauge_triple(A, random.Random(5))
    a = next(s for s in A.serf_ids if s != A.unit_serf)
    theta = dict(g.theta)
    theta[(a, a)] = np.array([2, 3])
    with pytest.raises(ValidationError, match=rf"^theta\({a}, {a}\) is not fixed by the actions$"):
        GaugeTriple(A, theta, g.phi, g.sigma)
    theta[(a, a)] = np.array([2, 19])  # constant mod p
    assert GaugeTriple(A, theta, g.phi, g.sigma).theta[(a, a)].tolist() == [2, 2]


# ---- the normal system as one signed gather --------------------------------------------


def _reference_reconstruct(u: Uberderivation) -> FusionSystem:
    """reconstruct as it stood: alpha as -d(ups) over the serf group, then
    alpha1, beta1-3 and gamma by the multiplicative formulas, one Ambi chain
    per serf pair, assembled through the shape slots."""
    u.validate()
    A = u.ambi
    fr = A.feudal
    F = A.field
    inv, mul = fr.serf_inv, fr.serf_mul
    serfs = fr.serf_ids
    chi, ups, tau = u.chi, u.ups, u.tau

    # alpha = (d ups)^-1, one signed gather over the serf group in log coordinates
    mod = Units(F, A)
    ups_logs = mod.log([ups[k] for k in product(serfs, repeat=2)])
    alpha_logs = -coboundary_logs(ups_logs, mod, fr.serf_group, 2, "left") % (F.p - 1)
    alpha = dict(zip(product(serfs, repeat=3), Units(F).exp(alpha_logs[:, :1])))

    alpha1, alpha2, alpha3 = {}, {}, {}
    beta1, beta2, beta3, gamma = {}, {}, {}, {}
    for s, t in product(serfs, repeat=2):
        si, ti = inv(s), inv(t)
        alpha2[(s, t)] = chi[(s, t)].copy()
        alpha3[(s, t)] = ups[(s, t)].copy()
        alpha1[(s, t)] = A.inv(A.ract(A.bar(ups[(s, t)]), mul(s, t)))
        beta1[(s, t)] = A.div(
            A.const(alpha[(ti, s, mul(si, t))]), A.act(mul(si, t), ups[(ti, s)])
        )
        beta2[(s, t)] = A.mul(
            ups[(t, ti)], A.inv(A.ract(ups[(t, ti)], si)), A.ract(chi[(t, s)], si)
        )
        gamma[(s, t)] = A.div(
            A.act(t, A.div(A.mul(tau, A.bar(ups[(si, s)])), A.ract(ups[(ti, t)], s))),
            chi[(t, s)],
        )
        beta3[(s, t)] = A.div(
            A.mul(A.bar(ups[(s, ti)]), A.ract(tau, si)),
            A.mul(A.const(alpha[(s, ti, t)]), A.const(alpha[(mul(s, ti), mul(t, si), s)]), tau),
        )
    dec = Decomposition(fr, F, alpha, alpha1, alpha2, alpha3, beta1, beta2, beta3, gamma)
    return _reference_assemble(dec)


def _reference_apply_gauge_uber(u: Uberderivation, g: GaugeTriple) -> Uberderivation:
    """apply_gauge_uber as it stood: one Ambi.mul per serf pair."""
    A = u.ambi
    chi_s, ups_s, tau_s = gauge_shift(A, g)
    chi = {k: A.mul(v, chi_s[k]) for k, v in u.chi.items()}
    ups = {k: A.mul(v, ups_s[k]) for k, v in u.ups.items()}
    return Uberderivation(A, chi, ups, A.mul(u.tau, tau_s))


def _reference_eq(u1: Uberderivation, u2: Uberderivation) -> bool:
    """Uberderivation.__eq__ as it stood: one Ambi.eq per entry."""
    A = u1.ambi
    return (
        A.feudal.rule == u2.ambi.feudal.rule
        and A.field.p == u2.ambi.field.p
        and all(A.eq(u1.chi[k], u2.chi[k]) for k in u1.chi)
        and all(A.eq(u1.ups[k], u2.ups[k]) for k in u1.ups)
        and A.eq(u1.tau, u2.tau)
    )


def _reference_zeros(u: Uberderivation) -> list:
    """The invertibility scan of report as it stood: one check per serf pair."""
    A = u.ambi
    zeros = [k for k in u.chi if not (A.is_invertible(u.chi[k]) and A.is_invertible(u.ups[k]))]
    if not A.is_invertible(u.tau):
        zeros.append("tau")
    return zeros


def _same_triple(u1: Uberderivation, u2: Uberderivation) -> bool:
    return _same_shift((u1.chi, u1.ups, u1.tau), (u2.chi, u2.ups, u2.tau))


def _same_table(got: dict, want: dict) -> bool:
    """Equal coefficient or gauge tables: keys in order, values, and int types throughout."""
    types = {type(v) for v in got.values()} | {type(i) for k in got for i in k}
    return list(got.items()) == list(want.items()) and types == {int}


def _dictionary_triples(A, rng):
    """Up to two gauge class representatives, and each under a seeded random
    gauge triple (generic entries, so every exponent coordinate is used)."""
    reps = enumerate_uber(A, with_orbits=False).class_reps[:2]
    return reps + [_reference_apply_gauge_uber(u, _random_gauge_triple(A, rng)) for u in reps]


def _dictionary_checks(A, rng) -> list[bool]:
    """Whether reconstruct and apply_gauge give the per-pair and per-key loops
    on each triple of A: the same tables, in order and types."""
    from test_systems import _reference_apply_gauge

    same = []
    for u in _dictionary_triples(A, rng):
        f = reconstruct(u)
        same.append(_same_table(f.coeffs, _reference_reconstruct(u).coeffs))
        xi = random_gauge(A.feudal.rule, A.field, rng)
        same.append(_same_table(apply_gauge(f, xi).coeffs, _reference_apply_gauge(f, xi)))
    return same


def test_reconstruct_and_apply_gauge_match_reference(gauge_rules):
    """On the 21 rules, the gathered reconstruct and apply_gauge give the
    loops they replace, and both constructors keep what the per-key loops
    kept on tables keyed by numpy ints, floats or digit strings."""
    from test_systems import _key_forms, _reference_fusion_system_init, _reference_gauge_xi_init

    rng = random.Random(51)
    checks = []
    for A in gauge_rules:
        checks += _dictionary_checks(A, rng)
        rule, F = A.feudal.rule, A.field
        noise = {k: rng.randrange(1, F.p) for k in admissible_sextuples(rule)}
        xi = random_gauge(rule, F, rng)
        for coeffs in _key_forms(noise, rule.n, F.p, rng):
            assert _same_table(FusionSystem(rule, F, coeffs).coeffs, _reference_fusion_system_init(rule, F, coeffs))
        for values in _key_forms(xi.values, rule.n, F.p, rng):
            assert _same_table(GaugeXi(rule, F, values).values, _reference_gauge_xi_init(rule, F, values))
    assert len(checks) == 96 and all(checks)


# sha256 of the dictionary's outputs on every gauge class of TY(Z2^3)@17 and
# Moore-Read@17, recorded once while systems were stored keyed by sextuple; a
# rewrite must reproduce it, never re-record it
DICTIONARY_SHA256 = "8b234b6ca53a7400896d720901949b2957e7c31da301eddca1d57df0a5d98812"


def test_dictionary_outputs_digest(f17, mr):
    """reconstruct, apply_gauge under a seeded random gauge, normalize (the
    system and its gauge) and decompose(.).system on the 60 classes, as
    jsonio documents."""
    rng = random.Random(19)
    digest = hashlib.sha256()
    classes = 0
    for fr in (tambara_yamagami(named_group("Z2xZ2xZ2")), mr):
        for u in enumerate_uber(Ambi(fr, f17), with_orbits=False).class_reps:
            classes += 1
            f = reconstruct(u)
            g = apply_gauge(f, random_gauge(fr.rule, f17, rng))
            normal, xi = normalize(g)
            for out in (f, g, normal, decompose(g).system):
                digest.update(json.dumps(jsonio.system_to_dict(out)).encode())
            digest.update(json.dumps(jsonio.gauge_to_dict(xi)).encode())
    assert classes == 60
    assert digest.hexdigest() == DICTIONARY_SHA256


def _reference_reconstruct_gather(fr: FeudalRule) -> tuple[np.ndarray, np.ndarray]:
    """_reconstruct_gather as it stood, as (src, signs): each shape's padded
    rows written into its shape slots, alpha read off the reference
    coboundary's 4-tuple with the acting serf's point at the first lord."""
    from test_cohomology import _reference_delta

    s, m = len(fr.serf_ids), len(fr.lord_ids)
    g = fr.serf_group  # element i is serf_ids[i]
    prod, inv, e = g.table, g.inv, g.unit
    act, bar = fr.act_table, fr.bar_perm
    lay = uber._layout_of(fr)
    chi, ups, tau = lay.chi, lay.ups, lay.tau
    # alpha(a,b,c) = -d(ups)(a,b,c) at the first lord; d reads the serf pair
    # at row d_src of the cochain, in product order
    d_src, d_signs, acted, actor = _reference_delta(g, 2, "left")
    point = np.zeros(d_src.shape, np.intp)
    point[:, acted] = act[actor, e, 0]
    alpha_src, alpha_signs = ups.reshape(s * s, m)[d_src, point], -d_signs
    alpha = alpha_src.reshape(s, s, s, -1)
    a, b, j = (x.ravel() for x in np.indices((s, s, m)))
    ai, bi = inv[a], inv[b]
    k = act[b, e, j]
    shapes = {  # name -> (terms, signs), rows (a,b,c) for alpha and (a,b,j) for the others
        "alpha": ([alpha_src], alpha_signs),
        "alpha1": ([ups[a, b, bar[act[e, prod[a, b], j]]]], [-1]),
        "alpha2": ([chi[a, b, j]], [1]),
        "alpha3": ([ups[a, b, j]], [1]),
        "beta1": ([alpha[bi, a, prod[ai, b]], ups[bi, a, act[prod[ai, b], e, j]]], [*alpha_signs, -1]),
        "beta2": ([ups[b, bi, j], ups[b, bi, act[e, ai, j]], chi[b, a, act[e, ai, j]]], [1, -1, 1]),
        "beta3": (
            [ups[a, bi, bar[j]], tau[act[e, ai, j]], alpha[a, bi, b], alpha[prod[a, bi], prod[b, ai], a], tau[j]],
            [1, 1, *-alpha_signs, *-alpha_signs, -1],
        ),
        "gamma": ([tau[k], ups[ai, a, bar[k]], ups[bi, b, act[e, a, k]], chi[b, a, j]], [1, 1, -1, -1]),
    }
    slots = _shape_slots(fr)
    width = max(len(term_signs) for _, term_signs in shapes.values())
    src = np.zeros((len(admissible_sextuples(fr.rule)), width), np.intp)
    signs = np.zeros(src.shape, np.int64)
    for name, (terms, term_signs) in shapes.items():
        rows = slots[name].ravel()
        src[rows, : len(term_signs)] = np.column_stack(terms)
        signs[rows, : len(term_signs)] = term_signs
    return src, signs


def test_reconstruct_gather_matches_reference(gauge_rules):
    """The gather built one family per shape and put in slot order once, with
    alpha read off the lord-0 rows of the coboundary gather, is the
    reference's, array for array (dtype, shape and entries), on every rule."""
    for A in gauge_rules:
        got, (src, signs) = uber._reconstruct_gather(A.feudal), _reference_reconstruct_gather(A.feudal)
        assert _same_array(got.src, src) and _same_array(got.signs, signs)


def _flip_last_term(name):
    """The reconstruct gather with the last term of every row of one shape
    entering with the wrong sign."""

    def mutate(gather, fr):
        signs = gather.signs.copy()
        rows = _shape_slots(fr)[name].ravel()
        last = np.count_nonzero(signs[rows[0]]) - 1
        signs[rows, last] *= -1
        return Gather(gather.src, signs)

    return mutate


@pytest.mark.parametrize("name", ["alpha", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "gamma"])
def test_reconstruct_reference_catches_a_sign_flip(gauge_rules, monkeypatch, name):
    """A gather with one sign flipped in any shape fails the comparison."""
    real, mutate = uber._reconstruct_gather, _flip_last_term(name)
    monkeypatch.setattr(uber, "_reconstruct_gather", lambda fr: mutate(real(fr), fr))
    rng = random.Random(52)
    assert not all(all(_dictionary_checks(A, rng)) for A in gauge_rules[-5:])


@pytest.mark.parametrize("order", [[2, 1, 0, 3], [0, 3, 2, 1], [3, 1, 2, 0], [0, 2, 1, 3]])
def test_apply_gauge_reference_catches_swapped_positions(gauge_rules, monkeypatch, order):
    """A gauge gather with a numerator position (y,z,v) or (x,v,r) swapped
    with a denominator one (x,y,u) or (u,z,r) fails the comparison."""
    real = systems._gauge_positions
    monkeypatch.setattr(systems, "_gauge_positions", lambda rule: real(rule)[order])
    rng = random.Random(53)
    assert not all(all(_dictionary_checks(A, rng)) for A in gauge_rules[-5:])


def test_uberderivation_arrays_match_reference(gauge_rules):
    """__eq__, the invertibility scan of report, apply_gauge_uber and
    _slot_gauge, as array operations, give the per-pair loops: on triples
    with their keys in shuffled order, with zero entries, and equal or not."""
    rng = random.Random(54)
    for A in gauge_rules:
        lat = _gauge_lattice(A)
        exps = [rng.randrange(-A.field.p, 2 * A.field.p) for _ in lat.slots]
        got, want = _slot_gauge(A, lat, exps), _reference_slot_gauge(A, lat.slots, exps)
        assert _same_shift((got.theta, got.phi, got.sigma), (want.theta, want.phi, want.sigma))
        for u in _dictionary_triples(A, rng):
            keys = list(u.chi)
            rng.shuffle(keys)
            shuffled = Uberderivation(A, {k: u.chi[k] for k in keys}, {k: u.ups[k] for k in keys[::-1]}, u.tau)
            g = _random_gauge_triple(A, rng)
            assert _same_triple(apply_gauge_uber(shuffled, g), _reference_apply_gauge_uber(shuffled, g))
            moved = _reference_apply_gauge_uber(u, g)
            for v in (u, shuffled, moved):
                assert (shuffled == v) == _reference_eq(shuffled, v) and (v == shuffled) == _reference_eq(v, shuffled)
            tables = {"chi": {k: shuffled.chi[k] for k in keys}, "ups": {k: shuffled.ups[k] for k in keys[::-1]}}
            tau = shuffled.tau.copy()
            for part in rng.sample(["chi", "ups", "tau"], 2):
                k = None if part == "tau" else rng.choice(keys)
                entry = tau if k is None else tables[part][k].copy()
                entry[rng.randrange(A.npoints)] = 0
                if k is not None:
                    tables[part][k] = entry
            zeroed = Uberderivation(A, tables["chi"], tables["ups"], tau)
            assert zeroed.report()["invertible"] == _reference_zeros(zeroed)


def test_dictionary_detects_the_feudal_structure_once_per_rule(f17, monkeypatch):
    """decompose, is_normal, normalize and psi without a FeudalRule detect the
    rule's feudal structure once, however often they are called on its systems."""
    from fusionkit import uber

    calls = []
    real = uber.detect_feudal
    monkeypatch.setattr(uber, "detect_feudal", lambda rule: calls.append(rule) or real(rule))
    fr = tambara_yamagami(cyclic(4), lord_label="q")  # a rule no other test holds
    f = reconstruct(enumerate_uber(Ambi(fr, f17), with_orbits=False).class_reps[0])
    g = apply_gauge(f, random_gauge(fr.rule, f17, random.Random(3)))
    for h in (f, g, f, g):
        decompose(h), is_normal(h), normalize(h), psi(h)
    assert len(calls) == 1
    assert decompose(g).feudal.serfs == fr.serfs


# ---- the axiom rows as one signed gather ------------------------------------------------


def _reference_axiom_rows(ambi: Ambi) -> tuple:
    """_axiom_rows as it stood, as (mat, rhs, names, n, a_vanishes): one
    Python row of the dense matrix at a time, through the scalar actions and
    products of the FeudalRule."""
    A = ambi
    F = A.field
    fr = A.feudal
    n = F.p - 1
    e = A.unit_serf
    serfs, nm = A.serf_ids, A.npoints
    lords = A.lord_ids
    pos = {m: i for i, m in enumerate(lords)}
    inv, mul = fr.serf_inv, fr.serf_mul
    L, R = fr.act_left, fr.act_right
    keys = uber_unknown_keys(ambi)
    idx = {k: i for i, k in enumerate(keys)}
    bar = lambda j: int(A.bar_perm[j])

    rows, rhs, names = [], [], []

    def new_row(name, value=0):
        rows.append(np.zeros(len(keys), dtype=np.int64))
        rhs.append(value)
        names.append(name)
        return rows[-1]

    for a, b in product(serfs, repeat=2):
        if a == e or b == e:
            for j in range(nm):
                new_row(("ups_normalized", (a, b)))[idx[("ups", a, b, j)]] = 1

    for a, b in product(serfs, repeat=2):
        for j, m in enumerate(lords):
            q = pos[R(L(a, m), b)]  # a m b
            qa = pos[L(a, m)]
            qb = pos[R(m, b)]
            row = new_row(("quasisymmetric", (a, b)))
            row[idx[("chi", b, a, bar(j))]] += 1
            row[idx[("chi", a, b, q)]] -= 1
            row[idx[("tau", q)]] -= 1
            row[idx[("tau", j)]] -= 1
            row[idx[("tau", qa)]] += 1
            row[idx[("tau", qb)]] += 1

    # on A x A x A both actions are trivial, so these rows are also the
    # bicharacter law chi(ab, c) = chi(a, c) chi(b, c)
    for a, b, c in product(serfs, repeat=3):
        ab = mul(a, b)
        for j, m in enumerate(lords):
            row = new_row(("biderivation", (a, b, c)))
            row[idx[("ups", a, b, j)]] += 1
            row[idx[("ups", a, b, pos[R(m, inv(c))])]] -= 1
            row[idx[("chi", ab, c, j)]] += 1
            row[idx[("chi", a, c, j)]] -= 1
            row[idx[("chi", b, c, pos[L(inv(a), m)])]] -= 1

    acts = A.trivial_actors
    for a, b in product(acts, repeat=2):
        if a >= b:
            continue
        for j in range(nm):
            row = new_row(("symmetric_on_A", (a, b)))
            row[idx[("chi", a, b, j)]] += 1
            row[idx[("chi", b, a, j)]] -= 1

    a_vanishes = len(acts) % F.p == 0
    if not a_vanishes:
        neg_log = (-F.log(len(acts) % F.p)) % n
        for j in range(nm):
            row = new_row(("tau_norm", "|A| tau taubar != 1"), neg_log)
            row[idx[("tau", j)]] += 1
            row[idx[("tau", bar(j))]] += 1

    return np.vstack(rows), np.array(rhs, dtype=np.int64), names, n, a_vanishes


def test_axiom_rows_match_reference(gauge_rules):
    """The gathered rows are the row loop's: the dense form of the gather (as
    uber_constraint_system writes it) is its matrix, and rhs, names (witness
    types too), n and a_vanishes agree, row for row, on the 21 rules and the
    41 feudal rules of order <= 11 at several primes, TY(Z3) at p=3 among
    them, where |A| vanishes in F.  The gather is 6 terms wide."""
    rules = [A.feudal for A in gauge_rules] + list(enumerate_feudal(11).rules)
    vanished = 0
    for fr, p in product(rules, (3, 5, 13, 17)):
        A = Ambi(fr, Field(p))
        got = uber._axiom_rows(A)
        mat, rhs, names, n, a_vanishes = _reference_axiom_rows(A)
        assert got.gather.src.shape == got.gather.signs.shape == (len(mat), 6)
        assert _same_array(got.gather.dense(mat.shape[1]), mat) and _same_array(got.rhs, rhs)
        if not a_vanishes:
            assert _same_array(uber_constraint_system(A)[0], mat)
        assert got.names == names and got.n == n and got.a_vanishes is a_vanishes
        assert [type(x) for _, w in got.names for x in w] == [type(x) for _, w in names for x in w]
        vanished += got.a_vanishes
    assert len(rules) == 62 and vanished


def test_field_free_tables_are_compiled_once_per_feudal_rule(monkeypatch):
    """The gauge and reconstruct gathers read nothing of the field: Ambis of
    one rule at Field(17), Field(17, generator=5) and Field(13) build each
    once, and the coboundary the reconstruct gather reads alpha off with it,
    while the axiom rows and the gauge lattice are built per field."""
    built = _count_builds(monkeypatch, "_delta", "_gauge_gather", "_reconstruct_gather", "_axiom_rows", "_gauge_lattice")
    fr = tambara_yamagami(klein_four())
    for F in (Field(17), Field(17, generator=5), Field(13)):
        A = Ambi(fr, F)
        u = enumerate_uber(A, with_orbits=False).class_reps[0]
        reconstruct(u), gauge_shift(A, _random_gauge_triple(A, random.Random(6)))
    assert sorted(built) == sorted(["_delta", "_gauge_gather", "_reconstruct_gather"] + 3 * ["_axiom_rows", "_gauge_lattice"])


# ---- the triple and the gauge triple validated as arrays ---------------------------------


def _reference_lord_entry(v, where: str, A) -> np.ndarray:
    """An entry as the per-entry loops read it: each element an integer,
    reduced mod p exactly, past int64 too, and one per lord.  A ragged entry,
    where numpy's own error escaped, raises a ValidationError naming its
    first list; lists of one length nested in an entry make it one of the
    wrong shape."""
    entries = list(v)
    nested = [x for x in entries if isinstance(x, list)]
    if nested and (len(nested) < len(entries) or len({len(x) for x in nested}) > 1):
        raise ValidationError(f"{where}: {nested[0]!r} is not an integer (ragged or nested)")
    v = np.array([int(x) % A.field.p for x in entries] if not nested else entries, dtype=np.int64)
    if v.shape != (A.npoints,):
        raise ValidationError(f"{where} must list one residue per lord")
    return v


def _reference_uberderivation_init(A, chi, ups, tau):
    """Uberderivation.__post_init__ as it stood: one residues call per entry;
    returns the reduced (chi, ups, tau)."""
    show = lambda k: ",".join(A.feudal.rule.labels[i] for i in k)
    residues = lambda v, name, k=None: _reference_lord_entry(v, repr(name) if k is None else f"{name!r} at {show(k)!r}", A)

    out = []
    for name, table in (("chi", chi), ("ups", ups)):
        d = {tuple(k): v for k, v in table.items()}
        off = sorted(set(d) ^ set(product(A.serf_ids, repeat=2)))
        if off:
            raise ValidationError(f"{name!r} must be keyed by the serf pairs; it differs at {show(off[0])!r}")
        checked = {k: residues(v, name, k) for k, v in d.items()}  # in the caller's order
        out.append({k: checked[k] for k in product(A.serf_ids, repeat=2)})
    return (*out, residues(tau, "tau"))


def _reference_gauge_triple_init(A, theta, phi, sigma):
    """GaugeTriple.__post_init__ as it stood: one in_fix call per theta entry;
    returns the reduced (theta, phi, sigma)."""
    sigma = np.asarray(sigma, dtype=np.int64) % A.field.p
    theta = {tuple(k): np.asarray(v) % A.field.p for k, v in theta.items()}
    phi = {int(k): np.asarray(v) % A.field.p for k, v in phi.items()}
    if not A.eq(phi[A.unit_serf], A.one()):
        raise ValidationError("phi must be normalized")
    for k, v in theta.items():
        if not A.in_fix(v):
            raise ValidationError(f"theta{k} is not fixed by the actions")
    return theta, phi, sigma


def _reference_theta_fault(A, theta):
    """The per-entry loop of _reference_uberderivation_init run on theta, as
    entries kept as given: its keys must be exactly the serf pairs and each
    entry one residue per lord.  Raises at the first bad entry, or returns None."""
    show = lambda k: ",".join(A.feudal.rule.labels[i] for i in k)
    d = {tuple(k): v for k, v in theta.items()}
    off = sorted(set(d) ^ set(product(A.serf_ids, repeat=2)))
    if off:
        raise ValidationError(f"'theta' must be keyed by the serf pairs; it differs at {show(off[0])!r}")
    for k, v in d.items():
        _reference_lord_entry(v, f"'theta' at {show(k)!r}", A)


def _outcome(build):
    """What build() returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def _corrupt_entries(A, tables: dict, rng, kinds):
    """1-3 seeded faults at distinct random entries of the dicts in tables,
    then each dict in shuffled key order."""
    pairs = list(product(A.serf_ids, repeat=2))
    for name, k in rng.sample(list(product(sorted(tables), pairs)), rng.randint(1, 3)):
        kind, d = rng.choice(kinds), tables[name]
        v = np.asarray(d[k])
        if kind == "short":
            d[k] = v[:-1]
        elif kind == "long":
            d[k] = np.append(v, 1)
        elif kind == "ragged":
            d[k] = [*v[:-1].tolist(), [1, 2]]
        elif kind == "huge":
            d[k] = [2**70, *v[1:].tolist()]
        elif kind == "missing":
            del d[k]
        elif kind == "extra":
            d[(k[0], A.lord_ids[0])] = v
        elif kind == "non-constant":
            d[k] = np.where(np.arange(len(v)) == len(v) - 1, v % A.field.p % (A.field.p - 1) + 1, v)
    for name, d in tables.items():
        items = list(d.items())
        rng.shuffle(items)
        tables[name] = dict(items)


def test_triples_validate_as_the_per_entry_loops(gauge_rules):
    """Uberderivation and GaugeTriple, validating each field as one stack,
    return what the per-entry loops returned, or raise the same type and
    message at the same first bad key, on seeded corruptions: short, long,
    ragged and past-int64 entries, a missing and an extra pair, a
    non-constant theta and a phi off 1 at the unit.  A theta keyed other
    than by the serf pairs, or with an entry not one residue per lord, raises
    at its first bad entry as chi does, where the GaugeTriple loop accepted it
    or failed on it later (a bare IndexError, or another field's message)."""
    rng = random.Random(61)
    raised, faults = [], []

    def agree(got, want):
        if isinstance(want[0], type):
            raised.append(want[1])
            return got == want
        return _same_shift(got, want)

    for A in gauge_rules:
        u = vec_to_uber(A, np.array([rng.randrange(A.field.p - 1) for _ in uber_unknown_keys(A)]))
        for _ in range(12):
            t = {"chi": dict(u.chi), "ups": dict(u.ups)}
            _corrupt_entries(A, t, rng, ["short", "long", "ragged", "huge", "missing", "extra"])
            tau = u.tau[:-1] if rng.random() < 0.2 else u.tau
            got = _outcome(lambda: (lambda v: (v.chi, v.ups, v.tau))(Uberderivation(A, t["chi"], t["ups"], tau)))
            assert agree(got, _outcome(lambda: _reference_uberderivation_init(A, t["chi"], t["ups"], tau)))
            g = _random_gauge_triple(A, rng)
            t = {"theta": dict(g.theta)}
            _corrupt_entries(A, t, rng, ["short", "ragged", "extra"] + ["non-constant"] * (A.npoints > 1))
            phi = dict(g.phi)
            if rng.random() < 0.2:
                phi[A.unit_serf] = A.const(2)
            got = _outcome(lambda: (lambda v: (v.theta, v.phi, v.sigma))(GaugeTriple(A, t["theta"], phi, g.sigma)))
            fault = _outcome(lambda: _reference_theta_fault(A, t["theta"]))
            if fault is not None:  # a malformed theta, which the per-entry loops let through or met later
                faults.append(fault)
                assert got == fault
            else:
                assert agree(got, _outcome(lambda: _reference_gauge_triple_init(A, t["theta"], phi, g.sigma)))
    for part in ("one residue per lord", "(ragged or nested)", "keyed by the serf pairs", "phi must be normalized", "not fixed by the actions"):
        assert any(part in m for m in raised), part
    for part in ("'theta' at", "'theta' must be keyed by the serf pairs"):
        assert any(part in m for _, m in faults), part


def test_a_vanishing_order_of_a_leaves_no_uberderivation():
    """At TY(Z3)@3, |A| = 3 vanishes in F: a triple of ones fails only the tau
    norm (its character sums over A are 3 = 0), and enumeration finds the
    axioms inconsistent."""
    A = Ambi(tambara_yamagami(cyclic(3)), Field(3))
    ones = {k: A.one() for k in product(A.serf_ids, repeat=2)}
    assert Uberderivation(A, ones, ones, A.one()).report() == {"tau_norm": ["|A| tau taubar != 1"]}
    cls = enumerate_uber(A)
    assert cls.lattice == {"unknowns": 19, "consistent": False}
    assert (cls.class_reps, cls.orbits, cls.gauge_classes) == ([], [], 0)


def test_psi_gauge_builds_its_own_ambi(f17, mr):
    """Without an Ambi, psi_gauge builds one on the gauge's field and reads
    back the triple-level gauge that gauge_xi_from_triple lifted."""
    from fusionkit.uber import gauge_xi_from_triple, psi_gauge

    A = Ambi(mr, f17)
    g = _random_gauge_triple(A, random.Random(14))
    back = psi_gauge(gauge_xi_from_triple(g), mr)
    assert back.ambi is not A and back.ambi.key == A.key
    assert all(A.eq(back.theta[k], g.theta[k]) for k in g.theta) and list(back.theta) == list(g.theta)
    assert all(A.eq(back.phi[a], g.phi[a]) for a in g.phi) and A.eq(back.sigma, g.sigma)


# ---- one coordinate layout, read-only triples and gauges --------------------------------


def test_one_layout_names_every_coordinate(gauge_rules):
    """On every rule, uber_unknown_keys(A)[i] names coordinate i of the triple
    (chi, then ups at the serf pairs in product order, then tau), which is
    where the keyed views read it; relabeling by the identity is the
    identity; and each gauge coordinate is owned by at most one generator of
    the gauge-shift lattice."""
    rng = np.random.default_rng(71)
    for A in gauge_rules:
        serfs, m, n = A.serf_ids, A.npoints, A.field.p - 1
        keys = uber_unknown_keys(A)
        want = [(name, a, b, j) for name in ("chi", "ups") for a in serfs for b in serfs for j in range(m)]
        assert keys == want + [("tau", j) for j in range(m)]
        x = rng.integers(0, n, len(keys))
        u = vec_to_uber(A, x)
        read = [u.tau[k[1]] if k[0] == "tau" else getattr(u, k[0])[k[1:3]][k[3]] for k in keys]
        assert read == [A.field.exp(int(v)) for v in x]
        assert _same_array(uber._relabeling(A, np.arange(A.feudal.rule.n)), np.arange(len(keys)))
        lat = _gauge_lattice(A)
        owned = np.bincount(lat.owner[lat.owner >= 0], minlength=len(lat.slots))
        assert owned.tolist() == [len(slot[3]) if slot[0] == "theta" else 1 for slot in lat.slots]


def test_triples_and_gauges_are_read_only(f17, mr):
    """A triple and a gauge are their vectors: the keyed views, their rows,
    tau, sigma and vec refuse writes, and so does rebinding a field, and a
    vector handed to from_vec is copied.  The views list their keys in serf-pair (serf) order whatever
    the caller's order, and so does report's invertible list; gauge_shift
    still returns plain dicts.  Both still pickle and deep-copy once their
    views are built, as the dataclasses they replace did."""
    A = Ambi(mr, f17)
    u = mr_uber(f17, mr)
    g = _random_gauge_triple(A, random.Random(72))
    pairs = list(product(A.serf_ids, repeat=2))
    k, a = pairs[5], A.serf_ids[1]
    for table, key in ((u.chi, k), (u.ups, k), (g.theta, k), (g.phi, a)):
        with pytest.raises(TypeError):
            table[key] = A.one()
        with pytest.raises(ValueError, match="read-only"):
            table[key][0] = 2
    for vec in (u.tau, u.vec, g.sigma, g.vec):
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 2
    for x, name in ((u, "chi"), (u, "tau"), (u, "vec"), (g, "phi"), (g, "sigma")):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(x, name, getattr(x, name))
    x = uber_to_vec(u)
    v = vec_to_uber(A, x)
    x[0] += 1
    assert v == u
    raw = u.vec.copy()
    w = Uberderivation.from_vec(A, raw)
    raw[0] = 0
    assert w == u
    with pytest.raises(ValidationError, match="^expected 66 entries"):
        Uberderivation.from_vec(A, raw[:-1])
    with pytest.raises(ValidationError, match="^expected 42 entries"):
        GaugeTriple.from_vec(A, g.vec[1:])
    backwards = Uberderivation(A, {k: u.chi[k] for k in pairs[::-1]}, {**u.ups, pairs[7]: A.zero(), pairs[2]: A.zero()}, u.tau)
    assert list(backwards.chi) == list(backwards.ups) == pairs
    assert list(GaugeTriple(A, dict(reversed(g.theta.items())), dict(reversed(g.phi.items())), g.sigma).phi) == list(A.serf_ids)
    assert backwards.report() == {"invertible": [pairs[2], pairs[7]]}
    shifts = gauge_shift(A, g)
    assert type(shifts[0]) is dict and type(shifts[1]) is dict and list(shifts[0]) == pairs
    for x in (u, g):  # their views read, so held in the instance
        copied = pickle.loads(pickle.dumps(x))
        assert _same_array(copied.vec, x.vec) and not copied.vec.flags.writeable
        assert _same_array(copy.deepcopy(x).vec, x.vec)


def test_triples_reject_malformed_entries_at_the_door(f17, mr):
    """A ragged entry or a non-integer one raises a ValidationError naming
    the field, the key and the bad element, in a triple and in a gauge;
    numpy's own error escaped before, and a float theta of 2.5 was read as
    2.  An entry past int64 is reduced mod p exactly, as Python's % reduces
    it.  A gauge also rejects an entry 0 mod p, where a triple keeps it for
    report to name."""
    A = Ambi(mr, f17)
    u = mr_uber(f17, mr)
    g = _random_gauge_triple(A, random.Random(73))
    a = A.serf_ids[1]
    lab = mr.rule.labels[a]
    bad = {
        "ragged": ([1, [1, 2]], ": [1, 2] is not an integer (ragged or nested)"),
        "float": ([2.5, 2.5], ": 2.5 is not an integer"),
        "bool": ([True, False], ": True is not an integer"),
        "string": (["1", "1"], ": '1' is not an integer"),
        "short": ([1], " must list one residue per lord"),
    }
    builds = lambda entry: (
        (lambda: Uberderivation(A, {**u.chi, (a, a): entry}, u.ups, u.tau), f"'chi' at '{lab},{lab}'"),
        (lambda: Uberderivation(A, u.chi, {**u.ups, (a, a): entry}, u.tau), f"'ups' at '{lab},{lab}'"),
        (lambda: Uberderivation(A, u.chi, u.ups, entry), "'tau'"),
        (lambda: GaugeTriple(A, {**g.theta, (a, a): entry}, g.phi, g.sigma), f"'theta' at '{lab},{lab}'"),
        (lambda: GaugeTriple(A, g.theta, {**g.phi, a: entry}, g.sigma), f"'phi' at '{lab}'"),
        (lambda: GaugeTriple(A, g.theta, g.phi, entry), "'sigma'"),
    )
    for entry, message in bad.values():
        for build, where in builds(entry):
            with pytest.raises(ValidationError) as exc:
                build()
            assert str(exc.value) == f"{where}{message}"
    for big in (2**70, 2**63, -(2**64)):
        want = [big % 17, 1]
        assert Uberderivation(A, {**u.chi, (a, a): [big, 1]}, u.ups, u.tau).chi[(a, a)].tolist() == want
        assert Uberderivation(A, u.chi, u.ups, [big, 1]).tau.tolist() == want
        assert GaugeTriple(A, g.theta, g.phi, [big, 1]).sigma.tolist() == want
    zero = Uberderivation(A, u.chi, u.ups, [0, 3])
    assert zero.report() == {"invertible": ["tau"]}
    with pytest.raises(ValidationError, match="^'sigma' has an entry 0 mod p, not invertible$"):
        GaugeTriple(A, g.theta, g.phi, [0, 3])


# ---- what a classification builds, and when --------------------------------------


def test_h3_via_uber_builds_no_uberderivation(f17, monkeypatch):
    """h3_via_uber reports the count alone, so it builds no class
    representative; reading class_reps afterwards builds each one once,
    through vec_to_uber."""
    from fusionkit import cyclic, h3_via_uber

    real, built = uber.vec_to_uber, []
    monkeypatch.setattr(uber, "vec_to_uber", lambda ambi, vec: built.append(vec) or real(ambi, vec))
    report = h3_via_uber(cyclic(4), [0, 2], f17)
    assert built == [] and report.agree and report.count > 0
    cls = report.classification
    reps = cls.class_reps
    assert len(built) == len(reps) == cls.gauge_classes == report.count
    assert cls.class_reps is reps and len(built) == len(reps)


@pytest.mark.parametrize("name", ["ty2", "mr", "z4_graded", "ty3", "ty_s3"])
def test_class_reps_are_built_on_first_read_and_kept(request, f7, f17, name):
    """On the rules the acceptance criteria classify, with and without
    orbits: class_reps read twice is the same list, one representative per
    kept exponent vector, and gauge_classes counts them."""
    fr = tambara_yamagami(dihedral(3)) if name == "ty_s3" else request.getfixturevalue(name)
    F = f7 if name == "ty3" else f17
    for with_orbits in (True, False):
        cls = enumerate_uber(Ambi(fr, F), with_orbits=with_orbits)
        reps = cls.class_reps
        assert cls.class_reps is reps and cls.invariants is cls.invariants
        assert cls.gauge_classes == len(reps) == len(cls.invariants) == len(cls.vecs)
        assert [uber_to_vec(u).tolist() for u in reps] == cls.vecs.tolist()
        assert not cls.vecs.flags.writeable
        assert sorted(i for orbit in cls.orbits for i in orbit) == list(range(len(reps)))


def test_enumerate_uber_carries_the_row_transform_only_for_its_orbit_merge(f17, monkeypatch):
    """Without orbits the quotient carries no row transform; with them it
    does, and the orbit merge's coset indices add no elimination to the
    ones made without orbits, on a rule whose orbits merge classes."""
    from fusionkit import cyclic, klein_four, zmodlin

    fr = _six_element_rule(cyclic(4), klein_four())
    real_smith, real_quot = zmodlin.smith_mod, uber.quotient_structure
    elims, quots = [], []
    monkeypatch.setattr(zmodlin, "smith_mod", lambda *a, **kw: elims.append(real_smith(*a, **kw)) or elims[-1])
    monkeypatch.setattr(uber, "quotient_structure", lambda *a, **kw: quots.append(real_quot(*a, **kw)) or quots[-1])
    runs = {}
    for with_orbits in (False, True):
        elims.clear()
        cls = enumerate_uber(Ambi(fr, f17), with_orbits=with_orbits)
        runs[with_orbits] = (len(elims), quots[-1]._solver is not None, [sm.Vinv is not None for sm in elims])
    assert any(len(orbit) > 1 for orbit in cls.orbits)
    assert runs[False][0] == runs[True][0]
    assert (runs[False][1], runs[True][1]) == (False, True)
    assert runs[False][2] == runs[True][2] and sum(runs[True][2]) == 1  # the relation matrix alone
