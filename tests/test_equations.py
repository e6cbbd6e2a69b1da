"""The 24-identity ledger as independent predicates, cross-checked against the
instance-level pentagon verifier on live systems."""

import random

import numpy as np
import pytest

from fusionkit import (
    Ambi,
    apply_gauge,
    decompose,
    enumerate_uber,
    random_gauge,
    reconstruct,
    verify_fusion_system,
)
from fusionkit.systems import recoupling_matrix
from fusionkit.uber import xi_components

from equations import (
    PENTAGON_IDENTITIES,
    RECTANGLE_IDENTITIES,
    check_all_pentagon,
    check_all_rectangle,
)


@pytest.fixture(scope="module")
def systems(f17, ty2, mr, z4_graded):
    out = []
    for fr in (ty2, z4_graded, mr):
        cls = enumerate_uber(Ambi(fr, f17), with_orbits=False)
        out.append((fr, reconstruct(cls.class_reps[0])))
        out.append((fr, reconstruct(cls.class_reps[-1])))
    return out


def test_pentagon_ledger_holds_on_verified_systems(systems):
    for fr, f in systems:
        dec = decompose(f, fr)
        failures = {k: v for k, v in check_all_pentagon(dec).items() if v}
        assert not failures


def test_pentagon_ledger_holds_after_random_gauges(systems, f17):
    rng = random.Random(21)
    for fr, f in systems:
        for _ in range(3):
            xi = random_gauge(fr.rule, f17, rng)
            dec = decompose(apply_gauge(f, xi), fr)
            failures = {k: v for k, v in check_all_pentagon(dec).items() if v}
            assert not failures


def test_rectangle_ledger_relates_gauge_pairs(systems, f17):
    rng = random.Random(22)
    for fr, f in systems:
        xi = random_gauge(fr.rule, f17, rng)
        ft = apply_gauge(f, xi)
        dec, dec_t = decompose(f, fr), decompose(ft, fr)
        comps = xi_components(xi, fr)
        failures = {k: v for k, v in check_all_rectangle(dec, dec_t, comps).items() if v}
        assert not failures


def test_identities_detect_corruption(systems, f17):
    """Perturbing one coefficient must trip at least one ledger identity."""
    from fusionkit.systems import FusionSystem

    fr, f = systems[2]  # the graded four-element rule
    key = next(k for k in f.coeffs if all(i in fr.lords for i in (k[0], k[1], k[2])))
    coeffs = dict(f.coeffs)
    coeffs[key] = coeffs[key] * 3 % 17
    g = FusionSystem(f.rule, f.field, coeffs)
    dec = decompose(g, fr)
    tripped = {k: v for k, v in check_all_pentagon(dec).items() if v}
    assert tripped
    assert not verify_fusion_system(g).passed


def test_ledger_names_cover_both_families():
    assert len(PENTAGON_IDENTITIES) == 16
    assert len(RECTANGLE_IDENTITIES) == 8


def test_recoupling_inverse_formula(f17, mr):
    """The inverse of the all-lord matrix at (mbar, m, mbar) has the closed form
    ups(xbar,x) taubar chi(y,x) / upsbar(ybar,y), evaluated at mbar."""
    A = Ambi(mr, f17)
    cls = enumerate_uber(A, with_orbits=False)
    for u in cls.class_reps:
        f = reconstruct(u)
        inv, mul = mr.serf_inv, mr.serf_mul
        acts = A.trivial_actors
        pos = {m: i for i, m in enumerate(A.lord_ids)}
        for m in mr.lord_ids:
            mbar = int(mr.rule.dual[m])
            mat, vs, us = recoupling_matrix(f, mbar, m, mbar, mbar)
            assert sorted(vs) == sorted(us) == sorted(acts)
            jm = pos[mbar]
            forward = np.zeros_like(mat)
            inverse = np.zeros_like(mat)
            for r_i, x in enumerate(vs):
                for c_i, y in enumerate(us):
                    fwd = A.div(
                        A.mul(A.bar(u.ups[(inv(x), x)]), u.tau),
                        A.mul(u.chi[(y, x)], u.ups[(inv(y), y)]),
                    )
                    back = A.div(
                        A.mul(u.ups[(inv(x), x)], A.bar(u.tau), u.chi[(y, x)]),
                        A.bar(u.ups[(inv(y), y)]),
                    )
                    forward[r_i, c_i] = fwd[jm]
                    inverse[r_i, c_i] = back[jm]
            assert (forward % 17 == mat % 17).all()
            eye = np.eye(len(vs), dtype=np.int64)
            assert ((forward @ inverse) % 17 == eye).all()
            assert ((inverse @ forward) % 17 == eye).all()


def test_ledger_builds_one_ambient_per_decomposition(systems, f17, monkeypatch):
    import fusionkit.ambient as ambient

    rng = random.Random(23)
    fr, f = systems[-1]
    xi = random_gauge(fr.rule, f17, rng)
    dec, dec_t = decompose(f, fr), decompose(apply_gauge(f, xi), fr)
    comps = xi_components(xi, fr)
    built = []
    init = ambient.Ambi.__init__
    monkeypatch.setattr(ambient.Ambi, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    results = check_all_pentagon(dec), check_all_rectangle(dec, dec_t, comps)
    assert len(built) == 1
    assert results == (check_all_pentagon(dec), check_all_rectangle(dec, dec_t, comps))
    assert not any(results[0].values()) and not any(results[1].values())
