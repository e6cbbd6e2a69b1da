"""The coefficient-level identity ledger for decomposed fusion systems.

Sixteen pentagon-derived identities constrain a single decomposition; eight
rectangle-derived identities relate two decompositions through the components
(theta, phi, psi, omega) of a gauge.  Each predicate returns the list of
index tuples where the identity fails, so an empty list means it holds.
Each predicate is written directly against the eight-function conventions,
independently of the instance-level pentagon verifier, which is what makes
them useful as cross-checks.
"""

from __future__ import annotations

from itertools import product

from fusionkit.uber import Decomposition


class _Ops:
    """Pointwise helpers binding a decomposition to its ambient algebra."""

    def __init__(self, dec: Decomposition):
        self.dec = dec
        self.A = dec.ambi
        self.fr = dec.feudal
        self.serfs = dec.feudal.serf_ids
        self.inv = dec.feudal.serf_inv
        self.mul = dec.feudal.serf_mul

    def const(self, c):
        return self.A.const(int(c))

    def eq(self, x, y):
        return self.A.eq(x, y)


def _failures(ops: _Ops, arity: int, check) -> list[tuple]:
    out = []
    for args in product(ops.serfs, repeat=arity):
        lhs, rhs = check(*args)
        if not ops.eq(lhs, rhs):
            out.append(args)
    return out


# ---- pentagon ledger: sixteen identities on one decomposition -------------------


def p0000(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    al, mul = dec.alpha, ops.mul
    F = dec.field

    def check(a, b, c, d):
        lhs = F.mul(F.mul(al[(a, b, c)], al[(a, mul(b, c), d)]), al[(b, c, d)])
        rhs = F.mul(al[(a, b, mul(c, d))], al[(mul(a, b), c, d)])
        return ops.const(lhs), ops.const(rhs)

    return _failures(ops, 4, check)


def p0001(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul = ops.A, ops.mul
    u = dec.alpha3

    def check(a, b, c):
        dl = A.div(A.mul(u[(a, mul(b, c))], A.act(a, u[(b, c)])), A.mul(u[(a, b)], u[(mul(a, b), c)]))
        return A.mul(ops.const(dec.alpha[(a, b, c)]), dl), A.one()

    return _failures(ops, 3, check)


def p1000(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul = ops.A, ops.mul
    a1 = dec.alpha1

    def check(a, b, c):
        dr = A.div(
            A.mul(a1[(a, mul(b, c))], a1[(b, c)]),
            A.mul(A.ract(a1[(a, b)], c), a1[(mul(a, b), c)]),
        )
        return dr, ops.const(dec.alpha[(a, b, c)])

    return _failures(ops, 3, check)


def p0010(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul = ops.A, ops.mul
    a2, a3 = dec.alpha2, dec.alpha3

    def check(a, b, c):
        lhs = A.mul(a3[(a, b)], a2[(mul(a, b), c)])
        rhs = A.mul(A.act(a, a2[(b, c)]), a2[(a, c)], A.ract(a3[(a, b)], c))
        return lhs, rhs

    return _failures(ops, 3, check)


def p0100(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul = ops.A, ops.mul
    a1, a2 = dec.alpha1, dec.alpha2

    def check(a, b, c):
        lhs = A.mul(a1[(b, c)], a2[(a, mul(b, c))])
        rhs = A.mul(A.ract(a2[(a, b)], c), a2[(a, c)], A.act(a, a1[(b, c)]))
        return lhs, rhs

    return _failures(ops, 3, check)


def p0011(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    b1, a3 = dec.beta1, dec.alpha3

    def check(a, b, c):
        lhs = A.mul(ops.const(dec.alpha[(a, b, mul(mul(inv(b), inv(a)), c))]), b1[(mul(a, b), c)])
        rhs = A.mul(
            A.act(inv(mul(a, b)), a3[(a, b)]),
            A.act(inv(b), b1[(a, c)]),
            b1[(b, mul(inv(a), c))],
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p1100(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    b3, a1 = dec.beta3, dec.alpha1

    def check(a, b, c):
        lhs = A.mul(ops.const(dec.alpha[(mul(mul(c, inv(b)), inv(a)), a, b)]), b3[(mul(a, b), c)])
        rhs = A.mul(
            b3[(a, mul(c, inv(b)))],
            A.ract(b3[(b, c)], inv(a)),
            A.ract(a1[(a, b)], inv(mul(a, b))),
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p0101(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    b1, b2, a2 = dec.beta1, dec.beta2, dec.alpha2

    def check(a, b, c):
        lhs = A.mul(b1[(a, c)], A.act(inv(a), b2[(b, c)]))
        rhs = A.mul(
            b2[(b, mul(inv(a), c))],
            A.ract(b1[(a, c)], inv(b)),
            A.act(inv(a), A.ract(a2[(a, b)], inv(b))),
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p1010(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    b2, b3, a2 = dec.beta2, dec.beta3, dec.alpha2

    def check(a, b, c):
        left_actor = mul(b, inv(c))
        t1 = A.bar(A.act(left_actor, b2[(a, c)], a))
        lhs = A.mul(t1, b3[(b, c)])
        t2 = A.bar(A.act(left_actor, b2[(a, mul(c, inv(b)))], a))
        rhs = A.mul(
            A.act(inv(a), A.ract(a2[(a, b)], inv(b))),
            A.act(inv(a), b3[(b, c)]),
            t2,
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p0110(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    b1, b3 = dec.beta1, dec.beta3

    def check(a, b, c):
        actor = mul(mul(b, inv(c)), a)
        lhs = A.mul(b1[(a, c)], A.bar(A.ract(b3[(b, c)], actor)))
        rhs = A.mul(
            A.bar(A.ract(b3[(b, mul(inv(a), c))], actor)),
            ops.const(dec.alpha[(a, mul(mul(inv(a), c), inv(b)), b)]),
            b1[(a, mul(c, inv(b)))],
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p1001(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    b2, a3, a1 = dec.beta2, dec.alpha3, dec.alpha1

    def check(a, b, c):
        lhs = A.mul(b2[(a, c)], A.ract(b2[(b, c)], inv(a)))
        rhs = A.mul(
            A.act(c, A.bar(a3[(a, b)])),
            b2[(mul(a, b), c)],
            A.ract(a1[(a, b)], inv(mul(a, b))),
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p0111(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    a2, a3, b1, gm = dec.alpha2, dec.alpha3, dec.beta1, dec.gamma

    def check(a, b, c):
        lhs = A.mul(a2[(a, c)], gm[(c, b)])
        rhs = A.mul(
            A.act(a, gm[(c, mul(inv(a), b))]),
            a3[(a, mul(inv(a), b))],
            A.act(a, A.ract(b1[(a, b)], c)),
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p1110(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    a2, a1, b3, gm = dec.alpha2, dec.alpha1, dec.beta3, dec.gamma

    def check(a, b, c):
        lhs = A.mul(a2[(b, a)], gm[(c, b)])
        rhs = A.mul(
            A.act(b, b3[(a, c)], a),
            a1[(mul(c, inv(a)), a)],
            A.ract(gm[(mul(c, inv(a)), b)], a),
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p1011(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    a1, b2, b1, gm = dec.alpha1, dec.beta2, dec.beta1, dec.gamma

    def check(a, b, c):
        ac = mul(a, c)
        lhs = A.mul(a1[(a, c)], gm[(c, b)])
        rhs = A.mul(
            A.ract(b2[(a, b)], ac),
            gm[(ac, b)],
            A.act(b, A.bar(b1[(a, ac)]), c),
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p1101(dec: Decomposition) -> list[tuple]:
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    a3, b2, b3, gm = dec.alpha3, dec.beta2, dec.beta3, dec.gamma

    def check(a, b, c):
        ba = mul(b, a)
        lhs = A.mul(gm[(c, b)], a3[(b, a)])
        rhs = A.mul(
            A.act(b, A.bar(b2[(a, c)]), c),
            gm[(c, ba)],
            A.act(b, A.bar(b3[(a, ba)]), c),
        )
        return lhs, rhs

    return _failures(ops, 3, check)


def p1111(dec: Decomposition) -> list[tuple]:
    """The summed identity; quantified over serfs (a,b,d,e) with bbar*a*d in A."""
    ops = _Ops(dec)
    A, mul, inv = ops.A, ops.mul, ops.inv
    p = dec.field.p
    acts = set(A.trivial_actors)
    b1, b2, b3, gm = dec.beta1, dec.beta2, dec.beta3, dec.gamma
    out = []
    for a, b, d, e in product(ops.serfs, repeat=4):
        if mul(mul(inv(b), a), d) not in acts:
            continue
        delta = 1 if b == mul(a, d) else 0
        lhs = A.mul(A.act(e, A.bar(b1[(a, b)])), b3[(d, b)]) * delta % p
        rhs = A.zero()
        for c0 in acts:
            c = mul(e, c0)
            term = A.mul(
                A.act(e, A.bar(gm[(c, a)]), a),
                A.ract(A.bar(b2[(c, b)]), a),
                A.ract(gm[(d, c)], inv(d)),
            )
            rhs = (rhs + term) % p
        if not A.eq(lhs, rhs):
            out.append((a, b, d, e))
    return out


PENTAGON_IDENTITIES = {
    "P0000": p0000,
    "P0001": p0001,
    "P1000": p1000,
    "P0010": p0010,
    "P0100": p0100,
    "P0011": p0011,
    "P1100": p1100,
    "P0101": p0101,
    "P1010": p1010,
    "P0110": p0110,
    "P1001": p1001,
    "P0111": p0111,
    "P1110": p1110,
    "P1011": p1011,
    "P1101": p1101,
    "P1111": p1111,
}


# ---- rectangle ledger: eight identities relating two decompositions ---------------


def _gops(dec: Decomposition, comps):
    ops = _Ops(dec)
    theta, phi, psi_, omega = comps
    return ops, theta, phi, psi_, omega


def g000(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    F = dec.field

    def check(a, b, c):
        dth = F.mul(
            F.mul(theta[(a, ops.mul(b, c))], theta[(b, c)]),
            F.inv(F.mul(theta[(a, b)], theta[(ops.mul(a, b), c)])),
        )
        return ops.const(dec_t.alpha[(a, b, c)]), ops.const(F.mul(dec.alpha[(a, b, c)], dth))

    return _failures(ops, 3, check)


def g100(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    A, mul = ops.A, ops.mul

    def check(a, b):
        dr_psi = A.div(A.mul(A.ract(psi_[a], b), psi_[b]), psi_[mul(a, b)])
        lhs = A.mul(dec_t.alpha1[(a, b)], dr_psi)
        rhs = A.mul(ops.const(theta[(a, b)]), dec.alpha1[(a, b)])
        return lhs, rhs

    return _failures(ops, 2, check)


def g010(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    A = ops.A

    def check(a, b):
        lhs = A.mul(dec_t.alpha2[(a, b)], A.ract(phi[a], b), psi_[b])
        rhs = A.mul(phi[a], A.act(a, psi_[b]), dec.alpha2[(a, b)])
        return lhs, rhs

    return _failures(ops, 2, check)


def g001(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    A, mul = ops.A, ops.mul

    def check(a, b):
        dl_phi = A.div(A.mul(phi[a], A.act(a, phi[b])), phi[mul(a, b)])
        return A.mul(dec_t.alpha3[(a, b)], ops.const(theta[(a, b)])), A.mul(dec.alpha3[(a, b)], dl_phi)

    return _failures(ops, 2, check)


def g011(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    A, mul, inv = ops.A, ops.mul, ops.inv

    def check(a, b):
        ab = mul(inv(a), b)
        lhs = A.mul(dec_t.beta1[(a, b)], A.act(inv(a), phi[a]), A.act(inv(a), omega[b]))
        rhs = A.mul(omega[ab], ops.const(theta[(a, ab)]), dec.beta1[(a, b)])
        return lhs, rhs

    return _failures(ops, 2, check)


def g101(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    A, inv = ops.A, ops.inv

    def check(a, b):
        lhs = A.mul(dec_t.beta2[(a, b)], A.ract(psi_[a], inv(a)), A.ract(omega[b], inv(a)))
        rhs = A.mul(A.act(b, A.bar(phi[a])), omega[b], dec.beta2[(a, b)])
        return lhs, rhs

    return _failures(ops, 2, check)


def g110(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    A, mul, inv = ops.A, ops.mul, ops.inv

    def check(a, b):
        ba = mul(b, inv(a))
        lhs = A.mul(
            dec_t.beta3[(a, b)],
            ops.const(theta[(ba, a)]),
            A.ract(A.bar(omega[ba]), ba),
        )
        rhs = A.mul(A.ract(A.bar(omega[b]), ba), A.ract(psi_[a], inv(a)), dec.beta3[(a, b)])
        return lhs, rhs

    return _failures(ops, 2, check)


def g111(dec, dec_t, comps) -> list[tuple]:
    ops, theta, phi, psi_, omega = _gops(dec, comps)
    A = ops.A

    def check(a, b):
        lhs = A.mul(dec_t.gamma[(a, b)], A.ract(omega[b], a), phi[b])
        rhs = A.mul(A.act(b, A.bar(omega[a]), a), psi_[a], dec.gamma[(a, b)])
        return lhs, rhs

    return _failures(ops, 2, check)


RECTANGLE_IDENTITIES = {
    "G000": g000,
    "G100": g100,
    "G010": g010,
    "G001": g001,
    "G011": g011,
    "G101": g101,
    "G110": g110,
    "G111": g111,
}


def check_all_pentagon(dec: Decomposition) -> dict[str, list]:
    return {name: fn(dec) for name, fn in PENTAGON_IDENTITIES.items()}


def check_all_rectangle(dec: Decomposition, dec_t: Decomposition, comps) -> dict[str, list]:
    return {name: fn(dec, dec_t, comps) for name, fn in RECTANGLE_IDENTITIES.items()}
