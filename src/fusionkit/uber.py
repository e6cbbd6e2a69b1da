"""Uberderivations: the algebraic form of pentagon data on feudal rules.

A triple (chi, ups, tau) valued in the ambient algebra B = F^M classifies
fusion systems on a feudal rule up to gauge.  The dictionary runs through
psi() (read a triple off a system) and reconstruct() (build the unique normal
system with that triple back).  Both go through the eight index shapes of a
feudal rule, written once as slots into the slot vector of a system
(_shape_slots).  A Decomposition is that system, each shape a keyed view
of its vector gathered through the slots, and the normal slice is checked
once, on beta1 and beta2 at the unit serf (_unit_columns).  reconstruct is
one signed gather, from the exponent coordinates of a triple to the slots
of its normal system (_reconstruct_gather): alpha2 and alpha3 are chi and
ups, alpha is minus the coboundary of ups (cohomology._delta), and the
other shapes are their monomial formulas in logs.

Gauge classing happens in discrete-log coordinates: every multiplicative
axiom is an affine-linear equation over Z_(p-1), gauge shifts span a
sublattice, and classes are coset representatives of the quotient,
post-filtered by the one non-monomial condition (the character-sum
nondegeneracy).

Each monomial axiom is encoded once, as named rows (the axiom and its
witness) kept as a padded signed gather, _AxiomRows; uber_constraint_system
writes their dense matrix for the solver with one scatter, and
Uberderivation.report reads its failures off the gather and checks only the
nondegeneracy directly.

The gauge action is encoded once, as the signed gather of _gauge_gather from
gauge log coordinates (theta, phi, sigma) to exponent coordinates.
gauge_shift takes a gauge through it and back through the exp table; the
gauge-shift lattice is the gather applied to the logs of all gauge generators
at once.  Classification takes cosets of that lattice, and gauge equivalence
is a span test on it (is the exponent difference of two triples a combination
of the generator shifts?).
Equivalence classes are orbits of the gauge classes under the graded rule
automorphisms: each automorphism permutes exponent coordinates, and the coset
a moved class lands in is read off by its index in the quotient.

A triple is its vector (Uberderivation.vec) and so is a triple-level gauge
(GaugeTriple.vec), each in one coordinate layout written once, _layout: chi,
ups, theta and phi are read-only views of the vector keyed by the serf pairs
or serfs, tau and sigma slices of it, and every gather above indexes the
layout.  Internal hand-offs go through from_vec; the dict constructors serve
outside callers, and _entries checks their tables entry by entry.  A
fusion-system gauge is its components at their support positions:
_components is a gather through them and _from_components a scatter, and
xi_components and xi_from_components key them by the serfs.

Every table is compiled once through rules.compiled, keyed by content: the
shape slots, the reconstruct and gauge gathers and the gauge component
positions per FeudalRule, as they read nothing of the field, and the axiom
rows (whose norm row reads log|A|; the gather, not the dense matrix) and the
gauge-shift lattice (reduced mod p - 1) per Ambi.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice, product
from types import MappingProxyType

import numpy as np

from .ambient import Ambi
from .cohomology import Units, _delta
from .errors import DomainError, ResourceError, UnsupportedFieldError, ValidationError, integers
from .fields import Field, nth_roots_of
from .feudal import FeudalRule, detect_feudal
from .rules import FusionRule, automorphisms as rule_automorphisms, compiled, is_homomorphism
from .systems import FusionSystem, GaugeXi, _OnVec, _slot_index, _support_index, admissible_sextuples, apply_gauge
from .zmodlin import SmithMod, factor_mod, nullspace_mod, quotient_structure, solve_mod


# ---- the triple ------------------------------------------------------------------


_Layout = namedtuple("_Layout", "chi ups tau theta phi sigma size gauge_size")


@cache  # a few small arrays per (s, m), shared by every rule of that shape
def _layout(s: int, m: int) -> _Layout:
    """The coordinate layouts of a triple and of a gauge on s serfs and m
    lords, written here only: the coordinate of each entry of each field, as
    a read-only array indexed by serf positions (serf_ids order) and a lord
    position, and the lengths of the two vectors.  A triple is chi at (a, b,
    j), then ups at (a, b, j), then tau at j; a gauge is theta at (a, b, j),
    then phi at (a, j), then sigma at j.  Each field is one range of
    coordinates in C order, so its block of a vector is a slice."""
    n = s * s * m  # coordinates of a field at the serf pairs
    triple, gauge = np.arange(2 * n + m), np.arange(n + s * m + m)
    triple.flags.writeable = gauge.flags.writeable = False  # and so every slice of them
    chi, ups, tau = triple[:n].reshape(s, s, m), triple[n : 2 * n].reshape(s, s, m), triple[2 * n :]
    theta, phi, sigma = gauge[:n].reshape(s, s, m), gauge[n : n + s * m].reshape(s, m), gauge[n + s * m :]
    return _Layout(chi, ups, tau, theta, phi, sigma, len(triple), len(gauge))


def _layout_of(x) -> _Layout:
    """The layout of an Ambi or a FeudalRule."""
    return _layout(len(x.serf_ids), len(x.lord_ids))


class _OnLayout(_OnVec):
    """A triple or a gauge: its vector vec, a read-only int64 array of
    residues mod p in its layout.  Each field is a slice of vec, so read-only
    too: tau and sigma as they are, the others in a read-only view keyed by
    the serf pairs (the serfs for phi) in product(serf_ids) order; each is
    built on first read."""

    _size, _invertible = "size", False  # its length in _Layout; whether 0 mod p is refused
    _from_vec_args = ("ambi", "vec")

    def _set(self, ambi: Ambi, vec) -> None:
        vec = integers(vec, "vec", modulus=ambi.field.p)
        size = getattr(_layout_of(ambi), self._size)
        if vec.shape != (size,):
            raise ValidationError(f"expected {size} entries, got an array of shape {vec.shape}")
        if self._invertible and not vec.all():
            raise ValidationError(f"entry {int(vec.argmin())} is 0 mod p, not invertible")
        vec.flags.writeable = False
        self.__dict__.update(ambi=ambi, vec=vec)

    def _field(self, name: str):
        at = getattr(_layout_of(self.ambi), name)
        block = self.vec[at.flat[0] : at.flat[-1] + 1].reshape(at.shape)
        if block.ndim == 1:
            return block
        keys = list(product(self.ambi.serf_ids, repeat=2)) if block.ndim == 3 else self.ambi.serf_ids
        return MappingProxyType(dict(zip(keys, block.reshape(len(keys), -1))))


class Uberderivation(_OnLayout):
    """A triple (chi, ups, tau), chi and ups keyed by the serf pairs; the
    dict constructor checks its tables with _entries."""

    chi = cached_property(lambda self: self._field("chi"))
    ups = cached_property(lambda self: self._field("ups"))
    tau = cached_property(lambda self: self._field("tau"))

    def __init__(self, ambi: Ambi, chi: dict, ups: dict, tau):
        self._set(ambi, _entries(ambi, chi=chi, ups=ups, tau=tau)[0])

    def report(self) -> dict:
        """The failed axioms, each with its witnesses; empty on a valid triple.

        The monomial axioms are read off the named rows of the constraint
        system; only the character-sum nondegeneracy is checked directly.
        """
        A = self.ambi
        zero = self.vec == 0
        if zero.any():  # such a triple has no exponent coordinates
            lay = _layout_of(A)
            pairs = (zero[lay.chi] | zero[lay.ups]).any(axis=-1).ravel()
            zeros = [k for k, z in zip(product(A.serf_ids, repeat=2), pairs) if z]
            return {"invertible": zeros + ["tau"] * bool(zero[lay.tau].any())}
        rows = compiled(A, _axiom_rows)
        x = uber_to_vec(self)
        issues = rows.failures(x)
        degenerate = [a for a, bad in zip(A.trivial_actors, _degenerate_on_A(A, x)) if bad]
        if degenerate:
            issues["nondegenerate_on_A"] = degenerate
        if rows.a_vanishes:
            issues["tau_norm"] = ["|A| tau taubar != 1"]
        return issues

    def is_valid(self) -> bool:
        return not self.report()

    def validate(self) -> "Uberderivation":
        rep = self.report()
        if rep:
            raise DomainError(f"not an uberderivation: {rep}")
        return self

    def __eq__(self, other):
        if not isinstance(other, Uberderivation):
            return NotImplemented
        A = self.ambi
        return (
            A.feudal.rule == other.ambi.feudal.rule
            and A.field.p == other.ambi.field.p
            and np.array_equal(self.vec, other.vec)
        )

    def __repr__(self):
        return f"Uberderivation(|S|={len(self.ambi.serf_ids)}, |M|={self.ambi.npoints}, p={self.ambi.field.p})"


class GaugeTriple(_OnLayout):
    """A gauge (theta, phi, sigma) of triples, no entry 0 mod p: theta keyed
    by the serf pairs and fixed by the actions, phi keyed by the serfs and 1
    at the unit serf.  The dict constructor checks its tables with _entries,
    then phi at the unit and theta, in the caller's key order."""

    _size, _invertible = "gauge_size", True
    theta = cached_property(lambda self: self._field("theta"))
    phi = cached_property(lambda self: self._field("phi"))
    sigma = cached_property(lambda self: self._field("sigma"))

    def __init__(self, ambi: Ambi, theta: dict, phi: dict, sigma):
        vec, rows = _entries(ambi, nonzero=True, sigma=sigma, theta=theta, phi=phi)
        if (rows["phi"][ambi.unit_serf] != 1).any():
            raise ValidationError("phi must be normalized")
        moved = [k for k, v in rows["theta"].items() if (v != v[0]).any()]  # in the caller's order
        if moved:
            raise ValidationError(f"theta{moved[0]} is not fixed by the actions")
        self._set(ambi, vec)


def _entries(A: Ambi, nonzero: bool = False, **tables) -> tuple[np.ndarray, dict]:
    """The vector of a triple or a gauge from its fields' tables, and each keyed
    table's entries mod p, keys read by integers, in the caller's order.
    chi, ups and theta must be keyed by exactly the serf pairs and phi by the
    serfs, each key of that arity; each entry, and tau or sigma, must list
    one integer per lord, none 0 mod p if nonzero.  Tables are checked in
    argument order and keys, then entries, in the caller's order, and the
    first bad one raises."""
    lay, rows = _layout_of(A), {}
    vec = np.empty(sum(getattr(lay, name).size for name in tables), np.int64)
    for name, table in tables.items():
        at = getattr(lay, name)
        if at.ndim == 1:
            vec[at] = _lord_residues(A, table, repr(name), nonzero)
            continue
        pairs = at.ndim == 3
        keys = list(product(A.serf_ids, repeat=2)) if pairs else A.serf_ids
        show = lambda k: ",".join(A.feudal.rule.labels[i] for i in (k if pairs else [k]))
        arity, by = ((2,), "serf pairs") if pairs else ((), "serfs")

        def ids(k):
            got = integers(k, f"{name!r} key")
            if got.shape != arity:
                raise ValidationError(f"{name!r} must be keyed by the {by}; {k!r} is not one")
            return tuple(got.tolist()) if pairs else got.tolist()

        d = {ids(k): v for k, v in table.items()}
        if d.keys() != set(keys):
            off = show(sorted(d.keys() ^ set(keys))[0])
            raise ValidationError(f"{name!r} must be keyed by the {by}; it differs at {off!r}")
        rows[name] = {k: _lord_residues(A, v, f"{name!r} at {show(k)!r}", nonzero) for k, v in d.items()}
        vec[at] = np.reshape([rows[name][k] for k in keys], at.shape)
    return vec, rows


def _lord_residues(A: Ambi, v, where: str, nonzero: bool) -> np.ndarray:
    """v mod p, checked as an entry of _entries; where names it in the error."""
    v = integers(v, where, modulus=A.field.p)
    if v.shape != (A.npoints,):
        raise ValidationError(f"{where} must list one residue per lord")
    if nonzero and not v.all():
        raise ValidationError(f"{where} has an entry 0 mod p, not invertible")
    return v


def _shift_values(ambi: Ambi, g: GaugeTriple) -> np.ndarray:
    """The multiplicative shifts of a gauge, in the triple layout: the logs of
    its entries through the gauge gather, back through the exp table."""
    F = ambi.field
    return F._exp_table[_shift_logs(ambi, F._log_table[g.vec])]


def gauge_shift(ambi: Ambi, g: GaugeTriple):
    """Multiplicative shifts (chi, ups, tau pointwise factors) of a gauge:
    chi and ups as plain dicts keyed by the serf pairs."""
    shift = Uberderivation.from_vec(ambi, _shift_values(ambi, g))
    return dict(shift.chi), dict(shift.ups), shift.tau


def apply_gauge_uber(u: Uberderivation, g: GaugeTriple) -> Uberderivation:
    """u times the shifts of g: one multiply of the two vectors."""
    A = u.ambi
    return Uberderivation.from_vec(A, u.vec * _shift_values(A, g) % A.field.p)


# ---- decomposition of a fusion system --------------------------------------------


class Decomposition(_OnVec):
    """A fusion system on a feudal rule, read as its eight index shapes: the
    FusionSystem system with its FeudalRule feudal; field and vec, the
    read-only slot vector, are the system's.  alpha is a read-only view
    keyed by the serf triples (a, b, c), with int values; alpha1-3, beta1-3
    and gamma are keyed by the serf pairs (a, b), each value a read-only row
    indexed by lord position.  Each view is gathered from vec through the
    shape slots on first read.  The positional constructor takes the eight
    keyed tables, in that order, and scatters them into a system's vector."""

    _from_vec_args = ("feudal", "system")
    field = property(lambda self: self.system.field)
    vec = property(lambda self: self.system.vec)
    alpha = cached_property(lambda self: self._shape("alpha"))
    alpha1 = cached_property(lambda self: self._shape("alpha1"))
    alpha2 = cached_property(lambda self: self._shape("alpha2"))
    alpha3 = cached_property(lambda self: self._shape("alpha3"))
    beta1 = cached_property(lambda self: self._shape("beta1"))
    beta2 = cached_property(lambda self: self._shape("beta2"))
    beta3 = cached_property(lambda self: self._shape("beta3"))
    gamma = cached_property(lambda self: self._shape("gamma"))

    def __init__(self, feudal: FeudalRule, field: Field, *shapes: dict):
        vec = np.zeros(len(admissible_sextuples(feudal.rule)), np.int64)
        for (name, slots), table in zip(compiled(feudal, _shape_slots).items(), shapes, strict=True):
            keys = product(feudal.serf_ids, repeat=3 if name == "alpha" else 2)
            vec[slots.ravel()] = np.ravel([table[k] for k in keys])
        self._set(feudal, FusionSystem.from_vec(feudal.rule, field, vec))

    def _set(self, feudal: FeudalRule, system: FusionSystem) -> None:
        self.__dict__.update(feudal=feudal, system=system)

    def _shape(self, name: str) -> MappingProxyType:
        block, serfs = self.vec[compiled(self.feudal, _shape_slots)[name]], self.feudal.serf_ids
        if name == "alpha":
            return MappingProxyType(dict(zip(product(serfs, repeat=3), block.ravel().tolist())))
        block.flags.writeable = False
        return MappingProxyType(dict(zip(product(serfs, repeat=2), block)))

    @cached_property
    def ambi(self) -> Ambi:
        """The ambient algebra on the lords, built once per decomposition."""
        return Ambi(self.feudal, self.field)

    def is_normal(self) -> bool:
        """The normal slice: beta1(a, e) = beta2(a, e) = 1 for every serf a."""
        return bool((_unit_columns(self.vec, self.feudal) == 1).all())


def _shape_slots(fr: FeudalRule) -> dict[str, np.ndarray]:
    """The eight sextuple formulas of the index shapes, each written once, as
    slots into the coefficient vector (FusionSystem.vec); they partition it.
    compiled keeps them per rule and serf set, so every FeudalRule on them
    finds them.

    Each shape is an (s^2, K) array: row (a,b) in product(serfs, repeat=2)
    order, and column c a serf for alpha, m a lord for the others.
    """
    slot = compiled(fr.rule, _slot_index)
    serfs = fr.serf_ids
    inv, mul = fr.serf_inv, fr.serf_mul
    L, R = fr.act_left, fr.act_right
    dual = lambda m: int(fr.rule.dual[m])
    formulas = {  # (a, b, m, ai, bi) -> sextuple
        "alpha": lambda a, b, c, ai, bi: (a, b, c, mul(a, b), mul(mul(a, b), c), mul(b, c)),
        "alpha1": lambda a, b, m, ai, bi: (R(R(m, bi), ai), a, b, R(m, bi), m, mul(a, b)),
        "alpha2": lambda a, b, m, ai, bi: (a, R(L(ai, m), bi), b, R(m, bi), m, L(ai, m)),
        "alpha3": lambda a, b, m, ai, bi: (a, b, L(mul(bi, ai), m), mul(a, b), m, L(ai, m)),
        "beta1": lambda a, b, m, ai, bi: (a, m, R(R(dual(m), ai), b), L(a, m), b, mul(ai, b)),
        "beta2": lambda a, b, m, ai, bi: (m, a, R(L(ai, dual(m)), b), R(m, a), b, R(dual(m), b)),
        "beta3": lambda a, b, m, ai, bi: (L(mul(b, ai), dual(m)), m, a, mul(b, ai), b, R(m, a)),
        "gamma": lambda a, b, m, ai, bi: (R(m, ai), R(L(a, dual(m)), b), L(bi, m), b, m, a),
    }
    out = {}
    for name, key in formulas.items():
        cols = serfs if name == "alpha" else fr.lord_ids
        rows = [[slot[key(a, b, m, inv(a), inv(b))] for m in cols] for a, b in product(serfs, repeat=2)]
        out[name] = np.array(rows, np.intp)
        out[name].flags.writeable = False
    return out


def decompose(f: FusionSystem, fr: FeudalRule | None = None) -> Decomposition:
    """f read as its eight index shapes (the views gather on first read)."""
    return Decomposition.from_vec(_feudal_of(f, fr), f)


def _feudal_of(f: FusionSystem, fr: FeudalRule | None) -> FeudalRule:
    """fr, checked to be on f's rule, or the feudal structure of f's rule."""
    if fr is None:
        found = compiled(f.rule, _feudal_structure)
        if found is None:
            raise DomainError("rule carries no feudal structure")
        fr = FeudalRule(f.rule, *found)
    if fr.rule != f.rule:
        raise DomainError("feudal structure belongs to a different rule")
    return fr


def _feudal_structure(rule: FusionRule) -> tuple[frozenset, int] | None:
    """The serf set and grading count of detect_feudal(rule), or None; compiled
    keeps it, so decompose without a FeudalRule detects once per rule."""
    fr = detect_feudal(rule)
    return None if fr is None else (fr.serfs, fr.grading_count)


def psi(f: FusionSystem, fr: FeudalRule | None = None, ambi: Ambi | None = None) -> Uberderivation:
    """The triple (chi, ups, tau) = (alpha2, alpha3, gamma(1,1)) of a system.

    On a normal system this is the literal read-off and is always a valid
    uberderivation.  On a non-normal system the literal triple does not
    classify (it can fail the tau-tied conditions, or land in a different
    gauge class even when it happens to satisfy them), so the triple is
    taken from the normal representative of f instead; either way the
    result represents f's gauge class.  Both the normal check and the
    triple are gathers of the coefficient vector through the shape slots.
    """
    fr = _feudal_of(f, fr)
    if ambi is None:
        ambi = Ambi(fr, f.field)
    units = _unit_columns(f.vec, fr)
    if (units != 1).any():
        f, _ = _normalize(f, fr, ambi, units)
    shapes, lay, e = compiled(fr, _shape_slots), _layout_of(fr), fr.serf_group.unit
    slots = np.empty(lay.size, np.intp)  # the triple is alpha2, alpha3 and gamma(e, e)
    slots[lay.chi] = shapes["alpha2"].reshape(lay.chi.shape)
    slots[lay.ups] = shapes["alpha3"].reshape(lay.ups.shape)
    slots[lay.tau] = shapes["gamma"].reshape(lay.chi.shape)[e, e]
    return Uberderivation.from_vec(ambi, f.vec[slots]).validate()


def _unit_columns(vec: np.ndarray, fr: FeudalRule) -> np.ndarray:
    """beta1(a, e) and beta2(a, e) of the system with slot vector vec for the
    serfs a, a (2, s, M) array gathered through the shape slots: all 1
    exactly on the normal slice."""
    shapes, s = compiled(fr, _shape_slots), len(fr.serf_ids)
    return vec[np.stack([shapes[name].reshape(s, s, -1)[:, fr.serf_group.unit] for name in ("beta1", "beta2")])]


def _component_positions(fr: FeudalRule) -> np.ndarray:
    """The support positions of a gauge's components, which partition it: theta
    at (a, b, ab) for the serf pairs, then phi at (a, a^-1 m, m), psi at
    (m a^-1, a, m) and omega at (m, mbar a, a) for the serfs a and lords m."""
    index = compiled(fr.rule, _support_index)
    inv, L, R, dual = fr.serf_inv, fr.act_left, fr.act_right, fr.rule.dual
    keys = [(a, b, fr.serf_mul(a, b)) for a, b in product(fr.serf_ids, repeat=2)]
    for at in (lambda a, m: (a, L(inv(a), m), m), lambda a, m: (R(m, inv(a)), a, m), lambda a, m: (m, R(dual[m], a), a)):
        keys += [at(a, m) for a in fr.serf_ids for m in fr.lord_ids]
    out = np.array([index[k] for k in keys], np.intp)
    out.flags.writeable = False
    return out


def _components(xi: GaugeXi, fr: FeudalRule) -> tuple[np.ndarray, ...]:
    """The components of a fusion-system gauge: theta, one entry per serf pair,
    and phi, psi and omega, (s, M) arrays with rows at serf positions.  One
    gather of its vector through the component positions."""
    if xi.rule != fr.rule:
        raise DomainError("gauge and feudal structure live on different rules")
    s = len(fr.serf_ids)
    v = xi.vec[compiled(fr, _component_positions)]
    return v[: s * s], *v[s * s :].reshape(3, s, -1)


def _from_components(fr: FeudalRule, field: Field, comps) -> GaugeXi:
    """The fusion-system gauge whose components, laid end to end as
    _components reads them, are comps: one scatter through the positions."""
    at = compiled(fr, _component_positions)
    vec = np.zeros(len(at), np.int64)
    vec[at] = comps
    return GaugeXi.from_vec(fr.rule, field, vec)


def xi_components(xi: GaugeXi, fr: FeudalRule):
    """(theta, phi, psi, omega) of a fusion-system gauge, theta keyed by the
    serf pairs and the others by the serfs."""
    theta, *rest = _components(xi, fr)
    return dict(zip(product(fr.serf_ids, repeat=2), theta.tolist())), *(dict(zip(fr.serf_ids, c)) for c in rest)


def xi_from_components(fr: FeudalRule, field: Field, theta, phi, psi_, omega) -> GaugeXi:
    """The fusion-system gauge with components (theta, phi, psi, omega); the
    inverse of xi_components."""
    vals = [theta[k] for k in product(fr.serf_ids, repeat=2)]
    return _from_components(fr, field, np.concatenate([vals, *(c[a] for c in (phi, psi_, omega) for a in fr.serf_ids)]))


def psi_gauge(xi: GaugeXi, fr: FeudalRule, ambi: Ambi | None = None) -> GaugeTriple:
    """The triple-level gauge (theta, phi, sigma) of a fusion-system gauge:
    theta constant at each serf pair, phi, and sigma = omega at the unit serf."""
    if ambi is None:
        ambi = Ambi(fr, xi.field)
    theta, phi, _, omega = _components(xi, fr)
    lay = _layout_of(fr)
    vec = np.empty(lay.gauge_size, np.int64)
    vec[lay.theta] = theta.reshape(lay.theta.shape[:2] + (1,))
    vec[lay.phi] = phi
    vec[lay.sigma] = omega[fr.serf_group.unit]
    return GaugeTriple.from_vec(ambi, vec)


def gauge_xi_from_triple(g: GaugeTriple) -> GaugeXi:
    """Lift an uberderivation gauge to a fusion-system gauge via the morphism
    formulas, on (s, M) arrays with rows at serf positions: psi(a) =
    bar(phi(a)) a * sigma a / sigma and omega(a) = a phi(a^-1) * a sigma /
    theta(a^-1, a)."""
    A, fr, lay = g.ambi, g.ambi.feudal, _layout_of(g.ambi)
    theta, phi, sigma, p = g.vec[lay.theta], g.vec[lay.phi], g.vec[lay.sigma], A.field.p
    e, inv = fr.serf_group.unit, fr.serf_group.inv
    right, left = fr.act_table[e], fr.act_table[:, e]  # row a: a acting on the right, on the left
    psi_ = np.take_along_axis(phi[:, fr.bar_perm], right, axis=1) * sigma[right] % p * A.inv(sigma) % p
    omega = np.take_along_axis(phi[inv], left, axis=1) * sigma[left] % p * A.inv(theta[inv, np.arange(len(inv))]) % p
    comps = [theta[..., 0].ravel(), phi.ravel(), psi_.ravel(), omega.ravel()]
    return _from_components(fr, A.field, np.concatenate(comps))


# ---- normal systems and reconstruction --------------------------------------------


def is_normal(f: FusionSystem, fr: FeudalRule | None = None) -> bool:
    return decompose(f, fr).is_normal()


def normalize(f: FusionSystem, fr: FeudalRule | None = None) -> tuple[FusionSystem, GaugeXi]:
    """A normal system gauge equivalent to f, with the witnessing gauge."""
    fr = _feudal_of(f, fr)
    return _normalize(f, fr, Ambi(fr, f.field), _unit_columns(f.vec, fr))


def _normalize(f: FusionSystem, fr: FeudalRule, A: Ambi, units: np.ndarray) -> tuple[FusionSystem, GaugeXi]:
    """normalize, given the Ambi of fr and the _unit_columns of f: the gauge
    is 1 at theta and phi, psi(a) = beta2(a, e) a and omega(a) = 1 /
    beta1(a^-1, e), written as one component vector."""
    beta1, beta2 = units
    s, m = beta1.shape
    psi_ = np.take_along_axis(beta2, fr.act_table[fr.serf_group.unit], axis=1)
    omega = A.inv(beta1[fr.serf_group.inv])
    xi = _from_components(fr, f.field, np.concatenate([np.ones(s * (s + m), np.int64), psi_.ravel(), omega.ravel()]))
    out = apply_gauge(f, xi)
    if (_unit_columns(out.vec, fr) != 1).any():
        raise ValidationError("normalization failed to produce a normal system")
    return out, xi


def reconstruct(u: Uberderivation) -> FusionSystem:
    """The unique normal fusion system whose triple is u: one signed gather of
    its exponent vector, through the exp table."""
    u.validate()
    A = u.ambi
    F = A.field
    src, signs = compiled(A.feudal, _reconstruct_gather)
    logs = (uber_to_vec(u)[src] * signs).sum(axis=1) % (F.p - 1)
    return FusionSystem.from_vec(A.feudal.rule, F, F._exp_table[logs])


def _reconstruct_gather(fr: FeudalRule) -> tuple[np.ndarray, np.ndarray]:
    """The normal system of a triple in exponent coordinates, as a signed gather.

    Row i is admissible sextuple i: its log is the sum over terms t of
    signs[i, t] times coordinate src[i, t] of uber_to_vec, and a row with
    fewer terms is padded with sign 0.  alpha2 and alpha3 are chi and ups,
    alpha is -d(ups) over the serf group read at the first lord, and alpha1,
    beta1-3 and gamma are the multiplicative formulas of the normal system
    with mul -> +, div -> - and act, ract, bar as gathers.  Each shape's rows
    go to its shape slots.
    """
    s, m = len(fr.serf_ids), len(fr.lord_ids)
    g = fr.serf_group  # element i is serf_ids[i]
    prod, inv, e = g.table, g.inv, g.unit
    act, bar = fr.act_table, fr.bar_perm
    lay = _layout_of(fr)
    chi, ups, tau = lay.chi, lay.ups, lay.tau
    # alpha(a,b,c) = -d(ups)(a,b,c) at the first lord; d reads the serf pair
    # at row d_src of the cochain, in product order
    d_src, d_signs, acted, actor = _delta(g, 2, "left")
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
    slots = compiled(fr, _shape_slots)
    width = max(len(term_signs) for _, term_signs in shapes.values())
    src = np.zeros((len(admissible_sextuples(fr.rule)), width), np.intp)
    signs = np.zeros(src.shape, np.int64)
    for name, (terms, term_signs) in shapes.items():
        rows = slots[name].ravel()
        src[rows, : len(term_signs)] = np.column_stack(terms)
        signs[rows, : len(term_signs)] = term_signs
    src.flags.writeable = signs.flags.writeable = False
    return src, signs


# ---- gauge equivalence as a span test on the gauge-shift lattice ------------------------


@dataclass
class _GaugeLattice:
    """The gauge generators of an Ambi and their shifts in exponent space.

    Generator i is the field generator at slots[i] and 1 everywhere else;
    a slot is ("theta", a, b, orbit), ("phi", a, j) or ("sigma", j).
    owner[c] is the generator whose slot holds gauge log coordinate c (see
    _layout), or -1.  shifts[i] is the uber_to_vec image of its
    gauge_shift.
    """

    slots: list[tuple]
    owner: np.ndarray
    shifts: np.ndarray
    n: int

    @cached_property
    def solver(self) -> SmithMod:
        """shifts.T factored once: solver.solve(v, n) gives c with c @ shifts = v."""
        return factor_mod(self.shifts.T, self.n)


def _slot_gauge(ambi: Ambi, lat: _GaugeLattice, exps) -> GaugeTriple:
    """The product of the generators of lat, generator i to the power exps[i]:
    one gather of the exponents through lat.owner, through the exp table."""
    logs = np.where(lat.owner >= 0, np.asarray(exps, np.int64)[lat.owner], 0)
    return GaugeTriple.from_vec(ambi, ambi.field._exp_table[logs % (ambi.field.p - 1)])


def _gauge_gather(fr: FeudalRule) -> list[tuple[np.ndarray, np.ndarray]]:
    """The gauge action in exponent coordinates, as a signed gather.

    A gauge's log coordinates are in the gauge layout (_layout).  The
    formulas are gauge_shift's multiplicative ones, with mul -> +, div -> -
    and act, ract, bar as gathers.  Returns the blocks (src, signs) for chi,
    ups and tau, each with its rows in C order of its positions: row r of a
    block is the sum over terms t of signs[t] times the log coordinate
    src[r, t].
    """
    s, m = len(fr.serf_ids), len(fr.lord_ids)
    prod, e = fr.serf_group.table, fr.serf_group.unit
    act, bar = fr.act_table, fr.bar_perm
    lay = _layout_of(fr)
    theta, phi, sigma = lay.theta, lay.phi, lay.sigma
    a, b, j = (x.ravel() for x in np.indices((s, s, m)))
    ab, eb, ae = act[a, b, j], act[e, b, j], act[a, e, j]
    chi = [phi[a, j], phi[b, bar[ab]], sigma[ab], sigma[j], phi[a, eb], phi[b, bar[eb]], sigma[ae], sigma[eb]]
    ups = [phi[a, j], phi[b, ae], phi[prod[a, b], j], theta[a, b, j]]
    tau = [sigma[bar], sigma]
    return [
        (np.stack(chi, axis=1), np.array([1, 1, 1, 1, -1, -1, -1, -1])),
        (np.stack(ups, axis=1), np.array([1, 1, -1, -1])),
        (np.stack(tau, axis=1), np.array([1, -1])),
    ]


def _shift_logs(ambi: Ambi, logs: np.ndarray) -> np.ndarray:
    """The exponent-space shifts, mod p - 1, of gauges given by their log
    coordinates: one gauge, or a (K, coordinates) batch of K."""
    logs, lay = np.asarray(logs), _layout_of(ambi)
    out = np.empty(logs.shape[:-1] + (lay.size,), np.int64)
    for at, (src, signs) in zip((lay.chi, lay.ups, lay.tau), compiled(ambi.feudal, _gauge_gather)):
        out[..., at.ravel()] = logs[..., src] @ signs
    return out % (ambi.field.p - 1)


def _gauge_lattice(ambi: Ambi) -> _GaugeLattice:
    """The gauge-shift lattice of ambi; compiled keeps it per rule, serf set
    and field, so every Ambi on them finds it."""
    A, m, lay = ambi, ambi.npoints, _layout_of(ambi)
    nonunit = [a for a in A.serf_ids if a != A.unit_serf]
    slots = [("theta", a, b, orb) for a in nonunit for b in nonunit for orb in A.orbits]
    slots += [("phi", a, j) for a in nonunit for j in range(m)]
    slots += [("sigma", j) for j in range(m)]
    # the gauge log coordinates of each slot: its field at its serfs and at
    # its lords (an orbit for theta, a point for phi and sigma)
    owner = np.full(lay.gauge_size, -1)
    for i, (name, *serfs, lords) in enumerate(slots):
        owner[getattr(lay, name)[(*(A._serf_at[a] for a in serfs), np.array(lords))]] = i
    logs = (owner == np.arange(len(slots))[:, None]).astype(np.int64)  # generator i is 1 where it owns
    return _GaugeLattice(slots, owner, _shift_logs(A, logs), A.field.p - 1)


def gauge_equivalent_uber(u1: Uberderivation, u2: Uberderivation) -> GaugeTriple | None:
    """A witnessing (theta, phi, sigma) from u1 to u2, or None.

    The gauge action is a homomorphism into exponent space, so u2 is a gauge
    of u1 exactly when uber_to_vec(u2) - uber_to_vec(u1) lies in the span of
    the generator shifts of the gauge gather.  The solution coefficients
    are the exponents of the witness: theta on an action orbit, phi or sigma
    at a point.
    """
    A = u1.ambi
    if A.feudal.rule != u2.ambi.feudal.rule or A.field.p != u2.ambi.field.p:
        raise DomainError("uberderivations live on different data")
    lat = compiled(A, _gauge_lattice)
    c = lat.solver.solve(uber_to_vec(u2) - uber_to_vec(u1), lat.n)
    if c is None:
        return None
    g = _slot_gauge(A, lat, c)
    if apply_gauge_uber(u1, g) != u2:
        raise ValidationError("gauge witness does not transform u1 to u2")
    return g


def _relabeling(ambi: Ambi, perm: np.ndarray) -> np.ndarray:
    """The relabeling along a graded rule automorphism, on exponent vectors.

    The relabeled triple reads each entry at the preimage serfs and lord, so
    uber_to_vec of it is uber_to_vec(u)[r] for the returned index array r.
    """
    lay = _layout_of(ambi)
    pre = np.argsort(perm)
    serf, lord = (np.searchsorted(ids, pre[list(ids)]) for ids in (ambi.serf_ids, ambi.lord_ids))
    out = np.empty(lay.size, np.intp)
    for at in (lay.chi, lay.ups):
        out[at] = at[serf[:, None, None], serf[:, None], lord]
    out[lay.tau] = lay.tau[lord]
    return out


def transport(u: Uberderivation, perm: np.ndarray) -> Uberderivation:
    """Relabel an uberderivation along a graded rule automorphism."""
    fr, perm = u.ambi.feudal, integers(perm, "perm", DomainError)
    graded = sorted(perm.tolist()) == list(range(fr.rule.n)) and set(perm[list(fr.serf_ids)].tolist()) == fr.serfs
    if not (graded and is_homomorphism(perm, fr.rule, fr.rule)):
        raise DomainError("transport needs a rule automorphism that maps serfs to serfs")
    return vec_to_uber(u.ambi, uber_to_vec(u)[_relabeling(u.ambi, perm)])


def canonicalize_tau(u: Uberderivation) -> Uberderivation:
    """A gauge-equivalent uberderivation with constant tau (two-lord rules)."""
    A = u.ambi
    F = A.field
    if A.npoints == 1:
        return u
    if A.npoints != 2:
        raise DomainError("constant-tau form is only defined for two lords")
    acts = len(A.trivial_actors)
    if not nth_roots_of(F, F.inv(acts % F.p), 2):
        raise UnsupportedFieldError("no square root of 1/|A| in the field")
    t1, t2 = int(u.tau[0]), int(u.tau[1])
    if t1 == t2:
        return u
    if int(A.bar_perm[0]) != 1:
        # self-dual lords: sigma_bar = sigma, so tau is pointwise gauge-rigid
        raise DomainError("self-dual lords leave a nonconstant tau unreachable")
    roots = nth_roots_of(F, F.div(t1, t2), 2)
    if not roots:
        raise UnsupportedFieldError("tau ratio has no square root")
    best, lay = None, _layout_of(A)
    for s in roots:
        vec = np.ones(lay.gauge_size, np.int64)
        vec[lay.sigma] = [s, 1]
        cand = apply_gauge_uber(u, GaugeTriple.from_vec(A, vec))
        if best is None or int(cand.tau[0]) < int(best.tau[0]):
            best = cand
    assert best is not None and int(best.tau[0]) == int(best.tau[1])
    return best


# ---- obstructions -------------------------------------------------------------------


@dataclass
class ObstructionReport:
    items: list[tuple[str, bool, str]]

    @property
    def clear(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def to_dict(self) -> dict:
        return {
            "clear": self.clear,
            "items": [{"condition": c, "ok": ok, "detail": d} for c, ok, d in self.items],
        }


def check_existence_obstructions(fr: FeudalRule, field: Field) -> ObstructionReport:
    """Necessary conditions for any fusion system to exist on the rule."""
    from .rules import group_from_members

    A = group_from_members(fr.rule, fr.adjoint_ids)
    items = []
    items.append(("adjoint_abelian", A.is_abelian, f"|A| = {len(A)}"))
    items.append(
        ("char_does_not_divide_A", len(A) % field.p != 0, f"char {field.p} vs |A| = {len(A)}")
    )
    lords = fr.lord_ids
    self_dual = any(int(fr.rule.dual[m]) == m for m in lords)
    if len(lords) % 2 == 1 or self_dual:
        has_root = bool(nth_roots_of(field, len(A) % field.p, 2)) if len(A) % field.p else False
        items.append(
            (
                "sqrt_of_A_order",
                has_root,
                f"sqrt({len(A)}) needed (|M| odd or a self-dual lord); "
                + ("present" if has_root else "absent"),
            )
        )
    return ObstructionReport(items)


# ---- enumeration ---------------------------------------------------------------------


def uber_unknown_keys(ambi: Ambi) -> list[tuple]:
    """The name of each coordinate of a triple: ("chi", a, b, j), ("ups", a,
    b, j) or ("tau", j), for serfs a, b and a lord position j."""
    lay, serfs = _layout_of(ambi), ambi.serf_ids
    keys: list = [None] * lay.size
    for name in ("chi", "ups", "tau"):
        for pos, i in np.ndenumerate(getattr(lay, name)):
            keys[i] = (name, *(serfs[k] for k in pos[:-1]), pos[-1])
    return keys


@dataclass
class _AxiomRows:
    """The monomial axioms of an Ambi as affine rows over Z/n, each written once,
    as a signed gather.

    An exponent vector x satisfies row i iff the sum over t of
    signs[i, t] * x[src[i, t]] is rhs[i] mod n; a row with fewer terms than
    the widest (6, quasisymmetry) is padded with sign 0.  names[i] is the
    row's (axiom, witness).  When |A| vanishes in F the norm rows are left
    out and a_vanishes is set: no tau satisfies the norm.
    """

    src: np.ndarray
    signs: np.ndarray
    rhs: np.ndarray
    names: list[tuple]
    n: int
    a_vanishes: bool

    def failures(self, x: np.ndarray) -> dict:
        """The witnesses of the rows x fails, grouped by axiom, in row order."""
        out: dict[str, dict] = {}
        for i in np.flatnonzero(((self.signs * x[self.src]).sum(axis=1) - self.rhs) % self.n):
            axiom, witness = self.names[i]
            out.setdefault(axiom, {})[witness] = None
        return {axiom: list(witnesses) for axiom, witnesses in out.items()}


def _axiom_rows(ambi: Ambi) -> _AxiomRows:
    """One (terms, signs) family per named axiom over the serf and lord
    indices, its kept rows laid into one padded gather: a row adds signs[t]
    times the coordinate terms[t] of uber_to_vec.  act, bar and the serf
    products are gathers, as in _reconstruct_gather."""
    A, F, fr = ambi, ambi.field, ambi.feudal
    s, m = len(A.serf_ids), A.npoints
    prod, inv, e = fr.serf_group.table, fr.serf_group.inv, fr.serf_group.unit  # serf i is serf_ids[i]
    act, bar, ids = fr.act_table, fr.bar_perm, np.array(A.serf_ids)
    on_A, a_vanishes = np.isin(ids, fr.adjoint_ids), len(fr.adjoint_ids) % F.p == 0
    lay = _layout_of(A)
    chi, ups, tau = lay.chi, lay.ups, lay.tau
    a, b, j = np.indices((s, s, m)).reshape(3, -1)
    x, y, z, k = np.indices((s, s, s, m)).reshape(4, -1)
    amb, am, mb = act[inv[a], inv[b], j], act[inv[a], e, j], act[e, inv[b], j]  # a m b, a m, m b
    pairs = list(zip(ids[a].tolist(), ids[b].tolist()))
    triples = list(zip(ids[x].tolist(), ids[y].tolist(), ids[z].tolist()))
    quasi = [chi[b, a, bar[j]], chi[a, b, amb], tau[amb], tau[j], tau[am], tau[mb]]
    # on A x A x A both actions are trivial, so the biderivation rows are also
    # the bicharacter law chi(ab, c) = chi(a, c) chi(b, c)
    bider = [ups[x, y, k], ups[x, y, act[e, z, k]], chi[prod[x, y], z, k], chi[x, z, k], chi[y, z, act[x, e, k]]]
    families = {  # name -> (witness per row, rows kept, terms, signs)
        "ups_normalized": (pairs, (a == e) | (b == e), [ups[a, b, j]], [1]),
        "quasisymmetric": (pairs, True, quasi, [1, -1, -1, -1, 1, 1]),
        "biderivation": (triples, True, bider, [1, -1, 1, -1, -1]),
        "symmetric_on_A": (pairs, on_A[a] & on_A[b] & (a < b), [chi[a, b, j], chi[b, a, j]], [1, -1]),
        "tau_norm": (["|A| tau taubar != 1"] * m, not a_vanishes, [tau, tau[bar]], [1, 1]),
    }
    width = max(len(term_signs) for *_, term_signs in families.values())
    names, src, signs = [], [], []  # src and signs: each family's kept rows, padded to width
    for name, (witness, kept, terms, term_signs) in families.items():
        kept = np.broadcast_to(kept, terms[0].shape)
        terms = np.stack(terms, axis=1)[kept]
        pad = ((0, 0), (0, width - len(term_signs)))
        src.append(np.pad(terms, pad))
        signs.append(np.pad(np.broadcast_to(term_signs, terms.shape), pad))
        names += [(name, w) for w, keep in zip(witness, kept) if keep]
    src, signs = np.concatenate(src), np.concatenate(signs)
    neg_log = 0 if a_vanishes else -F.log(len(fr.adjoint_ids) % F.p) % (F.p - 1)
    rhs = np.array([neg_log if name == "tau_norm" else 0 for name, _ in names], np.int64)
    src.flags.writeable = signs.flags.writeable = rhs.flags.writeable = False
    return _AxiomRows(src, signs, rhs, names, F.p - 1, a_vanishes)


def _degenerate_on_A(ambi: Ambi, x: np.ndarray) -> np.ndarray:
    """Which a of ambi.trivial_actors, other than the unit, have a nonzero
    character sum over A, sum_b chi(a, b), read off each exponent vector of
    x: a (..., |A|) bool array for x of shape (..., dim)."""
    acts = np.array(ambi.trivial_actors)
    on_A = np.searchsorted(ambi.serf_ids, acts)
    chi = x[..., _layout_of(ambi).chi[on_A[:, None], on_A]]
    sums = ambi.field._exp_table[chi].sum(axis=-2) % ambi.field.p
    return sums.any(axis=-1) & (acts != ambi.unit_serf)


def uber_constraint_system(ambi: Ambi):
    """(matrix, rhs, keys): the multiplicative axioms in exponent coordinates.

    Homogeneous rows: ups normalization, quasisymmetry, the biderivation law,
    and symmetry of chi on A x A.  The single affine family is the norm
    |A| tau taubar = 1, whose right-hand side is -log|A|.  When |A| vanishes
    in F there are no solutions at all, and matrix and rhs are None.  The
    matrix is written from the compiled gather on every call; only the
    gather is kept.
    """
    rows = compiled(ambi, _axiom_rows)
    keys = uber_unknown_keys(ambi)
    if rows.a_vanishes:
        return None, None, keys
    mat = np.zeros((len(rows.rhs), len(keys)), np.int64)
    np.add.at(mat, (np.arange(len(rows.rhs))[:, None], rows.src), rows.signs)  # repeated columns add up
    return mat, rows.rhs, keys


def vec_to_uber(ambi: Ambi, vec: np.ndarray) -> Uberderivation:
    return Uberderivation.from_vec(ambi, Units(ambi.field, ambi).exp(vec))


def uber_to_vec(u: Uberderivation) -> np.ndarray:
    return Units(u.ambi.field).log(u.vec).ravel()


CLASS_LIMIT = 100_000  # coset representatives enumerate_uber walks at most
REP_BLOCK = 1024  # coset representatives enumerate_uber checks with one product


@dataclass
class UberClassification:
    ambi: Ambi
    obstructions: ObstructionReport
    class_reps: list[Uberderivation]
    invariants: list[dict]
    orbits: list[list[int]]
    lattice: dict

    @property
    def gauge_classes(self) -> int:
        return len(self.class_reps)

    @property
    def equivalence_classes(self) -> int:
        return len(self.orbits)


def class_invariants(u: Uberderivation) -> dict:
    """Gauge-stable summary of a class representative (canonical tau if possible)."""
    A = u.ambi
    fr = A.feudal
    try:
        u = canonicalize_tau(u)
    except (DomainError, UnsupportedFieldError):
        pass
    labels = fr.rule.labels
    chi_diag = {labels[a]: [int(v) for v in u.chi[(a, a)]] for a in A.serf_ids}
    return {
        "tau": [int(v) for v in u.tau],
        "chi_diag": chi_diag,
        "chi_on_A": {
            f"{labels[a]},{labels[b]}": [int(v) for v in u.chi[(a, b)]]
            for a in A.trivial_actors
            for b in A.trivial_actors
        },
    }


def enumerate_uber(ambi: Ambi, *, with_orbits: bool = True) -> UberClassification:
    """All uberderivations on the ambient algebra, up to gauge equivalence.

    Solves the monomial axioms plus the tau norm as one affine system over
    Z_(p-1), quotients the homogeneous solution lattice by the gauge-shift
    sublattice, then filters coset representatives by nondegeneracy of chi
    on A x A (a gauge-invariant condition, so filtering reps is sound).
    """
    A = ambi
    F = A.field
    if len(A.serf_ids) > 8:
        raise ResourceError("enumeration is bounded at 8 serfs")
    if F.p > 257:
        raise ResourceError("enumeration is bounded at p <= 257")
    n = F.p - 1
    obst = check_existence_obstructions(A.feudal, F)
    mat, rhs, keys = uber_constraint_system(A)
    lattice_info = {"unknowns": len(keys)}
    if mat is None:
        return UberClassification(A, obst, [], [], [], lattice_info | {"consistent": False})
    x0 = solve_mod(mat, rhs, n)
    if x0 is None:
        return UberClassification(A, obst, [], [], [], lattice_info | {"consistent": False})
    hom = nullspace_mod(mat, n)
    gauge = compiled(A, _gauge_lattice).shifts
    if (mat @ gauge.T % n).any():
        raise ValidationError("gauge shift violates the monomial axioms")
    shifts = [v for v in gauge if v.any()]
    quot = quotient_structure(hom, shifts, len(keys), n)
    lattice_info.update(
        consistent=True,
        quotient_order=quot.order,
        invariant_factors=quot.invariant_factors,
        gauge_generators=len(shifts),
    )
    vecs, class_at = [], {}  # class_at: coset index -> class number
    cosets, done = quot.representatives(limit=CLASS_LIMIT), 0
    while block := list(islice(cosets, REP_BLOCK)):
        X = (x0 + np.array(block)) % n  # one representative per row
        residue = mat @ X.T  # the largest array here, so reduced in place
        residue -= rhs[:, None]
        residue %= n
        broken = residue.any(axis=0)
        if broken.any():
            failures = compiled(A, _axiom_rows).failures(X[broken.argmax()])
            raise ValidationError(f"lattice representative violates monomial axioms: {sorted(failures)}")
        for i in (~_degenerate_on_A(A, X).any(axis=1)).nonzero()[0].tolist():
            class_at[done + i] = len(vecs)
            vecs.append(X[i])
        done += len(X)
    reps = [vec_to_uber(A, x) for x in vecs]
    lattice_info["filtered_out"] = quot.order - len(reps)

    orbits: list[list[int]] = []
    if with_orbits and reps:
        fr = A.feudal
        all_perms = rule_automorphisms(fr.rule, bound=max(10, fr.rule.n))
        perms = [p for p in all_perms if all(int(p[s]) in fr.serfs for s in fr.serf_ids)]
        # orbits are formed under the graded pool; both pool sizes are reported
        lattice_info["automorphisms_all"] = len(all_perms)
        lattice_info["automorphisms_graded"] = len(perms)
        # the graded automorphisms form a group, so the classes a class is
        # moved to are its whole orbit
        moves = np.array([_relabeling(A, p) for p in perms])
        placed = set()
        for i, x in enumerate(vecs):
            if i in placed:
                continue
            orbit = {class_at.get(k) for k in quot.index(x[moves] - x0)}
            if None in orbit:
                raise ValidationError("an automorphism moves a class onto a filtered-out coset")
            orbits.append(sorted(orbit))
            placed |= orbit
    elif reps:
        orbits = [[i] for i in range(len(reps))]

    invariants = [class_invariants(u) for u in reps]
    return UberClassification(A, obst, reps, invariants, orbits, lattice_info)
