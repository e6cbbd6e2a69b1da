"""Feudal structure on fusion rules and its dictionary with group homomorphisms.

A feudal rule splits as serfs (a group) and lords (the odd part of a Z2
grading).  The two functors implemented here, :func:`phi` from homomorphism
data to graded rules and :func:`gamma` back, are mutually inverse up to the
labeling conventions that keep serf and lord carriers disjoint.

The named rules are images of phi: a Tambara-Yamagami rule is phi of the
trivial map A -> Z2, and the Moore-Read rule phi of squaring on Z4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, ValidationError, integers
from .groups import FiniteGroup, cyclic, from_mul, homomorphisms, isomorphisms, standard_catalog, CATALOG_COMPLETE_THROUGH
from .rules import (
    FusionRule,
    GradingReport,
    _coset_label,
    compiled,
    group_from_members,
    is_grading,
    nilpotency_class,
    require_valid,
    rule_isomorphisms,
    simple_currents,
    universal_grading,
)


@cache
def _z2() -> FiniteGroup:
    """Z2, built on first use: an import leaves the group axiom store empty."""
    return cyclic(2)


@dataclass(frozen=True)
class HomDatum:
    """A homomorphism u: S -> G whose image has index 2 in G; frozen, since
    phi's output keeps it and gamma reads its grading off it unchecked."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: np.ndarray

    def __post_init__(self):
        S, G = self.source, self.target
        u = integers(self.mapping, "mapping")  # a copy: the caller's array stays theirs
        object.__setattr__(self, "mapping", u)
        if u.shape != (len(S),):
            raise ValidationError("mapping must be total on the source")
        u.setflags(write=False)
        im = self.image_ids  # sorted
        if im[0] < 0 or im[-1] >= len(G):
            raise ValidationError("mapping must take values in the target")
        if G.table[u[:, None], u].tobytes() != u[S.table].tobytes():
            raise ValidationError("mapping is not a homomorphism")
        if 2 * len(im) != len(G):
            raise ValidationError("cokernel must have order 2")

    @cached_property
    def image_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.mapping.tolist())))

    @cached_property
    def kernel_ids(self) -> tuple[int, ...]:
        return tuple(int(a) for a in range(len(self.source)) if int(self.mapping[a]) == self.target.unit)

    @cached_property
    def lord_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(len(self.target))).difference(self.image_ids)))

    def __repr__(self):
        return f"HomDatum({self.source.name} -> {self.target.name}, |ker|={len(self.kernel_ids)})"


class FeudalRule:
    """A fusion rule with a chosen Z2 grading whose even part is a group.

    serf_group's element i is serf_ids[i].  The serf actions on the lords are
    the gathers act_table and bar_perm, read-only and built on first use, so
    a FeudalRule that is only validated or compared never builds them.

    The public constructor checks the split once per content: the checked ids
    and serf group are kept in the compiled store, and an equal FeudalRule
    made apart shares them.  phi alone builds its output through
    _from_phi, which checks nothing and keeps the HomDatum as _phi_datum, off
    which gamma reads the universal grading: the paper proves that output
    feudal with grading group G, and the Tier-1 oracle runs these checks on
    every phi output it covers."""

    _phi_datum: HomDatum | None = None  # set by _from_phi alone: None sends gamma through universal_grading

    def __init__(self, rule: FusionRule, serfs, grading_count: int = 1):
        self.rule = rule
        try:
            serfs = list(serfs)
        except TypeError:
            raise ValidationError(f"serfs must be a collection of ids, got {serfs!r}") from None
        self.serfs = frozenset(integers(serfs, "serfs").tolist())
        self.lords = frozenset(range(rule.n)) - self.serfs
        self.grading_count = grading_count
        if not self.serfs.issubset(range(rule.n)):
            raise ValidationError("serfs must be elements of the carrier")
        self.serf_ids, self.lord_ids, self.serf_group = compiled(self, FeudalRule._validate)

    @classmethod
    def _from_phi(cls, rule: FusionRule, h: HomDatum) -> "FeudalRule":
        """The FeudalRule phi(h) on rule, with serfs 0..ns-1, lords ns..n-1 and
        the serf group S, unchecked, keeping h for gamma; for phi only, whose
        outputs are feudal by the paper's construction (guard tests keep every
        other caller out, and every other writer of _phi_datum)."""
        self = cls.__new__(cls)
        S, ns = h.source, len(h.source)
        self.rule, self.grading_count, self.serf_group = rule, 1, FiniteGroup(S.labels, S.table)
        self._phi_datum = h
        self.serf_ids, self.lord_ids = tuple(range(ns)), tuple(range(ns, rule.n))
        self.serfs, self.lords = frozenset(self.serf_ids), frozenset(self.lord_ids)
        return self

    def _validate(self) -> tuple[tuple[int, ...], tuple[int, ...], FiniteGroup]:
        """The sorted serf and lord ids and the serf group, once the split is
        checked to be feudal; the serfs are integer ids in the carrier."""
        r = self.rule
        serf_ids, lord_ids = tuple(sorted(self.serfs)), tuple(sorted(self.lords))
        if not self.lords:
            raise ValidationError("a feudal rule needs at least one lord")
        if not r.is_multiplicity_free:
            raise ValidationError("feudal rules are multiplicity-free")
        is_lord = np.ones(r.n, dtype=np.int64)
        is_lord[list(serf_ids)] = 0
        if not is_grading(r, is_lord, _z2()):
            raise ValidationError("serf/lord split is not a Z2 grading")
        serf_group = group_from_members(r, serf_ids)  # serfs must fuse as a group
        # serf actions on lords, both sides in one gather: act[0, a, j, k] = <a.m_j, m_k> and
        # act[1, a, j, k] = <m_j.a, m_k>; the Z2 grading has kept serfs out of these products
        serfs, lords = np.array(serf_ids), np.array(lord_ids)
        pair = np.empty((2, len(serfs), len(lords), 1), dtype=np.int64)
        pair[0], pair[1] = serfs[:, None, None], lords[:, None]
        act = r.table[pair, pair[::-1], lords]
        single = (act.sum(axis=3) == 1).all(axis=1)
        # where single-valued, m_j's orbit is the lords hit by some serf, plus m_j itself
        transitive = (act.any(axis=1) | np.eye(len(lords), dtype=bool)).all(axis=2)
        bad = (~(single & transitive)).nonzero()
        if len(bad[0]) and not single[bad[0][0], bad[1][0]]:
            raise ValidationError("serf action on lords is not single-valued")
        if len(bad[0]):
            raise ValidationError("serf action on lords is not transitive")
        # each lord product m.l must be a coset ad.b of the adjoint subrule, b any of its
        # members; the Z2 grading has already kept lords out of these products
        ad = np.array(self.adjoint_ids)
        prods = r.table[lords[:, None], lords] > 0
        coset = r.table[ad[:, None, None], prods.argmax(axis=2)].any(axis=0)
        if prods.tobytes() != coset.tobytes():
            raise ValidationError("lord products are not adjoint cosets")
        return serf_ids, lord_ids, serf_group

    # ---- derived structure -------------------------------------------------

    @cached_property
    def adjoint_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.rule.adjoint))

    @cached_property
    def bar_perm(self) -> np.ndarray:
        """bar_perm[j] = position of the dual of lord j."""
        out = np.searchsorted(self.lord_ids, self.rule.dual[list(self.lord_ids)])
        out.flags.writeable = False
        return out

    @cached_property
    def act_table(self) -> np.ndarray:
        """act_table[i, k, j] = position of abar * m_j * bbar, a = serf_ids[i], b = serf_ids[k]."""
        r, serfs, lords = self.rule, np.array(self.serf_ids), np.array(self.lord_ids)
        left = r.table[r.dual[serfs][:, None], lords].argmax(axis=2)
        both = r.table[left[:, None, :], r.dual[serfs][None, :, None]].argmax(axis=3)
        out = np.searchsorted(self.lord_ids, both)
        out.flags.writeable = False
        return out

    def act_left(self, a: int, m: int) -> int:
        return self.rule.support(a, m)[0]

    def act_right(self, m: int, a: int) -> int:
        return self.rule.support(m, a)[0]

    def serf_mul(self, a: int, b: int) -> int:
        return self.rule.support(a, b)[0]

    def serf_inv(self, a: int) -> int:
        return int(self.rule.dual[a])

    @property
    def key(self) -> tuple:
        return self.rule.key, self.serfs

    def __repr__(self):
        return f"FeudalRule({len(self.serfs)} serfs, {len(self.lords)} lords)"


# ---- named constructors --------------------------------------------------------


def group_rule(g: FiniteGroup) -> FusionRule:
    """A group, viewed as the fusion rule with single-valued fusion."""
    return FusionRule(g.labels, (g.table[:, :, None] == np.arange(len(g))).view(np.uint8), g.unit, g.inv)


def graded_group(g: FiniteGroup, serfs) -> FeudalRule:
    """A Z2-graded group: even part the given index-2 subgroup."""
    return FeudalRule(group_rule(g), serfs)


def tambara_yamagami(a: FiniteGroup, lord_label: str = "m") -> FeudalRule:
    """Serf group A plus a lone lord m with m*m = A: phi of the trivial map A -> Z2."""
    if lord_label in a.labels:
        raise ValidationError("duplicate labels")  # phi would rename the lord instead
    z2 = FiniteGroup([lord_label + "'", lord_label], [[0, 1], [1, 0]])  # the unit's label never reaches the carrier
    return phi(HomDatum(a, z2, np.zeros(len(a), dtype=np.int64)))


def moore_read() -> FeudalRule:
    """The six-element rule with serfs {1,-1,i,-i} and lords {i',-i'}: phi of
    squaring on Z4, whose lords i and -i take fresh labels."""
    vals = {"1": 1, "-1": -1, "i": 1j, "-i": -1j}
    label = {v: k for k, v in vals.items()}
    z4 = from_mul(list(vals), lambda x, y: label[vals[x] * vals[y]], name="Z4")
    return phi(HomDatum(z4, z4, [z4.index(label[v * v]) for v in vals.values()]))


# ---- detection -------------------------------------------------------------------


def detect_feudal(rule: FusionRule) -> FeudalRule | None:
    """The unique feudal structure of a properly feudal rule, or a chosen one
    for a Z2-gradable group; None otherwise.  The axioms are checked through
    require_valid, so a rule whose content passed before is not checked again."""
    try:
        require_valid(rule)
    except ValidationError:
        return None
    if not rule.is_multiplicity_free:
        return None
    sc, index = simple_currents(rule)
    if index == 1:
        # a group: any index-2 subgroup gives a grading
        g = group_from_members(rule, range(rule.n))
        subs = g.index2_subgroups()
        if not subs:
            return None
        return FeudalRule(rule, subs[0], grading_count=len(subs))
    if index != 2 or nilpotency_class(rule) is None:
        return None
    return FeudalRule(rule, sc, grading_count=1)


# ---- the two functors -------------------------------------------------------------


def _fresh_lord_labels(serf_labels, lord_labels) -> list[str]:
    taken = set(serf_labels)
    out = []
    for lab in lord_labels:
        cand = lab
        while cand in taken:
            cand = cand + "'"
        taken.add(cand)
        out.append(cand)
    return out


def phi(h: HomDatum) -> FeudalRule:
    """The graded rule with serfs S, lords G - im(u), and fusion through u.

    Only FusionRule's checks run (labels, shape, range, dual): HomDatum has
    checked both groups, the homomorphism and the index-2 image, from which
    the paper proves the output a Z2-graded feudal rule with serf group S
    and adjoint subrule ker u.  The Tier-1 oracle runs the full checks on
    every phi output of the 834 hom data of order at most 8, of
    enumerate_feudal(11) and of the named rules."""
    S, G, u = h.source, h.target, h.mapping
    ns = len(S)
    lords = np.array(h.lord_ids, dtype=np.int64)
    n = ns + len(lords)
    labels = list(S.labels) + _fresh_lord_labels(S.labels, [G.labels[m] for m in h.lord_ids])
    # x.y is every z with image g[z] = g[x]g[y]: one lord when one factor is a lord (the image
    # has index 2), the serfs over it when both are; serf products come from S itself
    g = np.concatenate([u, lords])
    table = G.table[g[:, None], g][:, :, None] == g
    table[:ns, :ns] = S.table[:, :, None] == np.arange(n)
    dual = np.concatenate([S.inv, ns + np.searchsorted(lords, G.inv[lords])])
    rule = FusionRule(labels, table.view(np.uint8), S.unit, dual)
    return FeudalRule._from_phi(rule, h)


def _datum_grading(h: HomDatum, rule: FusionRule) -> GradingReport:
    """universal_grading(rule) for rule = phi(h).rule, read off h unchecked.

    The adjoint subrule of phi(h) is ker u and its universal grading group is
    G (Gelaki-Nikshych): the coset over g is the serf fibre u^-1(g) for g in
    im u and the lone lord g otherwise.  The cosets come in left_cosets'
    order, the serf fibres by least serf and then the lords; the grading
    table is G's, relabelled through the coset -> G map in one gather.  The
    Tier-1 oracle checks every field against universal_grading on every phi
    output it covers."""
    over = [*h.mapping.tolist(), *h.lord_ids]  # the element of G each element of rule lies over
    to_g = np.array([*dict.fromkeys(over)])  # coset -> G: im u by least serf, then the lords
    to_coset = np.empty_like(to_g)
    to_coset[to_g] = np.arange(len(to_g))
    proj = to_coset[over]
    members = [[] for _ in to_g]
    for x, c in enumerate(proj.tolist()):
        members[c].append(x)
    cosets = tuple(map(frozenset, members))
    table = to_coset[h.target.table[to_g[:, None], to_g]]
    group = FiniteGroup([_coset_label(rule, c) for c in cosets], table, name="grading")
    return GradingReport(cosets[proj[rule.unit]], cosets, proj, group)


def gamma(fr: FeudalRule) -> HomDatum:
    """Restriction to serfs of the universal grading: read off the hom datum
    for a phi output, which phi proves graded by G, and derived and checked
    by universal_grading for every other FeudalRule."""
    h = fr._phi_datum
    grading = universal_grading(fr.rule) if h is None else _datum_grading(h, fr.rule)
    return HomDatum(fr.serf_group, grading.group, grading.projection[list(fr.serf_ids)])


# ---- isomorphism of the two kinds of object ----------------------------------------


def hom_datum_isomorphic(h1: HomDatum, h2: HomDatum):
    """A commuting square of group isomorphisms mapping lords to lords, or None."""
    sources = isomorphisms(h1.source, h2.source)
    targets = isomorphisms(h1.target, h2.target) if sources else []
    if not targets:
        return None
    # each admissible t (lords to lords) by the image t.u1 it gives, the first t for each image
    stacked = targets.stacked
    is_lord2 = np.zeros(len(h2.target), dtype=bool)
    is_lord2[list(h2.lord_ids)] = True
    admissible = np.flatnonzero(is_lord2[stacked[:, list(h1.lord_ids)]].all(axis=1)).tolist()
    rows = stacked[admissible][:, h1.mapping]
    images, w = rows.tobytes(), rows.itemsize * len(h1.mapping)  # w bytes per image
    by_image = {}
    for k, j in enumerate(admissible):
        by_image.setdefault(images[k * w : (k + 1) * w], targets[j])
    for h0 in sources:
        t = by_image.get(h2.mapping[h0].tobytes())
        if t is not None:
            return h0, t
    return None


def graded_isomorphic(f1: FeudalRule, f2: FeudalRule):
    """A table isomorphism preserving the serf/lord split, or None."""
    if len(f1.rule) != len(f2.rule) or len(f1.serfs) != len(f2.serfs):
        return None
    sec = np.ones((2, f1.rule.n), dtype=np.int64)  # serfs in sector 0, lords in 1
    sec[0, list(f1.serf_ids)] = 0
    sec[1, list(f2.serf_ids)] = 0
    found = rule_isomorphisms(f1.rule, f2.rule, sector=sec, first_only=True, bound=max(len(f1.rule), 10))
    return found[0] if found else None


def round_trip_check(x) -> bool:
    """Gamma(Phi(H)) isomorphic to H, or Phi(Gamma(L)) graded-isomorphic to L."""
    if isinstance(x, HomDatum):
        return hom_datum_isomorphic(gamma(phi(x)), x) is not None
    if isinstance(x, FeudalRule):
        return graded_isomorphic(phi(gamma(x)), x) is not None
    raise DomainError("expected a HomDatum or FeudalRule")


# ---- enumeration --------------------------------------------------------------------


@dataclass
class FeudalEnumeration:
    hom_data: list[HomDatum]
    rules: list[FeudalRule]
    warnings: list[str]


def enumerate_feudal(max_order: int, catalog: list[FiniteGroup] | None = None) -> FeudalEnumeration:
    """All properly feudal rules with at most max_order elements, up to isomorphism.

    Produced as phi of homomorphisms with order-2 cokernel and nontrivial
    kernel, deduplicated by isomorphism of the underlying homomorphism data.
    """
    if max_order > 16:
        raise DomainError("max_order is capped at 16")
    warnings = []
    if catalog is None:
        catalog = standard_catalog(min(max_order, 15))
        needed = max_order - 1
        if needed > CATALOG_COMPLETE_THROUGH:
            warnings.append(
                f"group catalog is only curated through order {CATALOG_COMPLETE_THROUGH}; "
                f"orders up to {needed} may be incomplete"
            )
    found: list[HomDatum] = []
    # the kept data by an isomorphism invariant, the sorted element orders of
    # source and target and the kernel size: a new datum is compared only
    # with the kept data it shares it with, since an isomorphic pair shares it
    kept: dict[tuple, list[HomDatum]] = {}
    for S in catalog:
        for G in catalog:
            if len(G) % 2 or len(S) + len(G) // 2 > max_order:
                continue
            groups_key = (tuple(sorted(S.orders.tolist())), tuple(sorted(G.orders.tolist())))
            for u in homomorphisms(S, G):
                if 2 * len(set(u.tolist())) != len(G):
                    continue
                kernel = int((u == G.unit).sum())
                if kernel < 2:
                    continue  # properly feudal needs a nontrivial kernel
                h = HomDatum(S, G, u)
                bucket = kept.setdefault((*groups_key, kernel), [])
                if not any(hom_datum_isomorphic(h, other) for other in bucket):
                    bucket.append(h)
                    found.append(h)
    return FeudalEnumeration(found, [phi(h) for h in found], warnings)
