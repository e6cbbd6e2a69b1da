"""Fusion rules: finite multimagmas with unit and duals, and their structure theory.

The carrier is dense integer ids 0..n-1 with a separate label list; the
product lives in a single (n, n, n) integer table where ``table[x, y, z]`` is
the multiplicity of z in x*y.  Multisets over the carrier are length-n
integer vectors.  All queries are exact and pure.  Associativity is checked
with float64 matrix products; they are exact because every multiplicity is at
most ``MAX_MULTIPLICITY`` = 2**16, so each entry of ``(xy)z`` is an integer of
at most n * 2**32 < 2**53 for every table that fits in memory (n < 2**21).

The tables are small (n is at most a few dozen), so the kernels are bounded
by the number of numpy calls, not by arithmetic: each axiom is one comparison
over the whole table, witnesses are gathered only for an axiom that fails,
and a fact of one rule (its adjoint subrule) is derived once per rule object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DomainError, ResourceError, ValidationError, integers
from .groups import FiniteGroup

WITNESS_CAP = 16
MAX_MULTIPLICITY = 2**16


class FusionRule:
    """A finite multimagma with unit and duals on the carrier 0..n-1.

    Multiplicities are integers in [0, MAX_MULTIPLICITY]; a larger one raises
    ``ResourceError`` (the CLI exits 2), which keeps every associativity sum
    exact in float64.
    """

    def __init__(self, labels, table, unit, dual):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValidationError("duplicate labels")
        self.table = integers(table, "table")  # a copy: the caller's array stays theirs
        if self.table.shape != (n, n, n):
            raise ValidationError(f"table must have shape ({n},{n},{n})")
        # read unsigned, a negative entry is at least 2**63: one comparison finds both faults
        if (self.table.view(np.uint64) > MAX_MULTIPLICITY).any():
            if (self.table < 0).any():
                raise ValidationError("multiplicities must be nonnegative")
            raise ResourceError(f"multiplicity {int(self.table.max())} exceeds the bound {MAX_MULTIPLICITY}")
        self.table.setflags(write=False)
        unit = integers(unit, "unit")
        if unit.shape or not 0 <= int(unit) < n:
            raise ValidationError("unit out of range")
        self.unit = int(unit)
        self.dual = integers(dual, "dual")
        if self.dual.shape != (n,) or (self.dual.view(np.uint64) >= n).any():
            raise ValidationError("dual must be a self-map of the carrier")
        self.dual.setflags(write=False)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    # ---- carrier ----------------------------------------------------------

    def __len__(self):
        return len(self.labels)

    @property
    def n(self):
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self._index:
            raise DomainError(f"unknown label {label!r}")
        return self._index[label]

    def __repr__(self):
        return f"FusionRule({list(self.labels)})"

    @cached_property
    def key(self) -> bytes:
        """The content key: equal exactly when labels, unit, dual and table are.
        The repr of (labels, unit) ends at its closing parenthesis, and the
        labels fix n, so the int64 bytes of dual and table that follow have one
        length for every rule with these labels."""
        return repr((self.labels, self.unit)).encode() + self.dual.tobytes() + self.table.tobytes()

    def __eq__(self, other):
        return isinstance(other, FusionRule) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    # ---- products ----------------------------------------------------------

    def fuse(self, x: int, y: int) -> np.ndarray:
        return self.table[x, y]

    @cached_property
    def _supports(self):
        rows, cols = np.nonzero(self.table.reshape(self.n * self.n, self.n))
        ends = np.cumsum(np.bincount(rows, minlength=self.n * self.n)).tolist()
        cols = cols.tolist()
        return tuple(tuple(cols[s:t]) for s, t in zip([0] + ends[:-1], ends))

    def support(self, x: int, y: int) -> tuple[int, ...]:
        return self._supports[x * self.n + y]

    @cached_property
    def is_multiplicity_free(self) -> bool:
        return bool((self.table <= 1).all())

    @cached_property
    def adjoint(self) -> frozenset[int]:
        """Smallest subrule containing the support of every x*xbar; the table
        and dual are read-only, so it is derived once per rule."""
        seed = np.flatnonzero(self.table[np.arange(self.n), self.dual].any(axis=0))
        return subrule_generated(self, seed.tolist())

    def restrict(self, members) -> "FusionRule":
        """Sub-multimagma on a dual-closed, fusion-closed member set."""
        ids = sorted(members)
        if self.unit not in ids:
            raise DomainError("restriction must contain the unit")
        pos = {g: i for i, g in enumerate(ids)}
        sub = self.table[np.ix_(ids, ids, ids)]
        outside = self.table[np.ix_(ids, ids)].sum(axis=2) - sub.sum(axis=2)
        if outside.any():
            raise DomainError("member set is not closed under fusion")
        dual = [pos[int(self.dual[g])] for g in ids]
        return FusionRule([self.labels[g] for g in ids], sub, pos[self.unit], dual)


# every table compiled from a rule, a FeudalRule or an Ambi, and every passing check,
# by (build, owner.key), the least recently used first
_COMPILED_CACHE: dict[tuple, object] = {}
COMPILED_LIMIT = 64  # tables the store keeps; phi stores nothing, so a feudal round trip passes it by


def compiled(owner, build):
    """build(owner), built once per build and content key of owner (a
    FusionRule, FeudalRule or Ambi), so equal owners made apart share it.
    No value refers to its owner, so the store keeps no rule alive; past
    COMPILED_LIMIT tables it drops the least recently used, which its next
    use builds again.  A build that raises stores nothing, so a check kept
    here as a build runs in full on every owner that fails it."""
    key = (build, owner.key)
    try:
        table = _COMPILED_CACHE.pop(key)
    except KeyError:
        table = build(owner)
    _COMPILED_CACHE[key] = table
    while len(_COMPILED_CACHE) > COMPILED_LIMIT:
        del _COMPILED_CACHE[next(iter(_COMPILED_CACHE))]
    return table


def _member_ids(rule: FusionRule, members) -> np.ndarray:
    """Labels or ids as an id array, every id checked to be an integer in the carrier."""
    ids = integers([rule.index(x) if isinstance(x, str) else x for x in members], "member ids", DomainError)
    bad = ids.view(np.uint64) >= rule.n  # read unsigned, a negative id is at least 2**63
    if bad.any():
        raise DomainError(f"member id {ids[bad.argmax()]} is outside the carrier 0..{rule.n - 1}")
    return ids


def as_multiset(rule: FusionRule, x) -> np.ndarray:
    """Coerce labels / label->multiplicity dicts / vectors to a count vector."""
    if isinstance(x, np.ndarray):
        if x.shape != (rule.n,):
            raise DomainError("multiset vector has wrong length")
        return integers(x, "multiset vector", DomainError)
    if isinstance(x, (str, int, float, np.number, np.bool_)):  # one label or id
        x = [x]
    if not isinstance(x, dict):
        return np.bincount(_member_ids(rule, x), minlength=rule.n)
    v = np.zeros(rule.n, dtype=np.int64)
    np.add.at(v, _member_ids(rule, x), integers(list(x.values()), "multiplicities", DomainError))
    if (v < 0).any():
        raise DomainError("negative multiplicity")
    return v


def fuse_multisets(rule: FusionRule, X, Y) -> np.ndarray:
    """Convolution <X*Y, z> = sum_xy X(x) Y(y) <xy, z>."""
    Xv, Yv = as_multiset(rule, X), as_multiset(rule, Y)
    return np.einsum("x,y,xyz->z", Xv, Yv, rule.table)


# ---- axioms -----------------------------------------------------------------


@dataclass
class RuleReport:
    associative: bool
    assoc_witnesses: list[tuple[int, int, int]]
    unit_ok: bool
    unit_witnesses: list[int]
    duals_ok: bool
    dual_witnesses: list[tuple[int, int]]
    products_nonempty: bool
    empty_witnesses: list[tuple[int, int]]
    unit_unique: bool
    dual_involutive: bool
    multiplicity_free: bool

    @property
    def passed(self) -> bool:
        return self.associative and self.unit_ok and self.duals_ok

    @property
    def consequences_ok(self) -> bool:
        # nonempty products, unique unit, involutive dual all follow from the axioms
        return self.products_nonempty and self.unit_unique and self.dual_involutive

    def summary(self) -> str:
        parts = [
            f"associative={self.associative}",
            f"unit={self.unit_ok}",
            f"duals={self.duals_ok}",
            f"nonempty_products={self.products_nonempty}",
            f"unit_unique={self.unit_unique}",
            f"dual_involutive={self.dual_involutive}",
            f"multiplicity_free={self.multiplicity_free}",
        ]
        if self.assoc_witnesses:
            parts.append(f"assoc_fail_at={self.assoc_witnesses[:3]}")
        return ", ".join(parts)


def verify_fusion_rule(rule: FusionRule) -> RuleReport:
    """Check all defining axioms; failures are reported with witnesses, not raised.

    Each axiom is one comparison over the whole table; its witnesses are
    gathered only when that comparison fails."""
    T, n, e = rule.table, rule.n, rule.unit
    # exact: entries are integers below 2**53 (see MAX_MULTIPLICITY)
    Tf = T.astype(np.float64).reshape(n * n, n)
    lhs = (Tf @ Tf.reshape(n, n * n)).ravel()  # [(x,y), (z,w)]: <(xy)z, w>
    rhs = np.matmul(Tf, Tf.reshape(n, n, n)).ravel()  # [x, (y,z), w]: <x(yz), w>
    assoc_witnesses = []
    if not np.array_equal(lhs, rhs):
        cells = (lhs != rhs).nonzero()[0] // n  # ascending (x,y,z) cells, once per bad w
        bad = cells[np.diff(cells, prepend=-1) > 0][:WITNESS_CAP]
        assoc_witnesses = list(zip(*(ax.tolist() for ax in np.unravel_index(bad, (n, n, n)))))

    # nonnegative integers: ux = x exactly when |ux| = 1 and <ux, x> = 1
    ar, sizes = np.arange(n), (Tf @ np.ones(n)).reshape(n, n)  # sizes[x, y] = |xy|, exact
    one = sizes == 1
    ident = one & one.T & (T[:, ar, ar] == 1) & (T[ar, :, ar].T == 1)  # [u, x]: ux = x = xu
    units = ident.all(axis=1)
    unit_bad = [] if units[e] else (~ident[e]).nonzero()[0].tolist()

    want, Te = rule.dual[:, None] == ar, T[:, :, e]  # want[x, y]: y = xbar
    dual_fail = (Te != want) | (Te.T != want)
    dual_bad = []
    if dual_fail.any():
        dual_bad = [(x, int(rule.dual[x])) for x in dual_fail.any(axis=1).nonzero()[0].tolist()]

    empty_witnesses = []
    if not sizes.all():
        empty_witnesses = [tuple(map(int, w)) for w in np.argwhere(sizes == 0)[:WITNESS_CAP]]
    dual_inv = bool((rule.dual[rule.dual] == ar).all()) and rule.dual[e] == e

    return RuleReport(
        associative=not assoc_witnesses,
        assoc_witnesses=assoc_witnesses,
        unit_ok=not unit_bad,
        unit_witnesses=unit_bad[:WITNESS_CAP],
        duals_ok=not dual_bad,
        dual_witnesses=dual_bad[:WITNESS_CAP],
        products_nonempty=not empty_witnesses,
        empty_witnesses=empty_witnesses,
        unit_unique=np.count_nonzero(units) == 1,
        dual_involutive=dual_inv,
        multiplicity_free=rule.is_multiplicity_free,
    )


def _passing(rule: FusionRule) -> bool:
    rep = verify_fusion_rule(rule)
    if not rep.passed:
        raise ValidationError(f"not a fusion rule: {rep.summary()}")
    return True


def require_valid(rule: FusionRule) -> FusionRule:
    """rule, once it passes every axiom.  The compiled store keeps the passing
    verdict per content, so an equal rule made apart is not checked again; a
    failure raises before anything is stored, so every failing rule is
    checked in full."""
    compiled(rule, _passing)
    return rule


# ---- homomorphisms -----------------------------------------------------------


def is_homomorphism(mapping, rule: FusionRule, other: FusionRule) -> bool:
    """f(xy) contained in f(x)f(y), for multiplicity-free multimagmas."""
    if not (rule.is_multiplicity_free and other.is_multiplicity_free):
        raise DomainError("homomorphisms are defined between multiplicity-free rules")
    f = _as_map(mapping, rule, other)
    for x, y in product(range(rule.n), repeat=2):
        img = {int(f[z]) for z in rule.support(x, y)}
        if not img <= set(other.support(int(f[x]), int(f[y]))):
            return False
    return True


def _as_map(mapping, rule: FusionRule, other: FusionRule) -> np.ndarray:
    """mapping as an int64 array of other's ids: an integer array, or a
    sequence or dict of labels or ids, each entry checked by integers."""
    if isinstance(mapping, np.ndarray):
        f = integers(mapping, "map", DomainError)
    elif isinstance(mapping, dict):
        f = np.full(rule.n, -1, dtype=np.int64)
        f[_member_ids(rule, mapping)] = _member_ids(other, mapping.values())
    else:
        f = _member_ids(other, mapping)
    if f.shape != (rule.n,) or (f < 0).any() or (f >= other.n).any():
        raise DomainError("map is not total on the carrier")
    return f


# ---- subrules, cosets, gradings ----------------------------------------------


def subrule_generated(rule: FusionRule, seed) -> frozenset[int]:
    """Least subset containing unit and seed, closed under duals and fusion support."""
    members = np.zeros(rule.n, dtype=bool)
    members[rule.unit] = True
    members[_member_ids(rule, seed)] = True
    nonzero = rule.table > 0
    while True:
        ids = np.flatnonzero(members)
        grown = members | nonzero[ids[:, None], ids].any(axis=(0, 1))
        grown[rule.dual[members]] = True
        if grown.tobytes() == members.tobytes():
            return frozenset(np.flatnonzero(members).tolist())
        members = grown


def is_subrule(rule: FusionRule, members) -> bool:
    m = frozenset(_member_ids(rule, members).tolist())  # labels or ids, as ids
    return subrule_generated(rule, m) == m  # the generated subrule holds the unit


@dataclass
class CosetDecomposition:
    cosets: tuple[frozenset[int], ...]
    table: np.ndarray  # (k, k, k): max-multiplicity operation on cosets
    partitions: bool

    @property
    def index(self) -> int:
        return len(self.cosets)


def left_cosets(rule: FusionRule, members) -> CosetDecomposition:
    """All sets floor(xS) with the max-multiplicity operation, plus the index.

    Each sorted coset is padded to the longest with the id n, which indexes
    an appended zero row, column and fiber of the table, so the max over each
    block is one gather and one max per axis (cosets that overlap share ids,
    which a max reads twice to no effect).  The cosets partition the carrier
    when they cover it with n ids in all."""
    n = rule.n
    ind = as_multiset(rule, sorted(members)) > 0
    xs, zs = rule.table[:, ind].any(axis=1).nonzero()  # z in xS
    ends = np.bincount(xs, minlength=n).cumsum().tolist()
    zs = zs.tolist()
    cosets = sorted({tuple(zs[s:t]) for s, t in zip([0, *ends], ends)})
    width = max(map(len, cosets)) or 1  # no member: one empty coset, all padding, whose block is 0
    pad = np.array([c + (n,) * (width - len(c)) for c in cosets], dtype=np.int64)
    t = np.zeros((n + 1,) * 3, dtype=np.int64)  # multiplicities are nonnegative: 0 is the max's identity
    t[:n, :n, :n] = rule.table
    table = t[pad].max(axis=1)[:, pad].max(axis=2)[:, :, pad].max(axis=3)
    partitions = sum(map(len, cosets)) == n and len(set(zs)) == n
    return CosetDecomposition(tuple(map(frozenset, cosets)), table, partitions)


def adjoint_subrule(rule: FusionRule) -> frozenset[int]:
    """Smallest subrule containing the support of every x*xbar."""
    return rule.adjoint


def nilpotency_class(rule: FusionRule) -> int | None:
    """Steps for the iterated adjoint series to hit {1}; None if it stalls above."""
    current = rule
    k = 0
    while len(current) > 1:
        nxt = current.adjoint
        if len(nxt) == len(current):
            return None
        current = current.restrict(nxt)
        k += 1
    return k


@dataclass
class GradingReport:
    subrule: frozenset[int]
    cosets: tuple[frozenset[int], ...]
    projection: np.ndarray
    group: FiniteGroup


def _coset_label(rule: FusionRule, c: frozenset[int]) -> str:
    if len(c) == 1:
        return rule.labels[next(iter(c))]
    # comma-free: these labels flow into JSON keys of the form "x,y"
    return "{" + "|".join(rule.labels[i] for i in sorted(c)) + "}"


def universal_grading(rule: FusionRule) -> GradingReport:
    """Quotient by the adjoint subrule, checked to be a group partitioning the carrier."""
    ad = rule.adjoint
    dec = left_cosets(rule, ad)
    if not dec.partitions:
        raise ValidationError("adjoint cosets do not partition the carrier")
    if ((dec.table != 0).sum(axis=2) != 1).any():
        raise ValidationError("adjoint quotient is not single-valued")
    # each row holds one nonzero entry, and entries are nonnegative: argmax finds it
    group = FiniteGroup([_coset_label(rule, c) for c in dec.cosets], dec.table.argmax(axis=2), name="grading")
    proj = [0] * rule.n
    for i, c in enumerate(dec.cosets):
        for x in c:
            proj[x] = i
    proj = np.array(proj, dtype=np.int64)
    if not is_grading(rule, proj, group):
        raise ValidationError("universal projection is not a grading")
    return GradingReport(ad, dec.cosets, proj, group)


def is_grading(rule: FusionRule, projection, group: FiniteGroup) -> bool:
    """Surjective homomorphism from the underlying multimagma onto the group."""
    proj = integers(projection, "projection", DomainError)
    if proj.shape != (rule.n,):
        raise DomainError(f"projection must hold one class per element, shape ({rule.n},), got {proj.shape}")
    if set(proj.tolist()) != set(range(len(group))):
        return False
    target = group.table[proj[:, None], proj]  # (n, n): required class of every product
    mask = rule.table > 0
    return not (mask & (proj[None, None, :] != target[:, :, None])).any()


def simple_currents(rule: FusionRule) -> tuple[frozenset[int], int]:
    """The group {a : a abar = 1} together with its coset index."""
    e = rule.unit
    eye = np.eye(rule.n, dtype=np.int64)
    S = frozenset(
        a for a in range(rule.n) if (rule.table[a, int(rule.dual[a])] == eye[e]).all()
    )
    if any(int(rule.dual[a]) not in S for a in S):
        raise ValidationError("simple currents are not dual-closed")
    group_from_members(rule, S)  # raises if fusion on S is not a group
    return S, left_cosets(rule, S).index


def group_from_members(rule: FusionRule, members) -> FiniteGroup:
    """The member set as a group, when fusion restricted to it is single-valued."""
    ids = sorted(_member_ids(rule, members).tolist())
    at = np.array(ids, dtype=np.int64)
    rows = rule.table[at[:, None], at]
    inside = rows[:, :, at]
    # a unit vector onto a member: row sum 1 (nonnegative integers) and all of it inside
    if not ((rows.sum(axis=2) == 1) & (inside.sum(axis=2) == 1)).all():
        raise ValidationError("member set does not fuse as a group")
    return FiniteGroup([rule.labels[g] for g in ids], inside.argmax(axis=2))


# ---- isomorphism search --------------------------------------------------------


def rule_isomorphisms(
    a: FusionRule,
    b: FusionRule,
    *,
    sector: np.ndarray | None = None,
    first_only: bool = False,
    bound: int = 10,
) -> list[np.ndarray]:
    """Carrier bijections preserving unit, duals, and the full multiset table.

    ``sector`` optionally assigns each element of both rules an integer class
    that the bijection must preserve (used for graded isomorphisms).

    The first bijection found between equal rules with equal sectors is the
    identity: it is returned without a search.  In the search each point's
    candidates are the points of its profile class in ascending order, and
    the points of a class are placed in ascending order, so the first branch
    of every level places x at x, which is consistent when a is b.
    """
    if len(a) != len(b):
        return []
    if len(a) > bound:
        raise ResourceError(f"carrier of size {len(a)} exceeds search bound {bound}")
    n = len(a)
    sec = np.zeros((2, n), dtype=np.int64) if sector is None else integers(sector, "sector", DomainError)
    if sec.shape != (2, n):
        raise DomainError(f"sector must hold a class per element of both rules, shape (2, {n}), got {sec.shape}")
    if first_only and a.key == b.key and (sec[0] == sec[1]).all():
        return [np.arange(n, dtype=np.int64)]
    return _isomorphism_search(a, b, sec, first_only)


def _isomorphism_search(a: FusionRule, b: FusionRule, sec: np.ndarray, first_only: bool) -> list[np.ndarray]:
    """rule_isomorphisms' depth-first search, on checked input."""
    n = len(a)
    # cheap invariants to prune candidates: sector, unit, self-dual, sorted row and column
    # sums; row 0 of each stack is a, row 1 is b
    ar, sums = np.arange(n), np.stack([a.table, b.table]).sum(axis=3)
    flags = np.stack([sec, ar == [[a.unit], [b.unit]], np.stack([a.dual, b.dual]) == ar], axis=2)
    prof = np.concatenate([flags, np.sort(sums, axis=2), np.sort(sums.transpose(0, 2, 1), axis=2)], axis=2)
    match = (prof[0][:, None] == prof[1]).all(axis=2)
    cands = [[] for _ in range(n)]
    for x, y in np.argwhere(match).tolist():
        cands[x].append(y)
    if not all(cands) or b.unit not in cands[a.unit]:
        return []

    out: list[np.ndarray] = []
    perm = np.full(n, -1, dtype=np.int64)
    used = [False] * n
    perm[a.unit] = b.unit
    used[b.unit] = True
    order = sorted((x for x in range(n) if x != a.unit), key=lambda x: len(cands[x]))
    # the points placed at depth i are p[:i+2], the unit and order[:i+1]; only the triples
    # that mention the new point p[i+1] can break: its row, column and fiber blocks, which
    # for a are corners of a's table relabelled by p, compared as bytes
    p = np.array([a.unit, *order])
    pa = a.table[p[:, None, None], p[:, None], p]
    slices_a = np.stack([pa, pa.transpose(1, 0, 2), pa.transpose(2, 0, 1)], axis=1)
    blocks_a = [slices_a[i + 1, :, : i + 2, : i + 2].tobytes() for i in range(len(order))]
    slices_b = np.stack([b.table, b.table.transpose(1, 0, 2), b.table.transpose(2, 0, 1)], axis=1)
    dual_a, dual_b = a.dual.tolist(), b.dual.tolist()

    def consistent(i: int, x: int, y: int) -> bool:
        yd = int(perm[dual_a[x]])
        if yd >= 0 and yd != dual_b[y]:
            return False
        pu = perm[p[: i + 2]]
        return slices_b[y].take(pu, axis=1).take(pu, axis=2).tobytes() == blocks_a[i]

    def rec(i: int):
        if out and first_only:
            return
        if i == len(order):
            out.append(perm.copy())
            return
        x = order[i]
        for y in cands[x]:
            if used[y]:
                continue
            perm[x] = y
            used[y] = True
            if consistent(i, x, y):
                rec(i + 1)
            perm[x] = -1
            used[y] = False

    rec(0)
    del rec  # a recursive closure is a reference cycle: free its arrays now, not at the next collection
    return out


def automorphisms(rule: FusionRule, bound: int = 10) -> list[np.ndarray]:
    """All table automorphisms fixing the unit and commuting with duals."""
    return rule_isomorphisms(rule, rule, bound=bound)
