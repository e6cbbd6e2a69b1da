"""Finite groups as explicit multiplication tables, plus a small catalog.

Carriers are dense integer ids 0..n-1 with a separate label list.  Every group
is validated at construction: its labels and the shape and range of its table
on each object, and the table axioms (a two-sided unit, associativity,
two-sided inverses), which read no label, once per distinct table, whose
passing verdict is kept by table content; a failing table stores nothing, so
it is checked in full on every construction.  All queries are pure.

Homomorphisms g -> h are searched by the images of g's generators: the
candidate maps, at most _HOM_BLOCK at a time, are filled along g's
derivations and checked in full with one comparison per block, and the
passing maps are kept by table content.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import prod

import numpy as np

from .errors import DomainError, ValidationError, integers


def _table_axioms(t: np.ndarray, labels: tuple[str, ...]) -> tuple[int, np.ndarray]:
    """The unit and the inverse map of the n x n table t, once it has a
    two-sided unit, is associative and has two-sided inverses; a failure
    raises, naming by labels the first element without an inverse."""
    ar = np.arange(len(t))
    units = ((t == ar) & (t.T == ar)).all(axis=1).nonzero()[0]  # row and column are the identity
    if len(units) != 1:
        raise ValidationError("table has no two-sided unit")
    unit = int(units[0])
    left = t[t]               # left[a,b,c] = (ab)c
    right = t[:, t]           # right[a,b,c] = a(bc)
    if left.tobytes() != right.tobytes():  # arrays of one shape and dtype: equal iff their bytes are
        raise ValidationError("table is not associative")
    hits = t == unit
    inv = hits.argmax(axis=1)
    bad = ((hits.sum(axis=1) != 1) | (t[inv, ar] != unit)).nonzero()[0]
    if len(bad):
        raise ValidationError(f"element {labels[bad[0]]} has no two-sided inverse")
    inv.setflags(write=False)
    return unit, inv


class FiniteGroup:
    def __init__(self, labels, table, name: str | None = None):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValidationError("duplicate group labels")
        self.table = integers(table, "table")  # a copy: the caller's array stays theirs
        if self.table.shape != (n, n):
            raise ValidationError(f"table must be {n}x{n}")
        if (self.table.view(np.uint64) >= n).any():  # read unsigned, a negative entry is at least 2**63
            raise ValidationError("table entries out of range")
        self.table.setflags(write=False)
        self.name = name or f"group{n}"
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        verdict = _AXIOM_CACHE.get(self.table_key)
        if verdict is None:  # a failing table raises here, and nothing is stored for it
            verdict = _AXIOM_CACHE[self.table_key] = _table_axioms(self.table, self.labels)
        self.unit, self.inv = verdict

    # ---- basics -------------------------------------------------------------

    def __len__(self):
        return len(self.labels)

    @property
    def order(self):
        return len(self.labels)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {len(self)})"

    def index(self, label: str) -> int:
        if label not in self._index:
            raise DomainError(f"unknown label {label!r}")
        return self._index[label]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    @cached_property
    def key(self) -> bytes:
        return repr((self.labels, self.table.tolist())).encode()

    @cached_property
    def table_key(self) -> bytes:
        return self.table.tobytes()

    @cached_property
    def orders(self) -> np.ndarray:
        return np.array([self.element_order(a) for a in range(len(self))])

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != self.unit:
            x = self.mul(x, a)
            k += 1
        return k

    # ---- subgroup machinery ---------------------------------------------

    def closure(self, seed) -> frozenset[int]:
        members = {self.unit, *seed}
        frontier = list(members)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(members):
                    for c in (self.mul(a, b), self.mul(b, a), self.inverse(a)):
                        if c not in members:
                            members.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(members)

    def generating_sequence(self) -> list[int]:
        gens: list[int] = []
        known = self.closure(gens)
        while len(known) < len(self):
            g = min(set(range(len(self))) - known)
            gens.append(g)
            known = self.closure(gens)
        return gens

    @cached_property
    def _derivations(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """The generating sequence, and every other element e as a step (e,
        prior, j) with e = prior * gens[j], in BFS discovery order, so that
        each step's prior is the unit or an earlier step's e."""
        gens = self.generating_sequence()
        seen = {self.unit}
        steps = []
        frontier = [self.unit]
        while frontier:
            nxt = []
            for a in frontier:
                for j, gen in enumerate(gens):
                    b = self.mul(a, gen)
                    if b not in seen:
                        seen.add(b)
                        steps.append((b, a, j))
                        nxt.append(b)
            frontier = nxt
        return gens, steps

    def index2_subgroups(self) -> list[frozenset[int]]:
        """Subgroups of index 2, i.e. kernels of surjections onto Z2."""
        out = []
        for f in homomorphisms(self, cyclic(2)):
            if set(f.tolist()) == {0, 1}:
                out.append(frozenset(np.nonzero(f == 0)[0].tolist()))
        return sorted(set(out), key=sorted)

    # ---- constructors ---------------------------------------------------


def from_mul(labels, mul, name=None) -> FiniteGroup:
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    table = np.zeros((n, n), dtype=np.int64)
    for (i, a), (j, b) in product(enumerate(labels), repeat=2):
        table[i, j] = idx[mul(a, b)]
    return FiniteGroup(labels, table, name=name)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(["1"], [[0]], name="1")


def cyclic(n: int, labels=None, name=None) -> FiniteGroup:
    if n < 1:
        raise DomainError("order must be positive")
    if labels is None:
        labels = ["1"] + [f"g{'' if k == 1 else '^%d' % k}" for k in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(labels, table, name=name or f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name=None) -> FiniteGroup:
    # labels must stay comma-free to survive the "x,y" JSON key format
    labels = [f"({x}|{y})" for x in g.labels for y in h.labels]
    nh = len(h)
    table = [
        [(g.mul(a1, a2)) * nh + h.mul(b1, b2) for a2 in range(len(g)) for b2 in range(nh)]
        for a1 in range(len(g))
        for b1 in range(nh)
    ]
    return FiniteGroup(labels, table, name=name or f"{g.name}x{h.name}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n; D3 is the symmetric group S3."""
    if n < 1:
        raise DomainError("n must be positive")
    els = [("r", k) for k in range(n)] + [("s", k) for k in range(n)]
    labels = []
    for t, k in els:
        if t == "r":
            labels.append("1" if k == 0 else f"r{k}")
        else:
            labels.append(f"s{k}" if k else "s")

    def mul(x, y):
        (t1, k1), (t2, k2) = x, y
        if t1 == "r" and t2 == "r":
            return ("r", (k1 + k2) % n)
        if t1 == "r" and t2 == "s":
            return ("s", (k2 + k1) % n)
        if t1 == "s" and t2 == "r":
            return ("s", (k1 - k2) % n)
        return ("r", (k1 - k2) % n)

    idx = {e: i for i, e in enumerate(els)}
    table = [[idx[mul(a, b)] for b in els] for a in els]
    return FiniteGroup(labels, table, name=f"D{n}")


def quaternion() -> FiniteGroup:
    """The quaternion group Q8."""
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {"1": (1, "1"), "-1": (-1, "1"), "i": (1, "i"), "-i": (-1, "i"),
            "j": (1, "j"), "-j": (-1, "j"), "k": (1, "k"), "-k": (-1, "k")}
    mul1 = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def mul(a, b):
        sa, xa = base[a]
        sb, xb = base[b]
        s, x = mul1[(xa, xb)]
        sign = sa * sb * s
        return x if sign == 1 else ("-1" if x == "1" else "-" + x)

    return from_mul(labels, mul, name="Q8")


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2), name="Z2xZ2")


# ---- homomorphism / isomorphism enumeration ---------------------------------

_HOM_CACHE: dict = {}
_HOM_BLOCK = 1024  # candidate maps built and checked at once by homomorphisms
_ISO_CACHE: dict = {}
# the unit and read-only inverse map of every table that passed the group axioms
# (see _table_axioms), by table_key: the axioms read no label, so equal tables share one check
_AXIOM_CACHE: dict[bytes, tuple[int, np.ndarray]] = {}


def homomorphisms(g: FiniteGroup, h: FiniteGroup) -> list[np.ndarray]:
    """All group homomorphisms g -> h, as index arrays, deterministic order.

    A homomorphism is fixed by the images of g's generators (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, section 9), each
    of which must have an order dividing its generator's.  The candidate
    image tuples, in itertools.product order, are stacked as rows in blocks
    of at most _HOM_BLOCK, so a block's check holds at most _HOM_BLOCK *
    |g|^2 entries: each block's maps are filled along g's derivations, one
    gather per element, and all checked in full with one comparison,
    f(a)f(b) == f(ab) for every a, b.  The passing rows are kept in order.

    Results are cached by table content (labels play no role); the arrays
    are read-only, and the list is the cache's own, so treat it as read-only.
    """
    cache_key = (g.table_key, h.table_key)
    cached = _HOM_CACHE.get(cache_key)
    if cached is not None:
        return cached
    gens, steps = g._derivations
    candidates = [np.flatnonzero(g.orders[gen] % h.orders == 0) for gen in gens]
    sizes = [len(c) for c in candidates]
    # the candidate with product index k takes, for generator j, digit j of k in the mixed
    # radix of sizes, the last generator's digit running fastest, as in itertools.product
    strides = [prod(sizes[j + 1 :]) for j in range(len(gens))]
    total = prod(sizes)
    results = []
    for start in range(0, total, _HOM_BLOCK):
        k = np.arange(start, min(start + _HOM_BLOCK, total))
        images = [c[k // stride % size] for c, stride, size in zip(candidates, strides, sizes)]
        f = np.empty((len(k), len(g)), dtype=np.int64)
        f[:, g.unit] = h.unit
        for e, prior, j in steps:  # derivation order: the prior element is filled
            f[:, e] = h.table[f[:, prior], images[j]]
        ok = (h.table[f[:, :, None], f[:, None, :]] == f[:, g.table]).all(axis=(1, 2))
        passing = f[ok]
        passing.setflags(write=False)
        results.extend(passing)
    _HOM_CACHE[cache_key] = results
    return results


class _Isomorphisms(list):
    """The isomorphisms g -> h, the very arrays of homomorphisms(g, h), with
    stacked: the same maps as the rows of one read-only int64 array."""

    __slots__ = ("stacked",)


def isomorphisms(g: FiniteGroup, h: FiniteGroup) -> list[np.ndarray]:
    """The bijective homomorphisms g -> h, in the order of homomorphisms(g, h).

    Cached by table content like homomorphisms; for g and h of one order the
    list also holds their stack, .stacked.  Treat both as read-only.
    """
    if len(g) != len(h):
        return []
    cache_key = (g.table_key, h.table_key)
    cached = _ISO_CACHE.get(cache_key)
    if cached is None:
        homs = homomorphisms(g, h)  # never empty: the trivial homomorphism is one
        stacked = np.array(homs, dtype=np.int64)
        # a homomorphism between groups of one order is bijective iff its kernel is trivial
        trivial_kernel = (stacked == h.unit).sum(axis=1) == 1
        cached = _ISO_CACHE[cache_key] = _Isomorphisms(f for f, ok in zip(homs, trivial_kernel.tolist()) if ok)
        cached.stacked = stacked[trivial_kernel]
        cached.stacked.flags.writeable = False
    return cached


def automorphisms(g: FiniteGroup) -> list[np.ndarray]:
    return isomorphisms(g, g)


# ---- catalog -----------------------------------------------------------------

CATALOG_COMPLETE_THROUGH = 8


def standard_catalog(max_order: int = CATALOG_COMPLETE_THROUGH) -> list[FiniteGroup]:
    """One group per isomorphism class, complete for orders <= 8.

    Beyond 8 only cyclics, two-factor abelian products, and dihedrals are
    included; callers should surface a completeness warning there.
    """
    groups: list[FiniteGroup] = []
    for n in range(1, max_order + 1):
        groups.extend(_groups_of_order(n))
    return groups


def _groups_of_order(n: int) -> list[FiniteGroup]:
    if n == 1:
        return [trivial_group()]
    out = [cyclic(n)]
    seen = [out[0]]

    def add(g):
        if not any(len(g) == len(s) and isomorphisms(g, s) for s in seen):
            seen.append(g)
            out.append(g)

    for a in range(2, n):
        if n % a == 0:
            add(direct_product(cyclic(a), cyclic(n // a)))
    if n % 2 == 0 and n >= 6:
        add(dihedral(n // 2))
    if n == 8:
        add(direct_product(cyclic(2), klein_four(), name="Z2xZ2xZ2"))
        add(quaternion())
    return out


_NAMED = {}


def named_group(name: str) -> FiniteGroup:
    """Parse names like Z4, Z2xZ2, D4, Q8, S3, 1."""
    if not _NAMED:
        _NAMED.update({
            "1": trivial_group(), "Z1": trivial_group(), "Q8": quaternion(),
            "S3": dihedral(3),
            "Z2xZ2xZ2": direct_product(cyclic(2), klein_four(), name="Z2xZ2xZ2"),
        })
        for n in range(2, 17):
            _NAMED[f"Z{n}"] = cyclic(n)
        for n in range(2, 9):
            _NAMED[f"D{n}"] = dihedral(n)
        for a in range(2, 9):
            for b in range(2, 9):
                if a * b <= 16:
                    _NAMED[f"Z{a}xZ{b}"] = direct_product(cyclic(a), cyclic(b))
    if name not in _NAMED:
        raise DomainError(f"unknown group name {name!r}")
    return _NAMED[name]


def identify_group(g: FiniteGroup) -> str | None:
    """Catalog name of g's isomorphism class, when the order is cataloged."""
    if len(g) > CATALOG_COMPLETE_THROUGH:
        return None
    for cand in _groups_of_order(len(g)):
        if isomorphisms(g, cand):
            return cand.name
    return None
