"""Fusion systems on multiplicity-free rules: recoupling tables over GF(p).

A system is its slot vector: one nonzero residue mod p per admissible
sextuple (x,y,z,u,r,v) with u in xy, v in yz, r in uz and xv, in
admissible_sextuples order; FusionSystem.coeffs is a read-only view of it
keyed by sextuple.  A gauge is likewise its vector over the support triples
(x,y,r), r in xy, in sorted order, with GaugeXi.values the keyed view.
Verification compiles every check for a rule once into index arrays over
the slot vector: the live pentagon instances (an instance can fail only if r
is in uz and in wv, since every key it reads is inadmissible otherwise), the
recoupling blocks, the rigidity blocks and the triangle and unit entries.  A
system is then checked with gathers: one pass of products for the pentagon,
with one cumsum for the instances of several terms, a nonzero test for each
1x1 block, and one batched inverse mod p for the few larger blocks of each
size.

Outside the reference evaluators (pentagon_instances and
pentagon_instance_value), a coefficient is addressed by its slot: its
position in FusionSystem.vec, or the trailing 0 slot for an inadmissible
key.  The brute-force search holds one value per slot and propagates over the
live instances of the compiled program, and the feudal dictionary of
fusionkit.uber reads and writes the same slots.  The dict constructors of
FusionSystem and GaugeXi validate a keyed table as an array over a key ->
slot index, and from_vec takes the vector as it is; apply_gauge is one
gather: the logs of the gauge at the four support positions of each slot,
added and subtracted, back through the exp table.

The admissible sextuples, the slot and support indices, the gauge positions
and the pentagon program are compiled once per rule content through
rules.compiled, the one store of every table compiled from a rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat
from types import MappingProxyType

import numpy as np

from .errors import DomainError, ResourceError, ValidationError, integers
from .fields import Field
from .rules import FusionRule, compiled

Sextuple = tuple[int, int, int, int, int, int]


def admissible_sextuples(rule: FusionRule) -> list[Sextuple]:
    """The exact support lattice of any fusion system on the rule."""
    if not rule.is_multiplicity_free:
        raise DomainError("only multiplicity-free rules carry fusion systems here")
    return compiled(rule, _admissible)


def _admissible(rule: FusionRule) -> list[Sextuple]:
    out: list[Sextuple] = []
    n = rule.n
    for x, y, z in product(range(n), repeat=3):
        for u in rule.support(x, y):
            uz = rule.support(u, z)
            for v in rule.support(y, z):
                xv = set(rule.support(x, v))
                for r in uz:
                    if r in xv:
                        out.append((x, y, z, u, r, v))
    return out


def _slot_index(rule: FusionRule) -> dict[Sextuple, int]:
    """Each admissible sextuple's slot, its position in admissible_sextuples,
    in that order."""
    return {k: i for i, k in enumerate(admissible_sextuples(rule))}


def _support_index(rule: FusionRule) -> dict[tuple[int, int, int], int]:
    """Each triple (x,y,r) of the gauge support, r in xy, at its position in
    sorted order."""
    support = sorted((x, y, r) for x, y in product(range(rule.n), repeat=2) for r in rule.support(x, y))
    return {k: i for i, k in enumerate(support)}


def _residues(index: dict, values: dict, p: int, noun: str, outside: str, zero: str) -> np.ndarray:
    """The values mod p at the positions of their keys in index (a rule's slot
    or support index), -1 at a position no key names.

    The keys are looked up as given and the values read by integers in one
    pass; where any of that fails, the items are checked in turn and the
    first bad one raises: a key not in index that is not integers (integers'
    error) or is (outside), then a value that is not an integer (integers'
    error, naming noun and the key) or is 0 mod p (zero).
    """
    keys = list(values)
    slots = np.fromiter(map(index.get, keys, repeat(-1)), np.intp, len(keys))
    try:
        res = integers(np.fromiter(values.values(), object, len(keys)), noun, modulus=p)
    except ValidationError:  # the loop below names the first bad value
        res = np.zeros(len(keys), np.int64)
    if (slots < 0).any() or not res.all():
        canonical = list(index)
        for k, v in values.items():
            if k not in index:
                k = integers(k, "key").tolist()
                raise ValidationError(outside.format(tuple(k) if isinstance(k, list) else k))
            # v as the one entry of an array, so a nested v is refused, not read as an array
            if not integers(np.fromiter([v], object, 1), f"{noun} at {canonical[index[k]]}", modulus=p)[0]:
                raise ValidationError(zero.format(canonical[index[k]]))
    out = np.full(len(index), -1, np.int64)
    out[slots] = res
    return out


def _frozen_residues(vec, p: int, keys, noun: str, zero: str) -> np.ndarray:
    """vec mod p as a read-only int64 array, checked to hold one value per key
    (keys is a rule's sextuple list or support index), none of them 0 mod p."""
    vec = integers(vec, noun, modulus=p)
    if vec.shape != (len(keys),):
        raise ValidationError(f"expected {len(keys)} {noun}, got an array of shape {vec.shape}")
    zeros = np.flatnonzero(vec == 0)
    if zeros.size:
        raise ValidationError(zero.format(list(keys)[zeros[0]]))
    vec.flags.writeable = False
    return vec


class _OnVec:
    """An object that is its vector vec, set once by _set: a system, a gauge,
    a cochain, or a triple, gauge or decomposition of uber.  Its attributes
    are read-only, since a keyed view set apart from vec would disagree with
    it; copy and pickle rebuild it through from_vec, from the attributes
    named in _from_vec_args."""

    _from_vec_args = ("rule", "field", "vec")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only; from_vec builds a new one")

    @classmethod
    def from_vec(cls, *args) -> _OnVec:
        """The one whose attributes named in _from_vec_args are args; _set
        checks them as the class describes, and reduces vec and makes it
        read-only where the class holds one."""
        x = cls.__new__(cls)
        x._set(*args)
        return x

    def __reduce__(self):  # the views are rebuilt on first read
        return type(self).from_vec, tuple(getattr(self, a) for a in self._from_vec_args)


class FusionSystem(_OnVec):
    """A fusion system on a multiplicity-free rule: its slot vector vec, a
    read-only int64 array with one nonzero residue mod p per admissible
    sextuple, in admissible_sextuples order.  coeffs is a read-only view of
    it keyed by sextuple, built on first read."""

    def __init__(self, rule: FusionRule, field: Field, coeffs: dict):
        index = compiled(rule, _slot_index)
        outside, zero = "coefficient at inadmissible sextuple {}", "zero coefficient at {}"
        c = _residues(index, coeffs, field.p, "coefficient", outside, zero)
        missing = np.flatnonzero(c < 0)
        if missing.size:
            adm = admissible_sextuples(rule)
            raise ValidationError(f"missing coefficients, e.g. {min(adm[i] for i in missing)}")
        self._set(rule, field, c)

    def _set(self, rule: FusionRule, field: Field, vec) -> None:
        vec = _frozen_residues(vec, field.p, admissible_sextuples(rule), "coefficients", "zero coefficient at {}")
        self.__dict__.update(rule=rule, field=field, vec=vec)

    @cached_property
    def coeffs(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(admissible_sextuples(self.rule), self.vec.tolist())))

    def coeff(self, x, y, z, u, r, v) -> int:
        return self.coeffs.get((x, y, z, u, r, v), 0)

    def __eq__(self, other):
        return (
            isinstance(other, FusionSystem)
            and self.rule == other.rule
            and self.field.p == other.field.p
            and np.array_equal(self.vec, other.vec)
        )

    def __repr__(self):
        return f"FusionSystem(|L|={self.rule.n}, p={self.field.p}, {len(self.vec)} coeffs)"


def recoupling_matrix(f: FusionSystem, x: int, y: int, z: int, r: int):
    """(matrix, v_index, u_index) with rows labeled by v and columns by u."""
    rule = f.rule
    us = [u for u in rule.support(x, y) if r in rule.support(u, z)]
    vs = [v for v in rule.support(y, z) if r in rule.support(x, v)]
    mat = np.zeros((len(vs), len(us)), dtype=np.int64)
    for i, v in enumerate(vs):
        for j, u in enumerate(us):
            mat[i, j] = f.coeff(x, y, z, u, r, v)
    return mat, vs, us


def matrix_inverse_modp(mats: np.ndarray, field: Field) -> list[np.ndarray | None]:
    """The inverses over GF(p) of a (B, k, k) stack of matrices, one Gauss-Jordan
    elimination for the whole stack: a list with each member's (k, k) int64
    inverse, or None where it is singular.  Any other shape is a DomainError.

    The elimination is fraction-free, one rank-1 update of every [A | I] per
    column: each row r != j becomes d r - r[j] row_j, with d the pivot
    row_j[j], so no pivot is inverted along the way and the left halves end
    diagonal.  Their diagonals are inverted at the end through the field's
    log and exp tables.  A member whose pivot in column j is 0 first gains
    the first row below with a nonzero entry in that column, in the same
    pass; those whose diagonal still holds a 0 are singular.
    """
    p = field.p
    mats = np.asarray(mats, np.int64)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DomainError(f"expected a (B, k, k) stack of matrices, got shape {mats.shape}")
    k = mats.shape[1]
    a = _eliminate(mats % p, p)
    diag = np.diagonal(a, axis1=1, axis2=2)
    ok = diag.all(axis=1).tolist()
    inv = a[:, :, k:] * field._exp_table[-field._log_table[diag]][:, :, None] % p  # exp[-log d] = 1/d
    return [m if good else None for m, good in zip(inv, ok)]


def _eliminate(mats: np.ndarray, p: int) -> np.ndarray:
    """[D M | M] mod p for each matrix A of the (B, k, k) stack mats, reduced
    mod p, by the fraction-free Gauss-Jordan of matrix_inverse_modp, with its
    row additions: M A = D is diagonal, and invertible iff A is.  Entries
    stay below p**2, so any p of a Field is exact."""
    b, k, _ = mats.shape
    a = np.zeros((b, k, 2 * k), np.int64)
    a[:, :, :k] = mats
    a.reshape(b, 2 * k * k)[:, k :: 2 * k + 1] = 1  # the identity on the right
    off = 1 - np.eye(k, dtype=np.int64)
    for j in range(k):
        pivot = a[:, j, j]  # a view, so it follows the row additions
        if np.count_nonzero(pivot) < b:  # a 0 pivot: add the first row below nonzero in column j
            m = np.flatnonzero(pivot == 0)
            below = (a[m, j:, j] != 0).argmax(axis=1) + j
            a[m, j] = (a[m, j] + a[m, below]) % p
        a = (pivot[:, None, None] * a - (a[:, :, j] * off[j])[:, :, None] * a[:, None, j]) % p
    return a


def pentagon_instances(rule: FusionRule) -> list:
    """All index tuples (w,x,y,z,p,u,r,v,q) on which the pentagon could bite.

    r ranges over the union of uz, wv, pq so one-sided-zero violations are
    caught as well; tuples outside this set hold vacuously.
    """
    out = []
    n = rule.n
    for w, x, y, z in product(range(n), repeat=4):
        xy = rule.support(x, y)
        for pp in rule.support(w, x):
            for q in rule.support(y, z):
                for u in rule.support(pp, y):
                    for v in rule.support(x, q):
                        rs = set(rule.support(u, z)) | set(rule.support(w, v)) | set(rule.support(pp, q))
                        for r in sorted(rs):
                            out.append((w, x, y, z, pp, u, r, v, q, xy))
    return out


def pentagon_instance_value(f: FusionSystem, inst) -> tuple[int, int]:
    """(lhs, rhs) of one pentagon instance, mod p."""
    w, x, y, z, pp, u, r, v, q, xy = inst
    p = f.field.p
    lhs = f.coeff(w, x, q, pp, r, v) * f.coeff(pp, y, z, u, r, q) % p
    rhs = 0
    for s in xy:
        t = f.coeff(x, y, z, s, v, q)
        if not t:
            continue
        t = t * f.coeff(w, s, z, u, r, v) % p
        if not t:
            continue
        rhs = (rhs + t * f.coeff(w, x, y, pp, u, s)) % p
    return lhs, rhs


@dataclass(frozen=True)
class _PentagonProgram:
    """Every check of verify_fusion_system for one rule, as index arrays into the
    coefficient vector: FusionSystem.vec, in admissible-sextuple order, then a
    0 at index len(adm) for inadmissible keys.

    An instance of pentagon_instances can fail only if r is in uz and in wv:
    otherwise every key on both sides is inadmissible.  On a live instance the
    left side is live iff r is in pq, and the right-side term for s in xy iff
    v is in sz and u is in ws.  Live instances and terms keep instance order.
    Each live instance's first term is a column of first, aligned with lhs
    (0 slots where it has no live term); its other terms are columns of
    extra, in order, and the instances that have any are owners, each with
    the position in extra of its last one at ends.

    The recoupling blocks (x,y,z,r) are the nonempty matrices of
    recoupling_matrix, in the order verify_fusion_system reports them.  A
    non-square block is never invertible, a 1x1 block is invertible iff its
    coefficient is nonzero, and the larger blocks of each size k are one
    (B,k,k) slot stack, inverted by one matrix_inverse_modp call.

    Every slot index is intp, so a gather converts nothing, and the factors
    of the products are contiguous rows: lhs[i], first[i] and extra[i] are
    the slots of the i-th factor of every left side and right-side term.
    """

    total: int  # len(pentagon_instances(rule))
    lhs: np.ndarray  # (2, live) intp: slots of (w,x,q,p,r,v) and (p,y,z,u,r,q), or 0 slots
    # right-side terms, as slots of (x,y,z,s,v,q), (w,s,z,u,r,v) and (w,x,y,p,u,s)
    first: np.ndarray  # (3, live) intp: the first term of each live instance, or 0 slots
    extra: np.ndarray  # (3, E) intp: the other terms, in instance order
    owners: np.ndarray  # intp, ascending: the live instances with a column in extra
    ends: np.ndarray  # intp: the position in extra of each owner's last term
    witnesses: np.ndarray  # (live, 9) int16: (w,x,y,z,p,u,r,v,q)
    blocks: np.ndarray  # (blocks, 4) int16: (x,y,z,r)
    nonsquare: np.ndarray  # intp: positions of the non-square blocks
    single: np.ndarray  # intp: positions of the 1x1 blocks
    single_slots: np.ndarray  # intp: their coefficients
    square: tuple  # per size k >= 2, ascending: (B,) intp positions and (B,k,k) intp slots
    # the rigidity check, per label r with rb its dual: the labels that fail on
    # every vector (the (rb,r,rb,rb) block has no (e,e) entry, on a rule with
    # broken duals, or is not square); (3, m) intp rows of the labels with a
    # 1x1 block, the slot of (r,rb,r,e,r,e) and the block's slot; and for the
    # labels with a larger block, (r, stack, member, (u,v) of the (e,e) entry,
    # slot of (r,rb,r,e,r,e)) with the block at square[stack][1][member]
    rigid_never: np.ndarray
    rigid_single: np.ndarray
    rigid_square: tuple
    triples: np.ndarray  # (triples, 3) int16: (x,y,r) with r in xy
    triangle: np.ndarray  # intp: slot of (x,e,y,x,r,y) per triple
    one_top: np.ndarray  # (triples, 2) intp: slots of (e,x,y,x,r,r) and (x,y,e,r,r,y)

    def failures(self, c: np.ndarray, p: int) -> np.ndarray:
        """Positions of the live instances whose two sides differ mod p on the
        coefficient vector c (entries in [0, p)), in one pass: d, each left
        side minus its first term; the owners' d minus their sums of reduced
        extra terms, read off one cumsum; then one reduction of every d.
        Exact, since |d| < p**3 <= fields.MAX_MODULUS**3 < 2**63 and an
        extra sum is below E p."""
        (a, b), (x, y, z) = self.lhs, self.first
        d = c[a] * c[b] - c[x] * c[y] * c[z]
        x, y, z = self.extra
        sums = np.cumsum(_mod(c[x] * c[y] * c[z], p))[self.ends]
        d[self.owners] -= np.diff(sums, prepend=0)
        return np.flatnonzero(_mod(d, p))

    def singular(self, c: np.ndarray, inverses: list) -> np.ndarray:
        """Positions, ascending, of the blocks that are not invertible mod p, given
        for each stack of square the inverses (or None) of its blocks."""
        square = [i for (at, _), invs in zip(self.square, inverses) for i, inv in zip(at, invs) if inv is None]
        bad = np.concatenate([self.nonsquare, self.single[c[self.single_slots] == 0], np.array(square, np.intp)])
        return np.sort(bad)

    def not_rigid(self, c: np.ndarray, p: int, inverses: list) -> list[int]:
        """The labels r whose (rb,r,rb,rb) block has no inverse with unit entry
        c[(r,rb,r,e,r,e)]: for a 1x1 block [x], c * x = 1 mod p; a larger
        block reads its inverse off inverses."""
        labels, unit, single = self.rigid_single
        bad = [*self.rigid_never.tolist(), *labels[c[unit] * c[single] % p != 1].tolist()]
        for r, stack, member, at, s in self.rigid_square:
            inv = inverses[stack][member]
            if inv is None or inv[at] == 0 or c[s] != inv[at]:
                bad.append(r)
        return sorted(bad)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for an int64 array x, as x - x // p * p: numpy divides by a scalar
    through a precomputed reciprocal, which is 2-3x faster than its %."""
    return x - x // p * p


def _slot_lookup(rule: FusionRule):
    """slots(x, y, z, u, r, v): the slot of each key given as index arrays,
    broadcast together, or the 0 slot where the key is inadmissible; a binary
    search in the sorted codes of the admissible sextuples."""
    adm = np.array(admissible_sextuples(rule), np.intp).reshape(-1, 6)
    shape, zero = (rule.n,) * 6, len(adm)
    codes = np.ravel_multi_index(adm.T, shape)
    order = np.argsort(codes)
    codes, order = np.append(codes[order], -1), np.append(order, zero)  # -1 matches no key

    def slots(*key):
        code = np.zeros(np.broadcast_shapes(*map(np.shape, key)), np.intp)
        for part in key:  # the code of ravel_multi_index, in place
            code *= rule.n
            code += part
        at = np.searchsorted(codes[:-1], code)
        return np.where(codes[at] == code, order[at], zero)

    return slots


def _expand(table: np.ndarray, cols, a, b):
    """The rows of the int16 label arrays cols, each repeated once per c in ab
    (table[a, b, c]), and c, ascending under each row."""
    i, c = np.nonzero(table[a, b])
    return [col[i] for col in cols], c.astype(np.short)


def _pentagon_walk(rule: FusionRule, slots) -> tuple:
    """(total, lhs, first, extra, owners, ends, witnesses) of the rule's
    _PentagonProgram.

    The loops of pentagon_instances over w, x, y, z, p, q, u and v are
    successive expansions of index arrays, and r and s are the nonzero
    positions, row by row, of boolean (tuples, n) tables, so instances and
    terms keep instance order.  A left side with r not in pq reads the 0 slot:
    its keys are inadmissible.
    """
    table, zero = rule.table > 0, len(admissible_sextuples(rule))
    w, x, y, z = np.indices((rule.n,) * 4, np.short).reshape(4, -1)
    (w, x, y, z), p = _expand(table, (w, x, y, z), w, x)
    (w, x, y, z, p), q = _expand(table, (w, x, y, z, p), y, z)
    (w, x, y, z, p, q), u = _expand(table, (w, x, y, z, p, q), p, y)
    (w, x, y, z, p, q, u), v = _expand(table, (w, x, y, z, p, q, u), x, q)
    uz, wv = table[u, z], table[w, v]
    total = int((uz | wv | table[p, q]).sum())
    i, r = np.nonzero(uz & wv)  # the live instances
    w, x, y, z, p, q, u, v = (col[i] for col in (w, x, y, z, p, q, u, v))
    lhs = np.stack([slots(w, x, q, p, r, v), slots(p, y, z, u, r, q)])
    witnesses = np.stack([w, x, y, z, p, u, r.astype(np.short), v, q], axis=1)
    first = np.full((3, len(r)), zero, np.intp)
    i, s = np.nonzero(table[x, y] & table[:, z, v].T & table[w, :, u])  # their live terms
    w, x, y, z, p, q, u, v, r = (col[i] for col in (w, x, y, z, p, q, u, v, r))
    terms = np.stack([slots(x, y, z, s, v, q), slots(w, s, z, u, r, v), slots(w, x, y, p, u, s)])
    head = np.diff(i, prepend=-1) != 0  # the first term of its instance
    first[:, i[head]] = terms[:, head]
    owned = i[~head]
    last = np.diff(owned, append=-1) != 0  # the last extra term of its instance
    extra = np.ascontiguousarray(terms[:, ~head])
    return total, lhs, first, extra, owned[last], np.flatnonzero(last), witnesses


def _pentagon_program(rule: FusionRule) -> _PentagonProgram:
    """The rule's _PentagonProgram: the pentagon walk, and the recoupling
    blocks as index arrays in the same way."""
    slots = _slot_lookup(rule)
    n, e = rule.n, rule.unit
    table = rule.table > 0
    total, lhs, first, extra, owners, ends, witnesses = _pentagon_walk(rule, slots)

    # the blocks (x,y,z,r): under each (x,y,z), each r in uz for a u in xy, in
    # first-seen order, that has a v in yz with r in xv
    x, y, z = np.indices((n,) * 3, np.short).reshape(3, -1)
    (x, y, z), u = _expand(table, (x, y, z), x, y)
    (x, y, z), r = _expand(table, (x, y, z), u, z)
    seen = np.sort(np.unique(np.ravel_multi_index((x, y, z, r), (n,) * 4), return_index=True)[1])
    x, y, z, r = x[seen], y[seen], z[seen], r[seen]
    us, vs = table[x, y] & table[:, z, r].T, table[y, z] & table[x, :, r]  # the columns u and rows v
    live = vs.any(axis=1)
    x, y, z, r, us, vs = (a[live] for a in (x, y, z, r, us, vs))
    blocks = np.stack([x, y, z, r], axis=1)
    k = us.sum(axis=1)
    square = k == vs.sum(axis=1)
    single = np.flatnonzero(square & (k == 1))
    single_slots = slots(*(a[single] for a in (x, y, z, us.argmax(axis=1), r, vs.argmax(axis=1))))
    stacks, position = [], {}  # position: (x,y,z,r) -> (stack, member) of each larger square block
    for size in sorted(set(k[square & (k > 1)].tolist())):
        i = np.flatnonzero(square & (k == size))
        cols = [a[i, None, None] for a in (x, y, z, r)]
        u, v = np.nonzero(us[i])[1].reshape(-1, 1, size), np.nonzero(vs[i])[1].reshape(-1, size, 1)
        position.update((key, (len(stacks), m)) for m, key in enumerate(map(tuple, blocks[i].tolist())))
        stacks.append((i, slots(*cols[:3], u, cols[3], v)))
    # with valid duals the (rb,r,rb,rb) block is compiled and holds the unit
    # entry (e,e): e is in rb r, and rb in e rb
    never, rigid_single, rigid_square = [], [], []
    for r in range(n):
        rb = int(rule.dual[r])
        cols = [u for u in rule.support(rb, r) if table[u, rb, rb]]
        rows = [v for v in rule.support(r, rb) if table[rb, v, rb]]
        s = int(slots(r, rb, r, e, r, e))
        unit = (cols.index(e), rows.index(e)) if e in cols and e in rows else None
        if unit is not None and len(cols) == len(rows) == 1:
            rigid_single.append((r, s, int(slots(rb, r, rb, e, rb, e))))
        elif unit is not None and (rb, r, rb, rb) in position:
            rigid_square.append((r, *position[(rb, r, rb, rb)], unit, s))
        else:
            never.append(r)
    x, y = np.indices((n, n), np.short).reshape(2, -1)
    (x, y), r = _expand(table, (x, y), x, y)  # the triples (x,y,r), r in xy, sorted
    return _PentagonProgram(
        total=total,
        lhs=lhs,
        first=first,
        extra=extra,
        owners=owners,
        ends=ends,
        witnesses=witnesses,
        blocks=blocks,
        nonsquare=np.flatnonzero(~square),
        single=single,
        single_slots=single_slots,
        square=tuple(stacks),
        rigid_never=np.array(never, np.intp),
        rigid_single=np.array(rigid_single, np.intp).reshape(-1, 3).T.copy(),
        rigid_square=tuple(rigid_square),
        triples=np.stack([x, y, r], axis=1),
        triangle=slots(x, e, y, x, r, y),
        one_top=np.stack([slots(e, x, y, x, r, r), slots(x, y, e, r, r, y)], axis=1),
    )


@dataclass
class SystemReport:
    invertibility_ok: bool
    non_invertible: list[tuple[int, int, int, int]]
    pentagon_ok: bool
    pentagon_failures: list
    pentagon_checked: int
    triangle_ok: bool
    triangle_failures: list
    rigidity_ok: bool
    rigidity_failures: list[int]
    one_top_ok: bool
    one_top_failures: list

    @property
    def passed(self) -> bool:
        return self.invertibility_ok and self.pentagon_ok and self.triangle_ok and self.rigidity_ok

    def summary(self) -> str:
        bits = [
            f"invertible={self.invertibility_ok}",
            f"pentagon={self.pentagon_ok} ({self.pentagon_checked} instances)",
            f"triangle={self.triangle_ok}",
            f"rigidity={self.rigidity_ok}",
            f"unit_matrices={self.one_top_ok}",
        ]
        if self.pentagon_failures:
            bits.append(f"pentagon_fail_at={self.pentagon_failures[:2]}")
        return ", ".join(bits)


def verify_fusion_system(f: FusionSystem, witness_cap: int = 16) -> SystemReport:
    cap = integers(witness_cap, "witness_cap", DomainError)
    if cap.shape or cap < 0:
        raise DomainError(f"witness_cap must be a nonnegative integer, got {witness_cap!r}")
    witness_cap = int(cap)
    prog = compiled(f.rule, _pentagon_program)
    p = f.field.p
    c = np.append(f.vec, 0)
    witnesses = lambda arr, bad: [tuple(w) for w in arr[bad][:witness_cap].tolist()]

    inverses = [matrix_inverse_modp(c[slots], f.field) for _, slots in prog.square]
    non_inv = prog.singular(c, inverses)
    # the cap keeps at least one witness, so pentagon_ok reads off the list
    bad = prog.failures(c, p)[: max(witness_cap, 1)]
    pent_fail = [tuple(w) for w in prog.witnesses[bad].tolist()]
    tri_fail = np.flatnonzero(c[prog.triangle] != 1)
    rig_fail = prog.not_rigid(c, p, inverses)
    ot_fail = np.flatnonzero((c[prog.one_top] != 1).any(axis=1))

    return SystemReport(
        invertibility_ok=not non_inv.size,
        non_invertible=witnesses(prog.blocks, non_inv),
        pentagon_ok=not pent_fail,
        pentagon_failures=pent_fail,
        pentagon_checked=prog.total,
        triangle_ok=not tri_fail.size,
        triangle_failures=witnesses(prog.triples, tri_fail),
        rigidity_ok=not rig_fail,
        rigidity_failures=rig_fail[:witness_cap],
        one_top_ok=not ot_fail.size,
        one_top_failures=witnesses(prog.triples, ot_fail),
    )


# ---- gauge transformations ----------------------------------------------------


class GaugeXi(_OnVec):
    """Invertible rescaling xi with support {(x,y,r) : r in xy}, normalized at
    the unit: its vector vec, a read-only int64 array with one residue mod p
    per support triple in sorted order.  values is a read-only view of it
    keyed by triple, built on first read."""

    def __init__(self, rule: FusionRule, field: Field, values: dict):
        index = compiled(rule, _support_index)
        outside, zero = "gauge value at unsupported triple {}", "gauge value must be invertible at {}"
        v = _residues(index, values, field.p, "gauge value", outside, zero)
        if (v < 0).any():
            raise ValidationError("gauge must be total on the support")
        self._set(rule, field, v)

    def _set(self, rule: FusionRule, field: Field, vec) -> None:
        index = compiled(rule, _support_index)
        vec = _frozen_residues(vec, field.p, index, "gauge values", "gauge value must be invertible at {}")
        e = rule.unit
        units = [k for r in range(rule.n) for k in ((e, r, r), (r, e, r))]
        at = np.fromiter(map(index.get, units, repeat(-1)), np.intp, len(units))
        bad = np.flatnonzero((at < 0) | (vec[at] != 1))
        if bad.size and at[bad[0]] < 0:
            raise KeyError(units[bad[0]])
        if bad.size:
            raise ValidationError("gauge must be normalized at the unit")
        self.__dict__.update(rule=rule, field=field, vec=vec)

    @cached_property
    def values(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(compiled(self.rule, _support_index), self.vec.tolist())))

    def __getitem__(self, key):
        return self.values[tuple(integers(key, "key").tolist())]

    def inverse(self) -> "GaugeXi":
        return GaugeXi.from_vec(self.rule, self.field, [self.field.inv(v) for v in self.vec.tolist()])


def identity_gauge(rule: FusionRule, field: Field) -> GaugeXi:
    return GaugeXi.from_vec(rule, field, np.ones(len(compiled(rule, _support_index)), np.int64))


def random_gauge(rule: FusionRule, field: Field, rng) -> GaugeXi:
    e = rule.unit
    vals = [1 if e in (x, y) else rng.randrange(1, field.p) for x, y, _ in compiled(rule, _support_index)]
    return GaugeXi.from_vec(rule, field, vals)


def _gauge_positions(rule: FusionRule) -> np.ndarray:
    """(4, K): for each admissible sextuple (x,y,z,u,r,v), the support
    positions of (y,z,v), (x,v,r), (x,y,u) and (u,z,r)."""
    n, support = rule.n, compiled(rule, _support_index)
    at = np.full((n, n, n), -1, np.intp)
    at[tuple(np.array(list(support), np.intp).reshape(-1, 3).T)] = np.arange(len(support))
    x, y, z, u, r, v = np.array(admissible_sextuples(rule), np.intp).reshape(-1, 6).T
    out = np.stack([at[y, z, v], at[x, v, r], at[x, y, u], at[u, z, r]])
    out.flags.writeable = False
    return out


def apply_gauge(f: FusionSystem, xi: GaugeXi) -> FusionSystem:
    """The system related to f by xi through the rectangle axiom:
    c(x,y,z,u,r,v) xi(y,z,v) xi(x,v,r) / (xi(x,y,u) xi(u,z,r)), one gather of
    the gauge's logs through its four support positions."""
    if xi.rule != f.rule or xi.field.p != f.field.p:
        raise DomainError("gauge and system live on different data")
    F = f.field
    yzv, xvr, xyu, uzr = F._log_table[xi.vec][compiled(f.rule, _gauge_positions)]
    return FusionSystem.from_vec(f.rule, F, f.vec * F._exp_table[(yzv + xvr - xyu - uzr) % (F.p - 1)])


# ---- brute-force enumeration ----------------------------------------------------

DEFAULT_BUDGET_BITS = 160


def enumerate_fusion_systems_bruteforce(
    rule: FusionRule,
    field: Field,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> list[FusionSystem]:
    """All fusion systems on a tiny rule, by backtracking with pentagon propagation.

    The search holds one value per coefficient slot and propagates over the
    live instances of the compiled pentagon program: an instance with one
    unknown occurrence is linear in it and fixes its value.  It branches
    first on the slots that the most live instances read (fail first); the
    results are sorted, so the order does not show.  On feudal rules
    the search is restricted to the normal gauge slice (the beta1(a, 1) and
    beta2(a, 1) slots pinned to 1), which is what makes the search finite in
    practice; every gauge class contains such a point.
    """
    adm = admissible_sextuples(rule)
    bits = len(adm) * ((field.p - 1).bit_length() - 1)
    if bits > budget_bits:
        raise ResourceError(f"search space of {bits} bits exceeds budget {budget_bits}")

    from .feudal import detect_feudal
    from .uber import _shape_slots

    p, e = field.p, rule.unit
    pinned = {i for i, k in enumerate(adm) if e in k[:3]}
    fr = detect_feudal(rule)
    if fr is not None:
        shapes, at = compiled(fr, _shape_slots), fr.serf_ids.index(e)
        s = len(fr.serf_ids)
        for name in ("beta1", "beta2"):
            pinned.update(shapes[name][at::s].ravel().tolist())
    val: list = [None] * len(adm) + [0]  # the value at each slot, None while unknown
    for i in pinned:
        val[i] = 1
    variables = [i for i in range(len(adm)) if i not in pinned]

    # the live instances: their lhs pair, their term triples and every slot they read
    prog = compiled(rule, _pentagon_program)
    lhs, terms = prog.lhs.T.tolist(), [[t] for t in prog.first.T.tolist()]
    for i, t in zip(np.repeat(prog.owners, np.diff(prog.ends, prepend=-1)).tolist(), prog.extra.T.tolist()):
        terms[i].append(t)
    reads = [pair + [k for t in ts for k in t] for pair, ts in zip(lhs, terms)]
    incidence: list[list[int]] = [[] for _ in val]
    for i, slots in enumerate(reads):
        for k in dict.fromkeys(slots):
            incidence[k].append(i)
    variables.sort(key=lambda i: -len(incidence[i]))  # fail first: the slots most instances read

    def residual(i):
        (a, b), ts = lhs[i], terms[i]
        return (val[a] * val[b] - sum(val[x] * val[y] * val[z] for x, y, z in ts)) % p

    def propagate(pending, trail) -> bool:
        """Set every value an instance with one unknown occurrence forces, and
        onward; False if an instance fails or forces a 0."""
        queued = set(pending)
        while pending:
            i = pending.pop()
            queued.discard(i)
            unknown = [k for k in reads[i] if val[k] is None]
            if not unknown:
                if residual(i):
                    return False
                continue
            if len(unknown) > 1:
                continue
            # linear in its one unknown occurrence: r0 + (r1 - r0) x = 0, where
            # r1 - r0 is a product of nonzero values
            k = unknown[0]
            val[k] = 0
            r0 = residual(i)
            val[k] = 1
            val[k] = -r0 * pow(residual(i) - r0, -1, p) % p
            trail.append(k)
            if not val[k]:
                return False
            pending.extend(j for j in incidence[k] if j not in queued)
            queued.update(incidence[k])
        return True

    results: list[FusionSystem] = []

    def dfs(pending):
        trail: list[int] = []
        if propagate(pending, trail):
            free = next((i for i in variables if val[i] is None), None)
            if free is None:
                cand = FusionSystem.from_vec(rule, field, val[:-1])
                if verify_fusion_system(cand).passed:
                    results.append(cand)
            else:
                for x in range(1, p):
                    val[free] = x
                    dfs(list(incidence[free]))
                val[free] = None
        for k in trail:
            val[k] = None

    dfs(list(range(len(lhs))))
    results.sort(key=lambda f: tuple(sorted(f.coeffs.items())))
    return results
