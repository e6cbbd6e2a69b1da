"""The pointwise algebra B = F^M on the lord set, with two-sided serf actions.

Elements are integer vectors indexed by lord position; (a mu b)(m) reads mu at
abar * m * bbar, and the involution reads at the dual lord.  Both are gathers
through the FeudalRule's act_table and bar_perm, which read nothing of the
field: an Ambi holds its FeudalRule's tables and adds only the field.  Serfs
and lords keep their carrier ids from the underlying rule so there is a
single index space throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .fields import Field
from .feudal import FeudalRule


class Ambi:
    def __init__(self, feudal: FeudalRule, field: Field):
        self.feudal = feudal
        self.field = field
        self.serf_ids = feudal.serf_ids
        self.lord_ids = feudal.lord_ids
        self.npoints = len(self.lord_ids)
        self._serf_at = {a: i for i, a in enumerate(self.serf_ids)}
        self.act_table, self.bar_perm = feudal.act_table, feudal.bar_perm

    @property
    def unit_serf(self) -> int:
        return self.feudal.rule.unit

    @property
    def key(self) -> tuple:
        """The content key: rule, serf set, p and primitive root.  Plain numbers,
        so the compiled store keeps no Field's log and exp tables alive."""
        return self.feudal.key, self.field.p, self.field.generator

    # ---- elements ---------------------------------------------------------

    def one(self) -> np.ndarray:
        return np.ones(self.npoints, dtype=np.int64)

    def const(self, c: int) -> np.ndarray:
        return np.full(self.npoints, c % self.field.p, dtype=np.int64)

    def zero(self) -> np.ndarray:
        return np.zeros(self.npoints, dtype=np.int64)

    def mul(self, *els) -> np.ndarray:
        out = self.one()
        for e in els:
            out = out * np.asarray(e) % self.field.p
        return out

    def inv(self, e) -> np.ndarray:
        e = np.asarray(e) % self.field.p
        if (e == 0).any():
            raise DomainError("element is not invertible")
        return self.field._exp_table[-self.field._log_table[e] % (self.field.p - 1)]

    def div(self, a, b) -> np.ndarray:
        return self.mul(a, self.inv(b))

    def is_invertible(self, e) -> bool:
        return bool((np.asarray(e) % self.field.p != 0).all())

    def act(self, a: int, mu, b: int | None = None) -> np.ndarray:
        """(a mu b)(m) = mu(abar m bbar); omit b for a left action alone."""
        if b is None:
            b = self.unit_serf
        return np.asarray(mu)[self.act_table[self._serf_at[a], self._serf_at[b]]]

    def ract(self, mu, b: int) -> np.ndarray:
        return self.act(self.unit_serf, mu, b)

    def bar(self, mu) -> np.ndarray:
        return np.asarray(mu)[self.bar_perm]

    def eq(self, a, b) -> bool:
        return bool(((np.asarray(a) - np.asarray(b)) % self.field.p == 0).all())

    # ---- structure ---------------------------------------------------------

    @property
    def trivial_actors(self) -> tuple[int, ...]:
        """Serfs acting trivially on both sides: the adjoint subrule."""
        return self.feudal.adjoint_ids

    @property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of lord positions under the two-sided action: a single
        orbit, since FeudalRule requires the serfs to act transitively."""
        return (tuple(range(self.npoints)),)

    def in_fix(self, mu) -> bool:
        mu = (np.asarray(mu) % self.field.p).tolist()
        return mu.count(mu[0]) == len(mu)  # constant on the one lord orbit
