"""The pointwise algebra B = F^M on the lord set, with two-sided serf actions.

Elements are integer vectors indexed by lord position; (a mu b)(m) reads mu at
abar * m * bbar, and the involution reads at the dual lord.  Serfs and lords
keep their carrier ids from the underlying rule so there is a single index
space throughout.
"""

from __future__ import annotations

from functools import cached_property

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
        self._pos = {m: i for i, m in enumerate(self.lord_ids)}
        rule = feudal.rule
        self.bar_perm = np.array([self._pos[int(rule.dual[m])] for m in self.lord_ids])
        # act_perm[(a, b)][i] = position of abar * m_i * bbar
        self._act = {}
        for a in self.serf_ids:
            ab = feudal.serf_inv(a)
            for b in self.serf_ids:
                bb = feudal.serf_inv(b)
                perm = np.array(
                    [self._pos[feudal.act_right(feudal.act_left(ab, m), bb)] for m in self.lord_ids]
                )
                self._act[(a, b)] = perm

    @property
    def unit_serf(self) -> int:
        return self.feudal.rule.unit

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
        return np.array([pow(int(v), -1, self.field.p) for v in e], dtype=np.int64)

    def div(self, a, b) -> np.ndarray:
        return self.mul(a, self.inv(b))

    def is_invertible(self, e) -> bool:
        return bool((np.asarray(e) % self.field.p != 0).all())

    def act(self, a: int, mu, b: int | None = None) -> np.ndarray:
        """(a mu b)(m) = mu(abar m bbar); omit b for a left action alone."""
        if b is None:
            b = self.unit_serf
        return np.asarray(mu)[self._act[(a, b)]]

    def ract(self, mu, b: int) -> np.ndarray:
        return self.act(self.unit_serf, mu, b)

    def bar(self, mu) -> np.ndarray:
        return np.asarray(mu)[self.bar_perm]

    def eq(self, a, b) -> bool:
        return bool(((np.asarray(a) - np.asarray(b)) % self.field.p == 0).all())

    # ---- structure ---------------------------------------------------------

    @cached_property
    def trivial_actors(self) -> tuple[int, ...]:
        """Serfs acting trivially on both sides (the adjoint subrule, by the
        stabilizer description)."""
        out = []
        idp = np.arange(self.npoints)
        for a in self.serf_ids:
            if (self._act[(a, self.unit_serf)] == idp).all() and (
                self._act[(self.unit_serf, a)] == idp
            ).all():
                out.append(a)
        return tuple(out)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of lord positions under the two-sided action."""
        seen, orbits = set(), []
        for i in range(self.npoints):
            if i in seen:
                continue
            orb = {i}
            frontier = [i]
            while frontier:
                j = frontier.pop()
                for perm in self._act.values():
                    k = int(perm[j])
                    if k not in orb:
                        orb.add(k)
                        frontier.append(k)
            seen |= orb
            orbits.append(tuple(sorted(orb)))
        return tuple(orbits)

    def in_fix(self, mu) -> bool:
        mu = np.asarray(mu) % self.field.p
        return all(len({int(mu[i]) for i in orb}) == 1 for orb in self.orbits)

    def axiom_violations(self, samples: int = 40, seed: int = 0) -> list[str]:
        """Spot-check the involutory ambidextrous axioms on random data."""
        import random

        rng = random.Random(seed)
        p = self.field.p
        bad = []
        serfs = self.serf_ids
        for _ in range(samples):
            a, b, c, d = (rng.choice(serfs) for _ in range(4))
            mu = np.array([rng.randrange(p) for _ in range(self.npoints)])
            nu = np.array([rng.randrange(p) for _ in range(self.npoints)])
            f = self.feudal
            if not self.eq(self.act(a, self.act(b, mu, c), d), self.act(f.serf_mul(a, b), mu, f.serf_mul(c, d))):
                bad.append(f"composition fails at ({a},{b},{c},{d})")
            if not self.eq(self.bar(self.bar(mu)), mu):
                bad.append("involution is not order two")
            if not self.eq(self.bar(self.mul(mu, nu)), self.mul(self.bar(mu), self.bar(nu))):
                bad.append("involution is not a ring map on the commutative B")
            if not self.eq(
                self.bar(self.act(a, mu, b)),
                self.act(f.serf_inv(b), self.bar(mu), f.serf_inv(a)),
            ):
                bad.append(f"compatibility fails at ({a},{b})")
            if not self.eq(self.act(a, self.mul(mu, nu), b), self.mul(self.act(a, mu, b), self.act(a, nu, b))):
                bad.append(f"action is not a ring map at ({a},{b})")
        return bad
