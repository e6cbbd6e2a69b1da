import itertools
import random

import numpy as np
import pytest

from fusionkit.errors import ResourceError, ValidationError
from fusionkit.zmodlin import (
    factor_mod,
    nullspace_mod,
    quotient_structure,
    smith_mod,
    solve_mod,
    xgcd,
)


def brute_kernel(A, n):
    k = A.shape[1]
    return {
        x
        for x in itertools.product(range(n), repeat=k)
        if not ((A @ np.array(x)) % n).any()
    }


def span_of(gens, k, n):
    s = {tuple([0] * k)}
    for g in gens:
        s = {tuple((np.array(b) + c * np.array(g)) % n) for b in s for c in range(n)}
    return s


def test_xgcd():
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g >= 0


def test_smith_diag_divides_modulus_and_chains():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice([4, 6, 12, 16])
        m, k = rng.randrange(1, 5), rng.randrange(1, 5)
        A = np.array([[rng.randrange(-3, 9) for _ in range(k)] for _ in range(m)])
        sm = smith_mod(A, n)
        for d in sm.diag:
            assert d != 0 and n % d == 0
        for d1, d2 in zip(sm.diag, sm.diag[1:]):
            assert d2 % d1 == 0
        k = sm.cols
        assert not ((sm.V @ sm.Vinv - np.eye(k, dtype=np.int64)) % n).any()


def test_nullspace_against_brute_force():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.choice([2, 4, 6, 12, 16])
        m, k = rng.randrange(1, 4), rng.randrange(1, 4)
        A = np.array([[rng.randrange(-3, 8) for _ in range(k)] for _ in range(m)])
        gens = nullspace_mod(A, n)
        assert span_of(gens, k, n) == brute_kernel(A, n)


def test_solve_finds_and_refuses():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([4, 6, 12, 16])
        m, k = rng.randrange(1, 4), rng.randrange(1, 4)
        A = np.array([[rng.randrange(-3, 8) for _ in range(k)] for _ in range(m)])
        xs = np.array([rng.randrange(n) for _ in range(k)])
        b = A @ xs % n
        x0 = solve_mod(A, b, n)
        assert x0 is not None and not ((A @ x0 - b) % n).any()
        b2 = np.array([rng.randrange(n) for _ in range(m)])
        x1 = solve_mod(A, b2, n)
        if x1 is None:
            assert not any(
                not ((A @ np.array(x) - b2) % n).any()
                for x in itertools.product(range(n), repeat=k)
            )
        else:
            assert not ((A @ x1 - b2) % n).any()
        # factor once, then solve each vector against the stored row transform
        sm = factor_mod(A, n)
        for rhs, x in ((b, x0), (b2, x1)):
            y = sm.solve(rhs, n)
            assert (y is None) == (x is None)
            if y is not None:
                assert not ((A @ y - rhs) % n).any()
                assert (y == x).all()
        # both right-hand sides as the columns of one matrix
        X = solve_mod(A, np.stack([b, b2], axis=1), n)
        assert (X is None) == (x1 is None)
        if X is not None:
            assert (X[:, 0] == x0).all() and (X[:, 1] == x1).all()


def test_in_span():
    n = 12
    gens = [np.array([2, 0, 4]), np.array([0, 3, 3])]
    v = (5 * gens[0] + 7 * gens[1]) % n
    sm = factor_mod(np.vstack(gens).T, n)
    c = sm.solve(v, n)
    assert c is not None and not ((c @ np.vstack(gens) - v) % n).any()
    assert sm.solve(np.array([1, 0, 0]), n) is None


def test_quotient_structure_brute():
    rng = random.Random(4)
    probe = random.Random(5)  # outside vectors, drawn apart so the cases stay the same
    for _ in range(150):
        n = rng.choice([4, 6, 12, 16])
        k = rng.randrange(1, 4)
        H = [np.array([rng.randrange(n) for _ in range(k)]) for _ in range(rng.randrange(0, 3))]
        T = []
        for _ in range(rng.randrange(0, 3)):
            if H:
                T.append(sum(rng.randrange(n) * h for h in H) % n)
        SH, ST = span_of(H, k, n), span_of(T, k, n)
        q = quotient_structure(H, T, k, n)
        assert q.order == len(SH) // len(ST)
        seen = set()
        for i, r in enumerate(q.representatives()):
            assert tuple(r) in SH
            coset = frozenset(tuple((r + np.array(t)) % n) for t in ST)
            assert coset not in seen
            seen.add(coset)
            # index is the inverse of representatives, constant on each coset
            assert q.index(r) == i
            assert all(q.index((r + np.array(t)) % n) == i for t in ST)
        assert len(seen) == q.order
        v = np.array([probe.randrange(n) for _ in range(k)])
        if tuple(v) not in SH:
            with pytest.raises(ValidationError):
                q.index(v)


def test_quotient_representative_limit():
    q = quotient_structure([np.array([1, 0]), np.array([0, 1])], [], 2, 16)
    assert q.order == 256
    with pytest.raises(ResourceError):
        list(q.representatives(limit=10))


def test_invariant_factors_of_known_quotient():
    # Z16^2 / <(2,0)> has factors [2, 16]
    q = quotient_structure(
        [np.array([1, 0]), np.array([0, 1])], [np.array([2, 0])], 2, 16
    )
    assert sorted(q.invariant_factors) == [2, 16]
