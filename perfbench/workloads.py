"""The benchmark's workloads: seeded inputs, timed program calls, exactness checks.

``build`` does a workload's set-up (input generation) and returns its jobs.
A job's ``run`` holds the timed program calls; its ``check`` is untimed and
returns ``(digest, error)``: a digest of the outputs, so a traced and an
untraced run can be compared, and an error message or None.  Checks call no
traced fusionkit layer.  Jobs call fusionkit through module attributes, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import fusionkit as fk
from fusionkit import cli, feudal, systems, uber

# Exact values that do not depend on the recorded report digests.
CLASSIFY_PINS = {"ty_z2": (2, 2), "ty_z2xz2": (8, 4), "moore_read": (4, None)}
# |H^3(G, GF(p)^x)| by universal coefficients: Hom(H_3 G, Z/(p-1)) x Ext(H_2 G, Z/(p-1)).
# Groups of order 6 and more are left out: one such job takes 4 to 90 s, too long
# to time several times in a run.  Z2xZ2 at p=13 has n = 12, not a prime power.
H3_ORDERS = {
    ("Z2", 17): 2, ("Z3", 17): 1, ("Z4", 17): 4, ("Z2xZ2", 17): 16, ("Z5", 17): 1, ("Z2xZ2", 13): 16,
}
FEUDAL_DATA = 834  # hom data over standard_catalog(8) with an order-2 cokernel
FEUDAL_RULES_11 = 41  # properly feudal rules with at most 11 elements
VERIFY_CLASSES = {"ty_z2x3": 56, "moore_read": 4}
PENTAGON_INSTANCES = {"ty_z2x3": 58368, "moore_read": 3072}

# Sampled TY(Z2^3) classes: each verify job takes about 0.4 s at the seed commit.
VERIFY_TY_JOBS = 12


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str | None]]
    cold: bool = False  # empty fusionkit's module caches before each run, as a new CLI process has them


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_job(name, argv, goldens, extra_check=None) -> Job:
    """A job that runs one CLI command in-process and checks its JSON report."""
    out = f"{name}.out.json"

    def run():
        return cli.main(["--out", out, *argv])

    def check(code):
        if code != 0:
            return "", f"exit code {code}"
        data = Path(out).read_bytes()
        digest = _sha(data)
        if goldens is not None and goldens.get(name) != digest:
            return digest, "report differs from the golden digest"
        return digest, extra_check(json.loads(data)) if extra_check else None

    return Job(name, run, check, cold=True)


# ---- classify -------------------------------------------------------------------


def _classify(rng, smoke, goldens):
    rules = [(f"feudal_{i:02d}", fr, 17) for i, fr in enumerate(fk.enumerate_feudal(8).rules)]
    rules += [
        ("ty_z3", fk.tambara_yamagami(fk.cyclic(3)), 13),
        ("ty_z5", fk.tambara_yamagami(fk.cyclic(5)), 41),
    ]
    refs = {
        "ty_z2": fk.tambara_yamagami(fk.cyclic(2)),
        "ty_z2xz2": fk.tambara_yamagami(fk.klein_four()),
        "moore_read": fk.moore_read(),
    }
    known = {}  # reference name -> job name
    for ref_name, ref in refs.items():
        hits = [name for name, fr, _ in rules if fk.graded_isomorphic(fr, ref) is not None]
        if len(hits) != 1:
            raise RuntimeError(f"{ref_name} is not exactly one of the enumerated feudal rules: {hits}")
        known[ref_name] = hits[0]
    pins = {job: CLASSIFY_PINS[ref_name] for ref_name, job in known.items()}
    if smoke:
        rules = [r for r in rules if r[0] == known["ty_z2"]]

    jobs = []
    for name, fr, p in rules:
        Path(f"{name}.json").write_text(fk.jsonio.dumps(fk.jsonio.rule_to_dict(fr.rule)))

        def counts(doc, want=pins.get(name)):
            if want is None:
                return None
            got = (doc["gauge_classes"], doc["equivalence_classes"])
            if got[0] != want[0] or (want[1] is not None and got[1] != want[1]):
                return f"gauge/equivalence classes {got}, expected {want}"
            return None

        argv = ["uber", "classify", "--rule", f"{name}.json", "--p", str(p)]
        jobs.append(_cli_job(name, argv, goldens, counts))
    rng.shuffle(jobs)
    return jobs


# ---- h3 -------------------------------------------------------------------------


def _h3(rng, smoke, goldens):
    jobs = []
    for (group, p), order in H3_ORDERS.items():
        if smoke and group != "Z4":
            continue
        via = len(fk.named_group(group)) % 2 == 0

        def expected(doc, order=order, via=via):
            if doc["order"] != order:
                return f"|H^3| = {doc['order']}, expected {order}"
            if via and not (doc["via_uber"]["agree"] is True and doc["via_uber"]["uber_classes"] == order):
                return f"via-uber cross-check failed: {doc['via_uber']}"
            return None

        argv = ["cohom", "h3", "--group", group, "--p", str(p)] + (["--via-uber", "auto"] if via else [])
        jobs.append(_cli_job(f"h3_{group}_p{p}", argv, goldens, expected))
    rng.shuffle(jobs)
    return jobs


# ---- verify ---------------------------------------------------------------------


def _instance_order(w):
    """Sort key of a pentagon witness (w,x,y,z,p,u,r,v,q) in instance order.

    pentagon_instances walks w, x, y, z, then p, q, u, v, r, each support in
    ascending order, so this tuple increases along the instance list.
    """
    w_, x, y, z, p, u, r, v, q = w
    return (w_, x, y, z, p, q, u, v, r)


def _verify_job(name, fr, ambi, rep, xi, pick, factor, instances) -> Job:
    field = ambi.field

    def run():
        f = systems.apply_gauge(uber.reconstruct(rep), xi)
        accepted = systems.verify_fusion_system(f)
        witness = uber.gauge_equivalent_uber(uber.psi(f, fr, ambi), rep)
        keys = [k for k, c in f.coeffs.items() if c != 1]
        coeffs = dict(f.coeffs)
        key = keys[pick % len(keys)]
        coeffs[key] = coeffs[key] * factor % field.p
        bad = systems.FusionSystem(f.rule, field, coeffs)
        return accepted, witness, bad, systems.verify_fusion_system(bad)

    def check(out):
        accepted, witness, bad, rejected = out
        fails = rejected.pentagon_failures
        digest = _sha(repr((accepted.summary(), rejected.summary(), fails)).encode())
        if not accepted.passed or accepted.pentagon_checked != instances:
            return digest, f"gauged system rejected: {accepted.summary()}"
        if witness is None:
            return digest, "no gauge witness back to the class representative"
        if rejected.pentagon_ok or not 1 <= len(fails) <= 16:
            return digest, f"corrupted system passed the pentagon check: {rejected.summary()}"
        keys = [_instance_order(w) for w in fails]
        if keys != sorted(set(keys)):
            return digest, "pentagon witnesses are not in instance order"
        for w in fails:
            inst = (*w, bad.rule.support(w[1], w[2]))
            lhs, rhs = systems.pentagon_instance_value(bad, inst)
            if lhs == rhs:
                return digest, f"pentagon witness {w} holds"
        return digest, None

    return Job(name, run, check)


def _verify(rng, smoke, goldens):
    field = fk.Field(17)
    rules = {"moore_read": fk.moore_read()}
    if not smoke:
        rules["ty_z2x3"] = fk.tambara_yamagami(fk.direct_product(fk.cyclic(2), fk.klein_four()))
    classes = {}
    for rule_name, fr in rules.items():
        ambi = fk.Ambi(fr, field)
        reps = fk.enumerate_uber(ambi, with_orbits=False).class_reps
        if len(reps) != VERIFY_CLASSES[rule_name]:
            raise RuntimeError(f"{rule_name}: {len(reps)} gauge classes, expected {VERIFY_CLASSES[rule_name]}")
        classes[rule_name] = (fr, ambi, reps)
    # (rule name, class index)
    if smoke:
        picks = [("moore_read", rng.randrange(4))]
    else:
        picks = [("moore_read", i) for i in range(4)]
        picks += [("ty_z2x3", i) for i in rng.sample(range(VERIFY_CLASSES["ty_z2x3"]), VERIFY_TY_JOBS)]
    jobs = []
    for rule_name, i in picks:
        fr, ambi, reps = classes[rule_name]
        xi = fk.random_gauge(fr.rule, field, rng)
        pick, factor = rng.randrange(1 << 30), rng.randrange(2, field.p)
        name = f"{rule_name}_{i:02d}"
        jobs.append(_verify_job(name, fr, ambi, reps[i], xi, pick, factor, PENTAGON_INSTANCES[rule_name]))
    rng.shuffle(jobs)
    return jobs


# ---- feudal ---------------------------------------------------------------------


def _feudal_job(name, h) -> Job:
    source, target, mapping = h.source, h.target, h.mapping

    def run():
        # A fresh datum each time, so no run finds the cached properties of another.
        h = feudal.HomDatum(source, target, mapping)
        rule = feudal.phi(h)
        back = feudal.gamma(rule)
        return feudal.hom_datum_isomorphic(back, h), feudal.graded_isomorphic(feudal.phi(back), rule)

    def check(out):
        if out[0] is None:
            return "miss", "gamma(phi(h)) is not isomorphic to h"
        if out[1] is None:
            return "miss", "phi(gamma(L)) is not graded-isomorphic to L"
        return "hit", None

    return Job(name, run, check)


def _feudal(rng, smoke, goldens):
    catalog = fk.standard_catalog(8)
    data = [
        fk.HomDatum(s, g, u)
        for s in catalog
        for g in catalog
        if len(g) % 2 == 0
        for u in fk.homomorphisms(s, g)
        if 2 * len(set(u.tolist())) == len(g)
    ]
    if len(data) != FEUDAL_DATA:
        raise RuntimeError(f"{len(data)} hom data, expected {FEUDAL_DATA}")
    picked = rng.sample(range(len(data)), 5 if smoke else len(data))
    jobs = [_feudal_job(f"datum_{i:03d}", data[i]) for i in picked]
    if smoke:
        return jobs

    def count(doc):
        return None if doc["count"] == FEUDAL_RULES_11 else f"{doc['count']} rules, expected {FEUDAL_RULES_11}"

    enum = _cli_job("feudal_enumerate_11", ["feudal", "enumerate", "--max-order", "11"], goldens, count)
    jobs.insert(rng.randrange(len(jobs) + 1), enum)
    return jobs


SETUP = {"classify": _classify, "h3": _h3, "verify": _verify, "feudal": _feudal}


def build(workload: str, seed: int, smoke: bool, goldens: dict | None) -> list[Job]:
    """Set up a workload in the current directory and return its jobs in run order.

    The same seed gives the same inputs and order.  ``goldens`` maps a CLI
    job's name to the sha256 of its report; None skips that comparison.
    """
    rng = random.Random(f"{workload}:{seed}")
    return SETUP[workload](rng, smoke, goldens)
