"""The dictionary between feudal rules and group homomorphism data.

A feudal rule splits into serfs (a group) and lords (the other half of a Z2
grading).  phi() builds the rule out of a homomorphism u: S -> G whose image
has index 2; gamma() reads the homomorphism back off the universal grading,
whose group is G itself for a rule phi built (gamma reads it off the kept
datum) and is derived and checked for any other rule.  The two are
mutually inverse up to relabeling, and sweeping homomorphisms with
nontrivial kernel enumerates every properly feudal rule.

Run:  python demos/02_feudal_dictionary.py
"""

import numpy as np

from fusionkit import (
    cyclic,
    detect_feudal,
    gamma,
    graded_isomorphic,
    hom_datum_isomorphic,
    moore_read,
    phi,
    round_trip_check,
)
from fusionkit.feudal import HomDatum, enumerate_feudal

# the doubling endomorphism of the cyclic group of order four
z4 = cyclic(4)
doubling = HomDatum(z4, z4, np.array([0, 2, 0, 2]))
print("datum:", doubling)
print("kernel:", [z4.labels[k] for k in doubling.kernel_ids])
print("lords:", [z4.labels[m] for m in doubling.lord_ids])

L = phi(doubling)
print("\nphi gives a", L, "on labels", L.rule.labels)
print("isomorphic to the bundled six-element rule:", graded_isomorphic(L, moore_read()) is not None)

back = gamma(L)
print("gamma recovers the datum up to isomorphism:", hom_datum_isomorphic(back, doubling) is not None)
print("round trip checks:", round_trip_check(doubling), round_trip_check(L))

# detection: the feudal split of a properly feudal rule is forced
det = detect_feudal(moore_read().rule)
print("\ndetected serfs:", sorted(moore_read().rule.labels[i] for i in det.serfs))

# every properly feudal rule with at most six elements
res = enumerate_feudal(6)
print(f"\nproperly feudal rules with <= 6 elements: {len(res.rules)}")
for fr, h in zip(res.rules, res.hom_data):
    print(
        f"  |L| = {fr.rule.n}: serfs {h.source.name}, grading target {h.target.name}, "
        f"kernel of size {len(h.kernel_ids)}"
    )
