#!/usr/bin/env python3
"""Derivation of the comparability gadget S by complete enumeration.

The gadget is an 11-element lattice over {o, i, a_p, b_p, a_q, b_q, c,
d, e, f, g} whose congruence behaviour is pinned by this battery, the
one ``load_templates`` runs on the shipped gadget
(``construction.gadget_battery``):

  B1  [d, e] and [b_p, g] are prime intervals;
  B2  con(d, e) = con(a_p, b_p), and that congruence also collapses (f, g);
  B3  con(a_p, b_p) < con(a_q, b_q), both {o,i}-isolating, and these are
      the only isolating congruences;
  B4  collapsing (b_p, g) also collapses (o, c);
  B5  S / con(a_q, b_q) is the 2x3 grid, with singleton bound blocks;
  B6  all blocks of both isolating congruences are chains of size <= 3,
      checked on the block sizes of con(a_q, b_q) alone: con(a_p, b_p)
      refines it, and a congruence block of at most 3 elements is a chain;
  B7  no interior element lies between the pair {a_p,b_p} and the pair
      {a_q,b_q} (otherwise overlapping-gadget unions stop being
      transitively closed and disjoint gadgets stop being complementary).

The battery pins nothing of the shape: length and the number of cover
edges are derived.  B3, B5 and B6 make every lattice passing it one of
the lattices that tests/gadget_space.py enumerates, with no bound on
cover edges, and proves complete; ``gadget_space.battery_gadgets`` tries
every role assignment on them against the battery.  Exactly 4 labelled
gadgets pass, all on one lattice with 15 cover edges and length 5: the
shipped S, and S with one or both anchor pairs flipped.  Only S has both
anchor pairs lower element first.  No 12-edge gadget exists: over the
2x3 grid quotient an 11-element lattice with 12 cover edges has 31
isolating congruences, not the two of B3 (the docstring of
tests/gadget_space.py and test_criterion_3_prime_interval_count).

This script checks the shipped template against the battery, builds the
double-gadget glueings from it, runs the derivation and prints how its
result compares with the shipped S, in a few seconds.  It does not check
chained overlaps.  That length 6 is forced when the interior order
contains a 3-element chain is shown by
tests/test_acceptance.py::test_criterion_5_length_bound.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gadget_space import anchors_lower_first, battery_gadgets, grid_lattices, role_covers
from princlat.construction import load_templates
from princlat.lattice import lattice_iso, length, prime_intervals


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    templates = load_templates()  # raises TemplateInvalid unless S passes the battery
    s = templates["S"]
    print(f"shipped template: {len(prime_intervals(s.lattice))} prime intervals, "
          f"length {length(s.lattice)}, battery PASS")
    for name in ("SC", "SV", "SH"):
        t = templates[name]
        print(f"glued {name}: {t.lattice.n} elements, length {length(t.lattice)}")
    found = battery_gadgets(grid_lattices())
    iso = sum(lattice_iso(t.lattice, s.lattice) is not None for t in found)
    lower = [t for t in found if anchors_lower_first(t)]
    same = sum(role_covers(t) == role_covers(s) for t in lower)
    print(f"derived: {len(found)} labelled gadgets pass the battery, {iso} isomorphic to "
          f"the shipped S; {len(lower)} with both anchor pairs lower first, "
          f"{same} with the shipped covers")


if __name__ == "__main__":
    main()
