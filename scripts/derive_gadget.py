#!/usr/bin/env python3
"""Derivation of the comparability gadget S by exhaustive search.

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
  B6  all blocks of both isolating congruences are chains of size <= 3;
  B7  no interior element lies between the pair {a_p,b_p} and the pair
      {a_q,b_q} (otherwise overlapping-gadget unions stop being
      transitively closed and disjoint gadgets stop being complementary).

B5 and B6 force con(a_q, b_q) to have six blocks: singletons at the
bounds plus four chain blocks holding {a_p,b_p}, {a_q,b_q}, {d,e} and
{f,g}, with c absorbed into exactly one of them.  Block chains are
covers by convexity, so an S with N cover edges has N - 5 cross-block
covers, each quotient cover needs at least one crossing cover, and the
2x3 grid has seven covers.  This makes the search space finite and
small: choose grid positions for the four blocks, a block and position
for c, and 1-2 crossing covers per quotient cover.

Results of --full, which runs exactly these two sweeps (about 1.5
minutes):

  * with exactly 12 cover edges the space is EMPTY: no lattice passes
    B1-B7 (102 distinct candidate cover sets, all rejected).  The 12
    reported in the text cannot hold together with the congruence
    battery.
  * allowing up to 16 cover edges, exactly ONE labelled lattice passes
    the battery: 15 cover edges, length 5.  It is the shipped S.json.

The 12-edge result needs far less than B1-B7.  Over the 2x3 grid
quotient of B5, an 11-element lattice has at least 12 cover edges, and
exactly 12 only with chain blocks and one crossing cover per grid cover;
each of the 56 such lattices has 31 isolating congruences, not the two
of B3.  So criterion 3 of the acceptance suite with the block condition
(B3, B5, B6 and con(d, e) = con(a_p, b_p)) already rules 12 out, without
B1, B4, B7 or the (f, g) half of B2.  tests/gadget_space.py proves this
and enumerates, with no cover bound, every gadget meeting criterion 3
and B6: 30 labelled gadgets on 8 lattices, all with 15 cover edges.

This script does not check chained overlaps.  That length 6 is forced
when the interior order contains a 3-element chain is shown by
tests/test_acceptance.py::test_criterion_5_length_bound: on the interior
chain p < q < r, each of those 30 gadgets either fails to assemble or
gives length 6.

The default mode re-verifies the shipped template against the battery
and builds the double-gadget glueings from it, which takes under a
second.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from princlat.construction import GadgetTemplate, gadget_battery, load_templates
from princlat.errors import NotALattice, TemplateInvalid
from princlat.lattice import as_lattice, length, prime_intervals
from princlat.order import validate_poset

ELS = ["o", "ap", "bp", "aq", "bq", "c", "d", "e", "f", "g", "i"]
ROLES = {x: {"ap": "a_p", "bp": "b_p", "aq": "a_q", "bq": "b_q"}.get(x, x) for x in ELS}
MID = ["01", "02", "10", "11"]  # middle positions of the 2x3 grid


def gleq(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def grid_cover_pairs(posmap):
    pos = {"O": "00", "I": "12", **posmap}
    names = list(pos)
    out = []
    for x in names:
        for y in names:
            if x == y or not gleq(pos[x], pos[y]) or pos[x] == pos[y]:
                continue
            if any(z not in (x, y) and gleq(pos[x], pos[z]) and gleq(pos[z], pos[y])
                   for z in names):
                continue
            out.append((x, y))
    return out


def block_variants():
    base = {"P": ("ap", "bp"), "Q": ("aq", "bq"), "D": ("d", "e"), "F": ("f", "g")}
    for cblock in ["P", "Q", "D", "F"]:
        if cblock == "D":
            chains = [("c", "d", "e"), ("d", "e", "c")]  # [d,e] stays prime
        else:
            lo, hi = base[cblock]
            chains = [("c", lo, hi), (lo, "c", hi), (lo, hi, "c")]
        for ch in chains:
            d = dict(base)
            d[cblock] = ch
            yield d


def fill_edges(chain_of, posmap, gc, max_covers):
    members = {"O": ("o",), "I": ("i",), **chain_of}
    intra = []
    for ch in chain_of.values():
        intra += [(ch[k], ch[k + 1]) for k in range(len(ch) - 1)]
    budget = max_covers - len(intra)

    def edge_opts(e):
        pairs = [(a, b) for a in members[e[0]] for b in members[e[1]]]
        if e == ("P", "F"):
            req = ("bp", "g")
            return [(req,)] + [(req, p) for p in pairs if p != req]
        return [(p,) for p in pairs] + list(itertools.combinations(pairs, 2))

    per_edge = [edge_opts(e) for e in gc]
    allels = [x for ch in chain_of.values() for x in ch] + ["o", "i"]

    def rec(i, chosen, used):
        if used > budget:
            return
        if i == len(gc):
            cross = [p for grp in chosen for p in grp]
            covers = intra + cross
            lower = {v for _, v in covers}
            upper = {u for u, _ in covers}
            if any(x != "o" and x not in lower for x in allels):
                return
            if any(x != "i" and x not in upper for x in allels):
                return
            yield covers
            return
        for grp in per_edge[i]:
            yield from rec(i + 1, chosen + [grp], used + len(grp))

    yield from rec(0, [], 0)


def candidates(max_covers):
    for chain_of in block_variants():
        for positions in itertools.permutations(MID):
            posmap = dict(zip(["P", "Q", "D", "F"], positions))
            gc = grid_cover_pairs(posmap)
            if ("P", "F") not in gc:  # (b_p, g) must cross adjacent blocks
                continue
            yield from fill_edges(chain_of, posmap, gc, max_covers)


def battery(covers):
    """B1-B7 on a candidate cover set; returns the lattice or None.

    The checks are the load-time battery of the shipped template
    (``construction.gadget_battery``), which pins none of the shape this
    search derives: length and the number of cover edges.
    """
    try:
        poset = validate_poset(ELS, covers)
    except Exception:
        return None
    if sorted(poset.cover_names()) != sorted(covers):
        return None
    try:
        lat = as_lattice(poset)
    except NotALattice:
        return None
    try:
        gadget_battery(GadgetTemplate("S", poset, ROLES, lat))
    except TemplateInvalid:
        return None
    return lat


def sweep(max_covers):
    seen = set()
    hits = []
    for covers in candidates(max_covers):
        key = tuple(sorted(covers))
        if key in seen:
            continue
        seen.add(key)
        lat = battery(covers)
        if lat is not None:
            hits.append(sorted(covers))
            print(f"  survivor ({len(covers)} covers, length {length(lat)}): {sorted(covers)}")
    print(f"  [{len(seen)} candidate cover sets, {len(hits)} survivors at <= {max_covers} covers]")
    return hits


def check_shipped():
    templates = load_templates()
    s = templates["S"]
    name = {role: x for x, role in ROLES.items()}
    lat = battery([(name[s.role_map[a]], name[s.role_map[b]]) for a, b in s.poset.cover_names()])
    print(f"shipped template: {len(prime_intervals(s.lattice))} prime intervals, "
          f"length {length(s.lattice)}, battery {'PASS' if lat is not None else 'FAIL'}")
    for name in ("SC", "SV", "SH"):
        t = templates[name]
        print(f"glued {name}: {t.lattice.n} elements, length {length(t.lattice)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="re-run the exhaustive sweeps (slow) instead of re-checking the shipped data")
    args = ap.parse_args()
    if not args.full:
        check_shipped()
        return
    print("sweep at exactly 12 covers:")
    sweep(12)
    print("sweep at up to 16 covers:")
    sweep(16)


if __name__ == "__main__":
    main()
