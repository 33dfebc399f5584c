#!/usr/bin/env python3
"""Regenerate the gadget template data files.

The comparability gadget S is derived, not transcribed: of the labelled
gadgets that pass the full congruence battery
(``gadget_space.battery_gadgets``, a complete enumeration with no bound
on cover edges; see derive_gadget.py), it is the only one with both
anchor pairs lower element first.  This script writes that gadget's
covers over the placeholders of ``S_ROLES``.  It is the only template
kept as data (``S.json`` and ``S.roles.json``).
``construction.load_templates`` builds the rest from it: the double
gadgets SC, SV and SH glue two S copies as ``construction.AMALGAM_COPIES``
states, and Cp and frame are chains over their roles.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gadget_space import anchors_lower_first, battery_gadgets, grid_lattices, role_covers

S_ROLES = {
    "o": "o", "i": "i",
    "ap": "a_p", "bp": "b_p", "aq": "a_q", "bq": "b_q",
    "c": "c", "d": "d", "e": "e", "f": "f", "g": "g",
}


def main(outdir=ROOT / "src" / "princlat" / "templates"):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (s,) = [t for t in battery_gadgets(grid_lattices()) if anchors_lower_first(t)]
    placeholder = {role: ph for ph, role in S_ROLES.items()}
    covers = sorted([placeholder[a], placeholder[b]] for a, b in role_covers(s))
    doc = {"name": "S", "elements": sorted(S_ROLES), "covers": covers}
    (outdir / "S.json").write_text(json.dumps(doc, indent=1) + "\n")
    (outdir / "S.roles.json").write_text(json.dumps(S_ROLES, indent=1) + "\n")
    print(f"wrote templates to {outdir}")


if __name__ == "__main__":
    main()
