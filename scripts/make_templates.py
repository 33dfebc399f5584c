#!/usr/bin/env python3
"""Regenerate the gadget template data files.

The comparability gadget S was pinned down by exhaustive search (see
derive_gadget.py): it is the unique lattice on the eleven placeholders,
with at most 16 cover edges, satisfying the full congruence battery.
It is the only template kept as data (``S.json`` and ``S.roles.json``).
``construction.load_templates`` builds the rest from it: the double
gadgets SC, SV and SH glue two S copies as ``construction.AMALGAM_COPIES``
states, and Cp and frame are chains over their roles.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

S_COVERS = [
    ("o", "ap"), ("o", "c"),
    ("ap", "bp"), ("ap", "f"),
    ("c", "d"), ("c", "aq"),
    ("d", "e"), ("d", "f"),
    ("e", "bq"), ("e", "g"),
    ("f", "g"), ("bp", "g"),
    ("aq", "bq"),
    ("bq", "i"), ("g", "i"),
]

S_ROLES = {
    "o": "o", "i": "i",
    "ap": "a_p", "bp": "b_p", "aq": "a_q", "bq": "b_q",
    "c": "c", "d": "d", "e": "e", "f": "f", "g": "g",
}


def main(outdir=ROOT / "src" / "princlat" / "templates"):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    els = sorted({x for e in S_COVERS for x in e})
    doc = {"name": "S", "elements": els, "covers": [list(c) for c in sorted(S_COVERS)]}
    (outdir / "S.json").write_text(json.dumps(doc, indent=1) + "\n")
    (outdir / "S.roles.json").write_text(json.dumps(S_ROLES, indent=1) + "\n")
    print(f"wrote templates to {outdir}")


if __name__ == "__main__":
    main()
