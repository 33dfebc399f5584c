#!/usr/bin/env python3
"""Regenerate the gadget template data files.

The comparability gadget S was pinned down by exhaustive search (see
derive_gadget.py): it is the unique lattice on the eleven placeholders,
with at most 16 cover edges, satisfying the full congruence battery.
The three double-gadget lattices are the transitive-closure glueings of
two S copies over the shared bound pair.  How the copies glue is stated
once, in ``construction.AMALGAM_COPIES``; the glued cover lists come from
``construction.amalgam_covers`` and only the placeholder names are chosen
here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from princlat.construction import AMALGAM_COPIES, GadgetTemplate, amalgam_covers
from princlat.lattice import as_lattice
from princlat.order import validate_poset

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

# roles whose placeholder is numbered 1 when the amalgam also has their
# primed twin (numbered 2): the rails c..g always, and in SH the lower frame
# pair; SC and SV keep a_q, b_q unnumbered next to aq2, bq2
NUMBERED = {"a_p", "b_p", "c", "d", "e", "f", "g"}


def placeholder(role, roles):
    """The placeholder of an amalgam role, given all roles of the amalgam."""
    base = role.rstrip("'").replace("_", "")
    if role.endswith("'"):
        return base + "2"
    if role in NUMBERED and role + "'" in roles:
        return base + "1"
    return base


def poset_doc(name, elements, covers):
    return {"name": name, "elements": list(elements), "covers": [list(c) for c in covers]}


def main(outdir=ROOT / "src" / "princlat" / "templates"):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def dump(stem, doc, roles):
        (outdir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
        (outdir / f"{stem}.roles.json").write_text(json.dumps(roles, indent=1) + "\n")

    els = sorted({x for e in S_COVERS for x in e})
    dump("S", poset_doc("S", els, sorted(S_COVERS)), S_ROLES)

    s_poset = validate_poset(els, S_COVERS)
    s = GadgetTemplate("S", s_poset, S_ROLES, as_lattice(s_poset))
    for name in AMALGAM_COPIES:
        # the glueing of the two S copies, as construction states it
        role_covers = amalgam_covers(s, name)
        roles = {r for e in role_covers for r in e}
        ph = {r: placeholder(r, roles) for r in roles}
        els = sorted(ph.values())
        # store the transitive reduction of the glued order
        p = validate_poset(els, sorted((ph[a], ph[b]) for a, b in role_covers))
        doc = poset_doc(name, els, p.cover_names())
        dump(name, doc, {ph[r]: r for r in sorted(roles, key=ph.get)})

    dump("Cp", poset_doc("Cp", ["o", "a", "b", "i"], [["o", "a"], ["a", "b"], ["b", "i"]]),
         {"o": "o", "a": "a_p", "b": "b_p", "i": "i"})
    dump("frame", poset_doc("frame", ["o", "a", "i"], [["o", "a"], ["a", "i"]]),
         {"o": "o", "a": "a_p", "i": "i"})
    print(f"wrote templates to {outdir}")


if __name__ == "__main__":
    main()
