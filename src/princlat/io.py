"""Reading and writing the shared poset/lattice JSON format.

Every file is UTF-8 JSON of the form
``{"name": str, "elements": [str...], "covers": [[lo, hi]...]}``
where covers are Hasse edges lower -> upper.  Join/meet tables are never
serialized; lattices are reconstructed from the order on load.  An
assembled lattice file additionally carries an ``anchors`` section
mapping each source element to its representing pair.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import InputNotALattice, InvalidInput, NotALattice
from .lattice import FiniteLattice, as_lattice
from .order import Poset, validate_poset


def poset_to_doc(p: Poset, name: str = "") -> dict:
    return {
        "name": name,
        "elements": list(p.elements),
        "covers": [[a, b] for a, b in p.cover_names()],
    }


def _names(xs) -> bool:
    return isinstance(xs, list) and all(isinstance(x, str) for x in xs)


def doc_to_poset(doc: dict) -> Poset:
    if not isinstance(doc, dict):
        raise InvalidInput("poset document must be a JSON object")
    for key in ("elements", "covers"):
        if key not in doc:
            raise InvalidInput(f"poset document missing {key!r}")
    elements, covers = doc["elements"], doc["covers"]
    if not _names(elements):
        raise InvalidInput("elements must be a list of names")
    if not (isinstance(covers, list) and all(_names(c) and len(c) == 2 for c in covers)):
        raise InvalidInput("covers must be [lower, upper] pairs of names")
    return validate_poset(elements, [tuple(c) for c in covers])


def load_poset(path) -> Poset:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise InvalidInput(f"cannot read poset file {path}: {exc}") from exc
    return doc_to_poset(doc)


def load_lattice(path) -> FiniteLattice:
    """Read a lattice file; an order that is not a lattice is an input error."""
    try:
        return as_lattice(load_poset(path))
    except NotALattice as exc:
        raise InputNotALattice(exc.x, exc.y, exc.witnesses, exc.kind) from None


def dumps(doc) -> str:
    """``json.dumps(doc, indent=1)``, the same text, for documents of
    dicts with string keys, lists, tuples, strings and JSON scalars.

    With ``indent`` set, ``json`` encodes in pure Python, and the nested
    functions it builds on every call form a reference cycle that only
    the cyclic collector frees; this writer leaves none.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as :func:`dumps` writes it, at the
    nesting whose line break and indent is ``newline``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
        return
    if not isinstance(value, (list, tuple, dict)):
        out.append(json.dumps(value))  # a number, boolean or None: no cycle
        return
    keyed = isinstance(value, dict)
    ends = "{}" if keyed else "[]"
    if not value:
        out.append(ends)
        return
    inner = newline + " "
    sep = ends[0] + inner
    for item in value.items() if keyed else value:
        out.append(sep)
        if keyed:
            out.append(encode_basestring_ascii(item[0]) + ": ")
            item = item[1]
        _write(item, inner, out)
        sep = "," + inner
    out.append(newline + ends[1])


def dump_json(doc: dict, path) -> None:
    Path(path).write_text(dumps(doc) + "\n", encoding="utf-8")


def lattice_to_doc(lat: FiniteLattice, name: str = "", anchors: dict | None = None) -> dict:
    doc = poset_to_doc(lat.poset, name)
    if anchors is not None:
        doc["anchors"] = {p: [a, b] for p, (a, b) in sorted(anchors.items())}
    return doc


def congruence_blocks_doc(theta) -> list[list[str]]:
    """Serialized form: blocks as sorted name lists, sorted by least element."""
    return [list(b) for b in theta.blocks()]
