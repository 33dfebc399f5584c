"""Command-line surface.

Exit codes: 0 success, 1 verification/counterexample failure, 2 input or
configuration error.  All stdout output is byte-stable for fixed inputs
and seed; timings are reported on stderr only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .congruence import all_congruences, princ_order, valuation
from .construction import assemble_K, load_templates, verify_theorem
from .dotexport import poset_to_dot
from .errors import InputError, PrinclatError
from .fuzzing import run_fuzz
from .io import (
    congruence_blocks_doc,
    dump_json,
    dumps,
    lattice_to_doc,
    load_lattice,
    load_poset,
    poset_to_doc,
)
from .lattice import length, prime_intervals
from .order import to_bounded


def _template_dir(explicit: str | None) -> str | None:
    return explicit or os.environ.get("PRINC_TEMPLATES") or None


def cmd_build(ns: argparse.Namespace) -> int:
    templates = load_templates(_template_dir(ns.templates))
    P = to_bounded(load_poset(ns.poset))
    result = assemble_K(P, templates)
    lat = result.lattice
    doc = lattice_to_doc(lat, name=f"K({ns.poset})", anchors=result.anchor)
    dump_json(doc, ns.out)
    # one S per comparability, one Cp per isolated element, a frame per bound
    kinds = {"Cp": len(P.isolated), "S": len(P.comparabilities()), "frame": min(len(P.elements), 2)}
    counts = " ".join(f"{k}={v}" for k, v in kinds.items() if v)
    print(f"|K|={lat.n} length={length(lat)} gadgets: {counts}")
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    templates = load_templates(_template_dir(ns.templates))
    P = to_bounded(load_poset(ns.poset))
    report = verify_theorem(P, templates, name=ns.poset)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_fuzz(ns: argparse.Namespace) -> int:
    if ns.max_size < 1 or ns.samples < 1 or ns.jobs < 1:
        raise InputError("--max-size, --samples and --jobs must be >= 1")
    if not 0 <= ns.seed < 2 ** 64:
        raise InputError("--seed must fit in 64 bits")
    outcomes = run_fuzz(ns.max_size, ns.samples, ns.seed,
                        jobs=ns.jobs, template_dir=_template_dir(ns.templates))
    print(f"fuzz max-size={ns.max_size} samples={ns.samples} seed={ns.seed}")
    print("index |P| comps |K| length status")
    for o in outcomes:
        r, P = o.report, o.poset
        status = next((f"FAIL {name}: {detail}" for name, ok, detail in r.stages if not ok), "pass")
        print(f"{o.index:5d} {len(P.elements):3d} {len(P.comparabilities()):5d} "
              f"{r.k_size:3d} {r.k_length:6d} {status}")
    bad = [o for o in outcomes if not o.report.passed]
    print(f"RESULT pass={len(outcomes) - len(bad)} fail={len(bad)}", flush=True)
    print(f"total verification time {sum(o.elapsed for o in outcomes):.2f}s", file=sys.stderr)
    if bad:
        print("counterexample poset:")
        print(dumps(poset_to_doc(bad[0].poset.poset, name=f"sample{bad[0].index}")))
        return 1
    return 0


def cmd_con(ns: argparse.Namespace) -> int:
    lat = load_lattice(ns.lattice)
    con = all_congruences(lat)
    doc = {
        "count": len(con),
        "congruences": [congruence_blocks_doc(t) for t in con.congruences],
    }
    print(dumps(doc))
    return 0


def cmd_princ(ns: argparse.Namespace) -> int:
    lat = load_lattice(ns.lattice)
    po = princ_order(lat)
    order_poset = poset_to_doc(po.as_poset(), name="princ-order")
    doc = {
        "count": len(po),
        "principal": [
            {"witness": list(w), "blocks": congruence_blocks_doc(t)}
            for t, w in zip(po.congruences, po.witnesses)
        ],
        "order": order_poset,
    }
    print(dumps(doc))
    if ns.out:
        dump_json(order_poset, ns.out)
    return 0


def cmd_valuation(ns: argparse.Namespace) -> int:
    lat = load_lattice(ns.lattice)
    v = valuation(lat)
    doc = {
        "values": [
            {"blocks": congruence_blocks_doc(t), "v": val}
            for t, val in zip(v.con_order.congruences, v.values)
        ]
    }
    print(dumps(doc))
    return 0


def cmd_export_dot(ns: argparse.Namespace) -> int:
    lat = load_lattice(ns.lattice)
    dot = poset_to_dot(lat.poset)
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write(dot)
    print(f"wrote {ns.out}: {lat.n} nodes, {len(prime_intervals(lat))} edges")
    return 0


# Built once per process: parse_args never mutates the parser, and nothing
# else touches it after it is built.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="princlat",
        description="Finite-lattice congruence engine and bounded-order realization",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="assemble the realizing lattice for a poset")
    b.add_argument("--poset", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--templates")

    v = sub.add_parser("verify", help="run every structural check for a poset")
    v.add_argument("--poset", required=True)
    v.add_argument("--templates")

    f = sub.add_parser("fuzz", help="verify many seeded random posets")
    f.add_argument("--max-size", type=int, required=True)
    f.add_argument("--samples", type=int, required=True)
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--jobs", type=int, default=1)
    f.add_argument("--templates")

    for name in ("con", "princ", "valuation"):
        c = sub.add_parser(name, help=f"print {name} data for a lattice file")
        c.add_argument("--lattice", required=True)
        if name == "princ":
            c.add_argument("--out", help="also write the principal order as a poset file")

    d = sub.add_parser("export-dot", help="emit a ranked Hasse diagram")
    d.add_argument("--lattice", required=True)
    d.add_argument("--out", required=True)
    return ap


COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "fuzz": cmd_fuzz,
    "con": cmd_con,
    "princ": cmd_princ,
    "valuation": cmd_valuation,
    "export-dot": cmd_export_dot,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
        return COMMANDS[ns.command](ns)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrinclatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
