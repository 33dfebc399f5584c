"""princlat benchmark: closed-loop requests through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz-desk --seed 1 --seconds 20 --trace 0

One process, one caller, no threads: each request goes to
``princlat.cli.main`` with stdout captured, and the next one is sent only
after it returns.  Every request's exit code and stdout digest are
checked against ``oracle.json``.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a readable
summary goes to stderr.

``--trace 0`` measures the end-to-end metrics.  A run repeats whole
passes over the workload's request pool while another pass, as long as
the last one, still ends within ``--seconds``; it always makes at least
one.  Before that, ``setup_s`` is measured in fresh interpreters.  Both
timed metrics are in reference seconds (see ``refclock.py``): wall time
rescaled by the machine's speed while it passed, which on a shared
machine swings far more than any change worth measuring.  The wall-clock
figures go to stderr and ``perfbench/.work/<workload>-items.json``.

``--trace 1`` makes one untraced pass and then the same pass again with
the tracer installed, and reports per-layer metrics, the work counts and
the tracing overhead.  It ignores ``--seconds``.  Spans are written to
``perfbench/.work/<workload>-spans.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock
from tracer import Tracer
from workloads import POOLS, WORK_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE = HERE / "oracle.json"

SETUP_RUNS = 11
SETUP_CODE = (
    "from refclock import RefClock\n"
    "with RefClock() as clock:\n"
    "    import princlat\n"
    "    from princlat.construction import load_templates\n"
    "    load_templates()\n"
    "print(clock.wall_s, clock.ref_s)\n"
)

# Per-layer metrics.  Functions called on every workload report calls,
# self_s and total_s; the others report calls only, so that no time
# metric reads 0 on every run of a workload that never calls it.  Their
# times are in the span file and in report.py's layer table.
TIMED = (
    "cli.main",
    "order.validate_poset",
    "lattice.as_lattice",
    "congruence.principal_congruence",
    "congruence.join_congruences",
    "congruence.congruence_leq",
    "congruence.cover_principals",
    "congruence.all_congruences",
    "congruence.principal_congruences_with_witnesses",
    "congruence.princ_order",
)
COUNTED = (
    "construction.load_templates",
    "construction.assemble_K",
    "construction.verify_theorem",
    "construction.phi",
    "construction.beta_H",
    "order.down_sets",
    "order.order_iso",
    "order.is_down_set",
    "lattice.lattice_iso",
    "lattice.is_01_sublattice",
    "congruence.valuation",
    "congruence.is_congruence",
    "congruence.is_I_congruence",
    "congruence.base",
    "io.load_poset",
    "io.load_lattice",
    "fuzzing.run_sample",
    "cli.cmd_verify",
    "cli.cmd_fuzz",
    "cli.cmd_con",
    "cli.cmd_princ",
    "cli.cmd_valuation",
)
MODULES_TIMED = ("order", "lattice", "congruence", "io", "cli")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in TIMED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s"), (f"{fn}.total_s", "s")]
    out += [(f"{fn}.calls", "count") for fn in COUNTED]
    out += [(f"{m}.self_s", "s") for m in MODULES_TIMED]
    out += [(f"count.{c}", "count") for c in (
        "lattices", "lattice_elements", "join_irreducibles", "prime_intervals",
        "congruences", "principal_congruences", "down_sets")]
    out += [("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead_s", "s")]
    return out


def call(cli, argv) -> tuple[int | None, str, str | None]:
    """One request: exit code, captured stdout, and the traceback of a crash."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv)), out.getvalue(), None
    except Exception:  # a crash is a failed request, not a failed benchmark
        return None, out.getvalue(), traceback.format_exc()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_cli():
    """princlat.cli from this checkout's src/, or None if it is not there."""
    os.chdir(ROOT)
    if not (ROOT / "src" / "princlat" / "__init__.py").is_file():
        print(f"error: no princlat sources under {ROOT / 'src'}", file=sys.stderr)
        return None
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PRINC_TEMPLATES", None)
    cli = importlib.import_module("princlat.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "princlat":
        print(f"error: imported princlat from {cli.__file__}, not from src/", file=sys.stderr)
        return None
    return cli


class Client:
    """The single closed-loop caller; counts requests and oracle mismatches."""

    def __init__(self, cli, expected: dict[str, list]):
        self.cli = cli
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def item(self, item) -> float:
        """Send the item's requests in turn; return their wall time."""
        t0 = time.perf_counter()
        outcomes = [(req, call(self.cli, req.argv)) for req in item.requests]
        elapsed = time.perf_counter() - t0
        for req, (rc, stdout, crash) in outcomes:
            self.attempted += 1
            digest = sha256(stdout)
            if [rc, digest] != self.expected.get(req.key):
                self.failed += 1
                print(f"MISMATCH {req.key}: exit {rc}, stdout sha256 {digest}", file=sys.stderr)
                if crash:
                    print(crash, file=sys.stderr)
        return elapsed

    def run_pass(self, items) -> tuple[list[float], float]:
        t0 = time.perf_counter()
        times = [self.item(it) for it in items]
        return times, time.perf_counter() - t0


def measure_setup() -> tuple[float, float]:
    """Medians over fresh interpreters of `import princlat` + first load_templates().

    Returns the wall time and the reference time (see refclock.py) of the
    same set-up, each the median over SETUP_RUNS interpreters.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))))
    env.pop("PRINC_TEMPLATES", None)
    walls, refs = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first one may compile bytecode for a fresh checkout
            wall, ref = map(float, done.stdout.split())
            walls.append(wall)
            refs.append(ref)
    return statistics.median(walls), statistics.median(refs)


def untraced_run(workload, items, client, rng, seconds) -> dict:
    setup_wall, setup_ref = measure_setup()
    deadline = time.perf_counter() + seconds
    per_item: dict = {item: [] for item in items}
    walls: list[float] = []
    refs: list[float] = []
    while True:
        order = workload.next_pass(items, rng)
        with RefClock() as clock:
            times, wall = client.run_pass(order)
        for item, t in zip(order, times):
            per_item[item].append(t)
        walls.append(clock.wall_s)
        refs.append(clock.ref_s)
        if time.perf_counter() + wall > deadline:
            break
    # One time per pool item, the median over passes, so that the
    # percentiles fall on the same items whatever the number of passes.
    # They are wall times and include the reference clock's sampling.
    item_s = [statistics.median(ts) for ts in per_item.values()]
    p90 = statistics.quantiles(item_s, n=10, method="inclusive")[-1] if len(item_s) > 1 else item_s[0]
    # Over ten runs on the test machine these percentiles spread by up to
    # 30 %, more than any bound the benchmark may set, so they are written
    # out and printed by report.py but are not among the gated metrics.
    done = len(walls) * len(items)
    items_doc = {"passes": len(walls), "items_per_pass": len(items), "pass_walls_s": walls,
                 "pass_refs_s": refs, "items_per_wall_s": done / sum(walls),
                 "setup_wall_s": setup_wall,
                 "item_p50_s": statistics.median(item_s), "item_p90_s": p90}
    (WORK_DIR / f"{workload.name}-items.json").write_text(
        json.dumps(items_doc, indent=1) + "\n", encoding="utf-8")
    print(f"{workload.name}: {len(walls)} passes of {len(items)} items, "
          f"pass walls {[round(w, 3) for w in walls]}, pass refs {[round(r, 3) for r in refs]}, "
          f"items_per_wall_s {items_doc['items_per_wall_s']}, setup_wall_s {setup_wall}, "
          f"item_p50_s {items_doc['item_p50_s']}, item_p90_s {p90}", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_ref, "s"),
        "items_per_ref_s": (done / sum(refs), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def traced_run(workload, items, client, rng) -> dict:
    order = workload.next_pass(items, rng)
    _, untraced = client.run_pass(order)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = client.run_pass(order)
    finally:
        tracer.uninstall()
    layers = tracer.layer_times()
    counts = tracer.work_counts()
    tracer.write(WORK_DIR / f"{workload.name}-spans.npz")
    (WORK_DIR / f"{workload.name}-layers.json").write_text(
        json.dumps({"layers": layers, "counts": counts}, indent=1) + "\n", encoding="utf-8")
    values = {
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    values.update({f"count.{k}": v for k, v in counts.items()})
    out = {}
    for name, unit in per_layer_names():
        if name in values:
            out[name] = (values[name], unit)
        else:
            fn, field = name.rsplit(".", 1)
            out[name] = (layers[fn][field], unit)
    print(f"{workload.name}: untraced {untraced:.3f}s, traced {traced:.3f}s", file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", choices=POOLS, default="default",
                    help="request pool; 'heldout' confirms a claim on other inputs")
    args = ap.parse_args(argv)

    cli = import_cli()
    if cli is None:
        return 2

    workload = WORKLOADS[args.workload]
    expected = json.loads(ORACLE.read_text(encoding="utf-8"))[workload.name][args.pool]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    items = workload.pool(args.pool)
    client = Client(cli, expected)
    rng = random.Random(args.seed)
    if args.trace:
        metrics = traced_run(workload, items, client, rng)
    else:
        metrics = untraced_run(workload, items, client, rng, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}", file=sys.stderr)
    print(f"  fail_ratio = {client.failed / client.attempted} "
          f"({client.failed} of {client.attempted} requests)", file=sys.stderr)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
