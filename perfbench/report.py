"""Print every benchmark metric for all four workloads.

Run from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S] [--no-trace]

For each workload it runs ``run.py`` once untraced and prints every
end-to-end metric with its unit; the ungated wall-clock figures
``items_per_wall_s``, ``setup_wall_s``, ``item_p50_s`` and ``item_p90_s``;
and ``fail_ratio`` (requests whose exit code or stdout digest differs from
the oracle, over requests attempted).
Unless ``--no-trace`` is given it then runs the workload traced twice,
prints the tracing overhead and the busiest layer functions by self time,
and checks that every call count and work count repeats exactly between
the two traced runs.  Exits 1 if any request failed or a count differed.
Each run is a separate process, started after the previous one ended.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORK_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TOP_FUNCTIONS = 12


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts_of(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args(argv)

    ok = True
    for name in WORKLOADS:
        result = bench(name, args.seed, args.seconds, 0)
        print(f"== {name} (seed {args.seed})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<16} {m['value']:.6g} {m['unit']}")
        items = json.loads((ROOT / WORK_DIR / f"{name}-items.json").read_text(encoding="utf-8"))
        print(f"  {'items_per_wall_s':<16} {items['items_per_wall_s']:.6g} 1/s  (wall clock; not gated)")
        print(f"  {'setup_wall_s':<16} {items['setup_wall_s']:.6g} s  (wall clock; not gated)")
        for metric in ("item_p50_s", "item_p90_s"):
            print(f"  {metric:<16} {items[metric]:.6g} s  (over {items['items_per_pass']} items, "
                  f"each the median of {items['passes']} passes; wall clock; not gated)")
        print(f"  {'fail_ratio':<16} {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} requests)")
        ok &= result["failed"] == 0
        if args.no_trace:
            continue

        first = bench(name, args.seed, args.seconds, 1)
        layers = json.loads((ROOT / WORK_DIR / f"{name}-layers.json").read_text(encoding="utf-8"))
        second = bench(name, args.seed, args.seconds, 1)
        m = first["metrics"]
        print(f"  traced pass {m['trace.traced_s']['value']:.3f} s, untraced "
              f"{m['trace.untraced_s']['value']:.3f} s, overhead "
              f"{m['trace.overhead_s']['value']:.3f} s")
        functions = {k: v for k, v in layers["layers"].items() if "calls" in v and v["calls"]}
        print(f"  {'function':<50} {'calls':>9} {'self_s':>9} {'total_s':>9}")
        for fn, v in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:TOP_FUNCTIONS]:
            print(f"  {fn:<50} {v['calls']:>9} {v['self_s']:>9.3f} {v['total_s']:>9.3f}")
        print("  work counts: " + ", ".join(f"{k}={v}" for k, v in layers["counts"].items()))
        a, b = counts_of(first), counts_of(second)
        differ = sorted(k for k in a if a[k] != b.get(k))
        if differ:
            print(f"  COUNTS DIFFER between two traced runs: {differ}")
        else:
            print(f"  all {len(a)} counts repeat exactly between two traced runs")
        ok &= not differ and first["failed"] == 0 and second["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
