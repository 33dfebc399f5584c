"""Record oracle.json: the exit code and stdout digest of every request.

Run from the repository root at a commit whose output is trusted:

    python3 perfbench/record_oracle.py

Every pool is sent twice, in two orders and, for the verify workloads,
with two relabellings of the poset; the recording stops if a request's
result differs between the two, because the oracle holds one result per
request for every run seed.
"""

from __future__ import annotations

import json
import random
import sys

from run import ORACLE, call, import_cli, sha256
from workloads import POOLS, WORK_DIR, WORKLOADS


def main() -> int:
    cli = import_cli()
    if cli is None:
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    oracle: dict[str, dict[str, dict[str, list]]] = {}
    for workload in WORKLOADS.values():
        oracle[workload.name] = {}
        for pool in POOLS:
            items = workload.pool(pool)
            recorded: dict[str, list] = {}
            for seed in (0, 1):
                for item in workload.next_pass(items, random.Random(seed)):
                    for req in item.requests:
                        rc, stdout, crash = call(cli, req.argv)
                        if crash:
                            print(crash, file=sys.stderr)
                            return 1
                        result = [rc, sha256(stdout)]
                        if recorded.setdefault(req.key, result) != result:
                            print(f"error: {workload.name} {req.key} differs between runs",
                                  file=sys.stderr)
                            return 1
            oracle[workload.name][pool] = dict(sorted(recorded.items()))
            print(f"{workload.name} {pool}: {len(recorded)} requests", file=sys.stderr)
    ORACLE.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
