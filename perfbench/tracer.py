"""Outside-in tracing of princlat's public functions.

The tracer wraps every public function (no leading underscore) of the
traced modules and installs the wrapper at every attribute of a princlat
module, and every value of a module-level dict such as
``cli.COMMANDS``, that holds the function.  Calls between modules, and
calls inside a module through its own globals, then go through the
wrapper; the program's source is not changed.

Each call becomes a span (name, start, end, parent), kept in memory in
typed arrays, because verify-antichain alone makes millions of
``congruence_leq`` calls, and written out at the end.  A span's self
time is its duration minus the durations of its child spans, so time in
private helpers counts as self time of the public function that called
them.  A function's total time sums its spans that are not nested inside
a span of the same function.

The return values of a few functions are kept so that the work done can
be counted after the traced pass, outside every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("order", "lattice", "congruence", "construction", "fuzzing", "io", "cli")

# functions whose results are kept for the work counts
KEPT = ("construction.assemble_K", "io.load_lattice", "congruence.all_congruences",
        "congruence.princ_order", "order.down_sets")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kept: dict[str, list] = {name: [] for name in KEPT}
        self._stack = [-1]
        self._patches: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        kept = self.kept.get(name)

        # The bookkeeping before the start and after the end falls into
        # the caller's self time, not into this span.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"princlat.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "princlat" and not modname.startswith("princlat."):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(namespace, key, wrappers[value])
                elif isinstance(value, dict) and key != "__builtins__":
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._patch(value, k, wrappers[v])

    def _patch(self, namespace: dict, key, new) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = new

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, old = self._patches.pop()
            namespace[key] = old

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per traced function, and self_s per module."""
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        k = len(self.names)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_t = dur - child
        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        live = anc >= 0
        while live.any():
            nested[live] |= names[anc[live]] == names[live]
            anc[live] = parent[anc[live]]
            live = anc >= 0
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)
        total_s = np.bincount(names[~nested], weights=dur[~nested], minlength=k)
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }
        for layer in LAYERS:
            out[layer] = {"self_s": float(sum(
                self_s[i] for i, name in enumerate(self.names) if name.startswith(layer + ".")))}
        return out

    def work_counts(self) -> dict[str, int]:
        """Sizes of what the kept calls built, summed over the traced pass."""
        lattices = [r.lattice for r in self.kept["construction.assemble_K"]]
        lattices += self.kept["io.load_lattice"]
        covers = [lat.poset.covers() for lat in lattices]
        return {
            "lattices": len(lattices),
            "lattice_elements": sum(lat.n for lat in lattices),
            "prime_intervals": sum(len(c) for c in covers),
            # join-irreducible: exactly one lower cover
            "join_irreducibles": sum(
                sum(1 for n in Counter(int(hi) for _, hi in c).values() if n == 1)
                for c in covers),
            "congruences": sum(len(c) for c in self.kept["congruence.all_congruences"]),
            "principal_congruences": sum(len(p) for p in self.kept["congruence.princ_order"]),
            "down_sets": sum(len(d) for d in self.kept["order.down_sets"]),
        }

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
