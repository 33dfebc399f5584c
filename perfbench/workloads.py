"""The four benchmark workloads and the requests they send.

A workload owns a fixed *pool* of requests, generated from a pool seed
that is part of the benchmark, so that the correctness oracle
(``oracle.json``) can hold the expected exit code and stdout digest of
every request.  The run seed given on the command line only decides what
a run does with that pool: the order of each pass, and for the verify
workloads a fresh relabelling of the poset's element names and a
shuffled order of its element and cover lists.  Every pass sends every
request of the pool once, so runs with different seeds do the same
amount of work and their timings can be compared.

Each workload also has a held-out pool (``--pool heldout``) where the
inputs themselves differ: a claim tuned on the default pool can be
confirmed there.  The verify workloads have a single input shape, so
their held-out pool is the same shape; a held-out run seed relabels it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORK_DIR = Path("perfbench") / ".work"

POOLS = ("default", "heldout")


@dataclass(frozen=True)
class Request:
    """One CLI call; ``key`` names it in the oracle."""

    key: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Item:
    """The unit a per-item time is measured on: one or more requests."""

    requests: tuple[Request, ...]


def shuffled(items: list[Item], rng: random.Random) -> list[Item]:
    order = list(items)
    rng.shuffle(order)
    return order


# --- fuzz-desk -------------------------------------------------------------

# princlat.fuzzing derives sample i of `fuzz --seed S` from
# S * _MIX + i + 1 (mod 2**64).  Shifting S by multiples of the inverse of
# _MIX therefore makes `fuzz --samples 1 --seed S_j` verify exactly sample j
# of the corpus seeded S.  If that derivation changes, the digests in
# oracle.json stop matching and the run reports failures.
_MIX = 0x9E3779B97F4A7C15
_MIX_INV = pow(_MIX, -1, 1 << 64)


def corpus_sample_seed(corpus_seed: int, j: int) -> int:
    """The `fuzz --seed` whose first sample is sample j of `corpus_seed`."""
    return (corpus_seed + j * _MIX_INV) % (1 << 64)


class FuzzDesk:
    name = "fuzz-desk"
    # 20260201 is the criterion-1 corpus of the ROADMAP.
    corpus_seeds = {"default": 20260201, "heldout": 20260217}
    samples = 16

    def pool(self, pool: str) -> list[Item]:
        seed = self.corpus_seeds[pool]
        return [
            Item((Request(f"sample{j}", (
                "fuzz", "--max-size", "8", "--samples", "1",
                "--seed", str(corpus_sample_seed(seed, j)), "--jobs", "1")),))
            for j in range(self.samples)
        ]

    def next_pass(self, items: list[Item], rng: random.Random) -> list[Item]:
        return shuffled(items, rng)


# --- verify-chain and verify-antichain -------------------------------------

def bounded_poset_doc(interior: int, chain: bool, rng: random.Random) -> dict:
    """A bounded poset whose interior is a chain or an antichain.

    Element names are random and the element and cover lists shuffled,
    so every run seed writes a different file for the same order.
    """
    names: set[str] = set()
    while len(names) < interior + 2:
        names.add(f"v{rng.getrandbits(32):08x}")
    labels = sorted(names)
    rng.shuffle(labels)
    bottom, top, inner = labels[0], labels[1], labels[2:]
    if chain:
        path = [bottom] + inner + [top]
        covers = [[a, b] for a, b in zip(path, path[1:])]
    else:
        covers = [[bottom, x] for x in inner] + [[x, top] for x in inner]
    elements = list(labels)
    rng.shuffle(elements)
    rng.shuffle(covers)
    return {"name": "", "elements": elements, "covers": covers}


class VerifyShape:
    def __init__(self, name: str, interior: int, chain: bool):
        self.name = name
        self.interior = interior
        self.chain = chain
        # the path is printed by `verify`, so it is fixed, not per seed
        self.path = WORK_DIR / f"{name}.json"

    def pool(self, pool: str) -> list[Item]:
        return [Item((Request("verify", ("verify", "--poset", self.path.as_posix())),))]

    def next_pass(self, items: list[Item], rng: random.Random) -> list[Item]:
        doc = bounded_poset_doc(self.interior, self.chain, rng)
        self.path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return list(items)


# --- engine-random ---------------------------------------------------------

def random_lattice_doc(rng: random.Random, min_size: int = 6, max_size: int = 18) -> dict:
    """A random lattice as a closure system: sets closed under intersection.

    A few random subsets of a small ground set, closed under intersection
    and with the whole set added, ordered by inclusion, form a lattice
    whose meet is intersection.  Such lattices are generic: most are not
    distributive and many are not modular.  The size is drawn first and
    families of another size are rejected, so sizes spread evenly.
    """
    want = rng.randint(min_size, max_size)
    while True:
        ground = rng.randint(4, 6)
        full = (1 << ground) - 1
        family = {full}
        for _ in range(rng.randint(2, 10)):
            family.add(rng.randrange(1, full))
        grew = True
        while grew:
            grew = False
            for a in sorted(family):
                for b in sorted(family):
                    if a & b not in family:
                        family.add(a & b)
                        grew = True
        if len(family) == want:
            break
    sets = sorted(family, key=lambda s: (bin(s).count("1"), s))
    names = [f"x{i}" for i in range(len(sets))]
    covers = []
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if a != b and a & b == a and not any(
                    c != a and c != b and a & c == a and c & b == c for c in sets):
                covers.append([names[i], names[j]])
    return {"name": "", "elements": names, "covers": covers}


class EngineRandom:
    name = "engine-random"
    pool_seeds = {"default": 1302, "heldout": 4163}
    lattices = 100
    commands = ("con", "princ", "valuation")

    def pool(self, pool: str) -> list[Item]:
        rng = random.Random(self.pool_seeds[pool])
        directory = WORK_DIR / f"{self.name}-{pool}"
        directory.mkdir(parents=True, exist_ok=True)
        items = []
        for i in range(self.lattices):
            doc = random_lattice_doc(rng)
            path = directory / f"L{i:03d}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            items.append(Item(tuple(
                Request(f"L{i:03d}:{cmd}", (cmd, "--lattice", path.as_posix()))
                for cmd in self.commands)))
        return items

    def next_pass(self, items: list[Item], rng: random.Random) -> list[Item]:
        return shuffled(items, rng)


WORKLOADS = {
    w.name: w for w in (
        FuzzDesk(),
        VerifyShape("verify-chain", interior=8, chain=True),
        VerifyShape("verify-antichain", interior=10, chain=False),
        EngineRandom(),
    )
}
