#!/usr/bin/env python3
"""Write a poset of one named shape and size as a poset file.

    python3 scripts/shapes.py NAME K PATH

The shapes, each named in its file as NAME followed by K:

  antichain  0 and 1 around an antichain x0, ..., x(K-1);
  chain      0 and 1 around a chain x0 < ... < x(K-1);
  B          the Boolean lattice on K atoms: the bit strings sM of K
             digits, each below the strings with one more bit set;
  grid       the K x K grid gIJ, each below g(I+1)J and gI(J+1);
  fence      0 and 1 around a fence z0 < z1 > z2 < ..., the even z
             above 0 and the odd z below 1.

The file is ``json.dump``'s default output, with no trailing newline.
"""

import argparse
import json
from pathlib import Path


def antichain(k: int) -> dict:
    x = [f"x{i}" for i in range(k)]
    return {"name": f"antichain{k}", "elements": ["0", "1"] + x,
            "covers": [["0", e] for e in x] + [[e, "1"] for e in x]}


def chain(k: int) -> dict:
    x = [f"x{i}" for i in range(k)]
    return {"name": f"chain{k}", "elements": ["0", "1"] + x,
            "covers": [["0", x[0]]] + [[a, b] for a, b in zip(x, x[1:])] + [[x[-1], "1"]]}


def boolean(k: int) -> dict:
    s = [f"s{m:0{k}b}" for m in range(1 << k)]
    return {"name": f"B{k}", "elements": s,
            "covers": [[s[m], s[m | 1 << b]] for m in range(1 << k) for b in range(k)
                       if not m >> b & 1]}


def grid(k: int) -> dict:
    def g(i, j):
        return f"g{i}{j}"

    return {"name": f"grid{k}", "elements": [g(i, j) for i in range(k) for j in range(k)],
            "covers": [[g(i, j), g(i + 1, j)] for i in range(k - 1) for j in range(k)]
            + [[g(i, j), g(i, j + 1)] for i in range(k) for j in range(k - 1)]}


def fence(k: int) -> dict:
    z = [f"z{i}" for i in range(k)]
    return {"name": f"fence{k}", "elements": ["0", "1"] + z,
            "covers": [[z[i], z[i + 1]] if i % 2 == 0 else [z[i + 1], z[i]]
                       for i in range(k - 1)]
            + [["0", x] for x in z[0::2]] + [[x, "1"] for x in z[1::2]]}


SHAPES = {"antichain": antichain, "chain": chain, "B": boolean, "grid": grid, "fence": fence}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=SHAPES)
    parser.add_argument("k", type=int)
    parser.add_argument("path", type=Path)
    args = parser.parse_args()
    args.path.write_text(json.dumps(SHAPES[args.name](args.k)), encoding="utf-8")


if __name__ == "__main__":
    main()
