import io
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from princlat.cli import main
from princlat.congruence import CongruenceRelation
from princlat.construction import assemble_K, load_templates
from princlat.lattice import as_lattice
from princlat.order import to_bounded, validate_poset

from gadget_space import grid_lattices


@pytest.fixture(scope="session")
def templates():
    return load_templates()


@pytest.fixture(scope="session")
def chain8_k(templates):
    """K of the 8-element interior chain: 160 elements and 89
    join-irreducibles, so each congruence mask is two 64-bit words."""
    names = ["0"] + [f"x{i}" for i in range(8)] + ["1"]
    return assemble_K(bounded(names, list(zip(names, names[1:]))), templates).lattice


@pytest.fixture(scope="session")
def grid():
    """The lattices over the 2x3 grid that gadget_space.py enumerates, one
    pass for the session."""
    return list(grid_lattices())


def run_cli(argv):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def bounded(elements, covers):
    return to_bounded(validate_poset(elements, covers))


def le(p, x, y):
    """Whether x <= y in poset p, by name."""
    return bool(p.leq[p.index(x), p.index(y)])


def join_of(lat, x, y):
    """The join of two named elements, read from the join table."""
    return lat.elements[lat.join[lat.index(x), lat.index(y)]]


def meet_of(lat, x, y):
    """The meet of two named elements, read from the meet table."""
    return lat.elements[lat.meet[lat.index(x), lat.index(y)]]


def membership(family, elements):
    """One boolean row per member tuple of ``family``, one column per element."""
    pos = {x: k for k, x in enumerate(elements)}
    rows = np.zeros((len(family), len(elements)), dtype=bool)
    for r, members in enumerate(family):
        rows[r, [pos[x] for x in members]] = True
    return rows


def zero_congruence(lat):
    return CongruenceRelation(lat, tuple(range(lat.n)))


def one_congruence(lat):
    return CongruenceRelation(lat, (0,) * lat.n)


@pytest.fixture(scope="session")
def poset_zoo():
    """The hand-checkable posets used across the suite."""
    return {
        "1-chain": bounded(["0"], []),
        "2-chain": bounded(["0", "1"], [("0", "1")]),
        "3-chain": bounded(["0", "m", "1"], [("0", "m"), ("m", "1")]),
        "4-chain": bounded(["0", "p", "q", "1"], [("0", "p"), ("p", "q"), ("q", "1")]),
        "5-chain": bounded(["0", "p", "q", "r", "1"],
                           [("0", "p"), ("p", "q"), ("q", "r"), ("r", "1")]),
        "B2": bounded(["0", "p", "q", "1"],
                      [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")]),
        "V": bounded(["0", "p", "q", "r", "1"],
                     [("0", "p"), ("p", "q"), ("p", "r"), ("q", "1"), ("r", "1")]),
        "hat": bounded(["0", "p", "q", "r", "1"],
                       [("0", "p"), ("0", "q"), ("p", "r"), ("q", "r"), ("r", "1")]),
    }


def random_lattice(rng, max_size=10):
    """A random small lattice, or None if the sampled poset is not one."""
    k = rng.randrange(1, max_size - 1)
    names = [f"x{i}" for i in range(k)]
    order = list(names)
    rng.shuffle(order)
    covers = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.4:
                covers.append((order[i], order[j]))
    covers += [("bot", x) for x in names]
    covers += [(x, "top") for x in names]
    els = ["bot"] + names + ["top"]
    try:
        return as_lattice(validate_poset(els, covers))
    except Exception:
        return None


def random_lattices(seed, count, max_size=10):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lat = random_lattice(rng, max_size)
        if lat is not None:
            out.append(lat)
    return out
