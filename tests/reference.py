"""The worklist closure on label vectors: the tests' independent oracle.

princlat computes every congruence from one analysis of each lattice
over J(L) bitmasks (``FiniteLattice.con_analysis``).  The functions here
compute principal congruences, joins and refinement from the join and
meet tables alone, so a test that compares the two compares two
independent computations.  Nothing here reads ``con_analysis``, and
``test_reference_closure_never_reads_the_analysis`` checks that it is
never reached.

A congruence is a label vector.  Merging two blocks enqueues the merged
pair, and processing a pair enforces the substitution property against
all elements at once, one join and one meet table row per element of the
pair, so the total work is a few vector operations per merge.
"""

from __future__ import annotations

import numpy as np

from princlat.congruence import CongruenceRelation


def merge(labels: np.ndarray, i: int, j: int) -> bool:
    """Merge the blocks of i and j in place, keeping the smaller label:
    labels that name each block's least element stay so.

    Returns False when i and j already share a block.
    """
    li, lj = int(labels[i]), int(labels[j])
    if li == lj:
        return False
    keep, drop = (li, lj) if li < lj else (lj, li)
    labels[labels == drop] = keep
    return True


def sp_closure(lat, labels: np.ndarray, pairs) -> np.ndarray:
    """Merge each pair into ``labels``, then close under the substitution property."""
    join, meet = lat.join, lat.meet
    queue = [(i, j) for i, j in pairs if merge(labels, i, j)]
    while queue:
        a, b = queue.pop()
        for table in (join, meet):
            diff = np.nonzero(labels[table[a]] != labels[table[b]])[0]
            for z in diff:
                u, v = int(table[a, z]), int(table[b, z])
                if merge(labels, u, v):
                    queue.append((u, v))
    return labels


def firsts(labels) -> list[int]:
    """Each element's label replaced by the first element of its block."""
    seen: dict[int, int] = {}
    return [seen.setdefault(l, i) for i, l in enumerate(labels)]


def canonical(labels) -> tuple[int, ...]:
    """Blocks numbered 0, 1, ... by first occurrence."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(l, len(seen)) for l in labels)


def principal_congruence(lat, x: str, y: str) -> CongruenceRelation:
    """The smallest congruence collapsing x and y."""
    labels = sp_closure(lat, np.arange(lat.n), [(lat.index(x), lat.index(y))])
    return CongruenceRelation(lat, canonical(labels.tolist()))


def join_congruences(a: CongruenceRelation, b: CongruenceRelation) -> CongruenceRelation:
    """The smallest congruence above both: a's blocks, each element merged
    with the first element of its b-block, then closed."""
    labels = sp_closure(a.lattice, np.array(firsts(a.labels)), enumerate(firsts(b.labels)))
    return CongruenceRelation(a.lattice, canonical(labels.tolist()))


def congruence_leq(a: CongruenceRelation, b: CongruenceRelation) -> bool:
    """Refinement: every a-block lies inside a b-block."""
    rep: dict[int, int] = {}
    for i, l in enumerate(a.labels):
        if b.labels[i] != b.labels[rep.setdefault(l, i)]:
            return False
    return True
