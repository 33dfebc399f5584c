"""Label-matrix kernels of verification.

``verify`` checks the correspondence between Con K and the down sets of
the interior.  The functions here do that work for all congruences, or
all down sets, at once, and return matrices, never one object per row:
:func:`con_facts` reads the flags and bases of Con K from one
|Con K| x |K| label matrix and finds each base among the down sets of
the interior, and :func:`beta_labels` computes the label row of beta_H
for every row of a down-set membership matrix with one kernel.
Congruence and down-set objects are built only by the public API
(``phi``, ``beta_H``, ``all_congruences``, ...) and for failure
witnesses.  Work runs in chunks of rows of at most ``order._CHUNK``
elements.  A failure is named by examining only the first failing row,
in the order a scalar loop would have met it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .congruence import (
    _base_rows,
    _block_counts,
    _isolating,
    _label_dtype,
    _numbered,
    is_congruence,
)
from .errors import AssemblyNotALattice
from .lattice import FiniteLattice
from .order import _CHUNK, RowIndex, _member_names

if TYPE_CHECKING:  # pragma: no cover
    from .construction import ConstructionResult


@dataclass(frozen=True, eq=False)
class ConFacts:
    """Con K as one label matrix, and what phi's forward map and the
    per-congruence stages of verify read of it; row r is congruence r of
    ``all_congruences``, which verify never builds: a stage finds a
    congruence's row by its mask, whose place in
    ``ConAnalysis.con_masks`` is its row here, and reads the flags of
    that row.

    ``zero``, ``one`` and ``isolating`` flag the bound and the
    I-congruences; ``base[r]`` marks the interior elements (in
    ``source.interior`` order) whose anchor pair row r collapses, which
    is ``congruence.base`` on the isolating rows, and ``base_row[r]`` is
    the row of that base in the result's ``interior_down_sets``, or -1
    where it is not a down set of the interior.  It holds no reference to
    the result that caches it, so the two form no cycle.
    """

    interior: tuple[str, ...]
    labels: np.ndarray
    zero: np.ndarray
    one: np.ndarray
    isolating: np.ndarray
    base: np.ndarray
    base_row: np.ndarray

    def base_of(self, r: int) -> tuple[str, ...]:
        """``congruence.base`` of congruence r."""
        return _member_names(self.interior, self.base[r])


def con_facts(result: ConstructionResult) -> ConFacts:
    """The :class:`ConFacts` of an assembled lattice, from the label matrix
    of its congruence analysis and the down sets of its interior."""
    lat = result.lattice
    labels = lat.con_analysis.con_labels
    blocks = _block_counts(labels)
    rows = _base_rows(result, labels)
    return ConFacts(result.source.interior, labels, blocks == lat.n, blocks == 1,
                    _isolating(lat, labels), rows,
                    RowIndex(result.interior_down_sets).find(rows))


def beta_labels(lat: FiniteLattice, contributions,
                members) -> tuple[np.ndarray, AssemblyNotALattice | None]:
    """Canonical label rows of beta_H for each row of a membership matrix,
    and the error of the first row that fails, if any.

    Column i of ``members`` stands for an interior element that adds the
    lattice index pairs ``contributions[i]`` when it is in H.  For every
    row at once, in chunks of rows so that no temporary exceeds
    ``_CHUNK`` elements by more than one row:

    1. a pair is active iff some member contributes it: a boolean
       product of the rows with the member x pair contribution matrix;
    2. labels start as the element positions and every element takes the
       least label across its active pairs until nothing changes, so
       each block ends labelled by its least element, as with
       ``congruence._merge``; numbering those by position is the
       canonical form;
    3. a block may hold at most three elements, and the relation is
       transitive iff the sum of C(s, 2) over the block sizes s equals
       the number of distinct active pairs, because every active pair
       lies inside a block;
    4. the substitution property is checked as in
       ``congruence.is_congruence``, only at the (row, element) entries
       that are not the first of their block.

    A block that is not a chain needs no check of its own: a congruence
    class holding incomparable x and y also holds x ^ y and x v y, four
    elements, so a smaller one fails 4 and a larger one fails 3.

    Rows up to the first failing one are returned, with that row's
    error, named by the scalar checks in their order: blocks by least
    element, size, then each pair for transitivity and the chain
    condition, then ``is_congruence``'s witness.
    """
    n = lat.n
    rows = np.asarray(members, dtype=bool)
    dtype = _label_dtype(n)
    pairs = sorted({(min(a, b), max(a, b)) for c in contributions for a, b in c if a != b})
    if not pairs:  # no member adds a pair: every row is the zero congruence
        return np.broadcast_to(np.arange(n, dtype=dtype), (len(rows), n)).copy(), None
    col = {pair: k for k, pair in enumerate(pairs)}
    adds = np.zeros((len(contributions), len(pairs)), dtype=bool)
    for i, c in enumerate(contributions):
        adds[i, [col[min(a, b), max(a, b)] for a, b in c if a != b]] = True
    lo, hi = np.array(pairs, dtype=np.intp).T
    # the pairs at each endpoint, grouped for one reduceat per step
    ends = np.concatenate([lo, hi])
    by_end = np.argsort(ends, kind="stable")
    touched, starts = np.unique(ends[by_end], return_index=True)
    pair_at = by_end % len(pairs)
    iota = np.arange(n)
    out = np.empty((len(rows), n), dtype=dtype)
    step = max(1, _CHUNK // max(n, 2 * len(pairs)))
    for s in range(0, len(rows), step):
        active = rows[s:s + step] @ adds
        m = len(active)
        lab = np.broadcast_to(iota, (m, n)).copy()
        while True:
            low = np.where(active, np.minimum(lab[:, lo], lab[:, hi]), n)
            low = np.minimum.reduceat(low[:, pair_at], starts, axis=1)
            cur = lab[:, touched]
            if not (low < cur).any():
                break
            lab[:, touched] = np.minimum(cur, low)
        first = lab == iota
        sizes = np.bincount((lab + n * np.arange(m)[:, None]).ravel(), minlength=m * n)
        sizes = sizes.reshape(m, n)  # sizes[r, i]: size of the block i is first of
        bad = (sizes > 3).any(axis=1) | (
            (sizes * (sizes - 1) // 2).sum(axis=1) != active.sum(axis=1))
        bad |= _substitution_faults(lat, lab, ~first & ~bad[:, None])
        canon = _numbered(lab)
        if bad.any():
            r = int(bad.argmax())
            out[s:s + r] = canon[:r]
            related = {frozenset(pairs[k]) for k in np.flatnonzero(active[r]).tolist()}
            return out[:s + r], _beta_fault(lat, related, canon[r])
        out[s:s + m] = canon
    return out, None


def _substitution_faults(lat: FiniteLattice, lab: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """For each row of a label matrix whose labels are least block
    elements, whether some element marked in ``moved`` has a join or meet
    in another block than the same join or meet of its block's least
    element; the marked entries go in chunks of ``_CHUNK // n``."""
    n = lab.shape[1]
    flat = lab.ravel()
    where_r, where_x = np.nonzero(moved)
    bad = np.zeros(len(lab), dtype=bool)
    step = max(1, _CHUNK // n)
    for s in range(0, len(where_r), step):
        r, x = where_r[s:s + step], where_x[s:s + step]
        y = lab[r, x]
        offset = (r * n)[:, None]
        for table in (lat.join, lat.meet):
            bad[r[(flat[offset + table[x]] != flat[offset + table[y]]).any(axis=1)]] = True
    return bad


def _beta_fault(lat: FiniteLattice, related, labels: np.ndarray) -> AssemblyNotALattice:
    """The error of a beta_H row that the vectorised checks reject, named in
    the scalar order: blocks by least element, each first for its size,
    then its pairs for transitivity (is the pair in ``related``) and the
    chain condition; then the substitution witness of ``is_congruence``."""
    blocks: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        blocks.setdefault(label, []).append(i)
    names = lat.elements
    for block in blocks.values():
        if len(block) > 3:
            return AssemblyNotALattice(tuple(names[i] for i in block),
                                       "down-set congruence block too large")
        for a, b in itertools.combinations(block, 2):
            if frozenset((a, b)) not in related:
                return AssemblyNotALattice((names[a], names[b]), "down-set relation not transitive")
            if not (lat.leq[a, b] or lat.leq[b, a]):
                return AssemblyNotALattice((names[a], names[b]),
                                           "down-set congruence block not a chain")
    _, witness = is_congruence(lat, labels)
    return AssemblyNotALattice(witness, "down-set relation fails substitution")

