"""Matrix kernels of verification.

``verify`` checks the correspondence between Con K and the down sets of
the interior.  The functions here do that work for all congruences, or
all down sets, at once, and return matrices, never one object per row:
:func:`con_facts` reads the flags and bases of Con K from its word rows
over J(K) (``ConAnalysis.word_flags``), with no label matrix, and finds
each base among the down sets of the interior, and :func:`beta_labels`
computes the label row of beta_H for every row of a down-set membership
matrix with one kernel.  Congruence and down-set objects are built only
by the public API (``phi``, ``beta_H``, ``all_congruences``, ...) and
for failure witnesses.  Work runs in chunks of rows of at most
``order._CHUNK`` elements.  A failure is named by examining only the
first failing row, in the order a scalar loop would have met it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .congruence import _label_dtype, _numbered, is_congruence
from .errors import AssemblyNotALattice
from .lattice import FiniteLattice
from .order import _CHUNK, RowIndex, _member_names

if TYPE_CHECKING:  # pragma: no cover
    from .construction import ConstructionResult


@dataclass(frozen=True, eq=False)
class ConFacts:
    """Con K as word rows over J(K), and what phi's forward map and the
    per-congruence stages of verify read of them.

    ``words`` holds one row per congruence (``ConAnalysis.words``), in
    ascending order of the masks; that is the row order of every field.
    ``index`` finds a congruence's row by its word row, and :meth:`rows`
    does so for congruences that must be in Con K, so a stage finds a
    row from a mask.  ``zero``, ``one`` and ``isolating`` flag the bound
    and the I-congruences; ``base[r]`` marks the interior elements (in
    ``source.interior`` order) whose anchor pair row r collapses, which
    is ``congruence.base`` on the isolating rows, and ``base_row[r]`` is
    the row of that base in the result's ``interior_down_sets``, or -1
    where it is not a down set of the interior.  There is no label
    matrix: Con K in ``all_congruences`` order, with its labels, is
    rebuilt only by ``phi`` and to name a failure.  It holds no
    reference to the result that caches it, so the two form no cycle.
    """

    interior: tuple[str, ...]
    words: np.ndarray
    index: RowIndex
    zero: np.ndarray
    one: np.ndarray
    isolating: np.ndarray
    base: np.ndarray
    base_row: np.ndarray

    def rows(self, words: np.ndarray) -> np.ndarray:
        """The row of each congruence given by its word row.  Raises
        KeyError if one is not in Con K, which only a fault of the engine
        can cause: a stage that reads the row fails rather than reading
        row -1."""
        rows = self.index.find(words)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            raise KeyError(f"{missing.size} of {len(rows)} congruences not in Con K, "
                           f"first at query row {int(missing[0])}")
        return rows

    def base_of(self, r: int) -> tuple[str, ...]:
        """``congruence.base`` of congruence r."""
        return _member_names(self.interior, self.base[r])


def con_facts(result: ConstructionResult) -> ConFacts:
    """The :class:`ConFacts` of an assembled lattice, from the congruence
    masks of its analysis and the down sets of its interior.  An anchor
    pair (a, b) is collapsed iff (a ^ b, a v b) is."""
    lat = result.lattice
    an = lat.con_analysis
    words = an.words(an.con_set())
    words = words[np.lexsort(words.T)]  # the last word is the most significant
    a, b = result.anchor_columns
    zero, one, isolating, base = an.word_flags(words, lat.meet[a, b], lat.join[a, b])
    return ConFacts(result.source.interior, words, RowIndex(words), zero, one, isolating,
                    base, RowIndex(result.interior_down_sets).find(base))


def beta_labels(lat: FiniteLattice, contributions,
                members) -> tuple[np.ndarray, AssemblyNotALattice | None]:
    """Canonical label rows of beta_H for each row of a membership matrix,
    and the error of the first row that fails, if any.

    Column i of ``members`` stands for an interior element that adds the
    lattice index pairs ``contributions[i]`` when it is in H.  Once per
    call, each contributed pair k is oriented a_k <= b_k where it is
    comparable, and ``span[k]`` = |[a_k, b_k]| counts the elements
    between, which is 0 iff the pair is incomparable.  For every row at
    once, in chunks of rows so that no temporary exceeds ``_CHUNK``
    elements by more than one row:

    1. a pair is active iff some member contributes it: the product of
       the rows with the member x pair contribution matrix is positive.
       It is taken in float32, which BLAS multiplies, where a boolean
       product runs as scalar loops; it is exact, as each entry counts
       members and stays below 2^24;
    2. labels start as the element positions and every element takes the
       least label across its active pairs until nothing changes, so
       each block ends labelled by its least element, as with
       ``congruence._merge``; numbering those by position is the
       canonical form;
    3. a block may hold at most three elements, and the relation is
       transitive iff the sum of C(s, 2) over the block sizes s equals
       the number of distinct active pairs, because every active pair
       lies inside a block;
    4. when 3 holds, every pair inside a block is active.  So a block is
       a chain iff all its active pairs are comparable.  A chain block B
       with ends u < v lies in [u, v], so it is an interval iff
       |[u, v]| <= |B|; (u, v) is one of its pairs, and [a_k, b_k] lies
       in [u, v] for every other, so that holds iff no active pair has a
       span above the size of its block;
    5. blocks that are intervals form a congruence iff the triples of
       the Technical Lemma below hold.  Its premises, x covered by y in
       one block, are the active pairs of span 2.  Premise k brings the
       triples (z, y v z) for the upper covers z /= y of x, and
       (z, x ^ z) for the lower covers z /= x of y, all listed once from
       ``lat.poset.covers()``; a row fails where a premise is active and
       the two ends of one of its triples are in different blocks.

    A congruence class of a finite lattice is an interval, and an
    interval of at most three elements is a chain, so 4 rejects no
    congruence; after 3 and 4, 5 rejects exactly the rows that are not
    congruences.  So a row passes iff it passes 3 and is a congruence.

    *Technical Lemma* (G. Gratzer, Algebra Universalis 72 (2014); also in
    The Congruences of a Finite Lattice, 2nd ed., Birkhauser 2016).  Write
    x ~ y for "in one block".  An equivalence of a finite lattice whose
    blocks are intervals is a congruence iff, whenever x is covered by y
    and x ~ y, z ~ y v z for every upper cover z /= y of x and
    z ~ x ^ z for every lower cover z /= x of y.  Proof.  A congruence
    has the property: z = x v z ~ y v z and z = y ^ z ~ x ^ z.
    Conversely, we show that x ~ y implies x v t ~ y v t for every t;
    meets are dual.  A block is an interval, so with x and y it holds
    x ^ y and every maximal chain from x ^ y to x or to y; by
    transitivity along those chains it is enough to take x covered by y.
    Induct on |up(x)|.  Let t' = x v t, so that x v t = t' and
    y v t = y v t'.  If t' = x, then y v t' = y ~ x = t'; if t' >= y,
    then y v t' = t'.  Otherwise some upper cover z of x lies below t',
    and z /= y since t' is not above y, so z ~ w := y v z.  Each cover
    c < d on a maximal chain from z to w lies in z's block and has
    c > x, so |up(c)| < |up(x)| and, by induction, c v t' ~ d v t'.
    Hence t' = z v t' ~ w v t' = y v t'.

    Rows up to the first failing one are returned, with that row's
    error, named by the scalar checks in their order: blocks by least
    element, size, then each pair for transitivity and the chain
    condition, then ``is_congruence``'s witness.
    """
    n = lat.n
    rows = np.asarray(members, dtype=bool)
    dtype = _label_dtype(n)
    lo, hi, adds = _contributed(n, contributions)
    if not len(lo):  # no member adds a pair: every row is the zero congruence
        return np.broadcast_to(np.arange(n, dtype=dtype), (len(rows), n)).copy(), None
    # the pairs at each endpoint, grouped for one reduceat per step
    ends = np.concatenate([lo, hi])
    by_end = np.argsort(ends, kind="stable")
    touched, starts = np.unique(ends[by_end], return_index=True)
    pair_at = by_end % len(lo)
    span, premise, tz, tw = _pair_constants(lat, lo, hi)
    iota = np.arange(n)
    out = np.empty((len(rows), n), dtype=dtype)
    weights = adds.astype(np.float32)
    step = max(1, _CHUNK // max(n, 2 * len(lo), len(premise)))
    for s in range(0, len(rows), step):
        active = rows[s:s + step].astype(np.float32) @ weights > 0
        m = len(active)
        lab = np.broadcast_to(iota, (m, n)).copy()
        while True:
            low = np.where(active, np.minimum(lab[:, lo], lab[:, hi]), n)
            low = np.minimum.reduceat(low[:, pair_at], starts, axis=1)
            cur = lab[:, touched]
            if not (low < cur).any():
                break
            lab[:, touched] = np.minimum(cur, low)
        flat = lab + n * np.arange(m)[:, None]  # each entry's block as a flat index
        sizes = np.bincount(flat.ravel(), minlength=m * n)
        block = sizes.reshape(m, n)  # block[r, i]: size of the block i is first of
        bad = (block > 3).any(axis=1) | (
            (block * (block - 1) // 2).sum(axis=1) != active.sum(axis=1))
        bad |= (active & ((span == 0) | (span > sizes[flat[:, lo]]))).any(axis=1)
        bad |= (active[:, premise] & (lab[:, tz] != lab[:, tw])).any(axis=1)
        canon = _numbered(lab)
        if bad.any():
            r = int(bad.argmax())
            out[s:s + r] = canon[:r]
            k = np.flatnonzero(active[r])
            related = {frozenset(p) for p in zip(lo[k].tolist(), hi[k].tolist())}
            return out[:s + r], _beta_fault(lat, related, canon[r])
        out[s:s + m] = canon
    return out, None


def _contributed(n: int, contributions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs of distinct positions in ``contributions``, as
    sorted (lo, hi) arrays with lo < hi, and the contribution x pair
    matrix of which contribution holds which pair."""
    counts = [len(c) for c in contributions]
    ends = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(contributions)),
                       dtype=np.intp, count=2 * sum(counts)).reshape(-1, 2)
    ends.sort(axis=1)
    proper = ends[:, 0] != ends[:, 1]
    keys, col = np.unique(ends[proper, 0] * n + ends[proper, 1], return_inverse=True)
    adds = np.zeros((len(contributions), len(keys)), dtype=bool)
    adds[np.repeat(np.arange(len(contributions)), counts)[proper], col] = True
    lo, hi = np.divmod(keys, n)
    return lo, hi, adds


def _pair_constants(lat: FiniteLattice, lo: np.ndarray, hi: np.ndarray):
    """For pairs (lo[k], hi[k]) of lattice positions: ``span[k]``, the size
    of the interval between the two, 0 if they are incomparable; and the
    Technical Lemma's triples of :func:`beta_labels` as three arrays, one
    entry per triple: the premise pair k, z, and y v z or x ^ z."""
    n, leq = lat.n, lat.leq
    down = leq[hi, lo]
    a, b = np.where(down, hi, lo), np.where(down, lo, hi)
    step = max(1, _CHUNK // n)
    span = np.concatenate([np.count_nonzero(leq[a[s:s + step]] & leq[:, b[s:s + step]].T, axis=1)
                           for s in range(0, len(a), step)])
    k = np.flatnonzero(span == 2)
    # each cover (c, d) is listed under c, among the upper covers of c, and
    # under n + d, among the lower covers of d; the first len(k) keys look
    # up each premise's x = a[k], the others its n + y = n + b[k]
    cov = np.fromiter(itertools.chain.from_iterable(lat.poset.covers()), dtype=np.intp)
    cov = cov.reshape(-1, 2)
    at = np.concatenate([cov[:, 0], n + cov[:, 1]])
    by_at = np.argsort(at, kind="stable")
    at, other = at[by_at], np.concatenate([cov[:, 1], cov[:, 0]])[by_at]
    keys = np.concatenate([a[k], n + b[k]])
    first = np.searchsorted(at, keys)
    count = np.searchsorted(at, keys, side="right") - first
    owner = np.repeat(np.arange(len(keys)), count)
    z = other[np.arange(len(owner)) + np.repeat(first - np.cumsum(count) + count, count)]
    premise = np.concatenate([k, k])[owner]
    upper = owner < len(k)
    keep = z != np.where(upper, b[premise], a[premise])  # z /= y above x, z /= x below y
    premise, z, upper = premise[keep], z[keep], upper[keep]
    w = np.where(upper, lat.join[b[premise], z], lat.meet[a[premise], z])
    return span, premise, z, w


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

