"""Congruences of finite lattices.

Inside the engine a congruence theta is one int bitmask over the
join-irreducibles J(L): bit k is set iff theta collapses the k-th
join-irreducible j with its unique lower cover j_.  Join is OR and
refinement is the subset test.  :class:`ConAnalysis` builds, once per
lattice, the masks of the |J(L)| congruences con(j_, j) from the
join-dependency relation on J(L) and its transitive closure, and from
them Con L (the OR-closure), every principal congruence con(a, b) (the
OR over the j below b and not below a) and the valuation (breadth-first
ORs); its docstring proves the facts used.

At the API boundary a congruence is a :class:`CongruenceRelation`, a
canonical label vector: ``labels[i]`` is the block id of element ``i``,
with blocks numbered by first occurrence.  :func:`principal_congruence`,
:func:`join_congruences` and :func:`congruence_leq` read masks too: the
label vector of con(x ^ y, x v y), that of the OR of two masks, and the
subset test.  The worklist closure on label vectors, which needs only
the join and meet tables, is the independent oracle in
``tests/reference.py`` that the tests check the analysis against; the
package does not run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotICongruence, ValuationDiverged
from .lattice import FiniteLattice
from .order import (
    _CHUNK,
    Poset,
    _bit_words,
    _blas_rows,
    _freeze,
    _int_words,
    _member_names,
    _transitive_closure,
    _word_ints,
)

if TYPE_CHECKING:  # pragma: no cover
    from .construction import ConstructionResult


@dataclass(frozen=True, eq=False)
class CongruenceRelation:
    """A partition of a lattice's elements with the substitution property."""

    lattice: FiniteLattice
    labels: tuple[int, ...]

    def blocks(self) -> list[tuple[str, ...]]:
        """Blocks as sorted name tuples, ordered by least element name."""
        by_label: dict[int, list[str]] = {}
        for i, l in enumerate(self.labels):
            by_label.setdefault(l, []).append(self.lattice.elements[i])
        return sorted((tuple(sorted(b)) for b in by_label.values()), key=lambda b: b[0])

    def collapses(self, x: str, y: str) -> bool:
        return self.labels[self.lattice.index(x)] == self.labels[self.lattice.index(y)]

    @property
    def n_blocks(self) -> int:
        return len(set(self.labels))

    def is_zero(self) -> bool:
        return self.n_blocks == self.lattice.n

    def is_one(self) -> bool:
        return self.n_blocks == 1

    def __eq__(self, other):
        return (
            isinstance(other, CongruenceRelation)
            and self.lattice == other.lattice
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"CongruenceRelation({self.n_blocks} blocks on {self.lattice.n} elements)"


@dataclass(frozen=True)
class ConOrder:
    """Every congruence of a lattice, ordered by block count (most first).

    Only the zero congruence has |L| blocks and only the one congruence
    has one, so they are the first and the last.
    """

    lattice: FiniteLattice
    congruences: tuple[CongruenceRelation, ...]

    @property
    def leq(self) -> np.ndarray:
        """The refinement order, |Con L| x |Con L|; built on first use."""
        return self.lattice.con_analysis.con_leq

    @property
    def zero(self) -> CongruenceRelation:
        return self.congruences[0]

    @property
    def one(self) -> CongruenceRelation:
        return self.congruences[-1]

    def __len__(self):
        return len(self.congruences)


@dataclass(frozen=True)
class PrincOrder:
    """The principal congruences, each with one witnessing generator pair."""

    lattice: FiniteLattice
    congruences: tuple[CongruenceRelation, ...]
    witnesses: tuple[tuple[str, str], ...]
    leq: np.ndarray

    def __len__(self):
        return len(self.congruences)

    def as_poset(self) -> Poset:
        """The order as a poset on ``pc0, pc1, ...``, in congruence order."""
        names = tuple(f"pc{i}" for i in range(len(self.congruences)))
        return Poset(names, _freeze(self.leq.copy()))


@dataclass(frozen=True)
class Valuation:
    """v(theta) = least number of principal congruences joining to theta."""

    con_order: ConOrder
    values: tuple[int, ...]


def _con_mask(lat: FiniteLattice, i: int, j: int) -> int:
    """The mask of con(i, j) = con(i ^ j, i v j), for positions i and j,
    read from the lattice's analysis."""
    return lat.con_analysis.principal(int(lat.meet[i, j]), int(lat.join[i, j]))


def _lattice_of(a: CongruenceRelation, b: CongruenceRelation) -> FiniteLattice:
    """The lattice of two congruences, which must be the same."""
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise ValueError(f"congruences of two lattices: {a.lattice!r} and {b.lattice!r}")
    return a.lattice


def principal_congruence(lat: FiniteLattice, x: str, y: str) -> CongruenceRelation:
    """The smallest congruence collapsing x and y, con(x ^ y, x v y)."""
    mask = _con_mask(lat, lat.index(x), lat.index(y))
    return CongruenceRelation(lat, lat.con_analysis.labels(mask))


def join_congruences(a: CongruenceRelation, b: CongruenceRelation) -> CongruenceRelation:
    """The smallest congruence above both: the OR of their masks."""
    lat = _lattice_of(a, b)
    an = lat.con_analysis
    ma, mb = _word_ints(an.label_words([a.labels, b.labels]))
    return CongruenceRelation(lat, an.labels(ma | mb))


def _label_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype holding the labels of an n-element lattice."""
    return np.min_scalar_type(max(n - 1, 0))


def _block_firsts(labels: np.ndarray) -> np.ndarray:
    """``first[r, i]``: the first element of i's block under row r of a label matrix.

    ``labels`` may also be a stack of label matrices, k x rows x n, read
    as one key of k words per entry.  A stable sort of each row lists
    every block's elements together and in index order, so the first slot
    of a block holds its first element.  Rows go in chunks of ``_CHUNK``
    entries, and ``first`` is in ``_label_dtype(n)``: no temporary is
    larger than a chunk, and the result is no wider than the labels of an
    n-element lattice.
    """
    keys = labels[None] if labels.ndim == 2 else labels
    words, m, n = keys.shape
    first = np.empty((m, n), dtype=_label_dtype(n))
    step = max(1, _CHUNK // max(words * n, 1))
    cols = np.arange(n)
    for s in range(0, m, step):
        chunk = keys[:, s:s + step]
        rows = np.arange(chunk.shape[1])[:, None]
        order = np.lexsort(chunk, axis=-1)
        grouped = chunk[:, rows, order]
        starts = np.ones(order.shape, dtype=bool)
        starts[:, 1:] = (grouped[:, :, 1:] != grouped[:, :, :-1]).any(axis=0)
        slot = np.where(starts, cols, 0)
        np.maximum.accumulate(slot, axis=1, out=slot)  # the block's first slot, for each slot
        first[s + rows, order] = order[rows, slot]
    return first


def _numbered(first: np.ndarray) -> np.ndarray:
    """Canonical label rows from :func:`_block_firsts`: blocks numbered by
    first occurrence, counting the first elements up to each one."""
    firsts = np.cumsum(first == np.arange(first.shape[1]), axis=1) - 1
    return np.take_along_axis(firsts, first, axis=1)


def is_congruence(lat: FiniteLattice, labels) -> tuple[bool, tuple[str, str, str] | None]:
    """Exhaustive substitution-property check of a partition.

    Returns (ok, witness); the witness is a triple (x, y, z) with x = y
    mod the partition but x v z /= y v z (or the meet analogue): the
    first x, with y the first element of its block, then joins before
    meets, then the first z.  All elements are compared with the first
    of their block at once, one table row each.
    """
    lab = np.asarray(labels)
    first = _block_firsts(lab[None])[0]
    rows = np.flatnonzero(first != np.arange(lat.n))
    bad = [lab[t[rows]] != lab[t[first[rows]]] for t in (lat.join, lat.meet)]
    hit = np.flatnonzero(bad[0].any(axis=1) | bad[1].any(axis=1))
    if not hit.size:
        return True, None
    k = int(hit[0])
    row = bad[0][k] if bad[0][k].any() else bad[1][k]
    x, z = int(rows[k]), int(row.argmax())
    return False, (lat.elements[x], lat.elements[int(first[x])], lat.elements[z])


def congruence_leq(a: CongruenceRelation, b: CongruenceRelation) -> bool:
    """Refinement: every a-block lies inside a b-block, i.e. the mask of a
    is a subset of the mask of b."""
    words = _lattice_of(a, b).con_analysis.label_words([a.labels, b.labels])
    return not (words[0] & ~words[1]).any()


def cover_principals(lat: FiniteLattice) -> dict[tuple[int, int], CongruenceRelation]:
    """Principal congruences of all prime intervals (deduplicated keys kept)."""
    an = lat.con_analysis
    return {(i, j): CongruenceRelation(lat, an.labels(an.principal(i, j)))
            for i, j in lat.poset.covers()}


def _subset_matrix(words: np.ndarray) -> np.ndarray:
    """Read-only ``leq[x, y]`` iff word row x is a subset of word row y.

    Filled a row at a time, so no temporary is larger than the word rows.
    """
    outside = ~words
    leq = np.empty((len(words), len(words)), dtype=bool)
    for x, row in enumerate(words):
        leq[x] = ~(outside & row).any(axis=1)
    leq.setflags(write=False)
    return leq


def order_mismatch(labels, members) -> tuple[int, int] | None:
    """The first pair (a, b), row-major, where refinement and containment disagree.

    ``labels`` has one label vector per row, ``members`` one boolean row
    per label row.  "Row a refines row b" is read from the label vectors
    alone, not from the lattice's ``ConAnalysis``: it holds iff every
    element has, under b, the label of the first element of its a-block.
    Row a of ``members`` is contained in row b iff it has no True outside
    it.  Filled a row at a time: no temporary is larger than len(labels)
    x |L| or len(labels) x width.
    """
    labels = np.asarray(labels)
    members = np.asarray(members, dtype=bool)
    outside = ~members
    first = _block_firsts(labels)
    for a in range(len(labels)):
        refines = (labels == labels[:, first[a]]).all(axis=1)
        contained = ~(outside & members[a]).any(axis=1)
        bad = np.flatnonzero(refines != contained)
        if bad.size:
            return a, int(bad[0])
    return None


def principal_certificate(words, members, principal) -> bool:
    """Whether the subset order of word rows and containment agree on all
    pairs, checked against the principal rows only.

    ``words`` has one row of 64-bit words per row of ``members``, read as
    a set of bits; row a is below row b iff a & ~b is zero in every word.
    For each column p, D_p is row ``principal[p]``, which the caller
    finds once as the smallest row holding p
    (:func:`princlat.order.principal_rows`): down p, when the rows are
    the down sets of a poset on the columns.  Writing
    theta_H for the word row of row H, the certificate holds iff, for
    every row H and column p,

      (a) theta_H is the OR of theta_{D_p} over the p in H, and
      (b) theta_{D_p} <= theta_H iff p is in H.

    Proof that it is sufficient, for any rows.  If H is contained in H',
    the OR over H is a subset of the OR over H', so theta_H <= theta_H'
    by (a).  If p is in H but not in H', then theta_{D_p} <= theta_H and
    theta_{D_p} is not <= theta_H' by (b), so theta_H is not
    <= theta_H'.  Only set algebra and transitivity of the subset order
    are used.  It is also necessary when the rows are all the down sets
    of a poset, or all the nonempty ones, and each theta_H is the OR of
    the theta_{down p}, p in H: then (a) is that union, and down p is
    contained in H iff p is in H, so an embedding satisfies (b).  On
    other families the certificate may fail where the order embeds, and
    :func:`order_mismatch` decides.  On the word rows of congruences
    (:meth:`ConAnalysis.label_words`), subset is refinement, by the
    lemma in :class:`ConAnalysis`.

    The inputs keep their order and nothing sorts them.  The n principal
    word rows are gathered once; then the rows go in chunks of at most
    ``_CHUNK`` words across all p, with one pass of (a) and (b) each, so
    no temporary outgrows a chunk by more than one row's n words, beyond
    a vector of one entry per row.
    """
    members = np.asarray(members, dtype=bool)
    words = np.asarray(words)
    m, n = members.shape
    low = words[principal]  # the smallest row holding each p
    step = max(1, _CHUNK // max(n * words.shape[1], 1))
    for s in range(0, m, step):
        rows, held = words[s:s + step], members[s:s + step]
        union = np.bitwise_or.reduce(low * held[:, :, None], axis=1)  # (a)
        below = ~(low & ~rows[:, None, :]).any(axis=2)  # (b): below[r, p] iff D_p's row <= row r
        if not (np.array_equal(union, rows) and np.array_equal(below, held)):
            return False
    return True


def _dependency(lat: FiniteLattice, joinirr, lower_cover, below: np.ndarray) -> np.ndarray:
    """``dep[k, j]`` iff joinirr[j] D joinirr[k], for the join-irreducibles
    of ``lat``, their lower covers and ``below[x, k]`` iff joinirr[k] <= x:
    row k is (C[k] - C[k_]) below > 0, as :class:`ConAnalysis` defines and
    proves it, a block of k at a time."""
    n = lat.n
    js, los = (np.array(ks, dtype=np.intp) for ks in (joinirr, lower_cover))
    weights = below.astype(np.float32)
    dep = np.empty((len(js), len(js)), dtype=bool)
    step = _blas_rows(n, len(js))
    for s in range(0, len(js), step):
        slots = np.arange(len(js[s:s + step]))[:, None] * n  # n count slots per k
        cj, clo = (np.bincount((lat.join[ks] + slots).ravel(), minlength=slots.size * n)
                   for ks in (js[s:s + step], los[s:s + step]))
        dep[s:s + step] = (cj - clo).reshape(-1, n).astype(np.float32) @ weights > 0
    return dep


class ConAnalysis:
    """Con L, Princ L and the valuation of one lattice, over J(L) bitmasks.

    Let J be the join-irreducibles of L (one lower cover ``j_``), bit k
    standing for ``joinirr[k]``.  A congruence theta is stored as the mask
    M(theta) = {j : j_ theta j}.  The engine rests on (*) and (**) below.  For a <= b,

        con(a, b) = join of con(j_, j) over j in J with j <= b, j not <= a.   (*)

    Proof.  If a theta b and j <= b, j not <= a, then j ^ a theta j ^ b = j
    and j ^ a <= j_ < j, so j_ theta j by convexity of blocks.  Conversely,
    if theta contains every such con(j_, j), show j v a theta a for every
    j in J below b, by induction on j: clear for j <= a; otherwise j theta
    j_, and j_ is the join of join-irreducibles below b strictly under j,
    each with k v a theta a, so j v a theta j_ v a theta a.  Joining over
    the j below b gives b theta a.

    Consequences used here, with J(x) = {j in J : j <= x}:

    * Lemma: theta <= psi iff M(theta) is a subset of M(psi); so
      theta = psi iff their masks are equal.  Proof, from (*) alone:
      theta is the join of the con(a, b) with a <= b and a theta b, and
      by (*) each is the join of the con(j_, j) with j in J(b) minus
      J(a), where each such j has j_ theta j (the first step of the
      proof of (*)).  So theta is the join of con(j_, j) over M(theta),
      and theta <= psi iff psi collapses j_ and j for every j in
      M(theta).  The proof does not use D* below.  Verification relies
      on it: ``construction`` compares Con K and the rows of beta_H as
      word rows (:meth:`words`, :meth:`label_words`), where equal rows
      are equal congruences (phi's round trip) and the subset order is
      refinement (:func:`principal_certificate`).
    * Each con(j_, j) is join-irreducible in Con L (a chain of theta and
      psi steps from j_ to j, moved into [j_, j] by z -> (z v j_) ^ j, has
      a step from j_ to j), hence join-prime, Con L being distributive.
      So M(theta v psi) = M(theta) | M(psi): join is OR, and Con L is the
      OR-closure of the masks cm[k] of the con(j_, j).
    * con(a, b) has mask OR{cm[k] : k in J(b) minus J(a)} by (*).
    * Blocks: let r(x) = J(x) minus M.  For a <= b, a theta b iff J(b)
      minus J(a) lies in M, i.e. r(a) = r(b).  x theta y iff x and y are
      both congruent to x ^ y, and r(x ^ y) = r(x) & r(y), so x theta y
      iff r(x) = r(y).  Numbering the distinct r(x) by first occurrence
      gives the canonical label vector.

    The masks cm[k] come from the dependency relation on J (Day, Canad.
    J. Math. 31, 1979; Freese, "Computing congruences efficiently",
    Algebra Universalis 59, 2008), not from closures: j D k iff some x in
    L has j <= k v x and j not <= k_ v x.  D is reflexive (take x = 0),
    and with D* its transitive closure,

        con(j_, j) <= con(k_, k)  iff  j D* k,                          (**)

    so cm[k] = {j : j D* k}.  Both directions use that J(j) minus J(j_)
    = {j}: a join-irreducible strictly below j is below j_.

    Proof of "if".  D* chains compose, so take j D k, witnessed by x,
    and theta = con(k_, k).  Then k_ v x theta k v x; meeting with j,
    j ^ (k_ v x) theta j ^ (k v x) = j.  The left side is below j and not
    j, so at most j_, and j_ theta j by convexity of blocks.

    Proof of "only if".  Let M = {j : j D* k} and x ~ y iff r(x) = r(y),
    with r(x) = J(x) minus M.  By the fact above ~ holds on (k_, k), as
    k is in M, and on (j_, j) only for j in M.  So if ~ is a congruence,
    con(j_, j) <= con(k_, k) <= ~ puts j in M.  It is an equivalence,
    and r(x ^ y) = r(x) & r(y) makes it respect meets.  For joins, as
    x ~ x ^ x' ~ x' when x ~ x', take x' <= x with J(x) minus J(x') in
    M, and show r(x v y) = r(x' v y) by induction on |J(x) minus J(x')|
    (at 0, x = x').  Let k' be minimal in J(x) minus J(x').  The
    join-irreducibles strictly below k' lie in J(x'), by minimality, so
    k'_ <= x'.  x'' = x' v k' is between x' and x and k' is in J(x''),
    so r(x v y) = r(x'' v y) by induction.  With w = x' v y >= k'_,
    every j in J below k' v w and not below w = k'_ v w has j D k', so
    j is in M (k' is); hence r(x'' v y) = r(k' v w) = r(w) = r(x' v y).

    D is one matrix product.  Let C[k, z] = #{x in L : k v x = z}, and
    below[z, j] = 1 if j <= z, else 0.  Then

        ((C[k] - C[k_]) below)[j] = sum over x of (below[k v x, j] - below[k_ v x, j]),

    and k_ <= k makes k_ v x <= k v x, so each term is 0 or 1, and 1
    exactly when x witnesses j D k: j D k iff the entry is positive.
    The product is taken in float32, which BLAS multiplies.  It is exact:
    BLAS forms each entry as a sum of terms (C[k, z] - C[k_, z])
    below[z, j] over z, grouped in some order, so every partial sum is
    the sum of those terms over a set Z of z.  That is #{x : k v x in Z,
    j <= k v x} minus #{x : k_ v x in Z, j <= k_ v x}, a difference of
    two integers in [0, |L|]; each term and each count lies in the same
    range.  So every value BLAS forms is an integer of size at most |L|,
    which float32 holds exactly for |L| < 2^24.  Each row C[k] is one
    ``bincount`` of the join table row of k, for a block of k at a time
    (:func:`princlat.order._blas_rows`), and below is converted to
    float32 once.  D* comes from
    :func:`princlat.order._transitive_closure`, by squaring.  The
    label-vector worklist closure, the oracle in ``tests/reference.py``,
    is what the tests compare cm against.

    A congruence also has a word row: M(theta) as ``uint64`` words, in
    the layout that the word-row functions of :mod:`princlat.order` own
    (``_bit_words``, ``_word_ints``, ``_int_words``), bit k for
    joinirr[k].  :meth:`words` gives the rows of masks, :meth:`label_words`
    those of label vectors, and :meth:`word_flags` reads, from word rows, which
    congruences are zero, one and isolating and which pairs they
    collapse.  Con L and Princ L are also kept as label matrices in
    ConOrder order, one canonical label vector per mask, built for all
    masks at once (``_ordered``), for the public API and for naming a
    failure of verify.

    Built once per lattice (``FiniteLattice.con_analysis``); the public
    functions of this module are views of it.  It holds ints, tuples,
    arrays and the lattice's poset, never the lattice itself: a reference
    back would make a cycle that keeps every analysed lattice alive until
    the cyclic garbage collector runs.  Nothing it holds depends on the
    order of calls: :meth:`principal` keeps no memo, and each cached
    property is a function of the lattice alone.
    """

    def __init__(self, lat: FiniteLattice):
        self.poset = lat.poset
        self.bottom = lat.bottom
        lower: dict[int, list[int]] = {}
        for i, j in lat.poset.covers():
            lower.setdefault(j, []).append(i)
        self.joinirr = tuple(j for j in range(lat.n) if len(lower.get(j, ())) == 1)
        self.lower_cover = tuple(lower[j][0] for j in self.joinirr)
        zero = lat.index(lat.bottom)
        self.atom_mask = sum(1 << k for k, c in enumerate(self.lower_cover) if c == zero)
        self.coatoms = tuple(lower.get(lat.index(lat.top), ()))  # positions
        below = lat.leq[list(self.joinirr)].T  # below[x, k]: joinirr[k] <= x
        self._jwords = _bit_words(below)  # J(x) as a word row, for each element x
        self.jbelow = _word_ints(self._jwords)
        dep = _dependency(lat, self.joinirr, self.lower_cover, below)
        self.cm = _word_ints(_bit_words(_transitive_closure(dep)))  # row k: {j : j D* k}

    def labels(self, mask: int) -> tuple[int, ...]:
        """The canonical label vector of one congruence mask (see above)."""
        ids: dict[int, int] = {}
        return tuple(ids.setdefault(jb & ~mask, len(ids)) for jb in self.jbelow)

    def words(self, masks) -> np.ndarray:
        """The word rows of congruence masks, one per mask, in the
        iteration order of ``masks`` (a sized collection of ints)."""
        return _int_words(masks, len(self.joinirr))

    def label_words(self, labels) -> np.ndarray:
        """The word rows of a label matrix: bit k of row r is set iff row r
        gives joinirr[k] and its lower cover one label.  On the label
        vector of a congruence theta that is the row of M(theta).  The
        2 |J| gathered columns go in chunks of ``_CHUNK`` labels."""
        labels = np.asarray(labels)
        j, lo = (np.array(ks, dtype=np.intp) for ks in (self.joinirr, self.lower_cover))
        out = np.empty((len(labels), self._jwords.shape[1]), dtype=np.uint64)
        step = max(1, _CHUNK // max(2 * len(j), 1))
        for s in range(0, len(labels), step):
            chunk = labels[s:s + step]
            out[s:s + step] = _bit_words(chunk[:, j] == chunk[:, lo])
        return out

    def word_flags(self, words, lo=(), hi=()):
        """For congruences given as word rows: which are zero, which are
        one, which are isolating (nonzero, holding the bottom and the top
        each in a block of its own, as :func:`is_I_congruence` reads it),
        and, for pairs of positions lo[i] <= hi[i], ``collapsed[r, i]``
        iff congruence r collapses the pair.

        Read from r(x) = J(x) minus M, as above: the congruence is zero iff
        M is empty and one iff M is J (it then collapses every j with
        j_, and so 0 with 1 by (*)); lo theta hi iff J(hi) minus J(lo)
        lies in M.  The isolating test reads the covers of the bounds only:

        * 0's block is {0} iff no atom is in M.  An atom a is
          join-irreducible with a_ = 0, so a in M puts a /= 0 in 0's
          block.  Conversely, x theta 0 iff r(x) = r(0), which is empty,
          i.e. J(x) lies in M; if x /= 0, some atom a <= x, and J(a) = {a}
          lies in J(x), so a is in M.
        * 1's block is {1} iff J minus J(c) is not a subset of M for any
          coatom c.  For x <= 1, x theta 1 iff r(x) = r(1), i.e.
          J minus J(x) lies in M; so a coatom c with J minus J(c) in M
          lies in 1's block.  Conversely, if x /= 1 and x theta 1, some
          coatom c >= x has J minus J(c) within J minus J(x), within M.

        So the test is one AND with the atoms' word row and one subset
        test per coatom.  Rows go in chunks of ``_CHUNK`` words across
        the coatoms and the pairs.
        """
        words = np.asarray(words)
        lo, hi = (np.asarray(x, dtype=np.intp) for x in (lo, hi))
        jw = self._jwords
        gap = jw[hi] & ~jw[lo]  # J(hi) minus J(lo), for each pair
        full = self.words([(1 << len(self.joinirr)) - 1])
        top_gap = full & ~jw[np.array(self.coatoms, dtype=np.intp)]  # J minus J(c), each coatom c
        zero = ~words.any(axis=1)
        one = (words == full).all(axis=1)
        isolating = ~zero & ~(words & self.words([self.atom_mask])).any(axis=1)
        collapsed = np.empty((len(words), len(lo)), dtype=bool)
        step = max(1, _CHUNK // max(top_gap.size + gap.size, 1))
        for s in range(0, len(words), step):
            held = ~words[s:s + step, None, :]
            isolating[s:s + step] &= (top_gap & held).any(axis=2).all(axis=1)
            collapsed[s:s + step] = ~(gap & held).any(axis=2)
        return zero, one, isolating, collapsed

    def principal(self, a: int, b: int) -> int:
        """Mask of con(a, b) for a <= b, by (*)."""
        return self._join_of(self.jbelow[b] & ~self.jbelow[a])

    def _join_of(self, diff: int) -> int:
        """The OR of cm[k] over the bits k of ``diff``: the mask of
        con(a, b) when ``diff`` is J(b) minus J(a), by (*)."""
        mask, rest = 0, diff
        while rest:
            k = (rest & -rest).bit_length() - 1
            mask |= self.cm[k]
            rest &= ~mask  # a bit already in a congruence mask adds nothing
        return mask

    def _ordered(self, masks) -> tuple[tuple[int, ...], np.ndarray]:
        """``masks`` in ConOrder order, more blocks first and then by label
        vector, with their read-only label matrix in that order.

        Row r, column x of the matrix is first r(x) = J(x) minus M, read
        as a key of 64-bit words, then numbered by first occurrence along
        the row; rows go in chunks of ``_CHUNK`` words, and one lexsort
        orders them.
        """
        masks = tuple(masks)
        jkeys = self._jwords
        held = self.words(masks)
        n = len(jkeys)
        labels = np.empty((len(masks), n), dtype=_label_dtype(n))
        step = max(1, _CHUNK // jkeys.size)
        for s in range(0, len(masks), step):
            rest = jkeys & ~held[s:s + step, None, :]  # rest[r, x]: r(x) under masks[s + r]
            labels[s:s + step] = _numbered(_block_firsts(np.moveaxis(rest, 2, 0)))
        blocks = _canonical_counts(labels)
        order = np.lexsort(tuple(labels.T[::-1]) + (-blocks,))
        return tuple(masks[i] for i in order.tolist()), _freeze(labels[order])

    def con_set(self) -> set[int]:
        """Every congruence mask, unordered; computed on each call, as only
        ``con_masks`` is kept.

        Con L is the OR-closure of the cm[k], grown one generator at a time;
        a set closed under OR that already holds a generator is closed
        under it too.
        """
        known = {0}
        for g in sorted(set(self.cm)):
            if g not in known:
                known |= {m | g for m in known}
        return known

    @cached_property
    def _con(self) -> tuple[tuple[int, ...], np.ndarray]:
        """Every congruence mask and its label row, in ConOrder order."""
        return self._ordered(self.con_set())

    @property
    def con_masks(self) -> tuple[int, ...]:
        return self._con[0]

    @property
    def con_labels(self) -> np.ndarray:
        """The label vectors of ``con_masks``, one read-only row each."""
        return self._con[1]

    @cached_property
    def con_leq(self) -> np.ndarray:
        return _subset_matrix(self.words(self.con_masks))

    @cached_property
    def princ_witnesses(self) -> dict[int, tuple[str, str]]:
        """Principal masks with first-seen witnesses, pairs (x, then y) in order.

        The pairs come from one ``nonzero`` of the order, which lists them
        row-major, less its diagonal, so no n x n strict order is built.
        Each mask is the OR over J(y) minus J(x), as in :meth:`principal`,
        computed inline and kept only as a key of the result.
        """
        p = self.poset
        els, jbelow = p.elements, self.jbelow
        found = {0: (self.bottom, self.bottom)}
        xs, ys = np.nonzero(p.leq)
        strict = xs != ys
        for x, y in zip(xs[strict].tolist(), ys[strict].tolist()):
            mask = self._join_of(jbelow[y] & ~jbelow[x])
            if mask not in found:
                found[mask] = (els[x], els[y])
        return found

    @cached_property
    def _princ(self) -> tuple[tuple[int, ...], np.ndarray]:
        return self._ordered(self.princ_witnesses)

    @property
    def princ_masks(self) -> tuple[int, ...]:
        return self._princ[0]

    @property
    def princ_labels(self) -> np.ndarray:
        """The label vectors of ``princ_masks``, one read-only row each."""
        return self._princ[1]

    @cached_property
    def princ_leq(self) -> np.ndarray:
        return _subset_matrix(self.words(self.princ_masks))

    @cached_property
    def values(self) -> dict[int, int]:
        """Valuation of every congruence mask, by breadth-first ORs.

        Layer 0 holds zero; layer k holds ORs of k principal masks.  The
        layering must stabilise within |L|^2 rounds; exceeding the cap is
        an engine-bug tripwire, not a recoverable condition.
        """
        principals = [m for m in self.princ_witnesses if m]
        values = {0: 0}
        frontier = []
        for m in principals:
            if m not in values:
                values[m] = 1
                frontier.append(m)
        total = len(self.con_masks)
        cap = self.poset.n * self.poset.n
        layer = 1
        while len(values) < total:
            layer += 1
            if layer > cap:
                raise ValuationDiverged(f"valuation layering exceeded {cap} rounds")
            new = []
            for m in frontier:
                for p in principals:
                    u = m | p
                    if u not in values:
                        values[u] = layer
                        new.append(u)
            if not new and len(values) < total:
                raise ValuationDiverged("join layering stalled before covering Con")
            frontier = new
        return values


def _relations(lat: FiniteLattice, labels: np.ndarray) -> tuple[CongruenceRelation, ...]:
    """One relation per row of a label matrix."""
    return tuple(CongruenceRelation(lat, tuple(row)) for row in labels.tolist())


def all_congruences(lat: FiniteLattice) -> ConOrder:
    """Every congruence, ordered by block count; the refinement order is lazy."""
    return ConOrder(lat, _relations(lat, lat.con_analysis.con_labels))


def principal_congruences_with_witnesses(
    lat: FiniteLattice,
) -> tuple[dict[tuple[int, ...], CongruenceRelation], dict[tuple[int, ...], tuple[str, str]]]:
    """con(x, y) for every comparable pair, with first-seen witnesses.

    Pairs are visited x first, then y, in element order; zero is
    witnessed by (bottom, bottom).
    """
    an = lat.con_analysis
    found: dict[tuple[int, ...], CongruenceRelation] = {}
    witness: dict[tuple[int, ...], tuple[str, str]] = {}
    for mask, pair in an.princ_witnesses.items():
        theta = CongruenceRelation(lat, an.labels(mask))
        found[theta.labels] = theta
        witness[theta.labels] = pair
    return found, witness


def princ_order(lat: FiniteLattice) -> PrincOrder:
    """Deduplicated principal congruences ordered by refinement."""
    an = lat.con_analysis
    return PrincOrder(lat, _relations(lat, an.princ_labels),
                      tuple(an.princ_witnesses[m] for m in an.princ_masks), an.princ_leq)


def _block_counts(labels: np.ndarray) -> np.ndarray:
    """The number of blocks of each row of a label matrix, whatever its labels."""
    ordered = np.sort(labels, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def _canonical_counts(labels: np.ndarray) -> np.ndarray:
    """:func:`_block_counts` of canonical label rows, whose blocks are
    numbered 0, 1, ... by first occurrence: each row's largest label plus
    1, with no sort."""
    return labels.max(axis=1).astype(np.intp) + 1


def _isolating(lat: FiniteLattice, labels: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """:func:`is_I_congruence` of each row of a label matrix whose row r
    has ``blocks[r]`` blocks."""
    labels = np.asarray(labels)
    single = blocks != lat.n
    for bound in (lat.bottom, lat.top):
        own = labels[:, lat.index(bound)]
        single &= np.count_nonzero(labels == own[:, None], axis=1) == 1
    return single


def is_I_congruence(lat: FiniteLattice, theta: CongruenceRelation) -> bool:
    """Nonzero, with singleton blocks at the bottom and the top."""
    labels = np.array([theta.labels])
    return bool(_isolating(lat, labels, _block_counts(labels))[0])


def _base_rows(result: "ConstructionResult", labels: np.ndarray) -> np.ndarray:
    """For each row of a label matrix, which interior elements (in
    ``source.interior`` order) have their anchor pair collapsed."""
    a, b = result.anchor_columns
    return labels[:, a] == labels[:, b]


def base(result: "ConstructionResult", beta: CongruenceRelation) -> tuple[str, ...]:
    """Interior elements whose anchor pair is collapsed by beta.

    Defined for I-congruences of an assembled lattice; the result is
    guaranteed downward closed in the source order.
    """
    if not is_I_congruence(result.lattice, beta):
        raise NotICongruence("base is defined for I-congruences only")
    return _member_names(result.source.interior, _base_rows(result, np.array([beta.labels]))[0])


def valuation(lat: FiniteLattice) -> Valuation:
    """v(theta) for every congruence of L, in ``all_congruences`` order.

    Computed by breadth-first ORs of principal masks; see
    ``ConAnalysis.values`` for the layering and its tripwires.
    """
    an = lat.con_analysis
    values = an.values
    return Valuation(all_congruences(lat), tuple(values[m] for m in an.con_masks))
