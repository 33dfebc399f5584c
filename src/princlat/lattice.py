"""Finite lattices: join/meet tables and the machinery built on them.

A lattice is a poset whose join and meet tables were computed (and the
unique-bound condition verified) by :func:`as_lattice`.  Tables are dense
index arrays; every downstream closure relies on O(1) lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NotACongruence, NotALattice
from .order import _CHUNK, Poset, _freeze, _member_names, order_iso, validate_poset


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """A finite lattice over a poset, with dense join/meet index tables."""

    poset: Poset
    join: np.ndarray
    meet: np.ndarray
    bottom: str
    top: str

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def leq(self) -> np.ndarray:
        return self.poset.leq

    def index(self, name: str) -> int:
        return self.poset.index(name)

    @cached_property
    def con_analysis(self):
        """The congruence analysis of this lattice, built on first use."""
        from .congruence import ConAnalysis  # local import to avoid a cycle

        return ConAnalysis(self)

    def __eq__(self, other):
        return isinstance(other, FiniteLattice) and self.poset == other.poset

    def __hash__(self):
        return hash(self.poset)

    def __repr__(self):
        return f"FiniteLattice({self.n} elements)"


@dataclass(frozen=True)
class IntervalEdge:
    """A prime interval: lower is covered by upper."""

    lower: str
    upper: str


def _bound_table(a: np.ndarray, down: np.ndarray, up: np.ndarray):
    """Least upper bound table of the order ``a``; None and a witness on failure.

    ``down[z]`` and ``up[y]`` count the elements below z and above y in
    ``a``.  Let U(x, y) be the common upper bounds of x and y and c the one
    with the fewest elements below it (the first of U(x, y) when elements
    are sorted by down-set size).  Every element above c is in U(x, y), so
    U(x, y) has a least element iff U(x, y) is nonempty and
    |U(x, y)| = |up(c)|; and then c is it: the least element m lies
    strictly below every other z in U(x, y), so down(m) is a proper subset
    of down(z), and m has the smallest down set.

    Each up(y), its elements numbered by position in that order, is packed
    into ``words`` 64-bit words that deal the positions out in turn:
    position i is bit i // words of word i % words.  As n <= 63 words, bit
    63 is never used.  For a word w of up(x) & up(y), popcount(w ^ (w - 1))
    is one more than its lowest set bit b, or 64 when w is 0.  So
    (popcount - 1) * words + (the word's index) is the position of the
    word's first member, b * words + index, and is at least 63 words >= n
    for an empty word.  The least of these over the words is c's position;
    when U(x, y) is empty it is past the end, and the clipped lookup gives
    an element whose up set holds at least itself, so the count of 0 fails
    the pair, as it should.  |U(x, y)| is the popcount summed over the
    words.

    Rows x go in chunks, so no temporary exceeds ``_CHUNK`` elements by
    more than one row of n x words words.  A pair fails exactly when it
    has no unique minimal common upper bound, so rows are scanned in order
    and the first failing y of the first failing row x is the first
    failure, x first, then y, of a scan of the upper triangle (a failing
    y < x would have failed as (y, x) in row y).  Meets are least upper
    bounds in the transposed order.

    The witness is (x, y, the minimal common upper bounds of x and y).
    """
    n = a.shape[0]
    words = -(-n // 63)
    order = np.argsort(down, kind="stable")
    bits = np.zeros((n, 64 * words), dtype=bool)
    a.take(order, axis=1, out=bits[:, :n])  # bits[y, i]: y <= order[i]
    rows = np.packbits(bits.reshape(n, 64, words).transpose(2, 0, 1), axis=2,
                       bitorder="little").view("<u8")[..., 0]  # rows[k, y]: word k of up(y)
    count = np.uint16 if n < 1 << 16 else np.intp  # narrow sums are about 2x faster
    position = np.int16 if words < 1 << 9 else np.intp  # holds 64 * words
    scale = position(words)
    shift = np.arange(-words, 0, dtype=position)[:, None, None]  # word index - words
    table = np.empty((n, n), dtype=np.int32)
    step = max(1, _CHUNK // max(n * words, 1))  # rows x per chunk of n x words words
    for s in range(0, n, step):
        common = rows[:, s:s + step, None] & rows[:, None, :]  # common[k, x - s, y]
        low = np.bitwise_count(common ^ (common - 1))
        cand = order.take((low * scale + shift).min(axis=0), mode="clip")
        ok = np.bitwise_count(common).sum(axis=0, dtype=count) == up[cand]
        if not ok.all():
            x, y = divmod(int(np.flatnonzero(~ok)[0]), n)  # row-major: x first, then y
            return None, (s + x, y, _minimal_bounds(a, s + x, y))
        table[s:s + step] = cand
    return table, None


def _minimal_bounds(a: np.ndarray, x: int, y: int) -> tuple[int, ...]:
    """The minimal common upper bounds of x and y in the order ``a``."""
    cand = np.flatnonzero(a[x] & a[y])
    strict = a[np.ix_(cand, cand)] & ~np.eye(cand.size, dtype=bool)
    return tuple(int(e) for e in cand[~strict.any(axis=0)])


def as_lattice(p: Poset) -> FiniteLattice:
    """Compute join and meet tables, or raise NotALattice with a witness.

    The empty order has no bounds, so it is refused as input."""
    if p.n == 0:
        raise InvalidInput("an empty order is not a lattice")
    down, up = p.leq.sum(axis=0), p.leq.sum(axis=1)
    join, bad = _bound_table(p.leq, down, up)
    if join is None:
        x, y, ws = bad
        raise NotALattice(p.elements[x], p.elements[y], [p.elements[w] for w in ws], "join")
    meet, bad = _bound_table(p.leq.T, up, down)
    if meet is None:
        x, y, ws = bad
        raise NotALattice(p.elements[x], p.elements[y], [p.elements[w] for w in ws], "meet")
    # every other element lies above the bottom and below the top
    bottom = p.elements[int(down.argmin())]
    top = p.elements[int(up.argmin())]
    return FiniteLattice(p, _freeze(join), _freeze(meet), bottom, top)


def lattice_from_covers(elements, covers) -> FiniteLattice:
    return as_lattice(validate_poset(elements, covers))


def length(lat: FiniteLattice) -> int:
    """Edge count of a longest chain."""
    return int(lat.poset.heights().max())


def prime_intervals(lat: FiniteLattice) -> list[IntervalEdge]:
    """All cover pairs, ordered by element position."""
    els = lat.elements
    return [IntervalEdge(els[i], els[j]) for i, j in lat.poset.covers()]


def closed_rows(lat: FiniteLattice, idx: np.ndarray, pairs=None) -> np.ndarray:
    """For each row of the m x t position matrix ``idx``, whether the joins
    and meets of its elements lie in it, read on the column pairs
    ``pairs``: two equal-length arrays (u, v), by default every pair
    u < v.  On every pair this is closure under join and meet, as x v x
    = x ^ x = x and both operations are symmetric.

    Each row's joins and meets are looked up in a presence row of its
    own; rows go in chunks, so no temporary exceeds ``_CHUNK`` elements
    by more than one row.
    """
    idx = np.asarray(idx, dtype=np.intp)
    m, t = idx.shape
    u, v = np.triu_indices(t, 1) if pairs is None else pairs
    out = np.empty(m, dtype=bool)
    step = max(1, _CHUNK // max(lat.n, len(u), 1))
    for s in range(0, m, step):
        block = idx[s:s + step]
        rows = np.arange(len(block))[:, None]
        present = np.zeros((len(block), lat.n), dtype=bool)
        present[rows, block] = True
        x, y = block[:, u], block[:, v]
        out[s:s + step] = (present[rows, lat.join[x, y]].all(axis=1)
                           & present[rows, lat.meet[x, y]].all(axis=1))
    return out


def is_closed(lat: FiniteLattice, idx) -> bool:
    """True iff the element positions ``idx`` are closed under join and meet."""
    return bool(closed_rows(lat, np.asarray(idx, dtype=np.intp).reshape(1, -1))[0])


def is_01_sublattice(lat: FiniteLattice, subset) -> bool:
    """True iff subset contains the bounds and is closed under join and meet."""
    idx = sorted(lat.index(s) for s in subset)
    if lat.index(lat.bottom) not in idx or lat.index(lat.top) not in idx:
        return False
    return is_closed(lat, idx)


def sublattice(lat: FiniteLattice, subset) -> FiniteLattice:
    """The induced lattice on a join/meet-closed subset."""
    idx = sorted(lat.index(s) for s in subset)
    if not is_closed(lat, idx):
        raise NotALattice(lat.elements[idx[0]], lat.elements[idx[-1]], [], "closure")
    return as_lattice(lat.poset.restrict(idx))


def _block_order(lat: FiniteLattice, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order that the join table induces on the blocks of a congruence.

    ``labels`` is the congruence's label vector.  Returns ``first``, the
    first element of each element's block; ``reps``, the blocks' first
    elements, in position order; and ``leq`` over ``reps``, where
    [x] <= [y] iff x v y lies in [y].  For a congruence this is the order
    of the quotient lattice: x v y theta y holds for one pair of
    representatives iff for all, and [x] <= [y] iff [x] v [y] = [y].
    """
    from .congruence import _block_firsts  # local import to avoid a cycle

    first = _block_firsts(np.array([labels]))[0]
    reps = np.flatnonzero(first == np.arange(lat.n))
    return first, reps, first[lat.join[np.ix_(reps, reps)]] == reps


def quotient(lat: FiniteLattice, theta) -> FiniteLattice:
    """The lattice on the blocks of a congruence, with the induced order
    (:func:`_block_order`).

    Block names are the sorted member names joined by ``|``; blocks are
    ordered by their least element position.
    """
    from .congruence import is_congruence  # local import to avoid a cycle

    ok, witness = is_congruence(lat, theta.labels)
    if not ok:
        raise NotACongruence("quotient by a non-congruence", witness)
    first, reps, leq = _block_order(lat, theta.labels)
    names = tuple("|".join(_member_names(lat.elements, first == r)) for r in reps)
    return as_lattice(Poset(names, _freeze(leq)))


def lattice_iso(a: FiniteLattice, b: FiniteLattice) -> dict[str, str] | None:
    """A join-and-meet-preserving bijection, when one exists.

    Both tables come from :func:`as_lattice`, so they hold the least
    upper and the greatest lower bounds of the order, and a bijective
    order isomorphism carries least upper and greatest lower bounds to
    themselves: it preserves both operations, so this is the order search
    alone.
    """
    return order_iso(a.poset, b.poset)


def _chain_order(n: int) -> np.ndarray:
    """The order of the n-element chain over positions, an upper triangular
    matrix: i <= j iff i <= j."""
    at = np.arange(n)
    return at[:, None] <= at


def _chain_lattice(names: tuple[str, ...]) -> FiniteLattice:
    """The chain over ``names``, in that order, with its lattice written
    down: in a chain, join is the later position and meet the earlier."""
    if not names:
        raise InvalidInput("an empty order is not a lattice")
    at = np.arange(len(names), dtype=np.int32)  # as_lattice's table dtype
    return FiniteLattice(Poset(names, _freeze(_chain_order(len(names)))),
                         _freeze(np.maximum.outer(at, at)), _freeze(np.minimum.outer(at, at)),
                         names[0], names[-1])


def _grid_order() -> Poset:
    """The order of the 2x3 grid, elements ``ab`` for a < 2 and b < 3:
    ab <= a'b' iff a <= a' and b <= b', the Kronecker product of the 2-
    and 3-element chain orders."""
    names = tuple(f"{a}{b}" for a in range(2) for b in range(3))
    leq = _chain_order(2)[:, None, :, None] & _chain_order(3)[None, :, None, :]
    return Poset(names, _freeze(leq.reshape(6, 6)))


def _diamond_order() -> Poset:
    """The order of the diamond M3: a bottom, three incomparable atoms, a
    top."""
    leq = np.eye(5, dtype=bool)
    leq[0] = leq[:, 4] = True
    return Poset(("o", "x", "y", "z", "i"), _freeze(leq))


def chain(k: int, prefix: str = "c") -> FiniteLattice:
    """The k-element chain c0 < c1 < ... ."""
    return _chain_lattice(tuple(f"{prefix}{i}" for i in range(k)))


def m3() -> FiniteLattice:
    """The diamond: three incomparable atoms between bounds; simple."""
    return as_lattice(_diamond_order())


def c2_times_c3() -> FiniteLattice:
    """The 2x3 grid lattice."""
    return as_lattice(_grid_order())
