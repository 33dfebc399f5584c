"""Finite partially ordered sets.

Posets are immutable: a tuple of element names plus a read-only boolean
matrix of the reflexive-transitive order relation.  All indexing is
positional; element names are opaque strings used only at the I/O
boundary.  Input is always a cover (Hasse) list whose closure is
computed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateElement,
    NoOne,
    NoZero,
    UnknownElement,
)

# elements per temporary array of a kernel that works in chunks of rows
_CHUNK = 1 << 14
# elements of the left factor per block of rows of a float32 matrix
# product that runs threaded (see _blas_rows)
_BLAS_CHUNK = 1 << 16
# multiply-adds from which OpenBLAS, numpy's default BLAS, splits one
# float32 product over two threads
_BLAS_THREADS = 1 << 19


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Word rows.  A row of bits, a boolean row or the int of a bitmask, is
# kept as a row of 64-bit words, at least one: column (or bit) k at bit
# k % 64 of word k // 64.  The four functions below are the only code
# that knows this layout.

def _bit_words(bits: np.ndarray) -> np.ndarray:
    """Boolean rows as word rows.  The rows are packed as one flat array,
    zero-padded to whole bytes, because numpy packs short rows along an
    axis many times slower, and the bytes are then zero-padded to whole
    words, so no boolean temporary is wider than the rows by more than
    seven columns."""
    m, c = bits.shape
    width = max(1, -(-c // 64))
    padded = np.zeros((m, -(-c // 8) * 8), dtype=bool)
    padded[:, :c] = bits
    out = np.zeros((m, 8 * width), dtype=np.uint8)
    size = padded.shape[1] // 8
    out[:, :size] = np.packbits(padded.ravel(), bitorder="little").reshape(m, size)
    return out.view(np.uint64)


def _word_bits(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` columns of word rows, as boolean rows: the
    inverse of :func:`_bit_words`."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=1, count=count,
                         bitorder="little").view(bool)


def _word_ints(words: np.ndarray) -> tuple[int, ...]:
    """Word rows as bitmask ints, one per row: the inverse of :func:`_int_words`."""
    if words.shape[1] == 1:
        return tuple(words[:, 0].tolist())
    return tuple(int.from_bytes(row.tobytes(), "little") for row in words)


def _int_words(ints, count: int) -> np.ndarray:
    """Bitmask ints below 2^count as word rows, one per int, in the
    iteration order of ``ints`` (a sized collection)."""
    width = max(1, -(-count // 64))
    if width == 1:
        return np.fromiter(ints, dtype=np.uint64, count=len(ints)).reshape(-1, 1)
    data = b"".join(m.to_bytes(8 * width, "little") for m in ints)
    return np.frombuffer(data, dtype=np.uint64).reshape(len(ints), width)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row, equal iff the rows are equal, for rows of one
    dtype and width.

    A boolean row is packed to its word row (:func:`_bit_words`), and
    then any row whose bytes fit one 64-bit word is read as that word,
    zero-padded: a ``uint64`` key.  A wider row keeps its bytes as one
    opaque fixed-width key, compared byte by byte.
    """
    if rows.dtype == bool:
        rows = _bit_words(rows)
    rows = np.ascontiguousarray(rows).view(np.uint8)
    if rows.shape[1] <= 8:
        word = np.zeros((len(rows), 8), dtype=np.uint8)
        word[:, :rows.shape[1]] = rows
        return word.view(np.uint64).ravel()
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


class RowIndex:
    """The rows of a matrix, found by content through their sorted
    :func:`_row_keys`: one ``uint64`` per row when a row packs into one
    word (any boolean row of up to 64 columns), its bytes otherwise.  The
    index holds one key and one position per row; a query of q rows
    takes q keys, which are looked up in ascending order and scattered
    back, so the binary searches walk the index from one end to the
    other instead of landing at random places in it.  Each answer
    depends on its key alone, so the sort need not be stable.  A query
    of another dtype or width raises ValueError: a cast could wrap a
    value into a false match."""

    def __init__(self, rows: np.ndarray):
        keys = _row_keys(rows)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        self._form = rows.dtype, rows.shape[1]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The row of each query row, or -1 where no row equals it."""
        if (rows.dtype, rows.shape[1]) != self._form:
            raise ValueError(f"query rows {rows.dtype} x {rows.shape[1]}, index {self._form}")
        want = _row_keys(rows)
        if not len(self._keys):
            return np.full(len(want), -1, dtype=np.intp)
        by_key = np.argsort(want)
        want = want[by_key]
        at = np.minimum(np.searchsorted(self._keys, want), len(self._keys) - 1)
        found = np.empty(len(want), dtype=np.intp)
        found[by_key] = np.where(self._keys[at] == want, self._order[at], -1)
        return found


def _member_names(elements, row) -> tuple[str, ...]:
    """The elements a boolean row marks, as a sorted name tuple."""
    return tuple(sorted(itertools.compress(elements, row)))


@dataclass(frozen=True, eq=False)
class Poset:
    """A finite poset.  ``leq[i, j]`` iff ``elements[i] <= elements[j]``."""

    elements: tuple[str, ...]
    leq: np.ndarray

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownElement(f"unknown element {name!r}") from None

    @cached_property
    def _cover_pairs(self) -> tuple[tuple[int, int], ...]:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        red = strict & ~_bool_product(strict, strict)
        # nonzero lists the pairs row-major, so sorted
        return tuple(zip(*(ix.tolist() for ix in np.nonzero(red))))

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction as index pairs, sorted; computed once per poset."""
        return list(self._cover_pairs)

    def cover_names(self) -> list[tuple[str, str]]:
        return [(self.elements[i], self.elements[j]) for i, j in self.covers()]

    def heights(self) -> np.ndarray:
        """Length of a longest chain ending at each element; see :func:`_heights`."""
        return _heights(self.leq)

    def restrict(self, idx: list[int]) -> "Poset":
        """Induced subposet on the given element positions."""
        idx = list(idx)
        sub = self.leq[np.ix_(idx, idx)].copy()
        return Poset(tuple(self.elements[i] for i in idx), _freeze(sub))

    def dual(self) -> "Poset":
        return Poset(self.elements, _freeze(self.leq.T.copy()))

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and np.array_equal(self.leq, other.leq)
        )

    def __hash__(self):
        return hash((self.elements, self.leq.tobytes()))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers())} covers)"


@dataclass(frozen=True, eq=False)
class BoundedPoset:
    """A poset with verified bounds, its interior, and its isolated elements.

    ``interior`` is the element set minus the bounds; ``isolated`` holds the
    interior elements that are incomparable to every other interior element.
    """

    poset: Poset
    zero: str
    one: str
    interior: tuple[str, ...]
    isolated: tuple[str, ...]

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @cached_property
    def interior_poset(self) -> Poset:
        """The induced subposet on the interior, in element order."""
        return self.poset.restrict(sorted(self.poset.index(x) for x in self.interior))

    def comparabilities(self) -> list[tuple[str, str]]:
        """All strict pairs p < q with both p, q interior, sorted."""
        p = self.poset
        inner = [p.index(x) for x in self.interior]
        out = []
        for i in inner:
            for j in inner:
                if i != j and p.leq[i, j]:
                    out.append((p.elements[i], p.elements[j]))
        return sorted(out)

    def __eq__(self, other):
        return isinstance(other, BoundedPoset) and self.poset == other.poset

    def __hash__(self):
        return hash(self.poset)


@dataclass(frozen=True)
class DownSet:
    """A downward-closed subset of a poset, kept as a sorted name tuple."""

    members: tuple[str, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __len__(self) -> int:
        return len(self.members)


def validate_poset(elements, covers) -> Poset:
    """Build a poset from a cover list via reflexive-transitive closure.

    Rejects duplicate or undeclared elements and cover lists whose closure
    would create a cycle (antisymmetry violation).
    """
    elements = tuple(elements)
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElement(f"duplicate element {e!r}")
        seen.add(e)
    pos = {e: i for i, e in enumerate(elements)}
    rel = np.eye(len(elements), dtype=bool)
    for lo, hi in covers:
        if lo not in pos:
            raise UnknownElement(f"cover references undeclared element {lo!r}")
        if hi not in pos:
            raise UnknownElement(f"cover references undeclared element {hi!r}")
        rel[pos[lo], pos[hi]] = True
    return closed_poset(elements, rel)


def closed_poset(elements: tuple[str, ...], rel: np.ndarray) -> Poset:
    """The poset on ``elements`` whose order is the transitive closure of
    the reflexive relation ``rel``; raises CycleDetected, naming the
    first pair in row-major order that the closure relates both ways."""
    closure = _transitive_closure(rel)
    cyc = closure & closure.T & ~np.eye(len(elements), dtype=bool)
    if cyc.any():
        i, j = map(int, np.argwhere(cyc)[0])
        raise CycleDetected(f"cycle through {elements[i]!r} and {elements[j]!r}")
    return Poset(elements, _freeze(closure))


def _heights(leq: np.ndarray) -> np.ndarray:
    """Length of a longest chain ending at each element of the order ``leq``,
    or of each order of a stack of them (k x n x n gives k x n).

    By level sets: L_0 holds every element and L_(k+1) the elements with
    a strict predecessor in L_k.  Then x is in L_k iff some chain
    x_0 < ... < x_k ends at x (induction on k), and dropping x_0 shows
    that L_(k+1) lies inside L_k; so the height of x is the number of
    k >= 1 with x in L_k.  One vectorised step per level, and no chain
    has more than n elements, so at most n - 1 steps.
    """
    n = leq.shape[-1]
    strict = leq & ~np.eye(n, dtype=bool)
    h = np.zeros(leq.shape[:-1], dtype=int)
    level = np.ones(leq.shape[:-2] + (1, n), dtype=bool)
    for _ in range(1, n):
        level = level @ strict  # boolean: x is hit iff some member of the level is below it
        if not level.any():
            break
        h += level[..., 0, :]
    return h


def _blas_rows(k: int, n: int) -> int:
    """Rows per block of a float32 product of a (rows x k) by a k x n matrix.

    While one row's product is under ``_BLAS_THREADS`` multiply-adds, a
    block takes as many rows as keep it under, and runs on one thread: a
    two-thread product waits for its second thread, which on a shared
    2-core VM cost 16 ms on an 89 x 160 x 89 product in about half of
    the processes sampled (0.04 ms in the others).  Once one row's
    product is over, every block runs threaded, and a block takes as
    many rows as keep the left factor within ``_BLAS_CHUNK`` elements.
    At least one row either way.
    """
    if k * n < _BLAS_THREADS:
        return max(1, (_BLAS_THREADS - 1) // max(k * n, 1))
    return max(1, _BLAS_CHUNK // k)


def _transitive_closure(rel: np.ndarray) -> np.ndarray:
    """The transitive closure of a square boolean relation, by squaring.

    R <- R or (R R > 0) until nothing changes.  R is kept as one float32
    0/1 matrix, which BLAS multiplies, a block of rows at a time
    (:func:`_blas_rows`), and each block's rows are updated in place, so
    a later block of a round may read rows that grew earlier in it.
    Every row stays within the closure and, after a round, holds at
    least its row of the R the round started from, squared: after r
    rounds R holds every pair joined by a path of at most 2^r steps, so
    the loop stops after at most log2(n) + 2 rounds, the last changing
    nothing, and then R R <= R.  Entry (x, y) of a block counts the m
    with x R m and m R y, and BLAS only adds such counts over sets of m,
    so every product and every partial sum is an integer in [0, n]:
    exact in float32 for n < 2^24, and positive iff x R^2 y.  Numpy's
    ``@`` on boolean matrices runs no BLAS kernel and does n^3 scalar
    work.
    """
    closure = rel.astype(np.float32)
    step = _blas_rows(len(closure), len(closure))
    grew = True
    while grew:
        grew = False
        for s in range(0, len(closure), step):
            hit = closure[s:s + step] @ closure > 0
            if (hit > closure[s:s + step]).any():
                np.maximum(closure[s:s + step], hit, out=closure[s:s + step])
                grew = True
    return closure > 0


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product: row x is the OR of the rows of b where a[x] is True.

    The rows of b are packed into word rows (:func:`_bit_words`),
    gathered at the True entries of a in row-major order, and OR-reduced
    over each row's run of entries with one ``reduceat``.  The entries go
    in chunks, so no gathered temporary exceeds ``_CHUNK`` words by more
    than one row of b; a row of a split between chunks is ORed into its
    result from each.  Numpy's ``@`` on boolean matrices runs no BLAS
    kernel and does n^3 scalar work, and a loop over the rows of a costs
    a few vector operations per row.
    """
    packed = _bit_words(b)
    words = packed.shape[1]
    rows, cols = np.nonzero(a)
    out = np.zeros((a.shape[0], words), dtype=np.uint64)
    step = max(1, _CHUNK // words)
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        starts = np.flatnonzero(np.diff(r, prepend=-1))  # where each row's run begins
        out[r[starts]] |= np.bitwise_or.reduceat(packed[cols[s:s + step]], starts, axis=0)
    return _word_bits(out, b.shape[1])


def to_bounded(p: Poset) -> BoundedPoset:
    """Identify unique bounds and compute the interior and isolated sets."""
    is_zero = p.leq.all(axis=1)
    is_one = p.leq.all(axis=0)
    if is_zero.sum() != 1:
        raise NoZero("poset has no unique minimum")
    if is_one.sum() != 1:
        raise NoOne("poset has no unique maximum")
    zi = int(np.nonzero(is_zero)[0][0])
    oi = int(np.nonzero(is_one)[0][0])
    inner = [i for i in range(p.n) if i not in (zi, oi)]
    interior = tuple(p.elements[i] for i in inner)
    isolated = []
    for i in inner:
        comparable = [
            j for j in inner if j != i and (p.leq[i, j] or p.leq[j, i])
        ]
        if not comparable:
            isolated.append(p.elements[i])
    return BoundedPoset(p, p.elements[zi], p.elements[oi], interior, tuple(isolated))


def down_set_matrix(p: Poset) -> np.ndarray:
    """Every down set of ``p`` as a read-only boolean row over its elements,
    ordered by (size, member indices).

    Enumeration runs along a linear extension, keeping the down sets of
    the prefix seen so far: the next element extends exactly those that
    hold everything strictly below it, so each down set is produced once,
    one vectorised selection per element.  Of two down sets of one size,
    the one holding the least element of their symmetric difference has
    the smaller member indices.  So the rows sort by size and then by the
    negated membership read as a binary number with column 0 most
    significant: the complemented bits packed into big-endian 64-bit
    words, compared word by word, whatever the width.  The sizes are
    summed in the narrowest unsigned type that holds ``p.n``, which
    lexsort sorts faster than a 64-bit count.
    """
    strict = p.leq & ~np.eye(p.n, dtype=bool)
    rows = np.zeros((1, p.n), dtype=bool)
    for x in np.argsort(strict.sum(axis=0), kind="stable"):
        grown = rows[rows[:, strict[:, x]].all(axis=1)]
        grown[:, x] = True
        rows = np.vstack([rows, grown])
    size = -(-p.n // 8)
    packed = np.zeros((len(rows), -(-size // 8) * 8), dtype=np.uint8)
    packed[:, :size] = ~np.packbits(rows, axis=1)  # along the rows: no padded copy of them
    keys = packed.view(">u8").astype(np.uint64)  # byte 0, so column 0, most significant
    sizes = rows.sum(axis=1, dtype=np.min_scalar_type(p.n))
    order = np.lexsort(tuple(keys.T[::-1]) + (sizes,))
    return _freeze(rows[order])


def principal_rows(members: np.ndarray) -> np.ndarray:
    """For each column p of a boolean membership matrix, the first of its
    smallest rows holding p: the row of down p when the rows are the down
    sets of a poset on the columns, as every down set holding p holds
    down p.  One pass over the rows per column."""
    sizes = members.sum(axis=1)
    return np.array([int(np.where(members[:, p], sizes, members.shape[1] + 1).argmin())
                     for p in range(members.shape[1])], dtype=np.intp)


def down_sets(p: Poset, nonempty_only: bool = False) -> list[DownSet]:
    """All down sets of ``p``, in the order of :func:`down_set_matrix`:
    by (size, member indices).  The empty one comes first."""
    rows = down_set_matrix(p)[int(nonempty_only):]
    return [DownSet(_member_names(p.elements, row)) for row in rows.tolist()]


def principal_down_set(p: Poset, x: str) -> DownSet:
    """The down set of everything below (and including) ``x``."""
    i = p.index(x)
    members = [p.elements[j] for j in range(p.n) if p.leq[j, i]]
    return DownSet(tuple(sorted(members)))


def down_set_rows(p: Poset, rows) -> np.ndarray:
    """For each boolean row over the elements of ``p``, whether it is a down set.

    A row is closed downward iff the lower end of every cover whose upper
    end is a member is a member: everything below a member is reached from
    it by a chain of covers.
    """
    rows = np.asarray(rows, dtype=bool)
    lo, hi = np.array(p.covers(), dtype=np.intp).reshape(-1, 2).T
    return ~(rows[:, hi] & ~rows[:, lo]).any(axis=1)


def is_down_set(p: Poset, members) -> bool:
    row = np.zeros((1, p.n), dtype=bool)
    row[0, [p.index(m) for m in members]] = True
    return bool(down_set_rows(p, row)[0])


def order_iso(p: Poset, q: Poset) -> dict[str, str] | None:
    """An order-preserving and order-reflecting bijection, if one exists.

    Backtracking over elements in index order, with invariant pruning on
    (downset size, upset size, height, depth).  Deterministic: the first
    witness in lexicographic assignment order is returned.
    """
    if p.n != q.n:
        return None
    # both orders and their duals: column sums count down sets in the order
    # and up sets in the dual, and heights in the dual are depths
    orders = np.stack([p.leq, p.leq.T, q.leq, q.leq.T])
    down, h = orders.sum(axis=1).tolist(), _heights(orders).tolist()
    pp, qq = (list(zip(down[k], down[k + 1], h[k], h[k + 1])) for k in (0, 2))
    if sorted(pp) != sorted(qq):
        return None
    candidates = [[j for j in range(q.n) if qq[j] == pp[i]] for i in range(p.n)]
    # nested lists: indexing them is several times cheaper than numpy scalars
    pleq, qleq = p.leq.tolist(), q.leq.tolist()
    # depth-first over positions: tried[i] counts the candidates of i tried
    # so far.  A loop, not a self-recursive closure, whose reference cycle
    # would keep both posets alive until the cyclic garbage collector runs.
    assign = [-1] * p.n
    tried = [0] * p.n
    used = [False] * q.n
    i = 0
    while 0 <= i < p.n:
        if assign[i] >= 0:  # come back to i: free its assignment
            used[assign[i]] = False
            assign[i] = -1
        while tried[i] < len(candidates[i]):
            j = candidates[i][tried[i]]
            tried[i] += 1
            if used[j]:
                continue
            for k in range(i):
                jk = assign[k]
                if (pleq[k][i] != qleq[jk][j]) or (pleq[i][k] != qleq[j][jk]):
                    break
            else:
                assign[i] = j
                used[j] = True
                break
        if assign[i] >= 0:
            i += 1
        else:
            tried[i] = 0
            i -= 1
    if i < 0:
        return None
    return {p.elements[i]: q.elements[assign[i]] for i in range(p.n)}
