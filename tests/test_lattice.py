import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from princlat.congruence import principal_congruence
from princlat.errors import NotACongruence, NotALattice
from princlat.lattice import (
    _bound_table,
    c2_times_c3,
    chain,
    closed_rows,
    is_01_sublattice,
    is_closed,
    lattice_from_covers,
    lattice_iso,
    length,
    m3,
    prime_intervals,
    quotient,
    sublattice,
)
from princlat.order import validate_poset

from conftest import join_of, meet_of, one_congruence, random_lattices, zero_congruence


def test_b2_is_a_lattice():
    lat = lattice_from_covers(["0", "p", "q", "1"],
                              [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    assert join_of(lat, "p", "q") == "1" and meet_of(lat, "p", "q") == "0"


def test_two_maximal_elements_fail():
    with pytest.raises(NotALattice) as err:
        lattice_from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert {err.value.x, err.value.y} == {"a", "b"}


def test_ambiguous_join_reports_witnesses():
    # a, b below both c and d: the join of (a, b) has two minimal candidates
    with pytest.raises(NotALattice) as err:
        lattice_from_covers(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
             ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")])
    assert set(err.value.witnesses) == {"c", "d"}


def test_m3_shape():
    lat = m3()
    assert lat.n == 5
    assert length(lat) == 2
    assert len(prime_intervals(lat)) == 6
    assert join_of(lat, "x", "y") == "i" and meet_of(lat, "x", "y") == "o"


def test_chain_lengths():
    assert length(chain(4)) == 3
    assert len(prime_intervals(chain(6))) == 5


def test_c2_times_c3():
    lat = c2_times_c3()
    assert lat.n == 6 and len(prime_intervals(lat)) == 7 and length(lat) == 3


def test_is_01_sublattice():
    lat = m3()
    assert is_01_sublattice(lat, ["o", "i"])
    assert is_01_sublattice(lat, ["o", "x", "i"])
    assert not is_01_sublattice(lat, ["x", "y"])          # misses the bounds
    assert is_01_sublattice(lat, ["o", "x", "y", "i"])


def test_quotient_by_zero_and_one():
    lat = lattice_from_covers(["0", "p", "q", "1"],
                              [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    q0 = quotient(lat, zero_congruence(lat))
    assert lattice_iso(q0, lat) is not None
    q1 = quotient(lat, one_congruence(lat))
    assert q1.n == 1


def test_quotient_rejects_non_congruence():
    lat = m3()
    # collapsing one atom pair of the diamond is not a congruence
    labels = [0, 1, 1, 3, 4]
    bad = type(zero_congruence(lat))(lat, tuple(labels))
    with pytest.raises(NotACongruence):
        quotient(lat, bad)


def test_lattice_iso_basics():
    lat = m3()
    assert lattice_iso(lat, lat) is not None
    assert lattice_iso(lat, chain(5)) is None


@pytest.mark.parametrize("seed", range(3))
def test_lattice_iso_carries_both_tables(seed):
    # lattice_iso is the order search alone; the join and meet tables are
    # the oracle: on a relabelled, reordered copy of each lattice, the map
    # it returns must carry both
    rng = random.Random(seed)
    for lat in random_lattices(seed, 20, max_size=10):
        order = list(range(lat.n))
        rng.shuffle(order)
        name = {x: f"y{k}" for k, x in enumerate(lat.elements)}
        copy = lattice_from_covers([name[lat.elements[i]] for i in order],
                                   [(name[a], name[b]) for a, b in lat.poset.cover_names()])
        mapping = lattice_iso(lat, copy)
        assert mapping is not None
        amap = [copy.index(mapping[x]) for x in lat.elements]
        for x in range(lat.n):
            for y in range(lat.n):
                assert amap[lat.join[x, y]] == copy.join[amap[x], amap[y]]
                assert amap[lat.meet[x, y]] == copy.meet[amap[x], amap[y]]


def test_sublattice_induced():
    lat = c2_times_c3()
    sub = sublattice(lat, ["00", "01", "10", "11"])
    assert sub.n == 4 and length(sub) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_absorption_on_random_lattices(seed):
    for lat in random_lattices(seed, 1, max_size=9):
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.meet[x, lat.join[x, y]] == x
                assert lat.join[x, lat.meet[x, y]] == x


def test_quotient_length_shrinks():
    lat = lattice_from_covers(
        ["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    theta = principal_congruence(lat, "a", "b")
    assert length(quotient(lat, theta)) <= length(lat)


# ------------------------------------------- join/meet tables against a pair scan

def pair_scan_bound_table(leq, upper):
    """The reference: each pair x <= y in turn, its bound as the unique minimal
    common bound, or None and (x, y, minimal common bounds) at the first failure."""
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    table = np.full((n, n), -1, dtype=np.int32)
    for x in range(n):
        for y in range(x, n):
            if leq[x, y]:
                b = y if upper else x
            elif leq[y, x]:
                b = x if upper else y
            else:
                common = leq[x] & leq[y] if upper else leq[:, x] & leq[:, y]
                cand = np.nonzero(common)[0]
                sub = strict[np.ix_(cand, cand)]
                extremal = cand[~(sub.any(axis=0) if upper else sub.any(axis=1))]
                if extremal.size != 1:
                    return None, (x, y, tuple(int(e) for e in extremal))
                b = int(extremal[0])
            table[x, y] = table[y, x] = b
    return table, None


def bound_table(leq, upper):
    """``_bound_table`` on the order or, for meets, its transpose, with the
    down- and up-set sizes that ``as_lattice`` passes."""
    a = leq if upper else leq.T
    return _bound_table(a, a.sum(axis=0), a.sum(axis=1))


def random_poset(rng, bounded):
    """A random poset on up to 11 elements; with ``bounded``, a new bottom and
    top are added (often a lattice), without, it is rarely one."""
    k = rng.randrange(1, 10)
    names = [f"x{i}" for i in range(k)]
    order = rng.sample(names, k)
    covers = [(order[i], order[j]) for i in range(k) for j in range(i + 1, k)
              if rng.random() < 0.35]
    if bounded:
        covers += [("bot", x) for x in names] + [(x, "top") for x in names]
        names = ["bot"] + names + ["top"]
    names = rng.sample(names, len(names))  # bounds need not come first
    return validate_poset(names, covers)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_bound_tables_match_a_pair_scan(seed, bounded):
    p = random_poset(random.Random(seed), bounded)
    for upper in (True, False):
        table, witness = bound_table(p.leq, upper)
        want_table, want_witness = pair_scan_bound_table(p.leq, upper)
        assert witness == want_witness
        if want_table is None:
            assert table is None
        else:
            assert np.array_equal(table, want_table)


def popcount_shapes(monkeypatch):
    """The shapes np.bitwise_count is called on from now on: the bound
    tables popcount each chunk's words, words x rows x n."""
    popcount = np.bitwise_count
    shapes = []
    monkeypatch.setattr(np, "bitwise_count", lambda w: shapes.append(w.shape) or popcount(w))
    return shapes


@pytest.mark.parametrize("rows", [1, 3])
def test_bound_table_chunks_do_not_change_the_result(rows, monkeypatch):
    # a chunk budget of one row and of three rows: these posets fit one
    # word, so a row is n words.  Failures and witnesses fall in later
    # chunks.  No chunk holds more rows than the budget, so a finished
    # table of more rows than that was built from more than one chunk
    import princlat.lattice as lattice

    shapes = popcount_shapes(monkeypatch)
    split = 0
    rng = random.Random(rows)
    for _ in range(80):
        p = random_poset(rng, rng.random() < 0.5)
        monkeypatch.setattr(lattice, "_CHUNK", rows * p.n)
        for upper in (True, False):
            shapes.clear()
            table, witness = bound_table(p.leq, upper)
            want_table, want_witness = pair_scan_bound_table(p.leq, upper)
            assert witness == want_witness
            assert (table is None) if want_table is None else np.array_equal(table, want_table)
            assert max(rows_x for _, rows_x, _ in shapes) <= rows
            split += table is not None and p.n > rows
    assert split


def chain_poset(n, rng):
    """An n-element chain, its elements listed in a random order."""
    x = [f"x{i}" for i in range(n)]
    return validate_poset(rng.sample(x, n), list(zip(x, x[1:])))


def grid_poset(n, rng):
    """The product of a 4-chain and an n // 4-chain, with n % 4 more elements
    chained above its top: a lattice of n elements, listed in a random order."""
    c = n // 4
    g = [f"g{i}_{j}" for i in range(4) for j in range(c)]
    covers = ([(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(3) for j in range(c)]
              + [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(4) for j in range(c - 1)])
    extra = [g[-1]] + [f"t{k}" for k in range(n % 4)]
    return validate_poset(rng.sample(g + extra[1:], n), covers + list(zip(extra, extra[1:])))


def split_poset(n, below, rng):
    """A chain of ``below`` elements under a and b, both under c and d, under a
    chain of the other n - below - 4: the join of a and b and the meet of c
    and d each have two minimal bounds.  a, b, c and d are listed last, so
    the first failing row is one of the last four."""
    lo = [f"l{i}" for i in range(below)]
    hi = [f"h{i}" for i in range(n - below - 4)]
    covers = (list(zip(lo, lo[1:])) + [(lo[-1], "a"), (lo[-1], "b")]
              + [(x, y) for x in "ab" for y in "cd"]
              + [("c", hi[0]), ("d", hi[0])] + list(zip(hi, hi[1:])))
    return validate_poset(rng.sample(lo + hi, n - 4) + ["c", "a", "d", "b"], covers)


@pytest.mark.parametrize("n", [63, 64, 65, 126, 127, 128, 129])
def test_bound_tables_match_a_pair_scan_across_words(n, monkeypatch):
    # 63 elements fill one word of 63 positions, 64 and 127 start a second
    # and a third word.  In the non-lattices the common upper bounds of the
    # failing join pair start at position 60 to 64 in down-set-size order,
    # around the end of the first 64 positions, or at position 3, and run
    # to the end, across every word.  The failing rows come last, so they
    # lie in a later chunk under the default budget from 126 elements on
    # (65 rows of 2 words or 42 rows of 3 words per chunk), and under a
    # budget of one row at every size.  No chunk exceeds the budget by
    # more than one row of n x words words
    import princlat.lattice as lattice

    default = lattice._CHUNK
    shapes = popcount_shapes(monkeypatch)
    rng = random.Random(n)
    posets = [chain_poset(n, rng), grid_poset(n, rng),
              split_poset(n, min(62, n - 5), rng), split_poset(n, 1, rng)]
    for p in posets:
        for upper in (True, False):
            want_table, want_witness = pair_scan_bound_table(p.leq, upper)
            for chunk in (default, 1):
                monkeypatch.setattr(lattice, "_CHUNK", chunk)
                shapes.clear()
                table, witness = bound_table(p.leq, upper)
                assert all(rows_x <= max(1, chunk // (words * n)) for words, rows_x, _ in shapes)
                assert witness == want_witness, (p.elements[:3], upper, chunk)
                assert (table is None) if want_table is None else np.array_equal(table, want_table)
    assert [pair_scan_bound_table(p.leq, True)[0] is None for p in posets] == [False, False, True, True]


def test_random_posets_cover_lattices_and_non_lattices():
    rng = random.Random(0)
    kinds = {pair_scan_bound_table(random_poset(rng, bounded).leq, upper)[0] is None
             for bounded in (True, False) for upper in (True, False) for _ in range(20)}
    assert kinds == {True, False}


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_closed_rows_match_a_pair_scan(seed):
    # random subsets of one size, in one matrix, against a scan of all pairs
    rng = random.Random(seed)
    for lat in random_lattices(seed, 2, max_size=10):
        t = rng.randrange(1, lat.n + 1)
        rows = [rng.sample(range(lat.n), t) for _ in range(12)]
        want = [all(lat.join[x, y] in row and lat.meet[x, y] in row for x in row for y in row)
                for row in rows]
        assert closed_rows(lat, np.array(rows)).tolist() == want
        assert [is_closed(lat, row) for row in rows] == want
