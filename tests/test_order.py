import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from princlat.errors import CycleDetected, DuplicateElement, NoOne, NoZero, UnknownElement
from princlat.lattice import as_lattice, m3
from princlat.order import (
    Poset,
    RowIndex,
    _bit_words,
    _blas_rows,
    _bool_product,
    _freeze,
    _heights,
    _int_words,
    _row_keys,
    _transitive_closure,
    _word_bits,
    _word_ints,
    down_set_matrix,
    down_set_rows,
    down_sets,
    is_down_set,
    order_iso,
    principal_down_set,
    to_bounded,
    validate_poset,
)

from conftest import join_of, le, meet_of


def containment_order(family):
    """The family of down sets as a poset under containment.

    Element names are comma-joined member lists (deterministic given the
    family order); an empty down set is named ``{}``.
    """
    names = tuple(",".join(d.members) if d.members else "{}" for d in family)
    n = len(family)
    leq = np.zeros((n, n), dtype=bool)
    sets = [set(d.members) for d in family]
    for i in range(n):
        for j in range(n):
            leq[i, j] = sets[i] <= sets[j]
    return Poset(names, _freeze(leq))


def test_singleton():
    p = validate_poset(["a"], [])
    assert p.n == 1 and le(p, "a", "a")


def test_transitive_closure_forced():
    p = validate_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert le(p, "0", "1")
    assert p.cover_names() == [("0", "m"), ("m", "1")]


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        validate_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_duplicate_and_unknown():
    with pytest.raises(DuplicateElement):
        validate_poset(["a", "a"], [])
    with pytest.raises(UnknownElement):
        validate_poset(["a"], [("a", "b")])


def test_to_bounded_b2():
    p = validate_poset(["0", "p", "q", "1"],
                       [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    b = to_bounded(p)
    assert (b.zero, b.one) == ("0", "1")
    assert set(b.interior) == {"p", "q"}
    assert set(b.isolated) == {"p", "q"}


def test_to_bounded_chain_has_no_isolated():
    p = validate_poset(["0", "p", "q", "1"], [("0", "p"), ("p", "q"), ("q", "1")])
    b = to_bounded(p)
    assert set(b.interior) == {"p", "q"} and b.isolated == ()


def test_to_bounded_rejects_antichain():
    with pytest.raises((NoZero, NoOne)):
        to_bounded(validate_poset(["a", "b"], []))


def test_down_sets_singleton():
    p = validate_poset(["a"], [])
    assert [d.members for d in down_sets(p, nonempty_only=True)] == [("a",)]


def test_down_sets_chain():
    p = validate_poset(["0", "p", "q", "1"], [("0", "p"), ("p", "q"), ("q", "1")])
    ds = down_sets(p, nonempty_only=True)
    assert [set(d.members) for d in ds] == [
        {"0"}, {"0", "p"}, {"0", "p", "q"}, {"0", "p", "q", "1"}]
    # the containment order of a chain's down sets is again a chain
    c = containment_order(ds)
    assert all(c.leq[i, j] for i in range(4) for j in range(i, 4))


def test_down_sets_b2_count():
    p = validate_poset(["0", "p", "q", "1"],
                       [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    ds = down_sets(p, nonempty_only=True)
    assert len(ds) == 5
    assert {d.members for d in ds} == {
        ("0",), ("0", "p"), ("0", "q"), ("0", "p", "q"), ("0", "1", "p", "q")}


def test_nonempty_is_all_minus_empty():
    p = validate_poset(["0", "p", "q", "1"],
                       [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    alla = down_sets(p)
    nonempty = down_sets(p, nonempty_only=True)
    assert len(alla) == len(nonempty) + 1
    assert () in {d.members for d in alla}


def test_down_set_family_is_a_lattice_under_containment():
    p = validate_poset(["0", "p", "q", "r", "1"],
                       [("0", "p"), ("p", "q"), ("p", "r"), ("q", "1"), ("r", "1")])
    ds = down_sets(p)
    lat = as_lattice(containment_order(ds))
    sets = {lat.poset.elements[i]: set(ds[i].members) for i in range(len(ds))}
    for x in lat.elements:
        for y in lat.elements:
            assert sets[join_of(lat, x, y)] == sets[x] | sets[y]
            assert sets[meet_of(lat, x, y)] == sets[x] & sets[y]


def test_principal_down_set():
    p = validate_poset(["0", "p", "q", "1"], [("0", "p"), ("p", "q"), ("q", "1")])
    assert principal_down_set(p, "q").members == ("0", "p", "q")
    assert principal_down_set(p, "0").members == ("0",)
    with pytest.raises(UnknownElement):
        principal_down_set(p, "zz")


def test_principal_down_set_containment_mirrors_order():
    p = validate_poset(["0", "p", "q", "r", "1"],
                       [("0", "p"), ("0", "q"), ("p", "r"), ("q", "r"), ("r", "1")])
    for x in p.elements:
        for y in p.elements:
            sub = set(principal_down_set(p, x).members) <= set(principal_down_set(p, y).members)
            assert sub == le(p, x, y)


def test_order_iso_identity_and_negative():
    c3 = validate_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert order_iso(c3, c3) == {"0": "0", "m": "m", "1": "1"}
    vee = validate_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert order_iso(c3, vee) is None


def test_order_iso_chain_vs_its_down_sets():
    p = validate_poset(["0", "p", "q", "1"], [("0", "p"), ("p", "q"), ("q", "1")])
    family = containment_order(down_sets(p, nonempty_only=True))
    assert order_iso(p, family) is not None


def test_order_iso_leaves_no_reference_cycles():
    # everything one call allocates is freed by reference counting alone;
    # the witness is the first in assignment order, here the identity of M3
    m = m3().poset
    gc.collect()
    gc.disable()
    try:
        assert order_iso(m, m) == {x: x for x in m.elements}
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def small_posets(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    names = [f"e{i}" for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                covers.append((names[i], names[j]))
    return validate_poset(names, covers)


@settings(max_examples=60, deadline=None)
@given(small_posets(), st.randoms(use_true_random=False))
def test_order_iso_survives_relabeling(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    names = [f"r{k}" for k in range(p.n)]
    relabeled = validate_poset(
        [names[perm[i]] for i in range(p.n)],
        [(names[perm[i]], names[perm[j]]) for i, j in p.covers()],
    )
    iso = order_iso(p, relabeled)
    assert iso is not None
    for i in range(p.n):
        for j in range(p.n):
            assert p.leq[i, j] == le(relabeled, iso[p.elements[i]], iso[p.elements[j]])


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_down_sets_are_downward_closed_and_distinct(p):
    family = down_sets(p)
    seen = {d.members for d in family}
    assert len(seen) == len(family)
    for d in family:
        members = set(d.members)
        for x in members:
            xi = p.index(x)
            below = {p.elements[j] for j in range(p.n) if p.leq[j, xi]}
            assert below <= members


@pytest.mark.parametrize("n", [1, 7, 40, 160])
def test_bool_product_and_closure_match_matmul(n):
    rng = np.random.default_rng(n)
    a, b = rng.random((n, n)) < 0.05, rng.random((n, n)) < 0.05
    a[0] = False  # a row with no True entries
    assert np.array_equal(_bool_product(a, b), a @ b)
    step = _blas_rows(n, n)
    if n > step + 1:  # a cycle from the last row of the first block into the next
        ring = [step - 1, step, n - 1]
        a[ring, np.roll(ring, -1)] = True
    closure = a.copy()  # cycles included: the relation is not an order
    while not np.array_equal(closure | (closure @ closure), closure):
        closure |= closure @ closure
    assert np.array_equal(_transitive_closure(a), closure)


@pytest.mark.parametrize("chunk", [1, 3])
def test_bool_product_chunks_do_not_change_the_result(chunk, monkeypatch):
    # a budget of one or three entries of one word splits every row of a
    # across chunks, and each chunk's OR is added to what earlier ones gave
    import princlat.order as order

    monkeypatch.setattr(order, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for n in (1, 7, 40, 70):
        a, b = rng.random((n, n)) < 0.2, rng.random((n, n)) < 0.2
        assert np.array_equal(_bool_product(a, b), a @ b)


@pytest.mark.parametrize("columns", [0, 1, 63, 64, 65, 128, 130])
def test_word_rows_round_trip(columns):
    # bits -> words -> ints -> words -> bits gives the rows back: column k
    # is bit k of the int, at bit k % 64 of word k // 64, at least one word
    # per row.  The rows: none set, all set, each single column, and random
    rng = np.random.default_rng(columns)
    bits = np.concatenate([np.zeros((1, columns), dtype=bool), np.ones((1, columns), dtype=bool),
                           np.eye(columns, dtype=bool), rng.random((8, columns)) < 0.5])
    words = _bit_words(bits)
    assert words.dtype == np.uint64 and words.shape == (len(bits), max(1, -(-columns // 64)))
    ints = _word_ints(words)
    assert ints == tuple(sum(1 << k for k in np.flatnonzero(row).tolist()) for row in bits)
    for k in range(columns):
        assert words[2 + k, k // 64] == np.uint64(1 << (k % 64))
    assert np.array_equal(_int_words(ints, columns), words)
    assert np.array_equal(_word_bits(words, columns), bits)


def scalar_heights(p):
    """The length of a longest chain ending at each element, element by
    element along a linear extension (by down-set size)."""
    h = [0] * p.n
    for y in sorted(range(p.n), key=lambda y: int(p.leq[:, y].sum())):
        h[y] = max((h[x] + 1 for x in range(p.n) if x != y and p.leq[x, y]), default=0)
    return h


@settings(max_examples=80, deadline=None)
@given(small_posets(max_size=9))
def test_heights_match_a_longest_chain_count(p):
    assert p.heights().tolist() == scalar_heights(p)
    # a stack of orders gives each order's heights; in the dual, depths
    assert _heights(np.stack([p.leq, p.leq.T])).tolist() == [
        scalar_heights(p), scalar_heights(p.dual())]


def test_heights_of_a_long_chain():
    # 200 levels, the elements listed in a shuffled order
    rng = np.random.default_rng(0)
    x = [f"x{i:03d}" for i in range(200)]
    p = validate_poset([x[i] for i in rng.permutation(200)], list(zip(x, x[1:])))
    assert p.heights().tolist() == scalar_heights(p) == [int(e[1:]) for e in p.elements]


@settings(max_examples=60, deadline=None)
@given(small_posets(), st.randoms(use_true_random=False))
def test_down_set_rows_match_a_scalar_check(p, rng):
    # every down set passes; random rows pass iff no member has a non-member below it
    family = down_sets(p)
    rows = np.array([[x in d.members for x in p.elements] for d in family], dtype=bool)
    assert down_set_rows(p, rows).all()
    rows = np.array([[rng.random() < 0.5 for _ in range(p.n)] for _ in range(8)], dtype=bool)
    want = [all(row[j] for i in range(p.n) if row[i] for j in range(p.n) if p.leq[j, i])
            for row in rows.tolist()]
    assert down_set_rows(p, rows).tolist() == want
    assert [is_down_set(p, [x for x, m in zip(p.elements, row) if m])
            for row in rows.tolist()] == want


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([bool, np.uint8, np.uint16]), st.integers(0, 5),
       st.randoms(use_true_random=False))
def test_row_index_matches_a_dict_lookup(dtype, width, rng):
    # a table of distinct rows, and queries that mix its rows with absent
    # ones in any order, repeats included
    top = 2 if dtype is bool else (3 if dtype is np.uint8 else 300)
    draw = {tuple(rng.randrange(top) for _ in range(width)) for _ in range(rng.randrange(9))}
    table = sorted(draw)
    rng.shuffle(table)
    absent = [tuple(rng.randrange(top) for _ in range(width)) for _ in range(rng.randrange(6))]
    queries = [rng.choice(table) for _ in range(rng.randrange(6)) if table] + absent
    rng.shuffle(queries)
    row_of = {row: k for k, row in enumerate(table)}
    index = RowIndex(np.array(table, dtype=dtype).reshape(len(table), width))
    found = index.find(np.array(queries, dtype=dtype).reshape(len(queries), width))
    assert found.tolist() == [row_of.get(q, -1) for q in queries]


def test_row_index_refuses_another_dtype_or_width():
    # no cast: 256 as uint16 would wrap to the uint8 row 0
    index = RowIndex(np.array([[0, 1], [2, 3]], dtype=np.uint8))
    assert index.find(np.array([[2, 3], [0, 0]], dtype=np.uint8)).tolist() == [1, -1]
    for bad in (np.array([[256, 1]], dtype=np.uint16), np.array([[True, False]]),
                np.array([[0, 1, 2]], dtype=np.uint8)):
        with pytest.raises(ValueError):
            index.find(bad)


@pytest.mark.parametrize("dtype, width, word", [
    (bool, 3, True), (bool, 63, True), (bool, 64, True), (bool, 65, False), (bool, 130, False),
    (np.uint8, 8, True), (np.uint8, 9, False), (np.uint16, 4, True), (np.uint16, 5, False)])
def test_row_index_keys_rows_by_one_word_or_by_their_bytes(dtype, width, word):
    # boolean rows of up to 64 columns, and rows of up to 8 bytes, are keyed
    # by one uint64, wider rows by their bytes.  The rows differ from the
    # first in its last column, its first or both, and the absent query in
    # a middle column, so a key that dropped a column would merge two
    top = 2 if dtype is bool else 1 << (8 * np.dtype(dtype).itemsize)

    def flip(row, cols):
        row = row.copy()
        row[cols] = (row[cols].astype(np.int64) + 1) % top
        return row

    first = np.random.default_rng(width).integers(0, top, size=width).astype(dtype)
    table = np.array([first, flip(first, [-1]), flip(first, [0]), flip(first, [0, -1])])
    keys = _row_keys(table)
    assert (keys.dtype == np.uint64) == word
    assert len(set(keys.tolist())) == 4
    index = RowIndex(table)
    queries = np.array([*table[::-1], flip(first, [width // 2]), table[1]])
    assert index.find(queries).tolist() == [3, 2, 1, 0, -1, 1]
    other = np.uint8 if dtype is bool else bool
    for bad in (table.astype(other), table[:, 1:], np.concatenate([table, table[:, :1]], axis=1)):
        with pytest.raises(ValueError):
            index.find(bad)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_size=11))
def test_down_set_matrix_matches_a_subset_filter(p):
    # every subset, filtered by down_set_rows and sorted by (size, member
    # indices); the DownSet view lists the same sets by name
    subsets = np.array(list(itertools.product([False, True], repeat=p.n)), dtype=bool)
    want = sorted(subsets[down_set_rows(p, subsets)].tolist(),
                  key=lambda row: (sum(row), [i for i, m in enumerate(row) if m]))
    assert down_set_matrix(p).tolist() == want
    assert [d.members for d in down_sets(p)] == [
        tuple(sorted(x for x, m in zip(p.elements, row) if m)) for row in want]


@pytest.mark.parametrize("k, beside", [(70, 0), (65, 2)])
def test_down_set_matrix_sorts_rows_wider_than_a_word(k, beside):
    # a k-chain, and the k-chain beside `beside` incomparable elements, on
    # more than 64 columns, so the sort key spans two words: the chain's
    # elements sit at shuffled positions and the others at 30 and at the
    # end, so rows of one size first differ in either word.  The down sets
    # are a chain prefix with any subset of the others, sorted in Python by
    # (size, member indices)
    chain = [f"c{i}" for i in range(k)]
    others = [f"x{i}" for i in range(beside)]
    names = chain[:]
    random.Random(k).shuffle(names)
    for at, x in zip((30, len(names) + 1), others):
        names.insert(at, x)
    p = validate_poset(names, list(zip(chain, chain[1:])))
    pos = {x: i for i, x in enumerate(names)}
    want = sorted((sorted(pos[x] for x in chain[:i] + list(extra))
                   for i in range(k + 1)
                   for r in range(beside + 1) for extra in itertools.combinations(others, r)),
                  key=lambda members: (len(members), members))
    rows = down_set_matrix(p)
    assert rows.shape == (len(want), len(names)) and len(names) > 64
    assert [np.flatnonzero(row).tolist() for row in rows] == want
