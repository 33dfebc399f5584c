import itertools
import pickle
import random
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from princlat.congruence import (
    ConAnalysis,
    CongruenceRelation,
    _base_rows,
    _block_counts,
    _block_firsts,
    _canonical_counts,
    _isolating,
    _label_dtype,
    all_congruences,
    congruence_leq,
    cover_principals,
    is_congruence,
    is_I_congruence,
    join_congruences,
    order_mismatch,
    princ_order,
    principal_certificate,
    principal_congruence,
    valuation,
)
from princlat.construction import assemble_K, load_templates
from princlat.lattice import as_lattice, c2_times_c3, chain, lattice_from_covers, m3
from princlat.kernels import beta_labels
from princlat.order import (
    _bit_words,
    _transitive_closure,
    down_set_matrix,
    down_sets,
    principal_rows,
    validate_poset,
)

import reference as ref
from conftest import bounded, one_congruence, random_lattices, zero_congruence


# ---------------------------------------------------------------- oracles

def partitions(items):
    """All set partitions, by recursive block insertion."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def congruences_by_brute_force(lat):
    """Every partition that passes the substitution property; exponential."""
    out = set()
    for part in partitions(range(lat.n)):
        labels = [0] * lat.n
        for bid, block in enumerate(part):
            for x in block:
                labels[x] = bid
        ok, _ = is_congruence(lat, labels)
        if ok:
            out.add(ref.canonical(labels))
    return out


def intersect_labels(a, b):
    pair = list(zip(a, b))
    return ref.canonical([pair.index(p) for p in pair])


def label_matrix(thetas):
    """The label vectors of ``thetas`` as the rows of one matrix."""
    return np.array([t.labels for t in thetas])


# ------------------------------------------------------- principal closure

def test_con_xx_is_zero():
    lat = m3()
    assert principal_congruence(lat, "x", "x").is_zero()


def test_m3_is_simple():
    lat = m3()
    for x, y in itertools.combinations(lat.elements, 2):
        assert principal_congruence(lat, x, y).is_one()
    assert len(all_congruences(lat)) == 2


def test_three_chain_has_four_congruences():
    lat = chain(3)
    con = all_congruences(lat)
    assert len(con) == 4
    assert con.zero.is_zero() and con.one.is_one()


def test_brute_force_matches_join_closure_small():
    cases = [
        chain(4),
        m3(),
        lattice_from_covers(["0", "p", "q", "1"],
                            [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")]),
        lattice_from_covers(["0", "a", "b", "c", "1"],
                            [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
    ]
    for lat in cases:
        expected = congruences_by_brute_force(lat)
        got = {t.labels for t in all_congruences(lat).congruences}
        assert got == expected


def test_principal_equals_intersection_of_containing():
    for lat in [chain(5), m3()] + random_lattices(7, 6, max_size=8):
        con = all_congruences(lat)
        for x in range(lat.n):
            for y in range(lat.n):
                theta = principal_congruence(lat, lat.elements[x], lat.elements[y])
                containing = [
                    t.labels for t in con.congruences if t.labels[x] == t.labels[y]
                ]
                acc = containing[0]
                for other in containing[1:]:
                    acc = intersect_labels(acc, other)
                assert theta.labels == acc


def test_join_congruences_is_least_upper_bound(chain8_k):
    # the views join_congruences and congruence_leq agree with the closure
    # and the scalar refinement loop, and the join is the least upper bound
    # under the loop.  K of the 8-chain has two words per mask; so has a
    # 70-chain, whose cover principals are single bits, two of those
    # taken here in the second word
    long_chain = chain(70)
    cases = [(lat, all_congruences(lat).congruences) for lat in (chain(4), chain8_k)]
    cases.append((long_chain, [ref.principal_congruence(long_chain, x, y)
                               for x, y in long_chain.poset.cover_names()[::4]]))
    for lat, con in cases:
        for a in con:
            for b in con:
                j = ref.join_congruences(a, b)
                assert join_congruences(a, b) == j
                assert congruence_leq(a, b) == ref.congruence_leq(a, b)
                assert ref.congruence_leq(a, j) and ref.congruence_leq(b, j)
                for c in con:
                    if ref.congruence_leq(a, c) and ref.congruence_leq(b, c):
                        assert ref.congruence_leq(j, c)


# --------------------------------------------------------------- Princ

def test_princ_of_three_chain_is_all_of_con():
    lat = chain(3)
    po = princ_order(lat)
    con = all_congruences(lat)
    assert {t.labels for t in po.congruences} == {t.labels for t in con.congruences}


def test_princ_of_m3():
    po = princ_order(m3())
    assert len(po) == 2


def test_princ_witnesses_generate():
    lat = lattice_from_covers(["0", "p", "q", "1"],
                              [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    po = princ_order(lat)
    for theta, (x, y) in zip(po.congruences, po.witnesses):
        assert ref.principal_congruence(lat, x, y) == theta


# ------------------------------------------------------------ I-congruences

def test_is_I_congruence_basics():
    lat = chain(4)
    assert not is_I_congruence(lat, zero_congruence(lat))
    assert not is_I_congruence(lat, one_congruence(lat))
    mid = principal_congruence(lat, "c1", "c2")
    assert is_I_congruence(lat, mid)


# --------------------------------------------------------------- valuation

def test_valuation_zero_and_principals():
    lat = chain(4)
    con = all_congruences(lat)
    v = valuation(lat)
    po = {t.labels for t in princ_order(lat).congruences}
    for theta, val in zip(con.congruences, v.values):
        if theta.is_zero():
            assert val == 0
        elif theta.labels in po:
            assert val == 1
        else:
            assert val >= 2
    assert {t.labels for t, val in zip(con.congruences, v.values) if val <= 1} == po


def test_valuation_subadditive():
    for lat in random_lattices(13, 5, max_size=8):
        con = all_congruences(lat)
        v = valuation(lat)
        index = {t.labels: i for i, t in enumerate(con.congruences)}
        for a in con.congruences:
            for b in con.congruences:
                j = join_congruences(a, b)
                assert (v.values[index[j.labels]]
                        <= v.values[index[a.labels]] + v.values[index[b.labels]])


def interior_strict_orders(k):
    """All strict orders on k labeled points, by orientation assignment."""
    pairs = list(itertools.combinations(range(k), 2))
    for assign in itertools.product((0, 1, 2), repeat=len(pairs)):
        rel = np.zeros((k, k), dtype=bool)
        for (i, j), a in zip(pairs, assign):
            if a == 1:
                rel[i, j] = True
            elif a == 2:
                rel[j, i] = True
        ok = True
        for m in range(k):
            reach = rel[m]
            for t in range(k):
                if reach[t] and not np.all(~rel[t] | reach):
                    ok = False
                    break
            if not ok:
                break
        closed = rel.copy()
        for _ in range(k):
            closed = closed | (closed @ closed)
        if not np.array_equal(closed, rel):
            continue
        yield rel


def find_valuation_two_witness(max_interior=5):
    """Search small bounded lattices for a congruence that needs two
    principal congruences; returns the first hit."""
    for k in range(2, max_interior + 1):
        names = [f"x{i}" for i in range(k)]
        for rel in interior_strict_orders(k):
            covers = [(names[i], names[j]) for i in range(k) for j in range(k) if rel[i, j]]
            covers += [("0", x) for x in names] + [(x, "1") for x in names]
            try:
                lat = as_lattice(validate_poset(["0"] + names + ["1"], covers))
            except Exception:
                continue
            con = all_congruences(lat)
            if len(con) < 3:
                continue
            v = valuation(lat)
            for theta, val in zip(con.congruences, v.values):
                if val == 2:
                    return lat, theta
    return None


def test_a_small_lattice_needs_two_principal_congruences():
    hit = find_valuation_two_witness()
    assert hit is not None
    lat, theta = hit
    assert lat.n <= 7
    po = {t.labels for t in princ_order(lat).congruences}
    assert theta.labels not in po


# ----------------------------------------------------------- property mix

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_congruences_pass_substitution(seed):
    for lat in random_lattices(seed, 1, max_size=9):
        for theta in all_congruences(lat).congruences:
            ok, witness = is_congruence(lat, theta.labels)
            assert ok, witness


def test_con_order_is_bounded_lattice_under_refinement():
    for lat in random_lattices(3, 4, max_size=8):
        con = all_congruences(lat)
        assert con.zero.is_zero() and con.one.is_one()
        # refinement order has all joins: closure guarantees membership
        for a in con.congruences:
            for b in con.congruences:
                assert ref.join_congruences(a, b).labels in {t.labels for t in con.congruences}


# ------------------------------------- bitmask engine against label vectors

def layered_valuation(lat, con):
    """v by breadth-first joins of principal congruences, on label vectors."""
    principals = {ref.principal_congruence(lat, lat.elements[x], lat.elements[y]).labels
                  for x in range(lat.n) for y in range(lat.n)}
    by_labels = {t.labels: t for t in con.congruences}
    values = {zero_congruence(lat).labels: 0}
    frontier = []
    for labels in principals:
        if labels not in values:
            values[labels] = 1
            frontier.append(by_labels[labels])
    layer = 1
    while frontier:
        layer += 1
        new = []
        for theta in frontier:
            for labels in principals:
                j = ref.join_congruences(theta, by_labels[labels])
                if j.labels not in values:
                    values[j.labels] = layer
                    new.append(j)
        frontier = new
    return tuple(values[t.labels] for t in con.congruences)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_engine_con_matches_brute_force(seed):
    for lat in random_lattices(seed, 1, max_size=8):
        assert lat.n <= 8
        con = all_congruences(lat)
        got = [t.labels for t in con.congruences]
        assert len(got) == len(set(got))
        assert set(got) == congruences_by_brute_force(lat)
        leq = [[ref.congruence_leq(a, b) for b in con.congruences] for a in con.congruences]
        assert con.leq.tolist() == leq
        # zero and one are the only congruences below, and above, all others
        assert [t for t, row in zip(con.congruences, leq) if all(row)] == [con.zero]
        assert [t for t, col in zip(con.congruences, zip(*leq)) if all(col)] == [con.one]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_engine_princ_matches_direct_closure(seed):
    for lat in random_lattices(seed, 1, max_size=10):
        po = princ_order(lat)
        for theta, (x, y) in zip(po.congruences, po.witnesses):
            assert ref.principal_congruence(lat, x, y) == theta
        direct = {
            ref.principal_congruence(lat, lat.elements[x], lat.elements[y]).labels
            for x in range(lat.n) for y in range(lat.n) if lat.leq[x, y]
        }
        assert [t.labels for t in po.congruences] == sorted(
            direct, key=lambda labels: (-len(set(labels)), labels))
        for x, a in enumerate(po.congruences):
            for y, b in enumerate(po.congruences):
                assert po.leq[x, y] == ref.congruence_leq(a, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_engine_valuation_matches_join_layering(seed):
    for lat in random_lattices(seed, 1, max_size=9):
        con = all_congruences(lat)
        assert valuation(lat).values == layered_valuation(lat, con)


def closure_masks(lat):
    """The masks of the con(j_, j), by one worklist closure each: bit k is
    set iff the closure collapses the k-th join-irreducible with its lower
    cover."""
    an = lat.con_analysis
    els = lat.elements
    covers = list(zip(an.joinirr, an.lower_cover))
    masks = []
    for j, lo in covers:
        labels = ref.principal_congruence(lat, els[lo], els[j]).labels
        masks.append(sum(1 << k for k, (x, y) in enumerate(covers) if labels[x] == labels[y]))
    return tuple(masks)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dependency_masks_match_closures(seed):
    for lat in random_lattices(seed, 3, max_size=12):
        assert lat.con_analysis.cm == closure_masks(lat)


@pytest.mark.parametrize("budget", [1, 7])
def test_blas_blocks_do_not_change_masks_or_closures(budget, monkeypatch, templates, poset_zoo):
    # blocks of one row, and of a few rows, so that the dependency product
    # and every squaring round split where the default blocks do not
    import princlat.order as order

    lattices = random_lattices(23, 12, max_size=14)
    lattices.append(assemble_K(poset_zoo["5-chain"], templates).lattice)
    rng = np.random.default_rng(budget)
    relations = [rng.random((n, n)) < 0.1 for n in (1, 5, 9, 30)]  # with cycles

    def results():
        return ([ConAnalysis(lat).cm for lat in lattices],
                [validate_poset(lat.elements, lat.poset.cover_names()).leq for lat in lattices],
                [_transitive_closure(r) for r in relations],
                [t.poset.leq for t in load_templates().values()])

    default = results()
    monkeypatch.setattr(order, "_BLAS_CHUNK", budget)
    monkeypatch.setattr(order, "_BLAS_THREADS", budget)
    for want, got in zip(default, results()):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


def princ_witnesses_by_rows(an):
    """``ConAnalysis.princ_witnesses`` by a loop over x and then the y
    above it, each pair through ``principal``."""
    p = an.poset
    found = {0: (an.bottom, an.bottom)}
    for x in range(p.n):
        for y in np.nonzero(p.leq[x])[0].tolist():
            if y != x:
                found.setdefault(an.principal(x, y), (p.elements[x], p.elements[y]))
    return found


def test_princ_witnesses_match_the_row_loop(templates, poset_zoo):
    # key order and witness pairs, on random lattices and assembled K; the
    # corpus has its own test in the acceptance suite
    lattices = random_lattices(41, 30, max_size=14)
    lattices += [assemble_K(P, templates).lattice for P in poset_zoo.values()]
    for lat in lattices:
        got = list(ConAnalysis(lat).princ_witnesses.items())
        assert got == list(princ_witnesses_by_rows(ConAnalysis(lat)).items())


def test_principal_keeps_no_state(templates, poset_zoo):
    # with every cached property of the analysis built, principal on every
    # comparable pair changes nothing it holds, so no later call depends
    # on which came before; the masks are those of princ_witnesses
    lattices = random_lattices(7, 4, max_size=12) + [m3(), c2_times_c3()]
    lattices += [assemble_K(poset_zoo[name], templates).lattice for name in ("4-chain", "V")]
    for lat in lattices:
        an = ConAnalysis(lat)
        for name, attr in vars(ConAnalysis).items():
            if isinstance(attr, cached_property):
                getattr(an, name)
        before = pickle.dumps(vars(an))
        xs, ys = np.nonzero(lat.leq)
        masks = {an.principal(x, y) for x, y in zip(xs.tolist(), ys.tolist())}
        assert pickle.dumps(vars(an)) == before
        assert masks == set(an.princ_witnesses)


def test_cover_principals_match_closures(chain8_k):
    # cover_principals and the view principal_congruence against the
    # closure, on every prime interval; K of the 8-chain has two words per
    # mask
    for lat in random_lattices(17, 10, max_size=12) + [chain8_k]:
        covers = cover_principals(lat)
        assert sorted(covers) == sorted(lat.poset.covers())
        for (x, y), theta in covers.items():
            x, y = lat.elements[x], lat.elements[y]
            assert theta == principal_congruence(lat, x, y) == ref.principal_congruence(lat, x, y)


def test_one_analysis_per_lattice(monkeypatch):
    import princlat.congruence as congruence

    calls = []
    original = congruence.principal_congruence

    def counting(lat, x, y):
        calls.append((x, y))
        return original(lat, x, y)

    monkeypatch.setattr(congruence, "principal_congruence", counting)
    for lat in random_lattices(31, 5, max_size=10):
        analysis = lat.con_analysis
        all_congruences(lat)
        princ_order(lat)
        valuation(lat)
        assert lat.con_analysis is analysis
        assert len(calls) == 0
        calls.clear()


def test_reference_closure_never_reads_the_analysis(monkeypatch):
    # the oracle runs unchanged on lattices whose analysis raises, fresh
    # ones and ones analysed before, and gives what it gave with it
    from princlat.lattice import FiniteLattice

    def run(lats):
        out = []
        for lat in lats:
            thetas = [ref.principal_congruence(lat, x, y)
                      for x in lat.elements for y in lat.elements]
            pairs = [(a, b) for a in thetas[::3] for b in thetas[::5]]
            out.append([t.labels for t in thetas])
            out.append([ref.join_congruences(a, b).labels for a, b in pairs])
            out.append([ref.congruence_leq(a, b) for a, b in pairs])
        return out

    analysed = [m3(), chain(4)] + random_lattices(5, 3, max_size=9)
    for lat in analysed:
        assert lat.con_analysis is not None
    want = run(analysed)

    def refuse(self):
        raise AssertionError("the reference closure read the analysis")

    monkeypatch.setattr(FiniteLattice, "con_analysis", property(refuse))
    with pytest.raises(AssertionError, match="read the analysis"):
        analysed[0].con_analysis
    assert run(analysed) == want
    assert run([m3(), chain(4)] + random_lattices(5, 3, max_size=9)) == want


def test_join_and_leq_refuse_congruences_of_two_lattices():
    # chain(4) and the 2x2 lattice both have four elements, m3 has five
    b2 = lattice_from_covers(["0", "p", "q", "1"],
                             [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])
    for a, b in ((zero_congruence(chain(4)), one_congruence(b2)),
                 (zero_congruence(chain(4)), zero_congruence(m3()))):
        with pytest.raises(ValueError, match="two lattices"):
            join_congruences(a, b)
        with pytest.raises(ValueError, match="two lattices"):
            congruence_leq(a, b)
    # equal lattices built apart are one lattice
    assert congruence_leq(zero_congruence(chain(4)), one_congruence(chain(4)))
    assert join_congruences(zero_congruence(m3()), zero_congruence(m3())).is_zero()


# --------------------------------------------- Con order against the scalar sort

def or_closure(gens):
    """Every OR of a subset of ``gens``, breadth first: each level holds the
    ORs not seen before, each once, however many paths reach it."""
    known, frontier = {0}, {0}
    while frontier:
        frontier = {m | g for m in frontier for g in gens} - known
        known |= frontier
    return known


def assert_con_order_matches_the_scalar_sort(lat):
    # Con L is the OR-closure of the dependency masks; Con L and Princ L are
    # sorted by block count (most first), then by label vector, and each
    # label row is the scalar label vector of its mask
    an = lat.con_analysis
    assert set(an.con_masks) == or_closure(an.cm)
    for masks, labels in ((an.con_masks, an.con_labels), (an.princ_masks, an.princ_labels)):
        scalar = sorted(set(masks), key=lambda m: (-len(set(an.labels(m))), an.labels(m)))
        assert list(masks) == scalar
        assert labels.tolist() == [list(an.labels(m)) for m in scalar]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_con_order_matches_the_scalar_sort(seed):
    for lat in random_lattices(seed, 3, max_size=12):
        assert_con_order_matches_the_scalar_sort(lat)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_isolating_masks_match_the_label_rows(seed):
    # word_flags reads a mask's word row as _isolating reads its label row,
    # on every congruence; con_set is Con L unordered.  In chain(2) the top
    # is the only atom and the bottom the only coatom; c2_times_c3 has two
    # atoms and two coatoms
    for lat in random_lattices(seed, 3, max_size=12) + [m3(), chain(1), chain(2), chain(4),
                                                        c2_times_c3()]:
        an = lat.con_analysis
        assert an.con_set() == set(an.con_masks)
        masks = sorted(an.con_set())
        labels = np.array([an.labels(m) for m in masks])
        want = _isolating(lat, labels, _block_counts(labels))
        assert an.word_flags(an.words(masks))[2].tolist() == want.tolist()


def assert_word_rows_match_the_label_rows(lat):
    # the lemma theta <= psi iff M(theta) is a subset of M(psi): the word
    # rows of Con L's label rows are the rows of its masks, and label
    # refinement, as order_mismatch reads it, is the subset order of the
    # word rows on every pair; word_flags agree with the label-row flags,
    # the collapsed pairs on every pair of elements, comparable or not, as
    # (meet, join)
    an = lat.con_analysis
    labels = an.con_labels
    words = an.words(an.con_masks)
    assert np.array_equal(an.label_words(labels), words)
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=len(an.joinirr),
                         bitorder="little").view(bool)
    assert [int.from_bytes(np.packbits(b, bitorder="little").tobytes(), "little")
            for b in bits] == list(an.con_masks)
    assert order_mismatch(labels, bits) is None
    a, b = np.triu_indices(lat.n, 1)
    zero, one, isolating, collapsed = an.word_flags(words, lat.meet[a, b], lat.join[a, b])
    blocks = _block_counts(labels)
    assert zero.tolist() == (blocks == lat.n).tolist()
    assert one.tolist() == (blocks == 1).tolist()
    assert isolating.tolist() == _isolating(lat, labels, blocks).tolist()
    assert np.array_equal(collapsed, _base_rows(SimpleNamespace(anchor_columns=(a, b)), labels))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_word_rows_match_the_label_rows(seed):
    for lat in random_lattices(seed, 3, max_size=12) + [m3(), chain(1), chain(2), chain(4)]:
        assert_word_rows_match_the_label_rows(lat)


def test_word_rows_match_the_label_rows_on_the_zoo(templates, poset_zoo):
    # assembled K, the 8-chain's with more than 64 join-irreducibles, so
    # each word row is two words
    names = ["0"] + [f"x{i}" for i in range(8)] + ["1"]
    chain8 = bounded(names, list(zip(names, names[1:])))
    for P in [*poset_zoo.values(), chain8]:
        assert_word_rows_match_the_label_rows(assemble_K(P, templates).lattice)
    assert assemble_K(chain8, templates).lattice.con_analysis.words([0]).shape == (1, 2)


def test_canonical_counts_do_not_wrap_in_the_label_dtype():
    # the zero congruence of a 256-element lattice: its labels 0..255 fit
    # the lattice's uint8 label dtype, its block count does not
    labels = np.arange(256, dtype=_label_dtype(256))[None]
    assert labels.dtype == np.uint8
    assert _canonical_counts(labels).tolist() == _block_counts(labels).tolist() == [256]


def test_con_order_matches_the_scalar_sort_on_assembled_lattices(
        templates, poset_zoo, monkeypatch):
    # K of the 8-element interior chain has more than 64 join-irreducibles,
    # so each r(x) is a key of two 64-bit words; with a one-word chunk
    # budget every mask goes in a chunk of its own
    import princlat.congruence as congruence

    names = ["0"] + [f"x{i}" for i in range(8)] + ["1"]
    chain8 = bounded(names, list(zip(names, names[1:])))
    for P in [*poset_zoo.values(), chain8]:
        assert_con_order_matches_the_scalar_sort(assemble_K(P, templates).lattice)
    wide = assemble_K(chain8, templates).lattice
    assert len(wide.con_analysis.joinirr) > 64
    monkeypatch.setattr(congruence, "_CHUNK", 1)
    for P in (poset_zoo["B2"], chain8):
        assert_con_order_matches_the_scalar_sort(assemble_K(P, templates).lattice)


# ------------------------------------ row-wise order check against a double loop

def first_order_mismatch(thetas, members):
    """The row-major scalar reference for ``order_mismatch``."""
    for a, ta in enumerate(thetas):
        for b, tb in enumerate(thetas):
            if ref.congruence_leq(ta, tb) != bool((members[a] <= members[b]).all()):
                return a, b
    return None


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
def test_order_mismatch_matches_a_scalar_double_loop(seed, rng):
    for lat in random_lattices(seed, 1, max_size=8):
        thetas = all_congruences(lat).congruences
        # row a holds the congruences below thetas[a], so containment of
        # rows is refinement
        members = np.array([[ref.congruence_leq(t, s) for t in thetas] for s in thetas])
        assert order_mismatch(label_matrix(thetas), members) is None
        a, k = rng.randrange(len(thetas)), rng.randrange(len(thetas))
        members[a, k] = not members[a, k]
        want = first_order_mismatch(thetas, members)
        assert order_mismatch(label_matrix(thetas), members) == want


# ------------------------------------------------ block firsts in chunks of rows

def scalar_block_firsts(keys):
    """``first[r, i]`` by a loop: the least j whose key under row r is i's,
    for a stack of label matrices (words x rows x n)."""
    words, m, n = keys.shape
    first = np.empty((m, n), dtype=int)
    for r in range(m):
        seen = {}
        for i in range(n):
            first[r, i] = seen.setdefault(tuple(keys[:, r, i].tolist()), i)
    return first


def test_block_firsts_chunks_do_not_change_the_result(monkeypatch):
    # one row per chunk, and five rows per chunk over 37 rows (the last
    # chunk holds two), give the unchunked result, which is the scalar
    # loop's, in the label dtype of an n-element lattice; n = 300 needs
    # uint16.  Stacked 3-D input reads one key of several words per entry
    import princlat.congruence as congruence

    rng = np.random.default_rng(20260201)
    for shape, values in (((37, 7), 3), ((37, 300), 100), ((3, 37, 5), 2), ((2, 37, 12), 3)):
        labels = rng.integers(0, values, size=shape, dtype=np.uint64)
        keys = labels[None] if labels.ndim == 2 else labels
        words, _, n = keys.shape
        monkeypatch.setattr(congruence, "_CHUNK", 1 << 40)
        whole = _block_firsts(labels)
        assert whole.dtype == _label_dtype(n), shape
        assert np.array_equal(whole, scalar_block_firsts(keys)), shape
        for chunk in (1, 5 * words * n):
            monkeypatch.setattr(congruence, "_CHUNK", chunk)
            first = _block_firsts(labels)
            assert first.dtype == _label_dtype(n), (shape, chunk)
            assert np.array_equal(first, whole), (shape, chunk)


# --------------------------------------- principal certificate on synthetic orders

def synthetic_family(rng, union=False):
    """A random poset's down sets as membership rows, with label vectors
    whose refinement is containment.

    theta_H has one block {0} u {1 + i : i in H} on the points 0..k + 1 and
    singletons elsewhere.  With ``union``, it has instead a block
    {2i + 1, 2i + 2} for each i in H, on the points 0..2k: then its pairs
    are the union of those of the theta_{down p}, p in H, as for beta_H.
    Labels are renumbered at random per row, so refinement can only be
    read from the partition.  The family is all down sets or all
    nonempty ones.
    """
    k = rng.randrange(0, 11)
    names = [f"x{i}" for i in range(k)]
    covers = [(names[i], names[j]) for i in range(k) for j in range(i + 1, k)
              if rng.random() < 0.4]
    p = validate_poset(names, covers)
    family = down_sets(p, nonempty_only=k > 0 and rng.random() < 0.5)
    rows = np.array([[x in ds.members for x in p.elements] for ds in family],
                    dtype=bool).reshape(len(family), k)
    thetas = []
    for row in rows:
        held = np.flatnonzero(row).tolist()
        if union:
            points, blocks = 2 * k + 1, [[2 * i + 1, 2 * i + 2] for i in held]
        else:
            points, blocks = k + 2, [[0] + [1 + i for i in held]]
        ids = rng.sample(range(100), points)
        for block in blocks:
            for x in block:
                ids[x] = ids[block[0]]
        thetas.append(SimpleNamespace(labels=tuple(ids)))
    return thetas, rows


def union_labels(rows):
    """The label rows of the union family of :func:`synthetic_family`,
    numbered by position: the block {2i + 1, 2i + 2} for each member i."""
    m, k = rows.shape
    labels = np.tile(np.arange(2 * k + 1), (m, 1))
    labels[:, 2::2][rows] -= 1
    return labels


def pair_words(labels):
    """Each label row as the pairs i < j of points it puts in one block,
    as a row of 64-bit words: one partition refines another iff its
    pairs are a subset of the other's.  So the word rows of a family of
    partitions, which need not be congruences of a lattice, stand in for
    congruence masks in :func:`principal_certificate`."""
    labels = np.asarray(labels)
    i, j = np.triu_indices(labels.shape[1], 1)
    return _bit_words(labels[:, i] == labels[:, j])


def perturbed(thetas, rng):
    """thetas with two rows swapped, or with two blocks of one row merged."""
    thetas = list(thetas)
    kind = rng.choice(("swap", "merge"))
    if kind == "swap" and len(thetas) > 1:
        a, b = rng.sample(range(len(thetas)), 2)
        thetas[a], thetas[b] = thetas[b], thetas[a]
    elif kind == "merge":
        a = rng.randrange(len(thetas))
        lab = thetas[a].labels
        keep, drop = rng.choice(lab), rng.choice(lab)
        thetas[a] = SimpleNamespace(labels=tuple(keep if l == drop else l for l in lab))
    return kind, thetas


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_cover_certificate_matches_order_mismatch_on_synthetic_orders(rng, union):
    # sound on every family, intact or perturbed: where the certificate
    # holds, the order embeds.  Exact on the intact union family, whose
    # rows are the unions of its principal rows: it holds there.  The
    # shared-block family embeds too, but theta_H is not the union of its
    # principal rows once H has two incomparable elements, so there the
    # certificate may fail and order_mismatch decides.  event() counts
    # each outcome under --hypothesis-show-statistics
    thetas, rows = synthetic_family(rng, union)
    kind, broken = perturbed(thetas, rng)
    for family, label in ((thetas, "intact"), (broken, kind)):
        labels = label_matrix(family)
        embeds = order_mismatch(labels, rows) is None
        certified = principal_certificate(pair_words(labels), rows, principal_rows(rows))
        event(f"{'union' if union else 'shared'} {label}: "
              f"{'embedding' if embeds else 'mismatch'}, certified {certified}")
        assert embeds or not certified
        if union and family is thetas:
            assert certified


def test_principal_certificate_finds_a_broken_principal_row_past_the_first_byte():
    # the union family on an antichain of ten: theta_H has the block
    # {2i + 1, 2i + 2} for each x_i in H.  The broken family also merges
    # the spare point 0 into the block of x9 in the principal row {x9}
    # alone, so {x9} is contained in {x0, x9} but its row is not a subset
    # of that row's; x9 is column 9, in the second byte of a membership row
    p = validate_poset([f"x{i}" for i in range(10)], [])
    rows = down_set_matrix(p)
    principal = principal_rows(rows)
    labels = union_labels(rows)
    assert principal_certificate(pair_words(labels), rows, principal)
    assert order_mismatch(labels, rows) is None
    h = int(np.flatnonzero(rows[:, 9] & (rows.sum(axis=1) == 1))[0])
    labels[h, 0] = labels[h, 19]
    assert order_mismatch(labels, rows) is not None
    assert not principal_certificate(pair_words(labels), rows, principal)


def test_cover_certificate_on_the_wide_keys_of_a_65_chain():
    # the 66 down sets of a 65-element chain are the principal rows and
    # the empty row, so theta_H with the block {0} u {1 + i : i in H} is
    # the union of its principal rows.  Swapping two rows of a chain's
    # family breaks the order whichever two they are
    p = validate_poset([f"x{i}" for i in range(65)], [(f"x{i}", f"x{i + 1}") for i in range(64)])
    rows = down_set_matrix(p)
    assert rows.shape == (66, 65)
    labels = np.tile(np.arange(67), (len(rows), 1))
    labels[:, 1:66][rows] = 0
    principal = principal_rows(rows)
    assert principal_certificate(pair_words(labels), rows, principal)
    assert order_mismatch(labels, rows) is None
    for a, b in ((0, 65), (31, 32), (64, 65)):
        swapped = labels.copy()
        swapped[[a, b]] = labels[[b, a]]
        assert order_mismatch(swapped, rows) is not None
        assert not principal_certificate(pair_words(swapped), rows, principal)


def test_principal_certificate_finds_a_broken_principal_row_in_the_second_word():
    # the union family on 65 elements, a chain c0 < ... < c63 and u apart:
    # 130 down sets, and u is column 64, bit 0 of the second 64-bit word of
    # a packed membership row.  Its block {129, 130} lies past the first
    # word of the pair words too.  The broken family also merges the spare
    # point 0 into that block in the principal row {u} alone, so {u} is
    # contained in {c0, u} but its row is not a subset of that row's
    chain_ = [f"c{i}" for i in range(64)]
    p = validate_poset(chain_ + ["u"], list(zip(chain_, chain_[1:])))
    rows = down_set_matrix(p)
    assert rows.shape == (130, 65)
    labels = union_labels(rows)
    words = pair_words(labels)
    assert words.shape[1] > 1
    principal = principal_rows(rows)
    assert principal_certificate(words, rows, principal)
    assert order_mismatch(labels, rows) is None
    u = p.index("u")
    assert u == 64
    h = int(np.flatnonzero(rows[:, u] & (rows.sum(axis=1) == 1))[0])
    labels[h, 0] = labels[h, 2 * u + 1]
    assert order_mismatch(labels, rows) is not None
    assert not principal_certificate(pair_words(labels), rows, principal)


def test_cover_certificate_chunks_do_not_change_the_verdict(templates, monkeypatch):
    # one row per chunk, and chunks of a few rows, give the verdict of the
    # default budget on synthetic families, intact and perturbed, and on
    # the beta rows of the 10-antichain, intact and with two rows swapped
    import princlat.congruence as congruence

    rng = random.Random(20260201)
    inputs = []
    for _ in range(40):
        thetas, rows = synthetic_family(rng)
        inputs.append((pair_words(label_matrix(thetas)), rows))
        inputs.append((pair_words(label_matrix(perturbed(thetas, rng)[1])), rows))
    names = ["0", "1"] + [f"x{i}" for i in range(10)]
    P = bounded(names, [("0", x) for x in names[2:]] + [(x, "1") for x in names[2:]])
    result = assemble_K(P, templates)
    labels, error = beta_labels(result.lattice, result.contributions, result.interior_down_sets)
    assert error is None and labels.shape == (1 << 10, 24)
    words = result.betas[0]
    assert words.shape == (1 << 10, 1)
    assert np.array_equal(words, result.lattice.con_analysis.label_words(labels))
    swapped = words.copy()
    swapped[[3, 700]] = words[[700, 3]]
    inputs += [(words, result.interior_down_sets), (swapped, result.interior_down_sets)]
    inputs = [(words, rows, principal_rows(rows)) for words, rows in inputs]
    verdicts = [principal_certificate(*given) for given in inputs]
    assert verdicts[-2:] == [True, False]
    assert True in verdicts[:-2] and False in verdicts[:-2]
    for chunk in (1, 3 * 10):
        monkeypatch.setattr(congruence, "_CHUNK", chunk)
        assert [principal_certificate(*given) for given in inputs] == verdicts, chunk


# ------------------------------------ vectorised substitution check against the loop

def scalar_is_congruence(lat, labels):
    """The element-by-element reference for ``is_congruence``."""
    reps = {}
    for i in range(lat.n):
        if labels[i] not in reps:
            reps[labels[i]] = i
            continue
        r = reps[labels[i]]
        for table in (lat.join, lat.meet):
            for z in range(lat.n):
                if labels[table[i, z]] != labels[table[r, z]]:
                    return False, (lat.elements[i], lat.elements[r], lat.elements[z])
    return True, None


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_is_congruence_matches_a_scalar_loop(seed):
    rng = random.Random(seed)
    for lat in random_lattices(seed, 2, max_size=10):
        partitions = [t.labels for t in all_congruences(lat).congruences]
        for _ in range(10):
            blocks = rng.randrange(1, lat.n + 1)
            partitions.append(tuple(rng.randrange(blocks) * 7 for _ in range(lat.n)))
        for labels in list(partitions):  # a congruence with one element moved
            moved = list(labels)
            moved[rng.randrange(lat.n)] = rng.choice(labels)
            partitions.append(tuple(moved))
        for labels in partitions:
            assert is_congruence(lat, labels) == scalar_is_congruence(lat, labels)


# ------------------------------------------- I-congruence flags of a label matrix

@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_isolating_rows_match_a_scalar_count(seed):
    # congruences and arbitrary partitions, with labels that need not be canonical
    rng = random.Random(seed)
    for lat in random_lattices(seed, 2, max_size=10):
        partitions = [t.labels for t in all_congruences(lat).congruences]
        for _ in range(10):
            blocks = rng.randrange(1, lat.n + 1)
            partitions.append(tuple(rng.randrange(blocks) * 3 for _ in range(lat.n)))
        want = []
        for lab in partitions:
            ends = [lab[lat.index(b)] for b in (lat.bottom, lat.top)]
            want.append(len(set(lab)) != lat.n and all(lab.count(e) == 1 for e in ends))
        labels = np.array(partitions)
        assert _isolating(lat, labels, _block_counts(labels)).tolist() == want
        assert [is_I_congruence(lat, CongruenceRelation(lat, lab)) for lab in partitions] == want
