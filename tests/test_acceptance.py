"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Two checks take their expected values from an exhaustive enumeration of
the gadgets the criteria allow (``gadget_space.py``), not from a pinned
figure:

* the gadget's prime-interval count is the count every admissible gadget
  has (15); a pinned 12 is unattainable, with or without the block
  condition;
* the length of K follows the shape of the interior (6 with a 3-element
  chain, 5 with a comparable pair but no such chain, 3 for a nonempty
  antichain); a pinned bound of 5 is unattainable on the interior 3-chain
  for every admissible gadget.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from princlat.congruence import (
    ConAnalysis,
    _block_counts,
    _canonical_counts,
    all_congruences,
    is_congruence,
    is_I_congruence,
    princ_order,
    valuation,
    base,
    order_mismatch,
    principal_certificate,
)
from princlat.construction import (
    AMALGAM_COPIES,
    assemble_K,
    beta_H,
    double_gadget,
    phi,
    verify_theorem,
)
from princlat.errors import AssemblyNotALattice
from princlat.fuzzing import random_bounded_poset, run_fuzz
from princlat.kernels import beta_labels
from princlat.lattice import (
    c2_times_c3,
    chain,
    is_01_sublattice,
    lattice_iso,
    length,
    m3,
    prime_intervals,
    quotient,
    sublattice,
)
from princlat.order import (
    down_set_matrix,
    down_sets,
    is_down_set,
    order_iso,
    principal_rows,
    validate_poset,
)

import reference as ref
from conftest import membership, random_lattices, run_cli
from gadget_space import (
    anchors_lower_first,
    battery_gadgets,
    gadgets,
    grid_lattices,
    role_covers,
)
from test_construction import assert_betas_match, assert_facts_match_the_scalar_loop
from test_congruence import (
    assert_word_rows_match_the_label_rows,
    closure_masks,
    find_valuation_two_witness,
    intersect_labels,
    princ_witnesses_by_rows,
)

FUZZ_SEED = 20260201
FUZZ_SAMPLES = 200
FUZZ_MAX_SIZE = 8


def report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def corpus(templates):
    """The fuzz corpus with one full assembly per sample, computed once."""
    out = []
    for i in range(FUZZ_SAMPLES):
        P = random_bounded_poset(FUZZ_SEED, i, FUZZ_MAX_SIZE)
        result = assemble_K(P, templates)
        con = all_congruences(result.lattice)
        downs = down_sets(P.poset, nonempty_only=True)
        out.append((P, result, con, downs))
    return out


@pytest.fixture(scope="module")
def admissible_gadgets(grid):
    """Every labelled gadget meeting criteria 3 and 5, computed once."""
    return gadgets(grid)


def test_criterion_1_theorem_at_desk_scale(templates):
    t0 = time.perf_counter()
    outcomes = run_fuzz(FUZZ_MAX_SIZE, FUZZ_SAMPLES, FUZZ_SEED, jobs=1)
    elapsed = time.perf_counter() - t0
    failures = [o for o in outcomes if not o.report.passed]
    ok = not failures and elapsed < 300
    report(1, "theorem at desk scale", ok)
    assert not failures, failures[:3]
    assert elapsed < 300, f"fuzz took {elapsed:.0f}s"


def test_criterion_2_congruence_count(corpus):
    ok = True
    for P, result, con, downs in corpus:
        if len(con) != len(downs):
            ok = False
            break
    report(2, "congruence/down-set count", ok)
    for P, result, con, downs in corpus:
        assert len(con) == len(downs), P.poset.cover_names()


def test_dependency_masks_match_closures_on_the_corpus(corpus):
    # the masks of the con(j_, j) every criterion above reads, against the
    # label-vector closure
    for P, result, con, downs in corpus:
        assert result.lattice.con_analysis.cm == closure_masks(result.lattice), (
            P.poset.cover_names())


def test_princ_witnesses_match_the_row_loop_on_the_corpus(corpus):
    # key order and witness pairs of every corpus K, against a fresh analysis
    for P, result, con, downs in corpus:
        got = list(ConAnalysis(result.lattice).princ_witnesses.items())
        assert got == list(princ_witnesses_by_rows(ConAnalysis(result.lattice)).items()), (
            P.poset.cover_names())


def test_cover_certificate_agrees_with_order_mismatch(corpus, templates, poset_zoo):
    # the label matrices of phi's order check and of the downset-congruence
    # stage, then with two rows swapped or one repeated; the certificate
    # reads their word rows, order_mismatch the labels.  Both families are
    # joins of their principal rows (Con K's as phi is a lattice
    # isomorphism, beta's by construction), and a swap that keeps the order
    # is an automorphism of the family, so the certificate is exact on all
    # of them.  The result's beta rows are the scalar beta_H of each down
    # set of the interior, in down-set order, which is the order of the
    # nonempty down sets of P other than P
    rng = random.Random(20260201)
    samples = [(P, result) for P, result, _, _ in corpus]
    samples += [(P, assemble_K(P, templates)) for P in poset_zoo.values()]
    for P, result in samples:
        corr = phi(result)
        assert corr.backward == {ds: theta for theta, ds in corr.forward.items()}
        an = result.lattice.con_analysis
        cons = all_congruences(result.lattice).congruences
        image = membership([corr.forward[t].members for t in cons], P.elements)
        inputs = [(an.con_labels, image)]
        if not result.degenerate:
            family = [ds.members for ds in down_sets(P.interior_poset)]
            betas, error = beta_labels(result.lattice, result.contributions,
                                       result.interior_down_sets)
            assert error is None
            assert np.array_equal(result.betas[0], an.label_words(betas))
            assert betas.tolist() == [list(beta_H(result, h).labels) for h in family]
            rows = down_set_matrix(P.interior_poset)
            inner = [P.poset.index(x) for x in P.interior]
            assert np.array_equal(down_set_matrix(P.poset)[1:-1][:, inner], rows)
            inputs.append((betas, rows))
        for labels, rows in inputs:
            principal = principal_rows(rows)
            assert principal_certificate(an.label_words(labels), rows, principal), \
                P.poset.cover_names()
            if len(labels) < 2:
                continue
            a, b = rng.sample(range(len(labels)), 2)
            swapped, repeated = labels.copy(), labels.copy()
            swapped[[a, b]] = labels[[b, a]]
            repeated[a] = labels[b]
            for variant in (swapped, repeated):
                assert principal_certificate(an.label_words(variant), rows, principal) == (
                    order_mismatch(variant, rows) is None), P.poset.cover_names()


def test_the_pairwise_fallback_gives_the_same_reports(corpus, templates, poset_zoo,
                                                     monkeypatch):
    # with the certificate refuted everywhere, order_mismatch decides the
    # order at both sites that read betas_embed (the downset-congruence
    # stage and phi): every verify report and every phi result of the
    # corpus and the zoo is the one that the certificate gives
    import princlat.construction as construction

    posets = dict(poset_zoo)
    posets.update((f"sample{i}", P) for i, (P, _, _, _) in enumerate(corpus))

    def outcomes():
        out = {}
        for name, P in posets.items():
            corr = phi(assemble_K(P, templates))
            out[name] = (verify_theorem(P, templates, name), corr.forward, corr.backward)
        return out

    certified = outcomes()
    assert all(report.passed for report, _, _ in certified.values())
    refuted = []

    def refute(words, members, principal):
        refuted.append(len(words))
        return False

    monkeypatch.setattr(construction, "principal_certificate", refute)
    assert outcomes() == certified
    # one per phi, and one per verify of a P of more than two elements
    assert len(refuted) == len(posets) + sum(len(P.elements) > 2 for P in posets.values())


def test_word_rows_match_the_label_rows_on_the_corpus(corpus):
    for P, result, _, _ in corpus:
        assert_word_rows_match_the_label_rows(result.lattice)


def test_con_and_beta_label_rows_are_canonical(corpus, templates, poset_zoo):
    # con_facts and the downset-congruence stage read a row's block count
    # as its largest label plus 1, which holds because every row of
    # con_labels and of the beta rows numbers its blocks 0, 1, 2, ... by
    # first occurrence
    results = [result for _, result, _, _ in corpus]
    results += [assemble_K(P, templates) for P in poset_zoo.values()]
    for result in results:
        matrices = [result.lattice.con_analysis.con_labels]
        if not result.degenerate:
            matrices.append(beta_labels(result.lattice, result.contributions,
                                        result.interior_down_sets)[0])
        for labels in matrices:
            for row in labels.tolist():
                firsts = list(dict.fromkeys(row))
                assert firsts == list(range(len(firsts))), row
            assert np.array_equal(_canonical_counts(labels), _block_counts(labels))


def test_batched_kernels_match_the_scalar_loops_on_the_corpus(corpus):
    # the forward facts (flags, base rows, their down-set rows) and the beta kernel
    # over every down set of the interior, against their scalar references
    for P, result, _, _ in corpus:
        assert_facts_match_the_scalar_loop(result)
        if not result.degenerate:
            assert_betas_match(result)


def test_criterion_3_gadget_suite(templates):
    t = templates["S"]
    lat = t.lattice
    r = {role: ph for ph, role in t.role_map.items()}
    tp = ref.principal_congruence(lat, r["a_p"], r["b_p"])
    tq = ref.principal_congruence(lat, r["a_q"], r["b_q"])
    icons = [x for x in all_congruences(lat).congruences if is_I_congruence(lat, x)]
    ok = (
        len(icons) == 2
        and ref.congruence_leq(tp, tq) and tp != tq
        and {x.labels for x in icons} == {tp.labels, tq.labels}
        and lattice_iso(quotient(lat, tq), c2_times_c3()) is not None
        and ref.principal_congruence(lat, r["d"], r["e"]) == tp
    )
    report(3, "gadget congruence suite", ok)
    assert len(icons) == 2
    assert ref.congruence_leq(tp, tq) and tp != tq
    assert lattice_iso(quotient(lat, tq), c2_times_c3()) is not None
    assert ref.principal_congruence(lat, r["d"], r["e"]) == tp


def test_criterion_3_prime_interval_count(templates, admissible_gadgets):
    """The gadget has the prime-interval count that every admissible gadget has.

    The expected count is derived here, not pinned: ``admissible_gadgets``
    holds every 11-element lattice, labelled, that meets the gadget suite
    of criterion 3 and whose con(a_q, b_q) blocks are chains of at most
    three elements (criterion 5); gadget_space.py proves the enumeration
    complete.  All of them have 15 prime intervals, and the shipped S is
    one of them, so replacing S.json by a gadget with another count fails
    here.

    An earlier statement of this criterion pinned 12, which no gadget
    reaches even without the block condition: 12 prime intervals force
    chain blocks and one crossing cover per grid cover, and every such
    lattice has far more than two isolating congruences.
    """
    lat = templates["S"].lattice
    count = len(prime_intervals(lat))
    attainable = {len(prime_intervals(g.lattice)) for g in admissible_gadgets}
    shipped_found = any(lattice_iso(g.lattice, lat) for g in admissible_gadgets)
    twelve, isolating = [], []
    for l, _, icons in grid_lattices(max_block=6, max_crossings=1):
        twelve.append(l)
        isolating.append(len(icons))
    ok = (attainable == {count} and shipped_found and 12 not in attainable
          and bool(twelve) and 2 not in isolating)
    report(3, f"gadget prime-interval count = {count}, derived", ok)
    assert attainable == {count}, f"gadget has {count} prime intervals, admissible: {attainable}"
    assert shipped_found, "the shipped gadget is missing from the enumeration"
    assert 12 not in attainable
    assert twelve and all(len(prime_intervals(l)) == 12 for l in twelve)
    assert 2 not in isolating, "a 12-edge lattice over the grid has two isolating congruences"


def test_criterion_3_gadget_is_derived(templates, grid):
    """The shipped gadget is the one the battery derives.

    ``battery_gadgets`` tries every role assignment on every lattice the
    criterion-3 enumeration yields against the load-time battery.  Four
    labelled gadgets pass, all on the shipped lattice: S and S with one or
    both anchor pairs flipped.  Exactly one has both anchor pairs lower
    element first, and it is S.json, role for role, so a shipped S with
    two roles swapped fails here.
    """
    shipped = templates["S"]
    found = battery_gadgets(grid)
    isomorphic = [t for t in found if lattice_iso(t.lattice, shipped.lattice) is not None]
    lower = [t for t in found if anchors_lower_first(t)]
    ok = (len(found) == 4 and len(isomorphic) == 4 and len(lower) == 1
          and role_covers(lower[0]) == role_covers(shipped))
    report(3, "gadget derived from the battery", ok)
    assert len(found) == 4, f"{len(found)} labelled gadgets pass the battery"
    assert len(isomorphic) == 4, "a derived gadget is not the shipped lattice"
    assert len(lower) == 1, f"{len(lower)} derived gadgets have lower-first anchor pairs"
    assert role_covers(lower[0]) == role_covers(shipped)


def test_criterion_4_degenerate_cases(templates):
    ok = True
    for els, covers in ((["0"], []), (["0", "1"], [("0", "1")])):
        from princlat.order import to_bounded

        P = to_bounded(validate_poset(els, covers))
        result = assemble_K(P, templates)
        assert result.lattice.n == len(els)
        po = princ_order(result.lattice)
        iso = order_iso(P.poset, po.as_poset())
        ok = ok and iso is not None
        assert iso is not None
    report(4, "degenerate cases", ok)


def test_criterion_5_structural_lemmas(corpus, templates):
    for P, result, con, downs in corpus:
        if not P.interior:
            continue
        lat = result.lattice
        a0 = result.anchor[P.zero][0]
        a1 = result.anchor[P.one][0]
        # every interior element lies in a five-element diamond over the bounds
        for x in lat.elements:
            if x in (lat.bottom, lat.top):
                continue
            five = {x, a0, a1, lat.bottom, lat.top}
            if x in (a0, a1):
                five = {result.anchor[P.interior[0]][0], a0, a1, lat.bottom, lat.top}
            assert is_01_sublattice(lat, five)
            assert lattice_iso(sublattice(lat, five), m3()) is not None
        # every congruence is a bound or isolating
        for theta in con.congruences:
            assert theta.is_zero() or theta.is_one() or is_I_congruence(lat, theta)
        # bases of isolating congruences are down sets
        interior = P.interior_poset
        for theta in con.congruences:
            if is_I_congruence(lat, theta):
                assert is_down_set(interior, base(result, theta))
        # the down-set congruence passes the full check with short chain blocks
        for ds in down_sets(interior):
            theta = beta_H(result, ds.members)
            ok, witness = is_congruence(lat, theta.labels)
            assert ok, witness
            for block in theta.blocks():
                assert len(block) <= 3
                idx = [lat.index(b) for b in block]
                for a, b in itertools.combinations(idx, 2):
                    assert lat.leq[a, b] or lat.leq[b, a]
    report(5, "structural lemmas on fuzzed assemblies", True)


def test_criterion_5_length_bound(corpus, templates, poset_zoo, admissible_gadgets):
    """length(K) follows the shape of the interior of P.

    On every corpus sample: 6 when the interior contains a 3-element
    chain, 5 when it has a comparable pair but no such chain, 3 when it is
    a nonempty antichain, and |P| - 1 when it is empty (K is P).

    An earlier statement of this criterion pinned length(K) <= 5.  On the
    interior 3-chain p < q < r no admissible gadget (see
    test_criterion_3_prime_interval_count) reaches it: glued into its
    double gadgets and assembled, each either is not a lattice or has
    length 6.  Not settled here: whether the paper's own K, glued some
    other way than as the union of gadget orders that assemble_K builds,
    has length 5; no document in this repository decides it.
    """
    bad = []
    for P, result, con, downs in corpus:
        ln = length(result.lattice)
        comps = set(P.comparabilities())
        if not P.interior:
            want = len(P.elements) - 1
        elif any((q, r) in comps for p, q in comps for r in P.interior):
            want = 6
        else:
            want = 5 if comps else 3
        if ln != want:
            bad.append((P.poset.cover_names(), ln, want))

    chain3 = poset_zoo["5-chain"]
    reached = []
    for s in admissible_gadgets:
        trial = dict(templates, S=s, **{n: double_gadget(s, n) for n in AMALGAM_COPIES})
        try:
            reached.append(length(assemble_K(chain3, trial).lattice))
        except AssemblyNotALattice:
            pass
    ok = not bad and reached and min(reached) == 6
    report(5, "length 6/5/3 by interior shape; <= 5 unattainable on a 3-chain", ok)
    assert not bad, f"{len(bad)} samples break the rule, first (covers, length, expected): {bad[0]}"
    assert reached, "no admissible gadget assembles on the interior 3-chain"
    assert min(reached) == 6, f"3-chain lengths reached: {sorted(set(reached))}"


def test_criterion_6_oracle_equivalence(templates, poset_zoo):
    t0 = time.perf_counter()
    lats = [chain(3), chain(5), m3(), c2_times_c3(), templates["S"].lattice]
    for P in poset_zoo.values():
        result = assemble_K(P, templates)
        if result.lattice.n <= 10:
            lats.append(result.lattice)
    lats += random_lattices(2026, 50, max_size=10)
    for lat in lats:
        con = all_congruences(lat)
        for x in range(lat.n):
            for y in range(lat.n):
                theta = ref.principal_congruence(lat, lat.elements[x], lat.elements[y])
                containing = [c.labels for c in con.congruences
                              if c.labels[x] == c.labels[y]]
                acc = containing[0]
                for other in containing[1:]:
                    acc = intersect_labels(acc, other)
                assert theta.labels == acc, (lat.elements[x], lat.elements[y])
    elapsed = time.perf_counter() - t0
    report(6, "principal = intersection oracle", elapsed < 60)
    assert elapsed < 60, f"oracle battery took {elapsed:.0f}s"


def test_criterion_7_valuation(templates, poset_zoo):
    lats = [chain(4), m3(), c2_times_c3()] + random_lattices(11, 8, max_size=8)
    lats.append(assemble_K(poset_zoo["B2"], templates).lattice)
    for lat in lats:
        con = all_congruences(lat)
        v = valuation(lat)
        index = {t.labels: i for i, t in enumerate(con.congruences)}
        assert v.values[index[con.zero.labels]] == 0
        for a in con.congruences:
            for b in con.congruences:
                j = ref.join_congruences(a, b)
                assert v.values[index[j.labels]] <= (
                    v.values[index[a.labels]] + v.values[index[b.labels]])
        po = {t.labels for t in princ_order(lat).congruences}
        assert {t.labels for t, val in zip(con.congruences, v.values) if val <= 1} == po
    hit = find_valuation_two_witness()
    assert hit is not None and hit[0].n <= 7
    report(7, "valuation properties and v=2 witness", True)


def test_criterion_8_determinism(tmp_path):
    poset = tmp_path / "p.json"
    poset.write_text(json.dumps({
        "name": "mix", "elements": ["0", "a", "b", "c", "1"],
        "covers": [["0", "a"], ["a", "b"], ["0", "c"], ["b", "1"], ["c", "1"]]}))
    runs = {}
    for tag, argv, outfile in [
        ("build", ["build", "--poset", str(poset), "--out", str(tmp_path / "K.json")], "K.json"),
        ("verify", ["verify", "--poset", str(poset)], None),
        ("fuzz", ["fuzz", "--max-size", "6", "--samples", "10", "--seed", "5"], None),
        ("con", None, None),     # filled in below, needs K.json to exist
        ("princ", None, None),
        ("valuation", None, None),
        ("export-dot", ["export-dot", "--lattice", str(tmp_path / "K.json"),
                        "--out", str(tmp_path / "K.dot")], "K.dot"),
    ]:
        if tag in ("con", "princ", "valuation"):
            argv = [tag, "--lattice", str(tmp_path / "K.json")]
            if tag == "princ":
                argv += ["--out", str(tmp_path / "princ.json")]
                outfile = "princ.json"
        first = run_cli(argv)[:2]  # fuzz's stderr holds its wall time
        blob1 = (tmp_path / outfile).read_bytes() if outfile else b""
        second = run_cli(argv)[:2]
        blob2 = (tmp_path / outfile).read_bytes() if outfile else b""
        runs[tag] = (first == second) and (blob1 == blob2)
    ok = all(runs.values())
    report(8, "byte-stable outputs", ok)
    assert ok, runs
