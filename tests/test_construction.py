import collections
import dataclasses
import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from princlat.congruence import (
    ConAnalysis,
    CongruenceRelation,
    _merge,
    all_congruences,
    base,
    congruence_leq,
    is_I_congruence,
    princ_order,
    principal_congruence,
)
from princlat.construction import (
    AMALGAM_COPIES,
    COPY_FAULTS,
    S_ROLE_SET,
    GadgetTemplate,
    _copy_faults,
    _instances,
    _role_names,
    assemble_K,
    beta_H,
    default_template_dir,
    double_gadget,
    load_templates,
    phi,
    verify_theorem,
)
from princlat.errors import (
    AssemblyNotALattice,
    CorrespondenceBroken,
    NotADownSet,
    NotICongruence,
    TemplateInvalid,
    VerificationFailed,
)
from princlat.fuzzing import random_bounded_poset
from princlat.kernels import _contributed, _pair_constants, beta_labels
from princlat.lattice import chain, is_01_sublattice, lattice_from_covers, length
from princlat.order import (
    DownSet,
    Poset,
    RowIndex,
    down_set_matrix,
    down_sets,
    principal_down_set,
    validate_poset,
)

from conftest import (
    bounded,
    join_of,
    le,
    meet_of,
    membership,
    random_lattices,
    zero_congruence,
)
from test_congruence import _canon, scalar_is_congruence


def test_degenerate_sizes(templates, poset_zoo):
    one = assemble_K(poset_zoo["1-chain"], templates)
    assert one.lattice.n == 1
    two = assemble_K(poset_zoo["2-chain"], templates)
    assert two.lattice.n == 2


def test_three_chain_assembly(templates, poset_zoo):
    r = assemble_K(poset_zoo["3-chain"], templates)
    assert r.lattice.n == 6
    assert set(r.lattice.elements) == {"o", "a@0", "a@1", "a@m", "b@m", "i"}


def test_b2_assembly_counts(templates, poset_zoo):
    # two interior 4-chains sharing the bounds, plus the two bound atoms
    r = assemble_K(poset_zoo["B2"], templates)
    assert r.lattice.n == 8
    assert length(r.lattice) == 3


def test_four_chain_assembly_counts(templates, poset_zoo):
    # one gadget plus the two bound atoms
    r = assemble_K(poset_zoo["4-chain"], templates)
    assert r.lattice.n == 13
    assert length(r.lattice) == 5


def test_anchor_pairs_are_complementary_atoms(templates, poset_zoo):
    r = assemble_K(poset_zoo["B2"], templates)
    lat = r.lattice
    a0 = r.anchor[r.source.zero][0]
    for y in lat.elements:
        if y in (lat.bottom, lat.top, a0):
            continue
        assert join_of(lat, a0, y) == lat.top
        assert meet_of(lat, a0, y) == lat.bottom


def test_beta_empty_is_zero(templates, poset_zoo):
    r = assemble_K(poset_zoo["4-chain"], templates)
    assert beta_H(r, ()).is_zero()


def test_beta_of_a_degenerate_result_is_zero(templates, poset_zoo):
    # no interior: the only down set is empty and adds no pair
    for name in ("1-chain", "2-chain"):
        r = assemble_K(poset_zoo[name], templates)
        assert beta_H(r, ()).is_zero()
        labels, error = beta_labels(r.lattice, r.contributions, np.zeros((1, 0), dtype=bool))
        assert error is None and labels.tolist() == [list(range(r.lattice.n))]
        assert r.betas[1] is None and np.array_equal(r.betas[0], labels)


def test_beta_isolated_singleton(templates, poset_zoo):
    r = assemble_K(poset_zoo["B2"], templates)
    theta = beta_H(r, ("p",))
    assert theta.blocks() == [("a@p", "b@p")] + [
        (x,) for x in sorted(r.lattice.elements) if x not in ("a@p", "b@p")
    ] or theta.collapses("a@p", "b@p")
    assert is_I_congruence(r.lattice, theta)
    assert sum(1 for b in theta.blocks() if len(b) > 1) == 1


def named_contributions(result):
    """Each interior element's contributions as sorted element-name pairs."""
    el = result.lattice.elements
    return {p: sorted({tuple(sorted((el[a], el[b]))) for a, b in c})
            for p, c in zip(result.source.interior, result.contributions)}


# sha256 of the JSON of named_contributions for each zoo shape, as they were
# when ConstructionResult still derived them from the S instances by name
GOLDEN_CONTRIBUTIONS = {
    "1-chain": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "2-chain": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "3-chain": "1e60cb0dd171b4598c201be698ddfbff0cf66aaeba6e60c36a43df83a865f751",
    "4-chain": "276f7fce3cd6455ceeaef6cdad9e5ef2d23946450da3cbaad3a36b7512d5dba0",
    "5-chain": "9883deeee77fb45b36788ba5a4fbdc5fe239371f7efb71599ced8e4767c33e4d",
    "B2": "ffd0f35e5cc27724e3665875ebdbb8588e9970aefc8ea398982b9cc591e21dd6",
    "V": "6c526c6f5aee2d1a9e7a8b53b930df8a77b036684e2faf62159c3b50115fa63f",
    "hat": "dcb51d18b713b4a3f99329385b636a9b9949b532eeb9711f7eb4d28017926dfd",
}


def test_contributions_are_fixed_at_assembly(templates, poset_zoo):
    assert sorted(GOLDEN_CONTRIBUTIONS) == sorted(poset_zoo)
    for name, P in poset_zoo.items():
        named = named_contributions(assemble_K(P, templates))
        digest = hashlib.sha256(json.dumps(named, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_CONTRIBUTIONS[name], name
    # spelled out on the 4-chain: p adds theta_p of S(p, q), q adds theta_q;
    # on B2 each isolated element adds its anchor pair only
    assert named_contributions(assemble_K(poset_zoo["4-chain"], templates)) == {
        "p": [("a@p", "b@p"), ("d@p.q", "e@p.q"), ("f@p.q", "g@p.q")],
        "q": [("a@p", "b@p"), ("a@q", "b@q"), ("c@p.q", "d@p.q"), ("c@p.q", "e@p.q"),
              ("d@p.q", "e@p.q"), ("f@p.q", "g@p.q")],
    }
    assert named_contributions(assemble_K(poset_zoo["B2"], templates)) == {
        "p": [("a@p", "b@p")], "q": [("a@q", "b@q")]}


def test_beta_equals_principal_closure(templates, poset_zoo):
    r = assemble_K(poset_zoo["4-chain"], templates)
    theta = beta_H(r, ("p", "q"))
    assert theta == principal_congruence(r.lattice, "a@q", "b@q")


def test_beta_rejects_non_down_set(templates, poset_zoo):
    r = assemble_K(poset_zoo["4-chain"], templates)
    with pytest.raises(NotADownSet):
        beta_H(r, ("q",))       # q without p is upward, not downward, closed
    with pytest.raises(NotADownSet):
        beta_H(r, ("0",))       # bounds are not interior elements


def test_base_of_upper_generator_pulls_lower_in(templates, poset_zoo):
    r = assemble_K(poset_zoo["4-chain"], templates)
    beta = principal_congruence(r.lattice, "a@q", "b@q")
    assert base(r, beta) == ("p", "q")


def test_base_requires_isolating(templates, poset_zoo):
    r = assemble_K(poset_zoo["4-chain"], templates)
    with pytest.raises(NotICongruence):
        base(r, zero_congruence(r.lattice))


def test_phi_counts_and_images(templates, poset_zoo):
    r = assemble_K(poset_zoo["B2"], templates)
    corr = phi(r)
    con = all_congruences(r.lattice)
    assert len(corr.forward) == len(con) == 5
    images = {ds.members for ds in corr.forward.values()}
    assert images == {d.members for d in down_sets(r.source.poset, nonempty_only=True)}
    zero = con.zero
    assert corr.forward[zero].members == ("0",)
    assert set(corr.forward[con.one].members) == set(r.source.elements)


def test_phi_round_trip(templates, poset_zoo, monkeypatch):
    # on every shape, the 1- and 2-chain included: backward is the inverse of
    # forward, and forward's images are exactly the nonempty down sets of P;
    # phi names its images from the interior's down sets, never calling down_sets
    import princlat.construction as construction
    import princlat.order as order

    def refuse(*args, **kwargs):
        raise AssertionError("phi enumerated the down sets of P")

    for module in (order, construction):
        monkeypatch.setattr(module, "down_sets", refuse, raising=False)
    for name, P in poset_zoo.items():
        r = assemble_K(P, templates)
        corr = phi(r)
        downs = down_sets(P.poset, nonempty_only=True)
        assert list(corr.forward) == list(all_congruences(r.lattice).congruences), name
        assert sorted(ds.members for ds in corr.forward.values()) == sorted(
            ds.members for ds in downs), name
        assert len(corr.backward) == len(downs), name
        for theta, ds in corr.forward.items():
            assert corr.backward[ds] == theta, name


def test_verify_theorem_all_shapes(templates, poset_zoo):
    for name, P in poset_zoo.items():
        report = verify_theorem(P, templates, name)
        assert report.passed, report.lines()


def test_principal_congruences_realize_the_source_order(templates, poset_zoo):
    P = poset_zoo["hat"]
    r = assemble_K(P, templates)
    po = princ_order(r.lattice)
    # anchors of interior elements generate principal congruences whose
    # base is the principal down set of the parameter
    for p in P.interior:
        a, b = r.anchor[p]
        theta = principal_congruence(r.lattice, a, b)
        expect = tuple(sorted(set(principal_down_set(P.poset, p).members) - {P.zero}))
        assert base(r, theta) == expect
    assert len(po) == len(P.elements)


def test_assembled_lattice_size_formula(templates, poset_zoo):
    for P in poset_zoo.values():
        if len(P.elements) <= 2:
            continue
        r = assemble_K(P, templates)
        expected = 4 + 2 * len(P.interior) + 5 * len(P.comparabilities())
        assert r.lattice.n == expected


def _renamed_templates(tmp_path):
    """The shipped templates with every S placeholder renamed."""
    src = default_template_dir()
    for f in src.iterdir():
        if f.suffix == ".json":
            (tmp_path / f.name).write_bytes(f.read_bytes())
    doc = json.loads((src / "S.json").read_text(encoding="utf-8"))
    roles = json.loads((src / "S.roles.json").read_text(encoding="utf-8"))
    doc["elements"] = [f"s_{x}" for x in doc["elements"]]
    doc["covers"] = [[f"s_{a}", f"s_{b}"] for a, b in doc["covers"]]
    (tmp_path / "S.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "S.roles.json").write_text(
        json.dumps({f"s_{ph}": role for ph, role in roles.items()}), encoding="utf-8")
    return load_templates(tmp_path)


def test_beta_and_phi_on_a_fresh_result_in_any_call_order(templates, poset_zoo, tmp_path):
    def snapshot():
        r = assemble_K(poset_zoo["4-chain"], templates)
        corr = phi(r)
        return (beta_H(r, ("p",)).labels, beta_H(r, ("p", "q")).labels,
                sorted((t.labels, ds.members) for t, ds in corr.forward.items()))

    before = snapshot()
    assert len(before[2]) == 4
    other = _renamed_templates(tmp_path)
    assert other["S"].role_map != templates["S"].role_map
    assert verify_theorem(poset_zoo["V"], other, "V").passed
    assert snapshot() == before


def test_verify_theorem_analyses_k_once(templates, poset_zoo, monkeypatch):
    import princlat.congruence
    import princlat.construction

    built, closures = [], []
    original_init = ConAnalysis.__init__
    original_closure = principal_congruence

    def counting_init(self, lat):
        built.append(lat)
        original_init(self, lat)

    def counting_closure(lat, x, y):
        closures.append(lat)
        return original_closure(lat, x, y)

    monkeypatch.setattr(ConAnalysis, "__init__", counting_init)
    # construction no longer imports the closure; raising=False still catches
    # a call through a reintroduced import
    for module in (princlat.congruence, princlat.construction):
        monkeypatch.setattr(module, "principal_congruence", counting_closure, raising=False)
    P = poset_zoo["V"]
    report = verify_theorem(P, templates, "V")
    assert report.passed
    assert len(built) == 1 and built[0].n == report.k_size
    K = built[0]
    # the analysis reads the dependency relation, and the anchor pairs read
    # the analysis: no closure runs on K
    assert sum(1 for lat in closures if lat is K) == 0


def _stage_details(report):
    return {name: (ok, detail) for name, ok, detail in report.stages}


def test_verify_theorem_builds_no_object_per_congruence_or_down_set(
        templates, poset_zoo, monkeypatch):
    # verify reads Con K and the beta rows as matrices: it passes on every
    # shape with the object-building API and the pairwise refinement test
    # congruence_leq refusing to run; it builds the
    # forward facts once, checks the correspondence once, enumerates down
    # sets once, those of the interior, runs the beta kernel once over them,
    # decides the order with one cover certificate and never calls the
    # one-row beta_H; a P of at most two elements reads none of these; the
    # congruence and down-set objects it does build are O(|P|), not one per
    # congruence (the 6-antichain has |Con K| = 65)
    import princlat.construction as construction
    import princlat.kernels as kernels
    import princlat.order as order

    def refuse(*args, **kwargs):
        raise AssertionError("an object per congruence or down set was built")

    monkeypatch.setattr(construction, "phi", refuse)
    for module in (construction, kernels):
        monkeypatch.setattr(module, "all_congruences", refuse, raising=False)
        monkeypatch.setattr(module, "congruence_leq", refuse, raising=False)
    for module in (order, construction):
        monkeypatch.setattr(module, "down_sets", refuse, raising=False)
    calls = {"con_facts": 0, "_correspondence": 0, "beta_labels": 0, "beta_H": 0,
             "cover_certificate": 0}
    rows = []
    for fname in calls:
        original = getattr(construction, fname)

        def counting(*args, _fname=fname, _original=original):
            calls[_fname] += 1
            if _fname == "beta_labels":
                rows.append(len(args[2]))
            return _original(*args)

        monkeypatch.setattr(construction, fname, counting)
    enumerated = []
    original_matrix = construction.down_set_matrix

    def counting_matrix(p):
        enumerated.append(p)
        return original_matrix(p)

    for module in (order, construction):
        monkeypatch.setattr(module, "down_set_matrix", counting_matrix)
    built = []
    for cls in (CongruenceRelation, DownSet):
        def counting_init(self, *args, _init=cls.__init__):
            built.append(type(self))
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    antichain = [f"x{i}" for i in range(6)]
    shapes = dict(poset_zoo, antichain6=bounded(
        ["0", "1"] + antichain, [("0", x) for x in antichain] + [(x, "1") for x in antichain]))
    for name, P in shapes.items():
        calls.update(dict.fromkeys(calls, 0))
        rows.clear()
        enumerated.clear()
        built.clear()
        report = verify_theorem(P, templates, name)
        assert report.passed, report.lines()
        runs = 0 if len(P.elements) <= 2 else 1
        assert calls == {"con_facts": runs, "_correspondence": runs, "beta_labels": runs,
                         "beta_H": 0, "cover_certificate": runs}, name
        assert rows == [len(down_set_matrix(P.interior_poset))] * runs, name
        assert len(enumerated) == runs, name
        assert all(p is P.interior_poset for p in enumerated), name
        assert built.count(CongruenceRelation) <= len(P.elements) + 2, name
        assert built.count(DownSet) <= 2 * len(P.elements), name


def test_downset_congruence_reports_the_first_order_mismatch(
        templates, poset_zoo, monkeypatch):
    import princlat.construction as construction

    P = poset_zoo["4-chain"]
    r = assemble_K(P, templates)
    original = construction.beta_labels
    swap = {("p",): ("p", "q"), ("p", "q"): ("p",)}

    def swapped(lat, contributions, members):
        # beta of H is computed for swap[H]: the rows are exchanged on the way in
        rows = np.array(members, dtype=bool)
        for k, row in enumerate(rows.tolist()):
            h = tuple(x for x, m in zip(P.interior, row) if m)
            rows[k] = membership([swap.get(h, h)], P.interior)[0]
        return original(lat, contributions, rows)

    monkeypatch.setattr(construction, "beta_labels", swapped)
    family = [ds.members for ds in down_sets(P.interior_poset)]
    labels, _ = swapped(r.lattice, r.contributions, membership(family, P.interior))
    betas = [CongruenceRelation(r.lattice, tuple(row)) for row in labels.tolist()]
    expect = next(
        (m1, m2) for m1, t1 in zip(family, betas) for m2, t2 in zip(family, betas)
        if (set(m1) <= set(m2)) != congruence_leq(t1, t2))
    assert expect == (("p",), ("p", "q"))
    stages = _stage_details(verify_theorem(P, templates, "4-chain"))
    failure = VerificationFailed("downset-congruence", witness=expect)
    assert stages["downset-congruence"] == (False, f"VerificationFailed: {failure}")


def _swap_congruences(monkeypatch, lo, hi):
    """Swap congruences lo and hi of K in both the forward facts (their
    base rows) and the beta kernel: the round trip stays intact and only
    the order breaks.  Returns the swap as a map on congruences."""
    import princlat.construction as construction

    swap = {lo.labels: hi.labels, hi.labels: lo.labels}
    original_facts, original_betas = construction.con_facts, construction.beta_labels

    def swapped_facts(result):
        facts = original_facts(result)
        perm = np.arange(len(facts.words))
        k = facts.index.find(result.lattice.con_analysis.label_words(
            np.array([lo.labels, hi.labels]))).tolist()
        perm[k] = perm[k[::-1]]
        return dataclasses.replace(facts, **{
            name: getattr(facts, name)[perm]
            for name in ("zero", "one", "isolating", "base", "base_row")})

    def swapped_betas(lat, contributions, members):
        labels, error = original_betas(lat, contributions, members)
        rows = [swap.get(tuple(row), tuple(row)) for row in labels.tolist()]
        return np.array(rows, dtype=labels.dtype).reshape(labels.shape), error

    monkeypatch.setattr(construction, "con_facts", swapped_facts)
    monkeypatch.setattr(construction, "beta_labels", swapped_betas)
    return lambda theta: CongruenceRelation(theta.lattice, swap.get(theta.labels, theta.labels))


def test_phi_reports_the_first_order_mismatch(templates, poset_zoo, monkeypatch):
    P = poset_zoo["4-chain"]
    r = assemble_K(P, templates)
    forward = phi(r).forward
    swapped = _swap_congruences(monkeypatch, beta_H(r, ("p",)), beta_H(r, ("p", "q")))
    image = {t: forward[swapped(t)].members for t in forward}
    expect = next(
        (image[t1], image[t2]) for t1 in forward for t2 in forward
        if congruence_leq(t1, t2) != (set(image[t1]) <= set(image[t2])))
    assert expect == (("0", "p", "q"), ("0", "p"))
    with pytest.raises(CorrespondenceBroken) as exc:
        phi(assemble_K(P, templates))  # a fresh result: r has its facts cached
    assert exc.value.witness == expect
    assert str(exc.value) == str(CorrespondenceBroken(expect, "order not preserved"))
    stages = _stage_details(verify_theorem(P, templates, "4-chain"))
    detail = f"CorrespondenceBroken: {exc.value}"
    assert stages["congruence-correspondence"] == (False, detail)
    assert stages["principal-correspondence"] == (False, detail)


def test_phi_reports_the_first_broken_round_trip(templates, poset_zoo, monkeypatch):
    # beta_{p} replaced by beta_{p, q}: the forward facts are intact, so
    # {0, p} goes to a congruence whose beta is another one; the round trip
    # compares masks and names the first such down set
    import princlat.construction as construction

    P = poset_zoo["4-chain"]
    original = construction.beta_labels
    lo, hi = membership([("p",), ("p", "q")], P.interior)

    def tampered(lat, contributions, members):
        labels, error = original(lat, contributions, members)
        labels = labels.copy()
        at = [int(np.flatnonzero((members == row).all(axis=1))[0]) for row in (lo, hi)]
        labels[at[0]] = labels[at[1]]
        return labels, error

    monkeypatch.setattr(construction, "beta_labels", tampered)
    broken = CorrespondenceBroken(("0", "p"), "round trip broke")
    with pytest.raises(CorrespondenceBroken) as exc:
        phi(assemble_K(P, templates))
    assert (str(exc.value), exc.value.witness) == (str(broken), broken.witness)
    stages = _stage_details(verify_theorem(P, templates, "4-chain"))
    assert stages["congruence-correspondence"] == (False, f"CorrespondenceBroken: {broken}")


def _antichain3():
    return bounded(["0", "p", "q", "r", "1"],
                   [("0", x) for x in "pqr"] + [(x, "1") for x in "pqr"])


def _out_of_mask_order(result):
    """Two congruences of K, neither bound, the first of them before the
    second in ``all_congruences`` order but with the larger mask."""
    an = result.lattice.con_analysis
    cons = all_congruences(result.lattice).congruences
    masks = an.con_masks
    i, j = next((i, j) for i in range(1, len(cons) - 1) for j in range(i + 1, len(cons) - 1)
                if masks[i] > masks[j])
    return cons[i], cons[j]


@pytest.mark.parametrize("flag, value", [("isolating", False), ("base_row", -1)])
def test_failing_con_rows_report_the_first_in_con_order(templates, monkeypatch, flag, value):
    # two Con K rows fail the dichotomy (not isolating) or the base stage
    # (base not a down set); the facts hold Con K in mask order, where the
    # second congruence of all_congruences comes first, and every stage
    # still names the first in all_congruences order, as a loop over
    # all_congruences does
    import princlat.construction as construction

    P = _antichain3()
    first, second = _out_of_mask_order(assemble_K(P, templates))
    original = construction.con_facts

    def failing(result):
        facts = original(result)
        an = result.lattice.con_analysis
        rows = facts.index.find(an.label_words(np.array([first.labels, second.labels])))
        assert rows[1] < rows[0]  # mask order puts the second first
        changed = getattr(facts, flag).copy()
        changed[rows] = value
        return dataclasses.replace(facts, **{flag: changed})

    monkeypatch.setattr(construction, "con_facts", failing)
    stages = _stage_details(verify_theorem(P, templates, "3-antichain"))
    result = assemble_K(P, templates)
    if flag == "isolating":
        witness, other = first.blocks(), second.blocks()
        failure = VerificationFailed("congruence-dichotomy", witness=witness)
        assert stages["congruence-dichotomy"] == (False, f"VerificationFailed: {failure}")
        broken = CorrespondenceBroken(witness, "congruence neither bound nor isolating")
    else:
        witness, other = base(result, first), base(result, second)
        failure = VerificationFailed("base-down-set", witness=witness)
        assert stages["base-down-set"] == (False, f"VerificationFailed: {failure}")
        broken = CorrespondenceBroken(witness, "base is not a down set")
    assert witness != other
    assert stages["congruence-correspondence"] == (False, f"CorrespondenceBroken: {broken}")
    with pytest.raises(CorrespondenceBroken) as exc:
        phi(result)
    assert (str(exc.value), exc.value.witness) == (str(broken), broken.witness)


def test_a_congruence_missing_from_con_facts_fails_the_stage(templates, poset_zoo, monkeypatch):
    # the index of Con K's word rows loses the row of one anchor congruence,
    # which is principal: the principal stage and phi raise on the lookup
    # instead of reading row -1, the last row
    import princlat.construction as construction

    P = poset_zoo["4-chain"]
    original = construction.con_facts

    def missing(result):
        facts = original(result)
        lat = result.lattice
        a, b = (int(c[0]) for c in result.anchor_columns)
        mask = lat.con_analysis.principal(int(lat.meet[a, b]), int(lat.join[a, b]))
        words = facts.words.copy()
        words[facts.index.find(lat.con_analysis.words([mask]))] = np.iinfo(np.uint64).max
        return dataclasses.replace(facts, index=RowIndex(words))

    monkeypatch.setattr(construction, "con_facts", missing)
    stages = _stage_details(verify_theorem(P, templates, "4-chain"))
    assert stages["congruence-correspondence"][0]
    ok, detail = stages["principal-correspondence"]
    assert not ok and detail.startswith("KeyError: ") and "not in Con K" in detail
    with pytest.raises(KeyError, match="1 of .* not in Con K"):
        phi(assemble_K(P, templates))


def test_order_not_preserved_reports_the_first_pair_in_con_order(templates, monkeypatch):
    # as test_phi_reports_the_first_order_mismatch, on two congruences whose
    # mask order is not their all_congruences order: a loop over Con K in
    # mask order meets another mismatch first, and phi names the first
    # that a loop over all_congruences meets
    P = _antichain3()
    r = assemble_K(P, templates)
    forward = phi(r).forward
    swapped = _swap_congruences(monkeypatch, *_out_of_mask_order(r))
    image = {t: forward[swapped(t)].members for t in forward}
    masks = dict(zip(all_congruences(r.lattice).congruences, r.lattice.con_analysis.con_masks))

    def first_mismatch(order):
        return next((image[t1], image[t2]) for t1 in order for t2 in order
                    if congruence_leq(t1, t2) != (set(image[t1]) <= set(image[t2])))

    expect = first_mismatch(list(forward))
    assert first_mismatch(sorted(forward, key=masks.get)) != expect
    with pytest.raises(CorrespondenceBroken) as exc:
        phi(assemble_K(P, templates))
    assert exc.value.witness == expect
    assert str(exc.value) == str(CorrespondenceBroken(expect, "order not preserved"))
    stages = _stage_details(verify_theorem(P, templates, "3-antichain"))
    assert stages["congruence-correspondence"] == (False, f"CorrespondenceBroken: {exc.value}")


def test_passing_verify_sorts_no_congruences_into_con_order(templates, poset_zoo, monkeypatch):
    # Con K and Princ K are read as masks and word rows: a passing verify
    # never sorts them into ConOrder or builds their label rows
    calls = []
    original = ConAnalysis._ordered

    def counting(self, masks):
        calls.append(len(masks))
        return original(self, masks)

    monkeypatch.setattr(ConAnalysis, "_ordered", counting)
    for name, P in dict(poset_zoo, antichain3=_antichain3()).items():
        assert verify_theorem(P, templates, name).passed, name
        assert calls == [], name


def test_verify_con_and_valuation_never_build_the_con_order_matrix(
        templates, poset_zoo, monkeypatch, tmp_path):
    from princlat.cli import main

    def refuse(self):
        raise AssertionError("the |Con| x |Con| matrix was built")

    monkeypatch.setattr(ConAnalysis, "con_leq", property(refuse))
    for name, P in poset_zoo.items():
        assert verify_theorem(P, templates, name).passed, name
    lattice = tmp_path / "k.json"
    lattice.write_text(json.dumps({
        "name": "B2", "elements": ["0", "p", "q", "1"],
        "covers": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"]]}))
    with redirect_stdout(io.StringIO()):
        for cmd in ("con", "valuation"):
            assert main([cmd, "--lattice", str(lattice)]) == 0


# ------------------------------------------- batched kernels against scalar loops

def scalar_beta(lat, contributions, row):
    """The scalar reference for one row of ``beta_labels``, on explicit
    contributions: merge the contributed pairs, check the blocks one by
    one, then the substitution property.  Returns (canonical labels,
    None) or (None, error)."""
    pairs = set()
    for contributed, member in zip(contributions, row):
        if member:
            pairs.update(contributed)
    labels = np.arange(lat.n)
    for a, b in pairs:
        _merge(labels, a, b)
    related = {frozenset(p) for p in pairs}
    by_label = {}
    for idx, l in enumerate(labels.tolist()):
        by_label.setdefault(l, []).append(idx)
    for block in by_label.values():
        if len(block) > 3:
            return None, AssemblyNotALattice(
                tuple(lat.elements[i] for i in block), "down-set congruence block too large")
        for a, b in itertools.combinations(block, 2):
            na, nb = lat.elements[a], lat.elements[b]
            if frozenset((a, b)) not in related:
                return None, AssemblyNotALattice((na, nb), "down-set relation not transitive")
            if not (lat.leq[a, b] or lat.leq[b, a]):
                return None, AssemblyNotALattice((na, nb), "down-set congruence block not a chain")
    labels = _canon(labels.tolist())
    ok, witness = scalar_is_congruence(lat, labels)
    if not ok:
        return None, AssemblyNotALattice(witness, "down-set relation fails substitution")
    return labels, None


def scalar_beta_rows(lat, contributions, rows):
    """Row by row until the first failure: (label tuples, error or None)."""
    out = []
    for row in rows:
        labels, error = scalar_beta(lat, contributions, row)
        if error is not None:
            return out, error
        out.append(labels)
    return out, None


def assert_same_beta(lat, contributions, rows):
    labels, error = beta_labels(lat, contributions, rows)
    want, want_error = scalar_beta_rows(lat, contributions, rows)
    assert [tuple(r) for r in labels.tolist()] == want
    assert type(error) is type(want_error)
    if error is not None:
        assert str(error) == str(want_error) and error.witness == want_error.witness
    return error


def scalar_forward_facts(result):
    """The congruence-by-congruence reference for ``con_facts``: per
    congruence of K, (zero, one, isolating, anchor-collapse row over the
    interior, the position of that row's members among the down sets of
    the interior, or -1)."""
    lat, P = result.lattice, result.source
    downs = [ds.members for ds in down_sets(P.interior_poset)]
    out = []
    for theta in all_congruences(lat).congruences:
        lab = theta.labels
        blocks = len(set(lab))
        isolating = blocks != lat.n and all(
            lab.count(lab[lat.index(bound)]) == 1 for bound in (lat.bottom, lat.top))
        row = tuple(lab[lat.index(result.anchor[p][0])] == lab[lat.index(result.anchor[p][1])]
                    for p in P.interior)
        members = tuple(sorted(p for p, m in zip(P.interior, row) if m))
        down = all(q in members for p in members for q in P.interior if le(P.poset, q, p))
        assert down == (members in downs)
        out.append((blocks == lat.n, blocks == 1, isolating, row,
                    downs.index(members) if down else -1))
    return out


def assert_facts_match_the_scalar_loop(result):
    # the facts' rows are Con K in ascending order of the masks, each once;
    # matched to all_congruences by mask, each row is the word row of its
    # congruence's labels and its flags are the scalar loop's
    facts = result.con_facts
    an = result.lattice.con_analysis
    cons = all_congruences(result.lattice).congruences
    assert [int.from_bytes(w.tobytes(), "little") for w in facts.words] == sorted(an.con_set())
    assert RowIndex(facts.words).find(facts.words).tolist() == list(range(len(cons)))
    rows = facts.index.find(an.words(an.con_masks)).tolist()
    assert sorted(rows) == list(range(len(cons)))
    assert np.array_equal(facts.words[rows], an.label_words([theta.labels for theta in cons]))
    got = [(bool(z), bool(o), bool(i), tuple(b.tolist()), int(k)) for z, o, i, b, k in zip(
        facts.zero[rows], facts.one[rows], facts.isolating[rows], facts.base[rows],
        facts.base_row[rows])]
    assert got == scalar_forward_facts(result)
    for r, theta in zip(rows, cons):
        if facts.isolating[r]:
            assert facts.base_of(r) == base(result, theta)


def assert_betas_match(result):
    P = result.source
    family = [ds.members for ds in down_sets(P.interior_poset)]
    rows = membership(family, P.interior)
    assert np.array_equal(result.interior_down_sets, rows)
    assert_same_beta(result.lattice, result.contributions, rows)
    labels, error = result.betas
    assert error is None
    # every row is a congruence of K, found among Con K's rows by its word
    # row too, and each is the one-row beta_H
    assert (RowIndex(result.lattice.con_analysis.con_labels).find(labels) >= 0).all()
    assert (result.con_facts.index.find(result.beta_words) >= 0).all()
    assert [tuple(t) for t in labels.tolist()] == [beta_H(result, h).labels for h in family]


def test_batched_kernels_match_the_scalar_loops_on_the_zoo(templates, poset_zoo):
    for name, P in poset_zoo.items():
        result = assemble_K(P, templates)
        assert_facts_match_the_scalar_loop(result)
        if not result.degenerate:
            assert_betas_match(result)


def corrupted(lat, contributions, rng):
    """The contributions with one corruption: a pair dropped from every
    member, an incomparable pair added, four elements merged, or a new
    comparable pair added (which usually breaks substitution)."""
    out = [list(c) for c in contributions]
    kind = rng.choice(("drop", "incomparable", "merge four", "comparable"))
    i = rng.randrange(len(out))
    all_pairs = sorted({frozenset(p) for c in out for p in c}, key=sorted)
    if kind == "drop" and all_pairs:
        gone = rng.choice(all_pairs)
        out = [[p for p in c if frozenset(p) != gone] for c in out]
    elif kind == "incomparable":
        pairs = [(a, b) for a in range(lat.n) for b in range(a + 1, lat.n)
                 if not (lat.leq[a, b] or lat.leq[b, a])]
        if pairs:
            out[i].append(rng.choice(pairs))
    elif kind == "merge four":
        four = rng.sample(range(lat.n), min(4, lat.n))
        out[i] += list(itertools.combinations(four, 2))
    else:
        pairs = [(a, b) for a in range(lat.n) for b in range(lat.n) if a != b and lat.leq[a, b]]
        out[i].append(rng.choice(pairs))
    return kind, tuple(tuple(c) for c in out)


@pytest.fixture(scope="module")
def assembled_zoo(templates, poset_zoo):
    return [assemble_K(P, templates) for P in poset_zoo.values() if len(P.interior) > 0]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_beta_kernel_matches_the_scalar_body_on_corrupted_contributions(assembled_zoo, rng):
    # any membership rows, not only down sets: the kernel reads contributed
    # pairs only; several rows may fail, and the first one must be named
    result = rng.choice(assembled_zoo)
    lat = result.lattice
    kind, contributions = corrupted(lat, result.contributions, rng)
    width = len(contributions)
    rows = np.array([[rng.random() < 0.5 for _ in range(width)]
                     for _ in range(rng.randrange(1, 12))], dtype=bool).reshape(-1, width)
    error = assert_same_beta(lat, contributions, rows)
    event(f"{kind}: {str(error).split(': ')[-1] if error else 'passes'}")


def test_each_corruption_reaches_its_failure(templates, poset_zoo):
    result = assemble_K(poset_zoo["4-chain"], templates)
    lat = result.lattice
    ix = lat.index
    whole = np.ones((1, 2), dtype=bool)
    base_pairs = result.contributions
    # theta_q of the one gadget has a three-element chain block; dropping
    # one of its pairs leaves the block connected but not transitive
    blocks = [b for b in beta_H(result, ("p", "q")).blocks() if len(b) == 3]
    assert blocks
    x, y, _ = (ix(v) for v in blocks[0])
    gone = frozenset((x, y))
    cases = {
        "not transitive": tuple(tuple(p for p in c if frozenset(p) != gone) for c in base_pairs),
        "block not a chain": (base_pairs[0] + ((ix("a@0"), ix("a@1")),), base_pairs[1]),
        "block too large": (base_pairs[0] + tuple(itertools.combinations(
            (ix("o"), ix("a@0"), ix("a@1"), ix("i")), 2)), base_pairs[1]),
        "fails substitution": (base_pairs[0] + ((ix("o"), ix("a@0")),), base_pairs[1]),
    }
    for text, contributions in cases.items():
        error = assert_same_beta(lat, contributions, whole)
        assert isinstance(error, AssemblyNotALattice) and str(error).endswith(text), (text, error)
    # on a four-element chain, all six pairs make the one congruence: every
    # pair is related and substitution holds, so only the size check fails
    four = chain(4)
    error = assert_same_beta(four, (tuple(itertools.combinations(range(4), 2)),), [[True]])
    assert str(error).endswith("down-set congruence block too large")


def test_each_beta_check_rejects_a_row_alone():
    # one row per check of the kernel that no other check rejects
    three = chain(3)
    b2 = lattice_from_covers(["0", "a", "b", "1"],
                             [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    ix = b2.index
    cases = [
        # c0 < c2 is a comparable pair that is not a cover: {c0, c2} is a
        # chain block but not an interval, and no pair is a Lemma premise
        (three, ((three.index("c0"), three.index("c2")),), "fails substitution"),
        # a and b are incomparable: nothing but the chain test reads them
        (b2, ((ix("a"), ix("b")),), "block not a chain"),
        # the interval {0, a}: b covers 0 and b is not a v b = 1; a has no
        # other lower cover, so only an upward triple fails
        (b2, ((ix("0"), ix("a")),), "fails substitution"),
        # the interval {b, 1}: a is covered by 1 and a is not b ^ a = 0; b
        # has no other upper cover, so only a downward triple fails
        (b2, ((ix("b"), ix("1")),), "fails substitution"),
    ]
    for lat, pairs, text in cases:
        error = assert_same_beta(lat, (pairs,), [[True]])
        assert str(error).endswith(text), (pairs, error)
    # the pairs (0, a) and (b, 1): one triple each, (b, 1) and (a, 0)
    lo, hi = np.array([ix("0"), ix("b")]), np.array([ix("a"), ix("1")])
    _, premise, z, w = _pair_constants(b2, lo, hi)
    assert sorted(zip(premise.tolist(), z.tolist(), w.tolist())) == [
        (0, ix("b"), ix("1")), (1, ix("a"), ix("0"))]
    # {0, a} with {b, 1} is a congruence of B2: every triple holds
    assert assert_same_beta(b2, (((ix("0"), ix("a")), (ix("b"), ix("1"))),), [[True]]) is None


def scalar_pair_constants(lat, lo, hi):
    """The pair-by-pair reference for ``_pair_constants``: each span by
    counting, and the Lemma's triples (as a sorted list) from a walk over
    the cover list for every pair that is a cover."""
    covers = lat.poset.covers()
    spans, triples = [], []
    for k, (p, q) in enumerate(zip(lo.tolist(), hi.tolist())):
        x, y = (q, p) if lat.leq[q, p] else (p, q)
        spans.append(sum(bool(lat.leq[x, t] and lat.leq[t, y]) for t in range(lat.n)))
        if (x, y) not in covers:
            continue
        for c, d in covers:
            if c == x and d != y:
                triples.append((k, d, int(lat.join[y, d])))
            if d == y and c != x:
                triples.append((k, c, int(lat.meet[x, c])))
    return spans, sorted(triples)


@pytest.mark.parametrize("seed", range(4))
def test_pair_constants_match_a_scalar_walk_over_the_covers(seed, assembled_zoo):
    # every pair of a random lattice, and the contributed pairs of an assembled K
    lat = random_lattices(seed, 1, max_size=12)[0]
    cases = [(lat, *np.triu_indices(lat.n, 1))]
    result = assembled_zoo[seed % len(assembled_zoo)]
    lo, hi, _ = _contributed(result.lattice.n, result.contributions)
    cases.append((result.lattice, lo, hi))
    for lat, lo, hi in cases:
        span, premise, z, w = _pair_constants(lat, lo, hi)
        spans, triples = scalar_pair_constants(lat, lo, hi)
        assert span.tolist() == spans
        assert sorted(zip(premise.tolist(), z.tolist(), w.tolist())) == triples


def test_beta_kernel_chunks_do_not_change_the_result(templates, poset_zoo, monkeypatch):
    # with one row (and one pair of the interval counts) per chunk, the rows before
    # a failure in a later chunk and its error are the same
    import princlat.kernels as kernels

    result = assemble_K(poset_zoo["hat"], templates)
    lat = result.lattice
    rows = membership([ds.members for ds in down_sets(result.source.interior_poset)],
                       result.source.interior)
    extra = ((lat.index("o"), lat.index(result.anchor["r"][0])),)
    contributions = result.contributions[:-1] + (result.contributions[-1] + extra,)
    wide = [beta_labels(lat, c, rows) for c in (result.contributions, contributions)]
    assert wide[1][1] is not None and 0 < len(wide[1][0]) < len(rows)
    monkeypatch.setattr(kernels, "_CHUNK", 1)
    for (labels, error), c in zip(wide, (result.contributions, contributions)):
        narrow, narrow_error = beta_labels(lat, c, rows)
        assert np.array_equal(narrow, labels)
        assert str(narrow_error) == str(error)


def test_beta_h_reports_a_non_down_set(templates, poset_zoo):
    # beta_H checks its one row before the kernel runs
    result = assemble_K(poset_zoo["4-chain"], templates)
    with pytest.raises(NotADownSet) as exc:
        beta_H(result, ("q",))
    assert str(exc.value) == "('q',) is not downward closed in the interior"


def scalar_copy_fault(big, idx, small):
    """The one-instance reference for ``_copy_faults``."""
    if not np.array_equal(big.leq[np.ix_(idx, idx)], small.leq):
        return "order"
    present = np.zeros(big.n, dtype=bool)
    present[idx] = True
    sub = np.ix_(idx, idx)
    if not (present[big.join[sub]].all() and present[big.meet[sub]].all()):
        return "sublattice"
    return None


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_copy_faults_match_a_scalar_check(templates, assembled_zoo, rng):
    # the S instances of an assembled K, some with one element replaced
    def s_namings(result):
        return [_role_names(*params)
                for _, kind, params in _instances(result.source) if kind == "S"]

    result = rng.choice([r for r in assembled_zoo if s_namings(r)] or assembled_zoo)
    lat = result.lattice
    s = templates["S"]
    if not s_namings(result):
        return
    rows = []
    for naming in s_namings(result):
        row = [lat.index(naming[s.role_map[ph]]) for ph in s.poset.elements]
        if rng.random() < 0.6:
            row[rng.randrange(len(row))] = rng.randrange(lat.n)
        rows.append(row)
    codes = _copy_faults(lat, np.array(rows), s.poset)
    faults = [COPY_FAULTS[c] for c in codes.tolist()]
    assert faults == [scalar_copy_fault(lat, row, s.poset) for row in rows]
    for fault in faults:
        event(str(fault))


def test_copy_faults_name_each_fault(templates, poset_zoo):
    # bottom and two atoms of B2's K are ordered like a V but their join is
    # missing; a chain through the atom is a copy; a reversed chain is not
    lat = assemble_K(poset_zoo["B2"], templates).lattice
    ix = lat.index
    vee = validate_poset(["o", "x", "y"], [("o", "x"), ("o", "y")])
    chain3 = validate_poset(["o", "x", "i"], [("o", "x"), ("x", "i")])
    assert COPY_FAULTS[_copy_faults(lat, [[ix("o"), ix("a@p"), ix("a@q")]], vee)[0]] == "sublattice"
    up, down = [ix("o"), ix("a@p"), ix("i")], [ix("i"), ix("a@p"), ix("o")]
    codes = _copy_faults(lat, [up, down], chain3)
    assert [COPY_FAULTS[c] for c in codes.tolist()] == [None, "order"]


def test_assembly_reports_the_first_faulty_instance(templates, poset_zoo, monkeypatch):
    # faults injected in several instances of two templates: the one named
    # is the first in placement order, with its own fault
    import princlat.construction as construction

    P = poset_zoo["V"]
    placement = [inst for inst, _, _ in construction._instances(P)]
    original = construction._copy_faults
    for faulty, expect in (({"frame": 1, "SV": 2}, (placement.index("frame@0"), "order")),
                           ({"S": 2, "frame": 1}, (1, "closure"))):
        def injected(big, idx, small, pairs=None, _faulty=faulty):
            codes = original(big, idx, small, pairs)
            name = next((t.name for t in templates.values() if t.poset is small), None)
            if name in _faulty:
                codes[-1 if name == "S" else 0:] = _faulty[name]
            return codes

        monkeypatch.setattr(construction, "_copy_faults", injected)
        with pytest.raises(AssemblyNotALattice) as exc:
            assemble_K(P, templates)
        assert exc.value.witness == (placement[expect[0]], expect[1])


@pytest.mark.parametrize("table, fault", [("join", "closure"), ("leq", "order")])
@pytest.mark.parametrize("pair, instance", [
    (("c@p.q", "d@p.q"), "S@p.q"),  # inside the first S copy of SV@p.q.r
    (("c@p.q", "c@p.r"), "SV@p.q.r"),  # across its two copies
])
def test_double_gadget_faults_are_reported_where_their_pair_is_read(
        templates, poset_zoo, monkeypatch, table, fault, pair, instance):
    # K of V glues S@p.q and S@p.r into SV@p.q.r; one pair of K is corrupted,
    # its join moved to the atom a@0, in no gadget but a frame, or its order
    # flipped.  A pair inside one copy is read by that copy's S instance,
    # and only by it; a cross-copy pair only by the double gadget
    import princlat.construction as construction

    original = construction.as_lattice

    def corrupted(poset):
        lat = original(poset)
        x, y = map(lat.index, pair)
        if table == "join":
            join = lat.join.copy()
            join[x, y] = join[y, x] = lat.index("a@0")
            return dataclasses.replace(lat, join=join)
        leq = lat.leq.copy()
        leq[x, y] = not leq[x, y]
        return dataclasses.replace(lat, poset=Poset(poset.elements, leq))

    monkeypatch.setattr(construction, "as_lattice", corrupted)
    with pytest.raises(AssemblyNotALattice) as exc:
        assemble_K(poset_zoo["V"], templates)
    assert exc.value.witness == (instance, fault)


def scalar_forward_error(result):
    """The first error a congruence-by-congruence forward map raises, or None."""
    lat = result.lattice
    for theta, (zero, one, isolating, row, position) in zip(
            all_congruences(lat).congruences, scalar_forward_facts(result)):
        if (one and lat.n > 1) or zero:
            continue
        if not isolating:
            return CorrespondenceBroken(theta.blocks(), "congruence neither bound nor isolating")
        if position < 0:
            names = tuple(sorted(p for p, m in zip(result.source.interior, row) if m))
            return CorrespondenceBroken(names, "base is not a down set")
    return None


@pytest.fixture(scope="module")
def scrambled(templates, poset_zoo):
    """Results assembled from S with two roles swapped, for every pair of
    roles whose double gadgets still glue, on four interior shapes."""
    s = templates["S"]
    out = []
    for a, b in itertools.combinations(sorted(s.role_map), 2):
        roles = dict(s.role_map)
        roles[a], roles[b] = roles[b], roles[a]
        t = GadgetTemplate("S", s.poset, roles, s.lattice)
        try:
            trial = dict(templates, S=t, **{k: double_gadget(t, k) for k in AMALGAM_COPIES})
        except TemplateInvalid:
            continue
        for name in ("4-chain", "B2", "V", "hat"):
            try:
                out.append((trial, assemble_K(poset_zoo[name], trial)))
            except AssemblyNotALattice:
                continue
    return out


def test_batched_kernels_match_the_scalar_loops_on_scrambled_gadgets(scrambled):
    # gadgets that break the construction reach the forward errors, and
    # beta rows that fail each check, with real contributions
    seen = set()
    for trial, result in scrambled:
        P = result.source
        assert_facts_match_the_scalar_loop(result)
        rows = membership([ds.members for ds in down_sets(P.interior_poset)], P.interior)
        error = assert_same_beta(result.lattice, result.contributions, rows)
        want = scalar_forward_error(result)
        try:
            phi(result)
            got = None
        except CorrespondenceBroken as exc:
            got = exc
        except AssemblyNotALattice:
            got = want = None  # a beta failure, compared above
        if want is not None:
            assert (str(got), got.witness) == (str(want), want.witness)
            seen.add(str(want).split(": ")[-1])
        if error is not None:
            seen.add(str(error).split(": ")[-1])
        stages = _stage_details(verify_theorem(P, trial, "scrambled"))
        bad_base = [r for r in scalar_forward_facts(result) if r[2] and r[4] < 0]
        if bad_base:
            names = tuple(sorted(p for p, m in zip(P.interior, bad_base[0][3]) if m))
            failure = VerificationFailed("base-down-set", witness=names)
            assert stages["base-down-set"] == (False, f"VerificationFailed: {failure}")
    assert {"base is not a down set", "down-set congruence block too large",
            "down-set relation fails substitution"} <= seen


# sha256 of every report line below, joined by newlines, and the failing
# stages by name, as the parent of the interior-numbered correspondence
# gave them: the failing reports stay byte for byte what they were
GOLDEN_SWAP_REPORTS = (
    1201, "8c114fa6a46462b53bf7e64a97113d21c995dd3674df2210a7cd4336aa736297",
    {"downset-congruence": 21, "congruence-correspondence": 21,
     "principal-correspondence": 21, "principal-order-isomorphism": 9,
     "base-down-set": 4, "assembly": 3})


def test_failing_verify_reports_are_golden(templates, poset_zoo):
    # for each of the 55 pairs of S roles, S with the two role names
    # exchanged, its double gadgets glued by double_gadget (not the load
    # battery, which would refuse it) and verify run on six shapes; a glue
    # failure is one line
    shapes = {name: poset_zoo[name] for name in ("3-chain", "4-chain", "B2", "V", "hat")}
    shapes["3-antichain"] = bounded(["0", "p", "q", "r", "1"],
                                    [("0", x) for x in "pqr"] + [(x, "1") for x in "pqr"])
    s = templates["S"]
    lines, failing = [], collections.Counter()
    for a, b in itertools.combinations(sorted(S_ROLE_SET), 2):
        swap = {a: b, b: a}
        t = GadgetTemplate("S", s.poset, {ph: swap.get(r, r) for ph, r in s.role_map.items()},
                           s.lattice)
        try:
            trial = dict(templates, S=t, **{k: double_gadget(t, k) for k in AMALGAM_COPIES})
        except TemplateInvalid as exc:
            lines.append(f"{a}<->{b}: {type(exc).__name__}: {exc}")
            continue
        for name, P in shapes.items():
            report = verify_theorem(P, trial, f"{name} {a}<->{b}")
            lines += report.lines()
            failing.update(stage for stage, ok, _ in report.stages if not ok)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest, dict(failing)) == GOLDEN_SWAP_REPORTS


# ------------------------------------------------- failure paths of two stages

def scalar_diamond_stage(result):
    """The diamond-cover stage, element by element: the first non-bound x
    whose {o, x', a_0, a_1, i} is not a 0-1 sublattice or has two
    comparable middles fails (a repeated middle, or a middle that is a
    bound, is comparable to another); x' is the anchor of the first
    interior element when x is a_0 or a_1."""
    lat, P = result.lattice, result.source
    a0, a1 = result.anchor[P.zero][0], result.anchor[P.one][0]
    for x in lat.elements:
        if x in (lat.bottom, lat.top):
            continue
        mids = [result.anchor[P.interior[0]][0] if x in (a0, a1) else x, a0, a1]
        comparable = any(le(lat.poset, u, v) for u, v in itertools.permutations(mids, 2))
        if comparable or not is_01_sublattice(lat, {lat.bottom, lat.top, *mids}):
            return False, f"VerificationFailed: {VerificationFailed('diamond-cover', witness=x)}"
    return True, f"{lat.n - 2} interior elements"


@pytest.fixture(scope="module")
def misanchored(templates, poset_zoo):
    """Results whose anchor of 0, 1 or the first interior element names
    another element of K: the bounds, the other anchors, or elements drawn
    with a fixed seed; on the zoo and the first 60 criterion-1 samples."""
    rng = random.Random(18)
    shapes = list(poset_zoo.values()) + [random_bounded_poset(20260201, i, 8) for i in range(60)]
    out = []
    for P in shapes:
        if len(P.elements) <= 2:
            continue
        result = assemble_K(P, templates)
        lat = result.lattice
        keys = (P.zero, P.one, P.interior[0])
        for key in keys:
            others = [result.anchor[k][0] for k in keys if k != key]
            for new in (rng.choice([lat.bottom, lat.top, *others]), rng.choice(lat.elements)):
                pair = (new, new) if key in (P.zero, P.one) else (new, result.anchor[key][1])
                out.append(dataclasses.replace(result, anchor={**result.anchor, key: pair}))
    return out


def test_diamond_cover_matches_a_scalar_check_on_misanchored_results(
        templates, misanchored, monkeypatch):
    import princlat.construction as construction

    verdicts = collections.Counter()
    for result in misanchored:
        monkeypatch.setattr(construction, "assemble_K", lambda P, t, _r=result: _r)
        stages = _stage_details(verify_theorem(result.source, templates, "misanchored"))
        want = scalar_diamond_stage(result)
        assert stages["diamond-cover"] == want
        verdicts[want[0]] += 1
    # both outcomes are reached, and a failure is the common one
    assert verdicts[True] > 0 and verdicts[False] > verdicts[True]


@pytest.mark.parametrize("shape, want", [("B2", 3), ("4-chain", 5), ("5-chain", 6)])
def test_length_bound_reports_the_expected_length(templates, poset_zoo, monkeypatch, shape, want):
    # antichain, two-chain and three-chain interiors: a K of any other
    # length fails the stage with the length the interior's shape asks for
    import princlat.construction as construction

    P = poset_zoo[shape]
    assert _stage_details(verify_theorem(P, templates, shape))["length-bound"] == (
        True, f"length {want}")
    monkeypatch.setattr(construction, "length", lambda lat: want + 1)
    report = verify_theorem(P, templates, shape)
    failure = VerificationFailed("length-bound", witness=want + 1, detail=f"expected {want}")
    assert _stage_details(report)["length-bound"] == (False, f"VerificationFailed: {failure}")
    assert [name for name, ok, _ in report.stages if not ok] == ["length-bound"]
