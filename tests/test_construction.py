import io
import json
from contextlib import redirect_stdout

import pytest

from princlat.congruence import (
    ConAnalysis,
    CongruenceRelation,
    all_congruences,
    base,
    congruence_leq,
    is_I_congruence,
    princ_order,
    principal_congruence,
)
from princlat.construction import (
    assemble_K,
    beta_H,
    default_template_dir,
    load_templates,
    phi,
    verify_theorem,
)
from princlat.errors import (
    CorrespondenceBroken,
    NotADownSet,
    NotICongruence,
    VerificationFailed,
)
from princlat.lattice import length
from princlat.order import down_sets, order_iso, principal_down_set

from conftest import bounded


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
        assert lat.join_of(a0, y) == lat.top
        assert lat.meet_of(a0, y) == lat.bottom


def test_membership_tracks_gadgets(templates, poset_zoo):
    r = assemble_K(poset_zoo["4-chain"], templates)
    assert r.membership["c@p.q"] == ("S@p.q",)
    assert set(r.membership["o"]) >= {"S@p.q", "frame@0", "frame@1"}


def test_beta_empty_is_zero(templates, poset_zoo):
    r = assemble_K(poset_zoo["4-chain"], templates)
    assert beta_H(r, ()).is_zero()


def test_beta_isolated_singleton(templates, poset_zoo):
    r = assemble_K(poset_zoo["B2"], templates)
    theta = beta_H(r, ("p",))
    assert theta.blocks() == [("a@p", "b@p")] + [
        (x,) for x in sorted(r.lattice.elements) if x not in ("a@p", "b@p")
    ] or theta.collapses("a@p", "b@p")
    assert is_I_congruence(r.lattice, theta)
    assert sum(1 for b in theta.blocks() if len(b) > 1) == 1


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
    from princlat.congruence import zero_congruence

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


def test_phi_round_trip(templates, poset_zoo):
    r = assemble_K(poset_zoo["V"], templates)
    corr = phi(r)
    for theta, ds in corr.forward.items():
        assert corr.backward[ds] == theta


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


def test_verify_theorem_runs_phi_once_and_beta_once_per_down_set(
        templates, poset_zoo, monkeypatch):
    import princlat.construction as construction

    calls = {"phi": 0, "beta_H": 0, "congruence_leq": 0}
    for fname in calls:
        original = getattr(construction, fname)

        def counting(*args, _fname=fname, _original=original):
            calls[_fname] += 1
            return _original(*args)

        monkeypatch.setattr(construction, fname, counting)
    P = poset_zoo["V"]
    assert verify_theorem(P, templates, "V").passed
    assert calls == {"phi": 1, "beta_H": len(down_sets(P.interior_poset)),
                     "congruence_leq": 0}


def test_downset_congruence_reports_the_first_order_mismatch(
        templates, poset_zoo, monkeypatch):
    import princlat.construction as construction

    P = poset_zoo["4-chain"]
    r = assemble_K(P, templates)
    original = construction.beta_H
    swap = {("p",): ("p", "q"), ("p", "q"): ("p",)}

    def swapped(result, H):
        return original(result, swap.get(tuple(H), tuple(H)))

    monkeypatch.setattr(construction, "beta_H", swapped)
    family = [ds.members for ds in down_sets(P.interior_poset)]
    betas = [swapped(r, h) for h in family]
    expect = next(
        (m1, m2) for m1, t1 in zip(family, betas) for m2, t2 in zip(family, betas)
        if (set(m1) <= set(m2)) != congruence_leq(t1, t2))
    assert expect == (("p",), ("p", "q"))
    stages = _stage_details(verify_theorem(P, templates, "4-chain"))
    failure = VerificationFailed("downset-congruence", witness=expect)
    assert stages["downset-congruence"] == (False, f"VerificationFailed: {failure}")


def test_phi_reports_the_first_order_mismatch(templates, poset_zoo, monkeypatch):
    import princlat.construction as construction

    P = poset_zoo["4-chain"]
    r = assemble_K(P, templates)
    forward = phi(r).forward
    lo, hi = beta_H(r, ("p",)), beta_H(r, ("p", "q"))
    swap = {lo.labels: hi.labels, hi.labels: lo.labels}

    def swapped(theta):
        return CongruenceRelation(theta.lattice, swap.get(theta.labels, theta.labels))

    # swapping the two congruences in both base and beta_H keeps the round
    # trip intact and breaks only the order
    original_base, original_beta = construction.base, construction.beta_H
    monkeypatch.setattr(construction, "base",
                        lambda result, theta: original_base(result, swapped(theta)))
    monkeypatch.setattr(construction, "beta_H",
                        lambda result, H: swapped(original_beta(result, H)))
    image = {t: forward[swapped(t)].members for t in forward}
    expect = next(
        (image[t1], image[t2]) for t1 in forward for t2 in forward
        if congruence_leq(t1, t2) != (set(image[t1]) <= set(image[t2])))
    assert expect == (("0", "p", "q"), ("0", "p"))
    with pytest.raises(CorrespondenceBroken) as exc:
        phi(r)
    assert exc.value.witness == expect
    assert str(exc.value) == str(CorrespondenceBroken(expect, "order not preserved"))
    stages = _stage_details(verify_theorem(P, templates, "4-chain"))
    detail = f"CorrespondenceBroken: {exc.value}"
    assert stages["congruence-correspondence"] == (False, detail)
    assert stages["principal-correspondence"] == (False, detail)


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
