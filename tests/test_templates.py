import collections
import hashlib
import importlib.util
import io
import itertools
import json
import shutil
from contextlib import redirect_stdout
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from princlat.congruence import (
    CongruenceRelation,
    all_congruences,
    is_I_congruence,
)
import princlat.construction as construction
from princlat.construction import (
    AMALGAM_COPIES,
    S_ROLE_SET,
    GadgetTemplate,
    amalgam_covers,
    assemble_K,
    default_template_dir,
    double_gadget,
    gadget_battery,
    load_templates,
)
from princlat.errors import CycleDetected, InputError, NotALattice, TemplateInvalid
from princlat.lattice import (
    _diamond_order,
    _grid_order,
    as_lattice,
    c2_times_c3,
    chain,
    lattice_from_covers,
    lattice_iso,
    length,
    m3,
    prime_intervals,
    quotient,
)
from princlat.order import validate_poset

import reference as ref
from gadget_space import battery_candidates, gadgets


def role(t, name):
    """The placeholder of t that takes role ``name``."""
    (ph,) = [ph for ph, r in t.role_map.items() if r == name]
    return ph


def test_all_templates_load(templates):
    assert set(templates) == {"S", "SC", "SV", "SH", "Cp", "frame"}


def test_cp_is_four_chain(templates):
    t = templates["Cp"]
    assert t.lattice.n == 4 and length(t.lattice) == 3


def test_frame_slice_is_three_chain(templates):
    t = templates["frame"]
    assert t.lattice.n == 3 and length(t.lattice) == 2


def test_gadget_element_count(templates):
    t = templates["S"]
    assert t.lattice.n == 11
    assert set(t.role_map.values()) == {
        "o", "i", "a_p", "b_p", "a_q", "b_q", "c", "d", "e", "f", "g"}


def test_gadget_has_two_comparable_isolating_congruences(templates):
    t = templates["S"]
    lat = t.lattice
    tp = ref.principal_congruence(lat, role(t, "a_p"), role(t, "b_p"))
    tq = ref.principal_congruence(lat, role(t, "a_q"), role(t, "b_q"))
    assert is_I_congruence(lat, tp) and is_I_congruence(lat, tq)
    assert ref.congruence_leq(tp, tq) and tp != tq
    icons = [x for x in all_congruences(lat).congruences if is_I_congruence(lat, x)]
    assert len(icons) == 2


def test_gadget_lower_congruence_identities(templates):
    t = templates["S"]
    lat = t.lattice
    tp = ref.principal_congruence(lat, role(t, "a_p"), role(t, "b_p"))
    assert ref.principal_congruence(lat, role(t, "d"), role(t, "e")) == tp
    assert tp.collapses(role(t, "f"), role(t, "g"))


def test_gadget_collapse_witness(templates):
    t = templates["S"]
    theta = ref.principal_congruence(t.lattice, role(t, "b_p"), role(t, "g"))
    assert theta.collapses(role(t, "o"), role(t, "c"))
    assert not is_I_congruence(t.lattice, theta)


def test_gadget_quotient_is_the_grid(templates):
    t = templates["S"]
    tq = ref.principal_congruence(t.lattice, role(t, "a_q"), role(t, "b_q"))
    assert lattice_iso(quotient(t.lattice, tq), c2_times_c3()) is not None


def test_gadget_prime_interval_dichotomy(templates):
    t = templates["S"]
    lat = t.lattice
    tp = ref.principal_congruence(lat, role(t, "a_p"), role(t, "b_p"))
    tq = ref.principal_congruence(lat, role(t, "a_q"), role(t, "b_q"))
    for edge in prime_intervals(lat):
        theta = ref.principal_congruence(lat, edge.lower, edge.upper)
        assert (not is_I_congruence(lat, theta)) or theta in (tp, tq)


def test_gadget_length_and_primes(templates):
    # length 5 and 15 cover edges, derived: every admissible gadget has 15
    # (gadget_space.py, test_criterion_3_prime_interval_count)
    t = templates["S"]
    assert length(t.lattice) == 5
    assert len(prime_intervals(t.lattice)) == 15


def test_gadget_congruence_blocks_are_short_chains(templates):
    t = templates["S"]
    lat = t.lattice
    for gen in (("a_p", "b_p"), ("a_q", "b_q")):
        theta = ref.principal_congruence(lat, role(t, gen[0]), role(t, gen[1]))
        for block in theta.blocks():
            assert len(block) <= 3
            idx = [lat.index(x) for x in block]
            for a in idx:
                for b in idx:
                    assert lat.leq[a, b] or lat.leq[b, a]


def test_double_gadgets_are_glued_pairs(templates):
    for name in ("SC", "SV", "SH"):
        t = templates[name]
        assert t.lattice.n == 18
        roles = set(t.role_map.values())
        assert {"o", "i"} <= roles and len(roles) == 18


def test_double_gadget_lengths(templates):
    # the chain-shaped overlap stacks gadgets, the others do not
    assert length(templates["SC"].lattice) == 6
    assert length(templates["SV"].lattice) == 5
    assert length(templates["SH"].lattice) == 5


def test_only_the_gadget_is_read(tmp_path, templates):
    # S.json and S.roles.json are the whole template set; the double gadgets
    # and chains are built from S, and other files in the directory are ignored
    for stem in ("S.json", "S.roles.json"):
        shutil.copy(default_template_dir() / stem, tmp_path / stem)
    (tmp_path / "SC.json").write_text("not json")
    loaded = load_templates(tmp_path)
    assert list(loaded) == list(templates) == ["S", "SC", "SV", "SH", "Cp", "frame"]
    for name, t in loaded.items():
        assert t.poset.cover_names() == templates[name].poset.cover_names(), name
        assert t.role_map == templates[name].role_map, name


def glued_by_covers(s, kind):
    """The reference double gadget: :func:`validate_poset` closes the two
    copies' covers over the sorted role names and :func:`as_lattice` builds
    the tables; a failure is raised as load reports it."""
    covers = amalgam_covers(s, kind)
    try:
        poset = validate_poset(sorted({x for c in covers for x in c}), covers)
    except CycleDetected as exc:
        raise TemplateInvalid(kind, "poset", str(exc)) from exc
    try:
        return as_lattice(poset)
    except NotALattice as exc:
        raise TemplateInvalid(kind, "lattice", str(exc)) from exc


def assert_glued_by_covers(s, kind):
    """double_gadget(s, kind) against the reference: the same order, tables
    and bounds, or the same failure; returns its check, or "ok"."""
    try:
        want = glued_by_covers(s, kind)
    except TemplateInvalid as exc:
        with pytest.raises(TemplateInvalid) as got:
            double_gadget(s, kind)
        assert str(got.value) == str(exc)
        return exc.check
    got = double_gadget(s, kind)
    assert got.poset == want.poset
    assert np.array_equal(got.lattice.join, want.join)
    assert np.array_equal(got.lattice.meet, want.meet)
    assert (got.lattice.bottom, got.lattice.top) == (want.bottom, want.top)
    assert got.role_map == {x: x for x in want.elements}
    return "ok"


def test_double_gadgets_match_the_closure_of_their_covers(templates, monkeypatch):
    # the shipped S, S with each pair of roles exchanged (as in
    # test_construction.py's golden swap reports), and the shipped S glued
    # with one more shared element: the scattered and closed order is the
    # cover closure, with its failures and their text
    s = templates["S"]
    seen = collections.Counter(assert_glued_by_covers(s, kind) for kind in AMALGAM_COPIES)
    assert seen == {"ok": 3}
    for a, b in itertools.combinations(sorted(S_ROLE_SET), 2):
        swap = {a: b, b: a}
        t = GadgetTemplate("S", s.poset, {ph: swap.get(r, r) for ph, r in s.role_map.items()},
                           s.lattice)
        seen.update(assert_glued_by_covers(t, kind) for kind in AMALGAM_COPIES)
    for kind, (first, second) in AMALGAM_COPIES.items():
        for shared in second:
            rest = {role: twin for role, twin in second.items() if role != shared}
            monkeypatch.setattr(construction, "AMALGAM_COPIES",
                                MappingProxyType({**AMALGAM_COPIES, kind: (first, rest)}))
            seen[assert_glued_by_covers(s, kind)] += 1
    assert set(seen) == {"ok", "poset", "lattice"}


def assert_same_lattice(got, want):
    """The same elements in the same order, order, bounds, and join and
    meet tables with their dtype."""
    assert got.poset == want.poset and (got.bottom, got.top) == (want.bottom, want.top)
    for table in ("join", "meet"):
        assert np.array_equal(getattr(got, table), getattr(want, table))
        assert getattr(got, table).dtype == getattr(want, table).dtype


def test_chains_and_literal_orders_match_their_lattices(templates):
    # the chains (Cp, frame, lattice.chain) are written down, tables and
    # all, and the grid and diamond orders that load and verify compare
    # against, and that c2_times_c3 and m3 are built from, are literals;
    # each is checked against the closure of its covers, built here
    chains = [(templates["Cp"].lattice, ("o", "a_p", "b_p", "i")),
              (templates["frame"].lattice, ("o", "a_p", "i"))]
    chains += [(chain(k), tuple(f"c{i}" for i in range(k))) for k in (1, 2, 5)]
    for got, names in chains:
        assert_same_lattice(got, lattice_from_covers(names, list(zip(names, names[1:]))))
    grid = [f"{a}{b}" for a in range(2) for b in range(3)]
    grid_covers = [(f"{a}{b}", f"{a}{b + 1}") for a in range(2) for b in range(2)]
    grid_covers += [(f"0{b}", f"1{b}") for b in range(3)]
    diamond_covers = [("o", x) for x in "xyz"] + [(x, "i") for x in "xyz"]
    for literal, built, want in (
            (_grid_order(), c2_times_c3(), lattice_from_covers(grid, grid_covers)),
            (_diamond_order(), m3(), lattice_from_covers(["o", "x", "y", "z", "i"],
                                                         diamond_covers))):
        assert literal == want.poset  # same elements, in the same order
        assert_same_lattice(built, want)
    with pytest.raises(InputError, match="empty order"):
        chain(0)


def test_a_cycle_in_a_glued_order_fails_the_poset_check(monkeypatch):
    # SV's second copy swaps a_p and b_p: the glued order relates them both
    # ways, and the closure that validate_poset runs names the cycle
    first, second = AMALGAM_COPIES["SV"]
    monkeypatch.setattr(construction, "AMALGAM_COPIES", MappingProxyType(
        {**AMALGAM_COPIES, "SV": (first, {**second, "a_p": "b_p", "b_p": "a_p"})}))
    with pytest.raises(TemplateInvalid) as exc:
        load_templates()
    assert str(exc.value) == "template 'SV' failed check 'poset': cycle through 'a_p' and 'b_p'"
    assert isinstance(exc.value.__cause__, CycleDetected)


@pytest.mark.parametrize("kind, shared, check", [
    ("SC", "c", "copy-order"),  # the copies' orders disagree on the shared c
    ("SV", "d", "lattice"),     # the glued order has no unique joins
])
def test_glueing_over_a_rail_element_rejected(monkeypatch, kind, shared, check):
    first, second = AMALGAM_COPIES[kind]
    second = {role: twin for role, twin in second.items() if role != shared}
    monkeypatch.setattr(construction, "AMALGAM_COPIES",
                        MappingProxyType({**AMALGAM_COPIES, kind: (first, second)}))
    with pytest.raises(TemplateInvalid) as exc:
        load_templates()
    assert (exc.value.template_name, exc.value.check) == (kind, check)


def test_corrupt_template_rejected(tmp_path, templates):
    src = default_template_dir()
    for f in src.iterdir():
        shutil.copy(f, tmp_path / f.name)
    doc = json.loads((tmp_path / "S.json").read_text())
    doc["covers"] = doc["covers"][:-1]  # drop one cover edge
    (tmp_path / "S.json").write_text(json.dumps(doc))
    with pytest.raises(TemplateInvalid):
        load_templates(tmp_path)
    # a role map that is a list of the element names, not an object
    shutil.copy(src / "S.json", tmp_path / "S.json")
    (tmp_path / "S.roles.json").write_text(json.dumps(sorted(templates["S"].poset.elements)))
    with pytest.raises(TemplateInvalid) as exc:
        load_templates(tmp_path)
    assert (exc.value.template_name, exc.value.check) == ("S", "role-map-domain")
    # a role map whose values are not all role names
    roles = dict(templates["S"].role_map)
    roles[next(ph for ph, role in roles.items() if role == "o")] = ["o"]
    (tmp_path / "S.roles.json").write_text(json.dumps(roles))
    with pytest.raises(TemplateInvalid) as exc:
        load_templates(tmp_path)
    assert (exc.value.template_name, exc.value.check) == ("S", "role-map-names")
    # an S.json that is not UTF-8
    (tmp_path / "S.json").write_bytes(b"\xff\xfe{}")
    with pytest.raises(TemplateInvalid) as exc:
        load_templates(tmp_path)
    assert (exc.value.template_name, exc.value.check) == ("S", "readable")
    # an empty S: the empty order is not a lattice
    (tmp_path / "S.json").write_text(json.dumps({"elements": [], "covers": []}))
    (tmp_path / "S.roles.json").write_text(json.dumps({}))
    with pytest.raises(TemplateInvalid) as exc:
        load_templates(tmp_path)
    assert (exc.value.template_name, exc.value.check) == ("S", "lattice")


def test_a_third_isolating_congruence_fails_the_battery(tmp_path):
    # over the 2x3 grid quotient, with roles that pass every earlier check
    # of the load-time battery, but with three {o, i}-isolating congruences
    elements = ["o", "01.0", "01.1", "02.0", "02.1", "10.0", "10.1", "10.2", "11.0", "11.1", "i"]
    covers = [("o", "01.0"), ("o", "10.0"), ("01.0", "01.1"), ("01.0", "02.0"), ("01.0", "11.0"),
              ("01.1", "02.1"), ("01.1", "11.1"), ("02.0", "02.1"), ("02.1", "i"),
              ("10.0", "10.1"), ("10.1", "10.2"), ("10.1", "11.0"), ("10.2", "11.1"),
              ("11.0", "11.1"), ("11.1", "i")]
    roles = {"o": "o", "i": "i", "01.0": "a_p", "01.1": "b_p", "10.0": "a_q", "10.2": "b_q",
             "02.0": "d", "02.1": "e", "10.1": "c", "11.0": "f", "11.1": "g"}
    (tmp_path / "S.json").write_text(json.dumps({"elements": elements, "covers": covers}))
    (tmp_path / "S.roles.json").write_text(json.dumps(roles))
    with pytest.raises(TemplateInvalid) as exc:
        load_templates(tmp_path)
    assert (exc.value.template_name, exc.value.check) == ("S", "isolating-congruence-count")
    assert str(exc.value) == "template 'S' failed check 'isolating-congruence-count': 3"
    lat = lattice_from_covers(elements, covers)
    assert sum(is_I_congruence(lat, theta) for theta in all_congruences(lat).congruences) == 3


def test_load_and_assembly_build_one_congruence_object(poset_zoo, monkeypatch):
    # load and assembly name every congruence as a mask of the lattice's
    # analysis, the one form: neither builds a CongruenceRelation, not even
    # the quotient-shape check, which reads theta_q's label vector
    built = []
    original = CongruenceRelation.__init__

    def counting_init(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(CongruenceRelation, "__init__", counting_init)
    templates = load_templates()
    assert built == []
    for P in poset_zoo.values():
        assemble_K(P, templates)
    assert built == []


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(TemplateInvalid):
        load_templates(tmp_path / "nope")


def test_make_templates_reproduces_the_shipped_files(tmp_path, grid, monkeypatch):
    # the script writes the gadget S, the only template shipped as data; it
    # reads the session's grid pass instead of making its own
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_templates.py"
    spec = importlib.util.spec_from_file_location("make_templates", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "grid_lattices", lambda: grid)
    with redirect_stdout(io.StringIO()):
        module.main(tmp_path)
    shipped = default_template_dir()
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == ["S.json", "S.roles.json"]
    assert written == sorted(f.name for f in shipped.iterdir() if f.suffix == ".json")
    for f in tmp_path.iterdir():
        assert f.read_bytes() == (shipped / f.name).read_bytes(), f.name


def outcome(check, t):
    """What ``check`` says of template t: "pass", or its TemplateInvalid's text,
    which names the check and its detail."""
    try:
        check(t)
    except TemplateInvalid as exc:
        return str(exc)
    return "pass"


def permuted(t, move):
    """t with each role r moved to ``move[r]``; roles not in ``move`` stay."""
    roles = {ph: move.get(r, r) for ph, r in t.role_map.items()}
    return GadgetTemplate(t.name, t.poset, roles, t.lattice)


def role_moves(t, size):
    """Every permutation of every ``size`` roles of t but the identity, as
    maps of roles, roles chosen in sorted order."""
    for chosen in itertools.combinations(sorted(t.role_map.values()), size):
        for image in itertools.permutations(chosen):
            if image != chosen:
                yield dict(zip(chosen, image))


# (count, sha256 of the outcomes, one line each) of three template families,
# recorded when the battery still built a congruence object per check and
# also ran the prime-interval-dichotomy, block-chain and theta_p block-size
# checks, which its other checks imply
GOLDEN_BATTERY = {
    "derivation": (1728, "236d573b2f1d29b5f72bebea3f8d2ccac728b240cf1324ff14c69186092affdd"),
    "gadget-swaps": (1680, "fd2a881f7dfa4a193db5c1189885b7a2677991d9f770ab819b25b4170723cb9d"),
    "S-permutations": (880, "bd80f2629ba0318c875224b82c6e2aef3b65769d4a4c0fe6421aa1b9ffa428ca"),
}


def test_battery_outcomes_are_golden(templates, grid):
    # the battery on every role assignment the derivation tries, on each of
    # the 30 criterion-3 gadgets and its two-role swaps, and the whole
    # load-time check of S under every two- and three-role permutation;
    # with the third-isolating-congruence test these reach 7 of its 10 checks
    s = templates["S"]
    families = {
        "derivation": [outcome(gadget_battery, t) for t in battery_candidates(grid)],
        "gadget-swaps": [outcome(gadget_battery, u) for t in gadgets(grid)
                         for u in [t, *(permuted(t, m) for m in role_moves(t, 2))]],
        "S-permutations": [outcome(construction._check_gadget, permuted(s, m))
                           for size in (2, 3) for m in role_moves(s, size)],
    }
    got = {name: (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
           for name, lines in families.items()}
    assert got == GOLDEN_BATTERY
