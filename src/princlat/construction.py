"""Realizing a finite bounded order as the principal-congruence order.

The construction attaches an eleven-element gadget lattice to every
comparability p < q of the interior of the source order, a four-element
chain to every isolated interior element, and a complemented atom for
each bound.  Gadgets sharing a parameter overlap in the frame elements
a_x, b_x; the lattice on each overlapping pair is a fixed double-gadget
template.  The assembled order is the union of all instantiated template
orders, which is verified to be transitively closed, a lattice, and to
contain every instance as a sublattice.

Verification works on matrices rather than one object at a time: all
instances of a template are checked as copies at once, and the
congruences of K and beta_H of every down set of the interior go
through the kernels of :mod:`princlat.kernels` and are compared as word
rows over J(K) (``ConAnalysis.words``).  A failure is named by
examining only the first failing row, in the order a scalar loop would
have met it.

Only the gadget S is data (``S.json`` and ``S.roles.json``); every
property the congruence analysis relies on is re-checked when it is
loaded, so a corrupted data file cannot silently produce a wrong
lattice.  The other templates are built from it here: each double
gadget glues two copies of S as ``AMALGAM_COPIES`` states, its order
S's order scattered through the copy index and closed once
(:func:`_glue`), and the chains Cp and frame are written down over
their roles, order and tables, as no check could fail on them.

Only S, Cp and frame instances are named: S(p, q) by :func:`_role_names`
on (p, q), Cp and frame on (p, p).  A double gadget is the two S
instances it glues, so it is placed, not named: ``_copy_index`` gives
the positions in the double gadget of each copy's S elements, and the
two S instances' position rows are scattered through it.  At load time,
``load_templates`` checks both copies at the index it glued them by:
each must be a copy of S, order and joins and meets, inside the glued
template.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .congruence import (
    CongruenceRelation,
    _subset_matrix,
    all_congruences,
    cover_certificate,
    order_mismatch,
)
from .errors import (
    AssemblyNotALattice,
    CorrespondenceBroken,
    InputError,
    InvalidInput,
    NotADownSet,
    NotALattice,
    PrinclatError,
    TemplateInvalid,
    VerificationFailed,
)
from .kernels import ConFacts, beta_labels, con_facts
from .lattice import (
    FiniteLattice,
    _block_order,
    as_lattice,
    closed_rows,
    length,
)
from .order import (
    _CHUNK,
    BoundedPoset,
    DownSet,
    Poset,
    _bool_product,
    _freeze,
    _member_names,
    _transitive_closure,
    down_set_matrix,
    is_down_set,
    order_iso,
    principal_down_set,
    validate_poset,
)

S_ROLE_SET = frozenset({"o", "i", "a_p", "b_p", "a_q", "b_q", "c", "d", "e", "f", "g"})

# how the two S copies of each double gadget map S roles to amalgam roles:
# SC glues S(p, q) and S(q, r), SV glues S(p, q) and S(p, r) with q before
# r, and SH glues S(p, r) and S(q, r) with p before q
AMALGAM_COPIES = MappingProxyType({kind: tuple(map(MappingProxyType, copies)) for kind, copies in {
    "SC": ({}, {"a_p": "a_q", "b_p": "b_q", "a_q": "a_q'", "b_q": "b_q'",
                "c": "c'", "d": "d'", "e": "e'", "f": "f'", "g": "g'"}),
    "SV": ({}, {"a_q": "a_q'", "b_q": "b_q'",
                "c": "c'", "d": "d'", "e": "e'", "f": "f'", "g": "g'"}),
    "SH": ({}, {"a_p": "a_p'", "b_p": "b_p'",
                "c": "c'", "d": "d'", "e": "e'", "f": "f'", "g": "g'"}),
}.items()})


@dataclass(frozen=True, eq=False)
class GadgetTemplate:
    """A named Hasse diagram over placeholder names plus a role map."""

    name: str
    poset: Poset
    role_map: dict[str, str]
    lattice: FiniteLattice


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """The assembled lattice, its source order, and what verify reads of
    the gadgets, fixed as lattice positions when K is assembled.

    ``anchor`` names the representing pair of every element of the
    source.  ``contributions`` holds, for each interior element p in
    ``source.interior`` order, the index pairs of the lattice that p in H
    adds to beta_H: its anchor pair if p is isolated, theta_p of every S
    instance (p, q) and theta_q of every S instance (q, p).

    The analyses that verify reads are cached here, each built once on
    first use: the anchor pairs as two position columns
    (``anchor_columns``), the down sets of the interior
    (``interior_down_sets``), whose rows number the bases of Con K and
    phi's images, Con K as word rows with their flags (``con_facts``),
    the down sets' beta rows (``betas``) and their word rows
    (``beta_words``), and the one verdict on the order of H -> beta_H
    (``betas_embed``) that decides the down-set stage and phi's order.
    """

    lattice: FiniteLattice
    source: BoundedPoset
    anchor: dict[str, tuple[str, str]]
    contributions: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def degenerate(self) -> bool:
        return len(self.source.elements) <= 2

    @cached_property
    def anchor_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The two ends of the anchor pair of each interior element, in
        ``source.interior`` order, as lattice positions."""
        ix = self.lattice.index
        pairs = [(ix(a), ix(b)) for a, b in (self.anchor[p] for p in self.source.interior)]
        a, b = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2).T
        return a, b

    @cached_property
    def con_facts(self) -> ConFacts:
        """Con K as word rows with the flags verify reads; built once."""
        return con_facts(self)

    @cached_property
    def interior_down_sets(self) -> np.ndarray:
        """Every down set of the interior, as the rows of
        ``down_set_matrix``; enumerated once."""
        return down_set_matrix(self.source.interior_poset)

    @cached_property
    def betas(self) -> tuple[np.ndarray, PrinclatError | None]:
        """:func:`beta_labels` of every row of ``interior_down_sets``: the
        label rows up to the first row that fails, and that row's error;
        built once."""
        return beta_labels(self.lattice, self.contributions, self.interior_down_sets)

    @cached_property
    def beta_words(self) -> np.ndarray:
        """The word rows of the label rows of ``betas``
        (``ConAnalysis.label_words``): read from beta's own labels, not
        from the dependency relation.  Each such row is a congruence, so
        its word row is its mask."""
        return self.lattice.con_analysis.label_words(self.betas[0])

    @cached_property
    def betas_embed(self) -> bool:
        """Whether H -> beta_H is an order embedding of the down sets of
        the interior: one :func:`cover_certificate` over ``beta_words``
        and ``interior_down_sets``, run only when ``betas`` reports no
        error (False otherwise).  The down-set stage reads it, and so
        does :func:`_correspondence`, where it decides the order of phi."""
        return self.betas[1] is None and cover_certificate(self.beta_words,
                                                           self.interior_down_sets)


@dataclass(frozen=True)
class IsoCorrespondence:
    """Mutually inverse order isomorphisms Con K <-> nonempty down sets."""

    forward: dict[CongruenceRelation, DownSet]
    backward: dict[DownSet, CongruenceRelation]


def default_template_dir() -> Path:
    return Path(__file__).parent / "templates"


def _load_one(directory: Path, stem: str) -> GadgetTemplate:
    try:
        doc = json.loads((directory / f"{stem}.json").read_text(encoding="utf-8"))
        roles = json.loads((directory / f"{stem}.roles.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise TemplateInvalid(stem, "readable", str(exc)) from exc
    try:
        poset = validate_poset(doc["elements"], [tuple(c) for c in doc["covers"]])
    except Exception as exc:
        raise TemplateInvalid(stem, "poset", str(exc)) from exc
    if not isinstance(roles, dict) or sorted(roles) != sorted(poset.elements):
        raise TemplateInvalid(stem, "role-map-domain")
    if not all(isinstance(role, str) for role in roles.values()):
        raise TemplateInvalid(stem, "role-map-names")
    if len(set(roles.values())) != len(roles):
        raise TemplateInvalid(stem, "role-map-injective")
    try:
        lat = as_lattice(poset)
    except PrinclatError as exc:
        raise TemplateInvalid(stem, "lattice", str(exc)) from exc
    return GadgetTemplate(stem, poset, dict(roles), lat)


def _check_gadget(t: GadgetTemplate) -> None:
    """The load-time checks of the comparability gadget: its shape, then
    :func:`gadget_battery`."""
    lat = t.lattice
    if lat.n != 11 or set(t.role_map.values()) != S_ROLE_SET:
        raise TemplateInvalid(t.name, "element-set")
    r = {role: ph for ph, role in t.role_map.items()}
    if lat.bottom != r["o"] or lat.top != r["i"]:
        raise TemplateInvalid(t.name, "bounds")
    if length(lat) != 5:
        raise TemplateInvalid(t.name, "length", str(length(lat)))
    # 15 cover edges is derived, not transcribed: every admissible gadget has
    # 15 (tests/gadget_space.py enumerates them)
    primes = len(lat.poset.covers())
    if primes != 15:
        raise TemplateInvalid(t.name, "prime-interval-count", str(primes))
    gadget_battery(t)


def _con(lat: FiniteLattice, i: int, j: int) -> int:
    """The mask of con(i, j) = con(i ^ j, i v j), for positions i and j,
    read from the lattice's analysis: the one form in which construction
    names a congruence."""
    return lat.con_analysis.principal(int(lat.meet[i, j]), int(lat.join[i, j]))


def gadget_battery(t: GadgetTemplate) -> None:
    """The congruence battery of the comparability gadget.

    Raises :class:`TemplateInvalid` naming the first check that fails.  It
    pins nothing of the gadget's shape (element count, bounds, length,
    number of prime intervals), which :func:`_check_gadget` checks first,
    so the shape of S is derived with it: ``battery_gadgets`` in
    ``tests/gadget_space.py`` tries every role assignment on every
    lattice that the battery's quotient and block conditions allow, and
    ``scripts/derive_gadget.py`` and ``scripts/make_templates.py`` read
    its result.

    Congruences are masks of the lattice's analysis (:func:`_con`):
    equality is mask equality, refinement is the subset test, whether a
    congruence is isolating is read from its word row
    (``ConAnalysis.word_flags``), and which pairs it collapses is read
    from its label vector.

    Three checks are not run, because the ones before them imply them:

    * no isolating congruence of a prime interval is other than theta_p
      and theta_q: these two are isolating and distinct, and there are
      exactly two isolating congruences;
    * every block of theta_p and theta_q is a chain: a block holding
      incomparable x and y also holds x ^ y and x v y, which are neither
      x nor y, so it has at least four elements, and the blocks have at
      most three;
    * the blocks of theta_p have at most three elements: theta_p refines
      theta_q, so each of its blocks lies inside one of theta_q's.

    The quotient-shape check compares the order that the join table
    induces on the blocks of theta_q (:func:`_block_order`) with the 2x3
    grid's (:func:`_grid_order`) by :func:`order_iso`.  That is the
    lattice isomorphism test of the quotient L / theta_q against the
    grid, without building either lattice: theta_q's labels come from the
    analysis, so it is a congruence; the quotient of a lattice by a
    congruence is a lattice whose order is the induced one; and two
    lattices are isomorphic iff their orders are (see
    :func:`princlat.lattice.lattice_iso`).
    """
    lat = t.lattice
    an = lat.con_analysis
    r = {role: lat.index(ph) for ph, role in t.role_map.items()}
    covers = set(lat.poset.covers())
    if (r["d"], r["e"]) not in covers or (r["b_p"], r["g"]) not in covers:
        raise TemplateInvalid(t.name, "required-prime-intervals")
    tp = _con(lat, r["a_p"], r["b_p"])
    tq = _con(lat, r["a_q"], r["b_q"])
    if _con(lat, r["d"], r["e"]) != tp:
        raise TemplateInvalid(t.name, "lower-congruence-generators")
    lp, lq = an.labels(tp), an.labels(tq)
    if lp[r["f"]] != lp[r["g"]]:
        raise TemplateInvalid(t.name, "upper-rail-pair")
    if tp & ~tq or tp == tq:
        raise TemplateInvalid(t.name, "congruence-comparability")
    isolating = an.word_flags(an.words([tp, tq, *an.con_set()]))[2]
    if not isolating[:2].all():
        raise TemplateInvalid(t.name, "isolating")
    witness = an.labels(_con(lat, r["b_p"], r["g"]))
    if witness[r["o"]] != witness[r["c"]]:
        raise TemplateInvalid(t.name, "collapse-witness")
    count = int(isolating[2:].sum())
    if count != 2:
        raise TemplateInvalid(t.name, "isolating-congruence-count", str(count))
    ends = (lat.index(lat.bottom), lat.index(lat.top))
    for x, y in ((r["a_p"], r["b_q"]), (r["a_q"], r["b_p"])):
        between = [k for k in range(lat.n)
                   if lat.leq[x, k] and lat.leq[k, y] and k not in (x, y, *ends)]
        if between:
            raise TemplateInvalid(t.name, "pair-separation", str(between))
    if max(map(lq.count, lq)) > 3:
        raise TemplateInvalid(t.name, "block-size")
    _, reps, blocks = _block_order(lat, lq)
    if order_iso(Poset(tuple(map(str, reps.tolist())), _freeze(blocks)), _grid_order()) is None:
        raise TemplateInvalid(t.name, "quotient-shape")


def _chain_order(n: int) -> np.ndarray:
    """The order of the n-element chain over positions, an upper triangular
    matrix: i <= j iff i <= j."""
    at = np.arange(n)
    return at[:, None] <= at


def _grid_order() -> Poset:
    """The order of the 2x3 grid, elements ``ab`` in ``c2_times_c3`` order:
    ab <= a'b' iff a <= a' and b <= b', the Kronecker product of the 2-
    and 3-element chain orders."""
    names = tuple(f"{a}{b}" for a in range(2) for b in range(3))
    leq = _chain_order(2)[:, None, :, None] & _chain_order(3)[None, :, None, :]
    return Poset(names, _freeze(leq.reshape(6, 6)))


def _diamond_order() -> Poset:
    """The order of the diamond M3 in ``m3``'s element order: a bottom, three
    incomparable atoms, a top."""
    leq = np.eye(5, dtype=bool)
    leq[0] = leq[:, 4] = True
    return Poset(("o", "x", "y", "z", "i"), _freeze(leq))


# what _copy_faults reports for a row, by code
COPY_FAULTS = (None, "order", "sublattice")


def _copy_faults(big: FiniteLattice, idx: np.ndarray, small: Poset, pairs=None) -> np.ndarray:
    """Whether each row of ``idx`` lists a copy of ``small`` in ``big``, read
    on the column pairs ``pairs``.

    ``idx`` is an m x |small| matrix of positions in ``big``, each row
    listing one instance in the element order of ``small``.  ``pairs`` is
    two equal-length arrays (u, v) of columns, each unordered pair once;
    by default every pair u < v, which decides the whole copy, as a pair
    u = v holds x <= x and x v x = x ^ x = x.  On each pair the
    elements x = row[u] and y = row[v] are compared both ways, and join
    and meet, being symmetric, once.  The code of row k indexes
    ``COPY_FAULTS``: 0 if every pair is as in a copy, 1 ("order") if the
    order of some x and y is not that of u and v in ``small``, 2
    ("sublattice") if not 1 but some join or meet of x and y is outside
    the row.  The pairs are gathered in chunks of rows, so no temporary
    exceeds ``_CHUNK`` elements by more than one row.
    """
    idx = np.asarray(idx, dtype=np.intp)
    u, v = np.triu_indices(idx.shape[1], 1) if pairs is None else pairs
    distorted = np.empty(len(idx), dtype=bool)
    step = max(1, _CHUNK // max(2 * len(u), 1))
    for s in range(0, len(idx), step):
        x, y = idx[s:s + step, u], idx[s:s + step, v]
        distorted[s:s + step] = ((big.leq[x, y] != small.leq[u, v])
                                 | (big.leq[y, x] != small.leq[v, u])).any(axis=1)
    return np.where(distorted, 1, np.where(closed_rows(big, idx, (u, v)), 0, 2))


def _amalgam_copies(s: GadgetTemplate, kind: str) -> tuple[dict[str, str], ...]:
    """S placeholder -> role of double gadget ``kind``, for each of its S copies."""
    return tuple({ph: copy.get(role, role) for ph, role in s.role_map.items()}
                 for copy in AMALGAM_COPIES[kind])


def _copy_names(s: GadgetTemplate, kind: str) -> list[list[str]]:
    """The role names in double gadget ``kind`` of its two S copies: row c
    lists copy c's, in the element order of S, copies in
    ``AMALGAM_COPIES`` order."""
    return [[m[ph] for ph in s.poset.elements] for m in _amalgam_copies(s, kind)]


def _copy_index(names: list[list[str]], index) -> np.ndarray:
    """Where the two S copies of a double gadget lie in it: the position,
    by ``index``, of each role name of :func:`_copy_names`."""
    return np.array([[index(x) for x in row] for row in names], dtype=np.intp)


def amalgam_covers(s: GadgetTemplate, kind: str) -> list[tuple[str, str]]:
    """The cover pairs of the two S copies of double gadget ``kind``, over
    its role names, sorted: their union generates its order."""
    return sorted({(m[a], m[b]) for m in _amalgam_copies(s, kind)
                   for a, b in s.poset.cover_names()})


def _glue(s: GadgetTemplate, kind: str) -> tuple[GadgetTemplate, np.ndarray]:
    """:func:`double_gadget` and its :func:`_copy_index`.

    The elements are the role names of both copies, sorted.  S's order is
    scattered through the copy index, and the union of the two images is
    closed once by :func:`_transitive_closure`.  That is the closure
    :func:`validate_poset` takes over the copies' covers (the order
    :func:`amalgam_covers` generates), as both close the same relations:
    every S comparability is a chain of S covers.  A cycle is refused as
    :func:`validate_poset` refuses it, with the same text.
    """
    names = _copy_names(s, kind)
    elements = tuple(sorted({x for row in names for x in row}))
    n = len(elements)
    pos = {x: i for i, x in enumerate(elements)}
    idx = _copy_index(names, pos.__getitem__)
    below, above = np.nonzero(s.poset.leq)
    rel = np.zeros((n, n), dtype=bool)
    rel[idx[:, below], idx[:, above]] = True
    closure = _transitive_closure(rel)
    both = closure & closure.T
    if np.count_nonzero(both) > n:  # more than the diagonal: a cycle
        i, j = map(int, np.argwhere(both & ~np.eye(n, dtype=bool))[0])
        raise TemplateInvalid(kind, "poset", f"cycle through {elements[i]!r} and {elements[j]!r}")
    poset = Poset(elements, _freeze(closure))
    try:
        lat = as_lattice(poset)
    except NotALattice as exc:
        raise TemplateInvalid(kind, "lattice", str(exc)) from exc
    return GadgetTemplate(kind, poset, {x: x for x in elements}, lat), idx


def double_gadget(s: GadgetTemplate, kind: str) -> GadgetTemplate:
    """The double gadget ``kind``: the two S copies glued over their shared
    roles, with the role names as placeholders (see :func:`_glue`)."""
    return _glue(s, kind)[0]


def _chain(kind: str, roles: tuple[str, ...]) -> GadgetTemplate:
    """The chain over ``roles``, in that order, with its lattice written
    down: in a chain, join is the later position and meet the earlier."""
    at = np.arange(len(roles), dtype=np.int32)  # as_lattice's table dtype
    poset = Poset(roles, _freeze(_chain_order(len(roles))))
    lat = FiniteLattice(poset, _freeze(np.maximum.outer(at, at)),
                        _freeze(np.minimum.outer(at, at)), roles[0], roles[-1])
    return GadgetTemplate(kind, poset, {x: x for x in roles}, lat)


def load_templates(directory=None) -> dict[str, GadgetTemplate]:
    """Load and fully validate the gadget S from ``S.json`` and
    ``S.roles.json`` in ``directory``, and build the other templates from
    it; other files there are ignored."""
    directory = Path(directory) if directory else default_template_dir()
    if not directory.is_dir():
        raise TemplateInvalid("<directory>", "exists", str(directory))
    s = _load_one(directory, "S")
    _check_gadget(s)
    out = {"S": s}
    for kind in AMALGAM_COPIES:
        out[kind], idx = _glue(s, kind)
        codes = _copy_faults(out[kind].lattice, idx, s.poset)
        if codes.any():  # the first faulty copy
            raise TemplateInvalid(kind, f"copy-{COPY_FAULTS[codes[codes > 0][0]]}")
    out["Cp"] = _chain("Cp", ("o", "a_p", "b_p", "i"))
    out["frame"] = _chain("frame", ("o", "a_p", "i"))
    return out


def _cross_pairs(copies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column pairs (x, y) of a double gadget with x in its first S
    copy only and y in its second only, from its :func:`_copy_index`:
    7 x 7, as the copies share o, i and one anchor pair."""
    first, second = (set(c) for c in copies.tolist())
    a, b = (np.array(sorted(c), dtype=np.intp) for c in (first - second, second - first))
    return np.repeat(a, len(b)), np.tile(b, len(a))


def _role_names(p: str, q: str) -> dict[str, str]:
    return {
        "o": "o", "i": "i",
        "a_p": f"a@{p}", "b_p": f"b@{p}", "a_q": f"a@{q}", "b_q": f"b@{q}",
        "c": f"c@{p}.{q}", "d": f"d@{p}.{q}", "e": f"e@{p}.{q}",
        "f": f"f@{p}.{q}", "g": f"g@{p}.{q}",
    }


def _instances(P: BoundedPoset) -> list[tuple[str, str, tuple]]:
    """(instance id, template kind, parameters) for every gadget of K, in
    placement order.  The parameters are (p, q) for S and (p,) for Cp and
    frame; a double gadget's are the numbers of its two S instances, the
    first S instance being number 0, in ``AMALGAM_COPIES`` order."""
    comps = P.comparabilities()
    pos = {e: i for i, e in enumerate(P.elements)}
    out = []
    for (p, q) in comps:
        out.append((f"S@{p}.{q}", "S", (p, q)))
    for p in P.isolated:
        out.append((f"Cp@{p}", "Cp", (p,)))
    out.append((f"frame@{P.zero}", "frame", (P.zero,)))
    out.append((f"frame@{P.one}", "frame", (P.one,)))
    for j, (p, q) in enumerate(comps):
        for k, (p2, q2) in enumerate(comps):
            if (p, q) >= (p2, q2):
                continue
            if q == p2:
                out.append((f"SC@{p}.{q}.{q2}", "SC", (j, k)))
            elif p == q2:
                out.append((f"SC@{p2}.{p}.{q}", "SC", (k, j)))
            elif p == p2:  # S(p, lo) first, then S(p, hi)
                a, b = (j, k) if pos[q] < pos[q2] else (k, j)
                out.append((f"SV@{p}.{comps[a][1]}.{comps[b][1]}", "SV", (a, b)))
            elif q == q2:  # S(lo, q) first, then S(hi, q)
                a, b = (j, k) if pos[p] < pos[p2] else (k, j)
                out.append((f"SH@{comps[a][0]}.{comps[b][0]}.{q}", "SH", (a, b)))
    return out


def assemble_K(P: BoundedPoset, templates: dict[str, GadgetTemplate]) -> ConstructionResult:
    """Assemble the realizing lattice for a finite bounded order.

    Every instance is checked by :func:`_copy_faults`, and the first
    faulty one in placement order is reported.  S, Cp and frame
    instances are read on every pair of their columns, a double gadget
    (SC, SV, SH) on its cross-copy pairs only (:func:`_cross_pairs`):
    x in its first S copy only and y in its second only, 49 of its 153
    pairs.  That reports the same instance with the same fault.

    * The other pairs need no check.  Any other pair of a double
      instance lies inside one of its two S copies, that is, inside one
      of the two S instances it is placed from, and that S instance is
      read on all its pairs: K orders them as S does and holds their
      joins and meets inside the S instance, so inside the double
      instance.  The double template orders them as S does too, as
      :func:`load_templates` checks each of its copies to be a copy of S
      inside it.  So when both S instances pass, the double instance
      fails on a cross-copy pair or not at all, and on the same fault as
      when all its pairs are read.
    * The report is unchanged.  S instances come first in placement
      order: if one fails, the first faulty instance is an S instance,
      read as before, and if none fails, each double instance fails
      exactly when it did on all its pairs, with the same fault.
    """
    if len(P.elements) <= 2:
        return _assemble_degenerate(P)
    s = templates["S"]
    an = s.lattice.con_analysis
    rs = {role: s.lattice.index(ph) for ph, role in s.role_map.items()}
    # the nontrivial pairs of theta_p = con(a_p, b_p) and theta_q of S, as S positions
    theta_pairs = []
    for a, b in (("a_p", "b_p"), ("a_q", "b_q")):
        labels = an.labels(_con(s.lattice, rs[a], rs[b]))
        theta_pairs.append([(x, y) for x, y in itertools.combinations(range(s.lattice.n), 2)
                            if labels[x] == labels[y]])

    placed = _instances(P)
    kinds: dict[str, list[int]] = {}  # the instance numbers of each template
    # S, Cp and frame instances are named by their parameters (Cp and frame
    # as an S on (p, p)); a double gadget is placed from its two S instances
    named: dict[int, dict[str, str]] = {}  # instance -> placeholder -> element name
    for k, (_, kind, params) in enumerate(placed):
        kinds.setdefault(kind, []).append(k)
        if kind not in AMALGAM_COPIES:
            naming = _role_names(params[0], params[-1])
            try:
                named[k] = {ph: naming[role] for ph, role in templates[kind].role_map.items()}
            except KeyError as exc:
                raise InvalidInput(f"template {kind} role {exc} has no naming") from None

    elements = tuple(sorted({name for renamed in named.values() for name in renamed.values()}))
    expected = 2 + 2 + 5 * len(kinds.get("S", ())) + 2 * len(P.interior)
    if len(elements) != expected:
        raise InvalidInput(
            f"element naming collision: {len(elements)} names, expected {expected}; "
            "avoid '@' and '.' in element names"
        )
    pos = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    # the instances of each template, as rows of positions in its element
    # order; a double gadget's rows scatter its two S instances' rows
    rows: dict[str, np.ndarray] = {}
    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # a double gadget's pairs to check
    for kind, ks in kinds.items():  # S before the double gadgets
        t = templates[kind]
        if kind in AMALGAM_COPIES:
            copies = _copy_index(_copy_names(s, kind), t.poset.index)
            rows[kind] = np.empty((len(ks), t.poset.n), dtype=np.intp)
            rows[kind][:, copies] = rows["S"][[placed[k][2] for k in ks]]
            pairs[kind] = _cross_pairs(copies)
        else:
            rows[kind] = np.array([[pos[named[k][ph]] for ph in t.poset.elements] for k in ks],
                                  dtype=np.intp)
    leq = np.zeros((n, n), dtype=bool)
    for kind, idx in rows.items():
        below, above = np.nonzero(templates[kind].poset.leq)
        leq[idx[:, below], idx[:, above]] = True
    # the union of instance orders must already be transitively closed:
    # any extra comparability would not be attributable to a template
    closure = leq | _bool_product(leq, leq)
    if not np.array_equal(closure, leq):
        bad = np.argwhere(closure & ~leq)[0]
        raise AssemblyNotALattice(
            (elements[bad[0]], elements[bad[1]]),
            "comparability not attributable to a single template instance",
        )
    if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
        raise AssemblyNotALattice(("?", "?"), "antisymmetry violated")
    try:
        lat = as_lattice(Poset(elements, _freeze(leq)))
    except NotALattice as exc:
        raise AssemblyNotALattice((exc.x, exc.y), str(exc)) from exc

    faults = np.zeros(len(placed), dtype=np.intp)
    for kind, ks in kinds.items():
        faults[ks] = _copy_faults(lat, rows[kind], templates[kind].poset, pairs.get(kind))
    if faults.any():  # the first faulty instance in placement order
        k = int(np.flatnonzero(faults)[0])
        if COPY_FAULTS[faults[k]] == "order":
            raise AssemblyNotALattice((placed[k][0], "order"), "instance order distorted")
        raise AssemblyNotALattice((placed[k][0], "closure"), "instance not a sublattice")

    anchor = {P.zero: (f"a@{P.zero}", f"a@{P.zero}"), P.one: (f"a@{P.one}", f"a@{P.one}")}
    for p in P.interior:
        anchor[p] = (f"a@{p}", f"b@{p}")
    contributions: dict[str, list[tuple[int, int]]] = {p: [] for p in P.interior}
    for p in P.isolated:
        contributions[p].append((pos[anchor[p][0]], pos[anchor[p][1]]))
    for k, row in zip(kinds.get("S", ()), rows.get("S", ())):
        for x, pairs in zip(placed[k][2], theta_pairs):
            contributions[x] += [(int(row[a]), int(row[b])) for a, b in pairs]
    return ConstructionResult(lat, P, anchor, tuple(tuple(contributions[p]) for p in P.interior))


def _assemble_degenerate(P: BoundedPoset) -> ConstructionResult:
    if len(P.elements) == 1:
        lat = as_lattice(validate_poset(["o"], []))
        anchor = {P.elements[0]: ("o", "o")}
    else:
        lat = as_lattice(validate_poset(["o", "i"], [("o", "i")]))
        anchor = {P.zero: ("o", "o"), P.one: ("i", "i")}
    return ConstructionResult(lat, P, anchor, ())


def beta_H(result: ConstructionResult, H) -> CongruenceRelation:
    """The congruence assembled from per-gadget restrictions for a down set H.

    The relation is the union of the gadget-level congruences dictated by
    membership of each parameter in H, plus the anchor pairs of isolated
    members.  It is verified to be transitive with chain blocks of size
    at most three, and to pass the full substitution-property check.
    This wraps the one row of a :func:`beta_labels` call.
    """
    members = tuple(sorted(set(getattr(H, "members", H))))
    P = result.source
    if not set(members) <= set(P.interior):
        raise NotADownSet(f"{members} is not a subset of the interior")
    if not is_down_set(P.interior_poset, members):
        raise NotADownSet(f"{members} is not downward closed in the interior")
    row = np.array([[x in members for x in P.interior]], dtype=bool)
    labels, error = beta_labels(result.lattice, result.contributions, row)
    if error is not None:
        raise error
    return CongruenceRelation(result.lattice, tuple(labels[0].tolist()))


def _blocks(lat: FiniteLattice, labels: np.ndarray) -> list[tuple[str, ...]]:
    """The blocks of one label row, named as a failure witness."""
    return CongruenceRelation(lat, tuple(labels.tolist())).blocks()


def _con_rows(result: ConstructionResult) -> np.ndarray:
    """The row of ``result.con_facts`` of each congruence of
    ``all_congruences``, in that order (ConOrder, most blocks first, the
    order of ``ConAnalysis.con_masks`` and ``con_labels``).  Built only by
    :func:`phi` and to name a failure."""
    an = result.lattice.con_analysis
    return result.con_facts.rows(an.words(an.con_masks))


def _first_failing(result: ConstructionResult, bad: np.ndarray) -> tuple[int, np.ndarray]:
    """The first congruence in ConOrder among the rows of
    ``result.con_facts`` that ``bad`` flags, as a congruence-by-congruence
    loop over ``all_congruences`` meets them: its row, and its label row."""
    rows = _con_rows(result)
    k = int(bad[rows].argmax())
    return int(rows[k]), result.lattice.con_analysis.con_labels[k]


def _princ_poset(lat: FiniteLattice) -> Poset:
    """Princ K as a poset on ``pc0, pc1, ...``, in the key order of
    ``ConAnalysis.princ_witnesses``, ordered by the subset order of the
    masks: isomorphic to ``princ_order(lat).as_poset()``, which lists the
    same congruences sorted, with no label matrix and no sort."""
    an = lat.con_analysis
    masks = tuple(an.princ_witnesses)
    names = tuple(f"pc{i}" for i in range(len(masks)))
    return Poset(names, _subset_matrix(masks, len(an.joinirr)))


def _down_set_names(result: ConstructionResult, k: int) -> tuple[str, ...]:
    """The members of down set k of P, numbered as in :func:`_correspondence`."""
    P = result.source
    downs = result.interior_down_sets
    if k == len(downs):
        return tuple(sorted(P.elements))
    return tuple(sorted([P.zero, *itertools.compress(P.interior, downs[k].tolist())]))


def _correspondence(result: ConstructionResult) -> np.ndarray:
    """Check that phi is an order isomorphism from Con K onto the nonempty
    down sets of P, on matrices alone; return the number of the image of
    each row of ``result.con_facts``.

    Every nonempty down set of P but P is {0} u H for a down set H of the
    interior, so number k stands for {0} u H_k, with H_k row k of
    ``result.interior_down_sets``, and one past the last row for P (when
    P = {0}, {0} u the empty set is P).  The forward map sends the one
    congruence of a K of more than one element to P and every other
    congruence to {0} u its base, numbered by ``facts.base_row``; it is a
    bijection iff its sorted numbers are 0, 1, ....  The backward map
    sends {0} u H_k to beta_{H_k}, row k of ``result.betas``, and P to the
    one congruence; the round trip compares the word row of each beta
    row (``result.beta_words``) with the word row of its owner.  Every
    beta row returned is a congruence, so equal word rows are equal
    congruences (the lemma in ``ConAnalysis``).

    The order is then decided by ``result.betas_embed``, the one cover
    certificate over the beta word rows.  Proof that phi preserves and
    reflects the order iff H -> beta_H does, once the round trip holds.
    If K has one element, Con K is one row and there is no pair to
    decide.  Otherwise the one congruence (the only row with ``one``)
    maps to P.  Every other Con K row is the owner of {0} u H for a down
    set H of the interior, and equals beta_H.  So the Con K rows other
    than the one congruence are exactly the beta rows, and their images
    are the {0} u H.  For two such rows, {0} u H is contained in {0} u H'
    iff H is in H', so the pair agrees under phi iff it agrees under
    H -> beta_H.  A pair that holds the one congruence always agrees:
    every row refines it and every image lies in P, and it refines only
    itself (the rows are distinct congruences) while P lies in no other
    image (the images are distinct).  Only when the certificate fails are
    Con K's label rows in ConOrder and the images built as rows over P,
    for the pairwise check that names phi's witness.  A failure is
    reported as the first one that a loop over Con K in ConOrder, then
    over the down sets, would meet.
    """
    lat = result.lattice
    P = result.source
    facts = result.con_facts
    downs = result.interior_down_sets
    count = len(downs) + (lat.n > 1)  # the nonempty down sets of P
    if len(facts.words) != count:
        raise CorrespondenceBroken(
            (len(facts.words), count), "congruence count differs from down-set count")

    top = facts.one & (lat.n > 1)
    bad = ~(top | facts.zero | (facts.isolating & (facts.base_row >= 0)))
    if bad.any():
        r, labels = _first_failing(result, bad)
        if not facts.isolating[r]:
            raise CorrespondenceBroken(_blocks(lat, labels),
                                       "congruence neither bound nor isolating")
        raise CorrespondenceBroken(facts.base_of(r), "base is not a down set")
    forward = np.where(top, len(downs), facts.base_row)
    if not np.array_equal(np.sort(forward), np.arange(count)):
        raise CorrespondenceBroken(None, "forward image is not the down-set family")

    # beta_H of {0} u H must be the congruence whose image it is; P maps
    # back to the one congruence
    owner = np.empty_like(forward)
    owner[forward] = np.arange(len(forward))
    words = result.beta_words
    broken = np.flatnonzero((words != facts.words[owner[:len(words)]]).any(axis=1))
    if broken.size:
        raise CorrespondenceBroken(_down_set_names(result, int(broken[0])), "round trip broke")
    if result.betas[1] is not None:
        raise result.betas[1]
    # with the round trip intact, phi's order is H -> beta_H's (see above);
    # the pairwise oracle runs only to name the first mismatch
    if not result.betas_embed:
        family = np.zeros((count, P.poset.n), dtype=bool)  # down set k as a row over P
        family[:len(downs), [P.poset.index(x) for x in P.interior]] = downs
        family[:, P.poset.index(P.zero)] = True
        family[len(downs):] = True
        image = forward[_con_rows(result)]
        bad = order_mismatch(lat.con_analysis.con_labels, family[image])
        if bad is not None:
            a, b = (_down_set_names(result, k) for k in image[list(bad)].tolist())
            raise CorrespondenceBroken((a, b), "order not preserved")
    return forward


def phi(result: ConstructionResult) -> IsoCorrespondence:
    """The verified correspondence between Con K and nonempty down sets.

    The checks are :func:`_correspondence`'s, on word rows and membership
    matrices; this public form then builds one :class:`CongruenceRelation`
    (``all_congruences``) and one :class:`DownSet` per congruence, the
    latter from the number of its image, matched to the congruence by
    mask.
    """
    forward = _correspondence(result)[_con_rows(result)]
    images = (DownSet(_down_set_names(result, k)) for k in forward.tolist())
    pairs = dict(zip(all_congruences(result.lattice).congruences, images))
    return IsoCorrespondence(pairs, {ds: theta for theta, ds in pairs.items()})


@dataclass(frozen=True)
class VerificationReport:
    source_name: str
    stages: tuple[tuple[str, bool, str], ...]
    k_size: int
    k_length: int

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.stages)

    def lines(self) -> list[str]:
        out = [f"verify {self.source_name}: |K|={self.k_size} length={self.k_length}"]
        for name, ok, detail in self.stages:
            mark = "pass" if ok else "FAIL"
            out.append(f"  [{mark}] {name}" + (f" ({detail})" if detail else ""))
        npass = sum(1 for _, ok, _ in self.stages if ok)
        out.append(f"RESULT pass={npass} fail={len(self.stages) - npass}")
        return out


def verify_theorem(P: BoundedPoset, templates: dict[str, GadgetTemplate],
                   name: str = "") -> VerificationReport:
    """Assemble K for P and run every structural check, reporting per stage.

    Every stage reads the one congruence analysis of K
    (``FiniteLattice.con_analysis``), and the per-congruence stages read
    Con K once, as word rows, through ``result.con_facts``; Con K and
    Princ K are sorted into ConOrder and given label rows only to name a
    failure.  The down sets of the interior are enumerated once
    (``result.interior_down_sets``); they number phi's images and the
    bases of Con K, and their beta rows come from one :func:`beta_labels`
    call (``result.betas``).  The order is decided once, by one cover
    certificate over those rows' word rows (``result.betas_embed``),
    which the down-set stage and :func:`_correspondence` both read; the
    correspondence is checked once.  No stage builds a congruence or
    down-set object per congruence or per down set: those are built only
    for a failure witness.  A P of at most two elements reads none of
    these.  An :class:`InputError`, such as colliding element names, is
    raised, not reported as a stage.
    """
    stages: list[tuple[str, bool, str]] = []

    def stage(label, fn):
        try:
            detail = fn() or ""
            stages.append((label, True, detail))
            return True
        except InputError:  # bad input is not a failed check
            raise
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            stages.append((label, False, f"{type(exc).__name__}: {exc}"))
            return False

    result: ConstructionResult | None = None

    def s_assemble():
        nonlocal result
        result = assemble_K(P, templates)
        return f"{result.lattice.n} elements"

    if not stage("assembly", s_assemble):
        return VerificationReport(name, tuple(stages), 0, 0)
    lat = result.lattice
    ln = length(lat)

    if result.degenerate:
        def s_degenerate():
            if order_iso(P.poset, _princ_poset(lat)) is None:
                raise VerificationFailed("degenerate", detail="principal order differs")
            return f"|P|={len(P.elements)}"
        stage("degenerate-realization", s_degenerate)
        return VerificationReport(name, tuple(stages), lat.n, ln)
    facts = result.con_facts

    def s_diamond():
        # one row per non-bound x, in m3()'s element order: the bottom, x (the
        # anchor of the first interior element when x is a_0 or a_1), a_0,
        # a_1, the top; each row must list a copy of M3's order, closed
        # under join and meet
        ix = lat.index
        a0, a1, a = (ix(result.anchor[p][0]) for p in (P.zero, P.one, P.interior[0]))
        xs = np.delete(np.arange(lat.n), [ix(lat.bottom), ix(lat.top)])
        rows = np.tile([ix(lat.bottom), 0, a0, a1, ix(lat.top)], (len(xs), 1))
        rows[:, 1] = np.where((xs == a0) | (xs == a1), a, xs)
        codes = _copy_faults(lat, rows, _diamond_order())
        if codes.any():  # the first faulty diamond
            raise VerificationFailed("diamond-cover",
                                     witness=lat.elements[xs[np.flatnonzero(codes)[0]]])
        return f"{lat.n - 2} interior elements"

    def s_dichotomy():
        bad = ~(facts.zero | facts.one | facts.isolating)
        if bad.any():
            raise VerificationFailed("congruence-dichotomy",
                                     witness=_blocks(lat, _first_failing(result, bad)[1]))
        return f"{len(facts.words)} congruences"

    def s_base():
        bad = facts.isolating & (facts.base_row < 0)
        if bad.any():
            raise VerificationFailed("base-down-set",
                                     witness=facts.base_of(_first_failing(result, bad)[0]))
        return ""

    # the correspondence is checked once: both correspondence stages
    # report its result or its exception
    try:
        forward = _correspondence(result)
        corr_error = None
    except Exception as exc:  # noqa: BLE001 - reported by the stages below
        corr_error = exc

    def s_beta():
        rows = result.interior_down_sets
        labels, error = result.betas
        empty = ~rows[:len(labels)].any(axis=1)
        zero, _, isolating, _ = lat.con_analysis.word_flags(result.beta_words)
        ok = np.where(empty, zero, isolating)
        if not ok.all():
            k = int(ok.argmin())
            witness = "empty" if empty[k] else _member_names(P.interior, rows[k])
            raise VerificationFailed("downset-congruence", witness=witness)
        if error is not None:
            raise error
        # an order embedding is injective
        bad = None if result.betas_embed else order_mismatch(labels, rows)
        if bad is not None:
            witness = tuple(_member_names(P.interior, rows[k]) for k in bad)
            raise VerificationFailed("downset-congruence", witness=witness)
        return f"{len(rows)} down sets"

    def s_phi():
        if corr_error is not None:
            raise corr_error
        return f"|Con K| = {len(facts.words)}"

    def s_princ_corr():
        an = lat.con_analysis
        down = {p: tuple(sorted(principal_down_set(P.poset, p).members)) for p in P.elements}
        principal_downs = set(down.values())
        if corr_error is not None:
            raise corr_error
        # Con K's rows by mask: every principal congruence's row, and its image
        rows = facts.rows(an.words(list(an.princ_witnesses)))
        image = {_down_set_names(result, k) for k in forward[rows].tolist()}
        if image != principal_downs:
            raise VerificationFailed("principal-correspondence", witness=image ^ principal_downs)
        # each anchor congruence con(a_p, b_p) is principal: read its row
        anchors = [_con(lat, a, b) for a, b in zip(*(c.tolist() for c in result.anchor_columns))]
        for p, r in zip(P.interior, facts.rows(an.words(anchors)).tolist()):
            if not facts.isolating[r]:
                raise VerificationFailed("principal-correspondence", witness=p)
            expect = tuple(x for x in down[p] if x != P.zero)
            if facts.base_of(r) != expect:
                raise VerificationFailed("principal-correspondence",
                                         witness=(p, facts.base_of(r)))
        return f"{len(rows)} principal congruences"

    def s_princ_iso():
        po = _princ_poset(lat)
        if order_iso(P.poset, po) is None:
            raise VerificationFailed("principal-order-isomorphism")
        return f"|Princ K| = {po.n}"

    def s_length():
        # 3 on an antichain interior, 5 on one whose longest chain has two
        # elements, 6 on one with a three-element chain
        want = min(3 + 2 * int(P.interior_poset.heights().max()), 6)
        if ln != want:
            raise VerificationFailed("length-bound", witness=ln, detail=f"expected {want}")
        return f"length {ln}"

    stage("diamond-cover", s_diamond)
    stage("congruence-dichotomy", s_dichotomy)
    stage("base-down-set", s_base)
    stage("downset-congruence", s_beta)
    stage("congruence-correspondence", s_phi)
    stage("principal-correspondence", s_princ_corr)
    stage("principal-order-isomorphism", s_princ_iso)
    stage("length-bound", s_length)
    return VerificationReport(name, tuple(stages), lat.n, ln)

