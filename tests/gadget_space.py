"""Every comparability gadget that the acceptance criteria allow, and the
one derivation of the shipped gadget S.

This is the repository's only enumeration of the gadget space.  One
:func:`grid_lattices` pass feeds both :func:`gadgets` (criteria 3 and 5,
for the acceptance suite) and :func:`battery_gadgets` (the load-time
battery, for ``scripts/derive_gadget.py`` and
``scripts/make_templates.py``, which put this directory on ``sys.path``).

Criterion 3 asks of the gadget S, on eleven elements with bounds o and i:

* con(a_q, b_q) is {o, i}-isolating and S / con(a_q, b_q) is the 2x3 grid;
* con(a_p, b_p) < con(a_q, b_q), and these are the only isolating
  congruences of S;
* con(d, e) = con(a_p, b_p), the six elements a_p, b_p, a_q, b_q, d, e
  being distinct.

Criterion 5 asks of the congruences built from S that every block is a
chain of at most three elements; for S itself, that every block of
con(a_q, b_q) is such a chain.

Why :func:`grid_lattices` finds every such S.  Let theta be a congruence
of a finite lattice L whose blocks are chains.

* Blocks are intervals, so consecutive members of a block are covers.
* A cover x < y with [x] != [y] is a cover [x] < [y] of L / theta: if
  [x] < [z] < [y], then (x v z) ^ y lies strictly between x and y.
* Every cover B < B' of L / theta is crossed by a cover of L: a maximal
  chain from min B' ^ max B (in B) to min B' steps from B to B' once.
* Two crossing covers (b_i, b'_j) and (b_k, b'_l) over B < B', indexed
  up each chain, with i <= k and l <= j give b_i <= b_k < b'_l <= b'_j,
  so i = k and j = l: the crossings of one quotient cover are strictly
  increasing in both indices.  A cover out of o goes to min B and a
  cover into i comes from max B.

So L is fixed by a chain length at each of the four middle grid
positions (eleven elements: the lengths sum to nine) and, for each of
the three covers between middle positions, a nonempty strictly
increasing set of crossings.  The generator builds every such cover list
and keeps those that are Hasse diagrams of lattices in which the blocks
form a congruence; the quotient order is then the grid's, since covers
cross exactly the grid covers.

Why 12 prime intervals needs no block condition.  An interval of k
elements has at least k - 1 covers, with equality only for a chain (a
lattice whose Hasse diagram is a tree is a chain), and each of the seven
grid covers is crossed at least once.  With the four middle blocks
holding nine elements, S has at least 5 + 7 = 12 prime intervals, and
exactly 12 only with chain blocks (of any length up to six) and one
crossing per grid cover: ``grid_lattices(max_block=6, max_crossings=1)``.

What the battery derives.  :func:`battery_gadgets` tries 1,728 role
assignments on the 12 criterion-3 lattices and 4 pass, all on the
shipped lattice: S itself, and S with (a_p, b_p) flipped (f and g then
swap too), with (a_q, b_q) flipped, or with both.  Exactly one has both
anchor pairs lower element first, and its covers are those of
``S.json``; every one has 15 cover edges and length 5.
"""

from __future__ import annotations

import itertools

from princlat.congruence import (
    CongruenceRelation,
    all_congruences,
    is_congruence,
    is_I_congruence,
)
from princlat.construction import GadgetTemplate, gadget_battery
from princlat.errors import NotALattice, TemplateInvalid
from princlat.lattice import as_lattice
from princlat.order import validate_poset

import reference as ref

MIDDLE = ("01", "02", "10", "11")
MIDDLE_COVERS = (("01", "02"), ("01", "11"), ("10", "11"))


def _crossings(m: int, n: int, most: int):
    """Nonempty index-pair sets over an m-chain and an n-chain, strictly
    increasing in both indices, of at most ``most`` pairs."""
    cells = list(itertools.product(range(m), range(n)))
    for k in range(1, most + 1):
        for pairs in itertools.combinations(cells, k):
            if all(a < c and b < d for (a, b), (c, d) in zip(pairs, pairs[1:])):
                yield pairs


def grid_lattices(max_block: int = 3, max_crossings: int = 3):
    """Yield (lattice, theta, isolating) for every 11-element lattice with a
    congruence theta whose quotient is the 2x3 grid with singleton bound
    blocks, whose middle blocks are chains of at most ``max_block``
    elements, and whose grid covers are each crossed by at most
    ``max_crossings`` covers; ``isolating`` lists the {o, i}-isolating
    congruences of the lattice, computed once here for every reader of
    the pass.

    Elements are named by grid position and chain index (``"01.2"``), with
    bounds ``"o"`` and ``"i"``.
    """
    for sizes in itertools.product(range(1, max_block + 1), repeat=4):
        if sum(sizes) != 9:
            continue
        blocks = {pos: [f"{pos}.{k}" for k in range(s)] for pos, s in zip(MIDDLE, sizes)}
        fixed = [(b[k], b[k + 1]) for b in blocks.values() for k in range(len(b) - 1)]
        fixed += [("o", blocks["01"][0]), ("o", blocks["10"][0]),
                  (blocks["02"][-1], "i"), (blocks["11"][-1], "i")]
        options = [
            [[(blocks[lo][a], blocks[hi][b]) for a, b in pairs]
             for pairs in _crossings(len(blocks[lo]), len(blocks[hi]), max_crossings)]
            for lo, hi in MIDDLE_COVERS
        ]
        elements = ["o", *itertools.chain(*blocks.values()), "i"]
        # canonical labels: o, then the blocks in element order, then i
        labels = (0, *itertools.chain(*([k + 1] * len(b) for k, b in enumerate(blocks.values()))), 5)
        for crossing in itertools.product(*options):
            covers = fixed + [c for group in crossing for c in group]
            poset = validate_poset(elements, covers)
            if len(poset.covers()) != len(covers):
                continue
            try:
                lat = as_lattice(poset)
            except NotALattice:
                continue
            if is_congruence(lat, labels)[0]:
                icons = [t for t in all_congruences(lat).congruences if is_I_congruence(lat, t)]
                yield lat, CongruenceRelation(lat, labels), icons


def _criterion_3(lattices):
    """(lat, theta, lower) for each entry of :func:`grid_lattices` whose
    only isolating congruences are theta and one other, lower."""
    for lat, theta, icons in lattices:
        if len(icons) == 2 and theta in icons:
            (lower,) = [t for t in icons if t != theta]
            yield lat, theta, lower


def _generating_pairs(lat, theta, lower):
    """The ordered pairs of distinct elements in one block of theta that
    generate lower, and those that generate theta."""
    pairs = [pair for b in theta.blocks() for pair in itertools.permutations(b, 2)]
    generated = {pair: ref.principal_congruence(lat, *pair) for pair in pairs}
    return ([pair for pair in pairs if generated[pair] == lower],
            [pair for pair in pairs if generated[pair] == theta])


def _roles(lat, p, q, de):
    """The role map of the bounds and the pairs (a_p, b_p), (a_q, b_q),
    (d, e) of lat, and the three elements left in name order."""
    roles = {"o": "o", "i": "i", **dict(zip(p + q + de, ("a_p", "b_p", "a_q", "b_q", "d", "e")))}
    return roles, [x for x in lat.elements if x not in roles]


def _template(lat, roles, rest):
    """The S template of lat with ``roles`` and c, f, g given to ``rest`` in order."""
    return GadgetTemplate("S", lat.poset, {**roles, **dict(zip(rest, ("c", "f", "g")))}, lat)


def gadgets(lattices) -> list[GadgetTemplate]:
    """Every labelled gadget meeting criteria 3 and 5, as an S template,
    from the output of :func:`grid_lattices`.

    Pairs are labelled lower element first, the orientation of the anchor
    pairs; swapping a_x and b_x in every pair at once only renames the
    assembled lattice.  (d, e) is the first pair in block order that
    generates con(a_p, b_p) and avoids both anchor pairs.  The roles c,
    f, g go to the three remaining elements in name order: no criterion
    constrains them, and assembly gives every instance its own copy of
    them.
    """
    out = []
    for lat, theta, lower in _criterion_3(lattices):
        p_pairs, q_pairs = ([(x, y) for x, y in pairs if lat.leq[lat.index(x), lat.index(y)]]
                            for pairs in _generating_pairs(lat, theta, lower))
        for p, q in itertools.product(p_pairs, q_pairs):
            if set(p) & set(q):
                continue
            de = next((pair for pair in p_pairs if not set(pair) & (set(p) | set(q))), None)
            if de is None:
                continue
            out.append(_template(lat, *_roles(lat, p, q, de)))
    return out


def battery_candidates(lattices):
    """Yield every role assignment that :func:`battery_gadgets` tries
    against the battery, as an S template, from the output of
    :func:`grid_lattices`; its docstring says which."""
    for lat, theta, lower in _criterion_3(lattices):
        p_pairs, q_pairs = _generating_pairs(lat, theta, lower)
        for p, q, de in itertools.product(p_pairs, q_pairs, p_pairs):
            if len(set(p + q + de)) < 6:
                continue
            roles, rest = _roles(lat, p, q, de)
            for order in itertools.permutations(rest):
                yield _template(lat, roles, order)


def battery_gadgets(lattices) -> list[GadgetTemplate]:
    """Every labelled 11-element lattice that passes
    ``construction.gadget_battery``, as an S template, from the output of
    :func:`grid_lattices`.

    This is the complete derivation of the gadget S.  The battery asks
    that S / con(a_q, b_q) be the 2x3 grid, that the blocks of
    con(a_q, b_q) be chains of at most three elements, and that
    con(a_p, b_p) < con(a_q, b_q) be the only {o, i}-isolating
    congruences, so bounds are singleton blocks and the grid, which has
    no automorphism, fixes theta = con(a_q, b_q) as the congruence of
    grid positions: up to renaming, every lattice passing it is among the
    criterion-3 lattices, with lower = con(a_p, b_p).  Each anchor pair
    and (d, e) then lies in one block of theta and generates its
    congruence.  Every such assignment is tried: both orientations of
    each anchor pair, every (d, e) pair disjoint from them, and every
    order of c, f and g on the three elements left.
    """
    out = []
    for t in battery_candidates(lattices):
        try:
            gadget_battery(t)
        except TemplateInvalid:
            continue
        out.append(t)
    return out


def anchors_lower_first(t: GadgetTemplate) -> bool:
    """Whether a_p <= b_p and a_q <= b_q in t."""
    r = {role: x for x, role in t.role_map.items()}
    return all(t.lattice.leq[t.lattice.index(r[a]), t.lattice.index(r[b])]
               for a, b in (("a_p", "b_p"), ("a_q", "b_q")))


def role_covers(t: GadgetTemplate) -> list[tuple[str, str]]:
    """The cover pairs of t over role names, sorted."""
    return sorted((t.role_map[a], t.role_map[b]) for a, b in t.poset.cover_names())
