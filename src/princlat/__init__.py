"""Finite-lattice congruence engine and bounded-order realization toolkit.

The library has two halves.  The congruence engine works on any finite
lattice: principal congruences, the full congruence order, the
principal-congruence order, and the valuation counting how many
principal congruences a congruence needs.  Each lattice is analysed
once (``FiniteLattice.con_analysis``): inside that analysis a congruence
is an int bitmask over the join-irreducibles J(L), bit j set iff it
collapses j with its lower cover, so join is OR and refinement is the
subset test; the masks come from the join-dependency relation on J(L),
and the tests check them against a worklist closure of their own.  The
construction half realizes any finite bounded order P as the order of
principal congruences of a lattice built from per-comparability gadgets,
and ships a verifier that re-checks every structural property of the
assembled lattice.
"""

from .congruence import (
    CongruenceRelation,
    ConOrder,
    PrincOrder,
    Valuation,
    all_congruences,
    base,
    is_I_congruence,
    princ_order,
    principal_congruence,
    valuation,
)
from .construction import (
    ConstructionResult,
    GadgetTemplate,
    IsoCorrespondence,
    VerificationReport,
    assemble_K,
    beta_H,
    load_templates,
    phi,
    verify_theorem,
)
from .lattice import FiniteLattice, IntervalEdge, as_lattice, lattice_iso, length, prime_intervals
from .order import (
    BoundedPoset,
    DownSet,
    Poset,
    down_sets,
    order_iso,
    principal_down_set,
    to_bounded,
    validate_poset,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedPoset", "CongruenceRelation", "ConOrder", "ConstructionResult",
    "DownSet", "FiniteLattice", "GadgetTemplate", "IntervalEdge",
    "IsoCorrespondence", "Poset", "PrincOrder", "Valuation",
    "VerificationReport", "all_congruences", "as_lattice", "assemble_K",
    "base", "beta_H", "down_sets", "is_I_congruence", "lattice_iso",
    "length", "load_templates", "order_iso", "phi", "prime_intervals",
    "princ_order", "principal_congruence", "principal_down_set",
    "to_bounded", "validate_poset", "valuation", "verify_theorem",
]
