"""Exception types shared across the package.

Input errors (bad files, bad element references) and structural errors
(a poset that is not a lattice, a partition that is not a congruence)
are kept distinct so the CLI can map them to exit codes 2 and 1.
"""


class PrinclatError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PrinclatError):
    """Malformed user input: files, element references, option values."""


class DuplicateElement(InputError):
    pass


class UnknownElement(InputError):
    pass


class CycleDetected(InputError):
    """A cover list whose closure would violate antisymmetry."""


class NoZero(InputError):
    """The poset has no unique minimum element."""


class NoOne(InputError):
    """The poset has no unique maximum element."""


class NotALattice(PrinclatError):
    """Some pair has no unique least upper / greatest lower bound.

    Carries the offending pair and the incomparable minimal upper (or
    maximal lower) bounds found, so that a mis-transcribed template is
    diagnosable.
    """

    def __init__(self, x, y, witnesses, kind="join"):
        self.x = x
        self.y = y
        self.witnesses = tuple(witnesses)
        self.kind = kind
        super().__init__(
            f"no unique {kind} for ({x}, {y}); minimal candidates: {list(self.witnesses)}"
        )


class InputNotALattice(NotALattice, InputError):
    """A lattice input file whose order is not a lattice.

    Still a NotALattice, with the same witness and message, and also an
    input error, so the CLI exits with code 2.
    """


class NotACongruence(PrinclatError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotADownSet(PrinclatError):
    pass


class NotICongruence(PrinclatError):
    """Raised when an operation requires a {0,1}-isolating congruence."""


class TemplateInvalid(InputError):
    """A gadget template failed a load-time check (mis-transcribed data).

    A template directory is configuration, so this is an input error and
    the CLI exits with code 2.
    """

    def __init__(self, name, check, detail=""):
        self.template_name = name
        self.check = check
        super().__init__(f"template {name!r} failed check {check!r}" + (f": {detail}" if detail else ""))


class AssemblyNotALattice(PrinclatError):
    """The assembled order is not a lattice; carries a witness pair."""

    def __init__(self, witness, detail=""):
        self.witness = witness
        super().__init__(f"assembled order is not a lattice at {witness}" + (f": {detail}" if detail else ""))


class InvalidInput(InputError):
    pass


class CorrespondenceBroken(PrinclatError):
    """The congruence/down-set correspondence failed to verify."""

    def __init__(self, witness, detail=""):
        self.witness = witness
        super().__init__(f"correspondence broken at {witness}" + (f": {detail}" if detail else ""))


class VerificationFailed(PrinclatError):
    def __init__(self, stage, witness=None, detail=""):
        self.stage = stage
        self.witness = witness
        msg = f"verification failed at stage {stage!r}"
        if witness is not None:
            msg += f" (witness: {witness})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ValuationDiverged(PrinclatError):
    """Join-closure layering exceeded its hard cap; indicates an engine bug."""
