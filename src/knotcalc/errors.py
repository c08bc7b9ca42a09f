"""Exception types raised across the package."""


class KnotCalcError(Exception):
    """Base class for all domain errors."""


class DuplicateGeneratorError(KnotCalcError):
    def __init__(self, name):
        super().__init__(f"duplicate generator {name!r}")
        self.name = name


class UnknownGeneratorError(KnotCalcError):
    def __init__(self, name):
        super().__init__(f"unknown generator {name!r}")
        self.name = name


class DegreeViolationError(KnotCalcError):
    """A differential entry whose monomial does not have degree (-1,-1)."""

    def __init__(self, src, tgt, detail=""):
        msg = f"differential entry {src!r} -> {tgt!r} violates the (-1,-1) degree rule"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.src = src
        self.tgt = tgt


class DSquaredNonzeroError(KnotCalcError):
    def __init__(self, witness):
        super().__init__(f"d^2 != 0 starting at generator {witness!r}")
        self.witness = witness


class NotReducedError(KnotCalcError):
    """Operation requires a reduced complex (no unit differential entries)."""


class MultipleTowersError(KnotCalcError):
    """The mod-U or mod-V homology does not have nontorsion rank one."""

    def __init__(self, count, side):
        super().__init__(f"nontorsion rank {count} != 1 on side {side}")
        self.count = count
        self.side = side


class NotKnotLikeError(KnotCalcError):
    def __init__(self, reasons):
        super().__init__("complex is not knot-like: " + "; ".join(reasons))
        self.reasons = tuple(reasons)


class BudgetExceededError(KnotCalcError):
    def __init__(self, bits, budget):
        super().__init__(f"{bits} unknown bits exceed the brute-force budget {budget}")
        self.bits = bits
        self.budget = budget


class LengthCapExceededError(KnotCalcError):
    """Internal error: the greedy representative exceeded its length cap."""


class RecipeTooLargeError(KnotCalcError):
    """A recipe whose tensor product is refused before it is built."""


class VerificationFailedError(KnotCalcError):
    """Internal error: a computed result failed its certificate or invariant check."""


class NotCoprimeError(KnotCalcError):
    def __init__(self, p, q):
        super().__init__(f"gcd({p}, {q}) != 1")
        self.p = p
        self.q = q


class NotStaircaseError(KnotCalcError):
    def __init__(self, reason):
        super().__init__(f"polynomial is not a staircase: {reason}")
        self.reason = reason


class ParseError(KnotCalcError):
    """Syntax error in a complex file, recipe expression, or polynomial string."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        elif column is not None:
            loc = f" at column {column}"
        super().__init__(message + loc)
        self.line = line
        self.column = column
