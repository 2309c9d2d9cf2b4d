"""Shared exception hierarchy: the only exception classes in eqhom.

The six classes below are the whole taxonomy; every other module raises
one of them with a message that names the condition, a bad argument
included.  Three broad families matter to callers (and to the CLI's exit
codes): input/parse problems, violated mathematical preconditions, and
blown search budgets.  ValueError is left to internal shape and
consistency checks, which are faults of the program and have no exit
code.  BudgetError is the one budget exception: coset enumeration, the
bar-resolution rank and the Cayley-ball size all raise it directly, with
a message naming the cap.
"""


class EqhomError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EqhomError):
    """Malformed file, word, or argument."""


class PreconditionError(EqhomError):
    """A mathematical precondition does not hold for the given input."""


class BudgetError(EqhomError):
    """A configured size or enumeration budget was exceeded."""


class ModelMismatch(PreconditionError):
    """Operands live over different group models, complexes or covers."""


class CertificateError(EqhomError):
    """A computed certificate failed its own check: an internal fault."""
