"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: bad input -> 2,
capacity guard -> 3, failed verification claims -> 1; any other
exception is an internal error -> 4.
"""


class InputError(ValueError):
    """Malformed or out-of-range input (bad vector, bad file, bad id)."""


class CapacityError(RuntimeError):
    """A size guard was exceeded (enumeration or syndrome-table too large)."""


class IntegrityError(RuntimeError):
    """Embedded table data failed its reconstruction cross-checks."""
