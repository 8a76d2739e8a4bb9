"""Exceptions shared across the package."""


class DataError(Exception):
    """Raised when an input file or loaded structure violates its contract.

    Library functions raise ValueError for arguments they cannot act on.
    The CLI maps both to exit status 2.
    """
