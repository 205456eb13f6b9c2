"""Exception hierarchy with stable, machine-readable error codes.

The CLI maps these onto exit codes and prints the `code` attribute, so
the codes are part of the public surface: do not rename them casually.
"""

from __future__ import annotations


class CommdegError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InvalidPermutation(CommdegError):
    code = "invalid_permutation"


class ClosureTooLarge(CommdegError):
    code = "closure_too_large"


class UnknownFamily(CommdegError):
    code = "unknown_family"


class ForeignSubgroup(CommdegError):
    code = "foreign_subgroup"


class NotNormal(CommdegError):
    code = "not_normal"


class TrivialGroup(CommdegError):
    code = "trivial_group"


class EmptyTuple(CommdegError):
    code = "empty_tuple"


class BruteCapExceeded(CommdegError):
    code = "brute_cap_exceeded"


class DegenerateEigenbasis(CommdegError):
    code = "degenerate_eigenbasis"


class ToleranceExceeded(CommdegError):
    code = "tolerance_exceeded"


class ImaginaryResidue(CommdegError):
    code = "imaginary_residue"


class NotClassConstant(CommdegError):
    code = "not_class_constant"


class ResourceLimit(CommdegError):
    code = "resource_limit"


class ConfigInvalid(CommdegError):
    code = "config_invalid"


class UsageError(CommdegError):
    code = "usage"
