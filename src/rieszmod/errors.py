"""Exception types shared across the library and mapped to CLI error codes."""

from __future__ import annotations


class RieszmodError(Exception):
    """Base class for all library errors.

    Every subclass carries a stable ``code`` used by the CLI when emitting
    machine-readable error reports.
    """

    code = "error"

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.message = message
        self.path = path

    def to_json(self) -> dict:
        return {"error": {"code": self.code, "message": self.message, "path": self.path}}


class InputError(RieszmodError):
    code = "input_error"


class InvalidStructure(RieszmodError):
    code = "invalid_structure"


class NonIdempotentInput(RieszmodError):
    code = "non_idempotent_input"


class PartitionMismatch(RieszmodError):
    code = "partition_mismatch"


class NotAPartition(RieszmodError):
    code = "not_a_partition"


class SpaceMismatch(RieszmodError):
    code = "space_mismatch"


class InvalidExponent(RieszmodError):
    code = "invalid_exponent"


class NegativeInput(RieszmodError):
    code = "negative_input"


class ModuleMismatch(RieszmodError):
    code = "module_mismatch"


class DimensionMismatch(RieszmodError):
    code = "dimension_mismatch"


class BoundViolated(RieszmodError):
    code = "bound_violated"


class UnsupportedHom(RieszmodError):
    code = "unsupported_hom"


class CompressionViolated(RieszmodError):
    code = "compression_violated"


class DominationViolated(RieszmodError):
    code = "domination_violated"


class InconsistentGenerators(RieszmodError):
    code = "inconsistent_generators"


class NotHilbert(RieszmodError):
    code = "not_hilbert"


class EmptySet(RieszmodError):
    code = "empty_set"


class SolverFailed(RieszmodError):
    code = "solver_failed"
