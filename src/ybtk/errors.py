"""Exception hierarchy shared by all ybtk modules.

The command line maps these onto exit codes: input problems (parsing,
file format, bindings, tangle typing) are "user errors", while
``NotBiinvertibleError`` / ``NotEnhanceableError`` are mathematical
negatives, and ``StrandLimitError`` is a resource cap.
"""


class ToolkitError(Exception):
    """Base class for all ybtk errors."""


class ScalarSyntaxError(ToolkitError):
    """Scalar text does not conform to the scalar grammar."""


class UnknownSymbolError(ToolkitError):
    """Scalar text uses a symbol that the field does not declare."""


class SingularMatrixError(ToolkitError):
    """A matrix that must be invertible is singular."""


class NotInvertibleError(SingularMatrixError):
    """The input matrix itself is singular."""


class NotBiinvertibleError(ToolkitError):
    """The second transpose of the input matrix is singular."""


class NotEnhanceableError(ToolkitError):
    """V*U is not a nonzero scalar multiple of the identity."""


class NoMonomialRootError(NotEnhanceableError):
    """V*U is scalar but the scalar has no monomial square root.

    Only raised in the exact backend; the caller may supply the square
    root manually and run the verifiers directly.
    """


class TangleTypeError(ToolkitError):
    """Adjacent tangle layers have mismatched sign sequences."""

    def __init__(self, layer_index, expected, found):
        self.layer_index = layer_index
        self.expected = tuple(expected)
        self.found = tuple(found)
        super().__init__(
            "layer %d expects domain %s but the previous layer produced %s"
            % (layer_index, "".join(expected) or "()", "".join(found) or "()")
        )


class UnknownFamilyError(ToolkitError):
    """Catalog family id out of range."""


class BadBindingError(ToolkitError):
    """Missing, extra, or degenerate parameter binding for a fixture."""


class StrandLimitError(ToolkitError):
    """A braid or tangle state exceeds the configured size cap."""


class MatrixFileError(ToolkitError):
    """A matrix file is malformed (wrong shape, bad scalar, bad field)."""
