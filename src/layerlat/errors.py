"""Exception taxonomy shared by all layerlat modules."""

from __future__ import annotations


class LayerlatError(Exception):
    """Base class for all domain errors raised by this package."""


class InternalInvariant(LayerlatError):
    """A condition the algorithm guarantees did not hold: a bug, not bad input."""


class TypeMismatch(LayerlatError):
    """An element, hom, or subgroup does not fit the group it was used with."""


class ParseError(LayerlatError):
    """A textual document (bunch file, element literal, table CSV) is malformed."""


class UnknownLayer(LayerlatError):
    """A layer label does not occur in the skeleton."""


class LayerOrderError(LayerlatError):
    """A transition was requested against the skeleton order."""


class CoverMissing(LayerlatError):
    """A cover was required in a group that does not provide one."""


class NotResiduated(LayerlatError):
    """brute_residuum found an empty candidate set."""


class AxiomFailure(LayerlatError):
    """A finite table failed a monoid/lattice/residuation axiom."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class NotInvolutive(AxiomFailure):
    """The double residual complement is not the identity."""


class NotOddOrEven(AxiomFailure):
    """The falsum is neither the unit nor the unit's lower cover."""


class RoundTripMismatch(LayerlatError):
    """Reconstruction from a decomposition disagreed with the input table."""


class LayerClassError(LayerlatError):
    """insert_above was applied to a layer whose class forbids it."""


class LeastLayerError(LayerlatError):
    """insert_below was applied to the least layer."""


class SubgroupObstruction(LayerlatError):
    """insert_below would break the transitions-into-subgroup law.

    Inserting a full copy below a class-I layer whose designated subgroup is
    proper makes the copy-to-original transition surjective, so it cannot land
    inside the subgroup.  The construction is refused rather than producing a
    bunch that fails validation.
    """


class EvenTypeUnsupported(LayerlatError):
    """Gap filling is only defined for odd chains; even chains have the
    unfillable unit/falsum gap."""


class NotLess(LayerlatError):
    """fill_gap requires a strictly ordered pair."""


class BoundExceeded(LayerlatError):
    """Finite-chain enumeration was asked for a size above its bound."""


class Unbounded(LayerlatError):
    """A bounded chain was required (rational placement needs endpoints)."""


class TrivialChain(LayerlatError):
    """A one-element chain has no distinct endpoints to pin to 0 and 1."""


class WindowTooSmall(LayerlatError):
    """A truncated table window misses a required constant."""


class InfiniteChain(LayerlatError):
    """A full extensional table was requested for an infinite chain."""
