"""Exception hierarchy for bowforge.

Structural problems (bad shapes, unparseable files) are distinct from
semantic/numerical failures so the CLI can map them to different exit codes.
"""

from __future__ import annotations


class BowforgeError(Exception):
    """Base class for all bowforge errors."""


class StructuralError(BowforgeError):
    """Malformed input: wrong shapes, bad file syntax, missing fields."""


class ShapeMismatch(StructuralError):
    """A matrix does not conform to the dimension vector."""


class ParseError(StructuralError):
    """A bow file could not be parsed; carries location or field path."""


class ValidationFailure(BowforgeError):
    """Semantic failure: data violates a required relation or invariant."""


class NegativeDimension(ValidationFailure):
    """The charges admit no bundle: some d_i or d_{n,j} is negative."""


class SurfaceViolation(ValidationFailure):
    """A point does not satisfy the surface equation xi*psi = prod(eta - z_i)."""


class SpectraOverlap(ValidationFailure):
    """Sylvester solve rejected: spectra of the two endomorphisms collide."""


class RankTooLarge(ValidationFailure):
    """rank_factorization asked for an inner dimension below rank(C)."""


class ChainInfeasible(ValidationFailure):
    """No generic p-chain exists for the requested dimension profile."""


class RetriesExhausted(ValidationFailure):
    """Random generation kept failing a check; the message names last_failure."""

    def __init__(self, message: str, last_failure: object = None):
        super().__init__(message if last_failure is None else f"{message}: {last_failure}")
        self.last_failure = last_failure


class RankIndeterminate(BowforgeError):
    """A numerical rank decision sits too close to the threshold to call."""


class PoleAtEta(ValidationFailure):
    """Pairing evaluation requested at (or too close to) a pole."""


class DegenerateForm(ValidationFailure):
    """The induced fiber form is numerically degenerate."""


class FormAsymmetry(ValidationFailure):
    """The fiber form violates the symmetry demanded by the flavor."""


class FlavorChargeMismatch(ValidationFailure):
    """Charges are not symmetric enough to carry an SO/Sp structure."""
