"""Exception hierarchy shared across the package.

Every error raised by the library derives from HminError so callers (and
the command-line front end, which maps error classes to exit codes) can
catch library failures without swallowing genuine bugs.
"""


class HminError(Exception):
    """Base class for all library errors."""


class StencilOutOfDomain(HminError):
    """A finite-difference stencil point left the field's domain.

    Raised for a chunk of nodes, it records the index of the failing node
    in the chunk as ``node``.
    """


class FieldUndefined(HminError):
    """A vector/scalar field could not be evaluated at the requested point."""


class CharacteristicPoint(HminError):
    """An operation that requires W > 0 was invoked at a characteristic point."""


class CharacteristicStart(HminError):
    """Seed extraction was started at a characteristic point."""


class NotAGraphAfterTransform(HminError):
    """The image of a surface under a transform fails the vertical-line test."""


class OutOfRange(HminError):
    """A curve/patch query outside the sampled parameter range."""


class SingularRule(HminError):
    """The (s, r) chart is evaluated on (or too close to) the singular locus."""


class DegenerateDenominator(HminError):
    """A quotient with vanishing denominator (e.g. <gamma, gamma'> = 0)."""


class UnknownName(HminError):
    """An unknown catalog entry name."""


class ParseError(HminError):
    """Syntax error in the surface expression language.

    Carries the byte offset of the offending token and a description of
    what was expected there.
    """

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        what = f", found {found!r}" if found else ""
        super().__init__(f"syntax error at position {position}: expected {expected}{what}")


class SpecError(HminError):
    """Invalid surface specification (bad JSON, failed validation, bad expression)."""
