"""Exception types shared across the library."""


class JacobiCodesError(Exception):
    """Base class for library-specific failures."""


class IntegrityError(JacobiCodesError):
    """A mathematical identity that must hold for valid inputs failed.

    Raised when a cross-check breaks: a congruence system inconsistent with
    its certified root, a determinant identity that fails, a solution count
    different from what the theory guarantees, or a selection that is not
    unique.  Signals a bad (input, generator) pairing or an upstream bug,
    never a recoverable condition.
    """


class InputError(JacobiCodesError, ValueError):
    """An argument outside the domain a public function accepts: a composite
    p, a character order that does not divide p - 1, an empty prime range,
    an exponent out of range.  A ValueError, so callers that catch
    ValueError keep working; the CLI reports it as a usage error."""


def _cell(l: int, p: int, alpha: int | None = None, generator=None) -> str:
    """The (l, p[, alpha[, generator]]) cell an IntegrityError belongs to, as
    the prefix of its message; alpha is left out where the caller works mod
    p alone."""
    cell = f"l = {l}, p = {p}"
    if alpha is not None:
        cell += f", alpha = {alpha}"
    return cell if generator is None else f"{cell}, generator {generator}"
