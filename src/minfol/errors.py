class DomainError(ValueError):
    """Raised when an input is outside an operation's mathematical domain.

    Subclasses ValueError so callers that only care about "bad input" can
    catch the usual thing; the command line maps it to exit code 2.
    """


class InternalError(RuntimeError):
    """Raised when a certificate check fails: a computed object does not
    have a property that the mathematics guarantees, so the code, not
    the input, is at fault.

    These checks are explicit raises rather than asserts, so they still
    run under `python -O`; the command line maps this to exit code 3.
    """
