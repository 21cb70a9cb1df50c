"""Shared exception types."""


class ConfigError(ValueError):
    """A run configuration is malformed or names something unknown.

    The CLI reports it as a usage error (exit 2, like argparse's own), not
    as a traceback.  A ValueError from inside a computation stays one.
    """


class GroupMismatchError(TypeError):
    """Raised when operands belong to different groups."""


class SizeCapExceeded(RuntimeError):
    """A set or measure-support size cap was exceeded.

    The message always names the cap so that a failed run can be retried
    with an explicit, larger budget instead of silently truncating.  The
    ``unit`` says what ``needed`` counts ("elements or more" when the size
    was only seen to pass the cap, not computed in full).
    """

    def __init__(self, what: str, needed: int, cap: int, unit: str = "elements"):
        self.what = what
        self.needed = needed
        self.cap = cap
        self.unit = unit
        super().__init__(f"{what}: needs {needed} {unit}, cap is {cap}")
