"""Immutable value classes from plain methods.  The standard library's
``@dataclass(frozen=True)`` imports ``inspect`` (with ``ast``, ``dis`` and
``tokenize``) and builds each class's methods with ``exec`` at import, a
cost that every short CLI process would pay on start."""


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its storage in ``__slots__`` and the compared fields,
    a prefix of it, in ``_fields``, and sets every slot once in
    ``__init__`` through ``_init``.  Equality compares the fields when
    both sides are of the same class (NotImplemented otherwise), the hash
    is that of the tuple of fields, assignment and deletion raise
    AttributeError, and the repr lists the fields: as a frozen dataclass.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the slots, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"
