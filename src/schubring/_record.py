"""Base of the package's small value classes."""


class Record:
    """Value semantics over the fields named in ``__slots__``: equal when the
    class and every field are equal, the hash of the field tuple, and the
    repr ``Name(field=value, ...)``.  A subclass sets ``__slots__`` and its
    own ``__init__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"
