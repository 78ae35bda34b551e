"""The immutable value base shared by the package's small classes."""

from __future__ import annotations


class Record:
    """Immutable value: set once in ``__init__``, compared and hashed by its fields.

    A subclass names its fields in ``__slots__`` and sets each one with
    ``object.__setattr__``.  Records of one class are equal when their
    field tuples are, hash by that tuple, and show their fields by name,
    as a frozen dataclass does.  A subclass that holds other state
    overrides ``_fields``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # pickle and copy restore the stored state, since __setattr__ refuses it
        state = {name: getattr(self, name) for name in self.__slots__} or vars(self)
        return _restore, (type(self), state)


def _restore(cls, state: dict):
    record = cls.__new__(cls)
    for name, value in state.items():
        object.__setattr__(record, name, value)
    return record
