"""A small base for the package's frozen records.

``@dataclass(frozen=True)`` imports ``inspect`` and compiles each generated
method when a class is decorated, which was most of the cost of importing
the package.  A record's fields are its ``__init__`` parameters, in order,
and that ``__init__`` sets each one with ``object.__setattr__`` (ending in
``self.__post_init__()`` where it validates).  :class:`Record` names them
in ``__match_args__`` when the class is made, and gives what the decorator did:

* ``repr`` as ``Name(field=value, ...)``;
* equality and hashing by the tuple of fields, between records of the same
  class only; a record compared by identity sets ``__eq__ = object.__eq__``
  and ``__hash__ = object.__hash__``;
* ``AttributeError`` on assigning or deleting any attribute.

``copy`` and ``pickle`` call the class on the field values, keeping nothing
a read stored, such as a ``functools.cached_property`` value.
``dataclasses.fields`` and ``dataclasses.replace`` do not apply.
"""

from __future__ import annotations


class Record:
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        args = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __reduce__(self):
        return type(self), self._field_values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
