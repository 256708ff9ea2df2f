"""The immutable base of the records that normalize or check their fields: the
annotated names, in order, each default the class attribute of that name.
``__post_init__`` may normalize a field through ``object.__setattr__``, or raise.
Like a ``typing.NamedTuple``, a record compares and hashes by value and changes
by ``_replace``, which checks the new record; unlike ``dataclasses``, it makes
no code per class. Its ``__dict__`` also holds ``cached_property`` memos."""

from __future__ import annotations

from itertools import repeat
from typing import Any


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)
        cls._required = frozenset(name for name in cls._fields if name not in cls.__dict__)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        given = len(kwargs)
        if args:
            given += len(args)
            kwargs.update(zip(self._fields, args))  # short of ``given`` if a field came twice or a value had none
        if len(kwargs) != given or not self._required <= kwargs.keys() <= self._field_set:
            raise TypeError(f"{type(self).__name__}() takes each of the fields {self._fields} once, and no other")
        object.__setattr__(self, "__dict__", kwargs)  # a field not given reads its default from the class
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, *_: Any) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self._fields))

    def _replace(self, **changes: Any) -> Record:
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"
