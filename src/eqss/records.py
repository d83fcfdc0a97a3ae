"""The one base of the engine's records: plain classes that name their
fields in `__slots__` and assign them in their own `__init__`.

A record equals only a record of its own class with equal fields, and its
repr names them: the slots, base classes first, less those starting with an
underscore (caches), unless the class lists `_fields` itself.  It hashes by
its fields and refuses assignment and deletion, so its `__init__` assigns
through `set_fields` or, in the hot records of `linalg` and `liealg`, one
`set_field` per field; those also spell out `_key`, the field tuple,
instead of a loop.
"""

__all__ = ["FrozenRecord", "set_field", "set_fields"]

set_field = object.__setattr__


def set_fields(record: "FrozenRecord", **fields: object) -> None:
    for name, value in fields.items():
        set_field(record, name, value)


class FrozenRecord:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            slots = (name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ()))
            cls._fields = tuple(name for name in slots if not name.startswith("_"))

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:  # copy and pickle pass (None, {slot: value})
        for name, value in state[1].items():
            set_field(self, name, value)
