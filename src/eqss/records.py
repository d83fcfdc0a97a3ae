"""The one base of the engine's records: plain classes that name their
fields in `__slots__` and assign them in their own `__init__`.

A record equals only a record of its own class with equal fields, and its
repr names them: the slots, base classes first, less those starting with an
underscore (caches), unless the class lists `_fields` itself.  It hashes by
its fields and refuses assignment and deletion, so its `__init__` assigns
through `set_fields` or, in the hot records of `linalg` and `liealg`, one
`set_field` per field; `RationalMatrix`, `SubspaceBasis` and `LieAlgebra`
also spell out `_key`, the field tuple, as engine paths hash them.

A record never changes, so its hash is computed once and cached in the
base's `_hash` slot (a record with a dict field still refuses to hash, and
caches nothing).  Copy and pickle leave the cached hash behind: a str field
hashes differently under another PYTHONHASHSEED, so a copy computes its own.
"""

__all__ = ["FrozenRecord", "set_field", "set_fields"]

set_field = object.__setattr__


def set_fields(record: "FrozenRecord", **fields: object) -> None:
    for name, value in fields.items():
        set_field(record, name, value)


class FrozenRecord:
    __slots__ = ("_hash",)
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
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            set_field(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        """(None, {slot: value}) of the slots set, less the cached hash."""
        names = (name for c in type(self).__mro__ for name in c.__dict__.get("__slots__", ()) if name != "_hash")
        return None, {name: getattr(self, name) for name in names if hasattr(self, name)}

    def __setstate__(self, state: tuple) -> None:
        for name, value in state[1].items():
            set_field(self, name, value)
