"""The base of crimecast's frozen records. A subclass declares its fields
as annotations in its class body, a default as the annotation's value, and
`Record` gives it, with no code compiled per class: `__init__` (positional,
keyword and default arguments, then `__post_init__`), frozen attributes,
`__repr__`, `__eq__` and `__hash__` on the field tuple (for the same class
only), `_fields`, `_replace` (which runs `__init__` again) and `_asdict`. A
subclass names the fields that equality (`_uncompared`) or the repr
(`_unshown`) leaves out."""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _uncompared: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields += own
        cls._defaults = cls._defaults | {name: vars(cls)[name] for name in own if name in vars(cls)}
        cls._compared = tuple(name for name in cls._fields if name not in cls._uncompared)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(fields, args))
        for name in fields[len(args) :]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in self._defaults:
                state[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalize the fields; a subclass that needs to overrides it."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**(self._asdict() | changes))
