"""Immutable value objects on ``__slots__``.

A subclass lists its annotated constructor arguments in ``_fields`` and every
stored attribute in ``__slots__``. Its ``__init__`` calls ``self._check(...)``
on the arguments, checks their ranges and ends in one ``self._store(...)``, one
argument per slot in ``__slots__`` order; the classmethod ``_trusted(...)``
stores slot values the package has proven valid on a new instance with no
check. ``Frozen.__init_subclass__`` is ``field_check``'s one caller: it compiles
all three for each subclass declaring ``_fields``, and any other subclass shares
its parent's. Equality and hashing compare the fields of two values of the same
class; pickle and copy rebuild a value by calling the class with its fields, so
its checks run again and derived slots are recomputed.
"""

import sys
from operator import attrgetter
from types import GenericAlias, UnionType


def field_check(cls, fields):
    """Compile from one source in one ``exec``, straight-line as dataclasses compiles
    ``__init__``, and return ``check(self, *fields)``, raising ``ValueError`` at the first
    value whose class is not exactly one its annotation names (a collection field is left to
    its constructor, which checks each item); ``_store(self, *slots)``, setting each slot in
    ``__slots__`` order; and classmethod ``_trusted(cls, *slots)``, storing on a new instance."""
    module, tests = vars(sys.modules[cls.__module__]), []
    slots = cls.__slots__
    scope = {"new": object.__new__} | {f"set_{name}": getattr(cls, name).__set__ for name in slots}
    for name in fields:
        # a module without ``from __future__ import annotations`` stores the class itself
        annotation = cls.__annotations__[name]
        hint = eval(annotation, module) if isinstance(annotation, str) else annotation
        if not isinstance(hint, GenericAlias):
            scope[f"{name}_"] = frozenset(hint.__args__ if isinstance(hint, UnionType) else [hint])
            message = (f"{cls.__qualname__}.{name} must be "
                       f"{getattr(annotation, '__qualname__', annotation)}, got ")
            tests.append(f"\n if {name}.__class__ not in {name}_:"
                         f" raise ValueError({message!r} + repr({name}))")
    args, sets = ", ".join(slots), "".join(f"\n set_{name}(self, {name})" for name in slots)
    exec(f"def check(self, {', '.join(fields)}):\n pass{''.join(tests)}\n"
         f"def _store(self, {args}):{sets}\n"
         f"def _trusted(cls, {args}):\n self = new(cls){sets}\n return self", scope)
    return scope["check"], scope["_store"], classmethod(scope["_trusted"])


class Frozen:
    """Base of the package's immutable value types."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # class patterns such as ``case Epc(scheme, bits)`` bind fields in order
        cls.__match_args__ = cls._fields
        # one attrgetter reads every field; given one name it returns a bare value
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            cls._astuple = lambda self: (get(self),)
        else:
            cls._astuple = lambda self: get(self)
        if "_fields" in cls.__dict__:  # a subclass adding no fields shares its parent's
            cls._check, cls._store, cls._trusted = field_check(cls, cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
