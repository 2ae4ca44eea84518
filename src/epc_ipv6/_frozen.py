"""Immutable value objects on ``__slots__``.

A subclass lists its annotated constructor arguments in ``_fields``, each a
slot of the class or a base; more slots may hold values derived from them. Its
``__init__`` calls ``self._check(...)`` on the arguments, checks their ranges
and ends in one ``self._store(...)``, one argument per slot of the class and its
bases, base first; the classmethod ``_trusted(...)`` stores the same values,
proven valid by the package, on a new instance with no check. A class that
declares ``_fields`` gets both, with ``_check`` and ``_astuple``, from
``Frozen.__init_subclass__``; any other inherits all four. So a subclass that
redeclares ``_fields`` with ``__slots__ = ()`` stores into its base's slots; one
that adds a slot too needs its own ``__init__`` (the inherited one raises
``TypeError``). Equality and hashing compare the fields of two values of the
same class; pickle and copy rebuild a value by calling the class with its
fields, so its checks run again and derived slots are recomputed.
"""

import sys
from types import GenericAlias, UnionType


class Frozen:
    """Base of the package's immutable value types."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        """Compile ``_check``, ``_store``, ``_trusted`` and ``_astuple`` from one source in
        one ``exec``, straight-line as dataclasses compiles ``__init__``. ``_check`` raises
        ``ValueError`` at the first value whose class is not exactly one its annotation names
        (a collection field is left to its constructor, which checks each item)."""
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            return
        fields, module, tests = cls._fields, vars(sys.modules[cls.__module__]), []
        # base first; a slot a subclass redeclares is set once, through its own descriptor
        slots = dict.fromkeys(name for base in reversed(cls.__mro__)
                              for name in vars(base).get("__slots__", ()))
        scope = {"new": object.__new__} | {f"set_{n}": getattr(cls, n).__set__ for n in slots}
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
        exec(f"def _check(self, {', '.join(fields)}):\n pass{''.join(tests)}\n"
             f"def _store(self, {args}):{sets}\n"
             f"@classmethod\ndef _trusted(cls, {args}):\n self = new(cls){sets}\n return self\n"
             f"def _astuple(self):\n return {''.join(f'self.{name}, ' for name in fields)}", scope)
        cls.__match_args__ = fields  # class patterns such as ``case Epc(scheme, bits)``
        for name in ("_check", "_store", "_trusted", "_astuple"):
            setattr(cls, name, scope[name])

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
