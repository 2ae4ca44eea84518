"""Immutable value objects on ``__slots__``.

A subclass lists its constructor arguments in ``_fields`` and every stored
attribute in ``__slots__``. Its ``__init__`` checks the arguments and ends in
one ``self._store(...)``, one argument per slot in ``__slots__`` order;
``_trusted(*values)`` stores them on a new instance with no check, for values
the package has proven valid. Equality and hashing compare the fields of two
values of the same class; pickle and copy rebuild a value by calling the
class with its fields, so its checks run again and derived slots are
recomputed.
"""

from operator import attrgetter


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
        # one straight-line store per class, compiled once as dataclasses compiles
        # __init__ (a loop per call costs more than the stores); subclasses share it
        slots = cls.__dict__.get("__slots__")
        if slots and not hasattr(cls, "_store"):
            namespace = {f"set_{name}": cls.__dict__[name].__set__ for name in slots}
            exec(f"def _store(self, {', '.join(slots)}):"
                 + "".join(f"\n set_{name}(self, {name})" for name in slots), namespace)
            cls._store = namespace["_store"]

    @classmethod
    def _trusted(cls, *values):
        """A value from slot values the caller proved valid, built without any check."""
        self = object.__new__(cls)
        self._store(*values)
        return self

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
