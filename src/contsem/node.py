"""Base class of the immutable values: types, terms, formulas, environments,
discourse trees and the records built from them.

A subclass maps its fields to their types in `__slots__`, whose values
Python keeps as the slots' docstrings; `_fields` names the fields when the
class has other slots, and `_defaults` gives fields defaults.  `Node`
generates `__eq__`, `__hash__` and, unless the class defines its own,
`__init__`: instances are equal when of the same class with equal fields,
hashed by their fields and shown as `Class(field=value, ...)`.  Assigning or
deleting an attribute raises AttributeError; the generated `__init__` stores
through the slots' descriptors and a class's own `__init__` through
`object.__setattr__`.
"""
from __future__ import annotations


class Node:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        fields = cls._fields = tuple(vars(cls).get("_fields", cls.__slots__))
        own, other = ("".join(f"{n}.{f}, " for f in fields) for n in ("self", "o"))
        source = (f"def __eq__(self, o): return ({own}) == ({other})"
                  f" if o.__class__ is self.__class__ else NotImplemented\n"
                  f"def __hash__(self): return hash(({own}))\n")
        env = {"_d": cls._defaults}
        env |= {f"_s_{f}": getattr(cls, f).__set__ for f in fields}
        if fields and "__init__" not in vars(cls):
            params = ", ".join(f"{f}=_d[{f!r}]" if f in cls._defaults else f
                               for f in fields)
            source += f"def __init__(self, {params}):" + "".join(
                f"\n    _s_{f}(self, {f})" for f in fields)
        exec(source, env)
        cls.__eq__, cls.__hash__ = env["__eq__"], env["__hash__"]
        if "__init__" in env:
            cls.__init__ = env["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
