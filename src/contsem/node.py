"""Base class of the immutable values: types, terms, formulas, environments,
discourse trees and the records built from them.

A subclass maps its fields to their types in `__slots__`, whose values
Python keeps as the slots' docstrings; `_fields` names the fields when the
class has other slots, and `_defaults` gives fields defaults.  `Node`
generates `__init__` unless the class defines its own.  Instances are equal
when of the same class with equal fields, hashed by their classes and fields
and shown as `Class(field=value, ...)` (`Class(value, ...)` if not
`_keywords`); `rows` is a flat form, keeping shared subterms shared, that
hashing reads once per distinct node and pickle reads back; a copy is the
value itself.  All four walk an explicit stack, so at any depth.  Assigning
or deleting an attribute raises AttributeError; the generated `__init__`
stores through the slots' descriptors, a class's own via `object.__setattr__`.
"""
from __future__ import annotations


class Node:
    __slots__ = ()
    _defaults: dict = {}
    _keywords = True        # repr names the fields

    def __init_subclass__(cls):
        fields = cls._fields = tuple(vars(cls).get("_fields", cls.__slots__))
        source = f"def _values(self): return ({''.join(f'self.{f}, ' for f in fields)})\n"
        env = {"_d": cls._defaults, **{f"_s_{f}": getattr(cls, f).__set__ for f in fields}}
        if fields and "__init__" not in vars(cls):
            params = ", ".join(f"{f}=_d[{f!r}]" if f in cls._defaults else f
                               for f in fields)
            source += f"def __init__(self, {params}):" + "".join(
                f"\n    _s_{f}(self, {f})" for f in fields)
        exec(source, env)
        cls._values, cls.__init__ = env["_values"], env.get("__init__", cls.__init__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            for x, y in zip(a._values(), b._values()):
                if x is y:
                    continue
                if isinstance(x, Node) and x.__class__ is y.__class__:
                    pairs.append((x, y))
                elif x != y:        # values, or nodes of two classes
                    return False
        return True

    def __hash__(self):
        values = self._values()
        for x in values:
            if isinstance(x, Node):
                break
        else:                       # no node fields: hashed at once
            return hash((self.__class__, *values))
        hashes: list[int] = []      # by row
        for cls, *fields in rows(self):
            hashes.append(hash((cls, *[hashes[x[0]] if type(x) is list else x for x in fields])))
        return hashes[-1]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        out, todo = [], [self]      # pending nodes and text, last first
        while todo:
            x = todo.pop()
            if type(x) is str:
                out.append(x)
            else:
                parts = [f"{type(x).__qualname__}("]
                for i, (name, v) in enumerate(zip(x._fields, x._values())):
                    parts += ", " * (i > 0) + f"{name}=" * x._keywords, \
                        v if isinstance(v, Node) else repr(v)
                todo += reversed([*parts, ")"])
        return "".join(out)

    __copy__ = __deepcopy__ = lambda self, memo=None: self    # immutable: itself

    def __reduce__(self):
        return _rebuild, (rows(self),)


def rows(node: Node) -> list[tuple]:
    """Rows (class, *fields) in postorder, one per distinct node, a node field
    as [its row] (no field is a list): nothing deep, and sharing is kept."""
    out, row_of, stack = [], {}, [node]
    while stack:
        node = stack[-1]
        kids = [x for x in node._values() if isinstance(x, Node) and id(x) not in row_of]
        stack += kids
        if not kids and id(stack.pop()) not in row_of:
            row_of[id(node)] = len(out)
            out.append((type(node), *[[row_of[id(x)]] if isinstance(x, Node) else x
                                      for x in node._values()]))
    return out


def _rebuild(rows: list) -> Node:
    """The node `rows` wrote."""
    built = []
    for cls, *fields in rows:
        built.append(cls(*[built[x[0]] if type(x) is list else x for x in fields]))
    return built[-1]
