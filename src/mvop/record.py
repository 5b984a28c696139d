"""Frozen value records: the part of the standard dataclass this package uses.

``@frozen`` makes a class whose body annotates its fields an immutable value
type, as ``@dataclass(frozen=True)`` would, keeping exactly this:

* the fields are the class body's own annotations, in order; a class-level
  value is that field's default, and a field without one may not follow it;
* ``__init__`` takes the fields positionally or by name (a missing or an
  extra argument is a TypeError), then calls ``__post_init__`` if the class
  has one, which may set fields through ``object.__setattr__``;
* assigning or deleting an attribute raises ``FrozenInstanceError``, an
  AttributeError;
* ``__eq__`` compares the field tuples of two records of the same class and
  nothing else;
* ``__hash__`` is the hash of the field tuple, computed on first use and
  kept in the instance (a pickled or copied record leaves it behind);
* ``__repr__`` is ``Name(field=value!r, ...)``, byte for byte the dataclass
  one;

each method unless the class body defines its own (``Mass.__repr__``).
``replace`` copies a record with some fields changed.  Ordering, ``field()``,
``ClassVar``, inherited fields and field introspection are left out.

The standard module imports ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and generating its methods for this package's records took most of
``import mvop.cli``; here one ``__init__`` per class is compiled with
``exec``, as the standard one is, and the other methods are shared.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self):
    # the hash of a str differs between processes, so the cache is not copied
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def frozen(cls):
    """Make ``cls`` a frozen record of its annotated fields (module doc)."""
    names = tuple(cls.__annotations__)  # the class body's own, from Python 3.10 on
    required = tuple(n for n in names if n not in cls.__dict__)
    if names[:len(required)] != required:
        raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):\n    {'; '.join(body) or 'pass'}\n"
         f"def values(self):\n    return ({''.join(f'self.{n}, ' for n in names)})\n",
         namespace)
    init, values = namespace["__init__"], namespace["values"]
    init.__defaults__ = tuple(cls.__dict__[n] for n in names[len(required):]) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(values(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join([f"{n}={v!r}" for n, v in zip(names, values(self))])
        return f"{self.__class__.__qualname__}({fields})"

    for name, method in (("__init__", init), ("__eq__", __eq__), ("__hash__", __hash__),
                         ("__repr__", __repr__), ("__setattr__", _assign),
                         ("__delattr__", _delete), ("__getstate__", _getstate)):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._fields, cls._hash = names, None
    return cls


def replace(record, /, **changes):
    """A new record of ``record``'s class with the fields named in
    ``changes`` set to their values and every other field kept; an unknown
    name is the constructor's TypeError."""
    kept = {name: getattr(record, name) for name in record._fields}
    return record.__class__(**{**kept, **changes})
