"""Frozen record classes built without generated code.

``record`` makes an annotated class a frozen record; the package uses it
in place of ``dataclasses.dataclass(frozen=True)``.  On Python 3.10 and
3.11 a frozen dataclass compiles 5-6 methods from source text through
``exec`` when its class is created (``__init__``, ``__repr__``,
``__setattr__``, ``__delattr__`` and, with ``eq``, ``__eq__`` and
``__hash__``).  Over the package's 15 record classes that is 80 methods and
about 10 ms of every process's start-up, with or without cached bytecode.
Here each method is a closure over the field names, made once per class,
and nothing is compiled.

The fields are the class's own annotations, in order; none has a default.
``__init__`` binds them by position or keyword (``TypeError`` on a missing,
unknown or doubled field), stores each with ``object.__setattr__`` and then
calls ``__post_init__`` when the class defines one.  ``__repr__`` reads
``Name(field=value!r, ...)``, as a dataclass's does.  With ``eq`` (the
default) two records are equal when they are of the same class and their
field tuples are equal, and a record hashes as its field tuple; with
``eq=False`` both go by identity.  Assigning or deleting any attribute
raises ``AttributeError``; ``functools.cached_property`` still caches, as
it writes to the instance ``__dict__``.
"""

import inspect

_FIELD = inspect.Parameter.POSITIONAL_OR_KEYWORD


def record(cls=None, *, eq=True):
    """Make ``cls`` a frozen record: ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    annotations = inspect.get_annotations(cls)
    fields = tuple(annotations)
    signature = inspect.Signature([inspect.Parameter(f, _FIELD, annotation=a)
                                   for f, a in annotations.items()])
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = signature.bind(*args, **kwargs).args
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def values(self):
        return tuple([getattr(self, name) for name in fields])

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__setattr__": frozen,
               "__delattr__": frozen, "__signature__": signature}
    if eq:
        methods.update(__eq__=__eq__, __hash__=lambda self: hash(values(self)))
    for name, value in methods.items():
        setattr(cls, name, value)
    return cls
