"""One-step construction of frozen slotted dataclasses.

A frozen dataclass's generated ``__init__`` stores each field with
``object.__setattr__(self, name, value)``: the class's own
``__setattr__`` refuses writes, so every store takes the generic
attribute-setting path to find the field's slot. :func:`slot_init`
swaps in an ``__init__`` that calls each slot descriptor's ``__set__``
directly, which about halves the construction of a nine-field record
on CPython 3.11. The pool pays it once per job record, and the
workflow pipeline once per task, file, spec and DAG node.

Nothing else changes. The new ``__init__`` has the stock one's
parameters, defaults (the ``<factory>`` marker included) and
annotations; it calls each ``default_factory`` per instance, stores
the fields in declaration order and then runs ``__post_init__``, as
the stock one does. The class stays frozen, and its eq, hash, repr,
pickling and :func:`dataclasses.replace` (which constructs through
``__init__``) are the dataclass's own.
"""

from __future__ import annotations

import dataclasses
import inspect
import types
from typing import TypeVar

__all__ = ["slot_init"]

T = TypeVar("T", bound=type)


def slot_init(cls: T) -> T:
    """Give a ``@dataclass(frozen=True, slots=True)`` class a direct-store
    ``__init__`` (apply above the ``@dataclass`` line).

    Raises
    ------
    TypeError
        If ``cls`` is not a slotted dataclass, or has an ``InitVar``, a
        ``kw_only`` or an ``init=False`` field (the stock ``__init__``
        handles those; this one does not).
    """
    if not dataclasses.is_dataclass(cls) or not isinstance(cls, type):
        raise TypeError(f"slot_init needs a dataclass, got {cls!r}")
    stock = cls.__init__
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    for f in fields:
        if not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: init=False fields are not supported")
        if f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: kw_only fields are not supported")
        if not isinstance(cls.__dict__.get(f.name), types.MemberDescriptorType):
            raise TypeError(f"{cls.__name__}.{f.name} is not a slot (use slots=True)")
    params = list(inspect.signature(stock).parameters.values())[1:]
    if [p.name for p in params] != names:
        # An InitVar is an __init__ parameter that is not a field.
        raise TypeError(f"{cls.__name__}: InitVar fields are not supported")
    namespace: dict[str, object] = {}
    body: list[str] = []
    for f, param in zip(fields, params):
        if f.default_factory is not dataclasses.MISSING:
            # The stock default is the <factory> marker: a caller that
            # passes nothing gets a fresh value per instance.
            namespace[f"__marker_{f.name}"] = param.default
            namespace[f"__factory_{f.name}"] = f.default_factory
            body.append(
                f"    if {f.name} is __marker_{f.name}: {f.name} = __factory_{f.name}()"
            )
        namespace[f"__set_{f.name}"] = cls.__dict__[f.name].__set__
        body.append(f"    __set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body or ["    pass"])
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = stock.__defaults__
    init.__annotations__ = dict(stock.__annotations__)
    init.__qualname__ = stock.__qualname__
    init.__module__ = stock.__module__
    init.__doc__ = stock.__doc__
    cls.__init__ = init
    return cls
