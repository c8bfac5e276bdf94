"""A scoped pause of CPython's cyclic garbage collector.

The pool DES and the workflow builders allocate hundreds of thousands
of long-lived container objects (job specs, DAG nodes, heap entries,
records). Each allocation burst trips the collector's generation
thresholds, and every full collection re-walks the whole live heap —
about a third of a 40k-task replay's wall time — to find almost nothing:
these scopes build acyclic graphs, so reference counting already frees
everything they drop. :class:`collector_paused` switches the collector
off for such a scope and back on at its end.

It only ever turns an enabled collector off and back on: a scope
entered with the collector already disabled leaves it disabled, scopes
nest, and an exception re-enables it on the way out. Thresholds,
``gc.freeze`` state and callbacks are untouched. The objects a scope
leaves alive enter the youngest generation, so the first collection
after the scope — triggered by the next allocation — walks them once;
that pass also finds any cycle the scope did form.
"""

from __future__ import annotations

import functools
import gc
from collections.abc import Callable
from typing import TypeVar

__all__ = ["collector_paused"]

F = TypeVar("F", bound=Callable)


class collector_paused:
    """Disable the cyclic collector for a block or, as a decorator, a call.

    One instance is one scope; the decorator enters a fresh instance per
    call, so decorated functions may call each other. Leaving a scope
    allocates nothing, so no collection starts before it returns.

    Examples
    --------
    >>> import gc
    >>> with collector_paused():
    ...     gc.isenabled()
    False
    >>> gc.isenabled()
    True
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        if self._resume:
            gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._resume:
            gc.enable()

    def __call__(self, fn: F) -> F:
        @functools.wraps(fn)
        def paused(*args, **kwargs):
            with collector_paused():
                return fn(*args, **kwargs)

        return paused  # type: ignore[return-value]
