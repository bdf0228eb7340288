"""One value store for the library's lattices, complexes and polytopes.

A store is an immutable record of fields with data derived from them on
first read.  A subclass lists its fields in ``__slots__`` and ends the
list with ``_views``, the cache of derived data.  ``==``, ``hash`` and
pickles read the fields by value (``by_value``) and never the views; an
unpickled store holds its fields and no views.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np


def by_value(x) -> Hashable:
    """A hashable key that two values share iff they are equal by value: an
    array by its dtype, shape and entries (an object array entry by entry,
    since its bytes are pointers), a tuple or list item by item, a dict
    item by item in any order, anything else as it is."""
    if isinstance(x, np.ndarray):
        entries = tuple(map(by_value, x.ravel().tolist())) if x.dtype == object else x.tobytes()
        return x.dtype.str, x.shape, entries
    if isinstance(x, (tuple, list)):
        return tuple(map(by_value, x))
    if isinstance(x, dict):
        return frozenset((k, by_value(v)) for k, v in x.items())
    return x


class Store:
    """Fields compared, hashed and pickled by value; views built on first read."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__[:cls.__slots__.index("_views")]

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        self._views = {}
        return self

    def _view(self, name: Hashable, build: Callable[[], object]):
        """The view ``name``, built by ``build()`` on first read and kept."""
        views = self._views
        if name not in views:
            views[name] = build()
        return views[name]

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self._fields, state):
            setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and by_value(self.__getstate__()) == by_value(other.__getstate__())

    def __hash__(self) -> int:
        return hash(by_value(self.__getstate__()))
