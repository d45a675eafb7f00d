"""Grow-only scratch memory, one per thread.

glibc gives an allocation of 128 KiB or more pages of its own and trims
freed heap tops of that size, so a chunk of trials whose temporaries pass
that size faults them in page by page on every call.  A :class:`Workspace`
hands out views of one buffer that lives on instead: once a chunk of a given
size has run, the next one takes every array from memory that is already
mapped.

The trial path's arrays come from :data:`WORKSPACE`, which ``harness._sweep``
opens for each chunk (``with WORKSPACE.chunk():``).  The functions on that
path take their results and work arrays with :meth:`Workspace.take` and free
the work arrays at the end of a ``with WORKSPACE.scope():`` block.  Outside
a chunk the workspace is closed and ``take`` gives plain arrays, so a caller
outside the trial path never holds a view of it; inside one, a result is a
view that lasts until the chunk ends.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Every view starts on this byte boundary of the buffer, as a cache line does.
_ALIGN = 64
# The item size of each dtype taken so far: np.dtype costs more than a lookup.
_ITEMSIZE: dict = {}


class _Scope:
    """Sets its workspace's ``used`` back on exit, however the block ends."""

    __slots__ = ("workspace", "mark")

    def __init__(self, workspace: "Workspace") -> None:
        self.workspace = workspace

    def __enter__(self) -> None:
        self.mark = self.workspace.used

    def __exit__(self, *exc) -> None:
        self.workspace.used = self.mark


class _Unscoped:
    """A block that does nothing: a closed workspace's scope, and the chunk
    of one that stays closed."""

    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        pass


_UNSCOPED = _Unscoped()


class Workspace(threading.local):
    """A thread's grow-only scratch memory.  ``reset`` opens it: it frees all
    views and grows the memory to the most ever taken, so it never grows
    while a view of it is in use.  While it is open ``take`` hands out views
    one after another (past the end, plain arrays); a ``scope`` frees those
    taken inside it.  ``close`` frees all views, and a closed workspace hands
    out plain arrays and records nothing.  As a block, the workspace is open
    inside and closed after."""

    def __init__(self) -> None:
        self.memory, self.peak = np.empty(0, dtype=np.uint8), 0
        self.close()

    def reset(self) -> None:
        self.used, self.open, self.take = 0, True, self._view
        if self.peak > self.memory.size:
            self.memory = np.empty(self.peak, dtype=np.uint8)

    def close(self) -> None:
        # ``take(shape, dtype=float)`` of a closed workspace is numpy's own
        # empty: the small chunks that leave it closed make no Python call
        # for their arrays
        self.used, self.open, self.take = 0, False, np.empty

    def __enter__(self) -> None:
        self.reset()

    def __exit__(self, *exc) -> None:
        self.close()

    def chunk(self, reuse: bool = True) -> Workspace | _Unscoped:
        """A block open for one chunk's arrays; one that stays closed, so
        that the chunk takes plain arrays, unless ``reuse``."""
        return self if reuse else _UNSCOPED

    def scope(self) -> _Scope | _Unscoped:
        """A block whose views are freed when it ends."""
        return _Scope(self) if self.open else _UNSCOPED

    def _view(self, shape: tuple, dtype=float) -> np.ndarray:
        """``take`` of an open workspace."""
        # the thread's own attributes, read and set once each
        state = self.__dict__
        itemsize = _ITEMSIZE.get(dtype)
        if itemsize is None:
            itemsize = _ITEMSIZE[dtype] = np.dtype(dtype).itemsize
        start = -(-state["used"] // _ALIGN) * _ALIGN
        end = state["used"] = start + math.prod(shape) * itemsize
        if end > state["peak"]:
            state["peak"] = end
        memory = state["memory"]
        if end > memory.size:
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, memory, start)


# The trial path's workspace: one chunk's transmit chain and receivers.
WORKSPACE = Workspace()
