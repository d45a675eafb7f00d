"""Grow-only scratch memory, one per thread.

glibc gives an allocation of 128 KiB or more pages of its own and trims
freed heap tops of that size, so a chunk of trials whose temporaries pass
that size faults them in page by page on every call.  A :class:`Workspace`
hands out views of one buffer that lives on instead: once a chunk of a given
size has run, the next one takes every array from memory that is already
mapped.

The trial path's arrays come from :data:`WORKSPACE`, which ``harness._sweep``
opens for each chunk (``with WORKSPACE:``).  The functions on that path take
their results and work arrays with :meth:`Workspace.take` and free the work
arrays at the end of a ``with WORKSPACE.scope():`` block.  The sum-product
detector enters it for each flood batch: inside a chunk its arrays follow
the chunk's views, and outside one the batch opens it.  Outside every block
the workspace is closed and ``take`` gives plain arrays, so a caller outside
the trial path never holds a view of it; inside one, a result is a view that
lasts until the block that took it ends.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

# Every view starts on this byte boundary of the buffer, as a cache line does.
_ALIGN = 64
# The item size of each dtype taken so far: np.dtype costs more than a lookup.
_ITEMSIZE: dict = {}
# A closed workspace's scope: a block that does nothing.
_UNSCOPED = contextlib.nullcontext()


class Workspace(threading.local):
    """A thread's grow-only scratch memory: a stack of nested ``with``
    blocks, open inside the outermost and closed outside it.  Entering a
    closed workspace opens it with no view in use and grows the memory to
    the most ever taken, so it never grows while a view of it is in use;
    entering an open one marks what is in use.  While it is open ``take``
    hands out views one after another (past the end, plain arrays).  Leaving
    a nested block frees the views taken since its mark, however the block
    ends, and leaving the outermost closes the workspace: a closed one hands
    out plain arrays and records nothing."""

    def __init__(self) -> None:
        self.memory, self.peak, self.marks = np.empty(0, dtype=np.uint8), 0, []
        self.__exit__()

    def __enter__(self) -> None:
        if self.open:
            self.marks.append(self.used)
            return
        self.used, self.open, self.take = 0, True, self._view
        if self.peak > self.memory.size:
            self.memory = np.empty(self.peak, dtype=np.uint8)

    def __exit__(self, *exc) -> None:
        if self.marks:
            self.used = self.marks.pop()
            return
        # ``take(shape, dtype=float)`` of a closed workspace is numpy's own
        # empty: the small chunks that leave it closed make no Python call
        # for their arrays
        self.used, self.open, self.take = 0, False, np.empty

    def scope(self) -> Workspace | contextlib.nullcontext:
        """A nested block of an open workspace; one that does nothing in a
        closed workspace."""
        return self if self.open else _UNSCOPED

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


# The thread's one workspace: a chunk's transmit chain and receivers, and
# each sum-product flood batch.
WORKSPACE = Workspace()
