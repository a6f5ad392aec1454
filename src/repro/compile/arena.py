"""Static buffer planning: per-thread storage and alias-checked op lists.

A compiled plan executes its Euler steps out of arena buffers.  Each
thread has one :class:`ThreadStorage`: one array per buffer key, shared
by every compiled plan and every batch size that binds on that thread.
A thread runs one forward at a time, so one set of arrays, sized by the
largest batch that thread has bound, serves all of them.  A binding's
:class:`Arena` hands out batch-prefix views ``array[:n]`` of those
arrays; every buffer is batch-leading and C-contiguous, so a prefix
view has the array's strides and every reshape of it stays a view.
Step bodies (:mod:`repro.compile.steps`) only ever write *into* these
buffers with ``out=`` / ``np.copyto``, so after the first call with a
given batch shape the solver loop performs zero per-step numpy
allocations (asserted by ``tests/test_compile.py`` and linted by rule
CMP001).

A scratch buffer's key is its name, per-sample shape and dtype.  A
buffer with bind-time contents — a conv canvas's zero border, the
max-pool's −inf border, the stem's zero-padded phase planes — also
keys on its fill and on the interior window its step writes, so two
plans share it only when its bind-time contents are the same in both.
An array grows, to the next power of two rows, only when a larger
batch first asks for it; the growth bumps the thread's
:attr:`ThreadStorage.generation`, which marks every older binding of
that thread stale (see ``CompiledPlan._bound``).  The storage holds its
arrays weakly and each arena strongly, so an array lives exactly as
long as some binding uses it.  Only its own thread reads or writes a
storage, so it takes no lock.

Buffer reuse is what makes the arena small — and what makes aliasing
the compiler's main hazard: a binder that reorders ops, or assigns one
buffer to two concurrently-live values, silently corrupts results.  :class:`OpList` therefore records, at build
time, *which write* each op's reads refer to (buffer name + writer
version); :meth:`OpList.validate` replays the program and fails loudly
if any op would observe a buffer overwritten since the write it was
built against.  Every bound plan validates itself once at bind time.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np


class PlanValidationError(RuntimeError):
    """An op would read a buffer another op already overwrote."""


class ThreadStorage:
    """One thread's arena arrays: one per buffer key, held weakly.

    ``generation`` counts the times a live array was replaced by a
    larger one.
    """

    __slots__ = ("arrays", "generation")

    def __init__(self):
        self.arrays = weakref.WeakValueDictionary()
        self.generation = 0


_threads = threading.local()


def thread_storage():
    """The calling thread's :class:`ThreadStorage`, made on first use.
    A forked child inherits the forking thread's, copy-on-write."""
    storage = getattr(_threads, "storage", None)
    if storage is None:
        storage = _threads.storage = ThreadStorage()
    return storage


class Arena:
    """One binding's buffers: batch-prefix views of the arrays of the
    thread that makes it (see the module docstring)."""

    def __init__(self):
        self.storage = thread_storage()
        #: the storage arrays this arena's views are of, by key
        self.arrays = {}
        self._keys = {}
        self.generation = self.storage.generation

    @property
    def stale(self):
        """Whether an array has grown on this thread since this arena
        was made: its views may be of arrays the storage replaced."""
        return self.generation != self.storage.generation

    def buffer(self, name, shape, dtype=np.float64, fill=None, window=None):
        """The ``shape[0]``-row prefix of the thread's array for this
        buffer, made or grown as needed.

        A scratch buffer (``fill=None``) starts uninitialised.  A buffer
        with a *fill* is filled with it when its array is made, and its
        step bodies must write only its interior, whose geometry
        *window* names; both are part of its key.  One arena asks for a
        name with one geometry.
        """
        n, *sample = (int(s) for s in shape)
        dtype = np.dtype(dtype)
        key = (name, tuple(sample), dtype.str)
        if fill is not None:
            key += (fill, tuple(window))
        if self._keys.setdefault(name, key) != key:
            raise ValueError(
                f"arena buffer {name!r} rebound with a different "
                f"geometry: {self._keys[name][1:]} vs {key[1:]}"
            )
        storage = self.storage
        array = old = storage.arrays.get(key)
        if old is None or len(old) < n:
            shape = (1 << (n - 1).bit_length(), *sample)
            array = (np.empty(shape, dtype) if fill is None
                     else np.zeros(shape, dtype) if fill == 0
                     else np.full(shape, fill, dtype))
            storage.arrays[key] = array
            if old is not None:  # a live array grew
                fresh = not self.stale
                storage.generation += 1
                if fresh:
                    self.generation = storage.generation
        self.arrays[key] = array
        return array[:n]


class Op:
    """One scheduled step op: a kernel-named callable plus its declared
    buffer reads (with the writer version each was built against) and
    writes.  ``kernel`` is ``None`` for an op whose body dispatches
    (and so records) its own kernels."""

    __slots__ = ("kernel", "fn", "reads", "writes", "tag")

    def __init__(self, kernel, fn, reads, writes, tag):
        self.kernel = kernel
        self.fn = fn
        self.reads = reads      # tuple of (buffer, writer_index)
        self.writes = writes    # tuple of buffer names
        self.tag = tag

    def __repr__(self):
        return f"Op({self.tag or self.kernel}, reads={self.reads}, writes={self.writes})"


#: writer version of buffers produced outside the op list (plan input,
#: folded parameters, precomputed time planes)
EXTERNAL = -1


class OpList:
    """An ordered op program with build-time dependency bookkeeping.

    :meth:`add` resolves each declared read to the version (index) of
    the op that last wrote that buffer — the value the step was built
    to consume.  :meth:`validate` then replays the program and checks
    every read still sees its recorded writer, which catches reordering
    and buffer-sharing hazards introduced by a binder.  The
    loop-carried state (the Euler ``z`` and anything first written by a
    previous iteration) is declared via ``loop_carried`` at validation.
    """

    def __init__(self):
        self.ops = []
        self._writer = {}

    def add(self, kernel, fn, *, reads=(), writes=(), tag=None):
        resolved = tuple(
            (name, self._writer.get(name, EXTERNAL)) for name in reads
        )
        op = Op(kernel, fn, resolved, tuple(writes), tag)
        idx = len(self.ops)
        self.ops.append(op)
        for name in op.writes:
            self._writer[name] = idx
        return op

    def validate(self, loop_carried=()):
        """Replay the program twice back to back (modelling consecutive
        solver iterations); raise :class:`PlanValidationError` if any op
        reads a buffer whose content no longer comes from the write it
        was built against.  Buffers in *loop_carried* (the Euler state)
        legitimately flow from one iteration into the next and are
        exempt from the cross-iteration check."""
        writer = {}
        carried = set(loop_carried)
        for _pass in range(2):
            for idx, op in enumerate(self.ops):
                for name, expected in op.reads:
                    actual = writer.get(name, EXTERNAL)
                    if actual != expected and name not in carried:
                        raise PlanValidationError(
                            f"op {idx} ({op.tag or op.kernel}) reads "
                            f"buffer {name!r} from write #{expected}, but "
                            f"the last write is #{actual} — the program "
                            f"aliases or reorders this buffer"
                        )
                for name in op.writes:
                    writer[name] = idx
        return True

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)
