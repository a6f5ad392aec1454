"""Static buffer planning: the workspace arena and alias-checked op lists.

A compiled plan executes its Euler steps out of an :class:`Arena` — a
set of named buffers allocated once when the plan binds to a concrete
input geometry.  Step bodies (:mod:`repro.compile.steps`) only ever
write *into* these buffers with ``out=`` / ``np.copyto``, so after the
first call with a given batch shape the solver loop performs zero
per-step numpy allocations (asserted by ``tests/test_compile.py`` and
linted by rule CMP001).

Buffer reuse is what makes the arena small — and what makes aliasing
the compiler's main hazard: a binder that reorders ops, or assigns one
buffer to two concurrently-live values, silently corrupts results.  :class:`OpList` therefore records, at build
time, *which write* each op's reads refer to (buffer name + writer
version); :meth:`OpList.validate` replays the program and fails loudly
if any op would observe a buffer overwritten since the write it was
built against.  Every bound plan validates itself once at bind time.
"""

from __future__ import annotations

import numpy as np


class PlanValidationError(RuntimeError):
    """An op would read a buffer another op already overwrote."""


class Arena:
    """Named preallocated float64 (by default) workspace buffers."""

    def __init__(self):
        self._bufs = {}

    def buffer(self, name, shape, dtype=np.float64, zero=False):
        """Get-or-create buffer *name*; shape/dtype must be stable.

        ``zero=True`` zero-fills at allocation — used for padded conv
        canvases whose border must read as zero; step bodies then only
        rewrite the interior.
        """
        shape = tuple(int(s) for s in shape)
        buf = self._bufs.get(name)
        if buf is not None:
            if buf.shape != shape or buf.dtype != np.dtype(dtype):
                raise ValueError(
                    f"arena buffer {name!r} rebound with a different "
                    f"geometry: {buf.shape}/{buf.dtype} vs {shape}/{dtype}"
                )
            return buf
        buf = (
            np.zeros(shape, dtype=dtype) if zero
            else np.empty(shape, dtype=dtype)
        )
        self._bufs[name] = buf
        return buf

    def __contains__(self, name):
        return name in self._bufs


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
