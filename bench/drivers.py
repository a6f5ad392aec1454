"""Load drivers: a seeded open loop and a fixed-concurrency closed loop.

Both drivers only call ``submit(i) -> Future`` and stamp completions
from the future's done-callback, so they know nothing about the server
beyond that.  The clock and sleep are injectable so the lateness
accounting can be tested with a fake clock.

The open loop times each request from its *scheduled* send, so a stall
in the generator or the server is charged to every request it delays,
and records how late each send actually went out (``lag``).  The closed
loop keeps exactly ``outstanding`` requests in flight; its lag is how
long a freed slot waited before the driver refilled it.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np


def burst_schedule(size, every_s, seconds, seed):
    """Seeded bursts: *size* requests due at once every *every_s*
    seconds, each burst's start jittered by up to a tenth of the period.

    A burst deeper than the admission queue overloads it the same way
    on every seed, so which degrade rung serves a request depends on its
    position in the burst rather than on queue drift; a Poisson rate
    near the knee swung the degraded share from 0 to 55% between seeds.
    """
    if size < 1 or every_s <= 0 or seconds <= 0:
        raise ValueError(f"need size >= 1, every_s > 0 and seconds > 0, "
                         f"got {size}, {every_s}, {seconds}")
    rng = np.random.default_rng(seed)
    starts = np.arange(0.0, seconds, every_s)
    starts = starts + rng.uniform(0.0, every_s / 10, len(starts))
    return np.repeat(starts[starts < seconds], int(size))


class LoadRecord:
    """Per-request timestamps and outcomes of one driver run.

    ``start`` is when the request was due (open loop) or when its slot
    freed (closed loop); ``sent`` when ``submit`` was called; ``done``
    when its future resolved (NaN while pending); all ``perf_counter``
    seconds.  ``outcome`` is the output row, the exception's type name,
    or None while pending.  Latency runs from ``start`` for the open loop
    and from ``sent`` for the closed loop.

    A future is held only until it resolves.  Keeping tens of thousands
    of resolved futures alive made the interpreter's full garbage
    collections take up to 1.3 s mid-run, stalling the server under test
    for the benchmark's own bookkeeping.
    """

    def __init__(self, t0, closed):
        self.t0 = t0
        self.closed = closed
        self.start = []
        self.sent = []
        self.done = []
        self.outcome = []
        #: index -> future, for requests not yet resolved
        self.pending = {}

    def __len__(self):
        return len(self.outcome)

    def lag_ms(self) -> np.ndarray:
        """How late each request was sent, in ms."""
        return (np.asarray(self.sent) - np.asarray(self.start)) * 1e3

    def latency_ms(self) -> np.ndarray:
        """Per-request latency in ms (NaN for unresolved requests)."""
        origin = self.sent if self.closed else self.start
        return (np.asarray(self.done) - np.asarray(origin)) * 1e3

    def _track(self, start, sent, fut, clock, on_done=None):
        i = len(self.outcome)
        self.start.append(start)
        self.sent.append(sent)
        self.done.append(float("nan"))
        self.outcome.append(None)
        self.pending[i] = fut

        def stamp(fut):
            self.done[i] = clock()
            exc = fut.exception()
            self.outcome[i] = (fut.result() if exc is None
                               else type(exc).__name__)
            del self.pending[i]
            if on_done is not None:
                on_done()

        fut.add_done_callback(stamp)


def run_open_loop(submit, offsets, *, clock=time.perf_counter,
                  sleep=time.sleep) -> LoadRecord:
    """Send request *i* at ``t0 + offsets[i]`` regardless of replies."""
    t0 = clock()
    record = LoadRecord(t0, closed=False)
    for i, offset in enumerate(offsets):
        due = t0 + float(offset)
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        sent = clock()
        record._track(due, sent, submit(i), clock)
    return record


def run_closed_loop(submit, seconds, outstanding, *, clock=time.perf_counter,
                    wait_s=30.0) -> LoadRecord:
    """Keep *outstanding* requests in flight for *seconds*.

    The token queue is a counting semaphore whose tokens carry the time
    their slot freed: a done-callback puts a token back, the driver
    takes one before each submit.  No per-iteration wait is set up, so
    the driver thread's only work per request is the submit itself.
    """
    slots = queue.SimpleQueue()
    t0 = clock()
    for _ in range(int(outstanding)):
        slots.put(t0)
    record = LoadRecord(t0, closed=True)
    t_end = t0 + float(seconds)
    while clock() < t_end:
        freed = slots.get(timeout=wait_s)
        record._track(freed, clock(), submit(len(record)), clock,
                      on_done=lambda: slots.put(clock()))
    return record


def wait_all(record, timeout_s) -> int:
    """Wait for every pending request of *record* (shared deadline);
    returns how many are still unresolved when it passes (hung)."""
    deadline = time.monotonic() + float(timeout_s)
    for fut in list(record.pending.values()):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            fut.exception(timeout=remaining)
        except FutureTimeout:
            break
    # a resolved future's done-callback may still be recording it
    while any(f.done() for f in list(record.pending.values())) and \
            time.monotonic() < deadline:
        time.sleep(0.001)
    return len(record.pending)


__all__ = [
    "burst_schedule",
    "LoadRecord",
    "run_open_loop",
    "run_closed_loop",
    "wait_all",
]
