"""Bounded sample tap: labelled serve-path samples for the online loop.

The tap sits on the submit path of :class:`repro.serve.Server`: when a
request arrives with a label attached, a copy of the sample lands here
in O(1) — never blocking, never back-pressuring the request, and
dropping the *oldest* tapped sample on overflow rather than refusing
the new one (fresh drifted data is exactly what the adaptation loop
needs).  The shadow trainer draws random batches from the other end.

One lock guards the ring buffer and its counters; nothing blocking ever
runs under it (CON003), and the tap never takes any other class's lock
(the whole-program lock graph stays edge-free, CON002).
"""

from __future__ import annotations

import threading

import numpy as np


class SampleTap:
    """A fixed-capacity ring of ``(sample, label)`` pairs.

    Samples are copied on :meth:`offer` so the tap owns its data —
    request payloads stay untouched and mutation-free.
    """

    def __init__(self, capacity=512):
        if capacity < 1:
            raise ValueError(f"tap capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._samples = [None] * self.capacity  # protected by _lock
        self._labels = np.zeros(self.capacity, dtype=np.int64)  # same
        self._head = 0       # next write slot; protected by _lock
        self._size = 0       # filled slots; protected by _lock
        self.offered = 0     # protected by _lock
        self.dropped = 0     # protected by _lock

    def offer(self, sample, label) -> None:
        """Add one labelled sample; O(1), never blocks the caller."""
        sample = np.array(sample, dtype=np.float32)  # owned copy
        label = int(label)
        with self._lock:
            if self._size == self.capacity:
                self.dropped += 1
            else:
                self._size += 1
            self._samples[self._head] = sample
            self._labels[self._head] = label
            self._head = (self._head + 1) % self.capacity
            self.offered += 1

    def __len__(self):
        with self._lock:
            return self._size

    def sample(self, batch_size, rng):
        """Draw up to *batch_size* random samples without replacement.

        Returns ``(images, labels)`` stacked arrays, or ``None`` while
        the tap is empty.  *rng* is the caller's seeded generator
        (SRV001) so the draw sequence is replayable.
        """
        with self._lock:
            size, head = self._size, self._head
        if size == 0:
            return None
        # the draw runs outside the lock: the generator takes its own
        # lock, and the tap holds no other lock while it holds its own
        idx = rng.choice(size, size=min(int(batch_size), size),
                         replace=False)
        if size == self.capacity:
            # ring is full: every slot is live
            slots = (head + idx) % self.capacity
        else:
            # ring still filling: slots [0, size) are live
            slots = idx
        # an offer between the two sections overwrites a drawn slot
        # with a newer sample, which the tap prefers anyway
        with self._lock:
            images = np.stack([self._samples[int(s)] for s in slots])
            labels = self._labels[slots].copy()
        return images, labels

    def snapshot(self) -> dict:
        """Counters for the metrics report."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": self._size,
                "offered": self.offered,
                "dropped": self.dropped,
            }

    def __repr__(self):
        snap = self.snapshot()
        return (
            f"SampleTap(size={snap['size']}/{snap['capacity']}, "
            f"offered={snap['offered']}, dropped={snap['dropped']})"
        )


__all__ = ["SampleTap"]
