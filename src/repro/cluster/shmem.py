"""mmap-backed shared packed weights: one weight set per host.

Every forked :class:`~repro.serve.ProcessReplica` on a host used to
carry its own private copy of the model weights — N replicas, N copies
of the same arrays.  :class:`SharedWeightStore` lays the full
``state_dict`` into **one anonymous shared mmap** instead; replicas
built after :meth:`adopt` serve straight out of that mapping, and a
fork inherits the mapping rather than duplicating the pages
(``mmap.mmap(-1, ...)`` is ``MAP_SHARED | MAP_ANONYMOUS`` on Linux, so
parent and children address the same physical memory).

Layout — a versioned header, a JSON array index, then 64-byte-aligned
array data::

    +---------+--------+----------------+-----------+------------------+
    | magic   | schema | weights_version| index len | JSON index       |
    | 8 B     | u32    | u64 (mutable)  | u64       | ``index len`` B  |
    +---------+--------+----------------+-----------+------------------+
    | pad to 64 | array 0 | pad | array 1 | ...                        |
    +------------------------------------------------------------------+

``weights_version`` lives at a fixed offset so :meth:`bump_version`
can write it in place: after a hot weight swap the parent bumps the
shared counter once and every process replica on the host observes the
new version through its own mapping — PR 7's ``weights_version``
plumbing survives distribution without a per-replica message.

The JSON index maps each ``state_dict`` key to ``(dtype, shape,
offset)``; :meth:`open_views` / :meth:`arrays` materialize zero-copy
``numpy`` views over the mapping from it, and :meth:`describe` exposes
the decoded header for the worker hello frame and the benchmark's
one-copy-per-host assertion.
"""

from __future__ import annotations

import json
import mmap
import struct
import threading

import numpy as np

#: store magic: identifies a repro shared weight mapping
STORE_MAGIC = b"RPROWTS1"

#: layout revision; bumped on any incompatible header/index change
STORE_SCHEMA = 1

#: arrays are aligned to cache-line multiples inside the mapping
_ALIGN = 64

_HEADER = struct.Struct("<8sIQQ")  # magic, schema, version, index length

#: byte offset of the mutable ``weights_version`` field
_VERSION_OFFSET = 8 + 4

_VERSION_FIELD = struct.Struct("<Q")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedWeightStore:
    """One shared, versioned weight mapping for all replicas on a host.

    Build one with :meth:`create`; hand the same instance to every
    co-located replica (fork inherits the mapping).  Not a cross-host
    object — each worker host creates its own store from the same
    ``state_dict``.
    """

    def __init__(self, mm, index, data_offset):
        self._mm = mm
        self._index = index          # name -> (dtype str, shape tuple, offset)
        self._data_offset = data_offset
        self._lock = threading.Lock()
        self._closed = False         # protected by _lock

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, state, *, version=1):
        """Lay *state* (a ``Module.state_dict()``) into a fresh mapping."""
        arrays = {
            str(name): np.ascontiguousarray(value)
            for name, value in state.items()
        }
        index = {}
        # the index must be serialized before offsets are final, so
        # compute the layout twice: once with a placeholder data start,
        # then shift by the real header+index size
        cursor = 0
        for name, arr in arrays.items():
            cursor = _align(cursor)
            index[name] = [str(arr.dtype), list(arr.shape), cursor]
            cursor += arr.nbytes
        data_bytes = cursor
        index_blob = json.dumps(index, sort_keys=True).encode("utf-8")
        data_offset = _align(_HEADER.size + len(index_blob))
        total = data_offset + data_bytes
        mm = mmap.mmap(-1, max(total, 1))
        mm[: _HEADER.size] = _HEADER.pack(
            STORE_MAGIC, STORE_SCHEMA, int(version), len(index_blob)
        )
        mm[_HEADER.size : _HEADER.size + len(index_blob)] = index_blob
        for name, arr in arrays.items():
            dtype, shape, rel = index[name]
            view = np.ndarray(
                tuple(shape),
                dtype=np.dtype(dtype),
                buffer=mm,
                offset=data_offset + rel,
            )
            view[...] = arr
        decoded = {
            name: (np.dtype(dtype), tuple(shape), data_offset + rel)
            for name, (dtype, shape, rel) in index.items()
        }
        return cls(mm, decoded, data_offset)

    # ------------------------------------------------------------------
    # header / introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Current ``weights_version``, read from the shared header."""
        return int(
            _VERSION_FIELD.unpack_from(self._mm, _VERSION_OFFSET)[0]
        )

    def bump_version(self) -> int:
        """Increment the shared ``weights_version``; returns the new one.

        Every process mapping this store observes the bump — this is
        the single write a hot weight swap needs after updating the
        arrays in place.
        """
        with self._lock:
            version = self.version + 1
            _VERSION_FIELD.pack_into(self._mm, _VERSION_OFFSET, version)
            return version

    def write_arrays(self, state) -> None:
        """Copy *state*'s values into the mapping in place (no bump).

        *state* is a ``Module.state_dict()`` (or any subset of the
        stored keys).  Writes happen under the store lock so two
        publishers cannot interleave, but readers are deliberately not
        excluded — a hot swap must never pause serving.  In-flight
        forwards may therefore mix adjacent weight generations for one
        batch; the *version header* itself is only moved by
        :meth:`bump_version`, after all arrays are written, so a reader
        that observes the new version sees fully written arrays.
        """
        views = self.arrays()
        for name in state:
            key = str(name)
            if key not in views:
                raise KeyError(f"store has no array named {key!r}")
            shape = np.shape(state[name])
            if views[key].shape != shape and (
                # scalar counters (BN num_batches_tracked) are stored
                # (1,) by inference builds but () by train builds —
                # size-preserving, so not a real mismatch
                views[key].size != np.size(state[name])
                or np.squeeze(views[key]).shape != np.squeeze(
                    np.asarray(state[name])).shape
            ):
                raise ValueError(
                    f"shape mismatch for {key}: store {views[key].shape} "
                    f"vs state {shape}"
                )
        with self._lock:
            for name, value in state.items():
                view = views[str(name)]
                view[...] = np.reshape(value, view.shape)

    def refresh(self, state=None) -> int:
        """Publish a new weight generation: optionally write *state*'s
        arrays in place, then bump the shared ``weights_version``.

        Returns the new version.  This is the cluster-host half of a
        hot weight swap (see :mod:`repro.adapt`): every process mapping
        the store observes the arrays and the bumped header without any
        per-replica message.
        """
        if state is not None:
            self.write_arrays(state)
        return self.bump_version()

    def describe(self) -> dict:
        """The decoded header, for hello frames and one-copy asserts."""
        magic, schema, version, index_len = _HEADER.unpack_from(self._mm, 0)
        return {
            "magic": magic.decode("ascii", "replace"),
            "schema": int(schema),
            "weights_version": int(version),
            "arrays": len(self._index),
            "nbytes": int(self.nbytes),
            "map_id": id(self._mm),
        }

    @property
    def nbytes(self) -> int:
        """Total bytes of the mapping (header + index + arrays)."""
        return len(self._mm)

    @property
    def names(self):
        """The ``state_dict`` keys stored in the mapping."""
        return tuple(self._index)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def arrays(self):
        """Zero-copy ``name -> ndarray`` views over the mapping."""
        return {
            name: np.ndarray(shape, dtype=dtype, buffer=self._mm, offset=off)
            for name, (dtype, shape, off) in self._index.items()
        }

    def adopt(self, model):
        """Rebind *model*'s parameters and buffers to the mapping.

        After this, the model — and any packed plan built from it,
        since packing holds ``.data`` by reference — serves directly
        out of shared memory.  Shapes and dtypes must match the stored
        ``state_dict``; returns *model* for chaining.
        """
        views = self.arrays()
        params = dict(model.named_parameters())
        for name, param in params.items():
            if name not in views:
                raise KeyError(f"store has no array for parameter {name!r}")
            view = views[name]
            if view.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: store {view.shape} vs "
                    f"model {param.data.shape}"
                )
            param.data = view
        for name, _ in list(model.named_buffers()):
            key = f"buffer:{name}"
            if key not in views:
                raise KeyError(f"store has no array for buffer {name!r}")
            self._rebind_buffer(model, name, views[key])
        return model

    @staticmethod
    def _rebind_buffer(model, dotted, view):
        obj = model
        parts = dotted.split(".")
        for part in parts[:-1]:
            obj = obj._modules[part]
        obj._set_buffer(parts[-1], view)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping; idempotent.

        Live ``numpy`` views keep the pages addressable even after the
        Python-level close fails with ``BufferError`` — tolerated here
        because the OS reclaims the mapping with the last reference.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._mm.close()
        except BufferError:
            pass

    def __repr__(self):
        return (
            f"SharedWeightStore(arrays={len(self._index)}, "
            f"nbytes={self.nbytes}, version={self.version})"
        )


__all__ = ["SharedWeightStore", "STORE_MAGIC", "STORE_SCHEMA"]
