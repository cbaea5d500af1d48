"""Object-store backends: the frame-store interface and its two homes.

The formal interface is :class:`repro.store.backends.base.Backend`:
frame-level storage under hex keys, per-backend hit/miss/byte
counters, and ``sub(namespace)`` derivation for the RunStore
namespaces.  Implementations:

* :class:`LocalBackend` -- the pathsliced on-disk store under a root
  directory (``--cache-dir``), atomic fsync-disciplined writes;
* :class:`MemoryBackend` -- frames in a dict, for tests and scratch
  runs.
"""

from __future__ import annotations

from repro.store.backends.base import Backend, BackendCounters
from repro.store.backends.local import LocalBackend, atomic_write
from repro.store.backends.memory import MemoryBackend

__all__ = [
    "Backend",
    "BackendCounters",
    "LocalBackend",
    "MemoryBackend",
    "atomic_write",
]
