"""Object-store backends: the frame-store interface and its home.

The formal interface is :class:`repro.store.backends.base.Backend`:
frame-level storage under hex keys, per-backend hit/miss/byte
counters, and ``sub(namespace)`` derivation for the RunStore
namespaces.  Its implementation is :class:`LocalBackend`, the
pathsliced on-disk store under a root directory (``--cache-dir``),
with atomic fsync-disciplined writes.
"""

from __future__ import annotations

from repro.store.backends.base import Backend, BackendCounters
from repro.store.backends.local import LocalBackend, atomic_write

__all__ = [
    "Backend",
    "BackendCounters",
    "LocalBackend",
    "atomic_write",
]
