"""In-memory backend: dict-of-frames, for tests and scratch runs.

Each :class:`MemoryBackend` built without a region gets a fresh,
private one; the namespaces derived from it by ``sub()`` share that
region, so a :class:`~repro.store.runner.RunStore` over memory keeps
``objects/``, ``results/`` and ``shards/`` apart exactly as the local
backend does.  Nothing outlives the process.
"""

from __future__ import annotations

from repro.store.backends.base import Backend

__all__ = ["MemoryBackend"]


class MemoryBackend(Backend):
    """Frames in a dict; namespaces share one region.

    A region is a ``namespace -> {key -> frame}`` dict.
    """

    kind = "memory"

    def __init__(self, region=None, namespace="default"):
        super().__init__()
        self._region = region if region is not None else {}
        self.namespace = namespace
        self._frames = self._region.setdefault(namespace, {})

    def describe(self):
        return "memory://<anonymous>/%s" % self.namespace

    def sub(self, namespace):
        return MemoryBackend(self._region, namespace)

    # -- hooks --------------------------------------------------------------

    def _get_frame(self, key):
        return self._frames[key]

    def _put_frame(self, key, frame):
        self._frames[key] = frame

    def _delete(self, key):
        return self._frames.pop(key, None) is not None

    def _contains(self, key):
        return key in self._frames

    def _keys(self):
        return iter(sorted(self._frames))

    def _size(self, key):
        return len(self._frames[key])
