"""Memory subsystem: flat main memory, data caches, and the store buffer.

The caches model *timing and statistics* (hits, misses, the
one-outstanding-refill restriction); data values always live in
:class:`~repro.mem.memory.MainMemory`, so the cache can never corrupt
architectural state. This is a deliberate split: the paper's results
depend on cache hit rates and refill stalls, not on modelling coherence
of a single-core cache.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "memory": ("MainMemory", "MemoryFault"),
    "cache": ("CacheConfig", "CacheStats", "DataCache"),
    "storebuffer": ("StoreBuffer", "StoreBufferEntry"),
})

__all__ = [
    "CacheConfig",
    "CacheStats",
    "DataCache",
    "MainMemory",
    "MemoryFault",
    "StoreBuffer",
    "StoreBufferEntry",
]
