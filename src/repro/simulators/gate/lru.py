"""Re-export of :mod:`repro.core.lru` under its original import path."""

from ...core.lru import DEFAULT_CACHE_SIZE, BoundedLRU

__all__ = ["BoundedLRU", "DEFAULT_CACHE_SIZE"]
