"""Workload runtime: the operation vocabulary threads yield, and the
per-thread context object."""

from .ops import (
    BARRIER,
    Atomic,
    Barrier,
    LabeledLoad,
    LabeledStore,
    Load,
    LoadGather,
    Store,
    Work,
)
from .thread_api import ThreadCtx

__all__ = [
    "Load",
    "Store",
    "LabeledLoad",
    "LabeledStore",
    "LoadGather",
    "Work",
    "Barrier",
    "Atomic",
    "ThreadCtx",
    "BARRIER",
]
