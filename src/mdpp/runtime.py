"""Process-wide settings that the pipelines apply on entry.

``training.train``, ``summarizer.summarize_supervised`` and
``summarizer.summarize_unsupervised`` each call ``keep_freed_memory_mapped``
first, so every pipeline runs under one allocator policy, whichever of them
a process calls first.
"""

from __future__ import annotations

import ctypes


def keep_freed_memory_mapped() -> None:
    """Set glibc malloc's mmap threshold to 32 MiB and its trim threshold to
    64 MiB, the ceilings its dynamic thresholds reach on 64-bit, so the
    working set a training step or a summary request frees stays mapped for
    the next one instead of going back to the OS and faulting in again. The
    setting is process-wide. Without glibc's ``mallopt`` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no process handle (Windows), no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
