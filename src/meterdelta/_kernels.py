"""The compiled kernels of ``_kernels.c``: the send-on-delta scan, which writes each event
stream whole (sampler), the held-error sum in np.sum's pairwise order (evaluate), the
channel-file scan and the two-leg merge, which reads each leg in file order plus the list of
its displaced rows (ingest), and last-value-wins (trace). ctypes drops the GIL for each call.

All five come from one shared library, built with cc at the first call of
``library()`` (never at import) and cached in $XDG_CACHE_HOME/meterdelta/.
"""
from __future__ import annotations

import ctypes
import functools
import os
import platform
import threading
import zlib
from pathlib import Path

import numpy as np

from .errors import MeterDeltaError
from .trace import SAMPLE_DTYPE

SOURCE = Path(__file__).with_name("_kernels.c")
# no -ffast-math and no FMA contraction: results must round like the Python loop
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled kernels, built into the cache with cc unless the cache
    holds a build of the same source, flags and machine type. Raises
    MeterDeltaError when the build cannot run or fails."""
    # crc32, not hashlib: OpenSSL would add 3.4 MB to a channel file's peak memory
    key = zlib.crc32(SOURCE.read_bytes() + repr((_CFLAGS, platform.machine())).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "meterdelta"
    lib = cache / f"kernels-{key:08x}.so"
    if not lib.exists():
        import subprocess  # only a build needs it: it adds 5 ms to an import

        # one temporary file per process and thread, so concurrent builds never share one
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            cache.mkdir(parents=True, exist_ok=True)
            try:
                done = subprocess.run(["cc", *_CFLAGS, "-o", tmp, SOURCE], capture_output=True)
                if done.returncode != 0:
                    message = done.stderr.decode(errors="replace").strip()
                    raise MeterDeltaError(f"C compiler 'cc' failed on {SOURCE}: {message}")
                os.replace(tmp, lib)
            finally:
                tmp.unlink(missing_ok=True)
        except OSError as exc:  # no cc on PATH, or a cache directory that cannot be written
            raise MeterDeltaError(f"cannot build the C kernels with C compiler 'cc' "
                                  f"in {cache}: {exc}") from None
    kernels = ctypes.CDLL(str(lib))
    column = functools.partial(np.ctypeslib.ndpointer, ndim=1, flags="C_CONTIGUOUS")
    f64, i64, rows = column(np.float64), column(np.int64), column(SAMPLE_DTYPE)
    kernels.event_scan.argtypes = [i64, f64, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
                                   ctypes.c_uint64, i64, column(np.uint8), f64, f64]
    kernels.event_scan.restype = ctypes.c_int64
    kernels.scan_channel.argtypes = [ctypes.c_char_p, ctypes.c_int64, rows, ctypes.c_int64]
    kernels.scan_channel.restype = ctypes.c_int64
    kernels.held_error_sum.argtypes = [i64, f64, ctypes.c_int64, i64, f64]
    kernels.held_error_sum.restype = ctypes.c_double
    leg = [rows, ctypes.c_int64, i64, ctypes.c_int64]  # rows, count, displaced rows, count
    kernels.merge_legs.argtypes = [*leg, *leg, rows, i64]
    kernels.merge_legs.restype = ctypes.c_int64
    kernels.last_rows.argtypes = [rows, i64, ctypes.c_int64]
    kernels.last_rows.restype = ctypes.c_int64
    return kernels
