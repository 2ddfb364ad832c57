"""Collaborative graph learning for health-event prediction.

Library layout: autodiff (reverse-mode engine), ontology (disease hierarchy),
graphs (patient-code and code-code adjacencies), text (TF-IDF note targets),
model (network, loss, training), data (datasets and the synthetic generator),
metrics (evaluation), checkpoint (save/load), experiment (assembly), cli.
"""

import os as _os

# Cap BLAS parallelism before numpy loads; explicit settings win.
_threads = _os.environ.get("CGL_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

# Keep freed blocks in glibc's heap: its dynamic thresholds would unmap or trim
# a step's temporaries, and the next step would fault the same pages in again.
# A threshold set by MALLOC_*_ or GLIBC_TUNABLES wins. Without the mmap
# threshold (32 MiB, glibc's 64-bit ceiling) the trim threshold is not set
# either: alone, it would stop glibc from raising the mmap threshold.
import ctypes as _ctypes

_mallopt = getattr(_ctypes.CDLL(None), "mallopt", None) if _os.name == "posix" else None
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (_ctypes.c_int, _ctypes.c_int), _ctypes.c_int
    _tunables = _os.environ.get("GLIBC_TUNABLES", "")
    for _param, _name, _bytes in ((-3, "mmap_threshold", 32 << 20),
                                  (-1, "trim_threshold", 256 << 20)):
        _set = f"MALLOC_{_name.upper()}_" in _os.environ or f"glibc.malloc.{_name}=" in _tunables
        if not _set and not _mallopt(_param, _bytes):
            break

from . import autodiff, checkpoint, data, experiment, graphs, metrics, model, ontology, text
from .model import CollaborativeGraphModel, ModelConfig

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "checkpoint",
    "data",
    "experiment",
    "graphs",
    "metrics",
    "model",
    "ontology",
    "text",
    "CollaborativeGraphModel",
    "ModelConfig",
    "__version__",
]
