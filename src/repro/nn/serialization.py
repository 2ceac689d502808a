"""Checkpoint save/load for :class:`~repro.nn.module.Module` state dicts.

Checkpoints are plain ``.npz`` archives of parameter arrays plus an
optional JSON metadata blob (model hyper-parameters, training step, ...),
so they are portable and inspectable without this library.  Saves are
atomic: the archive is written to a temporary file next to the target and
moved into place with :func:`os.replace`, so a failed save never leaves a
truncated checkpoint behind or clobbers the previous one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

_META_KEY = "__meta_json__"


def save_checkpoint(path: Union[str, Path], state: Dict[str, np.ndarray],
                    meta: Optional[Dict[str, Any]] = None) -> None:
    """Write a state dict (and optional JSON-serializable metadata) to ``path``.

    Like :func:`numpy.savez`, appends ``.npz`` to a path without it.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(state)
    if _META_KEY in payload:
        raise ValueError(f"state dict may not contain reserved key {_META_KEY!r}")
    if meta is not None:
        payload[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: Union[str, Path]) -> Tuple[Dict[str, np.ndarray],
                                                     Optional[Dict[str, Any]]]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``(state_dict, meta)``; ``meta`` is ``None`` when the
    checkpoint was written without metadata.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as archive:
        state = {k: archive[k] for k in archive.files if k != _META_KEY}
        meta = None
        if _META_KEY in archive.files:
            meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
    return state, meta
