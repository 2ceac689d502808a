"""Span tracing installed from the benchmark's side of the API.

The traced run wraps public functions of each layer (see ``TARGETS``) so
that every call records a span ``(name, start, end, parent)``.  Spans are
kept in memory and written once, at exit.  A layer's *self time* is the
duration of its spans minus the part covered by their child spans, so the
self times of all layers plus the benchmark's own ``bench.*`` spans add up
to the traced wall time.

Wrappers are installed on the object the caller looks the name up on,
including modules that re-import a function (``repro.core.trainer`` calls
its own ``sequence_loss`` and ``clip_grad_norm`` names), and are removed
again by :meth:`Tracer.uninstall`.  While the tracer is paused, wrappers
call straight through and record nothing; the pause itself is a
``trace.paused`` span, so the time spent paused is nobody's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (span name, module, attribute path).  A dotted attribute path names a
# method; the wrapper replaces the attribute on the owning class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("spatial.vocab_build", "repro.spatial.vocab", "CellVocabulary.build"),
    ("spatial.tokenize", "repro.core.t2vec", "tokenize"),
    ("cell_embedding.train", "repro.core.cell_embedding",
     "CellEmbeddingTrainer.train"),
    ("data.next_batch", "repro.data.pipeline", "TrainingDataPipeline.batches"),
    ("data.materialize", "repro.data.pipeline",
     "TrainingDataPipeline.materialize"),
    ("data.pad_batch", "repro.core.t2vec", "pad_batch"),
    ("encoder_decoder.encode", "repro.core.encoder_decoder",
     "EncoderDecoder.encode"),
    ("encoder_decoder.decode", "repro.core.encoder_decoder",
     "EncoderDecoder.decode"),
    ("encoder_decoder.represent", "repro.core.encoder_decoder",
     "EncoderDecoder.represent"),
    ("losses.sequence_loss", "repro.core.trainer", "sequence_loss"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    ("nn.clip", "repro.core.trainer", "clip_grad_norm"),
    ("nn.adam", "repro.nn.optim", "Adam.step"),
    ("trainer.fit", "repro.core.trainer", "Trainer.fit"),
    ("trainer.train_step", "repro.core.trainer", "Trainer.train_step"),
    ("trainer.evaluate", "repro.core.trainer", "Trainer.evaluate"),
    ("t2vec.fit", "repro.core.t2vec", "T2Vec.fit"),
    ("t2vec.save", "repro.core.t2vec", "T2Vec.save"),
    ("t2vec.load", "repro.core.t2vec", "T2Vec.load"),
    ("t2vec.encode_many", "repro.core.t2vec", "T2Vec.encode_many"),
    ("index.build", "repro.core.index", "ExactIndex.__init__"),
    ("index.knn", "repro.core.index", "ExactIndex.knn"),
    ("index.knn_batch", "repro.core.index", "ExactIndex.knn_batch"),
    ("index.pairwise", "repro.core.t2vec", "pairwise_distances"),
    ("eval.mean_rank", "repro.eval.most_similar", "mean_rank"),
)

#: The program's layers, named after its modules.
LAYERS = ("spatial", "cell_embedding", "data", "encoder_decoder", "losses",
          "nn", "trainer", "t2vec", "index", "eval")

PAUSED = "trace.paused"


class Tracer:
    """In-memory span recorder with install/uninstall of call wrappers."""

    def __init__(self, observe: Optional[Callable[[str, Any], None]] = None):
        # Each span is [name, start, end, parent index or -1].
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._paused = False
        self._observe = observe
        # Only the thread that created the tracer records (the data
        # pipeline's prefetch thread must not interleave with its stack).
        self._thread = threading.get_ident()

    def _recording(self) -> bool:
        return not self._paused and threading.get_ident() == self._thread

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block (no-op while paused)."""
        if not self._recording():
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def pause(self) -> None:
        """Stop recording; the time until :meth:`resume` is a ``trace.paused`` span."""
        if not self._paused:
            self._open(PAUSED)
            self._paused = True

    def resume(self) -> None:
        if self._paused:
            self._paused = False
            self._close(self._stack[-1])

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block with recording off."""
        was_paused = self._paused
        self.pause()
        try:
            yield
        finally:
            if not was_paused:
                self.resume()

    # -- wrappers ------------------------------------------------------
    def _wrap_function(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Time each ``next()`` on the returned iterator, not its creation.

        Every item is also handed to ``observe``, traced or not.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    with tracer.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    if tracer._observe is not None:
                        tracer._observe(name, item)
                    yield item
            finally:
                inner.close()
        return wrapper

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to restore them."""
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if inspect.isclass(owner) and leaf not in vars(owner):
                raise AttributeError(f"{attr} is not defined on its class")
            raw = inspect.getattr_static(owner, leaf)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap_function(name,
                                                              raw.__func__))
            elif inspect.isgeneratorfunction(raw):
                replacement = self._wrap_generator(name, raw)
            else:
                replacement = self._wrap_function(name, raw)
            self._patches.append((owner, leaf, raw))
            setattr(owner, leaf, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, raw = self._patches.pop()
            setattr(owner, leaf, raw)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span duration minus the time its direct children cover."""
        if any(end is None for _, _, end, _ in self.spans):
            raise RuntimeError("trace has spans that never closed")
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed per layer (the span-name prefix)."""
        out = {layer: 0.0 for layer in LAYERS}
        for (name, *_), own in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += own
        return out

    def write(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Dump every span (with its self time) as one JSON document."""
        records = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "self": own}
            for (name, start, end, parent), own in zip(self.spans,
                                                       self.self_times())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra or {}, spans=records)
        path.write_text(json.dumps(payload))
