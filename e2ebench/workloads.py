"""The benchmark's workloads, run through the public ``repro`` API.

Every workload runs the same user pipeline, in two phases:

* **fit**: ``T2Vec.fit`` on generated trips, stopped by a step budget,
  with ``Trainer.evaluate`` on held-out pairs after a fixed step; then a
  ``save`` -> ``load`` round trip of the fitted model;
* **search**: rounds of ``T2Vec.load`` of the reference checkpoint ->
  ``encode_many`` of the database -> ``ExactIndex``; a closed loop of
  single requests (``encode`` + ``knn``); then ``mean_rank`` at r1 = 0 and
  r1 = 0.4 (the paper's Figure-4 protocol, Tables III/IV).

A workload's *primary* phase gets the ``--seconds`` budget and is set up
several times (``setup_s`` is the median); the other phase runs at a fixed
small size, so that every metric is defined on every workload.

The reference checkpoint is trained by this checkout's own code on a fixed
budget and cached under ``.bench_build/`` (as are the cities' road
networks); the first run in a checkout builds them.  ``--seed`` draws the
fitted model's seed (initialization, cell pretraining, pair synthesis)
and the search workload's queries and database.  Training and held-out
trips, and the fit workloads' search probe, are fixed draws.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import pickle
import resource
import statistics
import time
from contextlib import nullcontext
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import ExactIndex, LossSpec, T2Vec, T2VecConfig, TrainingConfig
from repro.core import losses
from repro.data import (CityConfig, SyntheticCity, TrainingDataPipeline,
                        Trajectory, alternating_split, harbin_like,
                        porto_like)
from repro.eval import most_similar
from repro.nn import Tensor
from repro.telemetry import Callback, StopTraining, get_registry

from tracing import Tracer

K = 10                      # neighbours per request
VAL_SEED = 20180416         # pair synthesis of the held-out set
LOSS_PROBE_REPEATS = 3
CHECK_BLOCK = 500           # queries per batched search in the knn check
ROUNDS = 3                  # rounds of (fit, search); the traced run does one


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
# Road networks and route catalogues are fixed; trips are drawn per seed.
CITIES: Dict[str, Callable[[], SyntheticCity]] = {
    # 40 x 40 blocks at 200 m, 600 routes: an ~8 km city for 25 m cells.
    "paper": lambda: SyntheticCity(CityConfig(
        name="paper-syn", grid_cols=40, grid_rows=40, spacing=200.0,
        num_routes=600, min_points=30, min_route_nodes=10, seed=11)),
    "porto": lambda: porto_like(7),
    "harbin": lambda: harbin_like(17),
}


@dataclass(frozen=True)
class FitSpec:
    city: str             # key of CITIES
    trips: int            # training trips (a fixed draw)
    held_out: int         # fixed validation trips (16 pairs each)
    config: T2VecConfig
    val_step: int         # val_loss is measured after this timed step
    step_s: float         # nominal seconds per timed step on 2 vCPUs
    trace_steps: int      # timed steps in the traced run
    seconds: Optional[float] = None   # fit seconds per round when not primary

    def steps(self, seconds: float) -> int:
        """Timed steps per round for ``seconds`` of nominal training.

        The count follows the run length, not the speed of the code under
        test, so every commit trains the same batches.
        """
        return max(self.val_step, round(seconds / self.step_s))


@dataclass(frozen=True)
class SearchSpec:
    queries: int          # Figure-4 queries, also the first requests
    filler: int           # filler trips padding the database; their Ta
                          # halves are the requests after the queries
    requests: Optional[int]   # requests per round; None: --seconds
    trace_requests: int   # requests in the traced run
    per_seed: bool        # trips drawn per seed, or one fixed draw


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str          # "fit" or "search"
    fit: FitSpec
    search: SearchSpec


# The fit workloads' search phase: a fixed probe of the reference model.
SMALL_SEARCH = SearchSpec(queries=1000, filler=2000, requests=2000,
                          trace_requests=1000, per_seed=False)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fit-paper", primary="fit", search=SMALL_SEARCH,
        fit=FitSpec(
            city="paper", trips=3000, held_out=8, val_step=1, step_s=2.0,
            trace_steps=6,
            config=T2VecConfig(
                cell_size=25.0, min_hits=3, embedding_size=256,
                hidden_size=256, num_layers=3,
                # The paper's noise of 500 is OOM-killed on a 7 GB host.
                loss=LossSpec(kind="L3", k_nearest=20, noise=64),
                cell_epochs=1,
                training=TrainingConfig(batch_size=32, num_workers=0)))),
    Workload(
        name="fit-dense", primary="fit", search=SMALL_SEARCH,
        fit=FitSpec(
            city="harbin", trips=600, held_out=16, val_step=4, step_s=0.5,
            trace_steps=24,
            config=T2VecConfig(
                cell_size=100.0, embedding_size=128, hidden_size=128,
                num_layers=3, loss=LossSpec(kind="L3", k_nearest=10, noise=64),
                training=TrainingConfig(batch_size=64, num_workers=0)))),
    Workload(
        name="search", primary="search",
        fit=FitSpec(city="porto", trips=600, held_out=16, val_step=10,
                    step_s=0.05, trace_steps=30, seconds=1.5,
                    config=T2VecConfig()),
        search=SearchSpec(queries=2000, filler=6000, requests=None,
                          trace_requests=4000, per_seed=True)),
)}

# The reference model every search phase loads: T2VecConfig defaults on
# 600 porto-like trips, 1,200 steps (4 epochs) at batch 32.
REFERENCE_TRIPS = 600
REFERENCE_HELD_OUT = 40
REFERENCE_STEPS = 1200
REFERENCE_CONFIG = T2VecConfig()


# ----------------------------------------------------------------------
# Build cache: cities and the reference model
# ----------------------------------------------------------------------
class BuildCache:
    """Artefacts keyed by the checkout's source, kept under ``.bench_build``."""

    def __init__(self, root: Path):
        self.src = root / "src"
        self.dir = root / ".bench_build" / "e2ebench"
        self.dir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        for path in sorted(self.src.rglob("*.py")):
            digest.update(str(path.relative_to(self.src)).encode())
            digest.update(path.read_bytes())
        self.key = digest.hexdigest()[:16]

    def _path(self, name: str, suffix: str) -> Path:
        return self.dir / f"{name}-{self.key}{suffix}"

    def city(self, name: str) -> SyntheticCity:
        """A city of ``CITIES``, built once per checkout."""
        path = self._path(f"city-{name}", ".pkl")
        if path.exists():
            # Written by this benchmark in this checkout, never elsewhere.
            return pickle.loads(path.read_bytes())
        city = CITIES[name]()
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(pickle.dumps(city))
        os.replace(tmp, path)
        return city

    def reference_model(self) -> Path:
        recipe = repr((REFERENCE_TRIPS, REFERENCE_HELD_OUT, REFERENCE_STEPS,
                       REFERENCE_CONFIG))
        digest = hashlib.sha256(recipe.encode()).hexdigest()[:8]
        path = self._path(f"reference-{digest}", ".npz")
        if path.exists():
            return path
        trips = self.city("porto").generate(
            REFERENCE_TRIPS + REFERENCE_HELD_OUT, _rng("reference"))
        model = T2Vec(REFERENCE_CONFIG)
        model.fit(trips[:REFERENCE_TRIPS], validation=trips[REFERENCE_TRIPS:],
                  callbacks=[StepBudget(steps=REFERENCE_STEPS)])
        tmp = path.with_name(path.stem + ".tmp.npz")
        model.save(tmp)
        os.replace(tmp, path)
        return path


def _rng(*purpose) -> np.random.Generator:
    """An independent stream per (seed, purpose)."""
    words = [p & 0xFFFFFFFF if isinstance(p, int) else int.from_bytes(
        hashlib.sha256(str(p).encode()).digest()[:4], "little")
        for p in purpose]
    return np.random.default_rng(np.random.SeedSequence(words))


# ----------------------------------------------------------------------
# Inputs (generated before any timing)
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    train: List[Trajectory]
    held_out: List[Trajectory]
    model_seed: int
    setup_r0: most_similar.MostSimilarSetup
    setup_r04: most_similar.MostSimilarSetup
    requests: List[Trajectory]


def make_inputs(workload: Workload, seed: int, cache: BuildCache) -> Inputs:
    fit, search = workload.fit, workload.search
    # The training set is fixed per workload, like a dataset: with the
    # trainer's fixed batch order, every run trains on batches of the same
    # lengths, so throughput and peak memory do not hinge on whether a
    # seed happens to put long trips in the first batches.
    city = cache.city(fit.city)
    train = city.generate(fit.trips, _rng("train"))
    held_out = city.generate(fit.held_out, _rng("held-out"))
    search_seed = seed if search.per_seed else "fixed"
    pool = cache.city("porto").generate(search.queries + search.filler,
                                        _rng(search_seed, "search-trips"))
    query_trips, filler = pool[:search.queries], pool[search.queries:]
    setup_r0 = most_similar.build_setup(query_trips, filler, search.queries,
                                        rng=_rng(search_seed, "r1=0"))
    setup_r04 = most_similar.build_setup(query_trips, filler, search.queries,
                                         dropping_rate=0.4,
                                         rng=_rng(search_seed, "r1=0.4"))
    requests = (list(setup_r0.queries)
                + [alternating_split(t)[0] for t in filler])
    return Inputs(train=train, held_out=held_out,
                  model_seed=int(_rng(seed, "model").integers(2 ** 31 - 1)),
                  setup_r0=setup_r0, setup_r04=setup_r04, requests=requests)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
class StepBudget(Callback):
    """Counts steps and real tokens, and stops ``fit`` at its budget.

    ``on_fit_start`` (vocabulary, model, cell pretraining and pipelines
    are built) hands over the trainer; step 0 is the warm-up step, and its
    end closes the set-up.  ``steps`` timed steps follow.
    The fit's ``TrainingResult`` is not used
    for counting: when a callback stops ``fit``, it undercounts (a 10-step
    budget reports ``steps=9, tokens=0``), a defect of ``Trainer.fit`` to
    fix in the program.

    ``hook(trainer)`` runs after timed step ``at_step``, outside the step
    timings, so what it measures does not depend on how fast steps ran.
    """

    def __init__(self, steps: int, at_step: int = 0,
                 hook: Optional[Callable[[object], None]] = None):
        self.steps = steps
        self.at_step = at_step
        self.hook = hook
        self.trainer = None
        self.warm_end = self.last = math.nan
        self.losses: List[float] = []
        self.step_s: List[float] = []      # timed steps only
        self.tokens: List[int] = []        # timed steps only

    def on_fit_start(self, trainer) -> None:
        self.trainer = trainer

    def on_batch_end(self, trainer, step: int, loss: float,
                     tokens: int) -> None:
        now = time.perf_counter()
        self.losses.append(loss)
        if step == 0:
            self.warm_end = now
        else:
            self.step_s.append(now - self.last)
            self.tokens.append(tokens)
        if self.hook is not None and step == self.at_step:
            self.hook(trainer)
            now = time.perf_counter()
        self.last = now
        if step >= self.steps:
            raise StopTraining


class Tally:
    """Operations attempted and failed, by check (the ``error_rate``)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}

    def check(self, what: str, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures[what] = self.failures.get(what, 0) + count


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _toggle_for(tracer: Optional[Tracer]):
    """Traced run: odd-numbered requests run with the tracer paused."""
    if tracer is None:
        return None

    def toggle(index: int) -> None:
        if index > 0 and index % 2:
            tracer.pause()
        else:
            tracer.resume()
    return toggle


@dataclass
class Run:
    workload: Workload
    inputs: Inputs
    cache: BuildCache
    seconds: float
    tracer: Optional[Tracer]
    tally: Tally = field(default_factory=Tally)
    metrics: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    # Per-round samples, reduced to metrics after the last round.
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def rounds(self) -> int:
        return 1 if self.traced else ROUNDS

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def fit_round(run: Run, last: bool) -> None:
    """One ``T2Vec.fit`` of the workload's model, stopped by a StepBudget.

    Every round trains the steps of its share of ``--seconds``
    (``spec.seconds`` on ``search``); the first also measures ``val_loss``.
    With the same seed every round trains the same batches, so each step
    has one time per round.
    """
    spec, inputs = run.workload.fit, run.inputs
    primary = run.workload.primary == "fit"
    config = replace(spec.config, seed=inputs.model_seed)
    earlier = run.samples["step_s"]   # step times of earlier rounds
    val_loss: List[float] = []

    def validate(trainer) -> None:
        # Held-out pairs with a fixed synthesis seed, after a fixed step.
        val_ds = TrainingDataPipeline(
            inputs.held_out, trainer.vocab, config.dropping_rates,
            config.distorting_rates, seed=VAL_SEED).materialize()
        with run.span("bench.validate"):
            val_loss.append(trainer.evaluate(val_ds, max_batches=len(val_ds)))

    if run.traced:
        steps = spec.trace_steps
    else:
        steps = spec.steps(run.seconds / ROUNDS if primary else spec.seconds)
    budget = StepBudget(steps=steps, at_step=spec.val_step,
                        hook=None if earlier else validate)
    gc.collect()
    model = T2Vec(config)
    started = time.perf_counter()
    with run.span("bench.fit"):
        model.fit(inputs.train, validation=inputs.held_out,
                  callbacks=[budget])
    run.samples["fit_setup_s"].append(budget.warm_end - started)
    run.tally.check("finite training loss",
                    all(math.isfinite(x) for x in budget.losses),
                    len(budget.losses))
    if earlier:
        run.tally.check("rounds train the same batches",
                        budget.tokens == run.samples["tokens"][0])
    run.samples["tokens"].append(budget.tokens)
    earlier.append(budget.step_s)
    if val_loss:
        run.tally.check("finite val_loss", math.isfinite(val_loss[0]))
        run.metrics["val_loss"] = val_loss[0]
    if not last:
        return

    # save -> load round trip: the loaded model must encode bit-identically.
    path = run.cache.dir / f"fit-{os.getpid()}.npz"
    try:
        with run.span("bench.round_trip"):
            model.save(path)
            loaded = T2Vec.load(path)
            probe = inputs.held_out[0]
            run.tally.check("checkpoint round trip",
                            np.array_equal(model.encode(probe),
                                           loaded.encode(probe)))
    finally:
        path.unlink(missing_ok=True)

    if run.traced:
        run.per_layer.update({
            "spatial.vocab_size": model.vocab.size,
            "trainer.steps": len(budget.step_s),
            "trainer.step_p50_s": _median(budget.step_s),
            "trainer.step_max_s": max(budget.step_s),
            "losses.fwd_bwd_s": loss_probe(run, model),
        })


def loss_probe(run: Run, model: T2Vec) -> float:
    """``sequence_loss`` forward + ``backward()`` on detached decoder states.

    A timer around ``Tensor.backward`` in a training step cannot separate
    the loss's backward from the RNN's; here the loss is the whole graph.
    The batch comes from the training trips and the workload's own
    vocabulary, so it takes the workload's L3 path (dense below
    ``DENSE_L3_VOCAB_LIMIT``, gathered above it).
    """
    cfg = model.config
    net = model.model
    with run.tracer.paused():
        pairs = TrainingDataPipeline(
            run.inputs.train[:8], model.vocab, cfg.dropping_rates,
            cfg.distorting_rates, seed=VAL_SEED).materialize()
        batch = next(iter(pairs.batches(cfg.training.batch_size,
                                        np.random.default_rng(0))))
        _, state = net.encode(batch.src, batch.src_mask)
        hidden = net.decode(batch.tgt_in, state, batch.tgt_mask).numpy()
        times = []
        for repeat in range(LOSS_PROBE_REPEATS):
            states = Tensor(hidden.copy(), requires_grad=True)
            started = time.perf_counter()
            loss = losses.sequence_loss(net, states, batch.tgt_out,
                                        batch.tgt_mask, model.vocab,
                                        cfg.loss,
                                        np.random.default_rng(repeat))
            loss.backward()
            times.append(time.perf_counter() - started)
        net.zero_grad()
    return _median(times)


def search_round(run: Run) -> None:
    """Set-up -> closed-loop requests -> evaluation, on a fresh model.

    Every round loads the reference model anew (cold encode cache) and
    repeats the same work, so rounds compare like with like.
    """
    spec, inputs = run.workload.search, run.inputs
    setups = (inputs.setup_r0, inputs.setup_r04)
    registry = get_registry()
    hits0 = registry.counter("encode.cache_hits").value
    misses0 = registry.counter("encode.cache_misses").value
    limit = (spec.trace_requests if run.traced
             else spec.requests or len(inputs.requests))
    budget = (run.seconds / run.rounds
              if spec.requests is None and not run.traced else math.inf)

    gc.collect()
    started = time.perf_counter()
    with run.span("bench.search_setup"):
        model = T2Vec.load(run.cache.reference_model())
        index = ExactIndex(model.encode_many(inputs.setup_r0.database))
    run.samples["search_setup_s"].append(time.perf_counter() - started)

    latency = request_loop(run, model, index, inputs.requests[:limit], budget)
    run.samples["latency"].append(latency)

    ranks, eval_s = [], []
    with run.span("bench.eval"):
        for setup in setups:
            started = time.perf_counter()
            ranks.append(most_similar.mean_rank(model, setup))
            eval_s.append(time.perf_counter() - started)
    run.samples["eval_s"].append(eval_s)
    for rank, setup in zip(ranks, setups):
        run.tally.check("mean rank in [1, |DB|]",
                        1.0 <= rank <= len(setup.database))
    run.metrics["mean_rank_r0"], run.metrics["mean_rank_r04"] = ranks

    if run.traced:
        hits = registry.counter("encode.cache_hits").value - hits0
        misses = registry.counter("encode.cache_misses").value - misses0
        run.per_layer["t2vec.encode_cache_hit_ratio"] = hits / (hits + misses)
        # Even requests ran traced, odd ones paused: the same work, so the
        # ratio of their medians is the tracing overhead.
        run.per_layer["trace.overhead"] = (
            _median(latency[0::2]) / _median(latency[1::2]) - 1.0)


def request_loop(run: Run, model: T2Vec, index: ExactIndex,
                 requests: Sequence[Trajectory], budget: float) -> List[float]:
    """One client in a closed loop: each request is sent when the last
    returned.  Returns per-request seconds; checks every answer."""
    toggle = _toggle_for(run.tracer)
    latency: List[float] = []
    vectors, answers, distances = [], [], []
    with run.span("bench.requests"):
        loop_start = time.perf_counter()
        for i, request in enumerate(requests):
            if time.perf_counter() - loop_start >= budget:
                break
            if toggle is not None:
                toggle(i)
            started = time.perf_counter()
            vector = model.encode(request)
            ids, dists = index.knn(vector, K)
            latency.append(time.perf_counter() - started)
            vectors.append(vector)
            answers.append(ids)
            distances.append(dists)
        if toggle is not None:
            toggle(-1)
    # Each single-query answer must equal its row of a batched search
    # (blocks of CHECK_BLOCK queries bound the check's own memory).
    for start in range(0, len(vectors), CHECK_BLOCK):
        queries = np.stack(vectors[start:start + CHECK_BLOCK])
        batch_ids, batch_d = index.knn_batch(queries, K)
        tol = _rounding_tolerance(index, queries)
        for row in range(len(queries)):
            i = start + row
            run.tally.check("knn == knn_batch row",
                            np.array_equal(answers[i], batch_ids[row])
                            or _rounding_tie(distances[i], batch_d[row],
                                             tol[row]))
    return latency


def _rounding_tolerance(index: ExactIndex, queries: np.ndarray) -> np.ndarray:
    """Per-query error bound of a squared distance from the GEMM identity.

    ``||x||^2 + ||q||^2 - 2 x.q`` in the index dtype carries an absolute
    error of a few ulps of ``||x||^2 + ||q||^2``; candidates closer than
    that to the k-th distance can be selected either way.
    """
    eps = np.finfo(index.vectors.dtype).eps
    top = float(np.einsum("nd,nd->n", index.vectors, index.vectors).max())
    return 16 * eps * (np.einsum("qd,qd->q", queries, queries) + top)


def _rounding_tie(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Two answers that differ only among neighbours tied within rounding.

    The single-query and batched kernels select the top k from GEMM
    identity values that round differently, so at the k-th place they may
    keep different neighbours whose exact distances agree within ``tol``.
    """
    return a.shape == b.shape and bool(np.all(np.abs(a ** 2 - b ** 2) <= tol))


# ----------------------------------------------------------------------
# Per-layer metrics from the trace
# ----------------------------------------------------------------------
class PadCounter:
    """Pad tokens per real token over the batches handed to the trainer."""

    def __init__(self):
        self.real = 0.0
        self.total = 0.0

    def __call__(self, name: str, batch) -> None:
        real = float(batch.src_mask.sum() + batch.tgt_mask.sum())
        self.real += real
        self.total += float(batch.src_mask.size + batch.tgt_mask.size)

    @property
    def ratio(self) -> float:
        return (self.total - self.real) / self.real


def layer_metrics(tracer: Tracer, pads: PadCounter) -> Dict[str, float]:
    waits = tracer.durations("data.next_batch")
    knn = tracer.durations("index.knn")
    ranks = tracer.durations("eval.mean_rank")
    out = {
        "spatial.vocab_build_s": tracer.total("spatial.vocab_build"),
        "spatial.tokenize_s": tracer.total("spatial.tokenize"),
        "cell_embedding.train_s": tracer.total("cell_embedding.train"),
        "data.batch_wait_p50_s": _median(waits),
        "data.batch_wait_total_s": sum(waits),
        "data.pad_per_real_token": pads.ratio,
        "data.materialize_s": tracer.total("data.materialize"),
        "data.pad_batch_s": tracer.total("data.pad_batch"),
        "encoder_decoder.encode_s": tracer.total("encoder_decoder.encode"),
        "encoder_decoder.decode_s": tracer.total("encoder_decoder.decode"),
        "encoder_decoder.represent_s":
            tracer.total("encoder_decoder.represent"),
        "losses.forward_s": tracer.total("losses.sequence_loss"),
        "nn.backward_s": tracer.total("nn.backward"),
        "nn.clip_s": tracer.total("nn.clip"),
        "nn.adam_s": tracer.total("nn.adam"),
        "t2vec.load_s": tracer.total("t2vec.load"),
        "t2vec.encode_many_s": tracer.total("t2vec.encode_many"),
        "index.build_s": tracer.total("index.build"),
        "index.knn_p50_s": _percentile(knn, 50),
        "index.knn_p99_s": _percentile(knn, 99),
        "index.pairwise_s": tracer.total("index.pairwise"),
        "eval.mean_rank_r0_s": ranks[0],
        "eval.mean_rank_r04_s": ranks[1],
    }
    for layer, seconds in tracer.layer_self_times().items():
        out[f"{layer}.self_s"] = seconds
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """Run one workload; returns the result object (metrics + trace info)."""
    workload = WORKLOADS[name]
    cache = BuildCache(root)
    cache.reference_model()
    inputs = make_inputs(workload, seed, cache)
    pads = PadCounter()
    tracer = Tracer(observe=pads) if trace else None
    run = Run(workload=workload, inputs=inputs, cache=cache, seconds=seconds,
              tracer=tracer)
    if tracer is not None:
        tracer.install()
    try:
        # Interleaved rounds: a slow spell of the host hits one round's
        # samples, not a whole phase's.
        for r in range(run.rounds):
            fit_round(run, last=r == run.rounds - 1)
            search_round(run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    samples = run.samples
    # Every request of the run, over 4,000, so p99 has 40 or more beyond it.
    latency = np.concatenate(samples["latency"])
    # Each step's (each mean_rank's) best time over the rounds, which
    # repeat the same work.
    best_steps = np.min(samples["step_s"], axis=0)
    run.metrics.update({
        "setup_s": _median(samples[f"{workload.primary}_setup_s"]),
        "train_tokens_per_s": sum(samples["tokens"][0]) / sum(best_steps),
        "query_p50_ms": _percentile(latency, 50) * 1e3,
        "query_p99_ms": _percentile(latency, 99) * 1e3,
        "eval_s": float(np.min(samples["eval_s"], axis=0).sum()),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        run.per_layer.update(layer_metrics(tracer, pads))
    return {"tally": run.tally, "metrics": run.metrics,
            "per_layer": run.per_layer, "tracer": tracer}
