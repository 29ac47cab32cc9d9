"""The placement-search engine.

``SearchEngine`` wraps one :class:`~repro.core.predictor.PandiaPredictor`
and answers "predict these placements" requests through two layers:

1. **canonicalisation** — symmetric placements collapse to one key, so
   each symmetry class is predicted once per workload;
2. **memoisation** — an LRU cache keyed by ``(workload fingerprint,
   canonical key)`` carries predictions across calls, so e.g.
   ``best_placement`` followed by ``rightsize`` over the same set pays
   for one evaluation pass, not two.

Cache misses go to :meth:`PandiaPredictor.predict_batch` in one call
(one vectorised fixed point over the population) when the predictor
provides it, falling back to the scalar ``predict`` loop for
duck-typed predictors that do not.

Determinism: the predictor is a pure function of ``(workload,
placement)`` and each miss is evaluated on the exact concrete placement
that first requested its symmetry class — so the engine matches the
naive serial loop to the batch kernel's 1e-12 equivalence guarantee.

Observability: when ``repro.obs`` is enabled the engine emits nested
spans — ``search.search`` > ``search.round`` / ``search.strategy`` >
``search.evaluate`` > ``search.cache`` / ``search.predict``.
``engine.stats`` counters live in a :class:`repro.obs.Metrics` registry
(see :mod:`repro.search.stats`).  Instrumentation never touches what is
computed: predictions are bit-identical with tracing on or off.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs

from repro.core.description import WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import Prediction
from repro.errors import PredictionError
from repro.search.cache import PredictionCache
from repro.search.canonical import canonical_key, workload_fingerprint
from repro.search.stats import SearchStats

@dataclass
class RankedPlacement:
    """One placement with its prediction, ordered fastest-first."""

    placement: Placement
    prediction: Prediction

    @property
    def predicted_time_s(self) -> float:
        return self.prediction.predicted_time_s


@dataclass
class SearchResult:
    """Outcome of one strategy-driven search."""

    best: RankedPlacement
    ranked: List[RankedPlacement]  # every evaluated class, fastest-first
    rounds: int
    stats: SearchStats  # snapshot at completion
    wall_time_s: float

    @property
    def best_placement(self) -> Placement:
        return self.best.placement

    @property
    def best_prediction(self) -> Prediction:
        return self.best.prediction


class SearchEngine:
    """Cache-aware placement evaluator.

    Parameters
    ----------
    predictor:
        The bound predictor.  Anything with a ``predict(workload,
        placement)`` method works.
    cache_size:
        LRU capacity in predictions.
    store:
        An optional :class:`repro.io.PredictionStore`.  Cache misses
        probe the store before running the predictor, and fresh
        predictions are written back (flushed on :meth:`close` and
        after every :meth:`search`), so searches survive across
        sessions.  Store hits count as cache hits plus ``store_hits``
        in :class:`~repro.search.stats.SearchStats`.
    """

    #: Shared per-predictor engines handed out by :meth:`shared`, so the
    #: module-level optimizer helpers reuse one cache per predictor.
    _SHARED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __init__(self, predictor, *, cache_size: int = 65536, store=None) -> None:
        self.predictor = predictor
        self.cache: PredictionCache[Prediction] = PredictionCache(cache_size)
        self.stats = SearchStats()
        self.store = store
        self._machine_digest: Optional[str] = None
        self._w_digests: Dict[Tuple[Hashable, ...], str] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def shared(cls, predictor) -> "SearchEngine":
        """The serial engine shared by all callers using *predictor*.

        This is what the :mod:`repro.core.optimizer` helpers use by
        default, so ``best_placement`` + ``rightsize`` +
        ``peak_thread_count`` over the same placement set evaluate each
        symmetry class once.
        """
        try:
            engine = cls._SHARED.get(predictor)
        except TypeError:  # unhashable or un-weakref-able predictor
            return cls(predictor)
        if engine is None:
            engine = cls(predictor)
            try:
                cls._SHARED[predictor] = engine
            except TypeError:
                pass
        return engine

    # -- evaluation ------------------------------------------------------

    def evaluate(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
    ) -> List[RankedPlacement]:
        """Predict every placement, in input order.

        Symmetric duplicates within *placements* share one prediction
        (the one computed for the first concrete placement of the
        class), as do repeats across calls via the cache.
        """
        t0 = time.perf_counter()
        obs_on = obs.enabled()
        with obs.span(
            "search.evaluate", workload=workload.name, placements=len(placements)
        ) as ev_span:
            fingerprint = workload_fingerprint(workload)
            self.stats.inc("requests", len(placements))
            store_ids = self._store_ids(fingerprint)

            hits = misses = store_hits = 0
            lookup_hist = (
                obs.metrics().histogram("search.cache.lookup_us") if obs_on else None
            )
            keys: List[Hashable] = []
            found: Dict[Hashable, Prediction] = {}
            pending: "OrderedDict[Hashable, Placement]" = OrderedDict()
            with obs.span("search.cache") as cache_span:
                for placement in placements:
                    ckey = canonical_key(placement)
                    key = (fingerprint, ckey)
                    keys.append(key)
                    if key in found or key in pending:
                        hits += 1
                        continue
                    if lookup_hist is not None:
                        t_probe = time.perf_counter_ns()
                        cached = self.cache.get(key)
                        lookup_hist.observe((time.perf_counter_ns() - t_probe) / 1e3)
                    else:
                        cached = self.cache.get(key)
                    if cached is None and store_ids is not None:
                        cached = self.store.get_prediction(
                            store_ids[0], store_ids[1], ckey, placement
                        )
                        if cached is not None:
                            store_hits += 1
                            self.cache.put(key, cached)
                    if cached is not None:
                        hits += 1
                        found[key] = cached
                    else:
                        misses += 1
                        pending[key] = placement
                if cache_span is not None:
                    cache_span.attrs.update(
                        hits=hits, misses=misses, store_hits=store_hits
                    )
            self.stats.inc("cache_hits", hits)
            self.stats.inc("cache_misses", misses)
            if store_hits:
                self.stats.inc("store_hits", store_hits)

            if pending:
                with obs.span("search.predict", misses=len(pending)):
                    predictions = self._predict_batch(workload, list(pending.values()))
                self.stats.inc("evaluations", len(predictions))
                self.stats.observe_iterations(p.iterations for p in predictions)
                for key, prediction in zip(pending, predictions):
                    found[key] = prediction
                    self.cache.put(key, prediction)
                    if store_ids is not None:
                        self.store.put_prediction(
                            store_ids[0], store_ids[1], key[1], prediction
                        )

            results = [
                RankedPlacement(placement, found[key])
                for placement, key in zip(placements, keys)
            ]
            if ev_span is not None:
                ev_span.attrs.update(hits=hits, misses=misses)
        self.stats.inc("wall_time_s", time.perf_counter() - t0)
        return results

    def rank(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
    ) -> List[RankedPlacement]:
        """Evaluate and sort fastest-first (stable in input order)."""
        ranked = self.evaluate(workload, placements)
        ranked.sort(key=lambda r: r.predicted_time_s)
        return ranked

    def best(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
    ) -> RankedPlacement:
        if not placements:
            raise PredictionError(
                f"no placements to evaluate for workload {workload.name!r}"
            )
        return self.rank(workload, placements)[0]

    # -- strategy-driven search ------------------------------------------

    def search(self, workload: WorkloadDescription, strategy) -> SearchResult:
        """Run a search strategy to completion.

        The strategy proposes an initial candidate set, then refines it
        round by round from the evaluated results until it proposes
        nothing new (see :mod:`repro.search.strategies`).
        """
        t0 = time.perf_counter()
        evaluate_before = self.stats.wall_time_s
        with obs.span(
            "search.search",
            workload=workload.name,
            strategy=type(strategy).__name__,
        ) as s_span:
            topology = self._topology()
            seen: Dict[Tuple, RankedPlacement] = {}
            # Strategies that pre-rank candidates (SurrogateStrategy)
            # need the engine's machine description and stats before
            # their first round; plain strategies have no bind().
            binder = getattr(strategy, "bind", None)
            if binder is not None:
                binder(self, workload)
            with obs.span("search.strategy", phase="initial"):
                candidates = list(strategy.initial_candidates(topology))
            if not candidates:
                raise PredictionError(
                    f"strategy {type(strategy).__name__} proposed no candidates"
                )
            rounds = 0
            while candidates:
                rounds += 1
                self.stats.inc("rounds")
                with obs.span(
                    "search.round", round=rounds, candidates=len(candidates)
                ):
                    for ranked in self.evaluate(workload, candidates):
                        seen.setdefault(canonical_key(ranked.placement), ranked)
                    best = min(seen.values(), key=lambda r: r.predicted_time_s)
                    with obs.span("search.strategy", phase="refine", round=rounds):
                        proposed = strategy.refine(topology, best, seen)
                    candidates = [
                        p for p in (proposed or []) if canonical_key(p) not in seen
                    ]
            ranked_all = sorted(seen.values(), key=lambda r: r.predicted_time_s)
            if s_span is not None:
                s_span.attrs.update(rounds=rounds, classes=len(ranked_all))
        wall_time = time.perf_counter() - t0
        # Round-driving overhead = search time not spent in evaluate();
        # wall_time_s + strategy_time_s sum to the observed wall time.
        evaluate_time = self.stats.wall_time_s - evaluate_before
        self.stats.inc("strategy_time_s", max(0.0, wall_time - evaluate_time))
        if self.store is not None:
            self.store.flush()
        return SearchResult(
            best=ranked_all[0],
            ranked=ranked_all,
            rounds=rounds,
            stats=self.stats.snapshot(),
            wall_time_s=wall_time,
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Flush the store, if any."""
        if self.store is not None:
            self.store.flush()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _topology(self):
        md = getattr(self.predictor, "md", None)
        topology = getattr(md, "topology", None)
        if topology is None:
            raise PredictionError(
                f"strategy search needs a predictor with a machine "
                f"description; {type(self.predictor).__name__} has none"
            )
        return topology

    def _store_ids(
        self, fingerprint: Tuple[Hashable, ...]
    ) -> Optional[Tuple[str, str]]:
        """(machine digest, workload digest) for store keys, memoised;
        ``None`` without a store or machine description."""
        if self.store is None:
            return None
        # Imported here, not at module level: repro.io pulls in
        # repro.core, whose optimizer imports this module — a top-level
        # import of repro.io.prediction_store makes `import repro.io`
        # (as the first repro import of a process) circular.
        from repro.io.prediction_store import fingerprint_digest, machine_digest

        if self._machine_digest is None:
            md = getattr(self.predictor, "md", None)
            if md is None:
                return None
            self._machine_digest = machine_digest(md)
        w_digest = self._w_digests.get(fingerprint)
        if w_digest is None:
            w_digest = self._w_digests[fingerprint] = fingerprint_digest(
                fingerprint
            )
        return self._machine_digest, w_digest

    def _predict_batch(
        self,
        workload: WorkloadDescription,
        placements: List[Placement],
    ) -> List[Prediction]:
        """Predict the misses, through the batch kernel when available.

        Duck-typed so the engine still accepts any object with a scalar
        ``predict``; the real :class:`PandiaPredictor` exposes
        ``predict_batch``, which matches the scalar path to 1e-12.
        """
        batch = getattr(self.predictor, "predict_batch", None)
        if batch is not None:
            return batch(workload, placements)
        return [self.predictor.predict(workload, p) for p in placements]
