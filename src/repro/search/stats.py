"""Counters describing one engine's search activity.

``SearchStats`` is a typed view over a per-engine
:class:`repro.obs.Metrics` registry (instrument names ``search.*``)
rather than a bag of hand-rolled ints: the same counters the engine
bumps are what ``repro optimize --metrics`` folds into the global
metrics summary.

The invariants the property tests pin down
(``tests/properties/test_search_properties.py``):

* every placement submitted to the engine is exactly one cache request,
  so ``cache_hits + cache_misses == requests`` always;
* only misses reach the predictor, so ``evaluations == cache_misses``;
* the dedup ratio is the fraction of requests answered without a
  predictor call — symmetry duplicates and repeat lookups alike.

Time is split two ways so the parts sum to what a caller observes:
``wall_time_s`` is time spent inside ``evaluate()`` (cache probes +
prediction), ``strategy_time_s`` is the round-driving overhead of
``search()`` outside ``evaluate()`` (candidate generation, refinement,
result assembly).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from repro.obs.metrics import Metrics

#: Integer event counters, in summary order.
_COUNTER_FIELDS = (
    "requests",
    "cache_hits",
    "cache_misses",
    "store_hits",
    "evaluations",
    "fixed_point_iterations",
    "rounds",
    "surrogate_scored",
    "surrogate_verified",
    "surrogate_fallbacks",
)
#: Accumulated-seconds counters.
_TIME_FIELDS = ("wall_time_s", "strategy_time_s")

#: Gauge recording measured surrogate regret (set only when a caller
#: has an exact reference to compare against — benchmarks, tests).
_REGRET_GAUGE = "search.surrogate_regret"

#: Per-evaluation fixed-point iteration histogram: the distribution
#: behind ``mean_iterations``, percentile-queried by ``report()`` and
#: sampled into time series by the dashboard.
_ITERATIONS_HISTOGRAM = "search.iterations"
_ITERATION_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


class SearchStats:
    """Cumulative counters for one :class:`~repro.search.engine.SearchEngine`."""

    __slots__ = ("metrics",)

    def __init__(self, registry: Optional[Metrics] = None) -> None:
        self.metrics = registry if registry is not None else Metrics()
        for name in _COUNTER_FIELDS + _TIME_FIELDS:
            self.metrics.counter(f"search.{name}")
        self.metrics.histogram(_ITERATIONS_HISTOGRAM, _ITERATION_BUCKETS)

    # -- mutation (the engine's write API) -------------------------------

    def inc(self, name: str, amount: Union[int, float] = 1) -> None:
        """Bump one ``search.<name>`` counter."""
        if name not in _COUNTER_FIELDS and name not in _TIME_FIELDS:
            raise KeyError(f"unknown search stat {name!r}")
        self.metrics.counter(f"search.{name}").inc(amount)

    def observe_iterations(self, iterations: Iterable[int]) -> None:
        """Record per-evaluation fixed-point iteration counts.

        Also accumulates the ``fixed_point_iterations`` counter, so
        the engine has one call per predict batch (the histogram takes
        the whole batch under a single lock acquisition).
        """
        values = list(iterations)
        if not values:
            return
        self.metrics.counter("search.fixed_point_iterations").inc(sum(values))
        self.metrics.histogram(
            _ITERATIONS_HISTOGRAM, _ITERATION_BUCKETS
        ).observe_many(values)

    # -- reads ------------------------------------------------------------

    def _value(self, name: str) -> Union[int, float]:
        return self.metrics.counter(f"search.{name}").value

    @property
    def requests(self) -> int:  # placements submitted for evaluation
        return self._value("requests")

    @property
    def cache_hits(self) -> int:  # answered from the cache (incl. in-batch dedup)
        return self._value("cache_hits")

    @property
    def cache_misses(self) -> int:  # required a predictor call
        return self._value("cache_misses")

    @property
    def store_hits(self) -> int:  # answered from the persistent store
        return self._value("store_hits")

    @property
    def evaluations(self) -> int:  # predictor calls actually performed
        return self._value("evaluations")

    @property
    def fixed_point_iterations(self) -> int:  # total iterations across evaluations
        return self._value("fixed_point_iterations")

    @property
    def rounds(self) -> int:  # strategy rounds driven by search()
        return self._value("rounds")

    @property
    def surrogate_scored(self) -> int:  # placements ranked by the surrogate
        return self._value("surrogate_scored")

    @property
    def surrogate_verified(self) -> int:  # top-k placements exact-verified
        return self._value("surrogate_verified")

    @property
    def surrogate_fallbacks(self) -> int:  # searches that fell back to exact
        return self._value("surrogate_fallbacks")

    @property
    def surrogate_regret(self) -> Optional[float]:
        """Measured regret vs. an exact reference; ``None`` until noted."""
        return self.metrics.gauge(_REGRET_GAUGE).value

    def note_surrogate_regret(self, regret: float) -> None:
        """Record measured regret (callers with an exact reference)."""
        self.metrics.gauge(_REGRET_GAUGE).set(float(regret))

    @property
    def surrogate_verify_rate(self) -> float:
        """Fraction of surrogate-scored placements that were exact-verified."""
        if self.surrogate_scored == 0:
            return 0.0
        return self.surrogate_verified / self.surrogate_scored

    @property
    def wall_time_s(self) -> float:  # time spent inside evaluate()
        return float(self._value("wall_time_s"))

    @property
    def strategy_time_s(self) -> float:  # search() time outside evaluate()
        return float(self._value("strategy_time_s"))

    @property
    def dedup_ratio(self) -> float:
        """Fraction of requests served without running the predictor."""
        if self.requests == 0:
            return 0.0
        return 1.0 - self.evaluations / self.requests

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.cache_hits / self.requests

    @property
    def mean_iterations(self) -> float:
        """Fixed-point iterations per predictor evaluation (0 when none ran).

        Guarded so zero-evaluation runs — everything answered by the
        cache, the store or surrogate fallback paths — render 0, never
        a divide-by-zero NaN.
        """
        if self.evaluations == 0:
            return 0.0
        return self.fixed_point_iterations / self.evaluations

    def iterations_percentile(self, q: float) -> float:
        """Interpolated quantile of per-evaluation fixed-point iterations."""
        return self.metrics.histogram(
            _ITERATIONS_HISTOGRAM, _ITERATION_BUCKETS
        ).percentile(q)

    def snapshot(self) -> "SearchStats":
        """An independent copy (e.g. to freeze into a SearchResult)."""
        return SearchStats(self.metrics.snapshot())

    def report(self) -> List[Tuple[str, str]]:
        """(label, value) rows for text and HTML rendering.

        Every rate is zero-guarded: a run with no requests or no
        evaluations (pure store/surrogate hits) renders finite values
        throughout — never NaN.
        """
        regret = self.surrogate_regret
        return [
            ("requests", str(self.requests)),
            ("cache hits", f"{self.cache_hits} ({self.hit_rate:.0%})"),
            ("store hits", str(self.store_hits)),
            (
                "evaluations",
                f"{self.evaluations} (dedup ratio {self.dedup_ratio:.0%}, "
                f"iterations mean {self.mean_iterations:.1f} / "
                f"p50 {self.iterations_percentile(0.50):.1f} / "
                f"p90 {self.iterations_percentile(0.90):.1f})",
            ),
            ("fixed-point iterations", str(self.fixed_point_iterations)),
            (
                "surrogate",
                f"{self.surrogate_scored} scored / "
                f"{self.surrogate_verified} verified "
                f"({self.surrogate_verify_rate:.1%}) / "
                f"{self.surrogate_fallbacks} fallbacks, regret "
                + (f"{regret:.3%}" if regret is not None else "n/a"),
            ),
            ("rounds", str(self.rounds)),
            (
                "wall time",
                f"{self.wall_time_s:.3f} s "
                f"(+ {self.strategy_time_s:.3f} s strategy overhead)",
            ),
        ]

    def summary(self) -> str:
        """Human-readable report (CLI / report output)."""
        rows = self.report()
        width = max(len(label) for label, _ in rows) + 1
        return "\n".join(
            ["search stats:"]
            + [f"  {label + ':':<{width}} {value}" for label, value in rows]
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in _COUNTER_FIELDS + _TIME_FIELDS
        )
        return f"SearchStats({fields})"
