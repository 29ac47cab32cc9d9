"""Thread placements and their enumeration.

A placement assigns each software thread to one hardware context.  On a
homogeneous machine (the paper's assumption: identical cores, identical
sockets, fully-connected interconnect) performance depends only on the
placement's *shape*: per socket, how many cores run one thread and how
many run two.  ``enumerate_canonical`` therefore yields one concrete
representative per shape, with socket order normalised — exactly the
equivalence the paper's placement sort exposes on its x-axes
(Figures 1, 10, 13).

The paper explored every placement on the 32-thread machines (41 868
runs) and a ~20% sample on the 72-thread X5-2; ``sample_canonical``
provides the deterministic sampling equivalent.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlacementError
from repro.hardware.topology import MachineTopology

#: Per-socket shape: (cores running one thread, cores running two threads).
SocketShape = Tuple[int, int]


@dataclass(frozen=True)
class Placement:
    """An assignment of software threads to hardware contexts."""

    topology: MachineTopology
    hw_thread_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hw_thread_ids", tuple(self.hw_thread_ids))
        if not self.hw_thread_ids:
            raise PlacementError(
                f"placement on {self.topology!r} needs at least one thread"
            )
        n_hw_threads = self.topology.n_hw_threads
        seen = set()
        for tid in self.hw_thread_ids:
            if tid < 0 or tid >= n_hw_threads:
                raise PlacementError(
                    f"hardware thread {tid} outside 0..{n_hw_threads - 1}"
                )
            if tid in seen:
                raise PlacementError(f"hardware thread {tid} used twice")
            seen.add(tid)

    # -- structure -------------------------------------------------------

    @property
    def n_threads(self) -> int:
        return len(self.hw_thread_ids)

    def threads_per_core(self) -> Dict[int, int]:
        """Core id -> resident thread count (only occupied cores)."""
        return self.topology.threads_per_core_map(self.hw_thread_ids)

    def active_sockets(self) -> Tuple[int, ...]:
        return self.topology.active_sockets(self.hw_thread_ids)

    def socket_shapes(self) -> Tuple[SocketShape, ...]:
        """Per socket, (#cores with one thread, #cores with two threads)."""
        per_core = self.threads_per_core()
        shapes: List[SocketShape] = []
        for socket in self.topology.sockets:
            ones = sum(1 for c in socket.core_ids if per_core.get(c) == 1)
            twos = sum(1 for c in socket.core_ids if per_core.get(c, 0) >= 2)
            shapes.append((ones, twos))
        return tuple(shapes)

    def canonical_key(self) -> Tuple[SocketShape, ...]:
        """Shape with socket order normalised (descending).

        Memoised: the search engine computes this once per cache lookup,
        so ranking a cached placement set must not re-derive shapes.
        """
        key = self.__dict__.get("_canonical_key")
        if key is None:
            key = tuple(sorted(self.socket_shapes(), reverse=True))
            object.__setattr__(self, "_canonical_key", key)
        return key

    def sort_key(self) -> Tuple[int, ...]:
        """The paper's x-axis order: total threads, then per-core counts.

        Memoised like :meth:`canonical_key`; :func:`from_shapes` stamps
        it, since the per-core counts follow from the shapes.
        """
        key = self.__dict__.get("_sort_key")
        if key is None:
            per_core = self.threads_per_core()
            counts = tuple(per_core.get(c, 0) for c in range(self.topology.n_cores))
            key = (self.n_threads,) + counts
            object.__setattr__(self, "_sort_key", key)
        return key

    def __len__(self) -> int:
        return self.n_threads

    def __str__(self) -> str:
        shapes = self.socket_shapes()
        body = ", ".join(f"s{i}:{o}x1+{t}x2" for i, (o, t) in enumerate(shapes))
        return f"Placement({self.n_threads} threads; {body})"


def from_shapes(
    topology: MachineTopology, shapes: Sequence[SocketShape]
) -> Placement:
    """Build the canonical concrete placement for per-socket shapes.

    Within each socket, dual-thread cores take the lowest core ids,
    then single-thread cores — an arbitrary but fixed choice; any
    concrete layout of the same shape performs identically on a
    homogeneous machine.
    """
    if len(shapes) != topology.n_sockets:
        raise PlacementError(
            f"need one shape per socket ({topology.n_sockets}), got {len(shapes)}"
        )
    tids: List[int] = []
    counts: List[int] = []
    for socket_id, (ones, twos) in enumerate(shapes):
        if ones < 0 or twos < 0:
            raise PlacementError(f"negative shape {shapes[socket_id]}")
        if ones + twos > topology.cores_per_socket:
            raise PlacementError(
                f"socket {socket_id}: shape {shapes[socket_id]} exceeds "
                f"{topology.cores_per_socket} cores"
            )
        if twos > 0 and topology.threads_per_core < 2:
            raise PlacementError(
                f"socket {socket_id}: shape {shapes[socket_id]} needs dual-thread "
                f"cores, but {topology!r} has no SMT contexts"
            )
        core_ids = topology.socket(socket_id).core_ids
        for c in core_ids[:twos]:
            tids.extend(topology.core(c).hw_thread_ids[:2])
        for c in core_ids[twos : twos + ones]:
            tids.append(topology.core(c).hw_thread_ids[0])
        counts += [2] * twos + [1] * ones + [0] * (topology.cores_per_socket - ones - twos)
    placement = Placement(topology, tuple(tids))
    # Both keys are already known: the canonical key is the sorted shape
    # tuple and the sort key's per-core counts follow from the shapes.
    # Stamping the memos saves a threads_per_core pass per placement
    # when sampled sets are sorted, keyed (search cache, surrogate
    # featurizer) and right-sized.
    object.__setattr__(
        placement,
        "_canonical_key",
        tuple(sorted(((int(o), int(t)) for o, t in shapes), reverse=True)),
    )
    object.__setattr__(placement, "_sort_key", (len(tids),) + tuple(counts))
    return placement


def _socket_shape_options(topology: MachineTopology) -> List[SocketShape]:
    cps = topology.cores_per_socket
    max_twos = cps if topology.threads_per_core >= 2 else 0
    return [
        (ones, twos)
        for twos in range(max_twos + 1)
        for ones in range(cps - twos + 1)
    ]


def _iter_shape_combos(
    topology: MachineTopology,
    max_threads: Optional[int] = None,
    max_sockets: Optional[int] = None,
    max_cores: Optional[int] = None,
) -> Iterator[Tuple[SocketShape, ...]]:
    """Lazily yield canonical (socket-order-normalised) shape combos.

    This order defines the ranks :class:`_ShapeSpace` unranks.
    """
    options = _socket_shape_options(topology)
    for combo in itertools.combinations_with_replacement(
        sorted(options, reverse=True), topology.n_sockets
    ):
        n_threads = sum(ones + 2 * twos for ones, twos in combo)
        if n_threads == 0:
            continue
        if max_threads is not None and n_threads > max_threads:
            continue
        if max_sockets is not None:
            active = sum(1 for ones, twos in combo if ones + twos > 0)
            if active > max_sockets:
                continue
        if max_cores is not None:
            cores = sum(ones + twos for ones, twos in combo)
            if cores > max_cores:
                continue
        yield combo


#: What is left of the (threads, cores, active sockets) filters; None
#: means unbounded.
_Budget = Tuple[Optional[int], Optional[int], Optional[int]]


def _spend(budget: _Budget, cost: Tuple[int, int, int]) -> Optional[_Budget]:
    """*budget* minus *cost*, or None when the cost does not fit."""
    rest = []
    for left, used in zip(budget, cost):
        if left is None:
            rest.append(None)
        elif used > left:
            return None
        else:
            rest.append(left - used)
    return tuple(rest)


class _ShapeSpace:
    """The canonical shape combos under one filter set, counted and
    unranked without listing them.

    A combo is a non-decreasing sequence of indices into the descending
    option list, and :func:`_iter_shape_combos` yields them in
    lexicographic order.  For ``k`` sockets still to fill within a
    budget, ``_prefix`` holds per option index ``j`` how many fillings
    start below ``j``; the fillings that start at ``j`` are those of
    ``k - 1`` sockets from options ``j`` on within the budget less
    option ``j``'s cost.  Rows are memoised per (sockets left, budget),
    and a budget the remaining sockets cannot exhaust is dropped to
    unbounded, so the unfiltered space needs one row per socket count
    and its size reduces to C(m + n - 1, n) - 1 for m options and n
    sockets.  The all-idle combo is always last, so ranks below
    ``size`` never reach it.
    """

    def __init__(
        self,
        topology: MachineTopology,
        max_threads: Optional[int] = None,
        max_sockets: Optional[int] = None,
        max_cores: Optional[int] = None,
    ) -> None:
        self.options = sorted(_socket_shape_options(topology), reverse=True)
        self.costs = [(o + 2 * t, o + t, int(o + t > 0)) for o, t in self.options]
        self.n_sockets = topology.n_sockets
        self._ceiling = tuple(max(cost[d] for cost in self.costs) for d in range(3))
        self._rows: Dict[Tuple[int, _Budget], List[int]] = {}
        self._root = self._clamp(self.n_sockets, (max_threads, max_cores, max_sockets))
        # The all-idle combo fits every budget unless one is negative,
        # and then nothing fits.
        self.size = max(self._prefix(self.n_sockets, self._root)[-1] - 1, 0)

    def _clamp(self, k: int, budget: _Budget) -> _Budget:
        return tuple(
            None if left is not None and left >= k * cap else left
            for left, cap in zip(budget, self._ceiling)
        )

    def _prefix(self, k: int, budget: _Budget) -> List[int]:
        row = self._rows.get((k, budget))
        if row is None:
            row = [0]
            total = 0
            for j, cost in enumerate(self.costs):
                rest = _spend(budget, cost)
                if rest is not None:
                    if k == 1:
                        total += 1
                    else:
                        tail = self._prefix(k - 1, self._clamp(k - 1, rest))
                        total += tail[-1] - tail[j]
                row.append(total)
            self._rows[(k, budget)] = row
        return row

    def unrank(self, rank: int) -> Tuple[SocketShape, ...]:
        """The combo at *rank* (``0 <= rank < size``) in
        :func:`_iter_shape_combos` order."""
        combo: List[SocketShape] = []
        budget, start = self._root, 0
        for k in range(self.n_sockets, 0, -1):
            row = self._prefix(k, budget)
            target = row[start] + rank
            start = bisect.bisect_right(row, target) - 1
            rank = target - row[start]
            combo.append(self.options[start])
            budget = self._clamp(k - 1, _spend(budget, self.costs[start]))
        return tuple(combo)


def count_canonical(topology: MachineTopology, **filters) -> int:
    """How many canonical placements exist under the given filters.

    Counted, not enumerated: the 4-socket X2-4 has 864 500.
    """
    return _ShapeSpace(topology, **filters).size


def enumerate_canonical(
    topology: MachineTopology,
    max_threads: Optional[int] = None,
    max_sockets: Optional[int] = None,
    max_cores: Optional[int] = None,
) -> List[Placement]:
    """All canonical placements, in the paper's sort order.

    One representative per shape equivalence class; socket order is
    normalised (non-increasing shapes) so mirrored placements are not
    duplicated.  Optional filters restrict the set, matching the
    Figure 12 placement classes: ``max_sockets`` bounds how many sockets
    may be active and ``max_cores`` bounds the number of occupied cores.
    """
    placements = [
        from_shapes(topology, combo)
        for combo in _iter_shape_combos(
            topology,
            max_threads=max_threads,
            max_sockets=max_sockets,
            max_cores=max_cores,
        )
    ]
    placements.sort(key=Placement.sort_key)
    return placements


def sample_canonical(
    topology: MachineTopology,
    max_count: int,
    seed: int = 0,
    **filters,
) -> List[Placement]:
    """A deterministic sample of canonical placements in sort order.

    Mirrors the paper's ~20% sampling on the X5-2.  The canonical space
    (under the filters, which are those of :func:`enumerate_canonical`)
    is counted rather than listed — the 4-socket machine has ~10^6
    shape combos — and ``max_count`` ranks are drawn without
    replacement with a fixed seed, so every experiment sees the same
    placements.  Each rank is unranked straight to its shape combo in
    enumeration order; a space no larger than ``max_count`` is returned
    whole.
    """
    if max_count < 1:
        raise PlacementError(f"sample size must be >= 1, got {max_count}")
    space = _ShapeSpace(topology, **filters)
    ranks: Sequence[int] = range(space.size)
    if space.size > max_count:
        ranks = sorted(random.Random(seed).sample(ranks, max_count))
    placements = [from_shapes(topology, space.unrank(rank)) for rank in ranks]
    placements.sort(key=Placement.sort_key)
    return placements
