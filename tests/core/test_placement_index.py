"""Golden oracle for the canonical-space sampler.

``sample_canonical`` counts the canonical space and unranks each sampled
rank straight to its shape combo.  The reference here is the list-based
sampler it replaced: list every combo in enumeration order, draw
``rng.sample(range(N), k)`` and index the list.  ``random.sample`` over a
``range`` depends only on N and k, so both must return the same
placements for every machine, seed, sample size and filter set.
"""

import random

import pytest

from repro.core.optimizer import _footprint
from repro.core.placement import (
    Placement,
    _iter_shape_combos,
    count_canonical,
    enumerate_canonical,
    from_shapes,
    sample_canonical,
)
from repro.hardware import machines

SEEDS = (0, 1, 7)
SAMPLE_SIZES = (1, 4, 400)
#: Spaces up to this size are also sampled whole (k >= N).
WHOLE_SPACE_LIMIT = 20_000
FILTER_SETS = ("none", "max_threads", "max_sockets", "max_cores", "combined")
#: Machines whose whole filtered spaces are cheap to enumerate.
SMALL_MACHINES = ("FIG3", "TESTBOX", "X3-2", "X4-2")


def _filters(topology, name):
    """The filter set *name* on *topology*; the socket and core bounds
    are Figure 12's four-socket classes."""
    half = {"max_threads": topology.n_hw_threads // 2}
    return {
        "none": {},
        "max_threads": half,
        "max_sockets": {"max_sockets": 2},
        "max_cores": {"max_cores": 20},
        "combined": {**half, "max_sockets": 2, "max_cores": 20},
    }[name]


def _unstamped(topology, placement):
    """The same hardware threads without ``from_shapes``' memo stamps."""
    return Placement(topology, placement.hw_thread_ids)


def reference_sample(topology, combos, max_count, seed):
    """The list-based sampler over the listed space *combos*.

    Placements are sorted by keys derived from their hardware threads,
    not by the stamps under test.
    """
    if len(combos) > max_count:
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(len(combos)), max_count))
        combos = [combos[i] for i in chosen]
    placements = [_unstamped(topology, from_shapes(topology, c)) for c in combos]
    placements.sort(key=lambda p: p.sort_key())
    return placements


@pytest.mark.parametrize("filter_set", FILTER_SETS)
@pytest.mark.parametrize("machine_name", machines.names())
def test_sample_matches_the_list_based_sampler(machine_name, filter_set):
    topology = machines.get(machine_name).topology
    filters = _filters(topology, filter_set)
    combos = list(_iter_shape_combos(topology, **filters))
    assert count_canonical(topology, **filters) == len(combos)
    cases = [(k, seed) for k in SAMPLE_SIZES for seed in SEEDS]
    if len(combos) <= WHOLE_SPACE_LIMIT:
        cases.append((len(combos), 0))  # the whole space; no draw, any seed
    for k, seed in cases:
        got = sample_canonical(topology, k, seed=seed, **filters)
        want = reference_sample(topology, combos, k, seed)
        assert [p.hw_thread_ids for p in got] == [p.hw_thread_ids for p in want], (
            f"{machine_name} {filters} k={k} seed={seed}"
        )


class TestCount:
    def test_four_socket_space(self):
        assert count_canonical(machines.get("X2-4").topology) == 864_500

    def test_x5_2_space(self):
        assert count_canonical(machines.get("X5-2").topology) == 18_144

    @pytest.mark.parametrize("filter_set", FILTER_SETS)
    @pytest.mark.parametrize("machine_name", SMALL_MACHINES)
    def test_count_matches_the_enumeration(self, machine_name, filter_set):
        topology = machines.get(machine_name).topology
        filters = _filters(topology, filter_set)
        assert count_canonical(topology, **filters) == len(
            enumerate_canonical(topology, **filters)
        )

    @pytest.mark.parametrize(
        "filters", [{"max_threads": 0}, {"max_sockets": 0}, {"max_cores": -1}]
    )
    def test_empty_spaces_sample_nothing(self, filters):
        topology = machines.get("TESTBOX").topology
        assert count_canonical(topology, **filters) == 0
        assert sample_canonical(topology, 10, **filters) == []


class TestStamps:
    """``from_shapes`` stamps the keys; they must equal the derived ones."""

    @pytest.mark.parametrize("machine_name", machines.names())
    def test_stamped_keys_match_derived_keys(self, machine_name):
        topology = machines.get(machine_name).topology
        for placement in sample_canonical(topology, 200, seed=1):
            fresh = _unstamped(topology, placement)
            assert placement.sort_key() == fresh.sort_key()
            assert placement.canonical_key() == fresh.canonical_key()
            assert _footprint(placement) == (
                fresh.n_threads,
                len(fresh.threads_per_core()),
                len(fresh.active_sockets()),
            )
