"""Disk-backed store for converged predictions.

The search engine's in-memory LRU dies with the process; this store is
the cross-session layer beneath it.  Records are keyed by

* a **machine digest** — a hash of the machine description's stable
  JSON serialisation, so a re-measured machine silently invalidates
  every prediction made under the old description;
* a **workload digest** — a hash of
  :func:`repro.search.canonical.workload_fingerprint`, covering every
  model parameter the predictor reads;
* a **canonical placement key** — the same symmetry class the search
  cache uses (:func:`repro.search.canonical.canonical_key`), so one
  record answers for every concrete placement in the class.

Layout, one shard per (machine, workload) pair::

    <root>/<machine_digest>/<workload_digest>.json

Shards are loaded lazily, mutated in memory, and written atomically
(temp file + rename) on :meth:`flush`.  A corrupt or truncated shard
raises :class:`~repro.errors.ModelError` naming the offending file —
never a bare ``json`` decode error.

Joint co-schedule predictions (:mod:`repro.core.coscheduling`) are kept
in the same shards' ``joint`` namespace under the *machine* digest and
a name-free key built from every job's workload digest and concrete
thread ids; outcomes are re-labelled for the requesting job order on
the way out.

Readers take only the fields they need, so records carrying fields
this version no longer writes still load as hits under the same
``STORE_VERSION``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.coscheduling import CoSchedulePrediction, WorkloadOutcome
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.core.predictor import Prediction, ResourceKey
from repro.errors import ModelError
from repro.io.serialization import machine_description_to_json

#: Bump when the record schema changes; mismatched shards are ignored
#: as a whole (stale cache, not an error).
STORE_VERSION = 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def machine_digest(md: MachineDescription) -> str:
    """Stable identity of a machine description's model content."""
    return _digest(machine_description_to_json(md))


def fingerprint_digest(fingerprint: Tuple[Hashable, ...]) -> str:
    """Stable identity of a workload fingerprint tuple."""
    return _digest(repr(fingerprint))


def _encode(value):
    """JSON-safe recursive encoding (tuples become tagged lists)."""
    if isinstance(value, tuple):
        return {"t": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, dict) and set(value) == {"t"}:
        return tuple(_decode(v) for v in value["t"])
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _encode_resources(mapping: Dict[ResourceKey, float]) -> List[list]:
    return [[_encode(key), float(v)] for key, v in mapping.items()]


def _decode_resources(items: List[list]) -> Dict[ResourceKey, float]:
    return {_decode(key): float(v) for key, v in items}


class PredictionStore:
    """Persistent map from placement symmetry classes to predictions."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._shards: Dict[Tuple[str, str], Dict[str, dict]] = {}
        self._dirty: Set[Tuple[str, str]] = set()

    # -- shards ----------------------------------------------------------

    def shard_path(self, m_digest: str, w_digest: str) -> Path:
        return self.root / m_digest / f"{w_digest}.json"

    def _shard(self, m_digest: str, w_digest: str) -> Dict[str, dict]:
        ident = (m_digest, w_digest)
        shard = self._shards.get(ident)
        if shard is None:
            path = self.shard_path(m_digest, w_digest)
            shard = {"solo": {}, "joint": {}}
            if path.exists():
                try:
                    data = json.loads(path.read_text())
                    if not isinstance(data, dict):
                        raise ValueError("shard root is not an object")
                    if data.get("version") == STORE_VERSION:
                        shard = {
                            "solo": dict(data["solo"]),
                            "joint": dict(data["joint"]),
                        }
                except (ValueError, KeyError, TypeError) as exc:
                    # json.JSONDecodeError is a ValueError: corrupt and
                    # truncated shards land here alike.
                    raise ModelError(
                        f"corrupt prediction store shard at {path}: {exc}"
                    ) from exc
            self._shards[ident] = shard
        return shard

    def flush(self) -> None:
        """Write every dirty shard atomically (temp file + rename)."""
        for ident in sorted(self._dirty):
            shard = self._shards[ident]
            path = self.shard_path(*ident)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(
                {
                    "version": STORE_VERSION,
                    "solo": shard["solo"],
                    "joint": shard["joint"],
                }
            )
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(payload)
            os.replace(tmp, path)
        self._dirty.clear()

    def __enter__(self) -> "PredictionStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    # -- solo predictions -------------------------------------------------

    def get_prediction(
        self,
        m_digest: str,
        w_digest: str,
        key: Tuple[Hashable, ...],
        placement: Placement,
    ) -> Optional[Prediction]:
        """The stored prediction for *key*, rebuilt onto *placement*
        (any concrete member of the symmetry class), or ``None``."""
        record = self._shard(m_digest, w_digest)["solo"].get(repr(key))
        if record is None:
            return None
        return Prediction(
            workload_name=record["workload_name"],
            machine_name=record["machine_name"],
            placement=placement,
            amdahl=record["amdahl"],
            speedup=record["speedup"],
            predicted_time_s=record["predicted_time_s"],
            slowdowns=tuple(record["slowdowns"]),
            utilisations=tuple(record["utilisations"]),
            iterations=record["iterations"],
            converged=record["converged"],
            trace=[],
            resource_loads=_decode_resources(record["resource_loads"]),
            resource_capacities=_decode_resources(record["resource_capacities"]),
        )

    def put_prediction(
        self,
        m_digest: str,
        w_digest: str,
        key: Tuple[Hashable, ...],
        prediction: Prediction,
    ) -> None:
        shard = self._shard(m_digest, w_digest)
        shard["solo"][repr(key)] = {
            "workload_name": prediction.workload_name,
            "machine_name": prediction.machine_name,
            "amdahl": prediction.amdahl,
            "speedup": prediction.speedup,
            "predicted_time_s": prediction.predicted_time_s,
            "slowdowns": list(prediction.slowdowns),
            "utilisations": list(prediction.utilisations),
            "iterations": prediction.iterations,
            "converged": prediction.converged,
            "resource_loads": _encode_resources(prediction.resource_loads),
            "resource_capacities": _encode_resources(
                prediction.resource_capacities
            ),
        }
        self._dirty.add((m_digest, w_digest))

    # -- joint co-schedule predictions ------------------------------------

    @staticmethod
    def joint_key(
        w_digests: Sequence[str], placements: Sequence[Placement]
    ) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """Name-free identity of a co-schedule: every job's workload
        digest with its concrete sorted thread ids, order-normalised.
        Concrete ids (not symmetry classes) because the jobs' *relative*
        layout determines the joint fixed point."""
        return tuple(
            sorted(
                (wd, tuple(sorted(p.hw_thread_ids)))
                for wd, p in zip(w_digests, placements)
            )
        )

    def get_joint(
        self, m_digest: str, key: Tuple[Tuple[str, Tuple[int, ...]], ...]
    ) -> Optional[CoSchedulePrediction]:
        """The stored joint prediction, with outcomes in *key* order."""
        record = self._shard(m_digest, "joint")["joint"].get(repr(key))
        if record is None:
            return None
        outcomes = [
            WorkloadOutcome(
                workload_name=o["workload_name"],
                amdahl=o["amdahl"],
                speedup=o["speedup"],
                predicted_time_s=o["predicted_time_s"],
                slowdowns=tuple(o["slowdowns"]),
            )
            for o in record["outcomes"]
        ]
        return CoSchedulePrediction(
            outcomes=outcomes,
            iterations=record["iterations"],
            converged=record["converged"],
            resource_loads=_decode_resources(record["resource_loads"]),
            resource_capacities=_decode_resources(record["resource_capacities"]),
        )

    def put_joint(
        self,
        m_digest: str,
        key: Tuple[Tuple[str, Tuple[int, ...]], ...],
        prediction: CoSchedulePrediction,
        outcome_order: Sequence[int],
    ) -> None:
        """Store *prediction* with outcomes permuted into *key* order —
        ``outcome_order[i]`` is the outcome index for key entry ``i``."""
        shard = self._shard(m_digest, "joint")
        shard["joint"][repr(key)] = {
            "outcomes": [
                {
                    "workload_name": o.workload_name,
                    "amdahl": o.amdahl,
                    "speedup": o.speedup,
                    "predicted_time_s": o.predicted_time_s,
                    "slowdowns": list(o.slowdowns),
                }
                for o in (prediction.outcomes[i] for i in outcome_order)
            ],
            "iterations": prediction.iterations,
            "converged": prediction.converged,
            "resource_loads": _encode_resources(prediction.resource_loads),
            "resource_capacities": _encode_resources(
                prediction.resource_capacities
            ),
        }
        self._dirty.add((m_digest, "joint"))
