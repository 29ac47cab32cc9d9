"""Exporters: Chrome ``trace_event`` JSON, JSONL span logs, summaries.

``write_chrome_trace`` produces a file loadable in ``about:tracing`` or
`Perfetto <https://ui.perfetto.dev>`_: paired ``B``/``E`` duration
events per span, grouped by (pid, tid) tracks, timestamps normalised to
the earliest span.  ``validate_chrome_trace`` enforces the schema the
CI step checks — every ``B`` matched by an ``E`` with the same name on
the same (pid, tid) stack, non-decreasing timestamps per track,
consistent pid/tid types — and returns basic counts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.obs.trace import Span

PathLike = Union[str, Path]


def _json_safe(value: Any) -> Any:
    """Clamp attr values to what JSON (and trace viewers) accept."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


def chrome_trace_events(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Spans as a Chrome ``traceEvents`` list (paired B/E events).

    Spans within one (pid, tid) follow stack discipline by
    construction; sorting by (start, -duration) and closing finished
    spans before opening later ones reproduces that nesting in the
    B/E stream even if the buffer arrives shuffled.
    """
    by_track: Dict[Tuple[int, int], List[Span]] = {}
    t0 = min((s.start_ns for s in spans), default=0)
    for span in spans:
        by_track.setdefault((span.pid, span.tid), []).append(span)

    events: List[Dict[str, Any]] = []
    for (pid, tid), track in sorted(by_track.items()):
        track.sort(key=lambda s: (s.start_ns, -s.dur_ns))
        open_stack: List[Span] = []
        for span in track:
            while open_stack and open_stack[-1].end_ns <= span.start_ns:
                done = open_stack.pop()
                events.append(
                    {"name": done.name, "ph": "E", "ts": (done.end_ns - t0) / 1e3,
                     "pid": pid, "tid": tid}
                )
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "B",
                    "ts": (span.start_ns - t0) / 1e3,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "cpu_ms": span.cpu_ns / 1e6,
                        **{k: _json_safe(v) for k, v in span.attrs.items()},
                    },
                }
            )
            open_stack.append(span)
        while open_stack:
            done = open_stack.pop()
            events.append(
                {"name": done.name, "ph": "E", "ts": (done.end_ns - t0) / 1e3,
                 "pid": pid, "tid": tid}
            )
    return events


def to_chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """The full Chrome trace document."""
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(path: PathLike, spans: Sequence[Span]) -> Path:
    out = Path(path)
    out.write_text(json.dumps(to_chrome_trace(spans), indent=1, sort_keys=True))
    return out


def write_spans_jsonl(path: PathLike, spans: Iterable[Span]) -> Path:
    """One JSON object per line per span (grep/jq-friendly log)."""
    out = Path(path)
    with out.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(_json_safe(span.to_dict()), sort_keys=True))
            handle.write("\n")
    return out


def read_spans_jsonl(path: PathLike) -> List[Span]:
    """Load a span log written by :func:`write_spans_jsonl`.

    The inverse of the JSONL exporter, used by ``pandia profile`` to
    fold a recorded trace offline.  Rows missing the span-id/name core
    raise ``ValueError`` naming the file and line.
    """
    spans: List[Span] = []
    source = Path(path)
    with source.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            try:
                spans.append(
                    Span(
                        name=row["name"],
                        span_id=row["span_id"],
                        parent_id=row.get("parent_id"),
                        pid=row["pid"],
                        tid=row["tid"],
                        start_ns=row["start_ns"],
                        dur_ns=row.get("dur_ns", 0),
                        cpu_ns=row.get("cpu_ns", 0),
                        attrs=row.get("attrs", {}) or {},
                    )
                )
            except KeyError as exc:
                raise ValueError(
                    f"{source}:{lineno}: span row missing {exc.args[0]!r}"
                ) from None
    return spans


def validate_chrome_trace(document: Dict[str, Any]) -> Dict[str, int]:
    """Schema-check a Chrome trace document; raise ``ValueError`` on
    violations, return ``{"events": n, "spans": n, "tracks": n}``.

    Checks (the CI contract): top-level ``traceEvents`` list; every
    event has ``name``/``ph``/``pid``/``tid`` (ints for pid/tid) and a
    numeric ``ts``; per (pid, tid) track timestamps are non-decreasing;
    ``B``/``E`` follow stack discipline with matching names, so every
    ``B`` has exactly one ``E``.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace: missing top-level 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")

    stacks: Dict[Tuple[int, int], List[str]] = {}
    last_ts: Dict[Tuple[int, int], float] = {}
    spans = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {i} missing {key!r}")
        phase = event["ph"]
        if phase == "M":  # metadata events carry no timestamp semantics
            continue
        if phase not in ("B", "E", "X", "i", "C"):
            raise ValueError(f"event {i}: unsupported phase {phase!r}")
        if not isinstance(event["pid"], int) or not isinstance(event["tid"], int):
            raise ValueError(f"event {i}: pid/tid must be integers")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i}: bad ts {ts!r}")
        track = (event["pid"], event["tid"])
        if ts < last_ts.get(track, 0.0):
            raise ValueError(
                f"event {i}: ts moves backwards on track pid={track[0]} tid={track[1]}"
            )
        last_ts[track] = ts
        if phase == "B":
            stacks.setdefault(track, []).append(event["name"])
            spans += 1
        elif phase == "E":
            stack = stacks.get(track)
            if not stack:
                raise ValueError(f"event {i}: 'E' with no open 'B' on its track")
            opened = stack.pop()
            if opened != event["name"]:
                raise ValueError(
                    f"event {i}: 'E' name {event['name']!r} does not match "
                    f"open 'B' {opened!r}"
                )
    dangling = {track: stack for track, stack in stacks.items() if stack}
    if dangling:
        raise ValueError(f"unclosed 'B' events: {dangling}")
    return {"events": len(events), "spans": spans, "tracks": len(last_ts)}


def validate_chrome_trace_file(path: PathLike) -> Dict[str, int]:
    """Load and validate a trace file (the CI entry point)."""
    with Path(path).open() as handle:
        return validate_chrome_trace(json.load(handle))
