"""Span-tree profiling: folded stacks, hot-path tables, SVG flamegraphs.

The tracer's flat finished-span buffer is folded here into an
aggregate call tree:

* :func:`aggregate` — one :class:`Frame` per distinct name-path, with
  total/self wall time and visit counts; sibling spans with the same
  name merge, so ten thousand ``search.evaluate`` spans become one
  frame with ``count=10000``;
* :func:`folded_stacks` — the classic ``a;b;c <value>`` folded-stack
  lines (self time, microseconds) that any flamegraph tool ingests;
* :func:`hot_table` — per-name attribution rows sorted by self time,
  the "where is the time actually going" answer;
* :func:`flamegraph_svg` — a self-contained SVG flamegraph (no
  scripts, no external fonts) embeddable in the HTML dashboard.

Wall-time accounting: a frame's *self* time is its total minus its
children's total, floored at zero.  Under thread/process fan-out a
parent's children can sum to more than the parent's wall time
(parallelism); the flamegraph renderer rescales such children to fit
the parent's box, so the **root frame width always equals the run's
wall time** — the invariant the dashboard acceptance test pins.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from repro.obs.trace import Span

__all__ = [
    "Frame",
    "aggregate",
    "flamegraph_svg",
    "folded_stacks",
    "hot_table",
]

#: Synthetic root used when a trace has more than one top-level span.
ROOT_NAME = "run"


@dataclass
class Frame:
    """One aggregated node of the profile tree."""

    name: str
    total_ns: int = 0
    count: int = 0
    children: Dict[str, "Frame"] = field(default_factory=dict)

    @property
    def child_total_ns(self) -> int:
        return sum(child.total_ns for child in self.children.values())

    @property
    def self_ns(self) -> int:
        """Wall time not attributed to any child (floored at zero)."""
        return max(0, self.total_ns - self.child_total_ns)

    def walk(self, depth: int = 0):
        """Depth-first ``(frame, depth)`` pairs, children name-sorted."""
        yield self, depth
        for name in sorted(self.children):
            yield from self.children[name].walk(depth + 1)


def aggregate(spans: Sequence[Span]) -> Frame:
    """Fold a finished-span buffer into one aggregate :class:`Frame` tree.

    Spans whose parent is missing from the buffer (or ``None``) are
    top-level.  A single top-level name becomes the root directly; a
    multi-rooted trace gets a synthetic ``run`` root whose total is the
    sum of the top-level spans.
    """
    by_id = {span.span_id: span for span in spans}
    children_of: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children_of.setdefault(parent, []).append(span)

    def build(into: Frame, group: List[Span]) -> None:
        for span in sorted(group, key=lambda s: (s.name, s.start_ns)):
            frame = into.children.get(span.name)
            if frame is None:
                frame = into.children[span.name] = Frame(span.name)
            frame.total_ns += span.dur_ns
            frame.count += 1
            kids = children_of.get(span.span_id)
            if kids:
                build(frame, kids)

    top = Frame(ROOT_NAME)
    build(top, children_of.get(None, []))
    if len(top.children) == 1:
        return next(iter(top.children.values()))
    top.total_ns = top.child_total_ns
    top.count = sum(child.count for child in top.children.values())
    return top


def folded_stacks(spans: Sequence[Span]) -> List[Tuple[str, int]]:
    """Folded-stack lines: ``(path, self_time_us)``, path-sorted.

    The values are *self* times, so summing every line reproduces the
    root's total — the folded-format contract flamegraph tools expect.
    """
    root = aggregate(spans)
    lines: List[Tuple[str, int]] = []

    def descend(frame: Frame, prefix: str) -> None:
        path = f"{prefix};{frame.name}" if prefix else frame.name
        self_us = frame.self_ns // 1000
        if self_us > 0 or not frame.children:
            lines.append((path, self_us))
        for name in sorted(frame.children):
            descend(frame.children[name], path)

    descend(root, "")
    return lines


def hot_table(
    spans: Sequence[Span], top: int = 10
) -> List[Tuple[str, int, float, float, float]]:
    """Per-name attribution rows: ``(name, count, total_ms, self_ms, self_pct)``.

    Self time is summed across every occurrence of the name in the
    tree, sorted descending, truncated to ``top`` rows.  Percentages
    are of the root's wall time.
    """
    root = aggregate(spans)
    by_name: Dict[str, List[int]] = {}
    for frame, _depth in root.walk():
        cell = by_name.setdefault(frame.name, [0, 0, 0])
        cell[0] += frame.count
        cell[1] += frame.total_ns
        cell[2] += frame.self_ns
    wall = max(1, root.total_ns)
    rows = [
        (name, count, total / 1e6, self_ns / 1e6, 100.0 * self_ns / wall)
        for name, (count, total, self_ns) in by_name.items()
    ]
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows[:top]


# -- flamegraph rendering -----------------------------------------------------

_ROW_H = 18
_MIN_W = 0.4  # px; thinner boxes are dropped (unreadable anyway)


def _frame_colour(name: str) -> str:
    """Deterministic warm colour per name (md5, not the seeded hash())."""
    digest = hashlib.md5(name.encode()).digest()
    red = 205 + digest[0] % 50
    green = 90 + digest[1] % 110
    blue = digest[2] % 55
    return f"rgb({red},{green},{blue})"


def flamegraph_svg(
    spans: Sequence[Span],
    title: str = "flamegraph",
    width: int = 1180,
) -> str:
    """A standalone SVG flamegraph of the aggregated span tree.

    Each frame is a box whose width is proportional to its wall time;
    children that over-subscribe their parent (parallel executors) are
    rescaled to fit, keeping the root box exactly the run's wall time.
    Hover shows name, wall ms and visit count via ``<title>``.
    """
    root = aggregate(spans)
    boxes: List[Tuple[Frame, int, float, float]] = []  # frame, depth, x, w

    def layout(frame: Frame, depth: int, x: float, w: float) -> None:
        boxes.append((frame, depth, x, w))
        child_sum = frame.child_total_ns
        if child_sum <= 0:
            return
        if frame.total_ns <= 0:
            return
        # Parallel children may sum past the parent's wall time; scale
        # them down so the row never overflows the parent's box.
        scale = min(1.0, frame.total_ns / child_sum)
        cx = x
        for name in sorted(frame.children):
            child = frame.children[name]
            cw = w * (child.total_ns * scale / frame.total_ns)
            layout(child, depth + 1, cx, cw)
            cx += cw

    layout(root, 0, 0.0, float(width))
    depth_max = max(depth for _, depth, _, _ in boxes)
    height = (depth_max + 1) * _ROW_H + 26
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="11" '
        f'class="repro-flamegraph" data-root-ns="{root.total_ns}">',
        f'<rect width="{width}" height="{height}" fill="#fdf6ec"/>',
        f'<text x="6" y="14">{escape(title)} — root '
        f"{root.total_ns / 1e6:.1f} ms</text>",
    ]
    for frame, depth, x, w in boxes:
        if w < _MIN_W:
            continue
        y = 22 + depth * _ROW_H
        label = (
            f"{frame.name}: {frame.total_ns / 1e6:.2f} ms "
            f"({frame.count} span{'s' if frame.count != 1 else ''})"
        )
        parts.append(
            f'<g class="frame" data-name="{escape(frame.name)}">'
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{_ROW_H - 2}" '
            f'fill="{_frame_colour(frame.name)}" rx="1">'
            f"<title>{escape(label)}</title></rect>"
        )
        # ~6.2 px per monospace glyph at 11px; drop labels that cannot fit.
        visible = int(w // 6.2)
        if visible >= 3:
            text = frame.name if len(frame.name) <= visible else (
                frame.name[: max(1, visible - 1)] + "…"
            )
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + 12}">{escape(text)}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
