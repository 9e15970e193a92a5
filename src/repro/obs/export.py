"""Exposition-format exports of the unified observability data:
Perfetto / chrome://tracing JSON plus Prometheus text-format helpers.

The payload of one run holds three process rows (plus the request and
routing rows described in :func:`perfetto_payload`):

* **pid 1 — simulated device**: the per-stage kernel timeline, a view
  over the :class:`~repro.obs.device.DeviceTrace` records (one thread
  row per stage, restart instants and the cumulative global-traffic
  counter on tid 0; :func:`~repro.obs.device.stage_timeline_events`);
* **pid 2 — pipeline spans**: the driver's nested host-side span tree
  (:mod:`repro.obs.span`) as ``X`` events on a single track — Perfetto
  nests contained slices automatically — plus span events (restarts,
  aborts, degradation) as instant events;
* **pid 3 — per-SM tracks** of the same device trace, plus the
  chunk-pool occupancy and scratchpad counters.

:func:`validate_perfetto` is the schema check used by the tests and CI:
it verifies the JSON object model and that ``X`` slices on one
``(pid, tid)`` row are either disjoint or properly nested — the exact
property an unconditional zero-duration clamp would violate.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .device import sm_track_events, stage_timeline_events
from .span import Span

__all__ = [
    "span_events",
    "perfetto_payload",
    "summa_perfetto_payload",
    "write_perfetto",
    "validate_perfetto",
    "validate_perfetto_file",
    "sanitize_metric_name",
    "sanitize_label_name",
    "parse_prometheus_text",
]

# ------------------------------------------------- Prometheus text format
#
# Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* and label names
# [a-zA-Z_][a-zA-Z0-9_]* (exposition format 0.0.4).  Names derived from
# matrix identifiers ("ca-AstroPh", "webbase-1M", "uniform-a1.5-0")
# contain '-' and '.' and would produce an unscrapable export, so every
# name is sanitized at registration time; label *values* may carry any
# character and are escaped instead.

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*?)\})?"
    r" (?P<value>\S+)"
    # OpenMetrics-style exemplar suffix on histogram bucket lines:
    # ` # {trace_id="..."} 4.2 [timestamp]`
    r"(?: # \{(?P<exemplar>[^}]*)\} (?P<exemplar_value>\S+)"
    r"(?: (?P<exemplar_ts>\S+))?)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"'
)


def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus metric name.

    Every illegal character becomes ``_``; a leading digit gains a ``_``
    prefix.  Legal names pass through unchanged, so the function is
    idempotent.
    """
    name = str(name)
    if _METRIC_NAME_RE.match(name):
        return name
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def sanitize_label_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus label name (idempotent)."""
    name = str(name)
    if _LABEL_NAME_RE.match(name):
        return name
    name = re.sub(r"[^a-zA-Z0-9_]", "_", name) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus_text(text: str) -> dict:
    """Parse exposition format 0.0.4 back into a structured document.

    Returns ``{"samples": {name: [(labels_dict, value), ...]},
    "types": {name: kind}, "help": {name: help},
    "exemplars": {name: [(labels, exemplar_labels, value), ...]}}``.
    Used by the round-trip tests to prove our exports are scrapable;
    raises ``ValueError`` on any line a Prometheus scraper would
    reject.  OpenMetrics-style exemplar suffixes on histogram bucket
    lines are parsed (and validated) rather than rejected.
    """
    samples: dict[str, list] = {}
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    exemplars: dict[str, list] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, doc = rest.partition(" ")
            if not _METRIC_NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad HELP name {name!r}")
            helps[name] = doc
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if not _METRIC_NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad TYPE name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: bad TYPE kind {kind!r}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_LINE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        labels: dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            pos = 0
            while pos < len(raw):
                pair = _LABEL_PAIR_RE.match(raw, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: malformed labels {raw!r} "
                        f"(at offset {pos})"
                    )
                labels[pair.group("name")] = _unescape_label(
                    pair.group("value")
                )
                pos = pair.end()
                if pos < len(raw):
                    if raw[pos] != ",":
                        raise ValueError(
                            f"line {lineno}: expected ',' in labels {raw!r}"
                        )
                    pos += 1
        if m.group("exemplar") is not None:
            ex_labels: dict[str, str] = {}
            raw_ex = m.group("exemplar")
            pos = 0
            while pos < len(raw_ex):
                pair = _LABEL_PAIR_RE.match(raw_ex, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: malformed exemplar {raw_ex!r}"
                    )
                ex_labels[pair.group("name")] = _unescape_label(
                    pair.group("value")
                )
                pos = pair.end()
                if pos < len(raw_ex):
                    if raw_ex[pos] != ",":
                        raise ValueError(
                            f"line {lineno}: expected ',' in exemplar "
                            f"{raw_ex!r}"
                        )
                    pos += 1
            float(m.group("exemplar_value"))  # must be numeric to scrape
            exemplars.setdefault(m.group("name"), []).append(
                (labels, ex_labels, float(m.group("exemplar_value")))
            )
        samples.setdefault(m.group("name"), []).append(
            (labels, float(m.group("value")))
        )
    return {
        "samples": samples,
        "types": types,
        "help": helps,
        "exemplars": exemplars,
    }

SPAN_PID = 2
REQUEST_PID = 4
ROUTING_PID = 5
#: multi-device SUMMA exports: device ``d``'s span subtree lands on pid
#: ``SUMMA_SPAN_PID_BASE + d`` and its per-SM tracks on
#: ``SUMMA_SM_PID_BASE + d`` — distinct process rows per device, as the
#: node timeline would otherwise interleave P devices on one track
SUMMA_SPAN_PID_BASE = 10
SUMMA_SM_PID_BASE = 40
_EPS = 1e-9

_META_NAMES = {
    "process_name",
    "process_sort_index",
    "thread_name",
    "thread_sort_index",
}


def span_events(
    root: Span,
    clock_ghz: float,
    *,
    pid: int = SPAN_PID,
    tid: int = 1,
    offset: float = 0.0,
    names: tuple[str, str] | None = ("pipeline spans", "host pipeline"),
    prune=None,
) -> list[dict]:
    """Chrome-trace events for one span tree (plus name metadata).

    ``offset`` moves every stamp onto another clock (a SUMMA tile's
    subtree onto the node clock); it is added here, in presentation
    floats only, so the span tree keeps the clock its reconcile checks
    run on.  ``names`` are the process and thread names of the row
    (``None``: the caller names it), and the walk does not descend into
    a span for which ``prune(span)`` is true.
    """
    us = 1e6 / (clock_ghz * 1e9)
    events: list[dict] = [
        {"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}
        for kind, name in zip(("process_name", "thread_name"), names or ())
    ]
    pending = [root]
    while pending:
        span = pending.pop()
        if prune is not None and prune(span):
            continue
        pending.extend(reversed(span.children))
        end = span.end_cycle if span.end_cycle is not None else span.start_cycle
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": (span.start_cycle + offset) * us,
                "dur": (end - span.start_cycle) * us,
                "pid": pid,
                "tid": tid,
                "args": {k: span.attrs[k] for k in sorted(span.attrs)},
            }
        )
        for ev in span.events:
            events.append(
                {
                    "name": ev.label,
                    "cat": "span-event",
                    "ph": "i",
                    "ts": (ev.cycle + offset) * us,
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": {"detail": ev.detail},
                }
            )
    return events


def routing_events(
    audit: dict, clock_ghz: float, *, pid: int = ROUTING_PID
) -> list[dict]:
    """The routing-audit track: predicted vs. actual cycles per engine.

    One thread row per candidate engine holding a slice of its
    *predicted* makespan; the chosen engine's row additionally holds
    the *actual* slice (both start at 0, so they nest).  ``audit`` is
    the dispatch event recorded by the adaptive selector
    (``result.routing_audit``).
    """
    us = 1e6 / (clock_ghz * 1e9)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "routing audit"},
        }
    ]
    chosen = audit.get("chosen")
    for tid, (engine, predicted) in enumerate(
        sorted(audit.get("predicted", {}).items()), start=1
    ):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"{engine}{' *' if engine == chosen else ''}"},
            }
        )
        events.append(
            {
                "name": f"predicted {engine}",
                "cat": "routing",
                "ph": "X",
                "ts": 0.0,
                "dur": float(predicted) * us,
                "pid": pid,
                "tid": tid,
                "args": {"predicted_cycles": float(predicted)},
            }
        )
        if engine == chosen and "actual_cycles" in audit:
            events.append(
                {
                    "name": f"actual {engine}",
                    "cat": "routing",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": float(audit["actual_cycles"]) * us,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "actual_cycles": float(audit["actual_cycles"]),
                        "regret_bound": float(audit.get("regret_bound", 0.0)),
                    },
                }
            )
    return events


def perfetto_payload(
    *,
    spans: Span | None = None,
    device=None,
    request=None,
    routing: dict | None = None,
    clock_ghz: float | None = None,
) -> dict:
    """Combined Perfetto JSON object for spans and device traces.

    ``device`` is a :class:`~repro.obs.device.DeviceTrace`; it adds the
    per-stage kernel timeline (pid 1) and one thread per SM plus counter
    tracks (pid 3: scratchpad bytes, chunk-pool occupancy).  ``request`` is a
    :class:`~repro.obs.trace.RequestTrace` (pid 4, wall-clock request
    timeline) and ``routing`` a selector dispatch event
    (``result.routing_audit``, pid 5).
    """
    if (
        spans is None and device is None
        and request is None and routing is None
    ):
        raise ValueError(
            "need at least one of spans, device, request or routing"
        )
    events: list[dict] = []
    if device is not None:
        events.extend(stage_timeline_events(device))
        events.extend(sm_track_events([(device, 0.0)]))
        if clock_ghz is None:
            clock_ghz = device.clock_ghz
    if spans is not None:
        if clock_ghz is None:
            raise ValueError("clock_ghz is required to export spans alone")
        events.extend(span_events(spans, clock_ghz))
    if request is not None:
        events.extend(request.perfetto_events(pid=REQUEST_PID))
    if routing is not None:
        if clock_ghz is None:
            raise ValueError("clock_ghz is required to export routing audits")
        events.extend(routing_events(routing, clock_ghz))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summa_perfetto_payload(result) -> dict:
    """Perfetto JSON for one multi-device SUMMA run.

    ``result`` is a :class:`repro.multi.SummaResult`.  The payload holds
    one node-narrative process (pid ``SPAN_PID``: partition, rounds with
    exposed broadcast windows, merge, assemble) plus **two process rows
    per device**: the device's grafted pipeline-span subtrees (pid
    ``SUMMA_SPAN_PID_BASE + ordinal``, one thread row per SUMMA round)
    and — when the tiles were run with ``device_trace=True`` — its
    per-SM tracks (pid ``SUMMA_SM_PID_BASE + ordinal``).  Both are drawn
    by the single-device exporters, :func:`span_events` and
    :func:`~repro.obs.device.sm_track_events`, with each tile run's
    node-clock start as the offset: spans and traces stay on their
    device-local clocks, where ``SummaResult.reconcile`` checks them.
    """
    clock_ghz = result.clock_ghz
    g = result.grid
    # node narrative: the tree minus the grafted device subtrees, which
    # carry the start_cycle_on_node placement attr
    events = span_events(
        result.spans,
        clock_ghz,
        names=("SUMMA node", "node timeline"),
        prune=lambda span: "start_cycle_on_node" in span.attrs,
    )
    for i in range(g):
        for j in range(g):
            pid = SUMMA_SPAN_PID_BASE + i * g + j
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"device ({i},{j}) pipeline"},
                }
            )
            events.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": pid},
                }
            )
            for k in range(g):
                sub = result.tile_runs[(i, j, k)].result.spans
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": k + 1,
                        "args": {"name": f"round {k}"},
                    }
                )
                events.extend(
                    span_events(
                        sub,
                        clock_ghz,
                        pid=pid,
                        tid=k + 1,
                        offset=sub.attrs["start_cycle_on_node"] - sub.start_cycle,
                        names=None,
                    )
                )

    # per-device SM tracks, when every tile carried a device trace
    if all(run.result.device_trace is not None for run in result.tile_runs.values()):
        for i in range(g):
            for j in range(g):
                runs = [result.tile_runs[(i, j, k)] for k in range(g)]
                events.extend(
                    sm_track_events(
                        [(run.result.device_trace, run.start_cycle) for run in runs],
                        pid=SUMMA_SM_PID_BASE + i * g + j,
                        process_name=f"device ({i},{j}) SMs",
                    )
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(path: str | Path, payload: dict) -> Path:
    """Validate and write a payload; refuses to write a malformed file."""
    validate_perfetto(payload)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload))
    return out


def _check_row(row_key, slices: list[tuple[float, float, str]]) -> None:
    """Slices on one track must be disjoint or strictly nested."""
    stack: list[tuple[float, float, str]] = []
    for ts, end, name in sorted(slices, key=lambda s: (s[0], -(s[1] - s[0]))):
        while stack and stack[-1][1] <= ts + _EPS:
            stack.pop()
        if stack and end > stack[-1][1] + _EPS:
            raise ValueError(
                f"overlapping slices on row {row_key}: {name!r} "
                f"[{ts}, {end}] crosses {stack[-1][2]!r} end {stack[-1][1]}"
            )
        stack.append((ts, end, name))


def validate_perfetto(payload) -> None:
    """Schema-check a Perfetto JSON object; raises ``ValueError``.

    Checks the object model (``traceEvents`` list, required fields per
    phase) and per-row slice consistency (no partial overlaps).
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("payload must be an object with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    rows: dict[tuple, list[tuple[float, float, str]]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for req in ("name", "ph", "pid", "tid"):
            if req not in ev:
                raise ValueError(f"event {i} is missing {req!r}")
        ph = ev["ph"]
        if ph == "M":
            if ev["name"] not in _META_NAMES:
                raise ValueError(f"unknown metadata record {ev['name']!r}")
            if "name" not in ev.get("args", {}) and "sort_index" not in ev.get(
                "args", {}
            ):
                raise ValueError(f"metadata event {i} carries no payload")
            continue
        if ph not in ("X", "i", "I", "B", "E", "C"):
            raise ValueError(f"event {i} has unsupported phase {ph!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i} has invalid ts {ts!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"counter event {i} has no args")
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"counter event {i} has non-numeric series "
                        f"{key!r}: {value!r}"
                    )
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {i} has invalid dur {dur!r}")
            rows.setdefault((ev["pid"], ev["tid"]), []).append(
                (float(ts), float(ts) + float(dur), str(ev["name"]))
            )
    for row_key, slices in rows.items():
        _check_row(row_key, slices)


def validate_perfetto_file(path: str | Path) -> None:
    """Load a JSON file and :func:`validate_perfetto` it."""
    validate_perfetto(json.loads(Path(path).read_text()))
