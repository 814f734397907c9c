"""ASCII execution timelines: the form of the paper's Fig. 1.

:func:`render_timeline` draws an observed run as one lane per core, with
its transaction attempts, reductions, gathers and barrier arrivals placed
by simulated cycle — recoverable for any workload run with
``observe=True`` (see ``examples/fig1_timeline.py``). It reads the
Observer's :class:`~repro.obs.recorder.TraceRecorder`, the same events the
Perfetto export carries.
"""

from __future__ import annotations

from typing import List, Optional

#: Timeline marks, least to most severe: ``(`` an attempt begins, ``|``
#: barrier, ``G`` gather, ``R`` reduction, ``C`` commit, ``x`` abort.
#: Marks sharing a column keep the most severe one.
MARKS = "(|GRCx"

_SPAN_ENDS = {"commit": "C", "abort": "x"}
_POINTS = {("B", "tx"): "(", ("i", "reduction"): "R", ("i", "gather"): "G",
           ("i", "barrier"): "|"}


def _mark(event: dict) -> Optional[str]:
    if event["ph"] == "E":
        return _SPAN_ENDS.get(event["args"].get("outcome"))
    return _POINTS.get((event["ph"], event.get("name")))


def render_timeline(obs, cores: Optional[List[int]] = None,
                    width: int = 72, title: str = "") -> str:
    """One lane per core, events placed by cycle.

    ``obs`` is an :class:`~repro.obs.observer.Observer` or its
    :class:`~repro.obs.recorder.TraceRecorder`. Each lane is annotated
    with its per-mark totals, so column collisions never under-report,
    and a warning line appears when the recorder hit its event limit."""
    recorder = getattr(obs, "recorder", obs)
    marks = [(e["ts"], e["tid"], mark) for e in recorder.events
             if (mark := _mark(e)) is not None]
    if not marks:
        return title or "(no events)"
    if cores is None:
        cores = sorted({core for _, core, _ in marks})
    t_min = min(ts for ts, _, _ in marks)
    t_max = max(ts for ts, _, _ in marks)
    span = max(1, t_max - t_min)

    lines: List[str] = [title] if title else []
    for core in cores:
        lane = [" "] * width
        totals = dict.fromkeys(MARKS, 0)
        for ts, tid, mark in marks:
            if tid != core:
                continue
            totals[mark] += 1
            col = min(width - 1, int((ts - t_min) * (width - 1) / span))
            if MARKS.index(mark) > MARKS.find(lane[col]):
                lane[col] = mark
        annot = " ".join(f"{mark}:{n}" for mark, n in totals.items() if n)
        lines.append(f"core {core:>3} |" + "".join(lane) + "|  " + annot)
    lines.append(f"{'':>9}{t_min} .. {t_max} cycles")
    lines.append("legend: ( begin   C commit   x abort   R reduction   "
                 "G gather   | barrier   (lane totals follow each lane)")
    if recorder.dropped:
        lines.append(f"warning: {recorder.dropped} event(s) dropped at the "
                     f"{recorder.limit}-event limit; lane totals cover "
                     f"recorded events only")
    return "\n".join(lines)


__all__ = ["render_timeline"]
