"""Trace container and per-timer correlation.

A :class:`Trace` bundles the raw event stream from one workload run with
the metadata the analyses need (OS model, workload name, duration).  It
provides the two grouping operations the paper's post-processing relies
on:

* :meth:`Trace.instances` — group by timer structure address.  Works
  directly on Linux, where timer structs are statically allocated and
  reused.
* :meth:`Trace.logical_timers` — cluster by (call site, pid).  Needed on
  Vista, where "repeatedly calling select on the same socket will not
  typically result in operations on the same kernel timer" (Section 3.3).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from .events import EventKind, TimerEvent


class TimerHistory:
    """All events observed for one timer (physical or logical)."""

    __slots__ = ("key", "events")

    def __init__(self, key, events: list[TimerEvent]):
        self.key = key
        self.events = events

    @property
    def sets(self) -> list[TimerEvent]:
        return [e for e in self.events if e.kind == EventKind.SET]

    @property
    def pid(self) -> int:
        return self.events[0].pid

    @property
    def comm(self) -> str:
        return self.events[0].comm

    @property
    def site(self) -> Tuple[str, ...]:
        for event in self.events:
            if event.kind == EventKind.SET:
                return event.site
        return self.events[0].site

    def __len__(self) -> int:
        return len(self.events)


class Trace:
    """One instrumented workload run."""

    def __init__(self, *, os_name: str, workload: str, duration_ns: int,
                 events: Optional[list[TimerEvent]] = None):
        # Any registered backend is a valid trace origin (the registry
        # lives above this layer, so resolve it lazily).
        from ..kern.registry import backend_names
        if os_name not in backend_names():
            raise ValueError(f"unknown os {os_name!r}; registered "
                             f"backends: {list(backend_names())}")
        self.os_name = os_name
        self.workload = workload
        self.duration_ns = duration_ns
        self.events: list[TimerEvent] = events if events is not None else []
        #: Cached :class:`repro.core.index.TraceIndex`; analyses share it
        #: via ``TraceIndex.of(trace)``.
        self._index = None

    # -- construction ---------------------------------------------------

    def extend(self, events: Iterable[TimerEvent]) -> None:
        """Append events; a cached index ingests them incrementally
        rather than being thrown away."""
        events = list(events)
        self.events.extend(events)
        if self._index is not None:
            self._index.ingest(events)

    # -- filtering ------------------------------------------------------

    def filtered(self, predicate: Callable[[TimerEvent], bool]) -> "Trace":
        """A new Trace containing only events matching ``predicate``."""
        return Trace(os_name=self.os_name, workload=self.workload,
                     duration_ns=self.duration_ns,
                     events=[e for e in self.events if predicate(e)])

    def without_comms(self, comms: Iterable[str]) -> "Trace":
        """Drop events charged to the given command names.

        This is the paper's filtering of the X server and icewm
        select-countdown timers from Figures 5 onward.
        """
        excluded = set(comms)
        return self.filtered(lambda e: e.comm not in excluded)

    def user_events(self) -> list[TimerEvent]:
        return [e for e in self.events if e.domain == "user"]

    def kernel_events(self) -> list[TimerEvent]:
        return [e for e in self.events if e.domain == "kernel"]

    # -- correlation ----------------------------------------------------

    def instances(self) -> list[TimerHistory]:
        """Group events by timer structure address, in trace order.

        Cluster traces (``event.host != 0``) qualify the key by host:
        each machine allocates timer ids from its own counter, so the
        same raw address on two hosts is two distinct timers.
        """
        groups: dict = {}
        for event in self.events:
            key = (event.host, event.timer_id) if event.host \
                else event.timer_id
            groups.setdefault(key, []).append(event)
        return [TimerHistory(tid, evs) for tid, evs in groups.items()]

    def logical_timers(self) -> list[TimerHistory]:
        """Cluster events by (set-site, pid).

        Events on a timer id are attributed to the site of that id's
        SET event, so cancels/expiries issued from other stacks join
        the cluster of the timer they act on.  Cluster traces qualify
        both the id lookup and the cluster key by host.
        """
        site_of_id: dict = {}
        groups: dict = {}
        for event in self.events:
            host = event.host
            timer_id = (host, event.timer_id) if host else event.timer_id
            if event.kind in (EventKind.SET, EventKind.INIT,
                              EventKind.WAIT_UNBLOCK):
                key = (host, event.site, event.pid) if host \
                    else (event.site, event.pid)
                site_of_id[timer_id] = key
            else:
                key = site_of_id.get(
                    timer_id, (host, event.site, event.pid) if host
                    else (event.site, event.pid))
            groups.setdefault(key, []).append(event)
        return [TimerHistory(key, evs) for key, evs in groups.items()]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"<Trace {self.os_name}/{self.workload} "
                f"{len(self.events)} events>")
