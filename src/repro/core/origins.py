"""Timeout provenance: attributing values to subsystems (Table 3).

"In Linux we see a high correlation between timeout values and the
static addresses of timer structures.  This allows us to create
Table 3, which shows a detailed list of the origins of these frequent
timeouts within the kernel" (Section 4.2).  Here the recorded call
stacks play the role of the static addresses: a rule table maps stack
frames (and, for syscall-level timers, the process name) to the
human-readable origins the paper lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..sim.clock import to_seconds
from ..tracing.events import EventKind
from .classify import TimerClass, trace_classifier
from .episodes import nominal_value_ns
from .index import as_index

#: (needle, where, origin label).  ``where`` is "site" to search stack
#: frames or "comm" to match the process name.
_ORIGIN_RULES: list[tuple[str, str, str]] = [
    ("blk_plug_device", "site", "Block I/O scheduler"),
    ("ide_set_handler", "site", "IDE Command timeout"),
    ("journal_commit_transaction", "site", "Filesystem journal commit"),
    ("tcp_send_delayed_ack", "site", "Sockets"),
    ("inet_csk_reset_xmit_timer", "site", "TCP retransmission timeout"),
    ("inet_csk_reset_keepalive_timer", "site", "TCP keepalive"),
    ("reqsk_queue_hash_req", "site", "Sockets"),
    ("inet_twsk_schedule", "site", "Sockets"),
    ("usb_hcd_poll_rh_status", "site", "USB host controller status poll"),
    ("clocksource_watchdog", "site",
     "High-Res timers clocksource watchdog"),
    ("delayed_work_timer_fn", "site", "Kernel workqueue timer"),
    ("run_workqueue", "site", "Kernel workqueue"),
    ("neigh_periodic_timer", "site", "ARP"),
    ("neigh_periodic_work", "site", "ARP"),
    ("neigh_add_timer", "site", "ARP"),
    ("rt_secret_rebuild", "site", "ARP cache flush"),
    ("e1000_watchdog", "site", "e1000 Watchdog Timer"),
    ("qdisc_watchdog", "site", "Packet scheduler"),
    ("wb_timer_fn", "site", "Dirty memory page write-back"),
    ("poke_blanked_console", "site", "Console blank timeout"),
    ("pdflush", "site", "Dirty memory page write-back"),
    ("firefox-bin", "comm", "Firefox polling file descriptors"),
    ("skype", "comm", "Skype"),
    ("apache2", "comm", "Apache"),
    ("init", "comm", "init polling children"),
    ("Xorg", "comm", "X server select loop"),
    ("icewm", "comm", "icewm select loop"),
]


def attribute_origin(site: Tuple[str, ...], comm: str) -> str:
    """Best-effort origin label for one timer."""
    for needle, where, label in _ORIGIN_RULES:
        if where == "site":
            if any(needle in frame for frame in site):
                return label
        elif comm == needle:
            return label
    if site:
        return site[0]
    return comm


@dataclass
class OriginRow:
    """One row of Table 3."""

    timeout_ns: int
    origin: str
    timer_class: TimerClass
    set_count: int

    @property
    def timeout_seconds(self) -> float:
        return to_seconds(self.timeout_ns)


def origin_table(source, *, min_sets: int = 3,
                 logical: Optional[bool] = None) -> list[OriginRow]:
    """Regenerate Table 3 from a trace or index.

    Groups timers by (dominant value, origin); a row's class is the
    majority classifier verdict among its timers (see
    :meth:`~repro.core.streaming.StreamingClassifier.origin_table`).
    """
    return trace_classifier(source, logical=logical).origin_table(
        min_sets=min_sets)


def render_origin_table(rows: list[OriginRow]) -> str:
    lines = [f"{'Timeout [s]':>12}  {'Origin':<42} {'Class':<10} {'Sets':>7}"]
    for row in rows:
        lines.append(f"{row.timeout_seconds:>12.4g}  {row.origin:<42} "
                     f"{row.timer_class.value:<10} {row.set_count:>7}")
    return "\n".join(lines)


def value_origins(source, value_ns: int,
                  tolerance_ns: int = 2_000_000) -> dict[str, int]:
    """Which origins set (approximately) this value, with counts —
    supports spot checks like 'who sets 5 s timers?'."""
    index = as_index(source)
    counts: dict[str, int] = {}
    for event in index.events_of_kind(EventKind.SET):
        value = nominal_value_ns(event, index.os_name)
        if abs(value - value_ns) <= tolerance_ns:
            origin = attribute_origin(event.site, event.comm)
            counts[origin] = counts.get(origin, 0) + 1
    return counts
