"""Event Tracing for Windows (ETW) style sink — the Vista path.

The paper added four custom ETW events to the Vista kernel: KeSetTimer,
KeCancelTimer, the clock-interrupt expiration DPC, and a thread-unblock
event carrying the block/unblock timestamps, the user timeout, and a
satisfied/timed-out boolean (Section 3.3).  ETW captures both kernel-
and user-mode stacks, which is what later lets the analysis cluster the
dynamically-allocated KTIMER objects by call site.

The session is the same bounded log as relayfs, a
:class:`~repro.tracing.relay.RecordLog`; this subclass adds only the
schema difference: the provider manifest and the thread-unblock record.
"""

from __future__ import annotations

from .events import wait_unblock_event
from .relay import RecordLog

#: Provider GUID for the paper's four custom timer events.  Real ETW
#: providers are keyed by GUID and described by a manifest (name,
#: keywords, event schema); the serve-side provider-manifest registry
#: (:mod:`repro.serve.manifest`) resolves sessions back to readable
#: provider names the same way winevt-kb keys Windows event providers.
TIMER_PROVIDER_GUID = "{7f0e9c5a-4e75-42d8-b6c2-0d9f1e2a3b4c}"


class EtwSession(RecordLog):
    """A logging session with the paper's four custom timer events."""

    #: GUID of the provider this session logs; third-party ETW-style
    #: sinks override it (and register their own manifest) so the
    #: telemetry daemon can label their streams.
    provider_guid = TIMER_PROVIDER_GUID

    @classmethod
    def provider_manifest(cls) -> dict:
        """Manifest describing this session's provider — consumed by
        :func:`repro.serve.manifest.register_provider` at import time.
        """
        return {
            "guid": cls.provider_guid,
            "name": "Repro-Timer-Provider",
            "keywords": ("timer", "wait"),
            "events": ("KeSetTimer", "KeCancelTimer", "ExpireDpc",
                       "WaitUnblock"),
        }

    def __init__(self, capacity_events: int = 16_000_000):
        super().__init__(capacity_events)

    def emit_wait_unblock(self, *fields, **named) -> None:
        """The single thread-unblock event the paper added; the fields
        are :func:`~repro.tracing.events.wait_unblock_event`'s."""
        self.emit(wait_unblock_event(*fields, **named))
