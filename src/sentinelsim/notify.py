"""Email-like notifications, pluggable delivery sinks and the outbox record.

Transport is mocked. Every dispatched notification lands exactly once in the
append-only outbox together with one receipt per configured sink; tests and
reports assert against the outbox rather than any real mail system. Clip
attachments are carried as identifiers, never media bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .events import Instant

OWNER = "owner"
AUTHORITIES = "authorities"

# Details strings and mail headers list recipients owner-first.
_RECIPIENT_ORDER = (OWNER, AUTHORITIES)

SUBJECT_TAG = "[SENTINEL]"


class NotificationKind(Enum):
    PRESENCE = "PRESENCE"
    INTRUSION = "INTRUSION"
    DEACTIVATION_FAILED = "DEACTIVATION_FAILED"
    DEACTIVATION_SUCCEEDED = "DEACTIVATION_SUCCEEDED"


@dataclass(frozen=True)
class Notification:
    kind: NotificationKind
    recipients: frozenset
    subject: str
    body: str
    attachment: Optional[str]
    created_at: Instant

    def __post_init__(self) -> None:
        if not self.recipients:
            raise ValueError("recipients must be non-empty")
        unknown = self.recipients - {OWNER, AUTHORITIES}
        if unknown:
            raise ValueError(f"unknown recipients: {sorted(unknown)}")
        if self.kind is NotificationKind.PRESENCE:
            if self.attachment is None:
                raise ValueError("presence notifications carry a clip attachment")
        elif self.attachment is not None:
            raise ValueError(f"{self.kind.value} notifications carry no attachment")
        if self.kind is NotificationKind.INTRUSION:
            if self.recipients != {OWNER, AUTHORITIES}:
                raise ValueError("intrusion mail goes to owner and authorities")
        elif OWNER not in self.recipients:
            raise ValueError(f"{self.kind.value} mail must reach the owner")

    def ordered_recipients(self) -> List[str]:
        return [r for r in _RECIPIENT_ORDER if r in self.recipients]


def build_notification(
    kind: NotificationKind,
    t: Instant,
    attachment: Optional[str] = None,
    *,
    presence_to_authorities: bool = False,
) -> Notification:
    """Assemble a notification with the recipient policy for its kind.

    Intrusions fan out to the owner and the authorities; everything else is
    owner-only unless presence mail is explicitly configured to copy the
    authorities as well.
    """
    if kind is NotificationKind.INTRUSION:
        recipients = frozenset({OWNER, AUTHORITIES})
    elif kind is NotificationKind.PRESENCE and presence_to_authorities:
        recipients = frozenset({OWNER, AUTHORITIES})
    else:
        recipients = frozenset({OWNER})
    subject = f"{SUBJECT_TAG} {kind.value} at t={t}"
    lines = [f"Kind: {kind.value}", f"Simulation time: {t} ms"]
    if attachment is not None:
        lines.append(f"Clip: {attachment}")
    body = "\n".join(lines) + "\n"
    return Notification(
        kind=kind,
        recipients=recipients,
        subject=subject,
        body=body,
        attachment=attachment,
        created_at=t,
    )


@dataclass(frozen=True)
class Receipt:
    sink: str
    ok: bool
    error: str = ""


@dataclass(frozen=True)
class OutboxEntry:
    notification: Notification
    receipts: Tuple[Receipt, ...]


class Outbox:
    """Append-only record of every dispatched notification."""

    def __init__(self) -> None:
        self._entries: List[OutboxEntry] = []

    def append(self, entry: OutboxEntry) -> None:
        self._entries.append(entry)

    @property
    def entries(self) -> Tuple[OutboxEntry, ...]:
        return tuple(self._entries)

    def counts(self) -> Dict[str, int]:
        """Tally per kind, with explicit zeros so summaries have stable keys."""
        out = {kind.value: 0 for kind in NotificationKind}
        for entry in self._entries:
            out[entry.notification.kind.value] += 1
        return out

    def __len__(self) -> int:
        return len(self._entries)


class MemorySink:
    """Keeps delivered notifications in a list; the simplest transport mock."""

    def __init__(self, name: str = "memory"):
        self.name = name
        self.messages: List[Notification] = []

    def deliver(self, notification: Notification) -> None:
        self.messages.append(notification)


def format_outbox_line(n: Notification) -> str:
    """One-line record: created_at|kind|recipients (sorted)|attachment or -|subject."""
    recipients = ",".join(sorted(n.recipients))
    attachment = n.attachment if n.attachment is not None else "-"
    return f"{n.created_at}|{n.kind.value}|{recipients}|{attachment}|{n.subject}"


class LineFileSink:
    """Appends one structured record per notification to a UTF-8 text file."""

    def __init__(self, path, name: str = "linefile"):
        self.name = name
        self.path = path

    def deliver(self, notification: Notification) -> None:
        with open(self.path, "a", encoding="utf-8", newline="") as fh:
            fh.write(format_outbox_line(notification) + "\n")


class MaildirSink:
    """Writes one RFC-822-shaped text file per message, maildir style.

    Filenames are a zero-padded sequence number, so a replayed run produces
    byte-identical mail files.
    """

    def __init__(self, root, addresses: Optional[Dict[str, str]] = None, name: str = "maildir"):
        self.name = name
        self.root = root
        self.addresses = addresses or {}
        self._seq = 0

    def deliver(self, notification: Notification) -> None:
        new_dir = os.path.join(self.root, "new")
        for sub in ("tmp", "new", "cur"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self._seq += 1
        to = ", ".join(
            f"{label} <{self.addresses.get(label, label + '@example.invalid')}>"
            for label in notification.ordered_recipients()
        )
        headers = [
            "From: sentinelsim <noreply@sentinelsim.invalid>",
            f"To: {to}",
            f"Subject: {notification.subject}",
            f"X-Sim-Time-Ms: {notification.created_at}",
        ]
        if notification.attachment is not None:
            headers.append(f"X-Clip-Id: {notification.attachment}")
        name = f"{self._seq:06d}.{notification.kind.value.lower()}.eml"
        path = os.path.join(new_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(headers) + "\n\n" + notification.body)


class Dispatcher:
    """Fans notifications out to every sink and records the outbox entry.

    A sink failure is isolated to its own receipt; remaining sinks still
    receive the notification.
    """

    def __init__(self, sinks: Sequence):
        self.sinks = list(sinks)
        self.outbox = Outbox()

    def dispatch(self, notification: Notification) -> Tuple[Receipt, ...]:
        receipts = []
        for sink in self.sinks:
            try:
                sink.deliver(notification)
            except Exception as exc:
                receipts.append(Receipt(sink=sink.name, ok=False, error=str(exc)))
            else:
                receipts.append(Receipt(sink=sink.name, ok=True))
        receipts = tuple(receipts)
        self.outbox.append(OutboxEntry(notification=notification, receipts=receipts))
        return receipts
