"""Email-like notifications, pluggable delivery sinks and the dispatcher.

Transport is mocked, and a run sends nothing: a caller builds a finished run's
notifications (controller.notifications) and delivers them. The dispatcher is a
caller-side helper: it hands each one to every sink in order and returns one
receipt per sink, a failed delivery's with its error. A notification stores facts
only; subject and body are derived when read. Clips travel as identifiers, not bytes.
"""

from __future__ import annotations

import os
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .events import CheckedRecord, Instant

OWNER = "owner"
AUTHORITIES = "authorities"

SUBJECT_TAG = "[SENTINEL]"


class NotificationKind(Enum):
    PRESENCE = "PRESENCE"
    INTRUSION = "INTRUSION"
    DEACTIVATION_FAILED = "DEACTIVATION_FAILED"
    DEACTIVATION_SUCCEEDED = "DEACTIVATION_SUCCEEDED"


# bound once: see events.py
_PRESENCE, _INTRUSION = NotificationKind.PRESENCE, NotificationKind.INTRUSION


class _NotificationFields(NamedTuple):
    kind: NotificationKind
    recipients: Tuple[str, ...]
    attachment: Optional[str]
    created_at: Instant


class Notification(CheckedRecord, _NotificationFields):
    """One immutable message, equal by value; ``build_notification`` sets its recipients."""

    __slots__ = ()

    def __new__(cls, kind, recipients, attachment, created_at):
        if kind is _PRESENCE:
            if attachment is None:
                raise ValueError("presence notifications carry a clip attachment")
        elif attachment is not None:
            raise ValueError(f"{kind._value_} notifications carry no attachment")
        return tuple.__new__(cls, (kind, recipients, attachment, created_at))  # in C

    @property
    def subject(self) -> str:
        return f"{SUBJECT_TAG} {self.kind._value_} at t={self.created_at}"

    @property
    def body(self) -> str:
        lines = [f"Kind: {self.kind._value_}", f"Simulation time: {self.created_at} ms"]
        if self.attachment is not None:
            lines.append(f"Clip: {self.attachment}")
        return "\n".join(lines) + "\n"


_OWNER_ONLY = (OWNER,)
OWNER_AND_AUTHORITIES = (OWNER, AUTHORITIES)  # an intrusion's recipients


def recipients_for(kind: NotificationKind, presence_to_authorities: bool = False) -> Tuple[str, ...]:
    """The recipient policy: intrusions go to the owner and the authorities, the rest to
    the owner only, unless presence mail is configured to copy the authorities."""
    if kind is _INTRUSION or (kind is _PRESENCE and presence_to_authorities):
        return OWNER_AND_AUTHORITIES
    return _OWNER_ONLY


def build_notification(
    kind: NotificationKind,
    t: Instant,
    attachment: Optional[str] = None,
    *,
    presence_to_authorities: bool = False,
) -> Notification:
    """Assemble a notification with the recipient policy for its kind."""
    return Notification(kind, recipients_for(kind, presence_to_authorities), attachment, t)


class Receipt(NamedTuple):
    sink: str
    ok: bool
    error: str = ""


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
    return f"{n.created_at}|{n.kind._value_}|{recipients}|{attachment}|{n.subject}"


class LineFileSink:
    """Appends one structured record per notification to a UTF-8 text file."""

    name = "linefile"

    def __init__(self, path):
        self.path = path

    def deliver(self, notification: Notification) -> None:
        with open(self.path, "a", encoding="utf-8", newline="") as fh:
            fh.write(format_outbox_line(notification) + "\n")


class MaildirSink:
    """Writes one RFC-822-shaped text file per message, maildir style.

    Filenames are a zero-padded sequence number, so a replayed run produces
    byte-identical mail files.
    """

    name = "maildir"

    def __init__(self, root, addresses: Dict[str, str]):
        self.root = root
        self.addresses = addresses
        self._seq = 0

    def deliver(self, notification: Notification) -> None:
        if not self._seq:  # the first mail creates the maildir
            for sub in ("tmp", "new", "cur"):
                os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self._seq += 1
        to = ", ".join(
            f"{label} <{self.addresses[label]}>" for label in notification.recipients
        )
        headers = [
            "From: sentinelsim <noreply@sentinelsim.invalid>",
            f"To: {to}",
            f"Subject: {notification.subject}",
            f"X-Sim-Time-Ms: {notification.created_at}",
        ]
        if notification.attachment is not None:
            headers.append(f"X-Clip-Id: {notification.attachment}")
        name = f"{self._seq:06d}.{notification.kind._value_.lower()}.eml"
        path = os.path.join(self.root, "new", name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(headers) + "\n\n" + notification.body)


class Dispatcher:
    """Fans notifications out to every sink. A sink failure is isolated to its
    own receipt; remaining sinks still receive the notification."""

    def __init__(self, sinks: Sequence):
        self.sinks = list(sinks)

    def dispatch(self, notification: Notification) -> Tuple[Receipt, ...]:
        receipts = []
        for sink in self.sinks:
            try:
                sink.deliver(notification)
            except Exception as exc:
                receipts.append(Receipt(sink=sink.name, ok=False, error=str(exc)))
            else:
                receipts.append(Receipt(sink=sink.name, ok=True))
        return tuple(receipts)
