"""Notification policy, derived text, sinks, receipts and dispatch counts."""

import os

import pytest

from sentinelsim.notify import (
    AUTHORITIES,
    OWNER,
    Dispatcher,
    LineFileSink,
    MaildirSink,
    MemorySink,
    Notification,
    NotificationKind,
    Receipt,
    build_notification,
    format_outbox_line,
)


class FailingSink:
    name = "broken"

    def deliver(self, notification):
        raise IOError("disk on fire")


class TestBuildNotification:
    def test_intrusion_reaches_both_parties(self):
        n = build_notification(NotificationKind.INTRUSION, 5000)
        assert n.recipients == (OWNER, AUTHORITIES)
        assert n.subject == "[SENTINEL] INTRUSION at t=5000"
        assert n.attachment is None

    def test_presence_carries_clip_to_owner(self):
        n = build_notification(NotificationKind.PRESENCE, 2000, "clip-0001")
        assert n.recipients == (OWNER,)
        assert n.attachment == "clip-0001"
        assert "clip-0001" in n.body

    def test_deactivation_mails_owner_only(self):
        for kind in (
            NotificationKind.DEACTIVATION_FAILED,
            NotificationKind.DEACTIVATION_SUCCEEDED,
        ):
            n = build_notification(kind, 7500)
            assert n.recipients == (OWNER,)

    def test_presence_copy_to_authorities_flag(self):
        n = build_notification(
            NotificationKind.PRESENCE, 0, "clip-0001", presence_to_authorities=True
        )
        assert n.recipients == (OWNER, AUTHORITIES)

    def test_subject_is_deterministic(self):
        a = build_notification(NotificationKind.INTRUSION, 123)
        b = build_notification(NotificationKind.INTRUSION, 123)
        assert a == b


class TestNotification:
    """Built directly, not through build_notification: a plain named tuple."""

    def test_keywords_build_the_same_record(self):
        n = Notification(
            kind=NotificationKind.PRESENCE, recipients=(OWNER,), attachment="clip-0001", created_at=2000
        )
        assert n == build_notification(NotificationKind.PRESENCE, 2000, "clip-0001")

    def test_make_and_replace_build_notifications(self):
        presence = build_notification(NotificationKind.PRESENCE, 0, "clip-0001")
        moved = presence._replace(created_at=5)
        assert type(moved) is Notification
        assert moved == (NotificationKind.PRESENCE, (OWNER,), "clip-0001", 5)
        assert Notification._make(moved) == moved

    def test_is_an_immutable_named_tuple(self):
        n = build_notification(NotificationKind.INTRUSION, 5000)
        assert type(n) is Notification and Notification.__bases__ == (tuple,)
        assert n == (NotificationKind.INTRUSION, (OWNER, AUTHORITIES), None, 5000)
        assert not hasattr(n, "__dict__")
        with pytest.raises(AttributeError):
            n.subject_override = "x"


class TestDispatcher:
    def test_fan_out_and_single_outbox_entry(self):
        a, b = MemorySink("a"), MemorySink("b")
        d = Dispatcher([a, b])
        n = build_notification(NotificationKind.INTRUSION, 1)
        receipts = d.dispatch(n)
        assert [r.sink for r in receipts] == ["a", "b"]
        assert all(r.ok for r in receipts)
        assert a.messages == [n] and b.messages == [n]

    def test_failing_sink_is_isolated(self):
        ok = MemorySink("ok")
        d = Dispatcher([FailingSink(), ok])
        n = build_notification(NotificationKind.INTRUSION, 1)
        receipts = d.dispatch(n)
        assert receipts[0].ok is False
        assert "disk on fire" in receipts[0].error
        assert receipts[1].ok is True
        assert ok.messages == [n]
        again = d.dispatch(build_notification(NotificationKind.DEACTIVATION_FAILED, 2))
        failed = [r for r in receipts + again if not r.ok]
        assert failed == [Receipt(sink="broken", ok=False, error="disk on fire")] * 2

    def test_sinks_receive_in_dispatch_order(self):
        sink = MemorySink()
        d = Dispatcher([sink])
        kinds = [
            NotificationKind.INTRUSION,
            NotificationKind.DEACTIVATION_FAILED,
            NotificationKind.INTRUSION,
        ]
        for i, kind in enumerate(kinds):
            d.dispatch(build_notification(kind, i))
        assert [n.kind for n in sink.messages] == kinds
        assert [n.created_at for n in sink.messages] == [0, 1, 2]


class TestLineFileSink:
    def test_record_format(self, tmp_path):
        path = tmp_path / "outbox.log"
        sink = LineFileSink(path)
        sink.deliver(build_notification(NotificationKind.INTRUSION, 5000))
        sink.deliver(build_notification(NotificationKind.PRESENCE, 7000, "clip-0001"))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [
            "5000|INTRUSION|authorities,owner|-|[SENTINEL] INTRUSION at t=5000",
            "7000|PRESENCE|owner|clip-0001|[SENTINEL] PRESENCE at t=7000",
        ]

    def test_unwritable_path_fails_receipt_only(self, tmp_path):
        bad = LineFileSink(tmp_path)  # a directory is not writable as a file
        good = MemorySink()
        d = Dispatcher([bad, good])
        n = build_notification(NotificationKind.INTRUSION, 1)
        receipts = d.dispatch(n)
        assert receipts[0].ok is False
        assert receipts[1].ok is True
        assert good.messages == [n]

    def test_line_matches_helper(self):
        n = build_notification(NotificationKind.INTRUSION, 42)
        line = format_outbox_line(n)
        assert line.count("|") == 4
        assert line.startswith("42|INTRUSION|")


class TestMaildirSink:
    def test_writes_rfc822_shaped_file(self, tmp_path):
        sink = MaildirSink(tmp_path / "mail", {"owner": "me@example.com"})
        sink.deliver(build_notification(NotificationKind.PRESENCE, 7000, "clip-0001"))
        new = tmp_path / "mail" / "new"
        files = sorted(os.listdir(new))
        assert files == ["000001.presence.eml"]
        text = (new / files[0]).read_text(encoding="utf-8")
        headers, _, body = text.partition("\n\n")
        assert "To: owner <me@example.com>" in headers
        assert "Subject: [SENTINEL] PRESENCE at t=7000" in headers
        assert "X-Clip-Id: clip-0001" in headers
        assert body.endswith("\n")

    def test_sequence_numbers_are_stable(self, tmp_path):
        sink = MaildirSink(tmp_path / "mail", {"owner": "o@x", "authorities": "a@x"})
        assert not (tmp_path / "mail").exists()  # no mail, no maildir
        sink.deliver(build_notification(NotificationKind.INTRUSION, 1))
        assert sorted(os.listdir(tmp_path / "mail")) == ["cur", "new", "tmp"]
        sink.deliver(build_notification(NotificationKind.INTRUSION, 2))
        files = sorted(os.listdir(tmp_path / "mail" / "new"))
        assert files == ["000001.intrusion.eml", "000002.intrusion.eml"]
