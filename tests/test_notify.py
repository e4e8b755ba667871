"""Notification policy, sinks, receipts and the outbox."""

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
        assert n.recipients == {OWNER, AUTHORITIES}
        assert n.subject == "[SENTINEL] INTRUSION at t=5000"
        assert n.attachment is None

    def test_presence_carries_clip_to_owner(self):
        n = build_notification(NotificationKind.PRESENCE, 2000, "clip-0001")
        assert n.recipients == {OWNER}
        assert n.attachment == "clip-0001"
        assert "clip-0001" in n.body

    def test_presence_requires_attachment(self):
        with pytest.raises(ValueError):
            build_notification(NotificationKind.PRESENCE, 2000)

    def test_non_presence_refuses_attachment(self):
        with pytest.raises(ValueError):
            build_notification(NotificationKind.INTRUSION, 0, "clip-0001")

    def test_deactivation_mails_owner_only(self):
        for kind in (
            NotificationKind.DEACTIVATION_FAILED,
            NotificationKind.DEACTIVATION_SUCCEEDED,
        ):
            n = build_notification(kind, 7500)
            assert n.recipients == {OWNER}

    def test_presence_copy_to_authorities_flag(self):
        n = build_notification(
            NotificationKind.PRESENCE, 0, "clip-0001", presence_to_authorities=True
        )
        assert n.recipients == {OWNER, AUTHORITIES}

    def test_subject_is_deterministic(self):
        a = build_notification(NotificationKind.INTRUSION, 123)
        b = build_notification(NotificationKind.INTRUSION, 123)
        assert a == b

    def test_intrusion_recipient_invariant_enforced(self):
        with pytest.raises(ValueError):
            Notification(
                kind=NotificationKind.INTRUSION,
                recipients=frozenset({OWNER}),
                subject="s",
                body="b",
                attachment=None,
                created_at=0,
            )


class TestDispatcher:
    def test_fan_out_and_single_outbox_entry(self):
        a, b = MemorySink("a"), MemorySink("b")
        d = Dispatcher([a, b])
        n = build_notification(NotificationKind.INTRUSION, 1)
        receipts = d.dispatch(n)
        assert [r.sink for r in receipts] == ["a", "b"]
        assert all(r.ok for r in receipts)
        assert a.messages == [n] and b.messages == [n]
        assert len(d.outbox) == 1

    def test_failing_sink_is_isolated(self):
        ok = MemorySink("ok")
        d = Dispatcher([FailingSink(), ok])
        n = build_notification(NotificationKind.INTRUSION, 1)
        receipts = d.dispatch(n)
        assert receipts[0].ok is False
        assert "disk on fire" in receipts[0].error
        assert receipts[1].ok is True
        assert ok.messages == [n]

    def test_outbox_preserves_dispatch_order(self):
        d = Dispatcher([MemorySink()])
        kinds = [
            NotificationKind.INTRUSION,
            NotificationKind.DEACTIVATION_FAILED,
            NotificationKind.INTRUSION,
        ]
        for i, kind in enumerate(kinds):
            d.dispatch(build_notification(kind, i))
        assert [e.notification.kind for e in d.outbox.entries] == kinds
        assert [e.notification.created_at for e in d.outbox.entries] == [0, 1, 2]

    def test_counts_include_zeros(self):
        d = Dispatcher([MemorySink()])
        d.dispatch(build_notification(NotificationKind.INTRUSION, 1))
        assert d.outbox.counts() == {
            "PRESENCE": 0,
            "INTRUSION": 1,
            "DEACTIVATION_FAILED": 0,
            "DEACTIVATION_SUCCEEDED": 0,
        }


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
        sink = MaildirSink(tmp_path / "mail")
        sink.deliver(build_notification(NotificationKind.INTRUSION, 1))
        sink.deliver(build_notification(NotificationKind.INTRUSION, 2))
        files = sorted(os.listdir(tmp_path / "mail" / "new"))
        assert files == ["000001.intrusion.eml", "000002.intrusion.eml"]
