"""The structured report against the json.dumps form it must match byte for byte."""

import json
import os
import sys
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from sentinelsim.controller import RecordingJob
from sentinelsim.engine import run
from sentinelsim.report import RunReport, render_report
from sentinelsim.scenario import parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_structured(report: RunReport, rows: list) -> bytes:
    """The structured form as a dict through json.dumps: the definition of the bytes.
    ``rows`` are the ``(at, component, action, details)`` the report's lines were
    built from, so the reference does not read the lines back."""
    doc = {
        "scenario": report.scenario,
        "seed": report.seed,
        "rng": report.rng_algorithm,
        "final_mode": report.final_mode,
        "actions": [
            {"t": at, "component": component, "action": action, "details": details}
            for at, component, action, details in rows
        ],
        "outbox": dict(report.outbox_counts),
        "clips": [
            {
                "clip_id": job.clip_id,
                "started_at": job.started_at,
                "duration_ms": job.duration_ms,
                "stored_ref": job.stored_ref,
                "bytes": report.clip_bytes,
            }
            for job in report.clips
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


# any character, plus lone surrogates and the ones JSON must escape, often
texts = st.text(
    st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),
        st.sampled_from('"\\/\x00\x08\x1f\x7f '),
    )
)
ints = st.one_of(
    st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64))
)


def action_rows(text):
    """(at, component, action, details) as the controller logs them: no tab in the
    first three fields; the details may hold one."""
    tab_free = text.filter(lambda s: "\t" not in s)
    return st.lists(st.tuples(ints, tab_free, tab_free, text), max_size=4)


def lines_of(rows) -> tuple:
    return tuple(f"{at}\t{component}\t{action}\t{details}" for at, component, action, details in rows)


@given(action_rows(texts), st.data())
def test_structured_matches_the_json_dumps_reference(rows, data):
    report = data.draw(st.builds(
        RunReport,
        scenario=texts,
        seed=ints,
        rng_algorithm=texts,
        final_mode=texts,
        actions=st.just(lines_of(rows)),
        outbox_counts=st.dictionaries(texts, ints, max_size=4),
        clips=st.lists(st.builds(RecordingJob, texts, ints, ints, texts), max_size=3).map(tuple),
        clip_bytes=ints,
    ))
    assert render_report(report, "structured") == reference_structured(report, rows)


@given(action_rows(st.text()))
def test_text_action_lines_are_the_logged_lines(rows):
    lines = lines_of(rows)
    report = RunReport("s", 0, "rng", "ARMED", lines, {}, (), 0)
    expected = "\n".join([*lines, *report.summary_lines()]) + "\n"
    assert render_report(report, "text") == expected.encode("utf-8")


def test_text_render_peaks_under_three_times_its_bytes():
    # long_stream's event mix and config at 2 * 10^4 events (about 11,000 actions). The
    # joined text and its encoded bytes are two copies of the report; a third, such as a
    # new string per action line, would pass 3x.
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    text = gen.scenario_text(gen.derive(11, 2), 20_000)
    report = run(parse_scenario(text, name="stream"), seed=11, cli_overrides=gen.STREAM_OVERRIDES)
    assert len(report.actions) > 10_000
    tracemalloc.start()
    try:
        rendered = render_report(report, "text")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(rendered)
