"""The structured report against the json.dumps form it must match byte for byte."""

import json

from hypothesis import given
from hypothesis import strategies as st

from sentinelsim.controller import Action, RecordingJob
from sentinelsim.report import RunReport, render_report


def reference_structured(report: RunReport) -> bytes:
    """The structured form as a dict through json.dumps: the definition of the bytes."""
    doc = {
        "scenario": report.scenario,
        "seed": report.seed,
        "rng": report.rng_algorithm,
        "final_mode": report.final_mode,
        "actions": [
            {"t": a.at, "component": a.component, "action": a.action, "details": a.details}
            for a in report.actions
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
reports = st.builds(
    RunReport,
    scenario=texts,
    seed=ints,
    rng_algorithm=texts,
    final_mode=texts,
    actions=st.lists(st.builds(Action, ints, texts, texts, texts), max_size=4).map(tuple),
    outbox_counts=st.dictionaries(texts, ints, max_size=4),
    clips=st.lists(st.builds(RecordingJob, texts, ints, ints, texts), max_size=3).map(tuple),
    clip_bytes=ints,
)


@given(reports)
def test_structured_matches_the_json_dumps_reference(report):
    assert render_report(report, "structured") == reference_structured(report)


@given(st.lists(st.builds(Action, ints, st.text(), st.text(), st.text()), max_size=4))
def test_text_action_lines_keep_the_f_string_layout(actions):
    report = RunReport("s", 0, "rng", "ARMED", tuple(actions), {}, (), 0)
    lines = [f"{a.at}\t{a.component}\t{a.action}\t{a.details}" for a in actions]
    expected = "\n".join(lines + report.summary_lines()) + "\n"
    assert render_report(report, "text") == expected.encode("utf-8")
