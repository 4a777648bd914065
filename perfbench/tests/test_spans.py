import pytest

from perfbench import spans


def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": 0}


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(1, "cell", 0.0, 10.0),
        _span(2, "plan", 1.0, 4.0, parent=1),
        _span(3, "run", 3.0, 6.0, parent=1),  # overlaps plan by 1
        _span(4, "serialize", 9.0, 12.0, parent=1),  # runs past its parent
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)


def test_grandchildren_count_only_against_their_parent():
    recorded = [
        _span(1, "app", 0.0, 10.0),
        _span(2, "cell", 2.0, 8.0, parent=1),
        _span(3, "run", 3.0, 7.0, parent=2),
    ]
    own = spans.self_times(recorded)
    assert (own[1], own[2], own[3]) == pytest.approx((4.0, 2.0, 4.0))


def test_blame_sums_self_time_per_layer_worst_first():
    recorded = [
        _span(1, "cell", 0.0, 4.0),
        _span(2, "run", 0.0, 3.0, parent=1),
        _span(3, "cell", 4.0, 6.0),
        _span(4, "run", 4.0, 5.0, parent=3),
    ]
    assert spans.blame(recorded) == [
        ("run", pytest.approx(4.0), 2), ("cell", pytest.approx(2.0), 2),
    ]


def test_recorder_nests_spans_and_attaches_remote_children():
    recorder = spans.SpanRecorder()
    with recorder.span("request", op="r1") as outer:
        with recorder.span("decode") as inner:
            pass
    recorder.attach(outer, "daemon", 1e9)  # clipped to the parent
    by_id = {span["id"]: span for span in recorder.spans}
    assert by_id[inner]["parent"] == outer
    assert by_id[inner]["op"] == "r1"
    daemon = [span for span in recorder.spans if span["name"] == "daemon"][0]
    assert daemon["parent"] == outer
    assert (daemon["start"], daemon["end"]) == (
        by_id[outer]["start"], by_id[outer]["end"],
    )
    assert spans.self_times(recorder.spans)[outer] == pytest.approx(0.0)


def test_null_recorder_records_nothing():
    recorder = spans.NullRecorder()
    with recorder.span("anything") as span_id:
        assert span_id is None
    recorder.attach(None, "daemon", 1.0)
    assert list(recorder.spans) == []
