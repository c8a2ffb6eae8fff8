"""Self-time arithmetic of the tracer, on synthetic nested spans.

    python3 -m pytest perfbench/test_tracing.py
"""

import pytest

from tracing import Tracer, self_times, summarize


def test_self_time_subtracts_the_union_of_children():
    # id:        0 root  1 child  2 overlapping  3 child  4 grandchild  5 overruns
    start = [0.0, 1.0, 2.0, 5.0, 5.2, 9.0]
    end = [10.0, 3.0, 4.0, 6.0, 5.5, 12.0]
    parent = [-1, 0, 0, 0, 3, 0]
    own = self_times(start, end, parent)
    # Root: children cover [1, 4] + [5, 6] + [9, 10] (clipped) = 5.
    assert own == pytest.approx([5.0, 2.0, 2.0, 0.7, 0.3, 3.0])


def test_summarize_sums_calls_total_and_self_per_name():
    names = ["outer", "inner"]
    spans = summarize(names, [0, 1, 1, 0], [0.0, 1.0, 3.0, 10.0], [5.0, 2.0, 4.5, 11.0],
                      [-1, 0, 0, -1])
    assert spans["outer"] == pytest.approx({"calls": 2, "total_s": 6.0, "self_s": 3.5})
    assert spans["inner"] == pytest.approx({"calls": 2, "total_s": 2.5, "self_s": 2.5})


def test_wrapped_calls_record_their_parent():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4  # disabled: no spans
    tracer.enabled = True
    assert outer(1) == 4
    assert [tracer.names[i] for i in tracer.span_name] == ["outer", "inner"]
    assert list(tracer.span_parent) == [-1, 0]
    assert tracer.span_start[0] <= tracer.span_start[1] <= tracer.span_end[1] <= tracer.span_end[0]
