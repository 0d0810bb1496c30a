"""Unit tests for the instrumentation core (:mod:`repro.obs.core`)."""

import json

import pytest

from repro.obs import core
from repro.obs.core import (
    NULL_RECORDER,
    NullRecorder,
    RunRecorder,
    get_recorder,
    sample_hash,
    set_recorder,
    use_recorder,
)
from repro.routing.transaction import Payment


def make_payment(value: float = 5.0, created_at: float = 0.25) -> Payment:
    return Payment.create("a", "b", value, created_at=created_at, timeout=3.0)


class TestSampleHash:
    def test_deterministic_and_in_unit_interval(self):
        draws = [sample_hash(7, "a", "b", 5.0, 0.25) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        assert 0.0 <= draws[0] < 1.0

    def test_sensitive_to_every_component(self):
        base = sample_hash(7, "a", "b", 5.0, 0.25)
        assert sample_hash(8, "a", "b", 5.0, 0.25) != base
        assert sample_hash(7, "c", "b", 5.0, 0.25) != base
        assert sample_hash(7, "a", "c", 5.0, 0.25) != base
        assert sample_hash(7, "a", "b", 6.0, 0.25) != base
        assert sample_hash(7, "a", "b", 5.0, 0.75) != base

    def test_roughly_uniform(self):
        draws = [sample_hash(0, i, i + 1, 1.0 + i, float(i)) for i in range(2000)]
        below = sum(1 for draw in draws if draw < 0.5)
        assert 800 < below < 1200


class TestNullRecorder:
    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        assert rec.health is None
        payment = make_payment()
        assert rec.payment_begin(payment) is False
        rec.payment_event(payment, "lock", 0.0)
        rec.payment_end(payment, "settle", 1.0)
        rec.trace_event("run.start", 0.0)
        rec.incr("anything")
        rec.note_batch("scheme", 3)
        with rec.timer("noop"):
            pass
        rec.close()

    def test_global_recorder_defaults_to_null(self):
        assert get_recorder() is NULL_RECORDER
        assert core.RECORDER is NULL_RECORDER


class TestRecorderInstallation:
    def test_set_and_restore(self):
        live = RunRecorder(sample_rate=1.0)
        assert set_recorder(live) is live
        assert core.RECORDER is live
        assert set_recorder(None) is NULL_RECORDER
        assert core.RECORDER is NULL_RECORDER

    def test_use_recorder_restores_on_error(self):
        live = RunRecorder(sample_rate=1.0)
        with pytest.raises(RuntimeError):
            with use_recorder(live):
                assert core.RECORDER is live
                raise RuntimeError("boom")
        assert core.RECORDER is NULL_RECORDER


class TestRunRecorder:
    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            RunRecorder(sample_rate=1.5)
        with pytest.raises(ValueError):
            RunRecorder(sample_rate=-0.1)

    def test_header_event_first(self):
        rec = RunRecorder(sample_rate=0.5, seed=9)
        header = rec.events[0]
        assert header["kind"] == "trace.header"
        assert header["sample_rate"] == 0.5
        assert header["trace_seed"] == 9

    def test_payment_begin_idempotent_and_pid_sequential(self):
        rec = RunRecorder(sample_rate=1.0)
        first, second = make_payment(), make_payment(value=7.0)
        assert rec.payment_begin(first) is True
        assert rec.payment_begin(first) is True  # idempotent: no second arrive
        assert rec.payment_begin(second) is True
        arrivals = [e for e in rec.events if e["kind"] == "payment.arrive"]
        assert [e["pid"] for e in arrivals] == [0, 1]
        assert rec.sampled_payments == 2

    def test_zero_rate_samples_nothing(self):
        rec = RunRecorder(sample_rate=0.0)
        payment = make_payment()
        assert rec.payment_begin(payment) is False
        rec.payment_event(payment, "lock", 0.0)
        rec.payment_end(payment, "fail", 1.0, reason="timeout")
        assert [e["kind"] for e in rec.events] == ["trace.header"]

    def test_payment_event_accepts_raw_id(self):
        rec = RunRecorder(sample_rate=1.0)
        payment = make_payment()
        rec.payment_begin(payment)
        rec.payment_event(payment.payment_id, "lock", 0.5, channel=["a", "b"])
        lock = rec.events[-1]
        assert lock["kind"] == "payment.lock"
        assert lock["pid"] == 0
        assert lock["channel"] == ["a", "b"]

    def test_payment_end_retires_the_payment(self):
        rec = RunRecorder(sample_rate=1.0)
        payment = make_payment()
        rec.payment_begin(payment)
        rec.payment_end(payment, "settle", 1.0, value=5.0)
        assert not rec._sampled
        # Events after the terminal span are dropped (payment retired).
        rec.payment_event(payment, "lock", 2.0)
        assert rec.events[-1]["kind"] == "payment.settle"

    def test_scheme_stamped_on_events(self):
        rec = RunRecorder(sample_rate=1.0)
        rec.set_scheme("splicer")
        rec.trace_event("run.start", 0.0)
        assert rec.events[-1]["scheme"] == "splicer"
        rec.set_scheme(None)
        rec.trace_event("run.end", 1.0)
        assert "scheme" not in rec.events[-1]

    def test_counters_and_timer(self):
        rec = RunRecorder()
        rec.incr("foo")
        rec.incr("foo", 2.0)
        with rec.timer("work"):
            pass
        assert rec.counters["foo"] == 3.0
        assert rec.counters["time.work"] >= 0.0

    def test_note_batch_feeds_counters(self):
        rec = RunRecorder()
        rec.note_batch("splicer", 4)
        rec.note_batch("splicer", 2)
        assert rec.counters["arrivals.batches"] == 2.0
        assert rec.counters["arrivals.requests"] == 6.0

    def test_file_output_is_jsonl(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        rec = RunRecorder(trace_path=path, sample_rate=1.0)
        payment = make_payment()
        rec.payment_begin(payment)
        rec.payment_end(payment, "settle", 1.0)
        rec.close()
        rec.close()  # idempotent
        lines = [json.loads(line) for line in open(path)]
        assert [event["kind"] for event in lines] == [
            "trace.header",
            "payment.arrive",
            "payment.settle",
        ]
        assert rec.events_written == 3

    def test_summary_digest(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        rec = RunRecorder(trace_path=path, sample_rate=1.0, seed=3)
        rec.payment_begin(make_payment())
        rec.incr("foo")
        rec.close()
        digest = rec.summary()
        assert digest["trace"] == path
        assert digest["sampled_payments"] == 1
        assert digest["trace_events"] == 2
        assert digest["trace_seed"] == 3
        assert digest["counters"] == {"foo": 1.0}
        json.dumps(digest)  # row-embeddable
