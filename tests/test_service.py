"""The campaign service: protocol validation, admission control
(backpressure, quotas, dedup), lifecycle endpoints, streaming, drain.

The heavy chaos-under-load scenarios (worker SIGKILL over HTTP, submit
floods, slow clients, drain + journal resume with byte-identity) live
in :func:`repro.robustness.chaos.run_service_chaos`; these tests pin
the protocol and every admission/lifecycle decision deterministically.
"""

import asyncio
import http.client
import json

import pytest

from repro.api import RunRequest
from repro.orchestrate import dump_bench_json, run_campaign
from repro.service import protocol
from repro.service.client import (ServiceClient, ServiceError,
                                  ServiceOverloaded)
from repro.service.server import (Campaign, CampaignService, HttpFrontend,
                                  ServiceThread, TokenBucket)

# Service campaigns execute on executor threads; chaos-faulted ones then
# fork workers from a threaded process, which Python 3.12 deprecates.
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*fork.*:DeprecationWarning")

SMALL = [
    RunRequest("fib", {"count": 8}),
    RunRequest("reduction", {"strategy": "scalar_tree"}),
]

#: A short watchdog deadline so hang-faulted campaigns stay in flight
#: long enough to observe, then recover quickly.
DEADLINE = 0.8


def _thread(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("journal_dir", str(tmp_path / "journal"))
    kwargs.setdefault("retry_base", 0.01)
    kwargs.setdefault("drain_grace", 0.2)
    return ServiceThread(**kwargs)


class _Stream:
    """A readable byte stream over a fixed buffer, for ``iter_sse``."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def read(self, n):
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


def _hang_submit(client, requests=None, **options):
    """Submit a campaign pinned in flight for ~DEADLINE seconds (hang
    fault on task 0, recovered by the watchdog + retry)."""
    options.setdefault("chaos", {"faults": {"0": "hang"}})
    options.setdefault("deadline_seconds", DEADLINE)
    return client.submit(requests or [RunRequest("fib", {"count": 9})],
                         **options)


class TestProtocol:
    def test_submit_body_round_trips_requests(self):
        body = protocol.submit_body(SMALL, options={"jobs": 2})
        serialized, options = protocol.parse_submit(body)
        assert serialized == [request.to_dict() for request in SMALL]
        assert options == {"jobs": 2}

    def test_campaign_id_is_the_journal_digest(self):
        from repro.journal import campaign_digest

        serialized = [request.to_dict() for request in SMALL]
        assert protocol.campaign_id(serialized) == \
            campaign_digest(serialized)

    def test_schema_tag_required(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_submit({"requests": [SMALL[0].to_dict()]})

    def test_empty_requests_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_submit({"schema": protocol.SERVICE_SCHEMA,
                                   "requests": []})

    def test_unknown_workload_rejected_at_the_boundary(self):
        body = {"schema": protocol.SERVICE_SCHEMA,
                "requests": [{"workload": "no-such-workload", "params": {}}]}
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_submit(body)

    def test_unknown_option_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="unknown option"):
            protocol.validate_options({"bogus": 1})

    def test_deadline_must_be_positive(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_options({"deadline_seconds": 0})

    def test_chaos_option_validates_fault_kinds(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_options({"chaos": {"faults": {"0": "nuke"}}})
        plan = protocol.validate_options(
            {"chaos": {"faults": {0: "kill"}, "persistent": False}})
        assert plan["chaos"]["faults"] == {"0": "kill"}

    def test_oversized_campaign_is_413(self):
        body = protocol.submit_body(SMALL)
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.parse_submit(body, max_requests=1)
        assert info.value.status == 413
        assert info.value.code == "too_large"

    def test_sse_frames_round_trip(self):
        events = [{"event": "task", "index": 1}, {"event": "state",
                                                  "state": "done"}]
        blob = b"".join(protocol.format_sse(event) for event in events)
        assert list(protocol.iter_sse(_Stream(blob))) == events


class TestTokenBucket:
    def test_burst_then_deplete_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.admit(0.0) == (True, 0.0)
        assert bucket.admit(0.0) == (True, 0.0)
        admitted, retry = bucket.admit(0.0)
        assert not admitted and retry == pytest.approx(1.0)
        admitted, _ = bucket.admit(1.0)
        assert admitted

    def test_refill_is_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.admit(0.0)[0]
        assert bucket.admit(100.0)[0]
        assert not bucket.admit(100.0)[0]


class TestLifecycle:
    def test_run_wait_result_byte_identical_to_local_run(self, tmp_path):
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            final = client.run(SMALL, seed=1989)
            assert final["state"] == "done"
            assert final["done"] == len(SMALL)
            text = client.result_text(final["campaign"])
        local = run_campaign(list(SMALL), jobs=1,
                             cache_dir=str(tmp_path / "cache-local"),
                             retry_base=0.01, seed=1989)
        assert text == dump_bench_json(local.results, sweep="service")

    def test_identical_resubmission_deduplicates(self, tmp_path):
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            first = client.run(SMALL)
            again = client.submit(SMALL)
            assert again["campaign"] == first["campaign"]
            assert again["deduplicated"] is True
            assert again["state"] == "done"
            health = client.health()
            assert health["counters"]["submitted"] == 1
            assert health["counters"]["deduplicated"] == 1

    def test_unknown_campaign_is_404(self, tmp_path):
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            with pytest.raises(ServiceError) as info:
                client.status("f" * 64)
            assert info.value.status == 404
            assert info.value.code == "not_found"

    def test_result_before_done_is_409_with_status(self, tmp_path):
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            submitted = _hang_submit(client)
            with pytest.raises(ServiceError) as info:
                client.result_text(submitted["campaign"])
            assert info.value.status == 409
            client.wait(submitted["campaign"])

    def test_cancel_in_flight_campaign(self, tmp_path):
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            # Two tasks with the hang on the first: the abort request
            # always lands before the campaign can complete.
            submitted = _hang_submit(client, [
                RunRequest("fib", {"count": 9}),
                RunRequest("fib", {"count": 10})])
            body = client.cancel(submitted["campaign"])
            assert body["state"] in ("cancelled", "running")
            final = client.wait(submitted["campaign"])
            assert final["state"] == "cancelled"
            with pytest.raises(ServiceError) as info:
                client.cancel(submitted["campaign"])
            assert info.value.status == 409

    def test_sse_stream_reports_tasks_then_terminal_state(self, tmp_path):
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            submitted = _hang_submit(client)
            events = list(client.events(submitted["campaign"], timeout=30.0))
        kinds = [event.get("event") for event in events]
        assert "task" in kinds
        assert events[-1].get("state") == "done"

    def test_health_document_shape(self, tmp_path):
        with _thread(tmp_path) as srv:
            health = ServiceClient(port=srv.port).health()
        assert health["schema"] == protocol.SERVICE_SCHEMA
        assert health["state"] == "serving"
        assert set(health["counters"]) >= {"submitted", "completed",
                                           "rejected_overload",
                                           "rejected_quota"}


class TestAdmissionControl:
    def test_task_budget_backpressure_is_429_with_retry_after(
            self, tmp_path):
        with _thread(tmp_path, max_pending_tasks=1) as srv:
            client = ServiceClient(port=srv.port)
            with pytest.raises(ServiceOverloaded) as info:
                client.submit(SMALL)  # two tasks against a budget of one
            assert info.value.status == 429
            assert info.value.code == "overloaded"
            assert info.value.retry_after and info.value.retry_after > 0

    def test_oversized_campaign_is_rejected_over_http(self, tmp_path):
        with _thread(tmp_path, max_requests=1) as srv:
            client = ServiceClient(port=srv.port)
            with pytest.raises(ServiceError) as info:
                client.submit(SMALL)
            assert info.value.status == 413

    def test_quota_limits_one_client_not_another(self, tmp_path):
        with _thread(tmp_path, quota_rate=0.001, quota_burst=1) as srv:
            flooder = ServiceClient(port=srv.port, client_id="flooder")
            other = ServiceClient(port=srv.port, client_id="other")
            flooder.submit([RunRequest("fib", {"count": 8})])
            with pytest.raises(ServiceOverloaded) as info:
                flooder.submit([RunRequest("fib", {"count": 9})])
            assert info.value.code == "quota_exceeded"
            assert info.value.retry_after > 0
            other.submit([RunRequest("fib", {"count": 10})])

    def test_submit_with_retry_honors_retry_after(self, tmp_path):
        waits = []
        with _thread(tmp_path, max_pending_tasks=1) as srv:
            client = ServiceClient(port=srv.port)
            with pytest.raises(ServiceOverloaded):
                client.submit_with_retry(SMALL, attempts=3,
                                         sleep=waits.append)
        assert len(waits) == 3
        assert all(wait > 0 for wait in waits)


class TestHttpEdges:
    def _raw(self, port, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_unknown_path_is_404(self, tmp_path):
        with _thread(tmp_path) as srv:
            status, _ = self._raw(srv.port, "GET", "/v1/nonsense")
        assert status == 404

    def test_wrong_method_is_405(self, tmp_path):
        with _thread(tmp_path) as srv:
            status, _ = self._raw(srv.port, "DELETE", "/v1/campaigns")
        assert status == 405

    def test_malformed_json_body_is_400(self, tmp_path):
        with _thread(tmp_path) as srv:
            status, data = self._raw(srv.port, "POST", "/v1/campaigns",
                                     body=b"{not json")
        assert status == 400
        assert json.loads(data)["error"]["code"] == "bad_request"


class TestDrainAndResume:
    def test_drain_interrupts_and_refuses_new_work(self, tmp_path):
        srv = _thread(tmp_path).start()
        try:
            client = ServiceClient(port=srv.port)
            submitted = _hang_submit(client)
            srv.drain(grace=0.1)
            status = client.status(submitted["campaign"])
            assert status["state"] in ("interrupted", "done")
            if status["state"] == "interrupted":
                assert "resume_hint" in status
            with pytest.raises(ServiceError) as info:
                client.submit(SMALL)
            assert info.value.status == 503
            assert info.value.code == "draining"
        finally:
            srv.stop()

    def test_resubmission_after_drain_resumes_from_journal(self, tmp_path):
        requests = [RunRequest("fib", {"count": 8 + index})
                    for index in range(3)]
        chaos = {"faults": {"1": "hang"}}
        srv = _thread(tmp_path).start()
        try:
            client = ServiceClient(port=srv.port)
            submitted = _hang_submit(client, requests, chaos=chaos)
            srv.drain(grace=0.1)
        finally:
            srv.stop()
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            resumed = client.submit(requests, chaos=chaos,
                                    deadline_seconds=DEADLINE)
            assert resumed["campaign"] == submitted["campaign"]
            final = client.wait(resumed["campaign"])
            assert final["state"] == "done"
            text = client.result_text(final["campaign"])
        local = run_campaign(
            list(requests), jobs=1, task_timeout=DEADLINE, retry_base=0.01,
            cache_dir=str(tmp_path / "cache-local"), seed=1989,
            chaos=_plan(chaos))
        assert text == dump_bench_json(local.results, sweep="service")

    def test_fresh_option_ignores_the_journal(self, tmp_path):
        with _thread(tmp_path) as srv:
            client = ServiceClient(port=srv.port)
            final = client.run(SMALL, fresh=True)
            assert final["state"] == "done"
            assert final["resumed"] == 0


def _plan(chaos_option):
    from repro.robustness.chaos import ChaosPlan

    return ChaosPlan(faults={int(k): v for k, v
                             in chaos_option["faults"].items()})


class TestServiceCore:
    def test_constructor_normalizes_bounds(self, tmp_path):
        service = CampaignService(jobs=0, max_active=0,
                                  cache_dir=tmp_path / "c")
        assert service.jobs == 1
        assert service.max_active == 1
        assert service.cache_dir == str(tmp_path / "c")

    def test_sse_stream_ends_terminal_when_campaign_finishes_mid_snapshot(
            self, tmp_path):
        # The campaign turns terminal while the leading status snapshot
        # drains: the stream must still end on the terminal state event
        # that transition queued, not on the stale "running" snapshot.
        service = CampaignService(cache_dir=tmp_path / "c")
        serialized = [SMALL[0].to_dict()]
        cid = protocol.campaign_id(serialized)
        campaign = Campaign(cid, serialized, {}, 0)
        campaign.state = "running"
        service.campaigns[cid] = campaign

        class Writer:
            def __init__(self):
                self.data = b""
                self.drains = 0

            def write(self, data):
                self.data += data

            async def drain(self):
                self.drains += 1
                if self.drains == 1:
                    service._finish(campaign, "done")

        writer = Writer()
        asyncio.run(HttpFrontend(service)._stream_events(cid, writer))
        body = writer.data.split(b"\r\n\r\n", 1)[1]
        events = list(protocol.iter_sse(_Stream(body)))
        assert events[0]["event"] == "status"
        assert events[0]["state"] == "running"
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] in protocol.TERMINAL_STATES
