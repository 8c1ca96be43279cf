"""The asyncio campaign server: ``python -m repro serve``.

Stdlib only -- ``asyncio.start_server`` plus a deliberately small
HTTP/1.1 layer (one request per connection, bounded header/body sizes,
read deadlines) -- because the robustness properties are the product
here and every dependency is attack surface.

Endpoints (all JSON, schema ``repro-service/1``):

* ``POST /v1/campaigns``               -- submit a campaign
* ``GET  /v1/campaigns/<id>``          -- status
* ``GET  /v1/campaigns/<id>/result``   -- the BENCH document (when done)
* ``POST /v1/campaigns/<id>/cancel``   -- cancel (queued or running)
* ``GET  /v1/campaigns/<id>/events``   -- server-sent-event progress
* ``GET  /v1/health``                  -- load/drain/quota telemetry

Robustness semantics, in order of admission:

1. **Drain** -- after SIGTERM/SIGINT the service stops admitting
   (HTTP 503 ``draining``), lets in-flight campaigns finish for a grace
   period, then aborts them through the orchestrator's ``should_abort``
   hook; their finalized tasks are already journaled, and the terminal
   status carries a resume hint (the journal path + "resubmit to
   resume").
2. **Quota** -- a per-client token bucket (keyed by the
   ``X-Repro-Client`` header, else the peer address) rejects floods
   with HTTP 429 + ``Retry-After``.
3. **Dedup** -- a campaign's identity is the digest of its serialized
   request list; resubmitting a queued/running/done campaign returns
   the existing record instead of double-executing (the task-level
   analogue is the digest-keyed result cache every worker already
   shares).
4. **Backpressure** -- a bounded admission queue and an in-flight task
   budget reject overload with HTTP 429 + ``Retry-After`` sized from
   the current backlog.

Campaigns execute on the existing supervised worker fleet
(:func:`repro.orchestrate.run_campaign`) in an executor thread: per-task
watchdog timeouts (``deadline_seconds`` propagates to
``--task-timeout``), seeded-backoff retries, poison-task quarantine,
and the crash-safe journal all apply unchanged, so the service's BENCH
output is byte-identical to a local ``Session.run_many`` of the same
requests.
"""

import asyncio
import json
import os
import threading
import time
from collections import deque

from repro import orchestrate
from repro.service import protocol

#: Hard ceilings on what one HTTP request may send.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

#: How long a client may dribble its request before a 408.
REQUEST_READ_TIMEOUT = 10.0

#: How long one SSE write may stall on a slow client before the
#: subscriber is dropped (the campaign itself is never slowed down).
SSE_WRITE_TIMEOUT = 10.0

#: SSE heartbeat interval (comment frames keep proxies from timing out).
SSE_HEARTBEAT_SECONDS = 5.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class TokenBucket:
    """Per-client admission quota: ``burst`` tokens refilled at
    ``rate`` tokens/second; one submit spends one token."""

    def __init__(self, rate, burst):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = None

    def admit(self, now):
        """``(admitted, retry_after_seconds)`` for one request at
        monotonic time ``now``."""
        if self.stamp is not None:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class Campaign:
    """One submitted campaign's full service-side state."""

    def __init__(self, cid, serialized, options, order):
        self.id = cid
        self.serialized = serialized
        self.options = options
        self.order = order
        self.state = "queued"
        self.total = len(serialized)
        self.done = 0
        self.resumed = 0
        self.failed_tasks = 0
        self.error = None
        self.bench_text = None
        self.journal_path = None
        self.wall_seconds = None
        self.abort = threading.Event()
        self.abort_reason = None
        self.subscribers = set()
        self.event_seq = 0

    @property
    def terminal(self):
        return self.state in protocol.TERMINAL_STATES

    def status_body(self, draining=False):
        body = {
            "schema": protocol.SERVICE_SCHEMA,
            "campaign": self.id,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "resumed": self.resumed,
            "failed_tasks": self.failed_tasks,
            "sweep": self.options.get("sweep", "service"),
        }
        if self.error is not None:
            body["error_detail"] = self.error
        if self.wall_seconds is not None:
            body["wall_seconds"] = round(self.wall_seconds, 3)
        if self.state == "interrupted" or (draining and not self.terminal):
            body["resume_hint"] = self.resume_hint()
        return body

    def resume_hint(self):
        hint = {"hint": "resubmit the identical campaign to resume; "
                        "journaled tasks will not re-execute"}
        if self.journal_path:
            hint["journal_path"] = self.journal_path
        return hint


class CampaignService:
    """The service core: admission, scheduling, execution, telemetry.

    Owns no sockets -- :class:`HttpFrontend` (or a test) drives it.
    ``attach(loop)`` must run inside the event loop before campaigns
    flow; execution happens in executor threads via
    :func:`repro.orchestrate.run_campaign`, so every fault-tolerance
    property of the supervised fleet holds behind the network boundary.
    """

    def __init__(self, jobs=2, cache_dir=None, journal_dir=None,
                 max_queue=16, max_active=1, max_pending_tasks=256,
                 max_requests=1024, quota_rate=None, quota_burst=8,
                 task_timeout=None, max_retries=None, seed=1989,
                 retry_base=None, start_method=None, drain_grace=5.0):
        self.jobs = max(1, int(jobs))
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.journal_dir = str(journal_dir) if journal_dir else None
        self.max_queue = int(max_queue)
        self.max_active = max(1, int(max_active))
        self.max_pending_tasks = int(max_pending_tasks)
        self.max_requests = int(max_requests)
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.task_timeout = task_timeout
        self.max_retries = (orchestrate.DEFAULT_MAX_RETRIES
                            if max_retries is None else int(max_retries))
        self.retry_base = (orchestrate.DEFAULT_RETRY_BASE
                           if retry_base is None else float(retry_base))
        self.seed = int(seed)
        self.start_method = start_method
        self.drain_grace = float(drain_grace)

        self.campaigns = {}
        self.queue = deque()
        self.active = set()
        self.draining = False
        self.counters = {"submitted": 0, "deduplicated": 0,
                         "rejected_overload": 0, "rejected_quota": 0,
                         "rejected_draining": 0, "completed": 0,
                         "cancelled": 0, "interrupted": 0, "failed": 0}
        self._buckets = {}
        self._order = 0
        self.loop = None
        self._wake = None
        self._scheduler = None
        self._drained = None

    # -- lifecycle ------------------------------------------------------

    def attach(self, loop):
        """Bind to the running event loop and start the scheduler."""
        self.loop = loop
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._scheduler = loop.create_task(self._schedule())

    async def aclose(self):
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None

    # -- admission ------------------------------------------------------

    def pending_tasks(self):
        """Tasks admitted but not finalized (queued + running)."""
        return sum(c.total - c.done for c in self.campaigns.values()
                   if not c.terminal)

    def _bucket(self, client):
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.quota_rate, self.quota_burst)
            self._buckets[client] = bucket
        return bucket

    def _retry_after(self):
        """The backoff the service asks an overloaded client for: one
        slot's worth of the backlog, floored at 1s (deterministic in
        the queue state, so tests can assert on it)."""
        backlog = len(self.queue) + len(self.active)
        return max(1, backlog)

    def submit(self, serialized, options, client="anonymous"):
        """Admit one campaign; returns ``(status, body, headers)``.

        Admission order: drain (503) -> quota (429) -> dedup (200) ->
        backpressure (429) -> enqueue (202-style 200).
        """
        if self.draining:
            self.counters["rejected_draining"] += 1
            return 503, protocol.error_body(
                "draining", "service is draining; not admitting new "
                "campaigns"), {}
        if self.quota_rate:
            admitted, retry_after = self._bucket(client).admit(
                time.monotonic())
            if not admitted:
                self.counters["rejected_quota"] += 1
                retry = max(1, int(retry_after + 0.999))
                return 429, protocol.error_body(
                    "quota_exceeded",
                    "client %r exceeded its submit quota" % client,
                    retry_after=retry), {"Retry-After": str(retry)}
        cid = protocol.campaign_id(serialized)
        existing = self.campaigns.get(cid)
        if existing is not None and existing.state in ("queued", "running",
                                                       "done"):
            self.counters["deduplicated"] += 1
            body = existing.status_body(draining=self.draining)
            body["deduplicated"] = True
            return 200, body, {}
        if (len(self.queue) >= self.max_queue
                or self.pending_tasks() + len(serialized)
                > self.max_pending_tasks):
            self.counters["rejected_overload"] += 1
            retry = self._retry_after()
            return 429, protocol.error_body(
                "overloaded",
                "admission queue is full (%d queued, %d tasks in flight)"
                % (len(self.queue), self.pending_tasks()),
                retry_after=retry), {"Retry-After": str(retry)}
        self._order += 1
        campaign = Campaign(cid, serialized, options, self._order)
        self.campaigns[cid] = campaign
        self.queue.append(campaign)
        self.counters["submitted"] += 1
        self._wake.set()
        self._publish(campaign, {"event": "state", "state": "queued"})
        body = campaign.status_body()
        body["deduplicated"] = False
        body["position"] = len(self.queue)
        return 200, body, {}

    def cancel(self, cid):
        campaign = self.campaigns.get(cid)
        if campaign is None:
            return 404, protocol.error_body(
                "not_found", "unknown campaign %r" % cid), {}
        if campaign.terminal:
            return 409, protocol.error_body(
                "conflict", "campaign is already %s" % campaign.state), {}
        if campaign.state == "queued":
            try:
                self.queue.remove(campaign)
            except ValueError:
                pass
            self._finish(campaign, "cancelled", error="cancelled by client")
        else:
            campaign.abort_reason = "cancelled"
            campaign.abort.set()
        self.counters["cancelled"] += 1
        return 200, campaign.status_body(), {}

    def status(self, cid):
        campaign = self.campaigns.get(cid)
        if campaign is None:
            return 404, protocol.error_body(
                "not_found", "unknown campaign %r" % cid), {}
        return 200, campaign.status_body(draining=self.draining), {}

    def result(self, cid):
        campaign = self.campaigns.get(cid)
        if campaign is None:
            return 404, protocol.error_body(
                "not_found", "unknown campaign %r" % cid), {}
        if campaign.state != "done":
            body = protocol.error_body(
                "conflict", "campaign is %s, result exists only once done"
                % campaign.state)
            body["status"] = campaign.status_body(draining=self.draining)
            return 409, body, {}
        return 200, campaign.bench_text, {"Content-Type": "application/json"}

    def health(self):
        states = {}
        for campaign in self.campaigns.values():
            states[campaign.state] = states.get(campaign.state, 0) + 1
        return 200, {
            "schema": protocol.SERVICE_SCHEMA,
            "state": "draining" if self.draining else "serving",
            "queue_depth": len(self.queue),
            "active": len(self.active),
            "pending_tasks": self.pending_tasks(),
            "max_queue": self.max_queue,
            "max_pending_tasks": self.max_pending_tasks,
            "jobs": self.jobs,
            "quota": {"rate": self.quota_rate, "burst": self.quota_burst}
            if self.quota_rate else None,
            "campaign_states": states,
            "counters": dict(self.counters),
        }, {}

    # -- scheduling and execution ---------------------------------------

    async def _schedule(self):
        while True:
            while self.queue and len(self.active) < self.max_active:
                campaign = self.queue.popleft()
                task = self.loop.create_task(self._execute(campaign))
                self.active.add(task)
                task.add_done_callback(self._campaign_finished)
            self._wake.clear()
            if self.draining and not self.queue and not self.active:
                self._drained.set()
            await self._wake.wait()

    def _campaign_finished(self, task):
        """A campaign slot freed up: wake the scheduler so queued work
        starts without waiting for the next submission."""
        self.active.discard(task)
        if self._wake is not None:
            self._wake.set()

    async def _execute(self, campaign):
        campaign.state = "running"
        self._publish(campaign, {"event": "state", "state": "running"})
        try:
            outcome = await self.loop.run_in_executor(
                None, self._run_sync, campaign)
        except orchestrate.CampaignAborted as exc:
            if campaign.abort_reason == "cancelled":
                state = "cancelled"
            else:
                state = "interrupted"
                self.counters["interrupted"] += 1
            self._finish(campaign, state, error=str(exc))
        except Exception as exc:  # the campaign, never the service, fails
            self.counters["failed"] += 1
            self._finish(campaign, "failed",
                         error="%s: %s" % (type(exc).__name__, exc))
        else:
            campaign.bench_text = outcome["bench_text"]
            campaign.resumed = outcome["resumed"]
            campaign.failed_tasks = outcome["failed_tasks"]
            campaign.wall_seconds = outcome["wall_seconds"]
            self.counters["completed"] += 1
            self._finish(campaign, "done")
        finally:
            self._wake.set()

    def _run_sync(self, campaign):
        """Executor-thread body: the ordinary orchestrator campaign."""
        from repro.api import RunRequest

        options = campaign.options
        chaos = None
        if options.get("chaos"):
            from repro.robustness.chaos import ChaosPlan

            spec = options["chaos"]
            chaos = ChaosPlan(
                faults={int(k): v for k, v in spec["faults"].items()},
                persistent=spec.get("persistent", False),
                hang_seconds=spec.get("hang_seconds", 3600.0))
        requests = [RunRequest.from_dict(entry)
                    for entry in campaign.serialized]

        def on_task(index, payload, sidecar):
            campaign.done += 1
            if payload.get("failure") is not None:
                campaign.failed_tasks += 1
            self.publish_threadsafe(campaign, {
                "event": "task",
                "index": index,
                "done": campaign.done,
                "total": campaign.total,
                "workload": payload.get("workload"),
                "cached": bool(sidecar.get("cached")),
                "resumed": bool(sidecar.get("resumed")),
                "failed": bool(sidecar.get("failed")),
            })

        def progress(line):
            self.publish_threadsafe(campaign,
                                    {"event": "progress", "line": line})

        if self.journal_dir:
            from repro.journal import CampaignJournal

            campaign.journal_path = CampaignJournal(
                self.journal_dir, campaign.serialized).path
        run = orchestrate.run_campaign(
            requests,
            jobs=options.get("jobs", self.jobs),
            cache_dir=self.cache_dir,
            progress=progress,
            task_timeout=options.get("deadline_seconds", self.task_timeout),
            max_retries=options.get("max_retries", self.max_retries),
            retry_base=self.retry_base,
            journal_dir=self.journal_dir,
            resume=bool(self.journal_dir) and not options.get("fresh"),
            chaos=chaos,
            start_method=self.start_method,
            seed=options.get("seed", self.seed),
            should_abort=campaign.abort.is_set,
            on_task=on_task)
        return {
            "bench_text": orchestrate.dump_bench_json(
                run.results, sweep=options.get("sweep", "service")),
            "resumed": run.resumed_count,
            "failed_tasks": run.failed_count,
            "wall_seconds": run.wall_seconds,
        }

    def _finish(self, campaign, state, error=None):
        campaign.state = state
        if error is not None:
            campaign.error = error
        event = {"event": "state", "state": state, "done": campaign.done,
                 "total": campaign.total}
        if error is not None:
            event["error"] = error
        if state == "interrupted":
            event["resume_hint"] = campaign.resume_hint()
        self._publish(campaign, event)

    # -- draining -------------------------------------------------------

    async def drain(self, grace=None):
        """Stop admitting, finish or journal in-flight campaigns.

        Queued campaigns are marked ``interrupted`` immediately (nothing
        started; the resume hint says resubmit).  Running campaigns get
        ``grace`` seconds to finish, then are aborted through
        ``should_abort`` -- their finalized tasks are already fsynced in
        the journal, so a resubmission resumes the remainder.
        """
        grace = self.drain_grace if grace is None else float(grace)
        self.draining = True
        while self.queue:
            campaign = self.queue.popleft()
            self.counters["interrupted"] += 1
            self._finish(campaign, "interrupted",
                         error="service drained before the campaign "
                               "started")
        self._wake.set()
        if self.active:
            await asyncio.wait(set(self.active), timeout=grace)
        if self.active:
            for campaign in self.campaigns.values():
                if not campaign.terminal:
                    campaign.abort_reason = "drain"
                    campaign.abort.set()
            remaining = set(self.active)
            if remaining:
                await asyncio.wait(remaining)
        self._drained.set()

    # -- events ---------------------------------------------------------

    def subscribe(self, campaign):
        queue = asyncio.Queue(maxsize=512)
        campaign.subscribers.add(queue)
        return queue

    def unsubscribe(self, campaign, queue):
        campaign.subscribers.discard(queue)

    def _publish(self, campaign, event):
        campaign.event_seq += 1
        event = dict(event, campaign=campaign.id, seq=campaign.event_seq)
        for queue in list(campaign.subscribers):
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                # A subscriber this far behind is dead weight; it will
                # see the stream end and can re-poll status.
                campaign.subscribers.discard(queue)

    def publish_threadsafe(self, campaign, event):
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self._publish, campaign, event)


# ---------------------------------------------------------------------------
# The HTTP/1.1 frontend
# ---------------------------------------------------------------------------

class _HttpError(Exception):
    def __init__(self, status, code, message):
        super().__init__(message)
        self.status = status
        self.code = code


class HttpFrontend:
    """Minimal, bounded HTTP layer over :class:`CampaignService`.

    One request per connection (``Connection: close``): simple to
    reason about under chaos, and immune to pipelining state bugs.
    Header and body sizes are capped; a client that dribbles or stalls
    its request hits the read deadline and gets a 408 -- a slow client
    can never wedge the accept loop, which stays async throughout.
    """

    def __init__(self, service, host="127.0.0.1", port=0,
                 read_timeout=REQUEST_READ_TIMEOUT):
        self.service = service
        self.host = host
        self.port = port
        self.read_timeout = float(read_timeout)
        self._server = None

    async def start(self):
        self.service.attach(asyncio.get_running_loop())
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def aclose(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.aclose()

    # -- connection handling -------------------------------------------

    async def _handle(self, reader, writer):
        try:
            try:
                method, path, headers, body = await asyncio.wait_for(
                    self._read_request(reader), self.read_timeout)
            except asyncio.TimeoutError:
                await self._respond(writer, 408, protocol.error_body(
                    "timeout", "request not received in %.0fs"
                    % self.read_timeout))
                return
            except _HttpError as exc:
                await self._respond(writer, exc.status, protocol.error_body(
                    exc.code, str(exc)))
                return
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                return  # client went away mid-request: nothing to answer
            await self._route(method, path, headers, body, writer)
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # a dying client is routine, never fatal
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line:
            raise _HttpError(400, "bad_request", "empty request")
        try:
            method, path, _version = (
                request_line.decode("latin-1").strip().split(" ", 2))
        except ValueError:
            raise _HttpError(400, "bad_request",
                             "malformed request line") from None
        headers = {}
        total = len(request_line)
        while True:
            line = await reader.readline()
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise _HttpError(431, "too_large", "request headers exceed "
                                 "%d bytes" % MAX_HEADER_BYTES)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                length = int(length)
            except ValueError:
                raise _HttpError(400, "bad_request",
                                 "bad Content-Length") from None
            if length > MAX_BODY_BYTES:
                raise _HttpError(413, "too_large", "request body exceeds "
                                 "%d bytes" % MAX_BODY_BYTES)
            body = await reader.readexactly(length)
        return method.upper(), path, headers, body

    async def _respond(self, writer, status, payload, headers=None):
        if isinstance(payload, (dict, list)):
            body = protocol.encode_json(payload)
            content_type = "application/json"
        else:
            body = payload if isinstance(payload, bytes) else str(
                payload).encode("utf-8")
            content_type = (headers or {}).pop("Content-Type",
                                               "application/json")
        head = ["HTTP/1.1 %d %s" % (status, _REASONS.get(status, "?")),
                "Content-Type: %s" % content_type,
                "Content-Length: %d" % len(body),
                "Connection: close"]
        for name, value in (headers or {}).items():
            head.append("%s: %s" % (name, value))
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    # -- routing --------------------------------------------------------

    async def _route(self, method, path, headers, body, writer):
        path = path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]
        service = self.service
        if parts[:1] != ["v1"]:
            await self._respond(writer, 404, protocol.error_body(
                "not_found", "unknown path %r" % path))
            return
        if parts == ["v1", "health"]:
            if method != "GET":
                return await self._method_not_allowed(writer, method)
            status, payload, extra = service.health()
            return await self._respond(writer, status, payload, extra)
        if parts == ["v1", "campaigns"]:
            if method != "POST":
                return await self._method_not_allowed(writer, method)
            return await self._submit(headers, body, writer)
        if len(parts) >= 3 and parts[:2] == ["v1", "campaigns"]:
            cid = parts[2]
            tail = parts[3:]
            if not tail:
                if method != "GET":
                    return await self._method_not_allowed(writer, method)
                status, payload, extra = service.status(cid)
                return await self._respond(writer, status, payload, extra)
            if tail == ["result"]:
                if method != "GET":
                    return await self._method_not_allowed(writer, method)
                status, payload, extra = service.result(cid)
                return await self._respond(writer, status, payload, extra)
            if tail == ["cancel"]:
                if method != "POST":
                    return await self._method_not_allowed(writer, method)
                status, payload, extra = service.cancel(cid)
                return await self._respond(writer, status, payload, extra)
            if tail == ["events"]:
                if method != "GET":
                    return await self._method_not_allowed(writer, method)
                return await self._stream_events(cid, writer)
        await self._respond(writer, 404, protocol.error_body(
            "not_found", "unknown path %r" % path))

    async def _method_not_allowed(self, writer, method):
        await self._respond(writer, 405, protocol.error_body(
            "method_not_allowed", "method %s not allowed here" % method))

    async def _submit(self, headers, body, writer):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return await self._respond(writer, 400, protocol.error_body(
                "bad_request", "submit body is not valid JSON"))
        try:
            serialized, options = protocol.parse_submit(
                payload, max_requests=self.service.max_requests)
        except protocol.ProtocolError as exc:
            return await self._respond(writer, exc.status,
                                       protocol.error_body(exc.code,
                                                           str(exc)))
        client = headers.get("x-repro-client") or "anonymous"
        status, reply, extra = self.service.submit(serialized, options,
                                                   client=client)
        await self._respond(writer, status, reply, extra)

    async def _stream_events(self, cid, writer):
        service = self.service
        campaign = service.campaigns.get(cid)
        if campaign is None:
            return await self._respond(writer, 404, protocol.error_body(
                "not_found", "unknown campaign %r" % cid))
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1"))
        queue = service.subscribe(campaign)
        try:
            # Always lead with a status snapshot so a late subscriber
            # (or one racing the terminal transition) sees the state.
            snapshot = dict(campaign.status_body(draining=service.draining),
                            event="status")
            writer.write(protocol.format_sse(snapshot))
            await asyncio.wait_for(writer.drain(), SSE_WRITE_TIMEOUT)
            if campaign.terminal:
                # The campaign may have finished while the snapshot
                # drained.  Every transition publishes on this loop, so
                # its terminal state event is already queued: flush it
                # rather than end the stream on a stale snapshot.
                while not queue.empty():
                    writer.write(protocol.format_sse(queue.get_nowait()))
                await asyncio.wait_for(writer.drain(), SSE_WRITE_TIMEOUT)
                return
            while True:
                try:
                    event = await asyncio.wait_for(queue.get(),
                                                   SSE_HEARTBEAT_SECONDS)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await asyncio.wait_for(writer.drain(),
                                           SSE_WRITE_TIMEOUT)
                    continue
                writer.write(protocol.format_sse(event))
                await asyncio.wait_for(writer.drain(), SSE_WRITE_TIMEOUT)
                if event.get("event") == "state" and \
                        event.get("state") in protocol.TERMINAL_STATES:
                    return
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return  # slow or vanished client: drop the subscription
        finally:
            service.unsubscribe(campaign, queue)


# ---------------------------------------------------------------------------
# Entrypoints: blocking serve (CLI) and a background thread (tests/chaos)
# ---------------------------------------------------------------------------

async def _serve_async(service, host, port, ready=None, banner=None):
    frontend = HttpFrontend(service, host=host, port=port)
    await frontend.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def request_drain():
        if not service.draining:
            loop.create_task(_drain_and_stop())

    async def _drain_and_stop():
        if banner:
            banner("draining: finishing in-flight campaigns "
                   "(journal: %s)" % (service.journal_dir or "disabled"))
        await service.drain()
        stop.set()

    try:
        import signal

        loop.add_signal_handler(signal.SIGTERM, request_drain)
        loop.add_signal_handler(signal.SIGINT, request_drain)
    except (NotImplementedError, RuntimeError):
        pass
    if banner:
        banner("repro service listening on http://%s:%d (jobs=%d, "
               "cache=%s, journal=%s)"
               % (frontend.host, frontend.port, service.jobs,
                  service.cache_dir or "off", service.journal_dir or "off"))
    if ready is not None:
        ready(frontend)
    try:
        await stop.wait()
    finally:
        await frontend.aclose()
    if banner:
        banner("drained; %d campaign(s) interrupted -- resubmit to resume "
               "from the journal" % service.counters["interrupted"])


def serve(service, host="127.0.0.1", port=0, banner=None):
    """Run the service until SIGTERM/SIGINT drains it (the CLI path)."""
    asyncio.run(_serve_async(service, host, port, banner=banner))


class ServiceThread:
    """A live service on a background thread: the harness the tests and
    the service chaos campaign drive.

    ``with ServiceThread(jobs=2, ...) as handle:`` yields a handle with
    ``host``/``port`` and a ``stop(drain=...)`` that performs the same
    graceful drain as SIGTERM.
    """

    def __init__(self, host="127.0.0.1", port=0,
                 read_timeout=REQUEST_READ_TIMEOUT, **service_kwargs):
        self.service = CampaignService(**service_kwargs)
        self.host = host
        self.port = port
        self.read_timeout = float(read_timeout)
        self._loop = None
        self._stopped = threading.Event()
        self._ready = threading.Event()
        self._failure = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-service", daemon=True)

    def start(self):
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service thread did not become ready: %s"
                               % (self._failure,))
        if self._failure is not None:
            raise RuntimeError("service thread failed: %s" % self._failure)
        return self

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup/teardown failures
            self._failure = exc
            self._ready.set()

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        frontend = HttpFrontend(self.service, host=self.host, port=self.port,
                                read_timeout=self.read_timeout)
        await frontend.start()
        self.port = frontend.port
        self._stop_event = asyncio.Event()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await frontend.aclose()
            self._stopped.set()

    def drain(self, grace=None):
        """Trigger the graceful drain from outside the loop (the
        SIGTERM path) and wait for it to finish."""
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(grace=grace), self._loop)
        return future.result(timeout=60.0)

    def stop(self, drain=False, grace=None):
        if self._loop is None:
            return
        if drain:
            self.drain(grace=grace)
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc):
        self.stop()
        return False
