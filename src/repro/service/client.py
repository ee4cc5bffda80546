"""Client library for the ``repro serve`` daemon (stdlib ``http.client``).

    >>> client = Client(port=8077)                          # doctest: +SKIP
    >>> job = client.submit(path="tsp.trace")               # doctest: +SKIP
    >>> document = client.wait(job["id"])                   # doctest: +SKIP

File submissions are streamed with chunked transfer-encoding — the
client never loads the trace into memory, and the daemon spools it to
disk piece by piece.  ``result_bytes`` returns the response body
verbatim, which for a finished single-tool job is bit-identical to the
output of ``repro check --json`` on the same trace.

Resilience (``Client(retries=N)``): transient failures — connection
resets, dropped responses, HTTP 429/5xx — are retried with capped
exponential backoff, honoring the daemon's ``Retry-After`` header when
present.  Every submission carries an idempotency key (a client-
generated ``key=`` unless the caller supplies one), so a retried POST
whose first attempt *was* accepted (the 202 just never arrived) maps
back to the already-queued job instead of analyzing the trace twice.
"""

from __future__ import annotations

import http.client
import json
import time
import uuid
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import quote, urlencode

from repro.obs.tracecontext import TRACE_HEADER

_STREAM_CHUNK = 64 * 1024

#: Statuses worth retrying: backpressure and server-side hiccups.  4xx
#: validation errors are deterministic and never retried.
RETRYABLE_STATUSES = (429, 500, 502, 503, 504)

#: Content type sent for each streamed trace format.
_FORMAT_CONTENT_TYPES = {
    "text": "application/x-repro-trace",
    "jsonl": "application/x-ndjson",
}


class ServiceError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload, headers: Dict[str, str]) -> None:
        message = (
            payload.get("error") if isinstance(payload, dict) else str(payload)
        )
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload
        self.headers = headers

    @property
    def retry_after(self) -> Optional[float]:
        """Seconds to back off, when the daemon sent ``Retry-After``."""
        value = self.headers.get("Retry-After")
        try:
            return float(value) if value is not None else None
        except ValueError:
            return None


class JobFailed(RuntimeError):
    """The submitted job reached the ``failed`` state."""

    def __init__(self, job_id: str, error: str) -> None:
        super().__init__(f"job {job_id} failed: {error}")
        self.job_id = job_id
        self.error = error


def _stream_file(path: str) -> Iterator[bytes]:
    with open(path, "rb") as stream:
        while True:
            piece = stream.read(_STREAM_CHUNK)
            if not piece:
                return
            yield piece


class Client:
    """One daemon endpoint; a fresh connection per request (the daemon
    is threaded, so there is nothing to pool)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        timeout: float = 60.0,
        retries: int = 0,
        backoff_s: float = 0.2,
        backoff_cap_s: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s

    # -- transport -----------------------------------------------------------

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> None:
        """Sleep before retry ``attempt``: the daemon's ``Retry-After``
        when it sent one, else capped exponential backoff."""
        if retry_after is not None:
            delay = min(max(0.0, retry_after), self.backoff_cap_s)
        else:
            delay = min(self.backoff_s * (2 ** attempt), self.backoff_cap_s)
        if delay > 0:
            time.sleep(delay)

    def _with_retries(self, perform: Callable):
        """Run one request, retrying transport errors and retryable
        statuses up to ``self.retries`` times.

        ``perform`` is a thunk so each attempt rebuilds its body — a
        consumed streaming generator is never replayed.  Callers make
        retried POSTs safe with idempotency keys, not by hoping the
        first attempt never landed.
        """
        attempt = 0
        while True:
            try:
                return perform()
            except ServiceError as error:
                if (
                    attempt >= self.retries
                    or error.status not in RETRYABLE_STATUSES
                ):
                    raise
                self._backoff(attempt, error.retry_after)
            except (OSError, http.client.HTTPException):
                # Connection refused/reset, dropped response, bad status
                # line: the daemon (or the network) hiccupped mid-flight.
                if attempt >= self.retries:
                    raise
                self._backoff(attempt, None)
            attempt += 1

    def _request(
        self,
        method: str,
        path: str,
        body=None,
        headers: Optional[Dict[str, str]] = None,
        encode_chunked: bool = False,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            send_error = None
            try:
                connection.request(
                    method,
                    path,
                    body=body,
                    headers=headers or {},
                    encode_chunked=encode_chunked,
                )
            except (BrokenPipeError, ConnectionResetError) as error:
                # The daemon may answer before consuming a streamed body
                # (a 400/429/503 cuts the upload short); the verdict is
                # still waiting on the read side of the socket.
                send_error = error
            try:
                response = connection.getresponse()
            except (http.client.HTTPException, OSError):
                if send_error is not None:
                    raise send_error
                raise
            data = response.read()
            response_headers = dict(response.getheaders())
            status = response.status
        finally:
            connection.close()
        return status, data, response_headers

    @staticmethod
    def _decode(data: bytes, headers: Dict[str, str]):
        text = data.decode("utf-8", "replace")
        if "json" in headers.get("Content-Type", ""):
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                return text
        return text

    def _json(
        self,
        method: str,
        path: str,
        body=None,
        headers: Optional[Dict[str, str]] = None,
        encode_chunked: bool = False,
    ):
        def perform():
            # A callable body yields a fresh (streaming) body per
            # attempt; a generator could not be replayed after a retry.
            status, data, response_headers = self._request(
                method, path,
                body=body() if callable(body) else body,
                headers=headers,
                encode_chunked=encode_chunked,
            )
            payload = self._decode(data, response_headers)
            if status >= 400:
                raise ServiceError(status, payload, response_headers)
            return payload

        return self._with_retries(perform)

    # -- API -----------------------------------------------------------------

    def submit(
        self,
        path: Optional[str] = None,
        text: Optional[str] = None,
        events: Optional[List[Dict]] = None,
        tools: Optional[List[str]] = None,
        shards: Optional[int] = None,
        fmt: Optional[str] = None,
        key: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Dict:
        """Submit a job from a file (streamed), inline trace text, or a
        list of JSON event records; returns the accepted job record.

        ``key`` is the idempotency key; by default a fresh one is
        generated per call, so *retries* of this submission (including
        ones where the daemon accepted the job but the 202 was lost)
        resolve to the same job, while separate ``submit()`` calls with
        identical traces stay separate jobs.

        ``trace_id`` propagates the caller's trace context: it is sent
        as ``X-Repro-Trace-Id``, and every telemetry span the daemon
        (and its engine workers) emit for this job joins that trace.
        Omitted, the daemon mints one; either way the accepted record
        echoes it back as ``trace_id``.
        """
        sources = sum(x is not None for x in (path, text, events))
        if sources != 1:
            raise ValueError("pass exactly one of path=, text=, events=")
        key = key or uuid.uuid4().hex
        pairs = [("tool", tool) for tool in tools or []]
        if shards is not None:
            pairs.append(("shards", str(shards)))
        if fmt is not None:
            pairs.append(("format", fmt))
        pairs.append(("key", key))
        # quote_via=quote: tool names like ``DJIT+`` must not become
        # form-encoded spaces.
        query = urlencode(pairs, quote_via=quote)
        url = "/v1/jobs" + (f"?{query}" if query else "")
        extra = {TRACE_HEADER: trace_id} if trace_id else {}
        if path is not None:
            content_type = _FORMAT_CONTENT_TYPES.get(
                fmt or "text", "application/x-repro-trace"
            )
            return self._json(
                "POST",
                url,
                body=lambda: _stream_file(path),
                headers={"Content-Type": content_type, **extra},
                encode_chunked=True,
            )
        envelope = {"trace": text} if text is not None else {"events": events}
        return self._json(
            "POST",
            url,
            body=json.dumps(envelope).encode("utf-8"),
            headers={"Content-Type": "application/json", **extra},
        )

    def status(self, job_id: str) -> Dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result_bytes(self, job_id: str) -> bytes:
        """The finished job's result document, byte-for-byte as served."""

        def perform() -> bytes:
            status, data, headers = self._request(
                "GET", f"/v1/jobs/{job_id}/result"
            )
            if status >= 400:
                payload = self._decode(data, headers)
                if (
                    isinstance(payload, dict)
                    and payload.get("state") == "failed"
                ):
                    raise JobFailed(
                        job_id, payload.get("error") or "job failed"
                    )
                raise ServiceError(status, payload, headers)
            return data

        return self._with_retries(perform)

    def result(self, job_id: str) -> Dict:
        return json.loads(self.result_bytes(job_id).decode("utf-8"))

    def jobs(self) -> List[Dict]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def healthz(self) -> Dict:
        return self._json("GET", "/healthz")

    def debug(self) -> Dict:
        """The live ops snapshot (``repro.debug/1``): queue depth,
        in-flight jobs with their current stage, resident partitions,
        slowest recent jobs, degraded counts."""
        return self._json("GET", "/debug?format=json")

    def metrics(self) -> str:
        def perform() -> str:
            status, data, headers = self._request("GET", "/metrics")
            if status >= 400:
                raise ServiceError(
                    status, self._decode(data, headers), headers
                )
            return data.decode("utf-8")

        return self._with_retries(perform)

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 0.2,
    ) -> Dict:
        """Poll until the job finishes; returns the result document.
        Raises :class:`JobFailed` on failure, :class:`TimeoutError` on
        timeout (the job keeps running server-side)."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            state = record.get("state")
            if state == "done":
                return self.result(job_id)
            if state == "failed":
                raise JobFailed(job_id, record.get("error") or "job failed")
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state} after {timeout:.0f}s"
                )
            time.sleep(poll)
