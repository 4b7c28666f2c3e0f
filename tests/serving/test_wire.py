"""Wire-level tests of the HTTP tier: what actually crosses the socket.

* Every response leaves in exactly one write to the connection, with
  ``TCP_NODELAY`` set on the server side (two writes let Nagle's
  algorithm hold the body behind a delayed ACK of the headers).
* A request body the handler never needed is drained before the
  answer, or the connection is closed, so its bytes are never parsed
  as the next request on a keep-alive connection.
* The stdlib's own protocol errors (unsupported method, malformed
  request line) answer in the JSON error envelope.

The client side is a raw socket, so connection reuse is explicit: a
client library that silently reconnects would hide a broken stream.
"""

import json
import socket
import threading

import pytest

from repro.api import API_VERSION
from repro.core.config import LinkerConfig, ServingConfig
from repro.core.linker import NeuralConceptLinker
from repro.serving.server import (
    MAX_BODY_BYTES,
    _LinkRequestHandler,
    create_server,
    run_server,
)
from repro.serving.service import LinkingService

from tests.serving.conftest import GatedWarmup

LINK_BODY = json.dumps({"query": "ckd stage 5"}).encode("utf-8")


class _CountingWriter:
    """Wraps a handler's ``wfile``; logs each write before it is sent."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _SpyHandler(_LinkRequestHandler):
    def setup(self):
        super().setup()
        self.server.connections.append(self.connection)
        self.wfile = _CountingWriter(self.wfile, self.server.writes)


class _SpiedServer:
    """A running in-process server whose writes and sockets are logged."""

    def __init__(self, service):
        self.server = create_server(service, port=0)
        self.server.RequestHandlerClass = _SpyHandler
        self.server.writes = []
        self.server.connections = []
        self.thread = threading.Thread(
            target=run_server,
            args=(self.server,),
            kwargs={"install_signal_handlers": False},
            daemon=True,
        )
        self.thread.start()

    @property
    def writes(self):
        return self.server.writes

    def connect(self):
        return _RawConnection(self.server.port)

    def close(self):
        self.server.shutdown()
        self.thread.join(5.0)


class _RawConnection:
    """One TCP connection speaking HTTP/1.1 by hand."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.reader = self.sock.makefile("rb")

    def send(self, method, path, body=None, headers=None):
        lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        self.send_raw(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b""))

    def send_raw(self, data):
        self.sock.sendall(data)

    def response(self):
        """``(status, headers, body)`` of the next response."""
        status_line = self.reader.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.reader.read(int(headers["content-length"]))
        return status, headers, body

    def json_response(self):
        status, headers, body = self.response()
        assert headers["content-type"] == "application/json"
        return status, headers, json.loads(body)

    def at_eof(self):
        """True once the server has closed its end."""
        return self.reader.read(1) == b""

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture(scope="module")
def spied(trained_pipeline):
    ontology, kb, model = trained_pipeline
    linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
    service = LinkingService(
        linker, ServingConfig(port=0, request_timeout_s=30.0)
    )
    service.start(wait=True)
    server = _SpiedServer(service)
    yield server
    server.close()


@pytest.fixture
def conn(spied):
    connection = spied.connect()
    yield connection
    connection.close()


def _one_write(spied, conn, method, path, body=None, headers=None):
    """Send one request, read its whole response, count the writes."""
    del spied.writes[:]
    conn.send(method, path, body, headers)
    status, response_headers, response_body = conn.response()
    assert len(spied.writes) == 1, (method, path, spied.writes)
    assert spied.writes[0] > len(response_body)  # headers rode along
    return status, response_headers, response_body


class TestOneWritePerResponse:
    @pytest.mark.parametrize(
        "method, path, body, status",
        [
            ("POST", "/v1/link", LINK_BODY, 200),
            ("GET", "/v1/metrics", None, 200),
            ("GET", "/v1/metrics?format=prometheus", None, 200),
            ("GET", "/v1/traces?limit=2", None, 200),
            ("GET", "/healthz", None, 200),
            ("GET", "/v1/nope", None, 404),
            ("POST", "/link", LINK_BODY, 410),
            ("GET", "/metrics", None, 410),
            ("POST", "/v1/link", b"{not json", 400),
            ("POST", "/v1/map", LINK_BODY, 404),
        ],
    )
    def test_single_write(self, spied, conn, method, path, body, status):
        got, headers, _ = _one_write(spied, conn, method, path, body)
        assert got == status
        # Keep-alive survives every one of these answers.
        assert headers.get("connection") != "close"

    def test_readyz_503_is_one_write(self, make_linker):
        linker = make_linker()
        gate = GatedWarmup(linker)
        service = LinkingService(linker, ServingConfig(port=0))
        server = _SpiedServer(service)
        connection = server.connect()
        try:
            service.start()
            assert gate.entered.wait(10.0)
            status, _, body = _one_write(server, connection, "GET", "/readyz")
            assert status == 503
            assert json.loads(body)["error"]["code"] == "not_ready"
        finally:
            gate.release.set()
            connection.close()
            server.close()

    def test_tcp_nodelay_on_server_socket(self, spied, conn):
        conn.send("GET", "/healthz")
        assert conn.response()[0] == 200
        server_side = spied.server.connections[-1]
        assert server_side.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestUnreadBodyKeepsConnection:
    """A body the route never read must not poison the next request."""

    @pytest.mark.parametrize(
        "method, path, body, status, code",
        [
            ("POST", "/link", LINK_BODY, 410, "gone"),
            ("POST", "/v1/nope", LINK_BODY, 404, "not_found"),
            ("POST", "/nope", LINK_BODY, 404, "not_found"),
            ("POST", "/v1/map", LINK_BODY, 404, "mapping_disabled"),
            (
                "POST",
                "/v1/admin/swap",
                b'{"action": "promote"}',
                404,
                "lifecycle_disabled",
            ),
            ("GET", "/healthz", b"ignored", 200, None),
        ],
    )
    def test_next_request_on_same_connection(
        self, conn, method, path, body, status, code
    ):
        conn.send(method, path, body)
        got, _, payload = conn.json_response()
        assert got == status
        if code is not None:
            assert payload["error"]["code"] == code
        conn.send("POST", "/v1/link", LINK_BODY)
        got, _, payload = conn.json_response()
        assert got == 200, payload
        assert payload["results"][0]["query"] == "ckd stage 5"
        conn.send("GET", "/healthz")
        got, _, payload = conn.json_response()
        assert (got, payload["status"]) == (200, "ok")

    @pytest.mark.parametrize(
        "framing, message",
        [
            ("Content-Length: abc", "Content-Length must be an integer"),
            (
                f"Content-Length: {MAX_BODY_BYTES + 1}",
                f"exceeds {MAX_BODY_BYTES} bytes",
            ),
            ("Content-Length: -1", "request body is empty"),
            ("Transfer-Encoding: chunked", "Content-Length header is required"),
        ],
    )
    def test_unreadable_body_closes_connection(self, conn, framing, message):
        # The body is never sent: the server must not wait for it, and
        # must not keep a stream whose next bytes it cannot place.
        conn.send_raw(
            f"POST /v1/link HTTP/1.1\r\nHost: x\r\n{framing}\r\n\r\n".encode(
                "latin-1"
            )
        )
        status, headers, payload = conn.json_response()
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert message in payload["error"]["message"]
        assert headers["connection"] == "close"
        assert conn.at_eof()


class TestProtocolErrorsUseEnvelope:
    """Errors the stdlib detects before any route runs.

    Each request ends exactly where the server stops reading, so the
    close leaves no unread bytes behind that the kernel would answer
    with a reset.
    """

    def test_unsupported_method(self, conn):
        conn.send("PUT", "/v1/link", LINK_BODY, {"X-Request-ID": "put-1"})
        status, headers, payload = conn.json_response()
        assert status == 501
        assert payload["api_version"] == API_VERSION
        assert payload["error"]["code"] == "unsupported_method"
        assert payload["error"]["request_id"] == "put-1"
        assert headers["x-request-id"] == "put-1"
        assert headers["connection"] == "close"
        assert conn.at_eof()

    def test_garbage_request_line(self, spied, conn):
        del spied.writes[:]
        conn.send_raw(b"this is not http\r\n")
        status, headers, payload = conn.json_response()
        assert len(spied.writes) == 1
        assert status == 400
        assert payload["api_version"] == API_VERSION
        assert payload["error"]["code"] == "bad_request"
        assert payload["error"]["request_id"] == headers["x-request-id"]
        assert headers["connection"] == "close"
        assert conn.at_eof()

    def test_garbage_after_keep_alive_request_gets_fresh_request_id(self, conn):
        # The failed request must not inherit the previous request's
        # headers, and with them its X-Request-ID.
        conn.send("GET", "/healthz", headers={"X-Request-ID": "first"})
        assert conn.json_response()[0] == 200
        conn.send_raw(b"GET / HTTP/1.1 extra words\r\n")
        status, headers, payload = conn.json_response()
        assert status == 400
        assert payload["error"]["request_id"] not in ("", "first")

    def test_uri_too_long(self, conn):
        line = b"GET /" + b"a" * 65521 + b" HTTP/1.1\r\n"
        assert len(line) == 65537  # one byte over the stdlib's limit
        conn.send_raw(line)
        status, headers, payload = conn.json_response()
        assert status == 414
        assert payload["error"]["code"] == "uri_too_long"
        assert headers["connection"] == "close"

    def test_too_many_headers(self, conn):
        fields = "".join(f"X-Field-{i}: {i}\r\n" for i in range(101))
        conn.send_raw(f"GET /healthz HTTP/1.1\r\n{fields}".encode("latin-1"))
        status, headers, payload = conn.json_response()
        assert status == 431
        assert payload["error"]["code"] == "headers_too_large"
        assert headers["connection"] == "close"
