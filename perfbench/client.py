"""HTTP client side of the benchmark: the server process and the client loops.

:class:`ServerProcess` launches ``perfbench/server.py`` in its own
process, reads the port it prints, and polls ``/readyz``; the time from
launch to the first 200 is the set-up time. :func:`run_clients` drives
one closed-loop client per request script, each on its own
short-lived connections (the server answers ``Connection: close``), and
returns one :class:`Record` per request. All clients run on one event
loop in one thread, so the client process uses at most one of the
machine's CPUs.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.oracle import check_wellformed

__all__ = ["Record", "Request", "ServerError", "ServerProcess", "http_get", "run_clients"]

HERE = Path(__file__).resolve().parent
SERVER_SCRIPT = HERE / "server.py"

#: How long a server may take to print its port (imports + registration).
STARTUP_TIMEOUT_S = 120.0
#: Per-request socket timeout; far above any tile the workloads send.
REQUEST_TIMEOUT_S = 120.0

Response = Tuple[int, Dict[str, str], bytes, float]


class ServerError(RuntimeError):
    """The server process failed to start, answer or stop."""


@dataclass(frozen=True)
class Request:
    """One tile request of a script.

    ``op`` is ``"eps"`` or ``"tau"``; ``value`` is the ε or τ sent
    (``None`` sends no parameter, so the server's default applies);
    ``colormap`` ``None`` likewise. ``kind`` names the request class
    the workload's mix is reported in.
    """

    tile: Tuple[int, int, int]
    op: str
    value: Optional[float]
    colormap: Optional[str]
    kind: str

    def path(self, dataset: str, rid: Optional[str] = None) -> str:
        z, x, y = self.tile
        params = []
        if self.value is not None:
            params.append(f"{self.op}={self.value!r}")
        if self.colormap is not None:
            params.append(f"colormap={self.colormap}")
        if rid is not None:
            params.append(f"rid={rid}")
        query = ("?" + "&".join(params)) if params else ""
        return f"/tile/{dataset}/{z}/{x}/{y}.png{query}"

    @property
    def key(self) -> str:
        """Identity of the answer: requests with equal keys must get equal bytes."""
        return self.path("-")


@dataclass
class Record:
    """One request as the client saw it."""

    client: int
    seq: int
    rid: str
    path: str
    key: str
    kind: str
    status: int
    cache: str
    degraded: str
    latency_ms: float
    digest: str
    error: str = ""

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def _content_length(head: bytes) -> Optional[int]:
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length" and value.strip().isdigit():
            return int(value.strip())
    return None


def _parse_response(head: bytes, body: bytes) -> Tuple[int, Dict[str, str], bytes]:
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip()] = value.strip()
    return int(parts[1]), headers, body


async def _async_get(port: int, path: str) -> Response:
    """One GET on a fresh connection: ``(status, headers, body, seconds)``.

    The clock runs from before the connect to the last body byte
    (``Content-Length`` bytes, or end of stream when it is absent).
    """
    request = (
        f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        head = await reader.readuntil(b"\r\n\r\n")
        length = _content_length(head[:-4])
        body = await (reader.readexactly(length) if length is not None else reader.read())
        elapsed = time.perf_counter() - start
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass  # the server already closed its end; the answer is complete
    status, headers, body = _parse_response(head[:-4], body)
    return status, headers, body, elapsed


def http_get(port: int, path: str, timeout: float = REQUEST_TIMEOUT_S) -> Response:
    """One blocking GET (the control requests: ``/readyz``, ``/stats``)."""
    return asyncio.run(asyncio.wait_for(_async_get(port, path), timeout))


def run_clients(
    port: int,
    dataset: str,
    scripts: Sequence[Sequence[Optional[Request]]],
    *,
    tag: str,
    bodies: Dict[str, bytes],
    lockstep: bool = False,
) -> Tuple[List[Record], float]:
    """Run one closed-loop client per script; return records and wall time.

    All clients share one thread and one event loop, so the client
    process takes at most one CPU. Every client sends its next request
    only after the previous answer arrived; with ``lockstep`` every
    client also waits for the others to finish the step before (a
    ``None`` entry idles one step). ``bodies`` collects the first body
    seen per request key (shared across calls, so a later phase or
    round can be compared with an earlier one). Wall time runs from the
    common start to the last answer of the slowest client.
    """
    records: List[List[Record]] = [[] for _ in scripts]

    async def send(index: int, seq: int) -> None:
        request = scripts[index][seq]
        if request is None:
            return
        rid = f"{tag}-{index}-{seq}"
        path = request.path(dataset, rid)
        try:
            status, headers, body, seconds = await asyncio.wait_for(
                _async_get(port, path), REQUEST_TIMEOUT_S
            )
        except (OSError, ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError) as error:
            records[index].append(
                Record(
                    index, seq, rid, path, request.key, request.kind, 0, "", "", 0.0, "",
                    error=repr(error),
                )
            )
            return
        bodies.setdefault(request.key, body)
        records[index].append(
            Record(
                index,
                seq,
                rid,
                path,
                request.key,
                request.kind,
                status,
                headers.get("X-Cache", ""),
                headers.get("X-Repro-Degraded", ""),
                seconds * 1000.0,
                hashlib.sha256(body).hexdigest(),
                error=check_wellformed(status, headers, body) or "",
            )
        )

    async def client(index: int) -> None:
        for seq in range(len(scripts[index])):
            await send(index, seq)

    async def main() -> float:
        started = time.perf_counter()
        if lockstep:
            for seq in range(max(len(script) for script in scripts)):
                await asyncio.gather(
                    *(send(i, seq) for i in range(len(scripts)) if seq < len(scripts[i]))
                )
        else:
            await asyncio.gather(*(client(i) for i in range(len(scripts))))
        return time.perf_counter() - started

    wall = asyncio.run(main())
    return [record for per_client in records for record in per_client], wall


class ServerProcess:
    """One tile server in its own process, driven over HTTP and stdin.

    ``spec`` is written to ``<run_dir>/<name>.json`` and handed to
    ``server.py``. The launcher prints ``PORT <n>`` once it listens;
    :attr:`setup_s` is the time from :class:`subprocess.Popen` to the
    first 200 from ``/readyz``. Commands (``dump <path>``) go over
    stdin and are acknowledged with one JSON line on stdout; closing
    stdin shuts the server down.
    """

    def __init__(self, root: Path, run_dir: Path, name: str, spec: Dict[str, object]) -> None:
        self.name = name
        spec_path = run_dir / f"{name}.json"
        spec_path.write_text(json.dumps(spec, sort_keys=True))
        self.log_path = run_dir / f"{name}.log"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.setdefault("PYTHONHASHSEED", "0")
        # One glibc malloc arena: a buffer freed by one pool thread is
        # reused by the next, so the peak resident set counts memory that
        # was live at once, not what the allocator kept on whichever
        # thread's arena happened to free a buffer (that varied by 50 MiB).
        env.setdefault("MALLOC_ARENA_MAX", "1")
        self._log = open(self.log_path, "wb")
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT), str(spec_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(root),
            env=env,
        )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            line = self._next_line(STARTUP_TIMEOUT_S)
            if not line.startswith("PORT "):
                raise ServerError(f"{name}: expected 'PORT <n>', got {line!r}")
            self.port = int(line.split()[1])
            self._wait_ready(started + STARTUP_TIMEOUT_S)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace").rstrip("\n"))
        self._lines.put(None)

    def _next_line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ServerError(f"{self.name}: no answer within {timeout:.0f}s") from None
        if line is None:
            raise ServerError(f"{self.name}: server exited; see {self.log_path}")
        return line

    def _wait_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _, _, _ = http_get(self.port, "/readyz", timeout=5.0)
            except (OSError, asyncio.IncompleteReadError):
                status = 0  # not listening yet, or the answer was cut
            if status == 200:
                return
            if self.proc.poll() is not None:
                raise ServerError(f"{self.name}: server exited; see {self.log_path}")
            time.sleep(0.002)
        raise ServerError(f"{self.name}: /readyz never answered 200")

    def get_json(self, path: str) -> Dict[str, object]:
        status, _, body, _ = http_get(self.port, path)
        if status != 200:
            raise ServerError(f"{self.name}: GET {path} answered {status}")
        return json.loads(body.decode("utf-8"))

    def command(self, text: str, timeout: float = 120.0) -> Dict[str, object]:
        """Send one control line; return the server's JSON acknowledgement."""
        assert self.proc.stdin is not None
        self.proc.stdin.write((text + "\n").encode("utf-8"))
        self.proc.stdin.flush()
        reply = json.loads(self._next_line(timeout))
        if not reply.get("ok"):
            raise ServerError(f"{self.name}: command {text!r} failed: {reply}")
        return reply

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError(f"{self.name}: VmHWM not found")

    def close(self) -> None:
        """Close stdin (the shutdown signal) and wait; kill on a hang."""
        try:
            if self.proc.stdin is not None and not self.proc.stdin.closed:
                self.proc.stdin.close()
        except OSError:
            pass  # the process already exited; its pipe is gone
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._reader.join(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

