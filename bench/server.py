"""Lifecycle of one ``python -m repro serve`` subprocess.

The server runs with ``repro serve`` defaults apart from the port and
the preloaded stores.  Its stderr goes to a log file, never to a pipe
nobody reads: the default access log writes one line per request, and a
full pipe would stall the server.

:meth:`Server.start` fails fast: it raises :class:`ServerError` (with the
tail of the server's stderr) as soon as the process exits, or when
readiness does not arrive within the timeout.  :meth:`Server.stop` always
reaps the process, escalating from SIGTERM to SIGKILL.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["Server", "ServerError"]

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0


class ServerError(RuntimeError):
    """The server did not come up, or died."""


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One server process serving ``stores`` (store name → XML path)."""

    def __init__(self, root: Path, stores: "dict[str, Path]", log_path: Path):
        self.root = root
        self.stores = stores
        self.log_path = log_path
        self.port = 0
        self.proc: "subprocess.Popen | None" = None

    def start(self, timeout_s: float = READY_TIMEOUT_S) -> float:
        """Spawn and wait until ``/readyz`` is 200 and every preloaded
        store reports ``indexed: true``; returns the seconds that took."""
        self.port = _free_port()
        cmd = [sys.executable, "-m", "repro", "serve", "--port", str(self.port)]
        for name, path in self.stores.items():
            cmd += ["--store", f"{name}={path}"]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            # a session of its own: Ctrl-C reaches only the benchmark,
            # which then stops the server in its own cleanup
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, start_new_session=True,
            )
        deadline = start + timeout_s
        while not self._ready():
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with code {self.proc.returncode} during "
                    f"boot; stderr:\n{self.stderr_tail()}"
                )
            if time.perf_counter() > deadline:
                raise ServerError(
                    f"server not ready after {timeout_s:.0f} s; "
                    f"stderr:\n{self.stderr_tail()}"
                )
            time.sleep(0.005)
        return time.perf_counter() - start

    def _ready(self) -> bool:
        try:
            status, _ = self.get("/readyz")
            if status != 200:
                return False
            for name in self.stores:
                status, body = self.get(f"/stores/{name}")
                if status != 200 or not json.loads(body)["store"]["indexed"]:
                    return False
            return True
        except (OSError, http.client.HTTPException):
            return False

    def get(self, path: str) -> "tuple[int, bytes]":
        """One GET on a fresh connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def store_info(self, name: str) -> dict:
        status, body = self.get(f"/stores/{name}")
        if status != 200:
            raise ServerError(f"GET /stores/{name} answered {status}")
        return json.loads(body)["store"]

    def counter(self, name: str) -> float:
        """A ``repro_counter_total`` sample from ``/metrics`` (0 if absent)."""
        status, body = self.get("/metrics")
        if status != 200:
            raise ServerError(f"GET /metrics answered {status}")
        prefix = f'repro_counter_total{{name="{name}"}} '
        for line in body.decode("utf-8").splitlines():
            if line.startswith(prefix):
                return float(line[len(prefix):])
        return 0.0

    def rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stderr_tail(self, limit: int = 4000) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return "(no stderr captured)"
        return text[-limit:]

    def stop(self) -> None:
        """Terminate and reap the process (SIGTERM, then SIGKILL)."""
        proc, self.proc = self.proc, None
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def boot(
    root: Path,
    preload: "dict[str, str]",
    texts: "dict[str, str]",
    workdir: Path,
    boots: int,
) -> "tuple[Server, list[float]]":
    """Write the preloaded documents (store → document id) and boot
    ``boots`` cold servers one after another, keeping the last one
    running; returns it with every boot's seconds."""
    docdir = workdir / "docs"
    docdir.mkdir(parents=True, exist_ok=True)
    stores = {}
    for store, doc in preload.items():
        stores[store] = docdir / f"{doc}.xml"
        stores[store].write_text(texts[doc])
    times = []
    for i in range(boots):
        server = Server(root, stores, workdir / "server.log")
        try:
            times.append(server.start())
        except BaseException:
            server.stop()
            raise
        if i < boots - 1:
            server.stop()
    return server, times
