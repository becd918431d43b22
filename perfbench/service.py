"""The service workload: a daemon subprocess and a closed loop of clients.

The daemon is ``python -m repro.serve`` (or, for the traced run, the same
``main`` behind ``serve_traced.py``) with two worker threads and a fresh
spec-store directory.  Each client sends its next ``POST /analyze`` only
after the previous reply arrived.  Everything measured about the service
is taken from outside it: client-side latencies, the ``X-Repro-Dedup``
role header, response bodies and ``GET /stats``.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from inputs import Op
from sweep import MAX_ITER, TIME_BUDGET

HERE = Path(__file__).resolve().parent
WORKERS = 2
CLIENTS = 2
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 170.0

#: Analysis knobs of every request (the fig-table settings).
KNOBS = {"max_iter": MAX_ITER, "time_budget": TIME_BUDGET, "preanalysis": True}


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One daemon process; ``start`` returns once ``/healthz`` answers."""

    def __init__(self, root: Path, workdir: Path, trace_out: Optional[Path] = None):
        self.root = root
        self.store = workdir / "store"
        self.log = workdir / "daemon.log"
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        serve_args = [
            "--port", "0", "--workers", str(WORKERS), "--store", str(self.store),
        ]
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(self.trace_out), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
            )
        line = self._first_line()
        if not line.startswith("listening on http://"):
            raise DaemonError(f"unexpected daemon banner {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            try:
                status, _, _ = self.request("GET", "/healthz", timeout=5.0)
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.01)
        raise DaemonError("daemon never answered /healthz")

    def _first_line(self) -> str:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(START_TIMEOUT):
                raise DaemonError("daemon did not print its address")
        finally:
            sel.close()
        line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
        if not line:
            raise DaemonError(f"daemon exited early; see {self.log}")
        return line

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                timeout: float = REQUEST_TIMEOUT,
                on_sent: Optional[Callable[[], None]] = None):
        """``(status, X-Repro-Dedup role, body)``; *on_sent* runs once the
        request is written, before the reply is awaited."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            if on_sent is not None:
                on_sent()
            resp = conn.getresponse()
            return resp.status, resp.getheader("X-Repro-Dedup"), resp.read()
        finally:
            conn.close()

    def stats(self) -> Dict[str, object]:
        status, _, body = self.request("GET", "/stats")
        if status != 200:
            raise DaemonError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM for the daemon")

    def stop(self) -> None:
        """SIGTERM, wait for the drain; kill if it hangs.  Idempotent."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


@dataclass
class Reply:
    """One request as the client saw it."""

    op: Op
    seconds: float
    status: Optional[int]
    role: Optional[str]          # X-Repro-Dedup: leader / join / hit
    body: bytes = b""
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    def payload(self) -> Dict[str, object]:
        return json.loads(self.body)

    @property
    def verdict(self) -> Optional[str]:
        """The entry method's verdict; ``None`` when the request failed."""
        return self.payload()["verdicts"].get(self.op.entry) if self.ok else None


def request_body(op: Op) -> bytes:
    return json.dumps({"source": op.source, "language": op.language, **KNOBS}).encode()


def closed_loop(
    daemon: Daemon,
    passes: Iterator[Sequence[Tuple[Op, Op, Op]]],
    seconds: float,
    max_passes: Optional[int] = None,
) -> tuple:
    """Run :data:`CLIENTS` closed-loop clients over *passes* of
    ``(fresh, edit, repeat)`` blocks until *seconds* have passed (or
    exactly *max_passes* passes were sent).

    A client takes the next block and sends its fresh copy, then its
    edit; once the edit is on the wire it hands the repeat to the other
    client, which sends it as soon as it is free -- a join while the edit
    is in flight, a hit after.  So the two clients keep two different
    programs' leaders in flight, and a program's edit finds its helper
    summaries in the store.  The window closes only between passes, so
    every run sends whole passes.  Returns ``(replies in send order,
    wall_seconds, passes)``."""
    cond = threading.Condition()
    blocks: deque = deque()
    repeats: deque = deque()
    state = {"passes": 0, "busy": 0, "sent": 0, "closed": False}
    replies: Dict[int, Reply] = {}
    start = time.perf_counter()

    def next_task():
        """A repeat, a block, or ``None`` once the window closed."""
        while True:
            if repeats:
                return repeats.popleft()
            if blocks:
                return blocks.popleft()
            if state["busy"]:
                cond.wait()     # the pass is not done: a repeat may come
                continue
            over = (state["passes"] >= max_passes if max_passes is not None
                    else state["passes"] and time.perf_counter() - start >= seconds)
            if state["closed"] or over:
                state["closed"] = True
                return None
            blocks.extend(next(passes))
            state["passes"] += 1

    def send(op: Op, on_sent=None) -> None:
        body = request_body(op)
        with cond:
            k = state["sent"]
            state["sent"] += 1
        sent = time.perf_counter()
        try:
            status, role, reply_body = daemon.request(
                "POST", "/analyze", body, on_sent=on_sent)
            reply = Reply(op, 0.0, status, role, reply_body)
        except (OSError, http.client.HTTPException) as exc:
            reply = Reply(op, 0.0, None, None, error=repr(exc))
        reply.seconds = time.perf_counter() - sent
        with cond:
            replies[k] = reply

    def hand_over(repeat: Op) -> None:
        with cond:
            repeats.append(repeat)
            cond.notify_all()

    def client() -> None:
        while True:
            with cond:
                task = next_task()
                if task is None:
                    cond.notify_all()
                    return
                state["busy"] += 1
            if isinstance(task, Op):
                send(task)
            else:
                fresh, edit, repeat = task
                send(fresh)
                send(edit, on_sent=lambda: hand_over(repeat))
            with cond:
                state["busy"] -= 1
                cond.notify_all()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return [replies[k] for k in sorted(replies)], wall, state["passes"]


def dedup_mismatches(replies: Sequence[Reply]) -> List[str]:
    """Fingerprints whose join/hit bodies differ from their leader's."""
    leaders: Dict[str, bytes] = {}
    for r in replies:
        if r.ok and r.role == "leader":
            leaders.setdefault(r.payload()["fingerprint"], r.body)
    bad = []
    for r in replies:
        if r.ok and r.role in ("join", "hit"):
            fp = r.payload()["fingerprint"]
            if leaders.get(fp) != r.body:
                bad.append(f"{r.op.id} ({r.role}, fingerprint {fp[:12]})")
    return bad
