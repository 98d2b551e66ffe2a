"""Drive ``repro serve`` as its users do: a real server process over TCP.

:class:`ServerProcess` starts ``python -m repro serve`` and waits for its
banner.  :func:`open_loop` offers requests on a fixed schedule from one
client process over a few connections and times each request from when
it was *due*, so a stall also charges the requests queued behind it;
the generator's own lateness and the backlog are reported per step.
:func:`saturate` keeps the server fully loaded instead, so that its CPU
time per request can be read from :meth:`ServerProcess.cpu_seconds`.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time

from stats import percentile, summary

BANNER = re.compile(r"on ([\d.]+):(\d+)")
#: Seconds a step waits for outstanding replies after its last request.
DRAIN_S = 5.0
#: Server worker processes (``repro serve --workers``).
WORKERS = 1
#: Seconds the server may take to print its banner.
START_TIMEOUT_S = 60.0
#: Seconds a synchronous request or a shutdown may take.
REQUEST_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``python -m repro serve`` child, started and stopped cleanly."""

    def __init__(self, snapshot: str, src_dir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", snapshot,
             "--port", "0", "--workers", str(WORKERS)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        try:
            banner = self._read_banner()
        except BaseException:
            self.kill()
            raise
        self.startup_s = time.perf_counter() - start
        match = BANNER.search(banner)
        if match is None:
            self.kill()
            raise RuntimeError(f"no address in server banner: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.output: list[bytes] = []
        # Keep draining the pipe so a chatty server can never block on it.
        self._drain = threading.Thread(target=self._drain_output, daemon=True)
        self._drain.start()

    def _read_banner(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        stream = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server printed no banner in time")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                line = stream.readline()
                if not line:
                    raise RuntimeError(
                        f"server exited with code {self.proc.wait()} "
                        "before printing its banner"
                    )
                return line.decode(errors="replace")

    def _drain_output(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    def request(self, payload: dict) -> dict:
        """One synchronous round trip on a fresh connection."""
        with socket.create_connection((self.host, self.port),
                                      timeout=REQUEST_TIMEOUT_S) as sock:
            stream = sock.makefile("rwb")
            stream.write(json.dumps(payload).encode() + b"\n")
            stream.flush()
            return json.loads(stream.readline())

    def peak_rss_bytes(self) -> int:
        """Summed peak RSS (VmHWM) of the server and its worker processes."""
        total = 0
        for pid in _process_tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) * 1024
            except OSError:
                pass
        return total

    def cpu_seconds(self) -> float:
        """CPU time the server and its worker processes have run so far.

        Read from ``/proc/<pid>/schedstat`` (nanoseconds on a CPU), which
        leaves out the time a process waited to be scheduled.
        """
        total = 0
        for pid in _process_tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except OSError:
                pass
        return total / 1e9

    def pin(self, cpus) -> None:
        """Restrict every thread of the server and its workers to ``cpus``."""
        for pid in _process_tree(self.proc.pid):
            pin_threads(pid, cpus)

    def shutdown(self) -> int:
        """Ask the server to stop over the protocol; return its exit code."""
        try:
            reply = self.request({"op": "shutdown", "id": 0})
            ok = reply.get("ok") is True
            code = self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            ok, code = False, None
        if code is None:
            self.kill()
            code = -1
        self._drain.join(REQUEST_TIMEOUT_S)
        self.proc.stdout.close()
        return code if ok else (code or -1)

    def kill(self) -> None:
        """Kill the server and its worker processes; reap the server."""
        if self.proc.poll() is None:
            for pid in reversed(_process_tree(self.proc.pid)):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.wait()


def _process_tree(pid: int) -> list[int]:
    pids, todo = [], [pid]
    while todo:
        current = todo.pop()
        pids.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    todo.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return pids


def pin_threads(pid: int, cpus) -> None:
    """Set the CPU affinity of every thread of process ``pid``."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for task in tasks:
        try:
            os.sched_setaffinity(int(task), cpus)
        except OSError:
            pass


def request_line(request_id: int, query, box) -> bytes:
    body = {"op": "query", "id": request_id, "query": list(query)}
    if box is not None:
        body["box"] = [list(box[0]), list(box[1])]
    return json.dumps(body, separators=(",", ":")).encode() + b"\n"


def open_loop(host: str, port: int, rate: float, duration: float,
              requests, tracer, connections: int, offset: int) -> dict:
    """Offer ``rate`` requests/s for ``duration`` s; time each from its due time.

    ``requests`` is a sequence of ``(query, box, expected)`` cycled in
    order from ``offset``; ``samples`` in the result holds every
    successful request's latency in seconds.  A reply that is an error,
    a wrong answer or missing once ``DRAIN_S`` has passed counts as
    failed.  The step records the generator's lateness (send time minus
    due time) and the backlog (requests sent but not yet answered) at
    each quarter of the schedule.
    """
    total = max(1, int(rate * duration))
    plan = [requests[(offset + i) % len(requests)] for i in range(total)]
    return asyncio.run(_open_loop(host, port, rate, plan, tracer,
                                  connections))


async def _open_loop(host, port, rate, plan, tracer, connections):
    total = len(plan)
    clock = time.perf_counter
    streams = [await asyncio.open_connection(host, port)
               for _ in range(connections)]
    due = [0.0] * total
    done = [False] * total
    latencies: list[float] = []
    late: list[float] = []
    counts = {"wrong": 0, "errors": 0}
    received = [0]
    backlog: list[int] = []

    async def reader(stream_reader):
        while True:
            line = await stream_reader.readline()
            if not line:
                return
            now = clock()
            reply = json.loads(line)
            index = reply.get("id")
            if not isinstance(index, int) or not 0 <= index < total \
                    or done[index]:
                counts["errors"] += 1
                continue
            done[index] = True
            received[0] += 1
            if "result" not in reply:
                counts["errors"] += 1
            elif tuple(reply["result"]) != plan[index][2]:
                counts["wrong"] += 1
            else:
                latencies.append(now - due[index])
                tracer.record("repro.serve", "round_trip", due[index], now,
                              request=index)

    readers = [asyncio.create_task(reader(r)) for r, _ in streams]
    lines = [request_line(i, query, box)
             for i, (query, box, _) in enumerate(plan)]
    quarters = {total * k // 4 for k in (1, 2, 3)} | {total - 1}
    start = clock() + 0.01
    sent = 0
    while sent < total:
        now = clock()
        while sent < total and start + sent / rate <= now:
            due[sent] = start + sent / rate
            late.append(now - due[sent])
            streams[sent % connections][1].write(lines[sent])
            if sent in quarters:
                backlog.append(sent + 1 - received[0])
            sent += 1
        if sent < total:
            await asyncio.sleep(max(0.0, start + sent / rate - clock()))
    deadline = clock() + DRAIN_S
    while received[0] < total and clock() < deadline:
        await asyncio.sleep(0.005)
    for _, writer in streams:
        writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in streams:
        try:
            await writer.wait_closed()
        except OSError:
            pass
    timeouts = total - received[0]
    failed = counts["wrong"] + counts["errors"] + timeouts
    step = {
        "rate": rate,
        "sent": total,
        "succeeded": total - failed,
        "failed": failed,
        "timeouts": timeouts,
        "wrong": counts["wrong"],
        "late_p50_ms": percentile(late, 50) * 1e3,
        "late_max_ms": max(late) * 1e3,
        "backlog": backlog,
    }
    if latencies:
        step["latency_ms"] = summary(latencies, 1e3)
        step["p99_ms"] = percentile(latencies, 99) * 1e3
    step["samples"] = latencies
    return step


def saturate(host: str, port: int, plan, window: int,
             connections: int) -> dict:
    """Send every ``(query, box, expected)`` of ``plan``, ``window`` at a time.

    A closed loop over ``connections`` connections that keeps ``window``
    requests outstanding, each reply releasing the next request, and
    checks every answer.  A reply that is an error, a duplicate or a
    wrong answer, or that has not arrived within ``REQUEST_TIMEOUT_S``,
    counts as failed.
    """
    return asyncio.run(_saturate(host, port, plan, window, connections))


async def _saturate(host, port, plan, window, connections):
    total = len(plan)
    streams = [await asyncio.open_connection(host, port)
               for _ in range(connections)]
    answered: set[int] = set()
    counts = {"wrong": 0, "errors": 0}

    async def drive(first, stream_reader, writer):
        mine = range(first, total, connections)
        sent = outstanding = 0

        def send():
            nonlocal sent, outstanding
            index = mine[sent]
            query, box, _ = plan[index]
            writer.write(request_line(index, query, box))
            sent += 1
            outstanding += 1

        while sent < min(len(mine), max(1, window // connections)):
            send()
        while outstanding:
            line = await stream_reader.readline()
            if not line:
                return
            outstanding -= 1
            reply = json.loads(line)
            index = reply.get("id")
            if not isinstance(index, int) or not 0 <= index < total \
                    or index in answered or "result" not in reply:
                counts["errors"] += 1
            else:
                answered.add(index)
                if tuple(reply["result"]) != plan[index][2]:
                    counts["wrong"] += 1
            if sent < len(mine):
                send()

    try:
        await asyncio.wait_for(
            asyncio.gather(*(drive(c, r, w)
                             for c, (r, w) in enumerate(streams))),
            REQUEST_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    finally:
        for _, writer in streams:
            writer.close()
        for _, writer in streams:
            try:
                await writer.wait_closed()
            except OSError:
                pass
    succeeded = len(answered) - counts["wrong"]
    return {
        "sent": total,
        "succeeded": succeeded,
        "failed": total - succeeded,
        "wrong": counts["wrong"],
        "errors": counts["errors"],
    }
