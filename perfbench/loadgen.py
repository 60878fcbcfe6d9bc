"""Server processes, the closed-loop load generator and host probes.

The server is a real ``repro serve`` subprocess (or the traced
launcher).  Load comes from this one process, closed loop: each
stream, driven by its own thread, sends its next request only after
the reply arrives.  The server and this process are pinned to one
shared CPU.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

CLOCK = time.monotonic
_TICK = os.sysconf("SC_CLK_TCK")


def choose_cpus() -> set:
    """The one CPU the server and the load generator share.

    Keeping both on one CPU avoids the cross-CPU wake-ups that, on a
    virtual machine, show up as hypervisor steal (see NOTES.md)."""
    return {max(os.sched_getaffinity(0))}


class Server:
    """One ``repro serve --port 0`` subprocess.

    ``trace`` names a spans file: the server then runs under
    ``trace_server.py``.  Construction returns once the server has
    printed its listening address."""

    def __init__(self, args: list[str], *, logdir: str, cpus: set,
                 trace: str | None = None, timeout_s: float = 120.0):
        if trace is None:
            cmd = [sys.executable, "-u", "-m", "repro", "serve"]
        else:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, "-u",
                   os.path.join(here, "trace_server.py"), trace, "serve"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH"))
            if p)
        self.trace = trace
        self._lines: list[str] = []
        self._ready = threading.Event()
        self.port: int | None = None
        self._stderr = open(os.path.join(logdir, "server.err"), "a")
        self.proc = subprocess.Popen(
            cmd + ["--port", "0", *args], env=env, text=True,
            stdout=subprocess.PIPE, stderr=self._stderr,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout_s) or self.port is None:
            self.kill()
            raise RuntimeError("server did not start: "
                               + "".join(self._lines[-5:]))

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line)
            if line.startswith("serving bulk-bitwise queries on "):
                address = line.split(" on ", 1)[1].split(" ", 1)[0]
                self.port = int(address.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_s(self) -> float:
        """utime + stime of the whole server process."""
        with open(f"/proc/{self.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def vmhwm_mb(self) -> float:
        return _vmhwm_mb(f"/proc/{self.pid}/status")

    def dump_spans(self, timeout_s: float = 60.0) -> None:
        """Ask the traced server to write its spans now (SIGUSR1)."""
        if self.trace is None:
            return
        before = _mtime(self.trace)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = CLOCK() + timeout_s
        while _mtime(self.trace) == before and CLOCK() < deadline:
            time.sleep(0.02)

    def kill(self) -> None:
        """SIGKILL and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5)
        self._stderr.close()

    def stop(self, timeout_s: float = 60.0) -> None:
        """Graceful SIGTERM (flushes, snapshots, writes spans)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


def _mtime(path: str) -> float:
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return 0


def _vmhwm_mb(status_path: str) -> float:
    with open(status_path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in " + status_path)


def own_vmhwm_mb() -> float:
    return _vmhwm_mb("/proc/self/status")


def own_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def host_ticks(cpus) -> tuple[int, int]:
    """(steal, total) jiffies summed over ``cpus``."""
    steal = total = 0
    with open("/proc/stat") as stat:
        for line in stat:
            if not line.startswith("cpu"):
                break
            name, *values = line.split()
            if name != "cpu" and int(name[3:]) in cpus:
                values = [int(v) for v in values[:8]]
                steal += values[7]
                total += sum(values)
    return steal, total


def memcpy_gbps(n_bytes: int = 64 << 20, repeats: int = 5) -> float:
    """Best-of-N large copy rate (bytes copied per second / 1e9)."""
    src = np.ones(n_bytes // 8, dtype=np.uint64)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return n_bytes / best / 1e9


class Probe:
    """Server and load-generator CPU seconds, and the steal of
    ``cpus``, summed over every :meth:`start`/:meth:`stop` interval.
    ``server_cpu`` is read at both ends of each interval, so it may
    follow a server that is restarted between intervals."""

    def __init__(self, cpus, server_cpu, client_cpu=None) -> None:
        self._cpus = cpus
        self._server_cpu, self._client_cpu = server_cpu, client_cpu
        self._total = (0.0, 0.0, 0, 0)

    def _read(self) -> tuple:
        return (self._server_cpu(),
                self._client_cpu() if self._client_cpu else 0.0,
                *host_ticks(self._cpus))

    def start(self) -> None:
        self._before = self._read()

    def stop(self) -> None:
        self._total = tuple(total + after - before for total, after, before
                            in zip(self._total, self._read(),
                                   self._before))

    def server_cpu_s(self) -> float:
        return self._total[0]

    def client_cpu_s(self) -> float:
        return self._total[1]

    def steal_pct(self) -> float:
        """Share of the pinned CPU's time the hypervisor stole."""
        steal, total = self._total[2], self._total[3]
        return 100.0 * steal / total if total else 0.0


def closed_loop(streams, warmup_s: float, seconds: float,
                probe: Probe):
    """Drive every stream from its own thread, closed loop.

    A stream is a callable ``stream(index) -> reply`` that performs
    its ``index``-th operation and returns what the caller will check
    later.  Returns ``(lo, hi, records)``: the timed window and, per
    stream, ``(t_send, t_done, index, reply, error)`` tuples."""
    start = CLOCK() + 0.05
    lo, hi = start + warmup_s, start + warmup_s + seconds
    records = [[] for _ in streams]

    def drive(stream, out) -> None:
        while CLOCK() < start:
            time.sleep(0.001)
        index = 0
        while True:
            t0 = CLOCK()
            if t0 >= hi:
                return
            reply = error = None
            try:
                reply = stream(index)
            except Exception as exc:  # counted as a failed operation
                error = repr(exc)
            out.append((t0, CLOCK(), index, reply, error))
            index += 1

    threads = [threading.Thread(target=drive, args=(s, out), daemon=True)
               for s, out in zip(streams, records)]
    for thread in threads:
        thread.start()
    _sleep_until(lo)
    probe.start()
    _sleep_until(hi)
    probe.stop()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("load thread did not finish")
    return lo, hi, records


def _sleep_until(deadline: float) -> None:
    while True:
        left = deadline - CLOCK()
        if left <= 0:
            return
        time.sleep(min(left, 0.05))


def summarise(done_times, latencies, seconds: float) -> dict:
    """Throughput over a window of ``seconds`` and latency p50/p90 (ms)
    pooled over every sample.  ``latencies`` holds ``None`` for
    operations that count toward throughput only."""
    lat = np.asarray([x for x in latencies if x is not None],
                     dtype=float) * 1e3
    if not lat.size:
        raise RuntimeError("no latency samples in the timed window")
    return {"throughput_rps": len(done_times) / seconds,
            "p50_ms": float(np.percentile(lat, 50)),
            "p90_ms": float(np.percentile(lat, 90)),
            "samples": int(lat.size)}
