"""Server lifecycle, the one-connection HTTP client, and /proc readers.

The server is always a child process: ``python3 -m repro.cli serve`` for
plain runs, or :mod:`traced_serve` (same CLI, layer entry points
wrapped) for traced runs.  Its output goes to log files in the work
directory so a chatty server can never block on a full pipe.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
import urllib.parse

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How long a launch may take before the run gives up (10k files).
READY_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, dead server)."""


#: The client (this process) and the server share one CPU, the last of
#: the affinity mask.  In a closed loop on one connection they take
#: turns, so every hand-off is a local context switch; on separate vCPUs
#: each one wakes a halted vCPU through the hypervisor, which on a
#: shared 2-vCPU machine widened hot-repeat's tail (p99 1.7 ms against
#: 1.0 ms on one CPU).
BENCH_CPUS = {max(os.sched_getaffinity(0))}


def pin() -> None:
    os.sched_setaffinity(0, BENCH_CPUS)


#: Iterations of the reference loop: about 2 ms on this machine.
REF_LOOPS = 12_000
#: The timing metrics read as on a machine where the reference loop
#: takes this long (README: Steadiness).
REF_NOMINAL_S = 0.002


def reference_s(repeats: int = 5) -> float:
    """Best of ``repeats`` timings of a fixed piece of pure-Python work.

    It calls nothing of the program, so it measures the machine's speed
    at that moment.  Best, because an interrupt can only add to a timing.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        table = {}
        for i in range(REF_LOOPS):
            table[i & 1023] = str(i)
        best = min(best, time.perf_counter() - started)
    return best


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro-search serve`` child process on a loopback port."""

    def __init__(
        self,
        serve_args: list[str],
        log_dir: pathlib.Path,
        *,
        traced_spans: pathlib.Path | None = None,
        tag: str = "serve",
    ) -> None:
        self.port = _free_port()
        env = dict(os.environ)
        # One string-hash seed for every launch: dict and set layouts, and
        # so the server's iteration orders, repeat from run to run.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if traced_spans is not None:
            env["PERFBENCH_SPANS"] = str(traced_spans)
            entry = [sys.executable, str(HERE / "traced_serve.py")]
        else:
            entry = [sys.executable, "-m", "repro.cli"]
        argv = entry + [
            "serve", *serve_args, "--port", str(self.port), "--workers", "2",
        ]
        log_dir.mkdir(parents=True, exist_ok=True)
        self._out = open(log_dir / f"{tag}.out", "wb")
        self._err = open(log_dir / f"{tag}.err", "wb")
        ref = reference_s()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=self._out, stderr=self._err,
            stdin=subprocess.DEVNULL,
            preexec_fn=pin,
        )
        #: Launch to the first ``/readyz`` 200, as measured ...
        self.setup_raw_s = self._wait_ready()
        #: ... and scaled by the reference timed before the launch and
        #: right after it, as every timing metric is.
        self.setup_s = self.setup_raw_s * 2 * REF_NOMINAL_S / (ref + self.reference_s())

    def _wait_ready(self) -> float:
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self.stop()
                raise BenchError(
                    f"server exited with {self.proc.returncode} before ready"
                )
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/readyz")
                    resp = conn.getresponse()
                    resp.read()
                    if resp.status == 200:
                        return time.perf_counter() - self.started
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.002)
        self.stop()
        raise BenchError(f"server not ready within {READY_TIMEOUT_S:.0f}s")

    def get_json(self, path: str) -> dict:
        """One request on a fresh connection (probes outside the window)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            raise BenchError(f"GET {path} -> {resp.status}: {body[:200]!r}")
        return json.loads(body)

    @contextlib.contextmanager
    def paused(self):
        """Every server thread stopped (SIGSTOP) for the body's duration."""
        self.proc.send_signal(signal.SIGSTOP)
        try:
            deadline = time.perf_counter() + 1.0
            while not self._stopped() and time.perf_counter() < deadline:
                pass
            yield
        finally:
            self.proc.send_signal(signal.SIGCONT)

    def _stopped(self) -> bool:
        """No server thread is runnable: each is stopped, or has ended."""
        for task in pathlib.Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                state = (task / "stat").read_text().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                continue  # thread exited between listing and reading
            if state not in ("T", "t", "Z", "X"):
                return False
        return True

    def reference_s(self) -> float:
        """:func:`reference_s` with nothing of the server running beside it."""
        with self.paused():
            return reference_s()

    # -- /proc ---------------------------------------------------------------

    def cpu_ns(self) -> dict[str, int]:
        """On-CPU nanoseconds of each live server thread, by thread id.

        ``schedstat`` counts in nanoseconds, not 10 ms ticks.
        """
        out = {}
        task_dir = pathlib.Path(f"/proc/{self.proc.pid}/task")
        for task in task_dir.iterdir():
            try:
                out[task.name] = int((task / "schedstat").read_text().split()[0])
            except (OSError, IndexError, ValueError):
                continue  # thread exited between listing and reading
        return out

    def peak_rss_mb(self) -> float:
        for line in pathlib.Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the CLI's graceful drain), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()


class Client:
    """One keep-alive HTTP connection; every call waits for its reply."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def _call(self, method: str, path: str, **kwargs) -> tuple[int, dict, float]:
        started = time.perf_counter()
        self.conn.request(method, path, **kwargs)
        resp = self.conn.getresponse()
        body = resp.read()
        elapsed = time.perf_counter() - started
        return resp.status, json.loads(body), elapsed

    def search(self, q: str, *, top_k: int, scoring: str) -> tuple[int, dict, float]:
        return self._call("GET", "/search?" + urllib.parse.urlencode(
            {"q": q, "top_k": top_k, "scoring": scoring}
        ))

    def post_document(self, doc_id: str, text: str) -> tuple[int, dict, float]:
        return self._call(
            "POST", "/documents",
            body=json.dumps({"id": doc_id, "text": text}).encode(),
            headers={"Content-Type": "application/json"},
        )

    def delete_document(self, doc_id: str) -> tuple[int, dict, float]:
        return self._call("DELETE", "/documents/" + urllib.parse.quote(doc_id))

    def close(self) -> None:
        self.conn.close()
