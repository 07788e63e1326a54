"""The ``serve-tcp`` workload: ``pstore serve --source tcp:<port>`` under an
open-loop report stream from a simulated node fleet.

One process (the benchmark itself) is the load generator.  It holds
``min(2, nproc)`` ingest connections; a second thread probes ``/status``
every :data:`POLL_S` seconds.  The stream is one seeded report sequence
(one report per node per slot) sent in two phases:

* ``nominal`` — open loop at a fixed rate: report ``i`` is due at
  ``start + i / rate`` and is sent then, whatever the plane is doing.
  An interval's close latency runs from the due time of the report that
  moves the watermark past the interval's end (the last node's first
  report of the next slot) to the first probe that shows the interval
  closed.  ``close_p50_ms``/``close_p99_ms`` and ``run_s`` come from
  this phase, after warm-up.
* ``burst`` — several bursts, each written as fast as TCP flow control
  lets the generator write; a burst's rate is its reports over the time
  until its last interval closes, i.e. the plane's saturation ingest
  rate with interval closes included, and ``ingest_rps`` is the median
  burst rate, so one burst slowed by the host does not set it.

The plane drains between phases, and the data never depend on timing,
so the plane's final state can be pinned per seed.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

SLOT_SECONDS = 3600.0
TOKEN = "e2ebench-token"
#: Per-connection ``--ingest-max-rate``: far above anything the
#: generator can offer, so the guard is armed but never throttles.
MAX_RATE = 1_000_000
#: Seconds between ``/status`` probes; the burst phase probes at the
#: slower rate, so probes steal little of the plane's time while its
#: saturation rate is measured.
POLL_S = 0.002
BURST_POLL_S = 0.02
#: Burst writes, in reports per ``sendall``.
BURST_CHUNK = 256
#: Generator lateness (p99, nominal phase) beyond which the run is
#: invalid rather than slow.
MAX_LATE_P99_MS = 50.0
#: Seconds to wait for the plane to boot, close a phase, or exit.
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0

SIZES: Dict[str, dict] = {
    "full": {
        "nodes": 16,
        "nominal_rps": 1600.0,
        "nominal_slots": 1800,
        "bursts": 5,
        "burst_slots": 1000,
        # The traced run's nominal-only schedule.
        "traced_slots": 1060,
        "boots": 5,
        "min_predictive": 1000,
    },
    "smoke": {
        "nodes": 4,
        "nominal_rps": 800.0,
        "nominal_slots": 80,
        "bursts": 2,
        "burst_slots": 40,
        "traced_slots": 60,
        "boots": 2,
        "min_predictive": 10,
    },
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def fleet_counts(seed: int, nodes: int, n_slots: int) -> np.ndarray:
    """Integer transaction counts, shape ``(n_slots, nodes)``.

    A diurnal load (trough 03:00, peak 15:00) with a weekly swell,
    log-normal noise and a few three-slot spikes, split across the fleet
    by fixed per-node shares.  Integer counts keep every per-slot sum
    exact whatever order the reports arrive in.
    """
    rng = np.random.default_rng(seed)
    slot = np.arange(n_slots)
    hours = slot % 24
    diurnal = 0.55 - 0.45 * np.cos(2.0 * np.pi * (hours - 3) / 24.0)
    weekly = 1.0 + 0.1 * np.sin(2.0 * np.pi * (slot // 24) / 7.0)
    tps = 80.0 + 1400.0 * diurnal * weekly * rng.lognormal(0.0, 0.04, n_slots)
    for start in rng.integers(48, max(49, n_slots - 3), size=max(1, n_slots // 400)):
        tps[start:start + 3] *= 1.8
    shares = rng.dirichlet(np.full(nodes, 30.0))
    return np.floor(tps[:, None] * SLOT_SECONDS * shares[None, :]).astype(np.int64)


def schedule(size: dict, kind: str) -> List[dict]:
    """Phases ``{name, rate, start, slots}`` over consecutive slots;
    ``rate`` None means as fast as the plane takes them.

    ``kind`` is ``full`` (nominal, then the bursts) or ``traced`` (a shorter
    nominal phase alone, run once untraced and once traced).
    """
    if kind == "traced":
        return [{"name": "nominal", "rate": size["nominal_rps"], "start": 0,
                 "slots": size["traced_slots"]}]
    phases = [{"name": "nominal", "rate": size["nominal_rps"], "start": 0,
               "slots": size["nominal_slots"]}]
    for i in range(size["bursts"]):
        phases.append({"name": f"burst{i}", "rate": None,
                       "start": size["nominal_slots"] + i * size["burst_slots"],
                       "slots": size["burst_slots"]})
    return phases


def report_lines(counts: np.ndarray) -> List[bytes]:
    """One newline-JSON report per (slot, node), slot-major."""
    lines = []
    for slot, row in enumerate(counts):
        stamp = (slot + 0.5) * SLOT_SECONDS
        for node, count in enumerate(row):
            lines.append(
                b'{"time": %.1f, "node": "n%d", "count": %d}\n'
                % (stamp, node, int(count))
            )
    return lines


# ----------------------------------------------------------------------
# Plane process and probes
# ----------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 10.0) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(b"GET %s HTTP/1.0\r\n\r\n" % path.encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.0 200"):
        raise RuntimeError(f"GET {path}: {head[:40]!r}")
    return body


def metric_total(text: str, name: str) -> float:
    """Sum of an OpenMetrics counter family (0 when never incremented)."""
    prefix = f"pstore_{name}_total"
    total = 0.0
    for line in text.splitlines():
        if line.startswith(prefix) and line[len(prefix):len(prefix) + 1] in " {":
            total += float(line.rsplit(" ", 1)[1])
    return total


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


SUMMARY_RE = re.compile(
    r"served (?P<intervals>\d+) intervals .*machines=(?P<machines>\d+) "
    r"mode=(?P<mode>\S+) violations=(?P<violations>\d+) "
    r"moves=(?P<moves>\d+) trigger_fires=(?P<trigger_fires>\d+)"
)


def parse_summary(stdout: str) -> Optional[dict]:
    """The final state ``pstore serve`` prints when it drains."""
    match = SUMMARY_RE.search(stdout)
    if match is None:
        return None
    doc = match.groupdict()
    return {k: (v if k == "mode" else int(v)) for k, v in doc.items()}


class Plane:
    """One ``pstore serve`` process started through the launcher; its
    output goes to ``<log_prefix>.out`` / ``.err``."""

    def __init__(self, env: dict, trace_dir: Optional[str], run_id: str,
                 log_prefix: str) -> None:
        self.port = free_port()
        self.http_port = free_port()
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "serve_launcher.py")
        args = [
            sys.executable, launcher, trace_dir or "-", run_id, "--",
            "--source", f"tcp:{self.port}", "--http-port", str(self.http_port),
            "--slot-seconds", str(SLOT_SECONDS), "--predictor", "ar",
            "--out", "none", "--ingest-token", TOKEN,
            "--ingest-max-rate", str(MAX_RATE), "--status-every", "0",
            "--quiet",
        ]
        self._out_path = log_prefix + ".out"
        self._err_path = log_prefix + ".err"
        with open(self._out_path, "wb") as out, open(self._err_path, "wb") as err:
            self.spawned = time.time()
            self.proc = subprocess.Popen(args, env=env, stdout=out, stderr=err)
        self.setup_s = None

    def _stderr_tail(self) -> str:
        with open(self._err_path, errors="replace") as handle:
            return handle.read()[-500:]

    def connect(self) -> socket.socket:
        """Retry until the ingest port accepts (the first success marks
        the end of set-up), then authenticate."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), timeout=5)
                break
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("serve plane did not start: "
                                       + self._stderr_tail())
                time.sleep(0.002)
        if self.setup_s is None:
            self.setup_s = time.time() - self.spawned
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(TOKEN.encode() + b"\n")
        return sock

    def stop(self) -> str:
        """SIGINT (graceful drain), wait, return stdout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"serve plane exited {self.proc.returncode}: "
                               + self._stderr_tail())
        with open(self._out_path, errors="replace") as handle:
            return handle.read()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Poller(threading.Thread):
    """Probes ``/status`` until stopped; keeps ``(time, intervals,
    reports, mode)`` samples."""

    def __init__(self, http_port: int) -> None:
        super().__init__(daemon=True)
        self.http_port = http_port
        self.samples: List[tuple] = []
        self.interval = POLL_S
        self.error: Optional[BaseException] = None
        self._stop_event = threading.Event()

    def run(self) -> None:
        try:
            while not self._stop_event.is_set():
                doc = json.loads(http_get(self.http_port, "/status"))
                self.samples.append((time.perf_counter(), doc["intervals"],
                                     doc["reports"], doc["mode"]))
                self._stop_event.wait(self.interval)
        except Exception as exc:  # noqa: BLE001 - re-raised by stop()
            self.error = exc

    def latest(self) -> tuple:
        return self.samples[-1] if self.samples else (0.0, 0, 0, "warmup")

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=15)
        if self.error is not None:
            raise self.error


def send_phase(conns, lines, nodes, start, stop, rate) -> tuple:
    """Send reports ``lines[start:stop]``; node ``n`` reports on
    connection ``n % len(conns)``.

    With a ``rate`` the stream is open loop: returns each report's due
    time and how late the generator actually sent it.  With ``rate``
    None reports go out in chunks on the first connection as fast as it
    takes them; the due time is then the send time.
    """
    count = stop - start
    n_conns = len(conns)
    late = np.zeros(count)
    if rate is None:
        # One connection only: with two, one handler can enqueue a whole
        # socket buffer before the other runs, the nodes on the lagging
        # connection fall more than --node-timeout intervals behind, get
        # evicted, and their reports are then dropped as late.
        due = np.empty(count)
        for i in range(0, count, BURST_CHUNK):
            j = min(i + BURST_CHUNK, count)
            due[i:j] = time.perf_counter()
            conns[0].sendall(b"".join(lines[start + i:start + j]))
        return due, late
    t0 = time.perf_counter() + 0.002
    due = t0 + np.arange(count) / rate
    i = 0
    while i < count:
        now = time.perf_counter()
        if now < due[i]:
            time.sleep(min(due[i] - now, 0.002))
            continue
        j = int(np.searchsorted(due, now, side="right"))
        chunks = [[] for _ in conns]
        for k in range(i, j):
            chunks[(start + k) % nodes % n_conns].append(lines[start + k])
        sent_at = time.perf_counter()
        for conn, chunk in zip(conns, chunks):
            if chunk:
                conn.sendall(b"".join(chunk))
        late[i:j] = sent_at - due[i:j]
        i = j
    return due, late


# ----------------------------------------------------------------------
# One pass: boot, phases, checks
# ----------------------------------------------------------------------


def _wait_closed(poller: Poller, plane: Plane, target: int) -> None:
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while poller.latest()[1] < target:
        if poller.error is not None or plane.proc.poll() is not None:
            raise RuntimeError("serve plane stopped answering /status")
        if time.monotonic() > deadline:
            raise RuntimeError(f"plane did not close {target} intervals in time")
        time.sleep(POLL_S)


def _boot(boots: int, env: dict, work: str, trace_dir, run_id: str):
    """Boot ``boots`` planes one after the other; the first ``boots - 1``
    only measure set-up.  Returns ``(setups, plane, first connection)``."""
    setups = []
    for boot in range(boots):
        plane = Plane(env, trace_dir if boot == boots - 1 else None, run_id,
                      os.path.join(work, f"plane-{run_id}-{boot}"))
        try:
            first = plane.connect()
            setups.append(plane.setup_s)
            if boot < boots - 1:
                first.close()
                plane.stop()
        except BaseException:
            plane.kill()
            raise
    return setups, plane, first


def run_pass(size: dict, kind: str, seed: int, env: dict, work: str,
             trace: bool, boots: int, run_id: str) -> dict:
    """Boot the plane ``boots`` times (the last one serves), drive the
    schedule, and summarise the pass for the caller to verify."""
    nodes = size["nodes"]
    phases = schedule(size, kind)
    total_slots = phases[-1]["start"] + phases[-1]["slots"]
    # One extra slot whose reports move the watermark past the last
    # scheduled slot, so every scheduled interval closes.
    closing = {"name": "closing", "rate": phases[0]["rate"],
               "start": total_slots, "slots": 1}
    lines = report_lines(fleet_counts(seed, nodes, total_slots + 1))
    trace_dir = os.path.join(work, f"plane-trace-{run_id}") if trace else None
    if trace_dir:
        os.makedirs(trace_dir)

    setups, plane, first = _boot(boots, env, work, trace_dir, run_id)
    conns = [first]
    poller = Poller(plane.http_port)
    try:
        n_conns = max(1, min(2, os.cpu_count() or 1, nodes))
        conns += [plane.connect() for _ in range(n_conns - 1)]
        poller.start()
        due = np.empty(len(lines))
        late = np.empty(len(lines))
        cpu_start = proc_cpu_s(plane.proc.pid)
        cpu_nominal = None
        for phase in phases + [closing]:
            poller.interval = POLL_S if phase["rate"] else BURST_POLL_S
            lo = phase["start"] * nodes
            hi = lo + phase["slots"] * nodes
            due[lo:hi], late[lo:hi] = send_phase(
                conns, lines, nodes, lo, hi, phase["rate"])
            # Every slot but the phase's last closes without the next
            # phase's reports.
            _wait_closed(poller, plane, phase["start"] + phase["slots"] - 1)
            if cpu_nominal is None:
                cpu_nominal = proc_cpu_s(plane.proc.pid) - cpu_start
        poller.stop()
        status = json.loads(http_get(plane.http_port, "/status"))
        metrics_text = http_get(plane.http_port, "/metrics").decode()
        peak_rss_mb = proc_peak_rss_mb(plane.proc.pid)
        for conn in conns:
            conn.close()
        summary_out = plane.stop()
    finally:
        poller.stop()
        for conn in conns:
            conn.close()
        plane.kill()

    # Close latency per interval k: due time of the last node's report
    # of slot k+1 -> first probe showing k+1 intervals closed.
    samples = poller.samples
    probe_t = np.array([s[0] for s in samples])
    probe_n = np.array([s[1] for s in samples])
    warm = next((s[1] for s in samples if s[3] != "warmup"), total_slots)
    slots = np.arange(total_slots)
    closed_at = probe_t[np.searchsorted(probe_n, slots + 1, side="left")]
    close_ms = (closed_at - due[(slots + 1) * nodes + nodes - 1]) * 1e3

    nominal = phases[0]
    # Intervals closed by nominal-phase reports, after warm-up.
    nominal_ms = close_ms[warm:nominal["slots"] - 1]
    nominal_reports = nominal["slots"] * nodes
    result = {
        "setup_s": setups,
        "run_s": float(closed_at[nominal["slots"] - 2] - due[0]),
        "peak_rss_mb": peak_rss_mb,
        "close_p50_ms": float(np.percentile(nominal_ms, 50)),
        "close_p99_ms": float(np.percentile(nominal_ms, 99)),
        "predictive_closes": int(nominal_ms.size),
        "late_p99_ms": float(np.percentile(late[:nominal_reports], 99)) * 1e3,
        "cpu_nominal_s": cpu_nominal,
        "sent": len(lines),
        "expected_intervals": total_slots,
        "final": parse_summary(summary_out),
        "not_ingested": len(lines) - int(status["reports"]),
        "late_reports": int(status["late_reports"]),
        "rejected": metric_total(metrics_text, "serve_reports_rejected"),
        "throttled": metric_total(metrics_text, "serve_ingest_throttled"),
        "backpressure_hits": metric_total(metrics_text, "serve_ingest_backpressure"),
        "trace": _read_trace(trace_dir),
    }
    rates = []
    for burst in phases[1:]:
        last = burst["start"] + burst["slots"] - 2
        first_send = due[burst["start"] * nodes]
        rates.append(burst["slots"] * nodes / (closed_at[last] - first_send))
    if rates:
        result["burst_rps"] = [float(r) for r in rates]
        result["ingest_rps"] = float(np.median(rates))
    return result


def _read_trace(trace_dir: Optional[str]) -> Optional[dict]:
    if trace_dir is None:
        return None
    with open(os.path.join(trace_dir, "trace.json")) as handle:
        return json.load(handle)
