"""``serve``: POST /multiply to a ``repro serve`` daemon on its defaults.

Two client threads in this process run a closed loop, each on its own
keep-alive ``http.client`` connection (what a Python caller gets by
default).  The request schedule is fixed by the seed, in blocks of four:

* request ``4k`` is a miss: inline COO of matrix ``k``, never sent before;
* requests ``4k+1..4k+3`` are hits on an earlier matrix, sent either as
  the same inline COO again (parse + fingerprint + hit) or by
  ``matrix_hash`` (hit without a parse).

Every miss matrix shares one seeded sparsity structure and has fresh
values: new content for the cache, while its simulated cycles are the
same exact figure on every miss.  (Miss latencies then form one
cluster, whose 60th percentile is the run's p90: three requests in four
are hits.)  Set-up starts the daemon, with a per-run ``--shm-prefix``,
and warms it on matrices outside the timed set, so every run starts
with the same cache contents.  Teardown always runs: SIGTERM, wait for
the drain, and count any process or ``/dev/shm`` segment left behind
as a failure.  Results are verified after the timed window against an
offline ``ac_spgemm`` of the same operands.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import Measurement, Op, remove_workdir
from repro import AcSpgemmOptions, ac_spgemm, spgemm_reference, squared_operands
from repro.campaign.plan import matrix_fingerprint
from repro.matrices.generators import random_uniform
from repro.sparse import COOMatrix

ROWS = 800
AVG_ROW = 6
CLIENTS = 2
#: fresh matrices per run; a run that used them all ends early
MISSES = 320
#: hits target the last RECENT misses, well inside the daemon's default
#: 128-entry result cache, so three requests in four really are hits
RECENT = 64
WARMUP = 2
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
HTTP_TIMEOUT_S = 60.0
SHM_DIR = Path("/dev/shm")


@dataclass
class Matrix:
    """One request matrix and its two request bodies."""

    coo: bytes  # {"coo": ...} request body
    by_hash: bytes  # {"matrix_hash": ...} request body
    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def csr(self):
        """The operand exactly as the daemon builds it from the COO."""
        return COOMatrix(
            rows=self.rows, cols=self.cols,
            row_idx=self.row_idx, col_idx=self.col_idx, values=self.values,
        ).to_csr()


def make_matrices(base, rngs) -> list[Matrix]:
    """One matrix per generator: ``base``'s structure, fresh values."""
    coo = COOMatrix.from_csr(base)
    out = []
    for rng in rngs:
        values = rng.random(coo.nnz) * 0.999 + 0.001
        doc = {
            "rows": coo.rows,
            "cols": coo.cols,
            "row_idx": coo.row_idx.tolist(),
            "col_idx": coo.col_idx.tolist(),
            "values": values.tolist(),
        }
        m = Matrix(json.dumps({"coo": doc}).encode(), b"", coo.rows, coo.cols,
                   coo.row_idx, coo.col_idx, values)
        m.by_hash = json.dumps({"matrix_hash": matrix_fingerprint(m.csr())}).encode()
        out.append(m)
    return out


def check_response(status: int, doc: dict, expected_digest: str, expected_sim_ms) -> str | None:
    """Why one response is wrong, or None when it is right."""
    if status != 200 or doc.get("outcome") != "success":
        return f"HTTP {status} outcome={doc.get('outcome')!r} reason={doc.get('reason')!r}"
    result = doc.get("result") or {}
    if result.get("digest") != expected_digest:
        return f"digest {result.get('digest')!r} != offline {expected_digest!r}"
    if result.get("sim_ms") != expected_sim_ms:
        return f"sim_ms {result.get('sim_ms')!r} != offline {expected_sim_ms!r}"
    return None


def _die_with_parent() -> None:
    """Child-side: SIGTERM the daemon if the benchmark itself dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def descendants(pid: int) -> set[int]:
    """Live descendant pids of ``pid`` (Linux /proc)."""
    found: set[int] = set()
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                kids = Path(f"/proc/{p}/task/{tid}/children").read_text().split()
            except OSError:
                continue
            for kid in map(int, kids):
                if kid not in found:
                    found.add(kid)
                    todo.append(kid)
    return found


def alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def leftovers(prefix: str, pids: set[int]) -> list[str]:
    """What a stopped daemon left behind: processes (given 5 s to exit,
    then killed) and ``/dev/shm`` segments of its prefix (unlinked)."""
    found = []
    deadline = time.monotonic() + 5.0
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in sorted(p for p in pids if alive(p)):
        found.append(f"process {pid} outlived the daemon")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for seg in sorted(SHM_DIR.glob(prefix + "*")):
        found.append(f"/dev/shm segment {seg.name} outlived the daemon")
        seg.unlink(missing_ok=True)
    return found


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def prometheus_sum(text: str, name: str) -> float:
    """Sum of every sample of metric ``name`` in a text exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


class Daemon:
    """One ``repro serve`` process on the program's defaults."""

    def __init__(self, root: Path, prefix: str, log: Path):
        self.prefix = prefix
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        t0 = time.perf_counter()
        self.log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--shm-prefix", prefix],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            preexec_fn=_die_with_parent,
        )
        self.children: set[int] = set()
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def _await_ready(self) -> None:
        line: list[bytes] = []
        reader = threading.Thread(
            target=lambda: line.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(START_TIMEOUT_S)
        if not line or b"listening on" not in line[0]:
            self.log.flush()
            tail = Path(self.log.name).read_bytes()[-2000:].decode(errors="replace")
            raise RuntimeError(f"repro serve did not start: {line!r}\n{tail}")
        self.port = int(line[0].decode().rsplit(":", 1)[1].strip().rstrip("/"))
        conn = self.connect()
        try:
            status, _ = request(conn, "GET", "/healthz")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"repro serve unhealthy: HTTP {status}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)

    def stop(self) -> list[str]:
        """SIGTERM, wait for the drain, reap; returns what was left behind."""
        leaks = []
        self.children |= descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            leaks.append(f"daemon {self.proc.pid} ignored SIGTERM for {DRAIN_TIMEOUT_S:.0f}s")
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return leaks + leftovers(self.prefix, self.children)


def request(conn, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body, headers)
    resp = conn.getresponse()
    data = resp.read()
    try:
        doc = json.loads(data)
    except ValueError:
        doc = {"outcome": "error", "reason": data[:200].decode(errors="replace")}
    return resp.status, doc


@dataclass
class Record:
    index: int
    kind: str  # "miss" | "coo" | "hash"
    matrix: int
    rtt_s: float
    status: int
    doc: dict
    traced: bool
    trace: dict | None = None


class Serve:
    """The ``serve`` workload."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.workdir = root / ".bench_work" / f"serve-{seed}-{os.getpid()}"
        self.daemon: Daemon | None = None
        self.setups = 0
        self.start_s: list[float] = []
        self.first_ms: list[float] = []
        self.leaks = 0
        self.failures: list[str] = []

    # -- set-up ---------------------------------------------------------

    def _inputs(self) -> None:
        rng_struct, rng_vals, rng_warm, rng_sched = np.random.default_rng(self.seed).spawn(4)
        base = random_uniform(ROWS, ROWS, AVG_ROW, seed=rng_struct)
        self.matrices = make_matrices(base, rng_vals.spawn(MISSES))
        self.warm = make_matrices(base, rng_warm.spawn(WARMUP))
        # hits go to one of the last RECENT matrices whose miss was sent
        # at least one block earlier: with two clients it has almost
        # always finished, and it is still in the daemon's result cache
        self.schedule: list[tuple[str, int]] = []
        for i in range(4 * MISSES):
            k = i // 4
            if i % 4 == 0:
                self.schedule.append(("miss", k))
            else:
                target = int(rng_sched.integers(max(0, k - RECENT), max(1, k - 1)))
                self.schedule.append((("coo", "hash")[int(rng_sched.integers(0, 2))], target))

    def setup(self) -> None:
        self.teardown()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._inputs()
        self.setups += 1
        prefix = f"pb{os.getpid()}x{self.setups}-"
        self.daemon = Daemon(self.root, prefix, self.workdir / f"daemon-{self.setups}.log")
        self.start_s.append(self.daemon.start_s)
        conn = self.daemon.connect()
        try:
            for j, m in enumerate(self.warm):
                t0 = time.perf_counter()
                status, doc = request(conn, "POST", "/multiply", m.coo)
                if j == 0:  # the first request spawns the warm process pool
                    self.first_ms.append((time.perf_counter() - t0) * 1e3)
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: HTTP {status} {doc}")
                for body in (m.coo, m.by_hash):
                    request(conn, "POST", "/multiply", body)
        finally:
            conn.close()
        self.daemon.children = descendants(self.daemon.proc.pid)

    def teardown(self) -> None:
        if self.daemon is not None:
            leaks = self.daemon.stop()
            self.daemon = None
            self.leaks += len(leaks)
            self.failures.extend(leaks)
        remove_workdir(self.workdir)

    # -- timed window ---------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> Measurement:
        daemon = self.daemon
        records: list[Record] = []
        lock = threading.Lock()
        done = [threading.Event() for _ in self.matrices]
        next_op = iter(range(len(self.schedule)))
        start = time.perf_counter()
        deadline = start + seconds

        def client() -> None:
            conn = daemon.connect()
            try:
                while True:
                    with lock:
                        i = next(next_op, None)
                    if i is None or time.perf_counter() >= deadline:
                        return
                    kind, idx = self.schedule[i]
                    m = self.matrices[idx]
                    if kind != "miss":
                        done[idx].wait(HTTP_TIMEOUT_S)
                    body = m.by_hash if kind == "hash" else m.coo
                    t0 = time.perf_counter()
                    try:
                        status, doc = request(conn, "POST", "/multiply", body)
                    except (OSError, http.client.HTTPException) as exc:
                        status, doc = 0, {"outcome": "error", "reason": repr(exc)}
                        conn.close()
                        conn = daemon.connect()
                    rtt = time.perf_counter() - t0
                    if kind == "miss":
                        done[idx].set()
                    rec = Record(i, kind, idx, rtt, status, doc, trace and (i // 4) % 2 == 1)
                    if rec.traced and "trace_id" in doc:
                        try:
                            _, rec.trace = request(conn, "GET", f"/trace/{doc['trace_id']}")
                        except (OSError, http.client.HTTPException):
                            conn.close()  # the op stands; its layers go unmeasured
                            conn = daemon.connect()
                    with lock:
                        records.append(rec)
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = time.perf_counter() - start
        conn = daemon.connect()
        try:
            _, stats = request(conn, "GET", "/stats")
            conn.request("GET", "/metrics")
            prom = conn.getresponse().read().decode()
        finally:
            conn.close()
        rss = peak_rss_mb(daemon.proc.pid)
        records.sort(key=lambda r: r.index)
        return self._verify(records, window, rss, stats, prom, trace)

    def _verify(self, records, window, rss, stats, prom, trace) -> Measurement:
        """Check every response against an offline multiply of its operands."""
        expected: dict[int, tuple[str, float, float]] = {}
        wrong_offline = 0
        for idx in sorted({r.matrix for r in records}):
            a, b = squared_operands(self.matrices[idx].csr())
            offline = ac_spgemm(a, b, AcSpgemmOptions(engine="batched"))
            if not expected and not offline.matrix.allclose(spgemm_reference(a, b)):
                self.failures.append("offline result differs from spgemm_reference")
                wrong_offline += 1
            expected[idx] = (
                matrix_fingerprint(offline.matrix),
                round(offline.seconds * 1e3, 4),
                offline.total_cycles,
            )
        ops, sim_cycles = [], {}
        for r in records:
            digest, sim_ms, cycles = expected[r.matrix]
            problem = check_response(r.status, r.doc, digest, sim_ms)
            if problem and len(self.failures) < 20:
                self.failures.append(f"request {r.index} ({r.kind} of matrix {r.matrix}): {problem}")
            executed = problem is None and not r.doc.get("cached", False)
            if executed:
                sim_cycles["miss"] = cycles
            ops.append(Op(r.rtt_s, problem is None, r.traced, r.kind, cycles if executed else 0.0))
        meas = Measurement(
            ops=ops,
            busy_s=window,
            sim_cycles_by_input=sim_cycles,
            peak_rss_mb=rss,
            extra_failures=wrong_offline,
            failures=self.failures,
        )
        if trace:
            meas.layers, meas.layer_sum_ms = self._layers(records, stats, prom)
        return meas

    def _layers(self, records, stats, prom) -> tuple[dict[str, float], float]:
        traced = [r for r in records if r.traced and r.trace]
        sums = dict.fromkeys(("transport", "resolve", "cache.lookup", "queue.wait", "execute"), 0.0)
        for r in traced:
            sums["transport"] += r.rtt_s - r.doc.get("latency_ms", 0.0) / 1e3
            for span in r.trace.get("spans", []):
                if span["name"] in sums and span.get("t_end") is not None:
                    sums[span["name"]] += span["t_end"] - span["t_start"]
        n = len(traced) or 1
        ms = {k: v * 1e3 / n for k, v in sums.items()}
        layers = {
            "serve.transport.host_ms": ms["transport"],
            "serve.resolve.host_ms": ms["resolve"],
            "serve.cache_lookup.host_ms": ms["cache.lookup"],
            "serve.queue_wait.host_ms": ms["queue.wait"],
            "serve.execute.host_ms": ms["execute"],
            "serve.cache_hit_ratio": sum(bool(r.doc.get("cached")) for r in records) / len(records),
            "serve.queue_high_water": prometheus_sum(prom, "repro_serve_queue_high_water"),
            "serve.retries": prometheus_sum(prom, "repro_serve_retries_total"),
            "serve.rejected": prometheus_sum(prom, "repro_serve_rejected_total"),
            "serve.daemon_start_s": float(np.median(self.start_s)),
            "serve.first_request_ms": float(np.median(self.first_ms)),
            "engine.process.worker_deaths": float(stats.get("pool_worker_deaths", 0)),
            "engine.process.respawns": float(stats.get("pool_workers_respawned", 0)),
        }
        return layers, sum(ms.values())
