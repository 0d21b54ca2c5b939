"""Drivers for the four journeys a user of the system takes.

Everything here touches the program only through its stablest surfaces:
``python -m repro join|build-index|serve``, the frozen v1 HTTP wire and
``from repro import Engine``. Each operation is counted in an
:class:`Ops` ledger; an operation fails when it exits non-zero, times
out, answers non-200 or returns rows whose digest differs from the
expected one.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from workloads import make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CLI_TIMEOUT = 60.0
HTTP_TIMEOUT = 30.0


def child_env() -> dict:
    """Environment of every child process. An empty
    ``REPRO_CALIBRATION`` disables profile discovery, so a calibration
    file left on the host cannot flip ``auto`` decisions."""
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CALIBRATION="",
        PYTHONHASHSEED="0",
    )


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------
#: Every duration is reported as if on a machine that runs
#: :func:`machine_loop` in this many seconds. The shared VM this was
#: built on flips between two speed states 1.3x apart and stays in one
#: for seconds to minutes, dragging every timing with it (README,
#: "Noise"); scaling each sample by the loop measured right around it
#: took the run-to-run spread of a warm CLI join from 8 % to 2 %.
REFERENCE_LOOP_S = 0.010


def machine_loop() -> float:
    """A fixed pure-Python loop, in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


def machine_speed() -> float:
    """How many times slower than the reference the machine is now."""
    return min(machine_loop() for _ in range(3)) / REFERENCE_LOOP_S


class Bracket:
    """``with Bracket() as b: ...`` — afterwards ``b.speed`` is the mean
    machine speed just before and just after the block."""

    def __enter__(self) -> "Bracket":
        self.speed = machine_speed()
        return self

    def __exit__(self, *exc) -> None:
        self.speed = 0.5 * (self.speed + machine_speed())


def calibrated(fn):
    """``(result, calibrated seconds)`` of one call of ``fn``: its wall
    time divided by the machine speed around it."""
    with Bracket() as bracket:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    return result, wall / bracket.speed


def round_numbers(seconds: float, minimum: int):
    """Yield round numbers until ``seconds`` are spent: at least
    ``minimum`` rounds, and none is started that, going by the last one,
    would end after the time is up."""
    started = time.perf_counter()
    count = 0
    while True:
        round_started = time.perf_counter()
        yield count
        count += 1
        now = time.perf_counter()
        if count >= minimum and now + (now - round_started) > started + seconds:
            return


# ----------------------------------------------------------------------
# correctness: one digest for every surface
# ----------------------------------------------------------------------
def digest_rows(rows) -> str:
    """SHA-256 of the sorted ``r<TAB>relation<TAB>s`` lines."""
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def digest_stdout(stdout: bytes) -> str:
    return digest_rows(stdout.decode().splitlines())


def digest_wire(document: dict) -> str:
    return digest_rows(f"{r}\t{rel}\t{s}" for r, s, rel, *_ in document["results"])


def digest_run(run) -> str:
    return digest_rows(
        f"{link.r_index}\t{link.relation.value}\t{link.s_index}" for link in run.results
    )


@dataclass
class Ops:
    """Operations attempted and failed, with a note per failure.

    Every surface must return exactly the same rows: the first digest
    seen becomes the expected one and every later operation is held to
    it."""

    expected_digest: str | None = None
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, what: str, ok: bool, digest: str | None = None) -> bool:
        self.attempted += 1
        note = None
        if not ok:
            note = f"{what}: failed (non-zero exit, non-200, shed, error or timeout)"
        elif digest is not None:
            if self.expected_digest is None:
                self.expected_digest = digest
            if digest != self.expected_digest:
                note = (f"{what}: row digest {digest[:12]} != expected "
                        f"{self.expected_digest[:12]}")
        if note is not None:
            self.failed += 1
            self.notes.append(note)
            print(f"# FAILED: {note}", file=sys.stderr)
        return note is None

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes


# ----------------------------------------------------------------------
# CLI journeys
# ----------------------------------------------------------------------
@dataclass
class CliResult:
    ok: bool
    #: Calibrated seconds from spawn to the last byte of standard output.
    seconds: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    #: Id of the span the join ran under, when it ran under one.
    span: int | None = None


def run_cli(args: list[str], log_path: Path) -> CliResult:
    """One ``python -m repro ...`` child, timed from spawn to the last
    byte of its standard output; resource usage via ``os.wait4``."""
    with log_path.open("ab") as log, Bracket() as bracket:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=ROOT,
        )
        killer = threading.Timer(CLI_TIMEOUT, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            wall = time.perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(
        ok=proc.returncode == 0,
        seconds=wall / bracket.speed,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
    )


def cli_join(ops: Ops, what: str, r, s, workload, log_path: Path) -> CliResult:
    args = ["join", str(r), str(s), "--grid-order", str(workload.grid_order)]
    if workload.predicate:
        args += ["--predicate", workload.predicate]
    result = run_cli(args, log_path)
    ops.record(what, result.ok, digest_stdout(result.stdout) if result.ok else None)
    return result


# ----------------------------------------------------------------------
# the daemon and its clients
# ----------------------------------------------------------------------
class Daemon:
    """``python -m repro serve --root DIR --port 0 --quiet`` in its own
    process group, so stray forked children die with it."""

    def __init__(self, root_dir: Path) -> None:
        self.log_path = root_dir / "serve.log"
        self._log = self.log_path.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root_dir),
             "--port", "0", "--quiet"],
            stdout=subprocess.DEVNULL, stderr=self._log, env=child_env(),
            cwd=ROOT, start_new_session=True,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout: float = 30.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline and self.proc.poll() is None:
            match = re.search(
                rb"listening on http://[^:]+:(\d+)", self.log_path.read_bytes()
            )
            if match:
                return int(match.group(1))
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT)
        try:
            conn.request("GET", "/metrics")
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL for the whole group."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._log.close()


@dataclass
class Response:
    ok: bool
    #: ``perf_counter`` when the request went out, and seconds until the
    #: response was parsed.
    started: float
    latency_s: float
    nbytes: int = 0
    document: dict | None = None

    @property
    def service_s(self) -> float:
        """What the daemon reports it spent serving (a v1 wire field)."""
        return self.document["service"]["seconds"]


def calibrate_serving(wall: float, service: float, speed: float) -> float:
    """Calibrated seconds of an interval of which ``service`` seconds
    were the daemon computing and the rest transport and waiting.
    Only the computing scales with machine speed: the rest is mostly a
    kernel timer (README, "Findings": every response waits ~40 ms on a
    delayed ACK)."""
    service = min(service, wall)
    return (wall - service) + service / speed


class Client:
    """One closed-loop client on a keep-alive connection."""

    def __init__(self, port: int, workload, timeout: float = HTTP_TIMEOUT,
                 workers: int | None = 1) -> None:
        self.port, self.timeout = port, timeout
        self.path = "/v1/predicate" if workload.predicate else "/v1/join"
        # ``workers: 1`` is the CLI's default and keeps 1-core and
        # N-core hosts on the same code path (README, "workers").
        body = {"r": "r_idx", "s": "s_idx", "grid_order": workload.grid_order}
        if workers is not None:
            body["workers"] = workers
        if workload.predicate:
            body["predicate"] = workload.predicate
        self.body = json.dumps(body).encode()
        self.conn: http.client.HTTPConnection | None = None

    def request(self) -> Response:
        """Request byte out to response parsed."""
        t0 = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout
                )
            self.conn.request(
                "POST", self.path, self.body, {"Content-Type": "application/json"}
            )
            reply = self.conn.getresponse()
            data = reply.read()
            document = json.loads(data)
            latency = time.perf_counter() - t0
            return Response(reply.status == 200, t0, latency, len(data), document)
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return Response(False, t0, time.perf_counter() - t0)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def checked_request(ops: Ops, client: Client, what: str) -> Response:
    response = client.request()
    ops.record(what, response.ok, digest_wire(response.document) if response.ok else None)
    return response


def closed_loop(ops: Ops, port: int, workload, clients: int, seconds: float,
                min_requests: int) -> tuple[list[Response], float, float]:
    """``clients`` closed-loop clients for ``seconds`` (and at least
    ``min_requests`` each); returns their responses, the wall time and
    the machine speed around the loop."""
    results: list[list[Response]] = [[] for _ in range(clients)]
    ledgers = [Ops(ops.expected_digest) for _ in range(clients)]

    def loop(k: int) -> None:
        client = Client(port, workload)
        try:
            while len(results[k]) < min_requests or time.perf_counter() - t0 < seconds:
                results[k].append(checked_request(ledgers[k], client, "daemon request"))
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(k,)) for k in range(clients)]
    with Bracket() as bracket:
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
    for ledger in ledgers:
        ops.merge(ledger)
    return [r for per_client in results for r in per_client], wall, bracket.speed


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Site:
    """One set-up: two indexes with persisted payloads and a warm daemon."""

    root: Path
    daemon: Daemon
    #: Calibrated seconds, spawn of the first command to the first 200.
    setup_s: float
    start_ready_s: float
    first_request_s: float

    @property
    def r_idx(self) -> Path:
        return self.root / "r_idx"

    @property
    def s_idx(self) -> Path:
        return self.root / "s_idx"

    def index_bytes(self) -> tuple[int, int, int]:
        """``(geometry dump, APRIL payloads, everything)`` in bytes, over
        both index directories."""
        geometry = payloads = total = 0
        for index in (self.r_idx, self.s_idx):
            for path in index.rglob("*"):
                if path.is_file():
                    size = path.stat().st_size
                    total += size
                    geometry += size if path.name == "geometries.wkt" else 0
                    payloads += size if path.suffix == ".npz" else 0
        return geometry, payloads, total


def set_up(ops: Ops, inputs, root: Path) -> Site:
    """Build both indexes, prime the pair (the first join persists the
    union-grid APRIL payloads), start the daemon and wait for its first
    ``200`` to the workload's own request. The sum of the calibrated
    times of those five steps."""
    root.mkdir(parents=True)
    log = root / "cli.log"
    workload = inputs.workload
    seconds = 0.0
    for wkt, index in ((inputs.r_path, "r_idx"), (inputs.s_path, "s_idx")):
        built = run_cli(
            ["build-index", str(wkt), "--index", str(root / index), "--no-approximate"],
            log,
        )
        ops.record(f"build-index {index}", built.ok)
        seconds += built.seconds
    seconds += cli_join(
        ops, "priming join", root / "r_idx", root / "s_idx", workload, log).seconds
    daemon, start_ready_s = calibrated(lambda: Daemon(root))
    client = Client(daemon.port, workload)
    _, first_request_s = calibrated(
        lambda: checked_request(ops, client, "first daemon request"))
    client.close()
    return Site(root, daemon, seconds + start_ready_s + first_request_s,
                start_ready_s, first_request_s)


# ----------------------------------------------------------------------
# the library journey
# ----------------------------------------------------------------------
class Library:
    """Warm in-process ``Engine.join`` over the built indexes."""

    def __init__(self, site: Site, workload) -> None:
        from repro import Engine, TopologicalRelation

        self.engine = Engine()
        self.args = (str(site.r_idx), str(site.s_idx))
        self.kwargs = {"grid_order": workload.grid_order}
        if workload.predicate:
            self.kwargs["predicate"] = TopologicalRelation(workload.predicate)

    def join(self, ops: Ops, what: str = "library join"):
        """Returns ``(run, wall seconds)``; the run is ``None`` when the
        join raised."""
        t0 = time.perf_counter()
        try:
            run = self.engine.join(*self.args, **self.kwargs)
        except Exception as exc:  # a failed operation, not a failed benchmark
            ops.record(f"{what}: {exc!r}", False)
            return None, float("nan")
        wall = time.perf_counter() - t0
        ops.record(what, True, digest_run(run))
        return run, wall


# ----------------------------------------------------------------------
# one workload at one seed, and the rounds both passes measure
# ----------------------------------------------------------------------
#: Seconds each round gives the library joins, the one-client and the
#: C-client request loops.
LIBRARY_SLICE = 0.3
SEQUENTIAL_SLICE = 0.5
CONCURRENT_SLICE = 0.5


@dataclass
class Samples:
    """What the rounds measured. Times are calibrated unless a response
    carries them: a response comes with the machine speed around it."""

    cold: list[CliResult] = field(default_factory=list)
    warm: list[CliResult] = field(default_factory=list)
    #: ``(seconds, whether the join ran inside a span)`` per library join.
    library: list[tuple[float, bool]] = field(default_factory=list)
    one_client: list[tuple[Response, float]] = field(default_factory=list)
    loaded: list[tuple[Response, float]] = field(default_factory=list)
    throughputs: list[float] = field(default_factory=list)
    #: The raw calibration loop, once per round.
    loops: list[float] = field(default_factory=list)


class Run:
    """One workload at one seed: inputs, set-ups, and the shared ledger.
    ``smoke`` shrinks the inputs to a quarter; ``corrupt`` starts the
    ledger with a wrong expected digest (the self-test)."""

    def __init__(self, workload, seed: int, smoke: bool, corrupt: bool = False) -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.scale = 0.25 if smoke else 1.0
        self.ops = Ops("0" * 64 if corrupt else None)
        self.clients = min(os.cpu_count() or 1, 4)
        self.work = OUT / f"work-{workload.index}-{seed % 10**8:08d}-{os.getpid():07d}"
        self.sites: list[Site] = []

    def __enter__(self) -> "Run":
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = make_inputs(self.workload, self.seed, self.scale, self.work)
        print(f"# {self.inputs.describe()}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for site in self.sites:
            site.daemon.stop()
        shutil.rmtree(self.work, ignore_errors=True)

    def set_up(self) -> Site:
        """A fresh set-up; the previous one's daemon is stopped first so
        only one is ever resident."""
        for site in self.sites:
            site.daemon.stop()
        site = set_up(self.ops, self.inputs, self.work / f"site{len(self.sites)}")
        self.sites.append(site)
        return site

    def rounds(self, site: Site, library: Library, seconds: float, recorder=None) -> Samples:
        """Interleaved rounds for ``seconds``: every round runs every
        journey once, so a burst of host noise lands on every metric
        alike rather than on one. With a ``recorder`` every other round
        runs under spans; what that costs is the tracing overhead."""
        ops, workload, log = self.ops, self.workload, self.work / "cli.log"
        samples = Samples()
        daemon_ok = True
        for count in round_numbers(seconds, 2 if self.smoke else 3):
            tracer = recorder if count % 2 == 0 else None
            span = tracer.span if tracer else (lambda name: nullcontext())
            with span("journey.cli_cold") as cold_span:
                cold = cli_join(ops, "cold CLI join", self.inputs.r_path,
                                self.inputs.s_path, workload, log)
            with span("journey.cli_warm") as warm_span:
                warm = cli_join(ops, "warm CLI join", site.r_idx, site.s_idx, workload, log)
            cold.span, warm.span = cold_span, warm_span
            samples.cold.append(cold)
            samples.warm.append(warm)
            with Bracket() as bracket:
                joins, t0 = [], time.perf_counter()
                while len(joins) < 3 or time.perf_counter() - t0 < LIBRARY_SLICE:
                    with span("journey.lib_join"):
                        joins.append(library.join(ops))
            samples.library += [(wall / bracket.speed, tracer is not None)
                                for joined, wall in joins if joined is not None]
            if daemon_ok:
                failed_before = ops.failed
                with span("journey.http_one_client"):
                    responses, _, speed = closed_loop(
                        ops, site.daemon.port, workload, 1, SEQUENTIAL_SLICE, 5)
                    if tracer:
                        span_requests(tracer, responses)
                samples.one_client += [(r, speed) for r in responses]
                with span("journey.http_loaded"):
                    responses, wall, speed = closed_loop(
                        ops, site.daemon.port, workload, self.clients, CONCURRENT_SLICE, 3)
                samples.loaded += [(r, speed) for r in responses]
                served = [r for r in responses if r.ok]
                if served:
                    samples.throughputs.append(len(served) / calibrate_serving(
                        wall, sum(r.service_s for r in served), speed))
                # A daemon that failed once is left alone: its timeouts
                # would otherwise eat the run.
                daemon_ok = ops.failed == failed_before
            samples.loops.append(machine_loop())
        return samples


def span_requests(recorder, responses: list[Response]) -> None:
    """A span per answered request; its children are the daemon's own
    timing fields on the wire."""
    for response in responses:
        if not response.ok:
            continue
        t0 = response.started
        request = recorder.add("http.request", t0, t0 + response.latency_s)
        service = response.document["service"]
        start = t0 + service["queued_seconds"]
        recorder.add("serve.queued", t0, start, parent=request)
        service_span = recorder.add(
            "serve.service", start, start + service["seconds"], parent=request)
        recorder.add("engine.join", start, start + response.document["wall_seconds"],
                     parent=service_span)
