"""Deterministic, seeded failpoint injection.

Chaos testing is only useful when a failure schedule can be replayed:
"worker 2 died while verifying partition 5" must mean the same thing on
every machine and every run. A *failpoint* is a named site in the code
(``worker.crash``, ``store.torn_write``, ...) that production code
evaluates on the hot path for ~a dict lookup when nothing is armed, and
that tests arm with a *trigger* deciding deterministically whether the
site fires on a given hit.

Trigger grammar (also accepted by the ``REPRO_FAILPOINTS`` environment
variable, e.g. ``REPRO_FAILPOINTS="worker.crash=times:1,io.bad_row=prob:0.25"``)::

    off          never fire (same as not armed)
    always       fire on every hit
    nth:K        fire on exactly the K-th hit (1-based)
    times:K      fire on the first K hits
    prob:P       fire with probability P per hit, derived from a seeded
                 hash of (seed, site, key, hit) — fully deterministic

Hits are counted per ``(site, key)`` in-process by default; callers on
retry paths pass an explicit ``hit`` number (the attempt) instead, so a
trigger like ``times:1`` means "the first attempt of every task fails,
every retry succeeds" regardless of which worker process runs it.

Worker-process sites (``worker.crash``, ``worker.hang``) only ever take
effect in a *child* of the process that armed them: arming records the
arming pid, and :func:`maybe_fail_worker` is a no-op when running in
that pid. A misarmed failpoint can therefore never kill the parent —
in particular the supervised pool's in-parent serial fallback is immune
by construction.

Everything here is stdlib-only and fork-friendly: armed sites travel
into pool workers by copy-on-write inheritance.
"""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import time
from dataclasses import dataclass, field

log = logging.getLogger("repro.resilience")

#: The failpoint catalogue. Arming any other name raises, so a typo in
#: a test or an env variable fails loudly instead of silently never
#: firing.
KNOWN_SITES = (
    "worker.crash",  # SIGKILL the current worker process at task start
    "worker.hang",   # sleep past any reasonable deadline at task start
    "store.torn_write",  # write a truncated payload, as a crash mid-persist would
    "store.crash_mid_save",  # SIGKILL between an index's two geometry files
    "io.bad_row",    # treat an input row as malformed during dataset load
    "serve.worker_crash",  # SIGKILL the serving engine worker mid-request
    "serve.worker_hang",   # serving worker sleeps past the request deadline
    "serve.slow_response",  # serving worker delays its reply (stays within deadline)
)

#: Default sleep for ``worker.hang`` — far past any test deadline; the
#: supervisor kills the sleeper at its deadline.
DEFAULT_HANG_SECONDS = 3600.0

#: Default delay for ``serve.slow_response`` — long enough to be visible
#: in a latency measurement, short enough to stay inside any sane
#: request deadline. (All other sites default to
#: :data:`DEFAULT_HANG_SECONDS`.)
DEFAULT_SLOW_SECONDS = 0.75

ENV_VAR = "REPRO_FAILPOINTS"
ENV_SEED_VAR = "REPRO_FAILPOINTS_SEED"


class FailpointError(ValueError):
    """An invalid failpoint site or trigger specification."""


@dataclass
class FailpointSpec:
    """One armed site: how (and when) it fires."""

    site: str
    mode: str = "always"  # off | always | nth | times | prob
    arg: float = 0.0      # K for nth/times, P for prob
    seed: int = 0
    hang_seconds: float = DEFAULT_HANG_SECONDS
    #: Process-local hit counters, keyed by the caller-supplied key.
    hits: dict = field(default_factory=dict)

    def evaluate(self, key, hit: int) -> bool:
        if self.mode == "off":
            return False
        if self.mode == "always":
            return True
        if self.mode == "nth":
            return hit == int(self.arg)
        if self.mode == "times":
            return hit <= int(self.arg)
        if self.mode == "prob":
            return _uniform(self.seed, self.site, key, hit) < self.arg
        raise FailpointError(f"unknown trigger mode {self.mode!r}")


def _uniform(seed: int, site: str, key, hit: int) -> float:
    """A deterministic uniform draw in [0, 1) for one evaluation."""
    token = f"{seed}|{site}|{key!r}|{hit}".encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def parse_trigger(text: str) -> tuple[str, float]:
    """Parse one trigger spec (``always``, ``nth:3``, ``prob:0.5``...)."""
    text = text.strip()
    if text in ("off", "always"):
        return text, 0.0
    mode, sep, arg = text.partition(":")
    if not sep or mode not in ("nth", "times", "prob"):
        raise FailpointError(
            f"invalid failpoint trigger {text!r}; expected off, always, "
            "nth:K, times:K or prob:P"
        )
    try:
        value = float(arg)
    except ValueError:
        raise FailpointError(f"invalid trigger argument in {text!r}") from None
    if mode in ("nth", "times") and (value < 1 or value != int(value)):
        raise FailpointError(f"{mode} trigger needs a positive integer, got {arg!r}")
    if mode == "prob" and not (0.0 <= value <= 1.0):
        raise FailpointError(f"prob trigger needs P in [0, 1], got {arg!r}")
    return mode, value


# ----------------------------------------------------------------------
# the armed-site registry
# ----------------------------------------------------------------------
_SITES: dict[str, FailpointSpec] = {}
#: Pid of the process that armed the registry: worker-process effects
#: (crash/hang) fire only in descendants, never here.
_ARM_PID: int | None = None
_ENV_LOADED = False


def arm(
    site: str,
    trigger: str = "always",
    *,
    seed: int | None = None,
    hang_seconds: float | None = None,
) -> FailpointSpec:
    """Arm ``site`` with ``trigger``; returns the installed spec.

    ``hang_seconds`` defaults per site: ``serve.slow_response`` sleeps
    :data:`DEFAULT_SLOW_SECONDS` (a delay, not a hang), every other
    sleeping site :data:`DEFAULT_HANG_SECONDS` — so an env-armed slow
    response does not stall for an hour.
    """
    global _ARM_PID
    if site not in KNOWN_SITES:
        raise FailpointError(
            f"unknown failpoint site {site!r}; known sites: {list(KNOWN_SITES)}"
        )
    mode, arg = parse_trigger(trigger)
    if seed is None:
        seed = int(os.environ.get(ENV_SEED_VAR, "0") or "0")
    if hang_seconds is None:
        hang_seconds = (
            DEFAULT_SLOW_SECONDS
            if site == "serve.slow_response"
            else DEFAULT_HANG_SECONDS
        )
    spec = FailpointSpec(
        site=site, mode=mode, arg=arg, seed=seed, hang_seconds=hang_seconds
    )
    _SITES[site] = spec
    _ARM_PID = os.getpid()
    return spec


def disarm(site: str) -> None:
    _SITES.pop(site, None)


def disarm_all() -> None:
    _SITES.clear()


def armed(site: str) -> bool:
    _ensure_env_loaded()
    return site in _SITES and _SITES[site].mode != "off"


def load_env_spec(spec: str | None = None) -> list[str]:
    """Arm sites from a ``REPRO_FAILPOINTS``-style string.

    ``spec`` defaults to the environment variable; entries are
    comma- or semicolon-separated ``site=trigger`` pairs. Returns the
    sites armed.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR, "")
    sites = []
    for entry in spec.replace(";", ",").split(","):
        entry = entry.strip()
        if not entry:
            continue
        site, sep, trigger = entry.partition("=")
        if not sep:
            raise FailpointError(f"invalid {ENV_VAR} entry {entry!r}; use site=trigger")
        arm(site.strip(), trigger)
        sites.append(site.strip())
    return sites


def _ensure_env_loaded() -> None:
    global _ENV_LOADED
    if _ENV_LOADED:
        return
    _ENV_LOADED = True
    if os.environ.get(ENV_VAR):
        load_env_spec()


class inject:
    """Context manager arming a set of sites for one test block::

        with inject({"worker.crash": "times:1"}, seed=7):
            ...

    On exit the whole registry (and its hit counters) is restored to
    the pre-injection state.
    """

    def __init__(
        self,
        sites: dict[str, str],
        *,
        seed: int | None = None,
        hang_seconds: float | None = None,
    ) -> None:
        self._requested = sites
        self._seed = seed
        self._hang_seconds = hang_seconds
        self._saved: dict[str, FailpointSpec] = {}
        self._saved_pid: int | None = None

    def __enter__(self) -> "inject":
        self._saved = dict(_SITES)
        self._saved_pid = _ARM_PID
        for site, trigger in self._requested.items():
            arm(site, trigger, seed=self._seed, hang_seconds=self._hang_seconds)
        return self

    def __exit__(self, *exc) -> None:
        global _ARM_PID
        _SITES.clear()
        _SITES.update(self._saved)
        _ARM_PID = self._saved_pid


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def should_fire(site: str, key=None, hit: int | None = None) -> bool:
    """Whether ``site`` fires on this hit.

    With ``hit=None`` the per-``(site, key)`` in-process counter is
    incremented and used; retry-aware callers pass ``hit=attempt`` so
    the decision depends on the task's attempt number, not on which
    process happens to evaluate it.
    """
    _ensure_env_loaded()
    spec = _SITES.get(site)
    if spec is None or spec.mode == "off":
        return False
    if hit is None:
        hit = spec.hits.get(key, 0) + 1
        spec.hits[key] = hit
    fired = spec.evaluate(key, hit)
    if fired:
        _observe_fired(site)
        log.warning("failpoint %s fired (key=%r hit=%d)", site, key, hit)
    return fired


def _observe_fired(site: str) -> None:
    from repro.obs.metrics import get_registry, metrics_enabled

    if metrics_enabled():
        get_registry().inc("repro_resilience_failpoint_fired_total", site=site)


def maybe_fail_worker(key, attempt: int) -> None:
    """Evaluate the worker-process sites at a task boundary.

    ``worker.hang`` is checked before ``worker.crash`` so a schedule
    arming both can exercise both paths. Neither takes effect in the
    arming process itself (the supervisor's serial fallback runs there).
    """
    _ensure_env_loaded()
    if not _SITES or os.getpid() == _ARM_PID:
        return
    if should_fire("worker.hang", key=key, hit=attempt):
        spec = _SITES["worker.hang"]
        time.sleep(spec.hang_seconds)
    if should_fire("worker.crash", key=key, hit=attempt):
        # A real crash: no cleanup, no exception propagation, the
        # process is gone mid-task exactly like an OOM kill.
        os.kill(os.getpid(), signal.SIGKILL)


def maybe_crash(site: str, key=None) -> None:
    """Die here when ``site`` fires — SIGKILL, as a power cut or an OOM
    kill would: no cleanup, nothing after this line runs. For sites on
    a write path (``store.crash_mid_save``), where the point is what
    the *next* process finds on disk; arm it in a process you can
    afford to lose (a CLI child via ``REPRO_FAILPOINTS``)."""
    if should_fire(site, key=key):
        os.kill(os.getpid(), signal.SIGKILL)


def maybe_fail_serve(key, hit: int) -> None:
    """Evaluate the serving-worker sites at a request boundary.

    The pool dispatcher stamps each request with a daemon-global
    sequence number and passes it as ``hit``, so a trigger like
    ``times:2`` means "the first two *requests* fail" — deterministic
    across respawns, which reset a worker's in-process hit counters.

    Same parent guard as :func:`maybe_fail_worker`: the arming process
    (the daemon) is immune by construction; only forked engine workers
    crash or hang.
    """
    _ensure_env_loaded()
    if not _SITES or os.getpid() == _ARM_PID:
        return
    if should_fire("serve.worker_hang", key=key, hit=hit):
        time.sleep(_SITES["serve.worker_hang"].hang_seconds)
    if should_fire("serve.worker_crash", key=key, hit=hit):
        os.kill(os.getpid(), signal.SIGKILL)


def serve_response_delay(key, hit: int) -> float:
    """Seconds the ``serve.slow_response`` site asks the worker to delay
    its reply on this request (0.0 when the site does not fire). Parent
    processes never delay — same guard as the other serve sites."""
    _ensure_env_loaded()
    if not _SITES or os.getpid() == _ARM_PID:
        return 0.0
    if should_fire("serve.slow_response", key=key, hit=hit):
        return _SITES["serve.slow_response"].hang_seconds
    return 0.0


__all__ = [
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_SLOW_SECONDS",
    "ENV_SEED_VAR",
    "ENV_VAR",
    "FailpointError",
    "FailpointSpec",
    "KNOWN_SITES",
    "arm",
    "armed",
    "disarm",
    "disarm_all",
    "inject",
    "load_env_spec",
    "maybe_crash",
    "maybe_fail_serve",
    "maybe_fail_worker",
    "parse_trigger",
    "serve_response_delay",
    "should_fire",
]
