"""Continuous stack-sampling profiler: where the interpreter spends time.

The span tracer (:mod:`repro.obs.tracing`) and the per-query profiler
(:mod:`repro.obs.profiler`) answer *what the estimate path did* — they
see only instrumented spans, and only for traced queries.  This module
answers the complementary question for ROADMAP item 2 ("make the hot
path as fast as Python allows"): **which frames** is the whole process
actually burning CPU in, continuously, across every thread — HTTP
handlers (which also run served estimates), the simulator, the main
thread — with no instrumentation at the sampled sites at all.

How it works:

* a daemon thread (``repro-prof-sampler``) wakes at a configurable rate
  (:data:`DEFAULT_HZ` by default; env :data:`PROF_ENV_VAR` or
  :func:`start_sampling`) and walks ``sys._current_frames()``;
* every observed thread is tagged with a **role** from its name
  (:func:`role_for_thread`: http / main / simulator / profiler /
  other) and its stack is **folded** root-first into a
  ``[role];module.func;module.func`` key — the classic collapsed-stack
  form flamegraph tooling consumes;
* folded samples accumulate into the open :class:`ProfileWindow` — a
  fixed-boundary time slice like the telemetry plane's windows — whose
  distinct-stack map is **bounded** (:data:`DEFAULT_MAX_STACKS`;
  overflow collapses deterministically into :data:`OVERFLOW_KEY`);
* when the clock crosses a window boundary the window is closed into a
  bounded ring and journaled as one schema-versioned ``profile`` event;
  :func:`profiles_from_events` rebuilds the exact same windows in a
  fresh process (the payload round-trips JSON bit-identically);
* per-frame **self/total sample counts** (:meth:`ProfileWindow.
  frame_stats`) and merged folded stacks feed the flamegraph renderer
  (:mod:`repro.obs.flamegraph`), ``repro flamegraph``, the
  ``/profile``/``/profile.html`` endpoints, and incident bundles.

Sampling is observational only: it never touches the estimate path, so
estimates stay bit-identical with the profiler running (asserted by the
serve stress tests).  When off, the cost is zero — no thread, no state.
The fold pipeline itself is deterministic: feeding a fixed sample log
through :meth:`StackSampler.record_sample` produces byte-identical
windows, journal lines, and flamegraph HTML across processes.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.journal import JournalEvent, ReadResult, get_journal, read_journal
from repro.obs.metrics import counter, gauge

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "PROF_ENV_VAR",
    "PROF_WINDOW_ENV_VAR",
    "DEFAULT_HZ",
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_RETENTION",
    "DEFAULT_MAX_STACKS",
    "MAX_STACK_DEPTH",
    "OVERFLOW_KEY",
    "TRUNCATED_FRAME",
    "ProfileWindow",
    "StackSampler",
    "fold_stack",
    "role_for_thread",
    "register_thread_role",
    "profiles_from_events",
    "merge_stacks",
    "get_stack_sampler",
    "set_stack_sampler",
    "start_sampling",
    "stop_sampling",
    "maybe_start_sampling",
]

#: Bump on breaking ``profile`` payload changes; readers skip newer ones.
PROFILE_SCHEMA_VERSION = 1

#: Sampling rate: unset/empty/0 = off; a number = hz; a bare truthy
#: value ("1"/"true"/"on"/"yes") = :data:`DEFAULT_HZ`.
PROF_ENV_VAR = "REPRO_OBS_PROF"

#: Profile-window width override, seconds.
PROF_WINDOW_ENV_VAR = "REPRO_OBS_PROF_WINDOW"

#: Default sampling rate.  Prime-ish, like perf's 99 Hz, so the sampler
#: cannot phase-lock with periodic work (a 10 ms poll loop sampled at
#: exactly 100 Hz would always land on the same frame).
DEFAULT_HZ = 97.0

#: Default profile-window width (matches the telemetry plane's windows).
DEFAULT_WINDOW_SECONDS = 60.0

#: Closed windows kept in the in-memory ring.
DEFAULT_RETENTION = 16

#: Distinct folded stacks per window; the long tail beyond the bound
#: collapses into :data:`OVERFLOW_KEY` (bounded memory and bounded
#: journal payloads under pathological stack diversity).
DEFAULT_MAX_STACKS = 512

#: Frames kept per stack, leaf-most first; deeper stacks get a
#: :data:`TRUNCATED_FRAME` marker at the root.
MAX_STACK_DEPTH = 64

#: Reserved folded-stack key the overflow tail collapses into.
OVERFLOW_KEY = "[overflow]"

#: Reserved root frame marking a depth-truncated stack.
TRUNCATED_FRAME = "[deep]"

#: The sampler's own thread name (excluded from its samples).
SAMPLER_THREAD_NAME = "repro-prof-sampler"


# ----------------------------------------------------------------------
# Thread roles
# ----------------------------------------------------------------------
#: Thread-name prefix -> role, checked in order.  Extendable through
#: :func:`register_thread_role` (the traffic simulator and embedders tag
#: their own threads this way).
_DEFAULT_ROLES: Tuple[Tuple[str, str], ...] = (
    ("repro-obs-server", "http"),
    ("repro-sim", "simulator"),
    (SAMPLER_THREAD_NAME, "profiler"),
    ("MainThread", "main"),
)

_role_lock = threading.Lock()
_extra_roles: List[Tuple[str, str]] = []


def register_thread_role(prefix: str, role: str) -> None:
    """Tag threads whose name starts with ``prefix`` as ``role``.

    Registered prefixes take precedence over the built-in table;
    re-registering a prefix replaces its role.
    """
    if not prefix or not role:
        raise ValueError("prefix and role must be non-empty")
    with _role_lock:
        _extra_roles[:] = [(p, r) for p, r in _extra_roles if p != prefix]
        _extra_roles.append((prefix, role))


def role_for_thread(name: str) -> str:
    """The sampling role of a thread, from its name.

    ``repro-obs-server:*`` and the stdlib's per-request
    ``process_request_thread`` threads are the HTTP front ("http"; served
    estimates run on them),
    ``MainThread`` is "main", ``repro-sim*`` the traffic simulator;
    anything else is "other".
    """
    with _role_lock:
        extra = tuple(_extra_roles)
    for prefix, role in extra:
        if name.startswith(prefix):
            return role
    for prefix, role in _DEFAULT_ROLES:
        if name.startswith(prefix):
            return role
    if "process_request_thread" in name:
        return "http"
    return "other"


# ----------------------------------------------------------------------
# Folding
# ----------------------------------------------------------------------
def fold_stack(role: str, frames: Sequence[str]) -> str:
    """The collapsed-stack key of one sample: role root, then frames
    root-first, ``;``-joined (the form flamegraph tooling consumes)."""
    return ";".join([f"[{role}]", *frames]) if frames else f"[{role}]"


@dataclass(frozen=True)
class ProfileWindow:
    """One closed profiling window: bounded folded-stack aggregates.

    Attributes:
        index: Fixed window index (``floor(now / width)``).
        start: Window start, ``index * width`` clock seconds.
        end: Window end, ``(index + 1) * width`` clock seconds.
        samples: Thread stacks folded into the window.
        roles: Samples per thread role.
        stacks: Folded stack -> sample count (bounded; the tail beyond
            the per-window bound lives under :data:`OVERFLOW_KEY`).
        truncated: Samples that landed in the overflow bucket.
    """

    index: int
    start: float
    end: float
    samples: int = 0
    roles: Dict[str, int] = field(default_factory=dict)
    stacks: Dict[str, int] = field(default_factory=dict)
    truncated: int = 0

    def frame_stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-frame ``(self, total)`` sample counts, sorted by frame.

        ``self`` counts samples where the frame was the leaf (on-CPU);
        ``total`` counts samples where it appeared anywhere on the
        stack (each frame at most once per sample, so recursion cannot
        inflate totals past the window's sample count).
        """
        stats: Dict[str, List[int]] = {}
        for folded, count in self.stacks.items():
            frames = folded.split(";")
            for frame in set(frames):
                stats.setdefault(frame, [0, 0])[1] += count
            stats.setdefault(frames[-1], [0, 0])[0] += count
        return {
            frame: (int(self_n), int(total_n))
            for frame, (self_n, total_n) in sorted(stats.items())
        }

    def to_payload(self) -> Dict[str, object]:
        """The ``profile`` journal-event payload (JSON round-trip exact:
        integer counts and float boundaries only)."""
        return {
            "profile_v": PROFILE_SCHEMA_VERSION,
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "samples": self.samples,
            "roles": dict(self.roles),
            "stacks": dict(self.stacks),
            "truncated": self.truncated,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ProfileWindow":
        roles = payload.get("roles", {})
        stacks = payload.get("stacks", {})
        return cls(
            index=int(payload.get("index", 0)),
            start=float(payload.get("start", 0.0)),
            end=float(payload.get("end", 0.0)),
            samples=int(payload.get("samples", 0)),
            roles={
                str(k): int(v)
                for k, v in (roles if isinstance(roles, dict) else {}).items()
            },
            stacks={
                str(k): int(v)
                for k, v in (stacks if isinstance(stacks, dict) else {}).items()
            },
            truncated=int(payload.get("truncated", 0)),
        )


class _OpenProfile:
    """The window currently accumulating samples (summarized on close)."""

    __slots__ = ("index", "samples", "roles", "stacks", "truncated")

    def __init__(self, index: int) -> None:
        self.index = index
        self.samples = 0
        self.roles: Dict[str, int] = {}
        self.stacks: Dict[str, int] = {}
        self.truncated = 0

    def add(self, role: str, folded: str, max_stacks: int) -> None:
        self.samples += 1
        self.roles[role] = self.roles.get(role, 0) + 1
        stacks = self.stacks
        count = stacks.get(folded)
        if count is not None:
            stacks[folded] = count + 1
        elif len(stacks) < max_stacks:
            stacks[folded] = 1
        else:
            # Bounded and deterministic: once the per-window budget of
            # distinct stacks is spent, the long tail collapses into one
            # reserved bucket (which stack lands there depends only on
            # arrival order — a pure function of the sample log).
            stacks[OVERFLOW_KEY] = stacks.get(OVERFLOW_KEY, 0) + 1
            self.truncated += 1

    def summarize(self, width: float) -> ProfileWindow:
        return ProfileWindow(
            index=self.index,
            start=self.index * width,
            end=(self.index + 1) * width,
            samples=self.samples,
            roles=dict(self.roles),
            stacks=dict(self.stacks),
            truncated=self.truncated,
        )


def _env_hz(raw: str) -> float:
    """Parse :data:`PROF_ENV_VAR`: off (0.0), a rate, or the default."""
    raw = raw.strip().lower()
    if not raw or raw in ("0", "off", "false", "no", "none"):
        return 0.0
    if raw in ("1", "true", "yes", "on"):
        return DEFAULT_HZ
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_HZ
    return value if value > 0 else 0.0


class StackSampler:
    """The sampling profiler: a daemon thread over ``sys._current_frames``.

    Args:
        hz: Sampling rate; defaults to :data:`PROF_ENV_VAR`, then
            :data:`DEFAULT_HZ`.
        window_seconds: Profile-window width; defaults to
            :data:`PROF_WINDOW_ENV_VAR`, then
            :data:`DEFAULT_WINDOW_SECONDS`.
        retention: Closed windows kept in the in-memory ring.
        max_stacks: Distinct folded stacks per window before overflow.
        clock: Zero-argument "now" callable (monotonic by default; a
            manual clock where determinism matters).
        journal: ``None`` late-binds the process-wide journal on every
            window close; pass an explicit journal (or
            :data:`~repro.obs.journal.NOOP_JOURNAL`) to pin.
    """

    def __init__(
        self,
        hz: Optional[float] = None,
        window_seconds: Optional[float] = None,
        retention: int = DEFAULT_RETENTION,
        max_stacks: int = DEFAULT_MAX_STACKS,
        clock: Callable[[], float] = time.monotonic,
        journal=None,
    ) -> None:
        resolved_hz = (
            float(hz)
            if hz is not None
            else _env_hz(os.environ.get(PROF_ENV_VAR, "")) or DEFAULT_HZ
        )
        if resolved_hz <= 0:
            raise ValueError("sampling hz must be positive")
        raw_width = os.environ.get(PROF_WINDOW_ENV_VAR, "").strip()
        if window_seconds is not None:
            resolved_width = float(window_seconds)
        else:
            try:
                resolved_width = float(raw_width) if raw_width else 0.0
            except ValueError:
                resolved_width = 0.0
            if resolved_width <= 0:
                resolved_width = DEFAULT_WINDOW_SECONDS
        if resolved_width <= 0:
            raise ValueError("window_seconds must be positive")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        if max_stacks < 1:
            raise ValueError("max_stacks must be >= 1")
        self.hz = resolved_hz
        self.interval = 1.0 / resolved_hz
        self.width = resolved_width
        self.retention = retention
        self.max_stacks = max_stacks
        self._clock = clock
        self._journal = journal
        self._lock = threading.Lock()
        self._windows: "deque[ProfileWindow]" = deque(maxlen=retention)
        self._current: Optional[_OpenProfile] = None
        self._closed_count = 0
        self._sampled = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Frame-name cache keyed by code object — naming a frame costs
        #: two attribute reads after the first sighting, not a format.
        self._frame_names: Dict[object, str] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackSampler":
        """Spawn the sampling daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=SAMPLER_THREAD_NAME, daemon=True
        )
        self._thread.start()
        gauge(
            "obs.sampling.hz", help="stack-sampling rate (0 when off)"
        ).set(self.hz)
        return self

    def stop(self, timeout: float = 2.0) -> None:
        """Stop the daemon and flush the open window into the ring."""
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=timeout)
        self.flush()
        gauge(
            "obs.sampling.hz", help="stack-sampling rate (0 when off)"
        ).set(0.0)

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        interval = self.interval
        overruns = counter(
            "obs.sampling.overruns",
            help="sampling passes that outran their interval",
        )
        while not self._stop.wait(interval):
            started = time.perf_counter()
            self.sample_once()
            if time.perf_counter() - started > interval:
                overruns.inc()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_once(self, now: Optional[float] = None) -> int:
        """Walk every live thread's stack once; returns stacks folded.

        Public so benchmarks can price one pass and tests can drive the
        sampler without the daemon thread.
        """
        now = self._clock() if now is None else now
        frames_by_ident = sys._current_frames()
        own = threading.get_ident()
        names = {
            thread.ident: thread.name for thread in threading.enumerate()
        }
        sampled = 0
        for ident, frame in frames_by_ident.items():
            if ident == own:
                continue
            role = role_for_thread(names.get(ident, ""))
            self.record_sample(now, role, self._walk(frame))
            sampled += 1
        if sampled:
            counter(
                "obs.sampling.samples", help="thread stacks sampled"
            ).inc(sampled)
        return sampled

    def record_sample(
        self, now: float, role: str, frames: Sequence[str]
    ) -> None:
        """Fold one ``(now, role, frames)`` sample into the open window.

        This is the deterministic entry: the live daemon calls it with
        walked stacks, and tests/CI replay fixed sample logs through it
        — identical logs produce byte-identical windows.
        """
        folded = fold_stack(role, frames)
        index = int(now // self.width)
        closed: Optional[ProfileWindow] = None
        with self._lock:
            current = self._current
            if current is not None and index > current.index:
                closed = self._close_locked(current)
                current = None
            if current is None:
                current = self._current = _OpenProfile(index)
            current.add(role, folded, self.max_stacks)
            self._sampled += 1
        if closed is not None:
            self._journal_window(closed)

    def _walk(self, frame) -> List[str]:
        """Frame names of one stack, root-first, depth-bounded."""
        names = self._frame_names
        out: List[str] = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            code = frame.f_code
            name = names.get(code)
            if name is None:
                module = frame.f_globals.get("__name__", "?")
                qualname = getattr(code, "co_qualname", code.co_name)
                name = f"{module}.{qualname}"
                if len(names) > 4096:
                    names.clear()
                names[code] = name
            out.append(name)
            frame = frame.f_back
            depth += 1
        if frame is not None:
            out.append(TRUNCATED_FRAME)
        out.reverse()
        return out

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def flush(self) -> Optional[ProfileWindow]:
        """Close the open window (if it holds samples) into the ring."""
        with self._lock:
            current = self._current
            if current is None or current.samples == 0:
                self._current = None
                return None
            closed = self._close_locked(current)
        self._journal_window(closed)
        return closed

    def _close_locked(self, window: _OpenProfile) -> ProfileWindow:
        summary = window.summarize(self.width)
        self._windows.append(summary)
        self._closed_count += 1
        self._current = None
        return summary

    def _journal_window(self, summary: ProfileWindow) -> None:
        counter(
            "obs.sampling.windows", help="profile windows closed"
        ).inc()
        journal = self._journal if self._journal is not None else get_journal()
        if journal.enabled:
            journal.append("profile", **summary.to_payload())

    def windows(self) -> Tuple[ProfileWindow, ...]:
        """Closed windows, oldest first (bounded by ``retention``)."""
        with self._lock:
            return tuple(self._windows)

    def last_window(self) -> Optional[ProfileWindow]:
        """The newest closed window, or the open one frozen in place."""
        with self._lock:
            current = self._current
            if current is not None and current.samples:
                return current.summarize(self.width)
            return self._windows[-1] if self._windows else None

    @property
    def sampled(self) -> int:
        """Thread stacks folded over the sampler's lifetime."""
        with self._lock:
            return self._sampled

    @property
    def closed_count(self) -> int:
        with self._lock:
            return self._closed_count

    def merged_stacks(self, include_open: bool = True) -> Dict[str, int]:
        """Folded stacks summed across the ring (and the open window)."""
        with self._lock:
            windows: List[ProfileWindow] = list(self._windows)
            current = self._current
            if include_open and current is not None and current.samples:
                windows.append(current.summarize(self.width))
        return merge_stacks(windows)

    def snapshot(self) -> Dict[str, object]:
        """The JSON shape served by ``/profile``."""
        with self._lock:
            windows = [summary.to_payload() for summary in self._windows]
            current = self._current
            if current is not None and current.samples:
                windows.append(current.summarize(self.width).to_payload())
            closed = self._closed_count
            sampled = self._sampled
        return {
            "v": PROFILE_SCHEMA_VERSION,
            "hz": self.hz,
            "width": self.width,
            "running": self.running,
            "sampled": sampled,
            "closed": closed,
            "windows": windows,
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"StackSampler(hz={self.hz:g}, width={self.width:g}, "
            f"sampled={self.sampled}, {state})"
        )


# ----------------------------------------------------------------------
# Offline reconstruction and merging
# ----------------------------------------------------------------------
def profiles_from_events(
    source: Union[str, os.PathLike, ReadResult, Iterable[JournalEvent]],
) -> Tuple[ProfileWindow, ...]:
    """Rebuild profile windows from ``profile`` journal events.

    Bit-identical to the live sampler's windows for the same run: every
    payload field is an int or a JSON-exact float.  Events with a newer
    ``profile_v`` or a malformed payload are skipped — forward
    compatibility mirrors :func:`repro.obs.journal.replay`.
    """
    if isinstance(source, (str, os.PathLike)):
        source = read_journal(source)
    events: Iterable[JournalEvent]
    events = source.events if isinstance(source, ReadResult) else source
    windows: List[ProfileWindow] = []
    for event in events:
        if event.type != "profile":
            continue
        payload = event.payload
        try:
            if int(payload.get("profile_v", 0)) > PROFILE_SCHEMA_VERSION:
                continue
            windows.append(ProfileWindow.from_payload(payload))
        except (TypeError, ValueError):
            continue
    return tuple(windows)


def merge_stacks(windows: Iterable[ProfileWindow]) -> Dict[str, int]:
    """Folded stacks summed across windows, sorted by stack key."""
    merged: Dict[str, int] = {}
    for window in windows:
        for folded, count in window.stacks.items():
            merged[folded] = merged.get(folded, 0) + count
    return dict(sorted(merged.items()))


# ----------------------------------------------------------------------
# Process-wide default sampler
# ----------------------------------------------------------------------
_default_sampler: Optional[StackSampler] = None
_default_lock = threading.Lock()


def get_stack_sampler() -> Optional[StackSampler]:
    """The process-wide sampler, or ``None`` when profiling is off."""
    return _default_sampler


def set_stack_sampler(
    sampler: Optional[StackSampler],
) -> Optional[StackSampler]:
    """Swap the default sampler; returns the previous one (not stopped)."""
    global _default_sampler
    with _default_lock:
        previous = _default_sampler
        _default_sampler = sampler
    return previous


def start_sampling(
    hz: Optional[float] = None,
    window_seconds: Optional[float] = None,
    **kwargs,
) -> StackSampler:
    """Build, start, and install the process-wide sampler.

    An already-installed sampler is returned untouched (idempotent in
    effect — two subsystems may both ask for profiling).
    """
    with _default_lock:
        existing = _default_sampler
    if existing is not None:
        return existing
    sampler = StackSampler(hz=hz, window_seconds=window_seconds, **kwargs)
    sampler.start()
    set_stack_sampler(sampler)
    return sampler


def stop_sampling(timeout: float = 2.0) -> Optional[StackSampler]:
    """Stop and uninstall the process-wide sampler; returns it."""
    previous = set_stack_sampler(None)
    if previous is not None:
        previous.stop(timeout=timeout)
    return previous


def maybe_start_sampling() -> Optional[StackSampler]:
    """Start the process-wide sampler iff :data:`PROF_ENV_VAR` asks.

    Returns the sampler only when *this call* started it — the caller
    owns its shutdown (:class:`~repro.serve.EstimationService` starts
    one per the environment and stops it in ``stop()``).  Off, or already
    installed by someone else: ``None``, zero further cost.
    """
    hz = _env_hz(os.environ.get(PROF_ENV_VAR, ""))
    if hz <= 0:
        return None
    with _default_lock:
        if _default_sampler is not None:
            return None
    sampler = StackSampler(hz=hz)
    sampler.start()
    set_stack_sampler(sampler)
    return sampler
