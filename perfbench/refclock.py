"""A clock that runs at the speed of a fixed reference kernel.

The benchmark's host is a shared 2-vCPU VM whose speed wanders: the same
instructions run up to 1.7 times slower or faster for stretches of seconds
to minutes, with CPU time tracking wall time (no steal, no waiting; the
hardware itself runs slower). A wall-clock timing of a 17 s operation
therefore moves by as much as the host does, and no amount of repetition
inside a 10 s run averages that away.

`RefClock` measures the host's current speed instead of assuming it. Every
`INTERVAL_S` of wall time a SIGALRM handler runs a fixed kernel and times
it. Between two probes the clock advances at

    wall seconds x nominal kernel time / (median of the last PROBE_WINDOW probes)

so it reads wall time when the host runs the kernel at its nominal speed,
and runs slower than the wall when the host does. Probe time itself is left
out. A change to qdc's code moves its timings on this clock exactly as on
the wall; a change in the host's speed moves the kernel too and cancels.

The host does not slow all work alike: interpreted Python and numpy's sorts
speed up and slow down by different factors at the same moment. So there
are two kernels, and the benchmark probes with the one shaped like the work
it is timing (`RefClock.use`):

- "python": regex tokenizing, FNV-1a hashing in Python, dict counts and a
  small matrix-vector product; the shape of tokenizing, training, index
  builds and `qdc bench`.
- "search": a 20,000 x 64 matrix-vector product and a lexsort of the
  scores with string ids breaking ties; the shape of `search_topk`.

Signal handlers run in the main thread between bytecodes, so a probe waits
for a long numpy call to return; qdc runs single-threaded here, so a probe
always pauses the work it measures.
"""
from __future__ import annotations

import functools
import gc
import re
import signal
import statistics
import time

import numpy as np

# wall seconds between probes; a probe costs about 4% of the run
INTERVAL_S = 0.2
# probes whose median sets the current speed: one slow probe (a page
# fault, a garbage collection) does not move the clock
PROBE_WINDOW = 3

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_rng = np.random.default_rng(20250531)
_TEXTS = tuple(
    " ".join(f"Term{int(a)}-w{int(b)}" for a, b in _rng.integers(0, 5000, size=(30, 2)))
    for _ in range(40)
)
_ROWS = _rng.standard_normal((4096, 64))
_QUERY = _rng.standard_normal(64)


def python_kernel() -> int:
    """Tokenize-and-hash in Python, then a few small score-and-sorts."""
    counts: dict[int, int] = {}
    for text in _TEXTS:
        for tok in _TOKEN_RE.findall(text.lower()):
            h = 0xCBF29CE484222325
            for byte in tok.encode("utf-8"):
                h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            counts[h % 65536] = counts.get(h % 65536, 0) + 1
    for _ in range(6):
        np.argsort(-(_ROWS @ _QUERY), kind="stable")
    return len(counts)


@functools.lru_cache(maxsize=1)
def _search_data():
    # built on first use, so that runs which never probe with it do not
    # carry its 10 MB
    rng = np.random.default_rng(20250601)
    n = 20000
    # doc ids in corpus order, formatted as datagen makes them
    ids = np.asarray([f"t1-d{i:04d}" for i in range(n)])
    return rng.standard_normal((n, 64)), ids, rng.standard_normal(64)


def search_kernel() -> int:
    """One exact top-k scan as `search_topk` does it, over 20,000 rows."""
    rows, ids, query = _search_data()
    scores = rows @ query
    return int(np.lexsort((ids, -scores))[0])


# name: (kernel, its time at the host's usual speed on a 2-vCPU Intel Xeon
# VM with one BLAS thread); the clock reads wall time when the kernel takes
# this long
KERNELS = {
    "python": (python_kernel, 0.0075),
    "search": (search_kernel, 0.004),
}


class RefClock:
    """Reference seconds since `origin` (a `time.perf_counter()` reading).

    `start()` takes the first probe and arms the timer; the stretch from
    `origin` to the first probe is scaled by that probe's speed. `use()`
    switches the kernel, with a probe right away. `stop()` disarms the timer
    and restores the previous SIGALRM handler. `now()` is monotonic and may
    be called from anywhere, including between a probe's updates.
    """

    def __init__(self, origin: float, kernel: str = "python") -> None:
        self.origin = origin
        self.kernel = kernel
        # (reference seconds at segment start, wall start, scale), replaced
        # as one tuple so that now() can tell a probe ran while it read
        self._state = (0.0, origin, None)
        self._window: list[float] = []
        self.probes: dict[str, list[float]] = {name: [] for name in KERNELS}
        self.probe_s = 0.0
        self._previous = None
        self._running = False
        self._probing = False

    def _probe(self, warm_up: bool = False) -> None:
        fn, nominal = KERNELS[self.kernel]
        # no garbage collection inside a probe: the objects it makes are all
        # freed when it returns, so qdc's collections (and with them its peak
        # RSS) fall where they would without probes
        self._probing = True
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        if warm_up:  # a kernel's first call is slower (and builds its data)
            fn()
        t_run = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.probes[self.kernel].append(t1 - t_run)
        self.probe_s += t1 - t0
        self._window = (self._window + [t1 - t_run])[-PROBE_WINDOW:]
        scale = nominal / statistics.median(self._window)
        ref, seg_start, before = self._state
        # the stretch before the first probe runs at that probe's speed
        ref += (t0 - seg_start) * (scale if before is None else before)
        self._state = (ref, t1, scale)
        self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        if self._running and not self._probing:
            self._probe()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._probe(warm_up=True)
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def use(self, kernel: str) -> None:
        """Probe with `kernel` from now on; the work being timed changed shape."""
        if kernel == self.kernel:
            return
        self._probing = True  # an alarm now would probe with a half-set kernel
        self.kernel = kernel
        self._window = []
        self._probe(warm_up=True)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> float:
        while True:
            state = self._state
            t = time.perf_counter()
            if state is self._state:
                ref, seg_start, scale = state
                return ref + (t - seg_start) * (scale or 1.0)

    def summary(self) -> dict:
        """Per kernel: probe count, median and range; time spent probing."""
        out = {"probe_s": self.probe_s}
        for name, probes in self.probes.items():
            if probes:
                out[name] = {
                    "probes": len(probes),
                    "ms_median": 1000.0 * statistics.median(probes),
                    "ms_min": 1000.0 * min(probes),
                    "ms_max": 1000.0 * max(probes),
                    "ms_nominal": 1000.0 * KERNELS[name][1],
                }
        return out
