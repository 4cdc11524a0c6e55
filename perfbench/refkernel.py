"""Reference kernel: a fixed pure-Python workload timed beside every request.

The host this benchmark runs on changes speed by tens of percent over a few
seconds, and CPU time drifts with it. Dividing a request's wall time by the
time of this kernel, measured right before the request, gives a ratio (the
"ref" unit) that the drift largely cancels out of.

The kernel mirrors what the engine spends its time on: 381-bit modular
multiplication of plain integers held in small slotted objects, operator
dispatch through a context object that bumps a counter by attribute name,
and churn of small tuples. Plain multiplication in a bare loop tracked the
engine's slowdowns less well (see README.md). It must never import
pairing381, so that no change to the engine can change the unit.
"""

import signal
import statistics
import time

# The BLS12-381 base-field prime and a fixed 381-bit multiplier.
P = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
X = 0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB
ROUNDS = 450                       # about 1 ms on a 2-core x86 VM
INTERVAL = 0.01                    # seconds between kernel runs in a region


class _Counter:
    __slots__ = ("mul", "add")

    def __init__(self):
        self.mul = 0
        self.add = 0


class _Ctx:
    def __init__(self):
        self.counter = _Counter()

    def bump(self, name: str) -> None:
        setattr(self.counter, name, getattr(self.counter, name) + 1)

    def mul(self, x, y):
        self.bump("mul")
        return _El(self, x.val * y.val % P)

    def add(self, x, y):
        self.bump("add")
        v = x.val + y.val
        return _El(self, v - P if v >= P else v)


class _El:
    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    def __mul__(self, other):
        return self.ctx.mul(self, other)

    def __add__(self, other):
        return self.ctx.add(self, other)


def run(rounds: int = ROUNDS) -> tuple[int, tuple[int, int], _Counter]:
    """acc <- acc*X + acc, `rounds` times from acc = 1, plus a tuple chain."""
    ctx = _Ctx()
    acc, x = _El(ctx, 1), _El(ctx, X)
    box = (0, 0)
    for _ in range(rounds):
        acc = acc * x + acc
        box = (box[1], acc.val & 0xFFFF)
    return acc.val, box, ctx.counter


# acc*X + acc = acc*(X+1), so the result has a closed form.
EXPECTED = pow(X + 1, ROUNDS, P)


def timed() -> float:
    """Seconds taken by one kernel run; raises if its result is wrong.

    Checking the result keeps the work observable, so no interpreter or
    future rewrite can skip it.
    """
    t0 = time.perf_counter()
    acc, box, counter = run()
    elapsed = time.perf_counter() - t0
    if (acc != EXPECTED or box[1] != acc & 0xFFFF
            or counter.mul != ROUNDS or counter.add != ROUNDS):
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


class Meter:
    """Times regions in ref units, running the kernel before and inside them.

    Host speed swings within a second, so a kernel run at each end of a
    2-second request estimates the speed during it poorly. While a region
    runs, a SIGALRM INTERVAL seconds after the previous kernel run ends runs
    the kernel between two bytecodes of the region; the mean of those runs,
    which are spaced evenly in time, is the region's unit. The timer is
    one-shot and re-armed only once a run has ended, so a kernel run never
    nests in another, however long the host stalls one. Kernel time inside a
    region is taken out of the region's time: `now()` is a clock that stops
    while the kernel runs, and spans timed with it exclude the kernel too.
    """

    def __init__(self):
        self.kernels: list[float] = []      # every kernel time, for the record
        self._inside: list[float] = []
        self._paused = 0.0
        self._sampling = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        # a signal already pending when stop() disarmed the timer lands here
        # after the region; it must neither sample nor re-arm
        if not self._sampling:
            return
        t0 = time.perf_counter()
        self._inside.append(timed())
        self._paused += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def start(self) -> float:
        """Run the leading kernel, start sampling, return the start time."""
        self._inside = [timed()]
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        return self.now()

    def stop(self, start: float) -> tuple[float, float]:
        """Stop sampling; return (seconds without kernel time, ref units)."""
        self._sampling = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = self.now() - start
        self.kernels.extend(self._inside)
        return seconds, seconds / statistics.fmean(self._inside)
