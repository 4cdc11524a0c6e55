"""Outside-in tracing of pairing381 by wrapping public functions.

Each wrapped call records a span: name, start, end, parent span, request id,
and the m1_equivalent counter delta of the engine it ran on, read at the same
boundary. Spans stay in memory; the benchmark reduces them when it ends.

Wrappers replace every module attribute in the package that holds the
function, not only the defining one. Callers that imported a name (protocol
and encoding import the subgroup checks, the package re-exports almost
everything) would otherwise keep calling the bare function.
"""

import sys
import time
from contextlib import contextmanager


def _raw(c):
    return (c.c0.val, c.c1.val) if hasattr(c, "c0") else c.val


def point_key(p) -> tuple:
    """Raw projective coordinates; equal keys mean the same point.

    Reads stored values only, so it adds no counted work. Two projective
    forms of one point get different keys, which can only overstate the
    number of distinct points.
    """
    return (_raw(p.x), _raw(p.y), _raw(p.z))


# (defining module, function, engine of the call, extra info for the span)
TARGETS = (
    ("pairing381.hashing", "hash_to_g1", lambda a: a[0], None),
    ("pairing381.pairing", "multi_miller_loop", lambda a: a[0][0][0].engine,
     lambda a: len(a[0])),
    ("pairing381.pairing", "final_exp", lambda a: a[0].engine, None),
    ("pairing381.curve", "g1_subgroup_check", lambda a: a[0].engine,
     lambda a: point_key(a[0])),
    ("pairing381.curve", "g2_subgroup_check", lambda a: a[0].engine,
     lambda a: point_key(a[0])),
    ("pairing381.encoding", "g1_from_bytes", lambda a: a[0], None),
    ("pairing381.encoding", "g2_from_bytes", lambda a: a[0], None),
    ("pairing381.protocol", "verify", lambda a: a[0].point.engine, None),
    ("pairing381.protocol", "aggregate_verify", lambda a: a[0][0].point.engine,
     None),
    ("pairing381.protocol", "sign", lambda a: a[0], None),
    ("pairing381.protocol", "keygen", lambda a: a[0], None),
    ("pairing381.curve", "ecsm", lambda a: a[1].engine,
     lambda a: type(a[1]).__name__),
    ("pairing381.curve", "g2_ecsm_split", lambda a: a[1].engine, None),
)


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "m1eq",
                 "engine", "info")

    def __init__(self, name, parent, request, engine, info=None):
        self.name = name
        self.parent = parent
        self.request = request
        self.engine = engine
        self.info = info
        self.start = self.end = 0.0
        self.m1eq = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = None
        self._sites = []
        for modname, fname, engine_of, info_of in TARGETS:
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(fname, orig, engine_of, info_of)
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith("pairing381"):
                    continue
                for attr, value in vars(mod).items():
                    if value is orig:
                        self._sites.append((mod, attr, orig, wrapper))

    def open(self, name: str, engine, info=None) -> Span:
        """Push a span; the caller sets start, end and m1eq and calls close."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.request, engine, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self) -> None:
        self._stack.pop()

    def _wrap(self, name, fn, engine_of, info_of):
        def traced(*args, **kwargs):
            engine = engine_of(args)
            counter = engine.counter
            span = self.open(name, engine, info_of(args) if info_of else None)
            m0 = counter.m1_equivalent()
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                span.m1eq = counter.m1_equivalent() - m0
                self.close()
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Route every call to a target through its wrapper, then restore."""
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig, _ in self._sites:
                setattr(mod, attr, orig)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Calls are sequential, so children never overlap and their durations
        add up to the time they cover.
        """
        out = [s.duration for s in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def problems(self) -> list[str]:
        """Consistency violations; an empty list means the trace is sound.

        Child counter deltas on the parent's engine must sum to no more than
        the parent's, and no self time may be negative.
        """
        found = []
        selfs = self.self_times()
        for i, kids in self.children().items():
            parent = self.spans[i]
            same = [self.spans[k].m1eq for k in kids
                    if self.spans[k].engine is parent.engine]
            if sum(same) > parent.m1eq:
                found.append(f"span {i} {parent.name}: children m1eq "
                             f"{sum(same)} > own {parent.m1eq}")
        for i, t in enumerate(selfs):
            if t < 0:
                found.append(f"span {i} {self.spans[i].name}: self time {t:.6f} s")
        return found
