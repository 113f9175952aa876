"""Span recorder for the traced run.

Wraps public kipa callables from outside the package: each wrapped call
becomes a span (name, start, end, parent, request id, thread, thread CPU
time).  Spans stay in memory and are written out when the run ends.  A
target that no longer exists is reported as absent, never as an error.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

PACKAGE = "kipa"

# (module, attribute path, note): the note turns the return value into a
# number kept on the span, so ratios are counted where the work happens.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("cli", "build_parser", None),
    ("cli", "emit_results", None),
    ("simulator", "ReflectionEngine.__init__", None),
    ("simulator", "ReflectionEngine.s11", None),
    ("simulator", "ReflectionEngine.gain_db", None),
    ("simulator", "gain_spectrum", None),
    ("simulator", "bandwidth_report", lambda rep: int(rep.qualified)),
    ("simulator", "pump_bias_map", None),
    ("search", "search_designs", None),
    ("circuits", "idler_admittance", None),
    ("circuits", "port_line_abcd", None),
    ("circuits", "environment_impedance", None),
    ("netcore", "input_impedance", None),
    ("pump", "ModulatedInductor.from_alpha", None),
    ("material", "fit_ki_curve", None),
    ("material", "parse_shift_csv", None),
    ("material", "kinetic_inductance", None),
    ("noise", "fit_qubit_saturation", None),
    ("noise", "power_to_quanta", None),
    ("noise", "added_noise", None),
    ("noise", "system_noise_temperature", None),
    ("synthesis", "synthesize_transformer", None),
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    thread: int
    cpu: float            # thread CPU seconds spent inside the span
    note: Optional[float]  # value derived from the result, see TARGETS

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs span wrappers on kipa and records every wrapped call."""

    def __init__(self):
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.request: Optional[int] = None
        self._ids = itertools.count()
        self._client = threading.get_ident()
        self._client_stack: List[int] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, note, fn, args, kwargs):
        stack = self._stack()
        # a worker thread's outermost span belongs to the client span that
        # is waiting for it (the client is blocked inside that call)
        if stack:
            parent = stack[-1]
        else:
            parent = self._client_stack[-1] if self._client_stack else None
        sid = next(self._ids)
        stack.append(sid)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            value = note(result) if note is not None and result is not None else None
            self.spans.append(Span(sid, name, start, end, parent, self.request,
                                   threading.get_ident(), cpu, value))

    def _wrap(self, name: str, fn, note):
        rec = self
        if inspect.isgeneratorfunction(fn):
            # one span per resumption; the note marks resumptions that yielded
            def step(it):
                try:
                    return True, next(it)
                except StopIteration:
                    return False, None

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    more, item = rec._call(name, lambda r: int(r[0]), step, (it,), {})
                    if not more:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec._call(name, note, fn, args, kwargs)
        return wrapper

    # -------------------------------------------------------------- install

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the others in ``absent``."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, path, note in targets:
            name = f"{mod_name}.{path}"
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if owner_path:
                # method on a class: classmethods keep their descriptor
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, note))
                else:
                    wrapped = self._wrap(name, raw, note)
                self._replace(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw, note)
            # functions are also bound by name in the modules that import them
            for mod in modules:
                if mod.__dict__.get(attr) is raw:
                    self._replace(mod, attr, raw, wrapped)

    def _replace(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def write(self, path: Path):
        """Spans as tab-separated lines in the order they ended; times in ns
        from the first span's start, threads numbered from 0."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads: Dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid\tname\tstart_ns\tend_ns\tparent\trequest\tthread\tcpu_ns\tnote\n")
            for s in self.spans:
                thread = threads.setdefault(s.thread, len(threads))
                fh.write(f"{s.sid}\t{s.name}\t{round((s.start - origin) * 1e9)}\t"
                         f"{round((s.end - origin) * 1e9)}\t{'' if s.parent is None else s.parent}\t"
                         f"{'' if s.request is None else s.request}\t{thread}\t"
                         f"{round(s.cpu * 1e9)}\t{'' if s.note is None else s.note}\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.sid] = s.duration - covered
    return out


@dataclass
class NameStats:
    calls: int = 0
    seconds: float = 0.0
    cpu: float = 0.0
    self_seconds: float = 0.0
    notes: float = 0.0


def stats_by_name(spans: List[Span]) -> Dict[str, NameStats]:
    own = self_times(spans)
    out: Dict[str, NameStats] = defaultdict(NameStats)
    for s in spans:
        st = out[s.name]
        st.calls += 1
        st.seconds += s.duration
        st.cpu += s.cpu
        st.self_seconds += own[s.sid]
        if s.note is not None:
            st.notes += s.note
    return dict(out)
