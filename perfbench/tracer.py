"""In-memory spans recorded around calls into the scma_ntn layers.

The tracer patches module and class attributes that the pipeline calls
through, so no file of the package changes.  Each span records its name,
start, end and parent.  The parent comes from a per-thread stack; a span
opened on a worker thread with an empty stack takes the innermost span open
on the main thread, which is the call that submitted the work.  Spans stay in
memory until the run ends.
"""

import contextlib
import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = Counter()
        self._stacks = {}
        self._lock = threading.Lock()
        self._patched = []

    def _open(self, name):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = stack[-1] if stack else None
        if parent is None and threading.current_thread() is not threading.main_thread():
            main = self._stacks.get(threading.main_thread().ident) or [None]
            parent = main[-1]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name):
        """Context manager recording one span."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced call; count(counters, args, result) tallies work."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counters, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def unwrap(self):
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def durations(self, name):
        """Durations in seconds of every closed span called exactly name."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_times(self):
        """Per span: its duration minus the part of it its child spans cover."""
        children = defaultdict(list)
        for idx, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]].append(idx)
        out = []
        for idx, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[idx]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def layer_self_s(self, layer):
        """Summed self time of every span whose name starts with 'layer.'."""
        times = self.self_times()
        return sum(t for s, t in zip(self.spans, times) if s[0].startswith(layer + "."))
