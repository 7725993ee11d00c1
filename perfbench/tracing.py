"""Spans around calls into transgerm's public functions, installed from outside.

The tracer replaces functions where their callers look them up: module
attributes (``germ.mono_cmp``, since the library calls ``G.<name>`` and
germ's own functions read their module globals) and class attributes
(``SupportUniverse.contains``, ``GenSeries.coeff``, ``MemoStream.get``).
``uninstall`` puts every original back.

Each call becomes a span (name, start, end, parent).  Self time is a span's
duration minus the time its child spans cover; it is summed online, so the
totals cover every call.  The raw spans are kept in memory up to
MAX_SPANS and written out when the run ends.
"""

from __future__ import annotations

import json
import time
import weakref
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (module name, attribute, span name); scale.make_scale is also bound by
# name inside series, so both lookups are wrapped.
MODULE_SPANS = (
    ("germ", "mono_cmp", "germ.mono_cmp"),
    ("germ", "g_mul", "germ.g_mul"),
    ("germ", "derivative", "germ.derivative"),
    ("germ", "compose_exact", "germ.compose_exact"),
    ("scale", "make_scale", "scale.make_scale"),
    ("series", "make_scale", "scale.make_scale"),
    ("series", "invert", "series.invert"),
    ("series", "compose_right", "series.compose_right"),
    ("series", "sum_numeric", "series.sum_numeric"),
)

MAX_SPANS = 200_000  # raw spans kept in memory; later ones count as dropped

# self-time keys reported per layer, in the order printed
SELF_MS = ("germ.mono_cmp", "germ.g_mul", "germ.derivative",
           "germ.compose_exact", "scale.make_scale", "support.contains",
           "support.box_points", "gps.coeff", "series.stream",
           "series.invert", "series.compose_right", "series.sum_numeric",
           "query")


class Tracer:
    def __init__(self, tg):
        self.tg = tg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list] = []  # [name id, start, child time, span index]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._seen = weakref.WeakKeyDictionary()  # GenSeries -> asked points
        self._pulled = weakref.WeakKeyDictionary()  # MemoStream -> next index
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, nid: int) -> list:
        t0 = time.perf_counter()
        idx = len(self.span_start)
        if idx < MAX_SPANS:
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_start.append(t0)
            self.span_end.append(t0)
        else:
            idx = -1
            self.dropped += 1
        frame = [nid, t0, 0.0, idx]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        # unwinding after an exception can leave frames above this one
        while self._stack and self._stack.pop() is not frame:
            pass
        nid, t0, child, idx = frame
        dur = t1 - t0
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        if idx >= 0:
            self.span_end[idx] = t1
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        tg = self.tg
        for mod, attr, name in MODULE_SPANS:
            owner = getattr(tg, mod)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        self._install_mono_cmp_counts()

        su = tg.support.SupportUniverse
        self._patch(su, "contains", self._wrap(su.contains, "support.contains"))
        box = self._wrap(su.box_points, "support.box_points")
        counts = self.counts

        def box_points(uni, bound):
            pts = box(uni, bound)
            counts["support.box_points.points"] += len(pts)
            return pts

        self._patch(su, "box_points", box_points)
        lex = su.lex_stream

        def lex_stream(uni):
            for v in lex(uni):
                counts["support.lex_stream.points"] += 1
                yield v

        self._patch(su, "lex_stream", lex_stream)

        gs = tg.gps.GenSeries
        coeff = self._wrap(gs.coeff, "gps.coeff")
        seen = self._seen

        def gps_coeff(series, alpha):
            asked = seen.get(series)
            if asked is None:
                asked = seen[series] = set()
            key = tuple(alpha)
            if key in asked:
                counts["gps.coeff.repeats"] += 1
            else:
                asked.add(key)
            return coeff(series, alpha)

        self._patch(gs, "coeff", gps_coeff)

        ms = tg.support.MemoStream
        get = self._wrap(ms.get, "series.stream")
        pulled = self._pulled

        def stream_get(stream, i):
            item = get(stream, i)
            if item is not None and i >= pulled.get(stream, 0):
                counts["series.points_pulled"] += i + 1 - pulled.get(stream, 0)
                pulled[stream] = i + 1
                if item[1]:
                    counts["series.nonzero_terms"] += 1
            return item

        self._patch(ms, "get", stream_get)

    def _install_mono_cmp_counts(self) -> None:
        germ = self.tg.germ
        cmp_ = germ.mono_cmp  # already the span wrapper
        cache = getattr(germ, "_cmp_cache", None)
        counts = self.counts

        def mono_cmp(a, b):
            if cache is None or (a.expart is None and b.expart is None) \
                    or a == b:
                return cmp_(a, b)
            before = len(cache)
            res = cmp_(a, b)
            counts["germ.cmp_cache.lookups"] += 1
            if len(cache) == before:
                counts["germ.cmp_cache.hits"] += 1
            return res

        setattr(germ, "mono_cmp", mono_cmp)  # original saved by _patch above

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def originals_restored(self, snapshot: dict) -> bool:
        return all(getattr(owner, attr) is orig
                   for (owner, attr), orig in snapshot.items())

    def snapshot(self) -> dict:
        """Current objects at every patch point, to check restoration."""
        tg = self.tg
        out = {}
        for mod, attr, _ in MODULE_SPANS:
            owner = getattr(tg, mod)
            out[(owner, attr)] = owner.__dict__[attr]
        su, gs, ms = (tg.support.SupportUniverse, tg.gps.GenSeries,
                      tg.support.MemoStream)
        for owner, attr in ((su, "contains"), (su, "box_points"),
                            (su, "lex_stream"), (gs, "coeff"), (ms, "get")):
            out[(owner, attr)] = owner.__dict__[attr]
        return out

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        def calls(name):
            return self.calls[self._ids[name]] if name in self._ids else 0

        def self_ms(name):
            return (self.self_s[self._ids[name]] * 1e3
                    if name in self._ids else 0.0)

        c = self.counts
        cache = getattr(self.tg.germ, "_cmp_cache", None)
        pulled = c["series.points_pulled"]
        coeff_calls = calls("gps.coeff")
        lookups = c["germ.cmp_cache.lookups"]
        out = {
            "germ.mono_cmp.calls": calls("germ.mono_cmp"),
            "germ.cmp_cache.hit_ratio":
                c["germ.cmp_cache.hits"] / lookups if lookups else 0.0,
            "germ.cmp_cache.entries": len(cache) if cache is not None else 0,
            "germ.g_mul.calls": calls("germ.g_mul"),
            "support.contains.calls": calls("support.contains"),
            "support.lex_stream.points": c["support.lex_stream.points"],
            "support.box_points.calls": calls("support.box_points"),
            "support.box_points.points": c["support.box_points.points"],
            "gps.coeff.calls": coeff_calls,
            "gps.coeff.repeat_ratio":
                c["gps.coeff.repeats"] / coeff_calls if coeff_calls else 0.0,
            "series.stream.calls": calls("series.stream"),
            "series.points_pulled": pulled,
            "series.nonzero_terms": c["series.nonzero_terms"],
            "series.useful_ratio":
                c["series.nonzero_terms"] / pulled if pulled else 0.0,
        }
        for name in SELF_MS:
            out[f"{name}.self_ms"] = self_ms(name)
        out["trace.spans"] = len(self.span_start)
        out["trace.spans_dropped"] = self.dropped
        return out

    def write_spans(self, path: Path) -> None:
        """Header line of JSON, then the name, parent, start and end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.span_start),
                  "dropped": self.dropped,
                  "arrays": [["name", "H"], ["parent", "i"], ["start", "d"],
                             ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def self_times_from_spans(names, parents, starts, ends) -> dict:
    """Self time per span name from raw spans: each span's duration minus
    its children's; the reference for the online totals above."""
    child = defaultdict(float)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict = defaultdict(float)
    for i in range(len(starts)):
        out[names[i]] += ends[i] - starts[i] - child[i]
    return dict(out)
