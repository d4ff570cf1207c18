"""Per-layer tracing of `bernlab`, installed from outside the package.

`Tracer.install()` wraps every public function of each layer module, in every
`bernlab` namespace that binds it (`cocycles` and `criteria` import `mul`,
`f_value` and `support_elements` by name), and the public methods of the
classes those modules export. Each call records a span: name, parent span,
start and end. Generators record one span per resumption and count the items
they yield. Spans stay in memory until `flush()` (after each operation, or
when the buffer is full), which folds them into per-function totals; a span's
self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "groups", "marginals", "cocycles", "_kernels", "bump", "folner",
          "criteria", "typeclass", "exact")

# cli has no __all__: its commands are reported as cli.<command>
_CLI_FUNCS = ("main", "preset", "verify_bounds", "element_ratio_values",
              "classify_report", "cmd_spec", "cmd_cocycle", "cmd_criterion",
              "cmd_classify", "cmd_simulate", "cmd_verify", "cmd_build",
              "cmd_nonamenable")
_RENAMES = {"marginals.values": "marginals.seq_values"}
# spans buffered before a flush folds the closed ones (24 bytes each)
SPAN_CAP = 1 << 20


def _zseq_bytes(args, kwargs, result):
    # zseq_norm_head(a, k, J) reads a[:k] once, a[:J] and a[k:J+k]: float64
    return 8 * (args[1] + 2 * args[2])


def _segment_bytes(args, kwargs, result):
    # segment_square_sum(u, s, L) reads one 8-byte element of each per segment
    return 24 * len(args[0])


def _mc_coord_samples(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        b = sig.bind(*args, **kwargs)
        spec = b.arguments["spec"]
        return result["n_coordinates"] * b.arguments["samples"] * spec.multiplicity
    return count


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.items: list[int] = []
        self.extra: dict[str, float] = {}  # named counters, e.g. bytes_computed
        self.self_s = np.zeros(0)
        self.total_s = np.zeros(0)
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_t0 = array("d")
        self._span_t1 = array("d")
        self._stack = [-1]  # indices of the open spans, innermost last
        self._carry = np.zeros(0)  # child time already folded, per open span
        self._patches: list[tuple[object, str, object]] = []
        self.word_validations = 0
        self.useful_pairs = 0
        self.visited_points = 0

    # --- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.items.append(0)
        return nid

    def _open(self, nid: int) -> None:
        if len(self._span_name) >= SPAN_CAP:
            self.flush()
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1])
        self._span_t1.append(0.0)
        self._stack.append(len(self._span_name) - 1)
        self._span_t0.append(perf_counter())

    def _close(self) -> None:
        # spans nest strictly, so the span closing is the innermost open one
        self._span_t1[self._stack.pop()] = perf_counter()

    def span(self, name: str):
        """Context manager recording one span around harness code."""
        tracer, nid = self, self._id(name)

        class _Span:
            def __enter__(self):
                tracer.calls[nid] += 1
                tracer._open(nid)

            def __exit__(self, *exc):
                tracer._close()
        return _Span()

    def flush(self) -> int:
        """Fold the closed spans into per-function totals; returns their count.

        Open spans stay buffered, carrying the time their folded children
        covered, so a flush may happen at any point.
        """
        n, k = len(self._span_name), len(self.names)
        open_idx = np.array(self._stack[1:], dtype=np.int64)
        name = np.frombuffer(self._span_name, dtype=np.int32)
        parent = np.frombuffer(self._span_parent, dtype=np.int32)
        t0 = np.frombuffer(self._span_t0)
        dur = np.frombuffer(self._span_t1) - t0
        closed = np.ones(n, dtype=bool)
        closed[open_idx] = False
        child = closed & (parent >= 0)
        covered = np.bincount(parent[child], weights=dur[child], minlength=n).astype(float)
        covered[: len(self._carry)] += self._carry
        self_s = np.bincount(name[closed], weights=(dur - covered)[closed], minlength=k)
        total = np.bincount(name[closed], weights=dur[closed], minlength=k)
        self.self_s = np.pad(self.self_s, (0, k - len(self.self_s))) + self_s
        self.total_s = np.pad(self.total_s, (0, k - len(self.total_s))) + total
        kept = (name[open_idx].tolist(), t0[open_idx].tolist())
        self._carry = covered[open_idx]
        del name, parent, t0, dur
        for buf in (self._span_name, self._span_parent, self._span_t0, self._span_t1):
            del buf[:]
        for depth, (nid, start) in enumerate(zip(*kept)):
            self._span_name.append(nid)
            self._span_parent.append(depth - 1)
            self._span_t0.append(start)
            self._span_t1.append(0.0)
        self._stack = [-1, *range(len(open_idx))]
        return int(closed.sum())

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def resume(gen):
                try:
                    while True:
                        tracer._open(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close()
                        tracer.items[nid] += 1
                        yield item
                finally:
                    gen.close()

            def gen_wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                return resume(fn(*args, **kwargs))
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if count is not None:
                stat, fn_count = count
                n = fn_count(args, kwargs, result)
                if stat == "items":
                    tracer.items[nid] += n
                else:
                    tracer.extra[f"{name}.{stat}"] = tracer.extra.get(f"{name}.{stat}", 0) + n
            return result
        return wrapper

    def _wrap_affinity(self, wrapped, support_nid):
        tracer = self

        def affinity_wrapper(*args, **kwargs):
            before = tracer.items[support_nid]
            pairs, tail = wrapped(*args, **kwargs)
            tracer.visited_points += tracer.items[support_nid] - before
            tracer.useful_pairs += len(pairs)
            return pairs, tail
        return affinity_wrapper

    def _wrap_validation(self, fn):
        tracer = self

        def post_init(obj):
            tracer.word_validations += 1
            return fn(obj)
        return post_init

    def install(self) -> None:
        """Patch every layer; `uninstall()` restores the originals."""
        import bernlab

        modules = {m: importlib.import_module(f"bernlab.{m}") for m in LAYERS}
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        counts = {
            "kernels.zseq_norm_head": ("bytes_computed", _zseq_bytes),
            "kernels.segment_square_sum": ("bytes_computed", _segment_bytes),
            "marginals.seq_values": ("items", lambda args, kwargs, result: len(result)),
            "criteria.mc_omega": ("coord_samples",
                                  _mc_coord_samples(modules["criteria"].mc_omega)),
        }
        for short, mod in modules.items():
            layer = short.lstrip("_")  # metric names start with a letter
            names = _CLI_FUNCS if short == "cli" else mod.__all__
            for attr in names:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    # an alias (zseq_norm_head_numpy) keeps the first name
                    if id(obj) not in wrapped:
                        name = f"{layer}.{attr.removeprefix('cmd_')}"
                        wrapped[id(obj)] = (obj, self._wrap(name, obj, counts.get(name)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(raw):
                            continue
                        name = _RENAMES.get(f"{layer}.{meth}", f"{layer}.{meth}")
                        wrapper = self._wrap(name, raw, counts.get(name))
                        self._patches.append((obj, meth, raw))
                        setattr(obj, meth, wrapper)

        aff, aff_wrapper = wrapped[id(modules["cocycles"].affinity_pairs)]
        wrapped[id(aff)] = (aff, self._wrap_affinity(
            aff_wrapper, self._ids["cocycles.support_elements"]))

        for ns in [bernlab, *modules.values()]:
            for attr, value in list(vars(ns).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

        word = modules["groups"].Word
        self._patches.append((word, "__post_init__", word.__post_init__))
        word.__post_init__ = self._wrap_validation(word.__post_init__)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    # --- report --------------------------------------------------------------

    def table(self) -> dict:
        """Per-function calls, items, self and total seconds, by name."""
        self.flush()
        out = {}
        for nid, name in enumerate(self.names):
            if self.calls[nid] == 0:
                continue
            out[name] = {"calls": self.calls[nid], "items": self.items[nid],
                         "self_s": float(self.self_s[nid]),
                         "total_s": float(self.total_s[nid])}
        return out
