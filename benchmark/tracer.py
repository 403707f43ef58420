"""Outside-in tracer: wraps dtmask's public functions from the outside.

`Tracer.install()` replaces each listed function, wherever a dtmask
module looks it up (its defining module and every module that imported
it by name), with a wrapper that records a span while an item is open.
`uninstall()` puts every original back.  Nothing under `src/` changes,
and a run that never calls `install()` runs the program untouched.

Spans carry name, start, end, parent span and item id.  Hot leaf calls
(`mask_iou`, `BoxProposal.canvas_mask`) are aggregated into per-item
counters instead of one span each.  Counters computed from arguments
and return values (bytes, pixels, painted bits) are taken after the
span closes.  The wrappers' own work is kept out of every self time and
out of the item wall used for coverage; `trace.overhead` reports it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time

perf = time.perf_counter


class TracerError(RuntimeError):
    """A listed function is missing, so the trace would be incomplete."""


def _path_bytes(path) -> int:
    return os.path.getsize(path)


def _read_counters(args, result):
    return {"bytes_read": _path_bytes(args["path"]), "files_read": 1}


def _write_counters(args, result):
    return {"bytes_written": _path_bytes(args["path"]), "files_written": 1}


def _stack_pixels(stack) -> int:
    return int(stack.planes.shape[1] * stack.planes.shape[2])


def _painted_bits(stack) -> int:
    # Bin 1 has radius 0 and paints nothing; every other set bit is a disk.
    return int(stack.planes[1:].sum())


def _hard_decode_counters(args, result):
    stack = args["stack"]
    return {"pixels": _stack_pixels(stack), "painted_bits": _painted_bits(stack)}


def _soft_decode_counters(args, result):
    return {"pixels": _stack_pixels(args["stack"])}


def _edt_counters(args, result):
    pixels = args["mask"].pixels
    key = hashlib.sha1(pixels.tobytes()).hexdigest() + f":{pixels.shape}:{args['radius_cap']}"
    return {"pixels": int(pixels.size), "key": key}


def _canvas_counters(args, result):
    return {"painted_bits": _painted_bits(args["stack"])}


def _sweep_counters(args, result):
    return {"perturbations": len(args["perturbations"])}


def _evaluate_counters(args, result):
    return {"cells": len(args["proposals"]) * len(args["gts"])}


def _nms_name(args) -> str:
    return "metrics.nms.mask" if args.get("use_masks") else "metrics.nms.box"


# (module, attribute path, span name, counter function).  Span names
# are "<layer>.<function>"; the layer is the dtmask module.
SPANS = [
    ("dtmask.cli", "main", "cli.main", None),
    ("dtmask.io", "read_mask", "io.read_mask", _read_counters),
    ("dtmask.io", "write_mask", "io.write_mask", _write_counters),
    ("dtmask.io", "read_bps", "io.read_bps", _read_counters),
    ("dtmask.io", "write_bps", "io.write_bps", _write_counters),
    ("dtmask.io", "read_label_map", "io.read_label_map", _read_counters),
    ("dtmask.io", "read_proposals", "io.read_proposals", _read_counters),
    ("dtmask.io", "write_csv", "io.write_csv", _write_counters),
    ("dtmask.grid", "extract_instance", "grid.extract_instance", None),
    ("dtmask.edt", "truncated_edt", "edt.truncated_edt", _edt_counters),
    ("dtmask.edt", "interior_mask", "edt.interior_mask", None),
    ("dtmask.edt", "edt_with_external_boundary", "edt.edt_with_external_boundary", None),
    ("dtmask.codec", "encode", "codec.encode", None),
    ("dtmask.codec", "hard_decode", "codec.hard_decode", _hard_decode_counters),
    ("dtmask.codec", "soft_decode", "codec.soft_decode", _soft_decode_counters),
    ("dtmask.codec", "corrupt", "codec.corrupt", None),
    ("dtmask.boxsim", "robustness_sweep", "boxsim.robustness_sweep", _sweep_counters),
    ("dtmask.boxsim", "encode_window", "boxsim.encode_window", None),
    ("dtmask.boxsim", "decode_to_canvas", "boxsim.decode_to_canvas", _canvas_counters),
    ("dtmask.metrics", "evaluate", "metrics.evaluate", _evaluate_counters),
    ("dtmask.metrics", "nms", _nms_name, None),
]

# Hot leaves: per-item call counts and seconds, no span per call.
LEAVES = [
    ("dtmask.metrics", "mask_iou", "metrics.mask_iou"),
    ("dtmask.grid", "BoxProposal.canvas_mask", "grid.canvas_mask"),
]


def _lookup(module_name: str, attr_path: str):
    """(owner, attribute name, original) of a listed function, or raise."""
    module = sys.modules.get(module_name)
    if module is None:
        raise TracerError(f"{module_name} is not imported; cannot trace {attr_path}")
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"{module_name}.{attr_path} no longer exists")
    fn = getattr(owner, parts[-1], None)
    if not callable(fn):
        raise TracerError(f"{module_name}.{attr_path} no longer exists")
    return owner, parts[-1], fn


class Span:
    __slots__ = ("id", "parent", "item", "name", "start", "end", "child", "counters")

    def __init__(self, sid, parent, item, name):
        self.id = sid
        self.parent = parent
        self.item = item
        self.name = name
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by child spans, leaves and counter work
        self.counters = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Item:
    __slots__ = ("id", "start", "end", "excluded", "leaves")

    def __init__(self, iid):
        self.id = iid
        self.start = self.end = 0.0
        self.excluded = 0.0  # counter work done inside the item, not program time
        self.leaves = {}  # leaf name -> [calls, seconds, zero results]


class Tracer:
    """Collects spans in memory; `install`/`uninstall` patch dtmask."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix  # makes span ids unique across processes
        self.spans: list[Span] = []
        self.items: list[Item] = []
        self._stack: list[Span] = []
        self._item: Item | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise TracerError("tracer already installed")
        wrappers = []
        for module_name, attr_path, name, counters in SPANS:
            owner, attr, fn = _lookup(module_name, attr_path)
            wrappers.append((owner, attr, fn, self._span_wrapper(fn, name, counters)))
        for module_name, attr_path, name in LEAVES:
            owner, attr, fn = _lookup(module_name, attr_path)
            wrappers.append((owner, attr, fn, self._leaf_wrapper(fn, name)))
        modules = [m for n, m in sys.modules.items() if n == "dtmask" or n.startswith("dtmask.")]
        for owner, attr, fn, wrapper in wrappers:
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
                continue
            # Patch every module namespace that holds this very function.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def assert_untouched() -> None:
        """Raise if any dtmask module or class attribute is a tracer wrapper."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "dtmask" and not module_name.startswith("dtmask."):
                continue
            for key, value in vars(module).items():
                found = [(key, value)]
                if isinstance(value, type):
                    found += [(f"{key}.{k}", v) for k, v in vars(value).items()]
                for name, obj in found:
                    if getattr(obj, "__bench_wrapped__", False):
                        raise TracerError(f"{module_name}.{name} is still wrapped")

    # -- items and spans ------------------------------------------------

    def begin_item(self, iid) -> None:
        self._item = Item(iid)
        self._stack = []
        self._item.start = perf()

    def end_item(self) -> None:
        self._item.end = perf()
        self.items.append(self._item)
        self._item = None

    def _span_wrapper(self, fn, name, counters):
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            item = tracer._item
            if item is None:
                return fn(*args, **kwargs)
            entered = perf()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            bound = None
            span_name = name
            if not isinstance(name, str) or counters is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
                if not isinstance(name, str):
                    span_name = name(bound)
            span = Span(f"{tracer.prefix}{len(tracer.spans)}", parent.id if parent else None,
                        item.id, span_name)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            if counters is not None:
                span.counters = {**(span.counters or {}), **counters(bound, result)}
            # The wrapper's own work around the call is tracer cost: keep
            # it out of the parent's self time and out of the item wall.
            outer = perf() - entered
            item.excluded += outer - (span.end - span.start)
            if parent is not None:
                parent.child += outer
            return result

        wrapper.__bench_wrapped__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            item = tracer._item
            if item is None:
                return fn(*args, **kwargs)
            t0 = perf()
            result = fn(*args, **kwargs)
            t1 = perf()
            dt = t1 - t0
            stack = tracer._stack
            entry = item.leaves.get(name)
            if entry is None:
                entry = item.leaves[name] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += dt
            if result == 0:
                entry[2] += 1
            # Attribute the leaf calls to the innermost span too.
            if stack:
                counts = stack[-1].counters
                if counts is None:
                    counts = stack[-1].counters = {}
                counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            outer = perf() - t0
            item.excluded += outer - dt
            if stack:
                stack[-1].child += outer
            return result

        wrapper.__bench_wrapped__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write every span, then every item's leaf totals, as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "span": s.id, "parent": s.parent, "item": s.item, "name": s.name,
                    "start": s.start, "end": s.end, "self": s.self_time,
                    "counters": s.counters or {},
                }) + "\n")
            for it in self.items:
                fh.write(json.dumps({
                    "item": it.id, "start": it.start, "end": it.end,
                    "excluded": it.excluded,
                    "leaves": {k: {"calls": v[0], "seconds": v[1], "zeros": v[2]}
                               for k, v in it.leaves.items()},
                }) + "\n")


def read_jsonl(paths) -> tuple[list[dict], list[dict]]:
    """Span records and item records from trace files written by `write_jsonl`."""
    spans, items = [], []
    for path in paths:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                rec = json.loads(line)
                (spans if "span" in rec else items).append(rec)
    return spans, items


IO_SPANS = ("write_bps", "read_bps", "write_mask", "read_mask",
            "read_label_map", "read_proposals", "write_csv")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], items: list[dict]) -> dict[str, float]:
    """Per-item layer figures from span and item records (`read_jsonl`).

    `*.s` figures are self seconds per item: span time minus child
    spans, leaf calls and counter work.  Counts are per item, rates are
    totals over totals.
    """
    n = len(items)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[tuple[str, str], float] = {}
    by_id = {s["span"]: s for s in spans}
    edt_in_sweep = 0
    repeats = 0
    seen: dict[object, set] = {}
    for s in spans:
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + s["self"]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s["counters"].items():
            if key != "key":
                sums[name, key] = sums.get((name, key), 0) + value
        if name == "edt.truncated_edt":
            keys = seen.setdefault(s["item"], set())
            if s["counters"]["key"] in keys:
                repeats += 1
            keys.add(s["counters"]["key"])
            p = s["parent"]
            while p is not None:
                if by_id[p]["name"] == "boxsim.robustness_sweep":
                    edt_in_sweep += 1
                    break
                p = by_id[p]["parent"]
    leaves: dict[str, list] = {}
    for it in items:
        for name, v in it["leaves"].items():
            tot = leaves.setdefault(name, [0, 0.0, 0])
            tot[0] += v["calls"]
            tot[1] += v["seconds"]
            tot[2] += v["zeros"]

    def per_item(v: float) -> float:
        return _ratio(v, n)

    def total(name: str, key: str) -> float:
        return sums.get((name, key), 0)

    out: dict[str, float] = {}
    io_names = [f"io.{f}" for f in IO_SPANS]
    for name in io_names:
        out[f"{name}.s"] = per_item(self_s.get(name, 0.0))
    bytes_read = sum(total(nm, "bytes_read") for nm in io_names)
    bytes_written = sum(total(nm, "bytes_written") for nm in io_names)
    read_s = sum(self_s.get(nm, 0.0) for nm in io_names if ".read_" in nm)
    write_s = sum(self_s.get(nm, 0.0) for nm in io_names if ".write_" in nm)
    out["io.bytes_read"] = per_item(bytes_read)
    out["io.bytes_written"] = per_item(bytes_written)
    out["io.files_read"] = per_item(sum(total(nm, "files_read") for nm in io_names))
    out["io.files_written"] = per_item(sum(total(nm, "files_written") for nm in io_names))
    out["io.read_mb_s"] = _ratio(bytes_read / 1e6, read_s)
    out["io.write_mb_s"] = _ratio(bytes_written / 1e6, write_s)

    for f in ("encode", "hard_decode", "soft_decode", "corrupt"):
        out[f"codec.{f}.s"] = per_item(self_s.get(f"codec.{f}", 0.0))
    for f in ("hard_decode", "soft_decode"):
        name = f"codec.{f}"
        out[f"{name}.mpix_s"] = _ratio(total(name, "pixels") / 1e6, self_s.get(name, 0.0))
    out["codec.painted_bits"] = per_item(total("codec.hard_decode", "painted_bits"))

    out["boxsim.decode_to_canvas.s"] = per_item(self_s.get("boxsim.decode_to_canvas", 0.0))
    out["boxsim.decode_to_canvas.painted_bits"] = per_item(
        total("boxsim.decode_to_canvas", "painted_bits"))
    out["boxsim.encode_window.s"] = per_item(self_s.get("boxsim.encode_window", 0.0))
    out["boxsim.robustness_sweep.s"] = per_item(self_s.get("boxsim.robustness_sweep", 0.0))
    perturbations = total("boxsim.robustness_sweep", "perturbations")
    out["boxsim.perturbations"] = per_item(perturbations)

    edt_calls = calls.get("edt.truncated_edt", 0)
    edt_s = self_s.get("edt.truncated_edt", 0.0)
    edt_mpix = total("edt.truncated_edt", "pixels") / 1e6
    out["edt.truncated_edt.calls"] = per_item(edt_calls)
    out["edt.truncated_edt.s"] = per_item(edt_s)
    out["edt.truncated_edt.mpix"] = per_item(edt_mpix)
    out["edt.truncated_edt.mpix_s"] = _ratio(edt_mpix, edt_s)
    out["edt.truncated_edt.repeat_frac"] = _ratio(repeats, edt_calls)
    out["boxsim.edt_calls_per_perturbation"] = _ratio(edt_in_sweep, perturbations)
    out["edt.interior_mask.s"] = per_item(self_s.get("edt.interior_mask", 0.0))

    iou_calls, iou_s, iou_zeros = leaves.get("metrics.mask_iou", [0, 0.0, 0])
    out["metrics.mask_iou.calls"] = per_item(iou_calls)
    out["metrics.mask_iou.s"] = per_item(iou_s)
    out["metrics.mask_iou.zero_frac"] = _ratio(iou_zeros, iou_calls)
    out["metrics.evaluate.s"] = per_item(self_s.get("metrics.evaluate", 0.0))
    out["metrics.evaluate.iou_calls_per_cell"] = _ratio(
        total("metrics.evaluate", "metrics.mask_iou.calls"), total("metrics.evaluate", "cells"))
    out["metrics.nms.box_s"] = per_item(self_s.get("metrics.nms.box", 0.0))
    out["metrics.nms.mask_s"] = per_item(self_s.get("metrics.nms.mask", 0.0))
    cm_calls, cm_s, _ = leaves.get("grid.canvas_mask", [0, 0.0, 0])
    out["grid.canvas_mask.calls"] = per_item(cm_calls)
    out["grid.canvas_mask.s"] = per_item(cm_s)
    out["grid.extract_instance.s"] = per_item(self_s.get("grid.extract_instance", 0.0))

    out["cli.main.calls"] = per_item(calls.get("cli.main", 0))
    out["cli.main.s"] = per_item(self_s.get("cli.main", 0.0))

    covered = sum(self_s.values()) + sum(v[1] for v in leaves.values())
    wall = sum(it["end"] - it["start"] - it["excluded"] for it in items)
    out["trace.coverage"] = _ratio(covered, wall)
    return out
