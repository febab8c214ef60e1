"""Per-layer tracing by wrapping enrq's module attributes from outside.

A `Tracer` replaces each target attribute (a module function, or a method
in a class body) with a wrapper that records one span per call: name,
start, end, parent span and pass id.  Because the attribute itself is
replaced, calls made inside enrq through the module namespace are caught
too (`lefschetz_check -> fixed_euler`, `GF.inv -> GF.pow -> GF.mul`).
The first SPAN_LIMIT spans stay in memory until `write_spans`; calls and
self times count every call.  A layer's self time is its spans' duration
minus the part covered by child spans.

Generator targets (`GF.elements`) get no span, since their time
interleaves with the caller's; they count calls and yielded items.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

SPAN_LIMIT = 2_000_000  # about 64 MB; one field-growth pass has about 2M


def _length(arguments, result):
    return len(result)


def _utf8_bytes(arguments, result):
    return len(result.encode("utf-8"))


def _field_elements(arguments, result):
    return arguments["curve"].p ** arguments["ext_degree"]


@dataclass(frozen=True)
class Target:
    """One traced layer function.

    `name` is `<module>.<attribute>` under `enrq`, with a dotted
    attribute for a method, and is the prefix of the target's metrics.
    `aliases` are other enrq modules that import the same function by
    name.  `moves` names the end-to-end metric and workload this layer
    should move.  `items(arguments, result)` gives the size of one call's
    output, from the call's bound arguments (defaults applied).
    """

    name: str
    moves: str
    items_unit: str | None = None
    items: Callable | None = None
    aliases: tuple = ()


FIELD = "wall_s on field-growth"
QUICK = "wall_s on quick-suites"
LATTICE = "wall_s on lattice-search"
VERIFY = "wall_s on verify-all"

TARGETS = (
    Target("gf.GF.__init__", f"{FIELD}, {QUICK}"),
    Target("gf.GF.mul", FIELD),
    Target("gf.GF.inv", FIELD),
    Target("gf.GF.pow", FIELD),
    Target("gf.GF.elements", FIELD, "elements"),
    Target("ecaut.brute_force_count", f"{FIELD}, {QUICK}", "elements", _field_elements),
    Target("ecaut.check_preserves", f"{FIELD}, {QUICK}"),
    Target("ecaut.fixed_count", f"{FIELD}, {QUICK}"),
    Target("lattice.search_sequences", LATTICE, "sequences", _length),
    Target("lattice.inner", LATTICE),
    Target("lattice.reflect", LATTICE),
    Target("lattice.signature", LATTICE),
    Target("lattice.exact_det", f"{LATTICE}, {QUICK}", aliases=("enrq.configs",)),
    Target("fibers.catalog", f"{VERIFY}, {QUICK}"),
    Target("fibers.admissible_actions", VERIFY, "actions", _length),
    Target("fibers.fixed_euler", VERIFY),
    Target("fibers.two_connected_min", f"{VERIFY}, peak_rss_mb on verify-all"),
    Target("fibers.lefschetz_check", VERIFY),
    Target("configs.enumerate_pairs", QUICK),
    Target("configs.odd_order_smooth_case", QUICK),
    Target("configs.shared_eight_search", QUICK),
    Target("delpezzo.ParamPoly.__mul__", QUICK),
    Target("delpezzo.verify_preserves", QUICK),
    Target("delpezzo.pencil_action", QUICK),
    Target("delpezzo.compose", QUICK),
    Target("tables.consistency_check", QUICK),
    Target("report.Report.render", QUICK, "bytes", _utf8_bytes),
    Target("cli.run", "the residual of every workload that runs the CLI: suite glue and file writes"),
)


def _resolve(target):
    """[(owner, attribute, original)] for the target and its aliases."""
    module, *outer, attr = target.name.split(".")
    try:
        owner = importlib.import_module(f"enrq.{module}")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        sites = [(owner, attr, original)]
        for alias in target.aliases:
            module = importlib.import_module(alias)
            if getattr(module, attr) is not original:
                raise KeyError(f"{alias}.{attr}")
            sites.append((module, attr, original))
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(f"trace target {target.name} not found: {exc}") from exc
    return sites


def _unlisted_aliases(sites):
    """Module globals in enrq bound to a traced function but not wrapped."""
    wrapped = {id(orig) for _, _, orig in sites}
    listed = {(id(owner), attr) for owner, attr, _ in sites}
    return [
        f"{name}.{attr}"
        for name, module in sorted(sys.modules.items())
        if name == "enrq" or name.startswith("enrq.")
        for attr, value in vars(module).items()
        if id(value) in wrapped and (id(module), attr) not in listed
    ]


class Tracer:
    """Context manager that wraps every target while it is active.

    Every target is resolved before anything is patched, so a missing
    name raises LookupError and leaves enrq untouched.  Leaving the
    context restores the original attributes, also after an exception.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        resolved = [_resolve(t) for t in self.targets]
        self._sites = [(i, site) for i, sites in enumerate(resolved) for site in sites]
        stray = _unlisted_aliases([site for _, site in self._sites])
        if stray:
            raise LookupError(f"traced functions also bound as {', '.join(stray)}; list them as aliases")
        n = len(self.targets)
        self._generator = [inspect.isgeneratorfunction(sites[0][2]) for sites in resolved]
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.items = [0] * n
        self.pass_id = 0
        # one entry per span, in order of entry
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")  # -1 for a top-level span
        self.span_pass = array("I")
        self._stack = []  # [span id, seconds covered by children] per open span

    def __enter__(self):
        wrappers = {}
        for i, (owner, attr, original) in self._sites:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(i, original)
            setattr(owner, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc):
        for _, (owner, attr, original) in self._sites:
            setattr(owner, attr, original)
        return False

    def _wrap(self, i, fn):
        calls, items = self.calls, self.items
        if self._generator[i]:

            def counted(*args, **kwargs):
                calls[i] += 1
                for item in fn(*args, **kwargs):
                    items[i] += 1
                    yield item

            return counted

        count_items = self.targets[i].items
        signature = inspect.signature(fn)
        clock = time.perf_counter
        stack, self_s = self._stack, self.self_s
        names, starts, ends, parents, passes = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_pass)

        def timed(*args, **kwargs):
            sid = len(names)
            if sid < SPAN_LIMIT:
                names.append(i)
                parents.append(stack[-1][0] if stack else -1)
                passes.append(self.pass_id)
                starts.append(0.0)
                ends.append(0.0)
            else:
                sid = -1  # not kept; still counted below
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if sid >= 0:
                    starts[sid] = start
                    ends[sid] = end
                span = end - start
                calls[i] += 1
                self_s[i] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if count_items:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                items[i] += count_items(bound.arguments, result)
            return result

        return timed

    def metrics(self, passes):
        """Per-layer metrics averaged over `passes` traced passes."""
        out = {}
        for i, t in enumerate(self.targets):
            out[f"{t.name}.calls"] = (self.calls[i] / passes, "count")
            if not self._generator[i]:
                out[f"{t.name}.self_s"] = (self.self_s[i] / passes, "s")
            if t.items_unit:
                out[f"{t.name}.items"] = (self.items[i] / passes, t.items_unit)
        return out

    def write_spans(self, stem):
        """Write `<stem>.bin` (the span columns, native byte order, one after
        another) and `<stem>.json` (names and layout)."""
        columns = [("name", self.span_name), ("start", self.span_start), ("end", self.span_end),
                   ("parent", self.span_parent), ("pass", self.span_pass)]
        with open(f"{stem}.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "names": [t.name for t in self.targets],
            "count": len(self.span_name),
            "limit": SPAN_LIMIT,  # spans after the first SPAN_LIMIT are not kept
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode] for name, col in columns],
            "clock": "time.perf_counter, seconds",
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")


def read_spans(stem):
    """Spans written by `write_spans`, as (name, start, end, parent, pass) tuples."""
    with open(f"{stem}.json", encoding="utf-8") as fh:
        header = json.load(fh)
    cols = []
    with open(f"{stem}.bin", "rb") as fh:
        for _, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols.append(col)
    names = header["names"]
    return [(names[n], *rest) for n, *rest in zip(*cols)]
