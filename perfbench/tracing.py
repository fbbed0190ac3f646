"""Spans around the public functions of every pwsum module.

Inside a traced CLI process, `Tracer.install` wraps each public function and
each public method (and `__init__`) of the public classes defined in the
pwsum modules, and rebinds every module attribute that refers to a wrapped
function: several modules import names directly (`cli` imports
`build_schedule`, `genfun` imports `hilbert_transform`), so only a wrapper
on the attribute the caller looks up runs.  Spans stay in memory; the
process writes them out when it ends.

In the benchmark process, `layer_metrics` turns one job's spans into the
per-layer metrics: self times (a span's duration minus the part of it that
its child spans cover) summed over named spans, and counts taken from call
arguments at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("spectrum", "genfun", "blaschke", "contours", "weights", "grids", "engine", "diagnostics", "cli")

# span fields, in the order the traced process records them
ID, NAME, PARENT, START, END, COUNT, KEY = range(7)


def _size(x) -> int:
    """Element count of an array argument; 1 for a scalar."""
    return int(getattr(x, "size", 1))


def _arg(a, k, pos, name, default=None):
    if len(a) > pos:
        return a[pos]
    return k.get(name, default)


def _eval_B_pairs(a, k, result):
    b, z, cutoff = a[0], _arg(a, k, 1, "z"), _arg(a, k, 2, "cutoff")
    pts = b.points
    factors = len(pts) if cutoff is None else int((abs(pts) < cutoff).sum())
    return _size(z) * factors


def _context_bytes(a, k, result):
    gen, grid = _arg(a, k, 1, "gen"), _arg(a, k, 2, "grid")
    return len(grid) * len(gen.spectrum) * 16


def _carleson_pairs(a, k, result):
    n = len(_arg(a, k, 0, "s"))
    return n * (n - 1)


def _row_len(a, k, result):
    return len(result)


# span name -> count taken at that boundary (args, kwargs, result) -> number
COUNTS = {
    "genfun.GeneratingFunctionEvaluator.log_abs_G": lambda a, k, r: _size(_arg(a, k, 1, "x")),
    "blaschke.BlaschkeEvaluator.eval_B": _eval_B_pairs,
    "engine.SummationContext.__init__": _context_bytes,
    "diagnostics.carleson_sup": _carleson_pairs,
    "weights.NaiveWeights.weight_row": _row_len,
    "weights.ProjectionWeights.weight_row": _row_len,
    "weights.UniversalWeights.weight_row": _row_len,
}

# span name -> identity of the work done, to count distinct calls
KEYS = {
    "genfun.GeneratingFunctionEvaluator.eval_G_prime_at_lambda":
        lambda a, k: f"{id(a[0])}:{_arg(a, k, 1, 'k')}",
}


class Tracer:
    """Records nested spans [id, name, parent, start, end, count, key]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count, key = COUNTS.get(name), KEYS.get(name)

        @functools.wraps(fn)
        def traced(*a, **k):
            sid = len(spans)
            rec = [sid, name, stack[-1] if stack else None, time.perf_counter(), None, None,
                   key(a, k) if key else None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*a, **k)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if count:
                rec[COUNT] = count(a, k, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        modules = {m: importlib.import_module(f"pwsum.{m}") for m in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{layer}.{name}", obj)
        # rebind the names other modules imported, including the package's
        for mod in (importlib.import_module("pwsum"), *modules.values()):
            for name, obj in list(vars(mod).items()):
                try:
                    target = wrapped.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if target is not None and target is not obj:
                    setattr(mod, name, target)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}", member.__func__)))


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(s[ID], ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s[ID]] = (end - start) - covered
    return out


_GENFUN = "genfun.GeneratingFunctionEvaluator."
_OUTER = "genfun.OuterEvaluator."
_BLASCHKE = "blaschke.BlaschkeEvaluator."

# metric -> (how, span names): "self" sums self times, "count" sums the
# counts recorded at the spans, "calls" counts the spans, "distinct" counts
# their distinct keys.  A name ending in "." matches every span it prefixes.
LAYER_METRICS = {
    "genfun.G_grid_s": ("self", (_GENFUN + "eval_G_on_grid",)),
    "genfun.G_points_s": ("self", (_GENFUN + "eval_G", _GENFUN + "log_G")),
    "genfun.G_prime_s": ("self", (_GENFUN + "eval_G_prime_at_lambda", _GENFUN + "prime_at_all")),
    "genfun.G_prime_calls": ("calls", (_GENFUN + "eval_G_prime_at_lambda",)),
    "genfun.G_prime_distinct": ("distinct", (_GENFUN + "eval_G_prime_at_lambda",)),
    "genfun.log_abs_line_s": ("self", (_GENFUN + "log_abs_G",)),
    "genfun.line_nodes": ("count", (_GENFUN + "log_abs_G",)),
    "genfun.outer_s": ("self", (_OUTER,)),
    "blaschke.eval_B_s": ("self", (_BLASCHKE + "eval_B",)),
    "blaschke.eval_B_pairs": ("count", (_BLASCHKE + "eval_B",)),
    "blaschke.beta_s": ("self", (_BLASCHKE + "eval_beta", _BLASCHKE + "tail_factor")),
    "blaschke.beta_calls": ("calls", (_BLASCHKE + "eval_beta",)),
    "blaschke.argder_s": ("self", (_BLASCHKE + "arg_derivative_on_R",)),
    "contours.select_l_s": ("self", ("contours.select_l",)),
    "contours.select_c_s": ("self", ("contours.select_c",)),
    "contours.margin_s": ("self", ("contours.domination_margin",)),
    "contours.schedule_s": ("self", ("contours.build_schedule",)),
    "weights.projection_row_s": ("self", ("weights.ProjectionWeights.",)),
    "weights.universal_row_s": ("self", ("weights.UniversalWeights.", "weights.outer_weight",
                                        "weights.outer_weight_phase")),
    "weights.naive_row_s": ("self", ("weights.NaiveWeights.",)),
    "weights.row_entries": ("count", ("weights.NaiveWeights.weight_row",
                                      "weights.ProjectionWeights.weight_row",
                                      "weights.UniversalWeights.weight_row")),
    "weights.csv_s": ("self", ("weights.save_weights_csv",)),
    "engine.context_s": ("self", ("engine.SummationContext.__init__",)),
    "engine.context_bytes": ("count", ("engine.SummationContext.__init__",)),
    "engine.sum_build_s": ("self", ("engine.build_lagrange_sum", "engine.build_lagrange_sum_from_values")),
    "engine.sample_sum_s": ("self", ("engine.SummationContext.sample_sum",)),
    "engine.compactwise_s": ("self", ("engine.compactwise_error", "engine.eval_lagrange_sum",
                                      "engine.disk_samples")),
    "engine.tail_bound_s": ("self", ("engine.lagrange_tail_bound", "engine.pw_tail_bound")),
    "diagnostics.a2_s": ("self", ("diagnostics.a2_estimate",)),
    "diagnostics.intG_s": ("self", ("diagnostics.intG_check",)),
    "diagnostics.carleson_s": ("self", ("diagnostics.carleson_sup",)),
    "diagnostics.carleson_pairs": ("count", ("diagnostics.carleson_sup",)),
    "cli.parse_s": ("self", ("cli.parse_config",)),
    "spectrum.build_s": ("self", ("spectrum.make_family", "spectrum.Spectrum.__init__",
                                  "spectrum.split_halfplanes")),
    # cli.run's self time is the job minus its top-level spans: inline CSV
    # formatting and config plumbing in cli
    "cli.unattributed_s": ("self", ("cli.run",)),
    **{f"{layer}.self_s": ("self", (f"{layer}.",)) for layer in LAYERS},
}


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}  # name -> [self time, count, calls, keys]
    for s in spans:
        agg = by_name.setdefault(s[NAME], [0.0, 0, 0, set()])
        agg[0] += selfs[s[ID]]
        agg[1] += s[COUNT] or 0
        agg[2] += 1
        agg[3].add(s[KEY])
    out = {}
    for metric, (how, patterns) in LAYER_METRICS.items():
        hit = [agg for name, agg in by_name.items() if _matches(name, patterns)]
        if how == "self":
            out[metric] = sum(agg[0] for agg in hit)
        elif how == "count":
            out[metric] = sum(agg[1] for agg in hit)
        elif how == "calls":
            out[metric] = sum(agg[2] for agg in hit)
        else:
            out[metric] = len(set().union(*(agg[3] for agg in hit)))
    out["trace.spans"] = len(spans)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"
