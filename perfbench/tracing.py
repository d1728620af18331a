"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of each khoval module at the
module (or class) attribute their callers look up, with wrappers that record
a span (layer, start, end, parent span, op id) per call.  Hot leaf calls keep
only an aggregate time and count, and the algebra products keep only a count.
A layer's self time is its time minus the time of the wrapped calls made
inside it.  Wrappers cost one attribute check while the tracer is inactive.

Missing attributes are skipped, so a refactored program still runs; the
layer it used to report then reads 0.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

SPAN, AGG, COUNT = "span", "agg", "count"

# Layers whose self time is reported as a share of the traced solve time.
LAYERS = [
    "bench",
    "cli",
    "diagram.parse",
    "diagram.resolve",
    "diagram.edge_effect",
    "moves.apply",
    "cube.build",
    "cube.differential_of",
    "homology.homology",
    "homology.block_basis",
    "homology.block_matrix",
    "homology.snf",
    "reduce.from_cube",
    "reduce.reduce",
    "reduce.match",
    "cobordism.eval",
    "cobordism.chain_map",
    "cobordism.apply",
]

MAP_KINDS = ("birth", "death", "saddle", "r1", "r2", "r3")

# Frame layout: the layer, start, end, parent span id, op id, child time, span id.
LAYER, START, END, PARENT, OP, CHILD, SPAN_ID = range(7)


class Tracer:
    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.agg_self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.map_s: dict[str, float] = defaultdict(float)
        self.touched: set = set()
        self.op = None
        self._cube_ids = 0

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        frame = ["bench", 0.0, 0.0, None, op_id, 0.0, len(self.spans)]
        self.spans.append(frame)
        self.stack.append(frame)
        self.active = True
        frame[START] = perf_counter()

    def end_op(self) -> None:
        end = perf_counter()
        self.active = False
        frame = self.stack.pop()
        frame[END] = end
        self.calls["bench"] += 1

    # -- wrapping ----------------------------------------------------------------

    def install(self) -> None:
        for owner_path, attr, layer, mode, post in _TARGETS:
            owner = _resolve(owner_path)
            name = f"{owner_path}.{attr}"
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if mode == COUNT:
                wrapped = self._counting(fn, layer)
            else:
                wrapped = self._timed(fn, layer, mode == SPAN, post)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def _counting(self, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, fn, layer, record_span, post):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            if record_span:
                frame = [layer, 0.0, 0.0, parent[SPAN_ID], tracer.op, 0.0, len(tracer.spans)]
                tracer.spans.append(frame)
            else:
                frame = [layer, 0.0, 0.0, parent[SPAN_ID], tracer.op, 0.0, parent[SPAN_ID]]
            stack.append(frame)
            start = frame[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = frame[END] = perf_counter()
                stack.pop()
                parent[CHILD] += end - start
                tracer.calls[layer] += 1
                if not record_span:
                    tracer.agg_self[layer] += end - start - frame[CHILD]
            if post is not None:
                # bookkeeping is charged to no layer: it is part of the overhead
                t0 = perf_counter()
                try:
                    post(tracer, args, result, end - start, parent[LAYER])
                except (AttributeError, IndexError, TypeError) as exc:
                    tracer.hook_errors.add(f"{layer}: {exc!r}")
                parent[CHILD] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, from the spans plus the aggregated calls."""
        out: dict[str, float] = defaultdict(float, self.agg_self)
        for frame in self.spans:
            out[frame[LAYER]] += frame[END] - frame[START] - frame[CHILD]
        return out

    def cube_id(self, cube) -> int:
        cid = getattr(cube, "_perfbench_cube_id", None)
        if cid is None:
            self._cube_ids += 1
            cid = self._cube_ids
            try:
                cube._perfbench_cube_id = cid
            except AttributeError:
                cid = id(cube)
        return cid


def _resolve(path: str):
    """A module or a class inside a module, by dotted path; None if absent."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for name in parts[k:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


# -- post hooks: counts taken where the work happens ----------------------------------


def _post_cube_resolve(tr, args, result, dur, parent):
    tr.counts["cube.resolutions"] += 1
    tr.counts["cube.generators"] += 1 << getattr(result, "count", 0)


def _post_build(tr, args, result, dur, parent):
    tr.cube_id(args[0])


def _post_block_matrix(tr, args, result, dur, parent):
    rows, cols = len(args[2]), len(args[1])
    tr.counts["homology.matrix_entries"] += rows * cols
    if isinstance(result, list):
        tr.counts["homology.nnz"] += sum(len(row) - row.count(0) for row in result)
    tr.maxima["homology.max_block_dim"] = max(tr.maxima["homology.max_block_dim"], rows, cols)


def _post_reduce(tr, args, result, dur, parent):
    tr.counts["reduce.gens_in"] += len(getattr(args[0], "degrees", ()))
    reduced = getattr(result, "reduced", None)
    tr.counts["reduce.gens_out"] += len(getattr(reduced, "degrees", ()))


def _post_chain_map(tr, args, result, dur, parent):
    kind = getattr(args[0], "kind", "unknown")
    tr.map_s[kind] += dur
    try:
        result._perfbench_kind = kind
    except AttributeError:
        pass


def _touch(tr, element):
    cube = getattr(element, "cube", None)
    terms = getattr(element, "terms", {})
    if cube is None:
        return 0
    cid = tr.cube_id(cube)
    for g in terms:
        tr.touched.add((cid, getattr(g, "mask", g)))
    return len(terms)


def _post_apply(tr, args, result, dur, parent):
    tr.map_s[getattr(args[0], "_perfbench_kind", "unknown")] += dur
    size = max(_touch(tr, args[1]), _touch(tr, result))
    tr.maxima["cobordism.element_terms_max"] = max(tr.maxima["cobordism.element_terms_max"], size)


def _post_of_generator(tr, args, result, dur, parent):
    if parent != "cobordism.apply":
        tr.map_s[getattr(args[0], "_perfbench_kind", "unknown")] += dur


# (owner, attribute, layer or counter, mode, post hook).  The owner is the
# namespace the callers look the name up in: `cube` imports `resolve` from
# `diagram`, so `khoval.cube.resolve` is what the cube build calls.
_TARGETS = [
    ("khoval.cli", "main", "cli", SPAN, None),
    ("khoval.cli", "parse_pd", "diagram.parse", AGG, None),
    ("khoval.diagram", "parse_pd", "diagram.parse", AGG, None),
    ("khoval.diagram.LinkDiagram", "__init__", "diagram.parse", AGG, None),
    ("khoval.cube", "resolve", "diagram.resolve", AGG, _post_cube_resolve),
    ("khoval.diagram", "resolve", "diagram.resolve", AGG, None),
    ("khoval.cube", "edge_effect_from_resolutions", "diagram.edge_effect", AGG, None),
    ("khoval.diagram", "edge_effect", "diagram.edge_effect", AGG, None),
    ("khoval.cube", "multiply", "algebra.multiply_calls", COUNT, None),
    ("khoval.cube", "comultiply", "algebra.comultiply_calls", COUNT, None),
    ("khoval.cobordism", "multiply", "algebra.multiply_calls", COUNT, None),
    ("khoval.cobordism", "comultiply", "algebra.comultiply_calls", COUNT, None),
    ("khoval.cube.CubeComplex", "__init__", "cube.build", SPAN, _post_build),
    ("khoval.cube.CubeComplex", "differential_of", "cube.differential_of", AGG, None),
    ("khoval.cli", "homology", "homology.homology", SPAN, None),
    ("khoval.homology", "block_basis", "homology.block_basis", SPAN, None),
    ("khoval.homology", "block_matrix", "homology.block_matrix", SPAN, _post_block_matrix),
    ("khoval.homology", "smith_normal_form", "homology.snf", SPAN, None),
    ("khoval.reduce.BasedComplex", "from_cube", "reduce.from_cube", SPAN, None),
    ("khoval.reduce", "reduce_complex", "reduce.reduce", SPAN, _post_reduce),
    ("khoval.cobordism", "match_reduced", "reduce.match", SPAN, None),
    ("khoval.cobordism", "apply_esi_info", "moves.apply", AGG, None),
    ("khoval.cobordism", "eval_movie", "cobordism.eval", SPAN, None),
    ("khoval.cobordism", "esi_chain_map", "cobordism.chain_map", SPAN, _post_chain_map),
    ("khoval.cobordism.ChainMapRep", "apply", "cobordism.apply", SPAN, _post_apply),
    ("khoval.cobordism.ChainMapRep", "of_generator", "cobordism.apply", AGG, _post_of_generator),
]


def layer_metrics(tr: Tracer, solve_s: float, untraced_solve_s: float,
                  setup_parse_s: float, movie_ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    st = tr.self_times()
    m: dict[str, tuple[float, str]] = {}
    m["diagram.parse_s"] = (setup_parse_s, "s")
    for layer in ("diagram.resolve", "diagram.edge_effect", "moves.apply"):
        m[f"{layer}_s"] = (st[layer], "s")
        m[f"{layer}_calls"] = (tr.calls[layer], "count")
    m["algebra.multiply_calls"] = (tr.counts["algebra.multiply_calls"], "count")
    m["algebra.comultiply_calls"] = (tr.counts["algebra.comultiply_calls"], "count")
    m["cube.build_s"] = (st["cube.build"], "s")
    m["cube.builds"] = (tr.calls["cube.build"], "count")
    m["cube.resolutions"] = (tr.counts["cube.resolutions"], "count")
    m["cube.masks_touched"] = (len(tr.touched), "count")
    built = tr.counts["cube.resolutions"]
    m["cube.masks_touched_ratio"] = (len(tr.touched) / built if built else 0.0, "ratio")
    m["cube.differential_of_s"] = (st["cube.differential_of"], "s")
    m["cube.differential_of_calls"] = (tr.calls["cube.differential_of"], "count")
    m["cube.generators"] = (tr.counts["cube.generators"], "count")
    m["homology.block_basis_s"] = (st["homology.block_basis"], "s")
    m["homology.block_matrix_s"] = (st["homology.block_matrix"], "s")
    m["homology.snf_s"] = (st["homology.snf"], "s")
    m["homology.snf_calls"] = (tr.calls["homology.snf"], "count")
    m["homology.self_s"] = (st["homology.homology"], "s")
    m["homology.max_block_dim"] = (tr.maxima["homology.max_block_dim"], "count")
    entries = tr.counts["homology.matrix_entries"]
    m["homology.matrix_entries"] = (entries, "count")
    m["homology.nnz"] = (tr.counts["homology.nnz"], "count")
    m["homology.fill_ratio"] = (tr.counts["homology.nnz"] / entries if entries else 0.0, "ratio")
    m["reduce.from_cube_s"] = (st["reduce.from_cube"], "s")
    m["reduce.reduce_s"] = (st["reduce.reduce"], "s")
    m["reduce.match_s"] = (st["reduce.match"], "s")
    m["reduce.gens_in"] = (tr.counts["reduce.gens_in"], "count")
    m["reduce.gens_out"] = (tr.counts["reduce.gens_out"], "count")
    evals = tr.calls["cobordism.eval"]
    m["cobordism.eval_calls"] = (evals / movie_ops if movie_ops else 0.0, "1/op")
    for kind in MAP_KINDS:
        m[f"cobordism.map_s.{kind}"] = (tr.map_s[kind], "s")
    m["cobordism.apply_s"] = (st["cobordism.apply"], "s")
    m["cobordism.self_s"] = (st["cobordism.eval"] + st["cobordism.chain_map"], "s")
    m["cobordism.element_terms_max"] = (tr.maxima["cobordism.element_terms_max"], "count")
    m["cli.self_s"] = (st["cli"], "s")
    m["bench.self_s"] = (st["bench"], "s")
    m["trace.solve_s"] = (solve_s, "s")
    m["trace.untraced_solve_s"] = (untraced_solve_s, "s")
    m["trace.overhead_s"] = (solve_s - untraced_solve_s, "s")
    for layer in LAYERS:
        m[f"share.{layer}"] = (100.0 * st[layer] / solve_s if solve_s else 0.0, "%")
    return m
