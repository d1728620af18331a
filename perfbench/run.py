"""The khoval benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload {homology,r3,movie} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; khoval is imported from its `src`
directory.  Ops run as a closed loop: one caller, each op starts after the
previous one ends.  A pass runs every op of the workload once; passes repeat
until the next one would end after `--seconds`, and there are at least
three, so that each op's time is its median over three or more runs.
Every output is checked against an oracle outside the timed region.

--trace 0 prints the end-to-end metrics: the median set-up time (two
set-ups before every pass); the pass time, the median op and the slowest op,
with every op at its median time over the passes; and peak RSS.  Every time
is scaled by the machine's speed, which a fixed reference computation run
between the ops measures (see reference.py).  --trace 1 times one untraced
and one traced pass and prints the per-layer metrics of the traced one, in
unscaled seconds.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads

SETUPS_PER_PASS = 2
MIN_PASSES = 3
REF_SHARE = 0.1  # reference time run after each op, as a share of the op's time
MODULES = ("cli", "diagram", "moves", "algebra", "cube", "cobordism", "corpus", "errors")


def import_khoval(src: Path):
    """Import khoval afresh from `src`, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "khoval" or m.startswith("khoval.")]:
        del sys.modules[name]
    pkg = importlib.import_module("khoval")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"khoval was imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"khoval.{name}") for name in MODULES}
    )


@dataclass
class PassResult:
    durations: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)

    def scaled(self) -> list[float]:
        """The op times at the nominal speed of the reference computation."""
        scale = reference.NOMINAL_S / statistics.median(self.ref_times)
        return [d * scale for d in self.durations]


def run_pass(ops, tracer=None) -> PassResult:
    """Run every op once; untraced, the reference computation follows each op."""
    res = PassResult()
    for index, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, exc
        res.durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        else:
            spent = 0.0
            while spent == 0.0 or spent < REF_SHARE * res.durations[-1]:
                res.ref_times.append(reference.run_once())
                spent += res.ref_times[-1]
        if error is not None:
            traceback.print_exception(error)
            reason = f"raised {error!r}"
        else:
            try:
                reason = op.check(result)
            except Exception as exc:  # a malformed output fails its oracle
                reason = f"oracle raised {exc!r}"
        if reason is not None:
            res.failures.append((op.name, reason))
    return res


def run_probes(probes) -> tuple[int, list[str]]:
    """Known-defect probes: (count still failing as known, unexpected errors)."""
    known, errors = 0, []
    for probe in probes:
        verdict = probe.check(probe.run())
        print(f"probe {probe.name}: {verdict or 'ok'}")
        if verdict == "known defect":
            known += 1
        elif verdict is not None:
            errors.append(f"{probe.name}: {verdict}")
    return known, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    for name in [k for k in os.environ if k.startswith("KHOVAL_")]:
        del os.environ[name]  # the workloads run with khoval's defaults
    sys.path.insert(0, str(src))
    prepare = workloads.PREPARE[args.workload]

    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        kh = import_khoval(src)
        prepared = prepare(kh, random.Random(args.seed))
        setup_times.append(time.perf_counter() - t0)
        return kh, prepared

    try:
        kh, prepared = set_up()
    except ImportError as exc:
        print(f"error: cannot import khoval: {exc}", file=sys.stderr)
        return 2
    digest = hashlib.sha256("\n".join(prepared.inputs).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(prepared.ops)} ops per pass, "
          f"inputs sha256 {digest}")

    passes = []
    if args.trace:
        passes.append(run_pass(prepared.ops))
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_op("setup")
        prepared = prepare(kh, random.Random(args.seed))
        tracer.end_op()
        setup_parse_s = tracer.self_times()["diagram.parse"]
        tracer.reset()
        passes.append(run_pass(prepared.ops, tracer))
    else:
        # Set-ups are spread over the run, before every pass, so that their
        # median is not one moment's machine speed.
        start = time.perf_counter()
        longest = 0.0
        while True:
            for _ in range(SETUPS_PER_PASS - (not passes)):
                kh, prepared = set_up()
            t0 = time.perf_counter()
            passes.append(run_pass(prepared.ops))
            longest = max(longest, time.perf_counter() - t0)
            if len(passes) >= MIN_PASSES and time.perf_counter() - start + longest > args.seconds:
                break

    known_defects, probe_errors = run_probes(prepared.probes)
    attempted = sum(len(p.durations) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for name, reason in failures + [("probe", e) for e in probe_errors]:
        print(f"FAILED {name}: {reason}")
    for op, times in zip(prepared.ops, zip(*(p.durations for p in passes))):
        print(f"op {op.name}: " + " ".join(f"{t:.4f}" for t in times) + " s")

    if args.trace:
        untraced, traced = (sum(p.durations) for p in passes)
        movie_ops = len(prepared.ops) if args.workload == "movie" else 0
        layers = tracing.layer_metrics(tracer, traced, untraced, setup_parse_s, movie_ops)
        layers["fail_ratio"] = (len(failures) / attempted, "ratio")
        layers["homology.known_defect_fails"] = (known_defects, "count")
        layers["bench.reference_s"] = (statistics.median(passes[0].ref_times), "s")
        for name in tracer.missing:
            print(f"trace: {name} not found; its layer reads 0")
        for err in sorted(tracer.hook_errors):
            print(f"trace: counter hook failed: {err}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        # Each op counts at its median time over the passes.  On a shared
        # machine an op's fastest run depends on whether the run happened to
        # catch a moment without contention; its median does not.  A pass's
        # times are scaled by the reference runs of that pass, so that a
        # change of machine speed within the run cancels too.
        typical = [statistics.median(ts) for ts in zip(*(p.scaled() for p in passes))]
        ref_times = [t for p in passes for t in p.ref_times]
        ref_s = statistics.median(ref_times)
        unscaled = [statistics.median(ts) for ts in zip(*(p.durations for p in passes))]
        print(f"{len(passes)} passes, {len(prepared.ops)} ops each; reference median "
              f"{ref_s:.6f} s over {len(ref_times)} runs; unscaled setup_s "
              f"{statistics.median(setup_times):.6f}, solve_s {sum(unscaled):.6f}, "
              f"op_p50_s {statistics.median(unscaled):.6f}, op_max_s {max(unscaled):.6f}")
        metrics = {
            "setup_s": statistics.median(setup_times) * reference.NOMINAL_S / ref_s,
            "solve_s": sum(typical),
            "op_p50_s": statistics.median(typical),
            "op_max_s": max(typical),
        }
        metrics = {k: {"value": v, "unit": "s"} for k, v in metrics.items()}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    correct = not failures and not probe_errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
