"""Code size and where the time goes, by layer: `PYTHONPATH=src python tests/layer_report.py`.

Each section prints a Markdown heading and code block.  Children import a temporary copy of
the package, so nothing is written into the checkout."""

import ast
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
import tracemalloc
from pathlib import Path
from unittest import mock

if __name__ == "__main__":
    sys.dont_write_bytecode = True

import khoval  # noqa: E402
from khoval import cobordism, cube, diagram, reduce  # noqa: E402
from khoval.algebra import INT_RINGS, Theory, TPoly  # noqa: E402
from khoval.corpus import MIRRORED_BRAID, PD_CODES, torus2_pd  # noqa: E402
from khoval.homology import CubeIndex, homology, integer_differential  # noqa: E402
from khoval.moves import ESI, apply_esi  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
IMPORT_RUNS = 21  # fresh interpreters timed per bytecode state, after one not counted
CLI_SIZES = (9, 11, 13)  # khoval homology on T(2,n); ROADMAP item 3 targets T(2,13)
SWEEP_SIZE, LIBRARY_SIZE, TABLES_SIZE = 9, 7, 11  # T(2,n): layer sweeps, homology(), tables
DIAGRAM_SIZES, RESOLVE_SIZES = (12, 24), (11, 13)  # T(2,n) built, then resolved everywhere
REPLAY_GENUS, REPLAY_DETOUR = 8, 12  # the trivial movie and the detour replayed
SWEEP_DETOURS = (12, 24)  # library sweeps on the genus-1 detour at n crossings
MOVIE_CLI_DETOURS = (16, 20, 24, 28)  # khoval movie on the genus-1 detour at n crossings
R3_KINKS = ((1, 2), (3, 7))  # arcs kinked (+, -) per round on the braid; each round reported
CAP = 40  # the crossing cap of the movie runs
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)  # docstring owners


def best_of(rounds: int, prepare, *parts, number: int = 1) -> list[float]:
    """Seconds per call of each part, the least over `rounds` rounds.  A round calls
    `prepare()`, untimed, then each part `number` times on what the one before returned."""
    best = [float("inf")] * len(parts)
    for _ in range(rounds):
        value = prepare()
        for k, part in enumerate(parts):
            start = time.perf_counter()
            for _ in range(number):
                out = part(value)
            best[k], value = min(best[k], (time.perf_counter() - start) / number), out
    return best


def run_child(args: list[str], tmp: Path, **env: str) -> tuple[float, float, int, str]:
    """Wall seconds, peak RSS in MB, exit code and output of `python *args` in a child that
    imports khoval from `tmp`, with bytecode written unless `env` says otherwise."""
    env = {**os.environ, "PYTHONPATH": str(tmp), "PYTHONDONTWRITEBYTECODE": "", **env}
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True,
                          env=env) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)  # this child's own ru_maxrss
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, child.returncode, out


def counted(obj, name: str):
    """`obj.name` wrapped while the block runs, its calls in `.call_count`; restored on exit."""
    return mock.patch.object(obj, name, autospec=True, side_effect=getattr(obj, name))


def bench_workloads():
    """`perfbench/workloads.py`, read only, with the benchmark's own `oracles`; `sys.modules`
    is put back as it was, so it keeps any other `oracles` (`tests/oracles.py` under pytest)."""
    with mock.patch.dict(sys.modules), mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        sys.modules.pop("oracles", None)
        return importlib.import_module("workloads")


def code_and_startup(tmp: Path) -> None:
    """Code size and start-up"""
    total, skip = [0, 0], {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                           tokenize.DEDENT, tokenize.ENDMARKER}
    for path in sorted((tmp / "khoval").glob("*.py")):
        text = path.read_text()
        docs = {line for node in ast.walk(ast.parse(text)) if isinstance(node, DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None
                for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
        code = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type not in skip for line in range(tok.start[0], tok.end[0] + 1)}
        counts = (text.count("\n"), len(code - docs))
        total = [a + b for a, b in zip(total, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d}  {path.name}")
    print(f"{total[0]:6d} {total[1]:6d}  in total: lines, then lines with code (not docstrings, "
          "comments or blank)")
    # the copy starts without bytecode; the second set's first run, not counted, writes it
    code = ("import sys, time; start = time.perf_counter(); import khoval.cli; "
            "print(time.perf_counter() - start, 'dataclasses' in sys.modules)")
    for flag, label in (("1", "without bytecode (PYTHONDONTWRITEBYTECODE=1)"),
                        ("", "with bytecode written")):
        runs = [run_child(["-c", code], tmp, PYTHONDONTWRITEBYTECODE=flag)
                for _ in range(IMPORT_RUNS + 1)]
        walls = [float(out.split()[0]) for *_, out in runs[1:]]
        print(f"import khoval.cli in a fresh interpreter, {label}: median "
              f"{statistics.median(walls) * 1e3:.1f} ms over {len(walls)} runs; "
              f"dataclasses loaded: {runs[-1][3].split()[1]}")


def homologies(tmp: Path) -> None:
    """Homology: the CLI, CubeIndex and the layer sweeps, library calls and label tables"""
    # a child's ru_maxrss counts its parent's memory at the spawn: run them while it is small
    walls = {}
    for n in CLI_SIZES:
        for theory in ("khovanov", "lee"):
            cmd = ["-m", "khoval.cli", "homology", "--format", "json", "--theory", theory]
            walls[n, theory], rss, status, _ = run_child([*cmd, torus2_pd(n)], tmp)
            print(f"khoval homology T(2,{n}) {theory}: {walls[n, theory]:.2f} s, "
                  f"peak RSS {rss:.0f} MB (exit {status})")
    n = CLI_SIZES[-1]
    print(f"T(2,{n}): Lee takes {walls[n, 'lee'] / walls[n, 'khovanov']:.2f} times Khovanov's "
          "time (target at T(2,13): at most 1.3)")

    def layer_sweeps(index: CubeIndex) -> None:  # `reduced_complex`'s loop, column by column
        cancelled = set()
        for p in range(index.cube.n + 1):
            _, cancelled = reduce.eliminate(integer_differential(index, p, cancelled))

    for th in (Theory.KHOVANOV, Theory.LEE):
        # a fresh still per round, so CubeIndex resolves every vertex; one more counts calls
        def fresh():
            return cube.build_cube(diagram.parse_pd(torus2_pd(SWEEP_SIZE)), th)

        index, sweeps = best_of(5, fresh, CubeIndex, layer_sweeps)
        with counted(reduce, "_reduce") as calls:
            layer_sweeps(CubeIndex(fresh()))
        print(f"T(2,{SWEEP_SIZE}) {th.value}, best of 5 per part: CubeIndex {index * 1e3:.1f} ms, "
              f"layer sweeps {sweeps * 1e3:.1f} ms; {calls.call_count} _reduce calls")
    # label tables are kept for the process: each call parses its own still, as the CLI does
    with mock.patch.object(cube, "_TABLES", {}):
        for th in (Theory.KHOVANOV, Theory.LEE):
            (wall,) = best_of(20, lambda: diagram.parse_pd(torus2_pd(LIBRARY_SIZE)),
                              lambda d: homology(cube.build_cube(d, th)))
            print(f"homology() T(2,{LIBRARY_SIZE}) {th.value}: best of 20 calls, each on a "
                  f"freshly parsed still, {wall * 1e3:.2f} ms")
            homology(cube.build_cube(diagram.parse_pd(torus2_pd(TABLES_SIZE)), th))
        kept = cube._TABLES
    print(f"label tables kept after T(2,{LIBRARY_SIZE}) and T(2,{TABLES_SIZE}) Khovanov and "
          f"Lee: {len(kept)} tables, {sum(map(len, kept.values()))} rows")
    for th in (Theory.KHOVANOV, Theory.LEE):  # built again into an empty dict, traced
        ring = INT_RINGS[th]
        keys = [key for r, key in kept if r is ring]
        with mock.patch.object(cube, "_TABLES", {}):
            tracemalloc.start()
            for key in keys:
                cube.label_table(ring, key)
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
        print(f"  over {th.value}'s integer ring: {len(keys)} tables, "
              f"{sum(len(kept[ring, key]) for key in keys)} rows, {size / 2**20:.1f} MiB")


def diagrams(tmp: Path) -> None:
    """Diagram: still construction, resolve and circle_of"""
    for n in DIAGRAM_SIZES:
        raw = [(c.cid, c.arcs) for c in diagram.parse_pd(torus2_pd(n)).crossings]
        (wall,) = best_of(15, lambda: raw, diagram.LinkDiagram, number=1000)
        print(f"LinkDiagram construction, T(2,{n}) at {n} crossings: {wall * 1e6:.1f} us, "
              "best of 15")
    total = vertices = 0
    for n in RESOLVE_SIZES:
        # then the movie side's access: the arc -> circle dict, derived on first read
        wall, read = best_of(1, lambda: diagram.parse_pd(torus2_pd(n)),
                             lambda d: [diagram.resolve(d, mask) for mask in range(1 << n)],
                             lambda resolutions: [res.circle_of for res in resolutions])
        total, vertices = total + wall, vertices + (1 << n)
        print(f"resolve T(2,{n}): {wall / (1 << n) * 1e6:.1f} us per vertex, "
              f"then reading circle_of: {read / (1 << n) * 1e6:.1f} us per vertex")
    print(f"resolve {' and '.join(f'T(2,{n})' for n in RESOLVE_SIZES)}: "
          f"{total / vertices * 1e6:.1f} us per vertex, mean over {vertices} vertices")


def movies(tmp: Path) -> None:
    """Movie: replay, the sweeps and the CLI"""
    workloads = bench_workloads()
    detours = {n: json.dumps({"movie": workloads.detour_movie(khoval, random.Random(1), 1, n)})
               for n in {REPLAY_DETOUR, *SWEEP_DETOURS, *MOVIE_CLI_DETOURS}}
    trivial = json.dumps(cobordism.movie_to_json(cobordism.trivial_surface_movie(REPLAY_GENUS)))

    def replayed(text: str) -> cobordism.Movie:  # parsed and rewritten, as `khoval movie` starts
        m = cobordism.movie_from_json(json.loads(text))
        m.validate()
        return m

    for name, text in ((f"trivial genus-{REPLAY_GENUS} movie", trivial),
                       (f"detour at {REPLAY_DETOUR} crossings (seed 1)", detours[REPLAY_DETOUR])):
        events = len(json.loads(text)["movie"])
        (wall,) = best_of(15, lambda: text, replayed, number=50)
        print(f"replay (movie_from_json plus validate), {name}: "
              f"{wall / events * 1e6:.1f} us per event over {events} events")
    # the first sweep plans every (event, vertex) it reaches; a second one reuses every
    # rewrite, resolution and plan of the replayed movie, so it times the per-term work alone
    for n in SWEEP_DETOURS:
        for what, theories, evaluate in (
                ("BN+KJ", (Theory.BAR_NATAN, Theory.KHOVANOV), cobordism.bn_and_kj),
                ("Lee", (Theory.LEE,), cobordism.lee_value)):
            def sweep(m):
                evaluate(m, cap=CAP)
                return m

            first, second = best_of(5, lambda: replayed(detours[n]), sweep, sweep)
            # a map is applied to each term of the element before its event
            sizes = [[len(x.terms) for x in xs]
                     for xs in cobordism._sweep(replayed(detours[n]), theories, cap=CAP)]
            applied = ", ".join(f"{th.value} {sum(s[i] for s in sizes[:-1])}"
                                for i, th in enumerate(theories))
            print(f"movie sweep, genus-1 detour at {n} crossings, {what}: best of 5, first "
                  f"{first * 1e3:.1f} ms, second {second * 1e3:.1f} ms; peak element "
                  f"{max(map(max, sizes))} terms; term applications over {len(sizes) - 1} "
                  f"events: {applied}")
    for n in MOVIE_CLI_DETOURS:
        path = tmp / f"detour{n}.json"
        path.write_text(detours[n])
        for theory, what in (("bar-natan", "BN+KJ"), ("lee", "Lee")):
            wall, _, status, out = run_child(["-m", "khoval.cli", "movie", str(path), "--format",
                                              "json", "--cap", str(CAP), "--theory", theory], tmp)
            print(f"khoval movie, genus-1 detour at {n} crossings, {what}: {wall:.2f} s "
                  f"{out.strip()} (exit {status})")


def r3_maps(tmp: Path) -> None:
    """R3: map time and coefficient counts"""
    r3 = ESI("r3", variant="braid", crossings=(1, 2, 3))

    def images(d, target, th):
        src = cube.build_cube(d, th)
        f = cobordism.esi_chain_map(r3, src, cube.build_cube(target, th), th)
        return [f.of_generator(g) for g in src.generators()]

    # the braid s1 s2 s1 kinked off the triangle's sides, and its mirror (B the 0-face): the first
    # theory builds the map, the others apply it; TPolys are made by __init__ or _of
    for name, code in (("braid", PD_CODES["braid_closure"]), ("mirrored braid", MIRRORED_BRAID)):
        d = diagram.parse_pd(code)
        for arcs in R3_KINKS:
            for arc, variant in zip(arcs, ("add_pos", "add_neg")):
                d = apply_esi(d, ESI("r1", variant=variant, arc=arc))
            target = apply_esi(d, r3)
            for th in (Theory.KHOVANOV, Theory.BAR_NATAN, Theory.LEE):
                (wall,) = best_of(1, lambda: None, lambda _: images(d, target, th))
                with (counted(TPoly, "__init__") as init, counted(TPoly, "_of") as of,
                      counted(TPoly, "__neg__") as neg, counted(TPoly, "__eq__") as eq):
                    count = len(images(d, target, th))
                made = init.call_count + of.call_count
                print(f"R3 map, kinked {name} triangle at {d.n} crossings, {th.value}: "
                      f"{wall * 1e3:.1f} ms for {count} generator images, {made} TPoly made, "
                      f"{neg.call_count} TPoly negations, {eq.call_count} TPoly == comparisons")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(khoval.__file__).parent, Path(tmp) / "khoval",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for section in (code_and_startup, homologies, diagrams, movies, r3_maps):
            print(f"### {section.__doc__}\n```", flush=True)
            section(Path(tmp))
            print("```", flush=True)


if __name__ == "__main__":
    main()
