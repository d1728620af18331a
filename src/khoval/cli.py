"""Command-line interface: homology tables, Jones cross-checks, movie evaluation.

Commands
    homology   bigraded integral homology of a diagram (khovanov or lee)
    jones      graded Euler characteristic next to the bracket oracle
    movie      evaluate a movie file: deformed and plain invariants
    stills     dump every still of a movie with its arc/crossing/circle ids
    verify     run the built-in invariant suites

Diagram inputs are PD text (or a path to a file containing it); movie inputs
are JSON files.  Each command takes only the flags it reads: `homology` and
`movie` --theory, --format and --cap, `jones` --format and --cap, `verify`
--cap, `stills` none.  Defaults can be overridden with KHOVAL_THEORY,
KHOVAL_FORMAT and KHOVAL_CAP, which are checked like the flags.

Exit codes: 2 parse failure or usage error, 3 theory guard, 4 cap exceeded,
5 movie validation failure, 1 any other engine error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import LABEL_NAMES, Theory
from .cobordism import (
    Movie,
    bn_and_kj,
    kj_number,
    lee_value,
    movie_from_json,
    punctured_eval,
)
from .corpus import verify_all
from .cube import DEFAULT_CAP, build_cube
from .diagram import parse_pd, serialize_pd
from .errors import (
    CapExceededError,
    KhovalError,
    ParseError,
    TheoryError,
    ValidationError,
)
from .homology import graded_euler, homology, kauffman_jones


FORMATS = ("human", "csv", "json")
# the exit code of each error class, the most specific first
EXIT_CODES = ((ValidationError, 5), (CapExceededError, 4), (TheoryError, 3), (ParseError, 2),
              (KhovalError, 1))


def _format(value: str) -> str:
    # argparse checks `choices` on flags only; `type` sees the default too
    if value not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(map(repr, FORMATS))})"
        )
    return value


def _cap(value: str) -> int:
    # a `type`, like `_format`, so a KHOVAL_CAP default is refused like the flag
    try:
        cap = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"invalid value: {value!r} (a cap is at least 0)")
    return cap


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the current KHOVAL_THEORY, KHOVAL_FORMAT and KHOVAL_CAP."""
    return _parser(*(os.environ.get(f"KHOVAL_{name}") for name in ("THEORY", "FORMAT", "CAP")))


@functools.cache
def _parser(theory: str | None, fmt: str | None, cap: str | None) -> argparse.ArgumentParser:
    # argparse converts string defaults with `type` on every parse: still checked per call
    def _add_theory(p: argparse.ArgumentParser, default: str) -> None:
        p.add_argument("--theory", default=default if theory is None else theory,
                       help="khovanov | bar-natan | lee")

    def _add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", type=_format, choices=FORMATS,
                       default="human" if fmt is None else fmt)

    def _add_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=_cap, default=str(DEFAULT_CAP) if cap is None else cap)

    parser = argparse.ArgumentParser(
        prog="khoval",
        description="Exact link homology and surface-knot invariants from movies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="bigraded integral homology table")
    p.add_argument("input", help="PD text or a file containing it")
    _add_theory(p, "khovanov")
    _add_format(p)
    _add_cap(p)

    p = sub.add_parser("jones", help="graded Euler characteristic vs bracket oracle")
    p.add_argument("input", help="PD text or a file containing it")
    _add_format(p)
    _add_cap(p)

    p = sub.add_parser("movie", help="evaluate a movie file")
    p.add_argument("input", help="movie JSON file (or inline JSON)")
    p.add_argument("--punctured", action="store_true",
                   help="evaluate as a punctured movie instead of a closed one")
    p.add_argument("--label", choices=LABEL_NAMES,
                   help="starting label for a punctured unknot-to-empty movie (default v-)")
    _add_theory(p, "bar-natan")
    _add_format(p)
    _add_cap(p)

    p = sub.add_parser("stills", help="dump the stills of a movie with their ids")
    p.add_argument("input", help="movie JSON file (or inline JSON)")

    p = sub.add_parser("verify", help="run the built-in invariant suites")
    _add_cap(p)
    return parser


# -- input helpers ------------------------------------------------------------------


def _read_text(value: str) -> str:
    if not os.path.isfile(value):
        return value
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {value}: {exc}") from exc


def _load_diagram(value: str):
    return parse_pd(_read_text(value).strip())


def _load_movie(value: str) -> Movie:
    text = _read_text(value)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"movie input is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("movie input is nested too deeply") from None
    return movie_from_json(obj)


# -- renderers ----------------------------------------------------------------------


def _homology_rows(groups: dict, graded: bool) -> list[dict]:
    rows = []
    for key in sorted(groups):
        i, q = key if graded else (key, None)
        g = groups[key]
        rows.append(
            {"i": i, "q": q, "free_rank": g.free_rank, "torsion": list(g.torsion)}
        )
    return rows


def _render_homology(rows: list[dict], theory: Theory, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"theory": theory.value, "rows": rows}, sort_keys=True)
    if fmt == "csv":
        lines = ["i,q,free_rank,torsion"]
        for r in rows:
            q = "" if r["q"] is None else r["q"]
            tors = ";".join(str(t) for t in r["torsion"])
            lines.append(f"{r['i']},{q},{r['free_rank']},{tors}")
        return "\n".join(lines)
    header = f"{'i':>4} {'q':>4} {'rank':>5}  torsion"
    lines = [header, "-" * len(header)]
    for r in rows:
        q = "-" if r["q"] is None else r["q"]
        tors = ",".join(str(t) for t in r["torsion"]) or "-"
        lines.append(f"{r['i']:>4} {q:>4} {r['free_rank']:>5}  {tors}")
    return "\n".join(lines)


def _render_jones(euler, oracle, fmt: str) -> str:
    agree = euler == oracle
    if fmt == "json":
        payload = {"graded_euler": str(euler), "kauffman_jones": str(oracle), "agree": agree}
        return json.dumps(payload, sort_keys=True)
    if fmt == "csv":
        return "graded_euler,kauffman_jones,agree\n" + (
            f'"{euler}","{oracle}",{str(agree).lower()}'
        )
    return (
        f"graded_euler:   {euler}\n"
        f"kauffman_jones: {oracle}\n"
        f"agree:          {'yes' if agree else 'NO'}"
    )


def _render_element(element) -> str:
    if element.is_zero():
        return "0"
    parts = []
    for g in sorted(element.terms, key=lambda g: g.labels):
        (label,) = g.labels
        parts.append(f"({element.terms[g]})*{LABEL_NAMES[label]}")
    return " + ".join(parts)


# -- commands -----------------------------------------------------------------------


def _cmd_homology(args) -> int:
    theory = Theory.from_name(args.theory)
    if theory is Theory.BAR_NATAN:
        raise TheoryError("homology needs --theory khovanov or lee")
    d = _load_diagram(args.input)
    cube = build_cube(d, theory, cap=args.cap)
    groups = homology(cube)
    rows = _homology_rows(groups, graded=theory is Theory.KHOVANOV)
    print(_render_homology(rows, theory, args.format))
    return 0


def _cmd_jones(args) -> int:
    d = _load_diagram(args.input)
    cube = build_cube(d, Theory.KHOVANOV, cap=args.cap)
    euler = graded_euler(cube)
    oracle = kauffman_jones(d, cap=max(args.cap, 12))
    print(_render_jones(euler, oracle, args.format))
    return 0 if euler == oracle else 1


def _cmd_movie(args) -> int:
    if args.label is not None and not args.punctured:
        raise ParseError("--label applies only to a punctured movie (--punctured)")
    theory = Theory.from_name(args.theory)
    m = _load_movie(args.input)
    report = m.validate()
    if not report.ok:
        raise ValidationError(report.index, report.reason)
    if args.punctured:
        if m.initial == "unknot":
            name = args.label or "v-"
            value = punctured_eval(m, LABEL_NAMES.index(name), "to_empty", theory, cap=args.cap)
            payload = {"direction": "to_empty", "label": name, "value": str(value)}
            lines = [f"psi({name}) = {value}"]
        else:
            if args.label is not None:
                raise ParseError("--label applies only to a movie that starts at the unknot")
            element = punctured_eval(m, direction="from_empty", th=theory, cap=args.cap)
            payload = {"direction": "from_empty", "value": _render_element(element)}
            lines = [f"psi(1) = {payload['value']}"]
    elif theory is Theory.BAR_NATAN:
        bn, kj = bn_and_kj(m, cap=args.cap)
        payload = {"BN": str(bn), "KJ": kj}
        lines = [f"BN = {bn}", f"KJ = {kj}"]
    elif theory is Theory.KHOVANOV:
        kj = kj_number(m, cap=args.cap)
        payload = {"KJ": kj}
        lines = [f"KJ = {kj}"]
    else:
        lee = lee_value(m, cap=args.cap)
        payload = {"Lee": lee}
        lines = [f"Lee = {lee}"]
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(",".join(payload))
        print(",".join(str(v) for v in payload.values()))
    else:
        print("\n".join(lines))
    return 0


def _cmd_stills(args) -> int:
    m = _load_movie(args.input)
    stills, _, report = m.replay()
    for k, d in enumerate(stills):
        print(f"== still {k}")
        pd = serialize_pd(d)
        print(f"  pd: {pd if pd else '(empty)'}")
        if d.crossings:
            signs = (f"{c.cid}:X{c.arcs} sign {'+' if c.sign > 0 else '-'}" for c in d.crossings)
            print(f"  crossings: {' | '.join(signs)}")
        if d.loops:
            loops = (f"circle {min(lp)}: arcs {','.join(map(str, lp))}" for lp in d.loops)
            print(f"  free loops: {' | '.join(loops)}")
    if not report.ok:
        print(f"!! invalid at event {report.index}: {report.reason}")
    return 0


def _cmd_verify(args) -> int:
    results = verify_all(cap=args.cap)
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"homology": _cmd_homology, "jones": _cmd_jones, "movie": _cmd_movie,
                "stills": _cmd_stills, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except KhovalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
