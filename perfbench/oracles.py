"""Reference values that do not come from the code under test.

* `jones` is a Kauffman state sum in Bar-Natan's normalization
  (J(unknot) = q + 1/q), with its own PD orientation solver; the graded Euler
  characteristic of every Khovanov table must equal it.
* `components` counts link components, so the Lee free rank can be checked
  against 2^components.
* `genus_of` reads the genus of a closed movie from its Euler characteristic
  (births + deaths - saddles = 2 - 2g), and `expected_bn` is the value the
  genus theorem gives for it.
"""

from __future__ import annotations

import re

_X = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)$")


def parse_x(text: str) -> list[tuple[int, int, int, int]]:
    """The crossings of a PD text made only of `X(a,b,c,d)` tokens."""
    out = []
    for token in text.split():
        m = _X.match(token)
        if not m:
            raise ValueError(f"unexpected PD token {token!r}")
        out.append(tuple(int(g) for g in m.groups()))
    return out


def _occurrences(xs):
    occ: dict[int, list[tuple[int, int]]] = {}
    for c, arcs in enumerate(xs):
        for slot, a in enumerate(arcs):
            occ.setdefault(a, []).append((c, slot))
    for a, places in occ.items():
        if len(places) != 2:
            raise ValueError(f"arc {a} occurs {len(places)} times")
    return occ


def signs(xs) -> list[int]:
    """Crossing signs: +1 exactly when the over-strand enters at slot 1.

    Slot 0 is incoming and slot 2 outgoing by the PD convention; the
    direction of the over-strand is propagated along its component.
    """
    occ = _occurrences(xs)
    incoming: dict[tuple[int, int], bool] = {}
    todo = []
    for c in range(len(xs)):
        todo += [((c, 0), True), ((c, 2), False)]
    while todo:
        place, inc = todo.pop()
        known = incoming.get(place)
        if known is not None:
            if known != inc:
                raise ValueError("PD code cannot be oriented")
            continue
        incoming[place] = inc
        c, slot = place
        a = xs[c][slot]
        other = [p for p in occ[a] if p != place] or [place]
        todo.append((other[0], not inc))
        if slot in (1, 3):
            todo.append(((c, 4 - slot), not inc))
    out = []
    for c in range(len(xs)):
        if (c, 1) not in incoming:
            raise ValueError("a component never passes under; orientation is free")
        out.append(1 if incoming[(c, 1)] else -1)
    return out


class _DSU:
    def __init__(self, items):
        self.parent = {a: a for a in items}

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> int:
        return len({self.find(a) for a in self.parent})


def components(xs) -> int:
    """Number of link components: strands run slot 0 -> 2 and 1 <-> 3."""
    dsu = _DSU({a for arcs in xs for a in arcs})
    for a0, a1, a2, a3 in xs:
        dsu.union(a0, a2)
        dsu.union(a1, a3)
    return dsu.classes()


def _poly_mul(p: dict[int, int], r: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def jones(xs) -> dict[int, int]:
    """Unnormalized Jones polynomial {q exponent: coefficient}.

    J(D) = (-1)^n_- q^(n_+ - 2 n_-) * sum over states s of
    (-q)^|s| (q + 1/q)^circles(s), where the 0-smoothing of a crossing is
    its oriented smoothing at a positive crossing: slots (0,3) and (1,2).
    """
    sg = signs(xs)
    n = len(xs)
    n_minus = sg.count(-1)
    n_plus = n - n_minus
    arcs = sorted({a for c in xs for a in c})
    powers = [{0: 1}]
    total: dict[int, int] = {}
    for state in range(1 << n):
        dsu = _DSU(arcs)
        for j, (a0, a1, a2, a3) in enumerate(xs):
            if (state >> j) & 1:
                dsu.union(a0, a1)
                dsu.union(a2, a3)
            else:
                dsu.union(a0, a3)
                dsu.union(a1, a2)
        k = dsu.classes()
        while len(powers) <= k:
            powers.append(_poly_mul(powers[-1], {1: 1, -1: 1}))
        r = state.bit_count()
        sign = -1 if r % 2 else 1
        for e, c in powers[k].items():
            total[e + r] = total.get(e + r, 0) + sign * c
    shift = n_plus - 2 * n_minus
    overall = -1 if n_minus % 2 else 1
    return {e + shift: overall * c for e, c in total.items() if c}


def euler_of_table(rows) -> dict[int, int]:
    """Graded Euler characteristic of a Khovanov table (torsion drops out)."""
    out: dict[int, int] = {}
    for row in rows:
        if row["free_rank"]:
            sign = -1 if row["i"] % 2 else 1
            out[row["q"]] = out.get(row["q"], 0) + sign * row["free_rank"]
    return {e: c for e, c in out.items() if c}


# -- movies ------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(\d+))?)?$")


def parse_tpoly(text: str) -> dict[int, int]:
    """Parse the printed form of a polynomial in t, such as `8*t` or `2 - t^2`."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, int] = {}
    sign = 1
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        if token[0] in "+-":
            sign = -1 if token[0] == "-" else 1
            token = token[1:]
        m = _TERM.match(token)
        if not m or not token:
            raise ValueError(f"cannot parse polynomial term {token!r} in {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exp = 0 if not m.group(2) else int(m.group(3) or 1)
        out[exp] = out.get(exp, 0) + sign * coeff
        sign = 1
    return {e: c for e, c in out.items() if c}


def genus_of(events: list[dict]) -> int:
    """Genus of the closed orientable surface a closed movie describes."""
    kinds = [e["op"] for e in events]
    chi = kinds.count("birth") + kinds.count("death") - kinds.count("saddle")
    if chi % 2 or chi > 2:
        raise ValueError(f"Euler characteristic {chi} is not that of a closed surface")
    return (2 - chi) // 2


def expected_bn(genus: int) -> dict[int, int]:
    """BN of a genus-g surface: 0 for even g, 2^g t^((g-1)/2) for odd g."""
    return {(genus - 1) // 2: 2 ** genus} if genus % 2 else {}


def at(poly: dict[int, int], t: int) -> int:
    return sum(c * t ** e for e, c in poly.items())
