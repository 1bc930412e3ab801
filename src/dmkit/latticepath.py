"""Two-path lattice regions and the delta-matroids they generate.

A region is bounded by a lower path P from (0,0) to (u+c, v-c), an upper
path Q from (-d, d) to (u, v), and the two anti-diagonal segments joining
their endpoints.  Every in-region path from a start point s_i to an end
point t_j has exactly u+v steps, and the label of a step equals the
coordinate sum of its endpoint, so the in-region north-step label sets are
subsets of {1, ..., u+v}.

Internally a path is its height profile h(level) for level = x+y from 0 to
u+v; the region is the set of points between the two profiles on each
level.  Families of label sets are manipulated as family bitmaps (big
ints over 2**(u+v) bit positions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from operator import gt, or_
from typing import Iterator, NamedTuple

from .bitset import layer_selectors
from .errors import CapacityError, FormatError, InvalidRegionError, UnknownElementError
from .matroid import Matroid, envelope_bitmap, is_quotient_bitmap
from .setsystem import SetSystem, decode_json

PATH_COUNT_CAP = 10**7


@lru_cache(maxsize=1 << 16)
def _heights(word: str, start_y: int) -> tuple[int, ...]:
    return tuple(accumulate((step == "N" for step in word), initial=start_y))


def _word_from_heights(hs) -> str:
    return "".join("N" if b > a else "E" for a, b in zip(hs, hs[1:]))


@dataclass(frozen=True)
class Region:
    """A two-path region in normalized coordinates (s_P at the origin);
    constructing one raises InvalidRegionError unless it is valid."""

    d: int
    c: int
    u: int
    v: int
    p_word: str
    q_word: str

    @property
    def n(self) -> int:
        return self.u + self.v

    @property
    def hp(self) -> tuple[int, ...]:
        """Lower-path height per level; hp[l] is the y of P at x+y = l."""
        return _heights(self.p_word, 0)

    @property
    def hq(self) -> tuple[int, ...]:
        return _heights(self.q_word, self.d)

    def __post_init__(self) -> None:
        diags = self.diagnostics()
        if diags:
            raise InvalidRegionError("; ".join(diags))

    @classmethod
    def _valid(cls, d: int, c: int, u: int, v: int, p_word: str, q_word: str) -> Region:
        """A region whose fields are known to be valid, built unchecked."""
        region = cls.__new__(cls)
        region.__dict__.update(d=d, c=c, u=u, v=v, p_word=p_word, q_word=q_word)
        return region

    def labels(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(1, self.n + 1))

    def diagnostics(self) -> list[str]:
        """All violated region constraints, first one first; the
        constructor raises them, so a built region has none."""
        out = []
        d, c, u, v = self.d, self.c, self.u, self.v
        if min(d, c, u, v) < 0:
            out.append("offsets and endpoint coordinates must be nonnegative")
        if v - c < d:
            out.append(f"v - c = {v - c} is below d = {d}")
        if (self.p_word + self.q_word).strip("EN"):  # a step other than E or N
            out.append("path words must use steps E and N only")
            return out
        hp, hq = self.hp, self.hq
        if len(hp) != u + v + 1:
            out.append(f"P has {len(hp) - 1} steps, expected {u + v}")
        elif hp[-1] != v - c:
            out.append(f"P ends at height {hp[-1]}, expected {v - c}")
        if len(hq) != u + v + 1:
            out.append(f"Q has {len(hq) - 1} steps, expected {u + v}")
        elif hq[-1] != v:
            out.append(f"Q ends at height {hq[-1]}, expected {v}")
        if not out and any(map(gt, hp, hq)):
            level = next(level for level, (a, b) in enumerate(zip(hp, hq)) if a > b)
            out.append(f"P crosses above Q at level {level}")
        return out


class LatticePath(NamedTuple):
    """An in-region path from start point s_i to end point t_j."""

    start: int
    end: int
    word: str

    def north_labels(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, step in enumerate(self.word) if step == "N")


@lru_cache(maxsize=1 << 16)
def _side_bitmap(word: str, start: int, above: bool) -> int:
    """Family bitmap of the label sets X of {1, ..., len(word)} whose path,
    at height |X & [l]| on level l, stays at or above (above=True) or at or
    below (above=False) the path of word started at height start.

    Adding the north step into level l shifts a family bitmap left by
    2**(l-1) bits, since a path at level l has used labels 1..l only.
    """
    row = [1]  # row[y] = family bitmap of the paths at height y on this level
    for level, h in enumerate(_heights(word, 0)):
        if level:
            shift = 1 << (level - 1)
            row = [east | north << shift for east, north in zip(row + [0], [0] + row)]
        bound = start + h
        row = [bm if (y >= bound if above else y <= bound) else 0 for y, bm in enumerate(row)]
    return reduce(or_, row, 0)


def _all_paths_bitmap(region: Region) -> int:
    """Family bitmap of the north-label sets of the in-region paths from
    every start point to every end point.

    A path from s_i (height i) with north labels X is at height
    i + |X & [l]| on level l, so it lies in the region exactly when it
    stays at or above P (P starts i below it) and at or below Q (Q starts
    d - i above it): the family is the union over i of two one-sided
    families, each cached per bounding word.  A path from s_i to t_j has
    v - c + j - i north steps, so the paths from s_Q to t_P are the label
    sets of size v - c - d and those from s_P to t_Q the label sets of
    size v: the minimal and maximal matroids are the extreme layers of the
    family.
    """
    d, p_word, q_word = region.d, region.p_word, region.q_word
    out = 0
    for i in range(d + 1):
        out |= _side_bitmap(p_word, -i, True) & _side_bitmap(q_word, d - i, False)
    return out


def _two_sided_paths_bitmap(region: Region) -> int:
    """Slow reference for _all_paths_bitmap: one level DP over the points
    between both bounding paths."""
    hp, hq = region.hp, region.hq
    # maps[y] = family bitmap of paths reaching the current level at height y
    maps = dict.fromkeys(range(hp[0], hq[0] + 1), 1)
    for level in range(1, region.n + 1):
        nxt: dict[int, int] = {}
        lo, hi = hp[level], hq[level]
        shift = 1 << (level - 1)
        for y, bm in maps.items():
            if lo <= y <= hi:
                nxt[y] = nxt.get(y, 0) | bm
            if lo <= y + 1 <= hi:
                nxt[y + 1] = nxt.get(y + 1, 0) | (bm << shift)
        maps = nxt
    out = 0
    for bm in maps.values():
        out |= bm
    return out


def _matroid_bitmaps(region: Region, d_bm: int) -> tuple[int, int]:
    """Basis bitmaps of the minimal and maximal matroids, cut from the
    path family d_bm of the region."""
    selectors = layer_selectors(region.n)
    return d_bm & selectors[region.v - region.c - region.d], d_bm & selectors[region.v]


def count_paths(region: Region) -> int:
    """Number of in-region paths between all start and end points."""
    hp, hq = region.hp, region.hq
    counts = {y: 1 for y in range(hp[0], hq[0] + 1)}
    for level in range(1, region.n + 1):
        nxt: dict[int, int] = {}
        lo, hi = hp[level], hq[level]
        for y, k in counts.items():
            for y2 in (y, y + 1):
                if lo <= y2 <= hi:
                    nxt[y2] = nxt.get(y2, 0) + k
        counts = nxt
    return sum(counts.values())


def enumerate_paths(region: Region, cap: int = PATH_COUNT_CAP) -> list[LatticePath]:
    """Every in-region path from every s_i to every t_j, exactly once."""
    total = count_paths(region)
    if total > cap:
        raise CapacityError(f"{total} paths exceed the cap of {cap}")
    hp, hq = region.hp, region.hq
    n = region.n
    out: list[LatticePath] = []

    def walk(level: int, y: int, word: list[str]) -> None:
        if level == n:
            out.append(LatticePath(start_i, y - hp[n], "".join(word)))
            return
        lo, hi = hp[level + 1], hq[level + 1]
        if lo <= y <= hi:
            word.append("E")
            walk(level + 1, y, word)
            word.pop()
        if lo <= y + 1 <= hi:
            word.append("N")
            walk(level + 1, y + 1, word)
            word.pop()

    for start_i in range(0, region.d + 1):
        y0 = start_i
        if hp[0] <= y0 <= hq[0]:
            walk(0, y0, [])
    return out


class LpdmResult(NamedTuple):
    system: SetSystem
    min_matroid: Matroid
    max_matroid: Matroid


def lpdm(region: Region) -> LpdmResult:
    """The lattice path delta-matroid of a region with its two matroids.

    Raises InvalidRegionError with the failure tag of verify_region_prop,
    which checks the quotient and full-Higgs claims on the way.
    """
    if failure := verify_region_prop(region):
        raise InvalidRegionError(failure)
    labels = region.labels()
    d_bm = _all_paths_bitmap(region)
    lo_bm, hi_bm = _matroid_bitmaps(region, d_bm)
    lo = Matroid.from_system(SetSystem.from_bitmap(labels, lo_bm))
    hi = Matroid.from_system(SetSystem.from_bitmap(labels, hi_bm))
    return LpdmResult(SetSystem.from_bitmap(labels, d_bm), lo, hi)


def region_dual(region: Region) -> Region:
    """Flip the diagram so starts and ends exchange; d and c swap roles.

    The dual region's delta-matroid is the dual of the original one after
    the label reversal e -> n+1-e induced by the flip.  The dual of a
    valid region is valid, so it is built unchecked.
    """

    def flip(word: str) -> str:
        return "".join("E" if s == "N" else "N" for s in reversed(word))

    c, d = region.c, region.d
    return Region._valid(c, d, region.v - c - d, region.u + c + d,
                         flip(region.p_word), flip(region.q_word))


def _delete_heights(region: Region, e: int) -> tuple[list[int], list[int]]:
    """Height profiles after deleting a non-coloop element e: erase the
    north steps into level e and shrink the east steps to points, gluing
    level e-1 of the left half to level e of the right half."""
    hp, hq = region.hp, region.hq
    # Glue interval: points with an east step across the cut.
    new_p = list(hp[: e - 1]) + list(hp[e:])
    new_q = list(hq[:e]) + list(hq[e + 1 :])
    return new_p, new_q


def _normalize_profiles(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Restore the region parameterization without changing the path image.

    First trim to the points that lie on some start-to-end path.  The
    result can still be skew (no corner-to-corner path); in that case the
    top end point (when v > n) or the top start point (when the lower
    path ends below the upper start) only carries paths that stay
    strictly above the lower path, so they translate one anti-diagonal
    step down and the point can be dropped.
    """
    n = len(p) - 1
    for level in range(1, n + 1):
        p[level] = max(p[level], p[level - 1])
        q[level] = min(q[level], q[level - 1] + 1)
    for level in range(n - 1, -1, -1):
        p[level] = max(p[level], p[level + 1] - 1)
        q[level] = min(q[level], q[level + 1])
    while True:
        if q[n] - p[0] > n:
            q[n] -= 1
            for level in range(n - 1, -1, -1):
                q[level] = min(q[level], q[level + 1])
        elif p[n] < q[0]:
            q[0] -= 1
            for level in range(1, n + 1):
                q[level] = min(q[level], q[level - 1] + 1)
        else:
            return p, q


def _region_from_heights(raw_p: list[int], raw_q: list[int]) -> Region:
    new_p, new_q = _normalize_profiles(list(raw_p), list(raw_q))
    shift = new_p[0]
    new_p = [h - shift for h in new_p]
    new_q = [h - shift for h in new_q]
    n = len(new_p) - 1
    v = new_q[-1]
    c = v - new_p[-1]
    return Region(
        d=new_q[0],
        c=c,
        u=n - v,
        v=v,
        p_word=_word_from_heights(new_p),
        q_word=_word_from_heights(new_q),
    )


def element_kind(region: Region, e: int) -> str:
    """'loop', 'coloop', or 'neither' for label e of the region's LPDM.

    A loop has no in-region north step at level e (the bounding paths
    pinch through an east step there); a coloop has no east step.
    """
    if not 1 <= e <= region.n:
        raise UnknownElementError(f"label {e} outside 1..{region.n}")
    hp, hq = region.hp, region.hq
    if hq[e] == hp[e - 1]:
        return "loop"
    if hp[e] > hq[e - 1]:
        return "coloop"
    return "neither"


def region_minor(region: Region, e: int, op: str) -> Region:
    """Delete or contract label e at the region level.

    Deleting a coloop contracts it (and dually), matching the set-system
    conventions; contraction is dual-delete-dual with the flipped label.
    Only the one region built from height profiles is checked.
    """
    if op not in ("delete", "contract"):
        raise ValueError(f"op must be 'delete' or 'contract', not {op!r}")
    kind = element_kind(region, e)
    if kind == "loop" or op == "delete" and kind != "coloop":
        return _region_from_heights(*_delete_heights(region, e))
    return region_dual(region_minor(region_dual(region), region.n + 1 - e, "delete"))


# -- region file format --------------------------------------------------


def parse_region(text: str) -> Region:
    doc = decode_json(text)
    try:
        *coords, p_word, q_word = (doc[key] for key in ("d", "c", "u", "v", "P", "Q"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"region JSON needs d, c, u, v, P, Q: {exc}") from None
    # type(), not isinstance(): JSON true and false are bools, a subclass of int
    if any(type(x) is not int for x in coords):
        raise FormatError("region coordinates d, c, u, v must be integers")
    if not isinstance(p_word, str) or not isinstance(q_word, str):
        raise FormatError("region path words P, Q must be strings")
    return Region(*coords, p_word, q_word)


def serialize_region(region: Region) -> str:
    return json.dumps(
        {
            "d": region.d,
            "c": region.c,
            "u": region.u,
            "v": region.v,
            "P": region.p_word,
            "Q": region.q_word,
        },
        separators=(", ", ": "),
    )


def region_svg(region: Region) -> str:
    """A small standalone SVG drawing of the region and its label grid."""
    scale, pad = 28, 30
    hp, hq = region.hp, region.hq

    def pt(x: int, y: int) -> tuple[float, float]:
        top = max(hq) + 1
        return (pad + (x + region.d) * scale, pad + (top - y) * scale)

    lines = []
    for level in range(region.n + 1):
        for y in range(hp[level], hq[level] + 1):
            x = level - y
            cx, cy = pt(x, y)
            lines.append(
                f'<circle cx="{cx}" cy="{cy}" r="2.2" fill="#444"/>'
            )
    for word, h0, color in ((region.p_word, 0, "#d62728"), (region.q_word, region.d, "#1f77b4")):
        y = h0
        x = -h0  # P starts at (0,0), Q at (-d, d)
        pts = [pt(x, y)]
        for step in word:
            if step == "N":
                y += 1
            else:
                x += 1
            pts.append(pt(x, y))
        path = " ".join(f"{px},{py}" for px, py in pts)
        lines.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2.5"/>'
        )
    width = pad * 2 + (region.u + region.c + region.d + 1) * scale
    height = pad * 2 + (max(hq) + 2) * scale
    body = "\n".join(lines)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f"{body}\n</svg>\n"
    )


@lru_cache(maxsize=None)
def _profiles(total: int, norths: int, start_y: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    out = []
    for positions in combinations(range(total), norths):
        word = "".join("N" if i in positions else "E" for i in range(total))
        out.append((word, _heights(word, start_y)))
    return tuple(out)


def iter_regions(max_size: int) -> Iterator[Region]:
    """Every valid region with u + v up to max_size, exhaustively."""
    for total in range(max_size + 1):
        for v in range(total + 1):
            u = total - v
            for d in range(v + 1):
                for c in range(v - d + 1):
                    ps = _profiles(total, v - c, 0)
                    qs = _profiles(total, v - d, d)
                    for p_word, hp in ps:
                        for q_word, hq in qs:
                            if not any(map(gt, hp, hq)):
                                yield Region._valid(d, c, u, v, p_word, q_word)


def verify_region_prop(region: Region) -> str | None:
    """The paper's claims for one region, on bitmaps: the path family is
    the full Higgs lift family of its extreme layers (spanning in the
    minimal matroid and independent in the maximal one), and the minimal
    matroid is a quotient of the maximal.  Returns None when both hold,
    else a short failure tag, which lpdm raises.
    """
    n = region.n
    d_bm = _all_paths_bitmap(region)
    lo_bm, hi_bm = _matroid_bitmaps(region, d_bm)
    if d_bm != envelope_bitmap(lo_bm, hi_bm, n):
        return "path image differs from full Higgs lift family"
    if not is_quotient_bitmap(lo_bm, hi_bm, n):
        return "minimal matroid is not a quotient of the maximal"
    return None
