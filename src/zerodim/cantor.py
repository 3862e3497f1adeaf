"""Exact computation on zero-dimensional symbol spaces.

Points of a product of finite discrete coordinate spaces are described
by a finite explicit window plus a rule for each infinite tail
(constant symbol or repeating pattern).  This description is closed
under every action in the package and makes equality and the standard
2^-k ultrametric decidable, so all distances come out as exact dyadic
fractions.

Clopen subsets are stored as a coordinate window plus the smaller side
of its patterns (the admitted or the excluded ones), each pattern as
one int code, kept in a canonical minimal-window form so that
structural equality is set equality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DomainError, PreconditionError, RangeError, ResourceCapError

WINDOW_CAP = 24          # widest clopen window the algebra will enumerate
PATTERN_CAP = 1 << 21    # most patterns a single clopen set may admit


# ---------------------------------------------------------------------------
# coordinate schemes


@dataclass(frozen=True)
class Scheme:
    """Index set and per-coordinate alphabet of a symbol space.

    ``kind`` is "two-sided" (coordinates are all integers) or
    "one-sided" (coordinates start at ``start``).  ``alphabet`` is a
    constant size, a tuple of sizes cycling from the start coordinate
    (one-sided schemes only), or the string "index" meaning coordinate
    n carries n symbols (requires a one-sided scheme starting at >= 2).
    """

    kind: str
    start: int = 0
    alphabet: object = 2

    def __post_init__(self):
        if self.kind not in ("two-sided", "one-sided"):
            raise DomainError("unknown scheme kind %r" % self.kind)
        if self.alphabet == "index":
            if self.kind != "one-sided" or self.start < 2:
                raise DomainError("index alphabets need a one-sided scheme "
                                  "starting at >= 2")
        elif isinstance(self.alphabet, tuple):
            if self.kind != "one-sided":
                raise DomainError("cycling alphabets need a one-sided scheme")
            if not self.alphabet or any(not (isinstance(s, int) and s >= 2)
                                        for s in self.alphabet):
                raise DomainError("cycling alphabet sizes must be ints >= 2")
        elif not (isinstance(self.alphabet, int) and self.alphabet >= 2):
            raise DomainError("alphabet must be an int >= 2, a tuple of such, "
                              "or 'index'")

    def size(self, n: int) -> int:
        self.check_coord(n)
        if self.alphabet == "index":
            return n
        if isinstance(self.alphabet, tuple):
            return self.alphabet[(n - self.start) % len(self.alphabet)]
        return self.alphabet

    def alphabet_period(self) -> int:
        return len(self.alphabet) if isinstance(self.alphabet, tuple) else 1

    def check_coord(self, n: int) -> None:
        if self.kind == "one-sided" and n < self.start:
            raise RangeError("coordinate %d below scheme start %d"
                             % (n, self.start))

    def offset(self, n: int) -> int:
        """Depth offset of a coordinate: how early it enters depth windows."""
        if self.kind == "two-sided":
            return abs(n)
        return n - self.start

    def coords_at_offset(self, k: int) -> tuple:
        if self.kind == "two-sided":
            return (k,) if k == 0 else (-k, k)
        return (self.start + k,)

    def depth_window(self, depth: int) -> tuple[int, int]:
        """Coordinate interval covered by offsets < depth."""
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        if self.kind == "two-sided":
            return (-(depth - 1), depth - 1)
        return (self.start, self.start + depth - 1)

    def to_json(self) -> dict:
        return {"kind": self.kind, "start": self.start,
                "alphabet": self.alphabet}


# ---------------------------------------------------------------------------
# tails and points


@dataclass(frozen=True)
class Tail:
    """Rule for one infinite side of a point: a constant symbol or a
    repeating pattern read outward from the window edge."""

    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise DomainError("tail needs at least one symbol")

    def at(self, k: int) -> int:
        """Symbol k steps beyond the anchor (k >= 0, outward)."""
        return self.symbols[k % len(self.symbols)]

    def period(self) -> int:
        return len(self.symbols)


def constant_tail(symbol: int) -> Tail:
    return Tail((symbol,))


def periodic_tail(pattern: Sequence[int]) -> Tail:
    return Tail(_primitive(tuple(pattern)))


def _primitive(pattern: tuple) -> tuple:
    n = len(pattern)
    for p in range(1, n + 1):
        if n % p == 0 and all(pattern[i] == pattern[i % p] for i in range(n)):
            return pattern[:p]
    return pattern


def reanchor_tail(tail: Tail, steps: int) -> Tail:
    """The same infinite tail read from an anchor moved ``steps``
    positions further out (steps >= 0)."""
    if steps < 0:
        raise PreconditionError("reanchor steps must be >= 0")
    s = tail.symbols
    k = steps % len(s)
    return Tail(s[k:] + s[:k]) if k else tail


@dataclass(frozen=True)
class Point:
    """One point, in canonical window-plus-tails form.

    ``window`` holds the symbols at coordinates lo..hi; ``right`` rules
    every coordinate above hi, ``left`` (two-sided schemes only) every
    coordinate below lo.  Construct through ``make_point`` which
    canonicalizes, so structural equality is equality of points.
    """

    scheme: Scheme
    lo: int
    hi: int
    window: tuple
    right: Tail
    left: Optional[Tail] = None

    def value(self, n: int) -> int:
        self.scheme.check_coord(n)
        if self.lo <= n <= self.hi:
            return self.window[n - self.lo]
        if n > self.hi:
            return self.right.at(n - self.hi - 1)
        if self.left is None:
            raise RangeError("coordinate %d below a one-sided window" % n)
        return self.left.at(self.lo - 1 - n)

    def span(self) -> int:
        """Largest depth offset touched by the explicit window."""
        if self.lo > self.hi:
            edge = (self.lo, self.lo - 1) if self.scheme.kind == "two-sided" \
                else (self.lo,)
            return max(self.scheme.offset(n) for n in edge)
        return max(self.scheme.offset(self.lo), self.scheme.offset(self.hi))

    def __repr__(self) -> str:
        left = _symbol_text(self.left.symbols[::-1]) + "..." \
            if self.left else ""
        win = _symbol_text(self.window)
        right = "..." + _symbol_text(self.right.symbols)
        return "<point ...%s[%s@%d]%s>" % (left, win, self.lo, right)


# byte s -> its decimal digit for s in 0..9, NUL for every other byte
_DIGITS = bytes(range(ord("0"), ord("9") + 1)).ljust(256, b"\0")


def _symbol_text(symbols: Sequence[int]) -> str:
    """The symbols written in decimal side by side.  A run of symbols
    in 0..9 goes through one byte-table translation; a run with any
    other symbol, which is not a byte or leaves a NUL, is joined
    through ``str``."""
    try:
        text = bytes(symbols).translate(_DIGITS)
    except ValueError:
        text = b"\0"
    if b"\0" in text:
        return "".join(map(str, symbols))
    return text.decode()


def _trusted_point(scheme: Scheme, lo: int, hi: int, window: tuple,
                   right: Tail, left: Optional[Tail] = None) -> Point:
    """A ``Point`` from fields that are already canonical, checking
    nothing.  The dataclass ``__init__`` sets each field through
    ``object.__setattr__``; this writes the instance's ``__dict__``
    directly, in field order, at about a third of the cost.  ``==``,
    ``hash``, ``repr`` and frozenness are the class's."""
    p = object.__new__(Point)
    d = p.__dict__
    d["scheme"] = scheme
    d["lo"] = lo
    d["hi"] = hi
    d["window"] = window
    d["right"] = right
    d["left"] = left
    return p


def make_point(scheme: Scheme, window: Mapping[int, int] | Sequence[int],
               right: Tail | int, left: Tail | int | None = None,
               lo: Optional[int] = None) -> Point:
    """Build a canonical point.

    ``window`` is either a coordinate->symbol mapping or a sequence laid
    out from ``lo`` (default: scheme start, or 0).  Tails may be given
    as bare symbols (constant).  One-sided schemes take no left tail and
    the window is anchored at the scheme start.  Every symbol must be an
    ``int`` (not a bool) inside its coordinate's alphabet.

    It validates the input, reduces the tails to primitive patterns,
    and hands the rest to ``canonical_point``.
    """
    if isinstance(right, int):
        right = constant_tail(right)
    if isinstance(left, int):
        left = constant_tail(left)

    if isinstance(window, Mapping):
        if window:
            coords = sorted(window)
            if coords != list(range(coords[0], coords[-1] + 1)):
                raise DomainError("window mapping must cover a contiguous "
                                  "coordinate interval")
            lo = coords[0]
            symbols = tuple(window[c] for c in coords)
        else:
            symbols = ()
            if lo is None:
                lo = scheme.start if scheme.kind == "one-sided" else 0
    else:
        symbols = tuple(window)
        if lo is None:
            lo = scheme.start if scheme.kind == "one-sided" else 0

    if scheme.kind == "one-sided":
        if left is not None:
            raise DomainError("one-sided schemes have no left tail")
        if lo != scheme.start:
            raise DomainError("one-sided windows must start at %d"
                              % scheme.start)
    elif left is None:
        raise DomainError("two-sided schemes need a left tail")

    _check_symbols(scheme, lo, symbols)
    # check the tails as given: reducing first would let 1.0 or True
    # merge into a repeat of 1 and vanish unchecked
    _check_tails(scheme, lo, lo + len(symbols) - 1, right, left)
    right = Tail(_primitive(right.symbols))
    if left is not None:
        left = Tail(_primitive(left.symbols))
    return canonical_point(scheme, lo, symbols, right, left)


def canonical_point(scheme: Scheme, lo: int, symbols: tuple, right: Tail,
                    left: Optional[Tail] = None) -> Point:
    """The one canonical form of a point, shared by ``make_point`` and
    the actions that build points themselves.

    It checks nothing: ``symbols`` (a tuple laid out from ``lo``) must
    be valid at their coordinates and both tails primitive.  It absorbs
    window edges that merely repeat the tails (the k-th symbol in from
    an edge is absorbed when it equals the tail's pattern read k steps
    back across the edge) and anchors an empty window by coordinate, in
    ``_normalize_empty``.  The absorb step reads only the window and
    the tails, never a coordinate, so a translate of a canonical point
    with a non-empty window is canonical as it stands (``shift_point``
    relies on this).
    """
    width = end = len(symbols)
    r = right.symbols
    while end and symbols[end - 1] == r[(end - width - 1) % len(r)]:
        end -= 1
    right = reanchor_tail(right, (end - width) % len(r))
    hi = lo + end - 1
    start = 0
    if left is not None:
        l = left.symbols
        while start < end and symbols[start] == l[(-1 - start) % len(l)]:
            start += 1
        left = reanchor_tail(left, -start % len(l))
        lo += start

    if start == end:
        lo, hi, left, right = _normalize_empty(scheme, lo, left, right)
    return _trusted_point(scheme, lo, hi, symbols[start:end], right, left)


def _is_symbol(s, size: int) -> bool:
    """The one symbol test: exactly an ``int`` (a bool or a float is
    rejected, so equal points serialize alike) in ``range(size)``."""
    return type(s) is int and 0 <= s < size


def _check_symbol(scheme: Scheme, n: int, s: int) -> None:
    if not _is_symbol(s, scheme.size(n)):
        raise RangeError("symbol %r invalid at coordinate %d (alphabet %d)"
                         % (s, n, scheme.size(n)))


def _all_symbols(symbols: Sequence, size: int) -> bool:
    """Whether ``_is_symbol(s, size)`` holds for every symbol, in three
    C-level passes: the types, the least and the greatest."""
    return not symbols or (set(map(type, symbols)) == {int}
                           and min(symbols) >= 0 and max(symbols) < size)


def _check_symbols(scheme: Scheme, first: int, symbols: Sequence) -> None:
    """Check symbols laid out at coordinates first, first + 1, ...;
    integer alphabets take one ``_all_symbols`` pass, and the
    per-coordinate loop runs only for the other alphabets or to name
    the bad symbol."""
    size = scheme.alphabet
    if isinstance(size, int) and _all_symbols(symbols, size):
        return
    for n, s in enumerate(symbols, first):
        _check_symbol(scheme, n, s)


def _check_tails(scheme: Scheme, lo: int, hi: int, right: Tail,
                 left: Optional[Tail]) -> None:
    # a tail symbol recurs with the tail period; check it against every
    # alphabet residue it can land on (one residue unless the alphabet
    # cycles); "index" alphabets only grow, so the first coordinate a
    # symbol reaches is the binding one
    period = len(right.symbols)
    for j in range(scheme.alphabet_period()):
        _check_symbols(scheme, hi + 1 + j * period, right.symbols)
    if left is not None:
        _check_symbols(scheme, lo - len(left.symbols), left.symbols[::-1])


def _normalize_empty(scheme: Scheme, lo: int, left: Optional[Tail],
                     right: Tail):
    """Canonical boundary for a point with no explicit window."""
    if scheme.kind == "one-sided":
        return scheme.start, scheme.start - 1, None, right
    assert left is not None
    # the point is fully periodic iff the left rule equals the right
    # pattern continued leftward across the boundary
    L = math.lcm(left.period(), right.period())
    meshes = all(left.at(k) == right.symbols[(-1 - k) % right.period()]
                 for k in range(L))
    if meshes:
        # fully periodic point: anchor the boundary at coordinate 0
        shift = lo % right.period()
        pat = right.symbols[-shift:] + right.symbols[:-shift] if shift else right.symbols
        right = Tail(_primitive(pat))
        left = Tail(_primitive(tuple(right.symbols[(-1 - k) % right.period()]
                                     for k in range(right.period()))))
        return 0, -1, left, right
    # slide the boundary left while the left rule agrees with the right
    # pattern's continuation; the first disagreement pins a unique anchor
    while left.at(0) == right.symbols[-1]:
        lo -= 1
        right = reanchor_tail(right, -1 % right.period())
        left = reanchor_tail(left, 1)
    return lo, lo - 1, left, right


def points_equal(x: Point, y: Point) -> bool:
    return distance(x, y) == 0


def distance(x: Point, y: Point) -> Fraction:
    """2^-k where k is the least depth offset at which x and y differ
    (0 when equal).  Exact: the scan bound covers both windows plus a
    full common period of the tails."""
    if x.scheme != y.scheme:
        raise DomainError("points live on different schemes")
    span = max(x.span(), y.span())
    period = math.lcm(math.lcm(x.right.period(), y.right.period()),
                  math.lcm(x.left.period() if x.left else 1,
                       y.left.period() if y.left else 1))
    bound = span + period + 1
    for k in range(bound + 1):
        for n in x.scheme.coords_at_offset(k):
            if x.value(n) != y.value(n):
                return Fraction(1, 2 ** k)
    return Fraction(0)


def read_symbols(x: Point, lo: int, hi: int) -> list:
    """The symbols of a point at coordinates lo..hi, as a new list: the
    left tail repeated below the window, a slice of the window, and the
    right tail repeated above it.  No coordinate is looked up on its
    own, and a range wholly inside one tail is one repeated run.  A
    one-sided point is read too; a coordinate below its window raises
    ``RangeError``, as ``Point.value`` does."""
    xlo, xhi = x.lo, x.hi
    if xlo <= lo and hi <= xhi:         # inside the window: one slice
        return list(x.window[lo - xlo:hi - xlo + 1])
    if lo > xhi:                        # wholly in the right tail
        r = x.right.symbols
        return _cycled(r, (lo - xhi - 1) % len(r), hi - lo + 1)
    if lo >= xlo:
        out = list(x.window[lo - xlo:])
    else:                               # from the left tail on
        if x.left is None:
            x.scheme.check_coord(lo)
            raise RangeError("coordinate %d below a one-sided window" % lo)
        rev = x.left.symbols[::-1]
        start = (lo - xlo) % len(rev)
        if hi < xlo:                    # wholly in the left tail
            return _cycled(rev, start, hi - lo + 1)
        out = _cycled(rev, start, xlo - lo)
        out += x.window[:hi - xlo + 1]
    if hi > xhi:                        # on into the right tail
        out += _cycled(x.right.symbols, 0, hi - xhi)
    return out


def _cycled(pattern: tuple, start: int, count: int) -> list:
    """``count`` symbols of the repeated pattern from index ``start``
    (0 <= start < len(pattern)), as a new list: whole turns of the
    pattern rotated to ``start`` and then a part of one turn."""
    period = len(pattern)
    if period == 1:
        return [pattern[0]] * count
    turn = list(pattern[start:] + pattern[:start])
    out = turn * (count // period)
    out += turn[:count % period]
    return out


# ---------------------------------------------------------------------------
# cylinders and clopen sets


@dataclass(frozen=True)
class Cylinder:
    """Points agreeing with ``pattern`` on coordinates lo..hi.
    An empty window (lo > hi) is the full space."""

    scheme: Scheme
    lo: int
    hi: int
    pattern: tuple

    def __post_init__(self):
        if len(self.pattern) != max(0, self.hi - self.lo + 1):
            raise DomainError("pattern length does not match window")
        for n, s in zip(range(self.lo, self.hi + 1), self.pattern):
            _check_symbol(self.scheme, n, s)

    def member(self, x: Point) -> bool:
        return all(x.value(n) == s
                   for n, s in zip(range(self.lo, self.hi + 1), self.pattern))

    def __repr__(self) -> str:
        return "<cyl [%s@%d]>" % (_symbol_text(self.pattern), self.lo)


def depth_cylinder(x: Point, depth: int) -> Cylinder:
    """The cylinder fixing x on every coordinate at offset < depth."""
    lo, hi = x.scheme.depth_window(depth)
    return Cylinder(x.scheme, lo, hi,
                    tuple(x.value(n) for n in range(lo, hi + 1)))


@dataclass(frozen=True)
class ClopenSet:
    """Finite union of same-window cylinders in canonical form.

    Each pattern on the window lo..hi has one int, its code: the
    pattern read as a big-endian mixed-radix numeral, the symbol at lo
    the most significant digit and each coordinate's alphabet size its
    radix.  Code order is lexicographic pattern order.

    ``codes`` holds the smaller side of the window: the admitted codes,
    or the excluded ones when ``complemented``.  The set is complemented
    iff it admits more than half the window's patterns, so a dense set
    and its sparse complement cost the same.  ``patterns`` and
    ``to_json`` decode the admitted side on demand.

    Canonical means: no edge coordinate of the window is free (a
    coordinate is free when every completion of every residual pattern
    is admitted), the side rule above holds, and the empty set and the
    full space have an empty window and no codes, the full space
    complemented.  Build through ``clopen`` / ``from_cylinder`` or the
    algebra operations.
    """

    scheme: Scheme
    lo: int
    hi: int
    codes: frozenset
    complemented: bool = False

    @property
    def patterns(self) -> frozenset:
        """The admitted patterns as tuples, decoded afresh each time."""
        return frozenset(_decode(self.scheme, self.lo, self.hi,
                                 _admitted_codes(self)))

    def member(self, x: Point) -> bool:
        if self.lo > self.hi:
            return self.complemented
        code = _encode(self.scheme, self.lo, read_symbols(x, self.lo, self.hi))
        return (code in self.codes) is not self.complemented

    @property
    def is_empty(self) -> bool:
        return not self.codes and not self.complemented

    @property
    def is_full(self) -> bool:
        return not self.codes and self.complemented

    def to_json(self) -> dict:
        return {"scheme": self.scheme.to_json(), "lo": self.lo,
                "patterns": [list(p) for p in _decode(
                    self.scheme, self.lo, self.hi, _admitted_codes(self))]}

    def __repr__(self) -> str:
        return "<clopen [%d..%d] %d patterns>" % (self.lo, self.hi,
                                                  _admitted_count(self))


def _admitted_count(c: ClopenSet) -> int:
    """How many patterns on its window ``c`` admits, by arithmetic."""
    if c.complemented:
        return _count(c.scheme, c.lo, c.hi) - len(c.codes)
    return len(c.codes)


def _admitted_codes(c: ClopenSet) -> list:
    """The admitted codes of ``c`` in increasing order.  A complemented
    set admits more than half its window, so this enumerates fewer than
    twice as many codes as it returns."""
    if not c.complemented:
        return sorted(c.codes)
    excluded = c.codes
    return [k for k in range(_count(c.scheme, c.lo, c.hi))
            if k not in excluded]


def _count(scheme: Scheme, lo: int, hi: int, cap: bool = False) -> int:
    """Number of patterns on coordinates lo..hi (1 on an empty window);
    with ``cap``, raise before more than PATTERN_CAP are enumerated."""
    size = scheme.alphabet
    total = size ** max(0, hi - lo + 1) if isinstance(size, int) else \
        math.prod(scheme.size(n) for n in range(lo, hi + 1))
    if cap and total > PATTERN_CAP:
        raise ResourceCapError("pattern enumeration exceeds cap")
    return total


def _encode(scheme: Scheme, lo: int, symbols: Sequence[int]) -> int:
    """The code of a pattern laid out from coordinate lo."""
    code, size = 0, scheme.alphabet
    if isinstance(size, int):
        for s in symbols:
            code = code * size + s
        return code
    for n, s in enumerate(symbols, lo):
        code = code * scheme.size(n) + s
    return code


def _decode(scheme: Scheme, lo: int, hi: int, codes: Iterable[int]) -> list:
    """The patterns on lo..hi of ``codes``, as tuples in the given order."""
    places = [(_count(scheme, n + 1, hi), scheme.size(n))
              for n in range(lo, hi + 1)]
    return [tuple([c // w % r for w, r in places]) for c in codes]


def clopen(scheme: Scheme, lo: int, patterns: Iterable[Sequence[int]]) -> ClopenSet:
    pats = frozenset(tuple(p) for p in patterns)
    if not pats:
        return _empty_clopen(scheme)
    width = len(next(iter(pats)))
    if any(len(p) != width for p in pats):
        raise DomainError("all patterns must share the window width")
    # on an integer alphabet every pattern is checked in one pass
    size = scheme.alphabet
    if not (isinstance(size, int) and
            _all_symbols(list(itertools.chain.from_iterable(pats)), size)):
        for p in pats:
            _check_symbols(scheme, lo, p)
    return _canonical(scheme, lo, lo + width - 1,
                      frozenset([_encode(scheme, lo, p) for p in pats]))


def from_cylinder(c: Cylinder) -> ClopenSet:
    if c.lo > c.hi:
        return _full_clopen(c.scheme)
    return clopen(c.scheme, c.lo, [c.pattern])


def _anchor(scheme: Scheme) -> int:
    return scheme.start if scheme.kind == "one-sided" else 0


def _full_clopen(scheme: Scheme) -> ClopenSet:
    anchor = _anchor(scheme)
    return ClopenSet(scheme, anchor, anchor - 1, frozenset(), True)


def _empty_clopen(scheme: Scheme) -> ClopenSet:
    anchor = _anchor(scheme)
    return ClopenSet(scheme, anchor, anchor - 1, frozenset())


def _canonical(scheme: Scheme, lo: int, hi: int, codes: frozenset,
               complemented: bool = False) -> ClopenSet:
    """Drop free edge coordinates of the held side until none is left,
    then settle the side.

    An edge is free for a set iff it is free for its complement (at
    each residual the complement admits exactly the symbols the set
    does not, so all-or-none stays all-or-none), so trimming the held
    side trims the set.  The residual of a code with its edge symbol
    cut off is its remainder by the patterns on the coordinates after
    lo (left edge), or its quotient by the alphabet size at hi (right
    edge).  The edge is free when every residual occurs with all
    ``size`` symbols there.  Each residual occurs with at most ``size``
    symbols, so that holds exactly when ``len(residuals) * size ==
    len(codes)``: one counting pass, with no grouping of symbols by
    residual.
    """
    while lo <= hi:
        size, block = scheme.size(lo), _count(scheme, lo + 1, hi)
        rests = frozenset([c % block for c in codes])
        if len(rests) * size == len(codes):
            lo, codes = lo + 1, rests
            continue
        size = scheme.size(hi)
        rests = frozenset([c // size for c in codes])
        if len(rests) * size == len(codes):
            hi, codes = hi - 1, rests
            continue
        break
    return _settle(scheme, lo, hi, codes, complemented)


def _settle(scheme: Scheme, lo: int, hi: int, codes: frozenset,
            complemented: bool) -> ClopenSet:
    """The set on a canonical window lo..hi whose held side is
    ``codes``, held by its smaller side: complemented iff it admits
    more than half the window's patterns, the admitted side on a tie.

    It costs one count.  It enumerates the window only to change
    sides, and then fewer than twice as many codes as it admits, after
    checking that count against PATTERN_CAP.
    """
    total = _count(scheme, lo, hi)
    admitted = total - len(codes) if complemented else len(codes)
    if admitted > PATTERN_CAP:
        raise ResourceCapError("pattern enumeration exceeds cap")
    if (2 * admitted > total) is not complemented:
        codes = frozenset(range(total)) - codes
        complemented = not complemented
    if lo > hi:
        lo = _anchor(scheme)
        hi = lo - 1
    return ClopenSet(scheme, lo, hi, codes, complemented)


def complement(a: ClopenSet) -> ClopenSet:
    """The complement, on ``a``'s own window, by flipping the side flag.

    A window that is canonical for a set is canonical for its
    complement (see ``_canonical``), so nothing is trimmed, and the
    other side is enumerated only on an exact tie.
    """
    return _settle(a.scheme, a.lo, a.hi, a.codes, not a.complemented)


def union(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    """The union, by De Morgan on the held sides: -A u -B = -(A n B)
    and A u -B = -(B - A)."""
    a2, b2, lo, hi = _refine(a, b)
    if a.complemented:
        codes = a2 & b2 if b.complemented else a2 - b2
    else:
        codes = b2 - a2 if b.complemented else a2 | b2
    return _canonical(a.scheme, lo, hi, codes,
                      a.complemented or b.complemented)


def intersection(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    """The intersection, by De Morgan on the held sides:
    -A n -B = -(A u B) and A n -B = A - B."""
    a2, b2, lo, hi = _refine(a, b)
    if a.complemented:
        codes = a2 | b2 if b.complemented else b2 - a2
    else:
        codes = a2 - b2 if b.complemented else a2 & b2
    return _canonical(a.scheme, lo, hi, codes,
                      a.complemented and b.complemented)


def sym_diff(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    """The symmetric difference: the XOR of the held sides, complemented
    iff exactly one operand is.  An empty operand leaves the other,
    canonical as it stands (the common case of the ``two-copy`` group
    law, whose flip-only generators have an empty region)."""
    if a.scheme == b.scheme and (a.is_empty or b.is_empty):
        return b if a.is_empty else a
    a2, b2, lo, hi = _refine(a, b)
    return _canonical(a.scheme, lo, hi, a2 ^ b2,
                      a.complemented is not b.complemented)


def _refine(a: ClopenSet, b: ClopenSet):
    if a.scheme != b.scheme:
        raise DomainError("clopen sets live on different schemes")
    # empty-window canonical forms adopt the other operand's window
    lo_parts = [c.lo for c in (a, b) if c.lo <= c.hi]
    hi_parts = [c.hi for c in (a, b) if c.lo <= c.hi]
    if not lo_parts:
        anchor = _anchor(a.scheme)
        return a.codes, b.codes, anchor, anchor - 1
    lo, hi = min(lo_parts), max(hi_parts)
    width = hi - lo + 1
    if width > WINDOW_CAP:
        raise ResourceCapError("refined window width %d exceeds cap %d"
                               % (width, WINDOW_CAP))
    return (_expand(a, lo, hi), _expand(b, lo, hi), lo, hi)


def _expand(c: ClopenSet, lo: int, hi: int) -> frozenset:
    """The held side of c widened to lo..hi (a window holding c's):
    each prefix p, held code m and suffix s give (p * mid + m) * suf + s.
    The empty set and the full space hold no codes."""
    if not c.codes:
        return c.codes
    if (c.lo, c.hi) == (lo, hi):
        return c.codes
    pre = _count(c.scheme, lo, c.lo - 1, cap=True)
    suf = _count(c.scheme, c.hi + 1, hi, cap=True)
    total = pre * len(c.codes) * suf
    if total > PATTERN_CAP:
        raise ResourceCapError("pattern expansion would produce %d patterns"
                               % total)
    mid = _count(c.scheme, c.lo, c.hi)
    out: set = set()
    for p in range(pre):
        for m in c.codes:
            base = (p * mid + m) * suf
            out.update(range(base, base + suf))
    return frozenset(out)
