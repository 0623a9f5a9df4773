"""Finitely generated groups and monoids with set-valued division.

Families and element encodings:

  Z               integers; element = int
  Zd              Z^d; element = tuple of d ints
  free            free group (inverses=true) or free monoid (inverses=false)
                  on `rank` generators; element = int, the word packed
                  below; group words are kept reduced
  table           finite monoid given by a row-major multiplication table;
                  element = index, 0 is the identity
  zero_adjoined   free monoid on `rank` letters with an adjoined absorbing
                  zero; element = packed word or the string "theta"

A free word is one int whose base-b digits, first letter first, are its
letters: digits 1, 2, 3, 4, ... are a, a^-1, b, b^-1, ... in a group (b =
2 rank + 1), a, b, c, ... in a monoid (b = rank + 1).  No digit is 0, so
e = 0, longer words are larger and numeric order is shortlex order
(elem_key is the identity); u b + d appends letter d, u // b drops the last
letter and x is a suffix of u iff u % b^|x| == x.  JSON spells a word as
its letters, nonzero signed 1-based generator indices, negative meaning
inverse.

Division is set-valued:  E . x^-1 = {u : u x in E}.  On the zero-adjoined
monoid the set {u : u theta = theta} is the whole (infinite) monoid; such
results are represented by the UNIVERSE token instead of being enumerated.
Because of that token the two bracketings (E . x^-1) . y and E . (x^-1 y ...)
genuinely differ here, as they must.

Balls use the division-closure recursion
    B_0 = {e},   B_n = B_(n-1)  u  U_x B_(n-1).x  u  U_x B_(n-1).x^-1
and spheres are S_n = B_n \\ B_(n-1).  Over the standard generating set of
Z, Z^d or a free structure (a Graded family), in any order and with
repeats, B_n is the word-length ball, so those balls are graded, not
walked: the family writes the spheres, |B_n| and least geodesic words in
closed form, and u's level is word_length(u).  Every other ball is walked.
The walk computes the recursion in frontier form,
    B_n = B_(n-1)  u  U_x S_(n-1).x  u  U_x S_(n-1).x^-1,
which is the same set: B_(n-1) = B_(n-2) u S_(n-1), multiplication and
division by x distribute over unions, and B_(n-2).x and B_(n-2).x^-1 already
lie in B_(n-1) by the recursion one level down.  The same holds for UNIVERSE:
were B_(n-2).x^-1 universal, B_(n-1) would be, so a universal quotient first
comes from an element of the last sphere (theta, on the zero-adjoined
monoid).  Each level thus costs in proportion to its frontier, not to the
whole ball.  One frontier loop (_spheres) walks it for every family, and
maps a whole sphere S through one generator x at a time with the family's two
batched maps: right_images(S, x) is the list S.x, right_quotients(S, x) the
v with v x in S (or UNIVERSE), each a list comprehension over S (digit
arithmetic on free words, one per letter of x in a group; sums on Z and
Z^d; one column of a table).
On a group, E.x^-1 is E multiplied by x^-1, so a level is one multiplication
pass,
    B_n = B_(n-1)  u  S_(n-1).(X u X^-1),
the same pass that finds geodesic words (bfs_words).  On a monoid the pass
maps the sphere through each x in X, then divides it by each x; a universal
quotient ends the loop, and that ball and every later one is UNIVERSE.  Every
deterministic choice ("least" element, term order) is made against elem_key,
a canonical total order.  A BallTable keeps the spheres alone (u is in B_n
iff its level is at most n, or B_n is universal) and answers every ball
question itself.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial
from itertools import accumulate, islice
from math import comb
from operator import add, itemgetter

from .certify import REQUIRED, InvalidInput, ResourceLimit, read_as, read_family

BALL_CAP_ENV = "WAUG_BALL_CAP"
BALL_CAP_DEFAULT = 10 ** 6

THETA = "theta"  # adjoined zero; words are ints, so no collision


def ball_cap() -> int:
    raw = os.environ.get(BALL_CAP_ENV)
    if raw is None:
        return BALL_CAP_DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInput(f"{BALL_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise InvalidInput(f"{BALL_CAP_ENV} must be positive")
    return cap


def check_size(what: str, n: int, size: int, unit: str = "generator entries"):
    """Refuse up front a spec field or flag n that asks for `size` units of
    work past the cap (a spec's generators, built at load, by default);
    `what` shows n at '{}', and a number past 64 bits by a power of 2."""
    cap = ball_cap()
    if size > cap:
        n, size = (x if x.bit_length() <= 64 else f"at least 2^{x.bit_length() - 1}"
                   for x in (n, size))
        raise ResourceLimit(f"{what.format(n)} = {size} {unit}, over the cap "
                            f"{cap} (set {BALL_CAP_ENV} to raise it)")


class _Universe:
    """Token standing for 'the whole monoid' in set computations."""

    def __repr__(self):
        return "UNIVERSE"


UNIVERSE = _Universe()


# ---------------------------------------------------------------------------
# structure families
# ---------------------------------------------------------------------------

class Structure:
    family = "?"
    is_group = False
    size: int | None = None  # None = infinite

    def identity(self):
        raise NotImplementedError

    def multiply(self, u, v):
        raise NotImplementedError

    def invert(self, u):
        raise InvalidInput(f"{self.family}: not a group, no inverses")

    def default_generators(self):
        raise InvalidInput(f"{self.family}: generators must be given explicitly")

    def elem_key(self, u):
        """Canonical total-order key; ties everywhere break through this."""
        raise NotImplementedError

    @property
    def sort_key(self):  # elem_key for sorted(), None where it is the identity
        return self.elem_key

    def word_length(self, u) -> int:
        """Length w.r.t. the family's standard generating set."""
        raise InvalidInput(f"{self.family}: no standard word length")

    def sphere_lengths(self, level) -> list:
        """The distinct word lengths on `level`, a list in elem_key order (a
        BallTable level), in the order they are first met."""
        return list(dict.fromkeys(map(self.word_length, level)))

    def right_images(self, us, x):
        """[u x for u in us], in one pass over the list."""
        raise NotImplementedError

    def right_quotients(self, us, x):
        """Every v with v x in us, as a list (each v once if us has no
        repeats), or UNIVERSE; on a group, us x^-1 (non-groups override this)."""
        return self.right_images(us, self.invert(x))

    # --- encoding -----------------------------------------------------

    def elem_to_json(self, u):
        raise NotImplementedError

    def elem_from_json(self, obj):
        raise NotImplementedError

    def spheres_to_json(self, levels):
        """A ball's spheres as a report value, element by element (Z^d and
        the free structures write theirs a sphere at a time, Graded)."""
        return [lev if lev is UNIVERSE else list(map(self.elem_to_json, lev))
                for lev in levels]

    def elem_str(self, u) -> str:
        raise NotImplementedError

    def parse_str(self, text: str):
        """The inverse of elem_str: the element that prints as text, read by
        the family's _read_str; InvalidInput if no element prints so."""
        try:
            u = self._read_str(text)
        except (ValueError, LookupError):
            u = None
        if u is None or self.elem_str(u) != text:
            raise InvalidInput(f"{text!r} names no element of this {self.family} structure")
        return u


class Graded(Structure):
    """A family with a standard generating set (default_generators), over
    which B_n is the word-length ball {u : word_length(u) <= n}.  Over that
    set, in any order and with repeats (is_graded), its balls are graded,
    not walked, from three closed forms: spheres(n) lists S_0..S_n, each in
    elem_key order; ball_size(n) is |B_n|; least_word(idx, u) is the least
    shortest word for u, as generator indices, over a list of the standard
    generators whose generator -> first index map is idx."""

    def is_standard_generators(self, gens):
        return set(gens) == set(self.default_generators())

    def spheres_to_json(self, levels):
        """The spheres as a value that writes itself, _write_spheres over
        the family's _sphere_texts (Z^d and the free structures)."""
        return partial(_write_spheres, levels, self._sphere_texts)


def is_graded(s: Structure, gens) -> bool:
    """Is gens the standard generating set of a Graded family?"""
    return isinstance(s, Graded) and s.is_standard_generators(gens)


def _write_spheres(levels, sphere_texts, parts, nl):
    """Append the JSON text of a ball's spheres, a list that starts on the
    line whose newline and indentation are nl: the report value that Z^d
    and the free structures give for it, called by canonical_json.
    sphere_texts(levels, word_nl) yields, for each non-empty sphere in
    turn, the text of its elements at the indentation word_nl, as a few
    strings: one str.join per sphere, not one step per element."""
    sphere_nl = nl + "  "
    word_nl = sphere_nl + "  "
    texts = sphere_texts(levels, word_nl)
    sep, opening, closing = "[" + sphere_nl, "[" + word_nl, sphere_nl + "]"
    for lev in levels:
        if lev:
            parts.append(sep + opening)
            parts += next(texts)
            parts.append(closing)
        else:
            parts.append(sep + "[]")
        sep = "," + sphere_nl
    parts.append(nl + "]")


class IntegerGroup(Graded):
    """(Z, +)."""

    family = "Z"
    is_group = True

    def identity(self):
        return 0

    def multiply(self, u, v):
        return u + v

    def right_images(self, us, x):
        return [u + x for u in us]

    def invert(self, u):
        return -u

    def default_generators(self):
        return [1, -1]

    def elem_key(self, u):
        return (abs(u), 0 if u >= 0 else 1)

    def word_length(self, u):
        return abs(u)

    def spheres(self, n):
        return [[0]] + [[k, -k] for k in range(1, n + 1)]

    def ball_size(self, n):
        return 2 * n + 1

    def least_word(self, idx, u):
        return (idx[1 if u >= 0 else -1],) * abs(u)

    def elem_to_json(self, u):
        return u

    spheres_to_json = Structure.spheres_to_json  # a sphere of ints is one join already

    def elem_from_json(self, obj):
        return read_as(obj, int, "Z element")

    def elem_str(self, u):
        return str(u)

    def _read_str(self, text):
        return int(text)


class IntegerLattice(Graded):
    """(Z^d, +)."""

    family = "Zd"
    is_group = True

    def __init__(self, d: int):
        if d < 1:
            raise InvalidInput("Zd needs d >= 1")
        check_size("params.d = {} needs 2*d^2", d, 2 * d * d)
        self.d = d

    def identity(self):
        return (0,) * self.d

    def multiply(self, u, v):
        return tuple(map(add, u, v))

    def right_images(self, us, x):
        return [tuple(map(add, u, x)) for u in us]

    def invert(self, u):
        return tuple(-a for a in u)

    def default_generators(self):
        # +e_i before -e_i, i ascending
        return [tuple(c if j == i else 0 for j in range(self.d))
                for i in range(self.d) for c in (1, -1)]

    def elem_key(self, u):
        # length, then the sorted geodesic letters (+e_i before -e_i, i
        # ascending): more copies of the first letter that differs sort first
        return (sum(map(abs, u)), tuple([(-c, 0) if c > 0 else (0, c) for c in u]))

    def word_length(self, u):
        return sum(map(abs, u))

    def spheres(self, n):
        # the spheres of Z^j from those of Z^(j-1), j = 1..d: a point of S_m
        # is its first coordinate c, in elem_key's order +m..+1, -m..-1, 0,
        # then a point of S_(m-|c|)
        spheres = [[()]] + [[]] * n
        for _ in range(self.d):
            spheres = [[(c,) + r for c in (*range(m, 0, -1), *range(-m, 0), 0)
                        for r in spheres[m - abs(c)]] for m in range(n + 1)]
        return spheres

    def ball_size(self, n):
        # l1 ball: sum_k 2^k C(d,k) C(n,k)
        return sum((1 << k) * comb(self.d, k) * comb(n, k) for k in range(min(self.d, n) + 1))

    def least_word(self, idx, u):
        # a geodesic uses the same letters in any order, so the least one
        # lists their indices sorted
        std = self.default_generators()  # +e_1, -e_1, +e_2, ...
        return tuple(sorted(idx[std[2 * i + (c < 0)]]
                            for i, c in enumerate(u) for _ in range(abs(c))))

    def elem_to_json(self, u):
        return list(u)

    def _sphere_texts(self, levels, word_nl):
        """_write_spheres' texts: each point through one %d template."""
        coord_nl = word_nl + "  "
        point = ("[" + coord_nl + ("," + coord_nl).join(["%d"] * self.d)
                 + word_nl + "]").__mod__
        between = "," + word_nl
        return ((between.join(map(point, lev)),) for lev in levels if lev)

    def elem_from_json(self, obj):
        if (not isinstance(obj, (list, tuple)) or len(obj) != self.d
                or not all(isinstance(a, int) and not isinstance(a, bool) for a in obj)):
            raise InvalidInput(f"Zd element must be a list of {self.d} ints, got {obj!r}")
        return tuple(obj)

    def elem_str(self, u):
        return "(" + ",".join(str(a) for a in u) + ")"

    def _read_str(self, text):
        return self.elem_from_json([int(a) for a in text[1:-1].split(",")])


def _letter_names(rank: int):
    """a, b, c, d, f, ... (e names the identity) up to rank 25, else g1, g2, ..."""
    if rank <= 25:
        return list("abcdfghijklmnopqrstuvwxyz"[:rank])
    return [f"g{i + 1}" for i in range(rank)]


class FreeStructure(Graded):
    """Free group (inverses=True) or free monoid (inverses=False) of given
    rank, each word packed into one int (module docstring)."""

    sort_key = None  # elem_key is the identity

    def __init__(self, rank: int, inverses: bool = True):
        if rank < 1:
            raise InvalidInput("free structure needs rank >= 1")
        check_size("params.rank = {} needs 2*rank", rank, 2 * rank)
        self.rank = rank
        self.inverses = inverses
        self.is_group = inverses
        self.family = "free"
        self.names = _letter_names(rank)
        # the letters by digit, 1 up: a, a^-1, b, b^-1, ... (a, b, ... in a monoid)
        letters = [g for r in range(1, rank + 1) for g in ((r, -r) if inverses else (r,))]
        self.base = b = len(letters) + 1
        self._letter = [0] + letters
        self._digit = {g: d for d, g in enumerate(letters, start=1)}
        self._inverse = [0] + [self._digit.get(-g) for g in letters]
        # _ones[n] = (b^n - 1)/(b - 1), the least word of length n, and
        # _pows[n] = b^n, grown by word_length as longer words turn up
        self._ones, self._pows = [0, 1], [1, b]

    def identity(self):
        return 0

    def multiply(self, u, v):
        b, pows, n = self.base, self._pows, self.word_length(v)
        # in a group, cancel at the seam: u's last letter against v's first
        while self.inverses and n and u and self._inverse[u % b] == v // pows[n - 1]:
            u, n = u // b, n - 1
            v %= pows[n]
        return u * pows[n] + v

    def right_images(self, us, x):
        b = self.base
        if not self.inverses:
            p = self._pows[self.word_length(x)]
            return [u * p + x for u in us]
        digits = []  # x's letters, last first
        while x:
            x, d = divmod(x, b)
            digits.append(d)
        # one letter at a time, first first: cancel u's last letter or append
        for d in reversed(digits):
            inv = self._inverse[d]
            us = [u // b if u % b == inv else u * b + d for u in us]
        return us

    def right_quotients(self, us, x):
        if self.inverses:
            return super().right_quotients(us, x)
        # monoid: v x = u iff x is a suffix of u, i.e. u's last |x| digits
        p = self._pows[self.word_length(x)]
        return [u // p for u in us if u % p == x]

    def invert(self, u):
        if not self.inverses:
            raise InvalidInput("free monoid: no inverses")
        b, inverse, w = self.base, self._inverse, 0
        while u:
            u, d = divmod(u, b)
            w = w * b + inverse[d]
        return w

    def default_generators(self):
        return list(range(1, self.base))

    def elem_key(self, u):
        return u

    def word_length(self, u):
        ones = self._ones
        while u >= ones[-1]:
            ones.append(ones[-1] * self.base + 1)
            self._pows.append(self._pows[-1] * self.base)
        return bisect_right(ones, u) - 1

    def sphere_lengths(self, level):
        """Ascending: elem_key order is numeric and _ones[n] <= u < _ones[n+1]
        on words of length n, so each length costs one word_length and one
        bisection of `level` to the first longer word."""
        lengths, i = [], 0
        while i < len(level):
            lengths.append(n := self.word_length(level[i]))
            i = bisect_left(level, self._ones[n + 1], i)
        return lengths

    def spheres(self, n):
        # S_m is S_(m-1) with a letter d appended, u b + d, in numeric
        # order; in a group d is not the inverse of u's last letter
        b, inverse = self.base, self._inverse
        after = [[d for d in range(1, b) if d != inverse[last]] for last in range(b)]
        spheres = [[0]]
        for _ in range(n):
            spheres.append([ub + d for u in spheres[-1] for ub in (u * b,)
                            for d in after[u % b]])
        return spheres

    def ball_size(self, n):
        # |S_m| = k q^(m-1) for m >= 1: k first letters, then q for each next
        k, q = self.base - 1, self.base - 1 - self.inverses
        return 1 + k * (q ** n - 1) // (q - 1) if q > 1 else 1 + k * n

    def least_word(self, idx, u):
        return tuple(idx[self._digit[g]] for g in self.elem_to_json(u))

    def elem_to_json(self, u):
        letters = []
        while u:
            u, d = divmod(u, self.base)
            letters.append(self._letter[d])
        return letters[::-1]

    def elem_from_json(self, obj):
        if not isinstance(obj, (list, tuple)) or not all(
                type(g) is int and g in self._digit for g in obj):
            raise InvalidInput(f"free word must be a list of letters 1..{self.rank}"
                               f"{' or their negatives' if self.inverses else ''}, got {obj!r}")
        if any(a == -b for a, b in zip(obj, obj[1:])):  # a group word comes in reduced
            raise InvalidInput(f"word {obj!r} is not reduced")
        u = 0
        for g in obj:
            u = u * self.base + self._digit[g]
        return u

    def elem_str(self, u):
        return ".".join(self.names[abs(g) - 1] + ("^-1" if g < 0 else "")
                        for g in self.elem_to_json(u)) or "e"

    def _read_str(self, text):
        if text == "e":
            return 0
        letters = {name: g for g, name in enumerate(self.names, start=1)}
        letters.update({name + "^-1": -g for name, g in letters.items()})
        return self.elem_from_json([letters[part] for part in text.split(".")])

    def _sphere_texts(self, levels, word_nl):
        """_write_spheres' texts: a word's text less its closing line is its
        parent's (the word less its last letter, u // b) plus a line for
        that letter, so a sphere whose parents lie in the sphere before it
        costs one concatenation per word, and its words are joined with the
        closing line of each but the last between them."""
        b, letter_nl, between = self.base, word_nl + "  ", word_nl + "]," + word_nl
        first = ["[" + letter_nl + str(g) for g in self._letter]
        more = ["," + letter_nl + str(g) for g in self._letter]
        close = word_nl + "]"
        known = {}  # word of the last sphere -> its text less its closing line

        def spelt(u):  # the text of a word u != e, letter by letter
            return "[" + letter_nl + ("," + letter_nl).join(map(str, self.elem_to_json(u)))

        for lev in filter(None, levels):
            if not lev[0]:  # S_0 = {e}, the only sphere that holds e
                yield ("[]",)
                continue
            texts = [first[u] if u < b else (known.get(u // b) or spelt(u // b)) + more[u % b]
                     for u in lev]
            yield between.join(texts), close
            known = dict(zip(lev, texts))


class TableMonoid(Structure):
    """Finite monoid from a row-major table; element 0 is the identity."""

    family = "table"

    def __init__(self, table, names=None):
        self.table = [list(row) for row in table]
        n = len(self.table)
        if n == 0:
            raise InvalidInput("empty multiplication table")
        self.size = n
        self.names = list(names) if names else [f"m{i}" for i in range(n)]
        if len(set(self.names)) != n:
            raise InvalidInput("table params.names must be distinct strings, one per element")
        self._validate()
        self._inverse = [None] * n  # u's inverse: the first v with u v = 0, if v u = 0
        for u, row in enumerate(self.table):
            if 0 in row and self.table[row.index(0)][u] == 0:
                self._inverse[u] = row.index(0)
        self.is_group = None not in self._inverse
        self._columns = {}  # x -> (column x of the table, {w: [v : v x = w]})

    def _validate(self):
        n = self.size
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise InvalidInput(f"table row {i} has length {len(row)}, expected {n}")
            if min(row) < 0 or max(row) >= n:
                v = next(v for v in row if not 0 <= v < n)
                raise InvalidInput(f"table entry {v!r} out of range")
        for j in range(n):
            if self.table[0][j] != j or self.table[j][0] != j:
                raise InvalidInput("element 0 is not a two-sided identity")
        # Light's test: the a with (x a) y = x (a y) for all x, y are closed
        # under the product, so checking a generating set A checks them all
        t = self.table
        for a in self._magma_generators():
            ta = t[a]
            row_x_ay = itemgetter(*ta)  # row_x_ay(t[x]): x (a y) for each y
            for x, tx in enumerate(t):
                if row_x_ay(tx) != tuple(t[tx[a]]):
                    y = next(y for y in range(n) if t[tx[a]][y] != tx[ta[y]])
                    raise InvalidInput(f"table is not associative at ({x},{a},{y})")

    def _magma_generators(self):
        """A list A that, with 0, generates the table's elements under its
        product, whether or not it is associative: each member is the least
        element outside the closure of those before it.  The closure meets
        each pair of its elements at most once, both ways round, so this is
        O(n^2)."""
        t = self.table
        seen, closed, gens = {0}, [0], []
        for g in range(1, self.size):
            if g in seen:
                continue
            gens.append(g)
            seen.add(g)
            fresh = [g]
            while fresh and len(seen) < self.size:
                u = fresh.pop()
                closed.append(u)
                new = {*map(t[u].__getitem__, closed),
                       *map(itemgetter(u), map(t.__getitem__, closed))}
                new -= seen
                seen |= new
                fresh += new
        return gens

    def identity(self):
        return 0

    def multiply(self, u, v):
        return self.table[u][v]

    def _column(self, x):
        if x not in self._columns:
            col, solutions = [row[x] for row in self.table], {}
            for v, w in enumerate(col):
                solutions.setdefault(w, []).append(v)
            self._columns[x] = col, solutions
        return self._columns[x]

    def right_images(self, us, x):
        return list(map(self._column(x)[0].__getitem__, us))

    def right_quotients(self, us, x):
        solutions = self._column(x)[1]
        return [v for u in us for v in solutions.get(u, ())]

    def invert(self, u):
        v = self._inverse[u]
        if v is None:
            raise InvalidInput(f"element {u} has no inverse")
        return v

    def elem_key(self, u):
        return (u,)

    def elem_to_json(self, u):
        return u

    def elem_from_json(self, obj):
        if not 0 <= read_as(obj, int, "table element") < self.size:
            raise InvalidInput(f"table element must be an index in [0,{self.size}), got {obj!r}")
        return obj

    def elem_str(self, u):
        return self.names[u]

    def _read_str(self, text):
        return self.names.index(text)


class ZeroAdjoinedMonoid(Structure):
    """Free monoid on `rank` letters with an adjoined absorbing zero theta."""

    family = "zero_adjoined"

    def __init__(self, rank: int = 1):
        if rank < 1:
            raise InvalidInput("zero_adjoined needs rank >= 1")
        self.rank = rank
        self.free = FreeStructure(rank, inverses=False)
        self.names = self.free.names

    def identity(self):
        return 0

    def multiply(self, u, v):
        if u == THETA or v == THETA:
            return THETA
        return u * self.free._pows[self.free.word_length(v)] + v

    def right_images(self, us, x):
        if x == THETA:
            return [THETA] * len(us)
        p = self.free._pows[self.free.word_length(x)]
        return [THETA if u == THETA else u * p + x for u in us]

    def right_quotients(self, us, x):
        if x == THETA:
            # v theta = theta for every v
            return UNIVERSE if THETA in us else []
        words = [u for u in us if u != THETA]
        quotients = self.free.right_quotients(words, x)
        # theta x = theta, and no word times x is theta
        return quotients + [THETA] if len(words) < len(us) else quotients

    def default_generators(self):
        return [THETA]

    def elem_key(self, u):
        # theta after e = 0 and before the first letter, 1
        return 0.5 if u == THETA else u

    def word_length(self, u):
        # grading by letters, with theta at level 1 (its BFS level for X={theta})
        return 1 if u == THETA else self.free.word_length(u)

    def elem_to_json(self, u):
        return THETA if u == THETA else self.free.elem_to_json(u)

    def elem_from_json(self, obj):
        return THETA if obj == THETA else self.free.elem_from_json(obj)

    def elem_str(self, u):
        return THETA if u == THETA else self.free.elem_str(u)

    def _read_str(self, text):
        return THETA if text == THETA else self.free._read_str(text)


# ---------------------------------------------------------------------------
# loading / spec parsing
# ---------------------------------------------------------------------------

STRUCTURES = {
    "Z": (IntegerGroup, {}),
    "Zd": (IntegerLattice, {"d": (int, REQUIRED)}),
    "free": (FreeStructure, {"rank": (int, REQUIRED), "inverses": (bool, True)}),
    "table": (TableMonoid, {"table": ([[int]], REQUIRED), "names": ([str], None)}),
    "zero_adjoined": (ZeroAdjoinedMonoid, {"rank": (int, 1)}),
}


def structure_from_spec(spec: dict):
    """(structure, generators) from a spec {"family", "params", "generators"};
    the generators default to the family's standard set, where it has one."""
    s, raw = read_family(spec, STRUCTURES, "spec", {"generators": (list, None)})
    gens = s.default_generators() if raw is None else list(map(s.elem_from_json, raw))
    if not gens:
        raise InvalidInput("generator list is empty")
    if s.identity() in gens:
        raise InvalidInput("the identity may not appear among the generators")
    return s, gens


# ---------------------------------------------------------------------------
# balls, spheres, ancestry
# ---------------------------------------------------------------------------

# op: None for z_1=u; then "mul" (z = z_prev.x) or "div" (z.x = z_prev)
AncestryStep = namedtuple("AncestryStep", "elem op x")


class BallTable:
    """Division-closure balls B_0..B_depth, kept as their spheres: levels[n]
    is S_n sorted by elem_key, by value on a free structure (the first
    universal ball is the UNIVERSE marker, later levels are empty).  Over a
    standard generating set (is_graded) the balls are graded, not walked:
    the family writes the spheres, level_of is None and u's level is its
    word length.  Elsewhere the walk fills level_of, which maps each
    element it found to its level, in the order it found them (on a monoid,
    a level's products before its quotients), which no answer depends on.
    u is in B_n iff its level is at most n, or B_n is universal.  Callers
    ask `level`, `ball` (a set, built on demand), `sphere`,
    `divisors_below`, `ancestry`, `sizes`, `universal_at`, `whole_at` and
    `stable_at`."""

    def __init__(self, structure: Structure, levels: list, level_of: dict | None = None):
        self.structure = structure
        self.levels = levels
        self.level_of = level_of

    def level(self, u) -> int | None:
        """Least n with u in B_n, or None if u lies outside B_depth."""
        if self.level_of is None:
            n = self.structure.word_length(u)
            return n if n < len(self.levels) else None
        lvl = self.level_of.get(u)
        return self.universal_at() if lvl is None else lvl

    def _within(self, u, k) -> bool:
        """Is u in B_k?  For k below any universal level."""
        lvl = self.level(u)
        return lvl is not None and lvl <= k

    def ball(self, n):
        """B_n as a frozenset, or UNIVERSE."""
        un = self.universal_at()
        if un is not None and n >= un:
            return UNIVERSE
        return frozenset(u for lev in self.levels[:n + 1] for u in lev)

    def sphere(self, n):
        lev = self.levels[n]
        if lev is UNIVERSE:
            raise ResourceLimit("sphere of a universal ball is not enumerable")
        return lev

    def divisors_below(self, u, x, k) -> list:
        """{v in B_k : v x = u} as a list, for k below any universal level."""
        cands = self.structure.right_quotients([u], x)
        if cands is UNIVERSE:
            # every v solves v x = u
            return [v for lev in self.levels[:k + 1] for v in lev]
        return [v for v in cands if self._within(v, k)]

    def ancestry(self, u, gens):
        """Chain z_1=u, ..., z_n=e of AncestrySteps down the levels, each
        step by the first x of `gens` that leads one level down: as a
        divisor (the least by elem_key), else as the product z.x.  None if u
        lies outside the table."""
        lvl = self.level(u)
        if lvl is None:
            return None
        s = self.structure
        chain = [AncestryStep(u, None, None)]
        for i in range(lvl, 0, -1):
            current = chain[-1].elem
            for x in gens:
                picks = self.divisors_below(current, x, i - 1)
                if picks:
                    chain.append(AncestryStep(min(picks, key=s.elem_key), "mul", x))
                    break
                w = s.multiply(current, x)
                if self._within(w, i - 1):
                    chain.append(AncestryStep(w, "div", x))
                    break
            else:
                raise RuntimeError("ancestry backtrack failed (ball recursion broken)")
        return chain

    def sizes(self):
        sizes = list(accumulate(map(len, self.levels[:self.universal_at()])))
        return sizes + ["all"] * (len(self.levels) - len(sizes))

    def universal_at(self) -> int | None:
        return next((n for n, lev in enumerate(self.levels) if lev is UNIVERSE), None)

    def whole_at(self) -> int | None:
        """First n with B_n the whole structure (all of a finite one, or
        universal)."""
        whole = "all" if self.structure.size is None else self.structure.size
        sizes = self.sizes()
        return sizes.index(whole) if whole in sizes else None

    def stable_at(self) -> int | None:
        """First n >= 1 with B_n == B_(n-1) (fixpoint of the recursion):
        the first empty level, which after a universal ball is the next one."""
        for n in range(1, len(self.levels)):
            lev = self.levels[n]
            if lev is not UNIVERSE and not lev:
                return n
        return None


def _check_depth(depth: int):
    if depth < 0:
        raise InvalidInput(f"ball depth must be >= 0, got {depth}")


def _spheres(s: Structure, steps, seen: dict, label, cap: int, too_big,
             divide: bool = False):
    """Right multiplication by `steps` (and, with `divide`, right division),
    one sphere per `next`: sphere n is the images of sphere n-1 that `seen`
    lacks, each once, in order of first finding.  Each level maps the whole
    of sphere n-1 through each step at once (right_images), then visits
    the images u-major: u in its sphere's order, then u.x for x = steps[i],
    i ascending, each new one entered into `seen` as label(n, u, i).  With
    `divide`, the quotients {v : v x in sphere n-1} (right_quotients) are
    entered after them, step by step, as label(n, None, i); division_balls
    alone divides, and it labels by n and sorts every sphere.  Sphere 0 is
    {e}, already in `seen`.  A UNIVERSE quotient takes sphere n's entries
    back out of `seen` and ends the iteration with a UNIVERSE sphere, an
    empty sphere (the fixpoint) ends it without one.  With `size` > `cap`
    elements in `seen` after sphere n, raises ResourceLimit(too_big(n, size))."""
    frontier = [s.identity()]
    n = 0
    while True:
        n += 1
        nxt = []
        images = [s.right_images(frontier, x) for x in steps]
        for u, row in zip(frontier, zip(*images)):
            for i, v in enumerate(row):
                if v not in seen:
                    seen[v] = label(n, u, i)
                    nxt.append(v)
        for i, x in enumerate(steps if divide else ()):
            quotients = s.right_quotients(frontier, x)
            if quotients is UNIVERSE:
                for v in nxt:
                    del seen[v]
                yield UNIVERSE
                return
            for v in quotients:
                if v not in seen:
                    seen[v] = label(n, None, i)
                    nxt.append(v)
        if not nxt:
            return
        if len(seen) > cap:
            raise ResourceLimit(too_big(n, len(seen)))
        yield nxt
        frontier = nxt


def division_balls(s: Structure, gens, depth: int) -> BallTable:
    """Balls B_0..B_depth.  Over a standard generating set the family writes
    them (Graded); otherwise by the frontier form of the recursion (module
    docstring), in one _spheres pass per level: a group multiplies the last
    sphere by X u X^-1, a monoid multiplies it by X and divides it by X.
    Images are kept where level_of does not know them yet; a universal
    quotient makes the level UNIVERSE; later levels share one empty list.
    Either way a ball over the cap, or more levels than the cap, raises
    ResourceLimit."""
    _check_depth(depth)
    cap = ball_cap()

    def too_big(n, size):
        return (f"ball B_{n} has {size} elements, over the cap "
                f"{cap} (set {BALL_CAP_ENV} to raise it)")

    if is_graded(s, gens):
        # the walk stops at the least n <= depth with |B_n| over the cap
        # (n <= cap, as |B_n| > n); doubling, then bisection, find it from
        # sizes |B_m| with m < 2 n alone, small even where |B_n| is b^n
        top = 1
        while top < depth and s.ball_size(top) <= cap:
            top *= 2
        n = bisect_right(range(min(top, depth) + 1), cap, key=s.ball_size)
        if n <= depth:
            raise ResourceLimit(too_big(n, s.ball_size(n)))
        return BallTable(s, s.spheres(depth))
    e = s.identity()
    levels = [[e]]
    level_of = {e: 0}
    inverses = map(s.invert, gens) if s.is_group else ()
    steps = list(dict.fromkeys([*gens, *inverses]))
    spheres = _spheres(s, steps, level_of, lambda n, u, i: n, cap, too_big,
                       divide=not s.is_group)
    for _, sphere in zip(range(depth), spheres):
        levels.append(sphere if sphere is UNIVERSE else sorted(sphere, key=s.sort_key))
    if depth >= cap and len(levels) <= depth:  # stopped: a fixpoint or UNIVERSE
        raise ResourceLimit(f"balls B_0..B_{depth} hold one level per n, over the cap "
                            f"{cap} (set {BALL_CAP_ENV} to raise it)")
    levels += [[]] * (depth + 1 - len(levels))
    return BallTable(s, levels, level_of)


def pseudo_finite_within(s: Structure, gens, depth: int) -> dict:
    """Is M = B_n for some n <= depth?  (M^0-style universal balls count.)"""
    _check_depth(depth)
    n = None
    if s.size is not None or isinstance(s, ZeroAdjoinedMonoid):
        bt = division_balls(s, gens, depth)
        sizes, n = bt.sizes(), bt.whole_at()
        if n is not None:
            sizes = sizes[:n + 1]
            reason = (f"B_{n} is the whole monoid" if s.size is None
                      else f"B_{n} exhausts all {s.size} elements")
        elif s.size is None:
            reason = "no ball reached the whole monoid"
        elif (stall := bt.stable_at()) is not None:
            reason = f"balls stall at B_{stall} with {sizes[stall]} of {s.size} elements"
        else:
            reason = f"B_{depth} has {sizes[-1]} of {s.size} elements"
    else:
        # Z / Zd / free: every ball is finite while M is infinite, so no
        # enumeration is needed (or possible at the depths this gets asked at).
        sizes = []
        if is_graded(s, gens):
            sizes = [s.ball_size(k) for k in range(min(depth, 64) + 1)]
        reason = "monoid is infinite but every ball is finite"
    return {"found": n is not None, "n": n, "depth": depth, "ball_sizes": sizes,
            "reason": reason}


# ---------------------------------------------------------------------------
# right-multiplication BFS (geodesic words over a generating set)
# ---------------------------------------------------------------------------

def bfs_words(s: Structure, gens, depth: int, targets=None) -> dict:
    """Lexicographically-least shortest words over `gens` (right
    multiplication), as a dict element -> tuple of generator indices, for
    the elements within `depth` steps of e.  Stops early once all `targets`
    are found, if given."""
    cap = ball_cap()
    e = s.identity()
    words = {e: ()}
    remaining = None if targets is None else set(targets) - {e}
    if remaining is not None and not remaining:
        return words
    spheres = _spheres(
        s, gens, words, lambda n, u, i: words[u] + (i,), cap,
        lambda n, size: f"word BFS exceeded cap {cap} (set {BALL_CAP_ENV} to raise it)")
    # each sphere adds to words, so the cap or the fixpoint comes before cap + 1
    for nxt in islice(spheres, min(depth, cap + 1)):
        if remaining is not None:
            remaining.difference_update(nxt)
            if not remaining:
                break
    return words


def geodesic_words(s: Structure, gens, points, max_depth: int) -> dict:
    """Least shortest word over gens for each of `points`, as a dict
    point -> tuple of generator indices: the word bfs_words gives, read off
    in closed form on the standard generating sets (in any order, with
    repeats; a repeated generator goes by its first index).  Elsewhere
    one BFS serves every point: it stops once the farthest point is reached,
    so it raises the cap error exactly when that point's own BFS would."""
    if max_depth < 0:
        raise InvalidInput(f"geodesic search depth must be >= 0, got {max_depth}")
    if is_graded(s, gens):
        idx = {g: i for i, g in reversed(list(enumerate(gens)))}
        return {u: s.least_word(idx, u) for u in points}
    words = bfs_words(s, gens, max_depth, targets=points)
    if any(u not in words for u in points):
        raise ResourceLimit(f"element not reached within depth {max_depth}")
    return {u: words[u] for u in points}
