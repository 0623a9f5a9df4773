"""A frozen copy of the tuple representation of free words, the oracle for
the packed one in waug.structures.FreeStructure.

A word is a tuple of nonzero signed 1-based generator indices, negative
meaning inverse; group words are kept reduced; elem_key orders words by
length, then letter by letter in the order a, a^-1, b, b^-1, ... (a, b,
... in a monoid).  This was FreeStructure before its words were packed
into ints; it is kept as it was, not maintained alongside.
"""

from waug.structures import InvalidInput, Structure


def _letter_names(rank: int):
    """a, b, c, d, f, ... (e names the identity) up to rank 25, else g1, g2, ..."""
    if rank <= 25:
        return list("abcdfghijklmnopqrstuvwxyz"[:rank])
    return [f"g{i + 1}" for i in range(rank)]


class TupleFreeStructure(Structure):
    """Free group (inverses=True) or free monoid (inverses=False) of given rank."""

    def __init__(self, rank: int, inverses: bool = True):
        if rank < 1:
            raise InvalidInput("free structure needs rank >= 1")
        self.rank = rank
        self.inverses = inverses
        self.is_group = inverses
        self.family = "free"
        self.names = _letter_names(rank)
        # elem_key's letter order: a, a^-1, b, b^-1, ... (a, b, ... in a monoid)
        self._rank_of = {g: (2 * g - 1 if g > 0 else -2 * g) if inverses else g
                         for g in range(-rank, rank + 1) if g}

    def identity(self):
        return ()

    def _check_letters(self, u):
        for g in u:
            if g == 0 or abs(g) > self.rank:
                raise InvalidInput(f"letter {g} out of range for rank {self.rank}")
            if g < 0 and not self.inverses:
                raise InvalidInput("free monoid words cannot contain inverse letters")

    def multiply(self, u, v):
        if not self.inverses:
            return u + v
        # reduced concatenation: cancel at the seam
        i = len(u)
        j = 0
        while i > 0 and j < len(v) and u[i - 1] == -v[j]:
            i -= 1
            j += 1
        return u[:i] + v[j:]

    def invert(self, u):
        if not self.inverses:
            raise InvalidInput("free monoid: no inverses")
        return tuple(-g for g in reversed(u))

    def default_generators(self):
        gens = []
        for g in range(1, self.rank + 1):
            gens.append((g,))
            if self.inverses:
                gens.append((-g,))
        return gens

    def is_standard_generators(self, gens):
        return set(gens) == set(self.default_generators())

    def elem_key(self, u):
        return (len(u), tuple(map(self._rank_of.__getitem__, u)))

    def word_length(self, u):
        return len(u)

    # the batched maps of the Structure interface, element by element
    def right_images(self, us, x):
        return [self.multiply(u, x) for u in us]

    def right_quotients(self, us, x):
        if self.inverses:
            return super().right_quotients(us, x)
        return [v for u in us for v in self.right_divide_point(u, x)]

    def right_divide_point(self, u, x):
        if self.inverses:
            return frozenset(super().right_quotients([u], x))
        # monoid: v x = u iff x is a suffix of u
        n = len(x)
        if n <= len(u) and (n == 0 or u[len(u) - n:] == x):
            return frozenset([u[:len(u) - n]])
        return frozenset()

    def elem_to_json(self, u):
        return list(u)

    def elem_from_json(self, obj):
        if not isinstance(obj, (list, tuple)) or not all(
                isinstance(g, int) and not isinstance(g, bool) for g in obj):
            raise InvalidInput(f"free word must be a list of nonzero ints, got {obj!r}")
        u = tuple(obj)
        self._check_letters(u)
        if self.inverses:
            # must come in reduced
            for a, b in zip(u, u[1:]):
                if a == -b:
                    raise InvalidInput(f"word {obj!r} is not reduced")
        return u

    def elem_str(self, u):
        if not u:
            return "e"
        parts = []
        for g in u:
            name = self.names[abs(g) - 1]
            parts.append(name if g > 0 else name + "^-1")
        return ".".join(parts)

    def _read_str(self, text):
        if text == "e":
            return ()
        letters = {name: g for g, name in enumerate(self.names, start=1)}
        letters.update({name + "^-1": -g for name, g in letters.items()})
        return self.elem_from_json([letters[part] for part in text.split(".")])
