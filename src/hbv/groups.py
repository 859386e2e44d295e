"""Finite groups given by multiplication tables, with the presets used
throughout: Z2, Z3, Z4, Z6, S3, D4, Q8.

A group is a list of element names plus a table of index products.  Inverses,
conjugacy classes and centralizers are derived from the table, never supplied.
"""

from __future__ import annotations

import json


class GroupError(ValueError):
    pass


class FiniteGroup:
    def __init__(self, names, table, name="G"):
        if not (isinstance(names, list) and isinstance(table, list)
                and all(isinstance(r, list) and all(type(x) is int for x in r)
                        for r in table)):  # a bool is not an element index
            raise GroupError("elements must be a list and table a list of lists of integers")
        self.names = list(names)
        self.table = [list(r) for r in table]
        self.name = name
        self.order = len(self.names)
        self._validate()
        self.identity = self._find_identity()
        self.inv = self._find_inverses()

    # -- validation ---------------------------------------------------------

    def _validate(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise GroupError("table is not square of the right size")
        rng = set(range(n))
        for i, row in enumerate(self.table):
            if set(row) != rng:
                raise GroupError(f"table row {i} is not a permutation (not a Latin square)")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != rng:
                raise GroupError(f"table column {j} is not a permutation (not a Latin square)")
        # associativity
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupError(
                            f"associativity fails at ({self.names[a]}, {self.names[b]}, {self.names[c]})"
                        )

    def _find_identity(self):
        for e in range(self.order):
            if all(
                self.table[e][j] == j and self.table[j][e] == j
                for j in range(self.order)
            ):
                return e
        raise GroupError("no two-sided identity")

    def _find_inverses(self):
        inv = [None] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.table[i][j] == self.identity:
                    inv[i] = j
                    break
            if inv[i] is None or self.table[inv[i]][i] != self.identity:
                raise GroupError(f"no inverse for {self.names[i]}")
        return inv

    # -- structure ----------------------------------------------------------

    def conjugate(self, g, x):
        """x g x^{-1}."""
        return self.table[self.table[x][g]][self.inv[x]]

    def conjugacy_classes(self):
        """Classes as sorted index lists, ordered by minimal element."""
        seen = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            cls = sorted({self.conjugate(g, x) for x in range(self.order)})
            seen.update(cls)
            classes.append(cls)
        return classes

    def centralizer(self, g):
        """The centralizer of element g, as a FiniteGroup on its own elements."""
        members = [x for x in range(self.order) if self.table[x][g] == self.table[g][x]]
        pos = {x: k for k, x in enumerate(members)}
        table = [[pos[self.table[a][b]] for b in members] for a in members]
        return FiniteGroup(
            [self.names[x] for x in members],
            table,
            name=f"C_{self.name}({self.names[g]})",
        )

    def is_abelian(self):
        return all(
            self.table[i][j] == self.table[j][i]
            for i in range(self.order)
            for j in range(self.order)
        )

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"elements": self.names, "table": self.table}

    @classmethod
    def from_json(cls, obj, name="G"):
        try:
            elements, table = obj["elements"], obj["table"]
        except KeyError as exc:
            raise GroupError(f"group file missing key {exc}") from exc
        except TypeError:
            raise GroupError("group file: the top level is not an object") from None
        return cls(elements, table, name=name)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:  # a JSON or a text decoding error
                raise GroupError(f"group file {path}: not valid JSON ({exc})") from None
        return cls.from_json(obj, name=str(path))


# ---------------------------------------------------------------------------
# presets


def cyclic_group(n):
    names = [f"g{i}" if i else "e" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(names, table, name=f"Z{n}")


def symmetric_3():
    # permutations of {0,1,2} in one-line notation
    perms = [
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 0),
    ]
    names = ["e", "(123)", "(132)", "(12)", "(23)", "(13)"]
    idx = {p: k for k, p in enumerate(perms)}
    # (a*b)(x) = a(b(x))
    table = [
        [idx[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms
    ]
    return FiniteGroup(names, table, name="S3")


def dihedral_4():
    # r^i and s r^i with s r s = r^{-1}
    names = ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]

    def mul(a, b):
        fa, ia = divmod(a, 4)
        fb, ib = divmod(b, 4)
        if fa == 0 and fb == 0:
            return (ia + ib) % 4
        if fa == 0 and fb == 1:
            return 4 + (ib - ia) % 4
        if fa == 1 and fb == 0:
            return 4 + (ia + ib) % 4
        return (ib - ia) % 4

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(names, table, name="D4")


def quaternion_8():
    # 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def base_mul(x, y):
        # quaternion unit multiplication, returns (sign, unit)
        if x == "1":
            return 1, y
        if y == "1":
            return 1, x
        if x == y:
            return -1, "1"
        rules = {
            ("i", "j"): (1, "k"),
            ("j", "k"): (1, "i"),
            ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"),
            ("k", "j"): (-1, "i"),
            ("i", "k"): (-1, "j"),
        }
        return rules[(x, y)]

    def parse(n):
        return (-1, n[1:]) if n.startswith("-") else (1, n)

    idx = {n: k for k, n in enumerate(names)}

    def mul(a, b):
        sa, ua = parse(names[a])
        sb, ub = parse(names[b])
        s, u = base_mul(ua, ub)
        s *= sa * sb
        return idx[u if s == 1 else "-" + u]

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(names, table, name="Q8")


_PRESETS = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z6": lambda: cyclic_group(6),
    "S3": symmetric_3,
    "D4": dihedral_4,
    "Q8": quaternion_8,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> FiniteGroup:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise GroupError(
            f"unknown group preset {name!r} (available: {', '.join(PRESET_NAMES)})"
        ) from None
