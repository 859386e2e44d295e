"""The skeleton prop of oriented surface cobordisms: objects are port counts,
morphisms are equivalence classes encoded by a canonical normal form, with
gluing, disjoint union, Euler-characteristic bookkeeping, TQFT evaluation
against a commutative Frobenius algebra, and determinant lines.

A cobordism is a multiset of connected components (genus, in-legs, out-legs)
whose legs partition the global in-ports 1..p and out-ports 1..q.  Two
cobordisms are equal iff their normal forms coincide.  Input is checked
once, where it enters the program: the ``Cobordism`` constructor,
``Cobordism.from_json`` and ``load``, and the identity, permutation,
connected and preset constructors.  ``compose`` and ``tensor`` combine
checked cobordisms into results that partition their ports by
construction, so they build the normal form directly, unchecked; each
normal form stores its Euler characteristic chi = 2k - 2g - p - q.  Gluing
merges components by a union-find over the glued circles; each circle that
closes a cycle adds a handle, so the genus of a merged cluster grows by the
cycle rank E - V + 1 of its gluing graph, and chi is additive under both
compositions (asserted on every compose).

A TQFT map (``TQFTMap``) is held as exact integer rows with one
denominator, and evaluated, composed, tensored and compared in ints; the
structure maps of the Frobenius algebra are read into that form straight
from its structure constants and pairing.  A map becomes a
``SparseMatrix`` of field elements only when it is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .algebra import FDAlgebra, FrobeniusStructure, PreconditionError
from .linalg import (SparseMatrix, _field_rows, _integer_rows, _lowest_terms,
                     _row_kron, _row_product)


class CobordismError(ValueError):
    pass


def _count_error(n, what) -> CobordismError:
    """The error for a port count or genus ``n`` that is not a nonnegative
    int; a bool is not a count."""
    if type(n) is not int:
        return CobordismError(f"{what} {n!r} is not an integer")
    return CobordismError(f"{what} {n!r} is negative")


class Cobordism:
    """A morphism p -> q of the cobordism prop in normal form: components
    (genus, in-legs, out-legs) with sorted leg tuples, in a canonical order
    (``_component_key``), and chi = 2k - 2g - p - q, stored when the normal
    form is made.  The constructor, and so every entry point the module
    docstring lists, refuses anything but nonnegative int counts and int
    legs that partition the ports.  ``compose`` and ``tensor`` take checked
    cobordisms and build their results' normal forms directly
    (``_normal``)."""

    __slots__ = ("p", "q", "components", "_chi")

    def __init__(self, p: int, q: int, components):
        if type(p) is not int or p < 0:
            raise _count_error(p, "in-port count")
        if type(q) is not int or q < 0:
            raise _count_error(q, "out-port count")
        comps, ins, outs = [], [], []
        for genus, in_legs, out_legs in components:
            if type(genus) is not int or genus < 0:
                raise _count_error(genus, "genus")
            try:
                a, b = sorted(in_legs), sorted(out_legs)
            except TypeError:  # legs not a list, or of mixed types
                raise CobordismError(
                    f"legs {in_legs!r}, {out_legs!r} are not lists of integers"
                ) from None
            comps.append((genus, tuple(a), tuple(b)))
            ins += a
            outs += b
        # a bool or an integral float would pass the partition test as a port
        if not {int}.issuperset(map(type, ins + outs)):
            raise CobordismError(f"legs {ins}, {outs} are not lists of integers")
        if sorted(ins) != list(range(1, p + 1)):
            raise CobordismError(f"in-legs {sorted(ins)} do not partition 1..{p}")
        if sorted(outs) != list(range(1, q + 1)):
            raise CobordismError(f"out-legs {sorted(outs)} do not partition 1..{q}")
        self._set_normal(p, q, comps)

    def _set_normal(self, p: int, q: int, comps):
        """The normalization step: order the components and store chi.  The
        legs are sorted tuples that partition 1..p and 1..q."""
        genus = 0
        for comp in comps:
            genus += comp[0]
        self.p = p
        self.q = q
        self.components = tuple(sorted(comps, key=self._component_key))
        self._chi = 2 * (len(comps) - genus) - p - q

    @classmethod
    def _normal(cls, p: int, q: int, comps) -> "Cobordism":
        """The cobordism of components already known to be valid, through
        the normalization step alone: no input is checked."""
        cob = cls.__new__(cls)
        cob._set_normal(p, q, comps)
        return cob

    @staticmethod
    def _component_key(comp):
        genus, in_legs, out_legs = comp
        # the leading port, in-ports before out-ports; the legs are sorted
        lead = (0, in_legs[0]) if in_legs else (1, out_legs[0]) if out_legs else (2, 0)
        return (lead, genus, in_legs, out_legs)

    # -- invariants -----------------------------------------------------------

    def euler_characteristic(self) -> int:
        """chi = 2k - 2g - p - q, stored with the normal form."""
        return self._chi

    def positive_boundary(self) -> bool:
        """Whether every component has an in-circle and an out-circle."""
        return all(ins and outs for _, ins, outs in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, Cobordism)
            and (self.p, self.q, self.components)
            == (other.p, other.q, other.components)
        )

    def __hash__(self):
        return hash((self.p, self.q, self.components))

    def __repr__(self):
        return f"Cobordism({self.p}->{self.q}, {list(self.components)})"

    # -- prop structure ---------------------------------------------------------

    def compose(self, g: "Cobordism") -> "Cobordism":
        """g o self : glue this cobordism's out-circles to g's in-circles.

        A union-find over the components of both sides, this cobordism's
        first: each glued circle joins the two components it bounds.  A
        circle whose two sides already share a root closes a cycle and adds
        one handle, and merging two roots carries their handle counts over.
        Every component ends under one root, so the merged components
        partition the ports and the result is built in normal form."""
        if self.q != g.p:
            raise CobordismError(
                f"cannot glue {self.q} out-circles to {g.p} in-circles"
            )
        comps = self.components + g.components
        k = len(self.components)
        parent = list(range(len(comps)))
        genus = [c[0] for c in comps]
        out_owner = {j: i for i, (_, _, outs) in enumerate(self.components)
                     for j in outs}
        for b, (_, ins, _) in enumerate(g.components, k):
            # b stays a root while its legs are glued: each joins a root to it
            for j in ins:
                a = out_owner[j]
                while parent[a] != a:
                    a = parent[a]
                if a == b:
                    genus[b] += 1
                else:
                    parent[a] = b
                    genus[b] += genus[a]
        legs: dict = {}   # root -> the merged component's (in-legs, out-legs)
        for i, (_, ins, outs) in enumerate(comps):
            r = i
            while parent[r] != r:
                r = parent[r]
            in_legs, out_legs = legs.setdefault(r, ([], []))
            if i < k:
                in_legs.extend(ins)
            else:
                out_legs.extend(outs)
        result = Cobordism._normal(self.p, g.q, [
            (genus[r], tuple(sorted(ins)), tuple(sorted(outs)))
            for r, (ins, outs) in legs.items()])
        if result._chi != self._chi + g._chi:
            raise CobordismError("gluing broke Euler characteristic additivity")
        return result

    def tensor(self, g: "Cobordism") -> "Cobordism":
        """Disjoint union, with g's ports shifted past this cobordism's."""
        p, q = self.p, self.q
        comps = list(self.components)
        comps += [(genus, tuple(i + p for i in ins), tuple(j + q for j in outs))
                  for genus, ins, outs in g.components]
        return Cobordism._normal(p + g.p, q + g.q, comps)

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        return {
            "in": self.p,
            "out": self.q,
            "components": [
                {"genus": g, "in_legs": list(i), "out_legs": list(o)}
                for g, i, o in self.components
            ],
        }

    @classmethod
    def from_json(cls, obj):
        part = "the top level"
        try:
            components = obj["components"]
            part = "'components'"
            comps = [
                (c.get("genus", 0), c.get("in_legs", []), c.get("out_legs", []))
                for c in components
            ]
            p, q = obj["in"], obj["out"]
        except KeyError as exc:
            raise CobordismError(f"cobordism file missing key {exc}") from exc
        except (TypeError, AttributeError):
            raise CobordismError(f"cobordism file: {part} is malformed") from None
        return cls(p, q, comps)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:  # a JSON or a text decoding error
                raise CobordismError(
                    f"cobordism file {path}: not valid JSON ({exc})") from None
        return cls.from_json(obj)


# ---------------------------------------------------------------------------
# presets and constructors


def identity_cobordism(p: int) -> Cobordism:
    return Cobordism(p, p, [(0, [i], [i]) for i in range(1, p + 1)])


def permutation_cobordism(perm) -> Cobordism:
    """Cylinders wiring in-port i to out-port perm[i-1] (perm is 1-based values)."""
    p = len(perm)
    if sorted(perm) != list(range(1, p + 1)):
        raise CobordismError("not a permutation of 1..p")
    return Cobordism(p, p, [(0, [i], [perm[i - 1]]) for i in range(1, p + 1)])


def connected_cobordism(genus: int, p: int, q: int) -> Cobordism:
    return Cobordism(p, q, [(genus, range(1, p + 1), range(1, q + 1))])


_PRESETS = {
    "cyl": lambda: identity_cobordism(1),
    "pants": lambda: connected_cobordism(0, 2, 1),
    "copants": lambda: connected_cobordism(0, 1, 2),
    "cap_in": lambda: connected_cobordism(0, 1, 0),   # disk killing an in-circle
    "cap_out": lambda: connected_cobordism(0, 0, 1),  # disk creating an out-circle
    "twist": lambda: permutation_cobordism([2, 1]),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_cobordism(name: str) -> Cobordism:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise CobordismError(
            f"unknown cobordism preset {name!r} (available: {', '.join(PRESET_NAMES)})"
        ) from None


# ---------------------------------------------------------------------------
# TQFT evaluation


class TQFTMap:
    """A linear map A^{(x)p} -> A^{(x)q} attached to a cobordism evaluation,
    held as exact integer rows with one denominator: ``rows[i]`` maps the
    column j of each nonzero entry of row i to an int n, the entry being
    n / c.  The form is normal: over F_p each n is reduced and c = 1, over
    Q gcd(c, every n) = 1 (``_lowest_terms``).  So composition and tensor
    products run on ints (``_row_product``, ``_row_kron``), and two maps are
    equal iff their algebras (field and dimension), rows and c are; maps
    on different algebras are never composed or tensored.  ``matrix``, the
    ``SparseMatrix`` of field elements (Fractions over Q), is made on its
    first read."""

    __slots__ = ("field", "dim", "p", "q", "rows", "c", "_matrix")

    def __init__(self, field, dim, p, q, rows, c):
        if c != 1:
            rows, c = _lowest_terms(rows, c)
        self.field, self.dim, self.p, self.q = field, dim, p, q
        self.rows, self.c = rows, c
        self._matrix = None

    @property
    def matrix(self) -> SparseMatrix:
        if self._matrix is None:
            self._matrix = SparseMatrix(
                self.field, self.dim ** self.q, self.dim ** self.p,
                _field_rows(self.field, self.rows, self.c))
        return self._matrix

    def _check_algebra(self, other: "TQFTMap"):
        if (self.field, self.dim) != (other.field, other.dim):
            raise CobordismError(
                f"TQFT maps on different algebras: dimension {self.dim} over "
                f"{self.field} and dimension {other.dim} over {other.field}")

    def compose(self, other: "TQFTMap") -> "TQFTMap":
        """other o self."""
        self._check_algebra(other)
        if self.q != other.p:
            raise CobordismError("TQFT map composition mismatch")
        return TQFTMap(self.field, self.dim, self.p, other.q,
                       _row_product(other.rows, self.rows, self.field.char),
                       self.c * other.c)

    def tensor(self, other: "TQFTMap") -> "TQFTMap":
        self._check_algebra(other)
        return TQFTMap(self.field, self.dim, self.p + other.p, self.q + other.q,
                       _row_kron(self.rows, other.rows, other.dim ** other.p,
                                 self.field.char),
                       self.c * other.c)

    def __eq__(self, other):
        return (
            isinstance(other, TQFTMap)
            and (self.field, self.dim, self.p, self.q, self.c)
            == (other.field, other.dim, other.p, other.q, other.c)
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"TQFTMap({self.p}->{self.q})"


class FrobeniusTQFT:
    """The evaluation functor of the cobordism prop on a commutative
    Frobenius algebra: pants evaluate to the product, copants to the
    pairing-induced coproduct, genus to handle-element multiplication.

    Every structure map is a ``TQFTMap``: ``ident``, ``mult``, ``unit``,
    ``counit``, ``coproduct`` and ``handle``.  The product, unit, counit and
    copairing are read once from the structure constants and the pairing as
    integer rows (``_structure_map``); everything else is built from them by
    ``TQFTMap.compose`` and ``tensor``, so no map is formed as a dense
    matrix.  With gamma the copairing (``frob.copairing``, the inverse of
    the pairing matrix, as an element of A (x) A), the coproduct is
    delta = (mu (x) 1)(1 (x) gamma), so delta(1) = gamma; the counit is
    eps(a) = <a, 1>; the handle is multiplication by mu(delta(1)).
    The counit identities (eps (x) 1) delta = 1 = (1 (x) eps) delta,
    coassociativity and the Frobenius relation
    delta mu = (mu (x) 1)(1 (x) delta) are asserted at construction, in that
    order.  Once the first holds, <a, b> = eps(ab), so the pairing is a
    Frobenius form and the other two follow.  Noncommutative algebras and
    degenerate pairings are refused.  Every cobordism evaluates, caps and
    closed components included; a caller that wants only cobordisms with
    positive boundary tests ``Cobordism.positive_boundary`` first.

    Component maps (per genus, in-legs, out-legs) and port index maps (per
    slot permutation) are built on first use and kept on the instance, so
    one instance serves many evaluations cheaply.  A component map is built
    from the next smaller shape by one composition (``_component``): drop
    an in-leg by one product, else an out-leg by one coproduct, else a cap
    by the counit, else a handle, down to the unit or the identity.
    """

    def __init__(self, alg: FDAlgebra, frob: FrobeniusStructure):
        if not alg.is_commutative():
            raise PreconditionError("TQFT evaluation needs a commutative algebra")
        if not frob.nondegenerate:
            raise PreconditionError("TQFT evaluation needs a nondegenerate pairing")
        self.alg = alg
        self.frob = frob
        self._components = {}   # (genus, p, q) -> TQFTMap
        self._port_maps = {}    # slots -> (indices, signs), never handed out
        m = alg.dim
        self.ident = self._identity(1)
        self.mult = self._structure_map(2, 1, [
            ((k, i * m + j), c)
            for (i, j), row in alg.mult.items() for k, c in row.items()])
        self.unit = self._structure_map(0, 1, [
            ((k, 0), c) for k, c in enumerate(alg.unit)])
        # counit(e_i) = <e_i, 1> = sum_j pairing[i][j] unit[j]
        self.counit = self._structure_map(1, 0, [
            ((0, i), a * alg.unit[j]) for i, row in enumerate(frob.pairing.rows)
            for j, a in row.items()])
        self.coproduct = self._coproduct()
        handle_element = self.unit.compose(self.coproduct).compose(self.mult)
        self.handle = handle_element.tensor(self.ident).compose(self.mult)
        self._check_frobenius_axioms()

    def _identity(self, width: int) -> TQFTMap:
        """The identity of A^{(x)width}."""
        m = self.alg.dim
        return TQFTMap(self.alg.field, m, width, width,
                       [{i: 1} for i in range(m ** width)], 1)

    def _structure_map(self, p: int, q: int, terms) -> TQFTMap:
        """The map A^{(x)p} -> A^{(x)q} whose entries sum the ``((i, j), c)``
        terms (``SparseMatrix.from_terms``), read once as integer rows
        (``_integer_rows``)."""
        f, m = self.alg.field, self.alg.dim
        rows = SparseMatrix.from_terms(f, m ** q, m ** p, terms).rows
        return TQFTMap(f, m, p, q, *_integer_rows(rows, f.char))

    def _coproduct(self) -> TQFTMap:
        """(mu (x) 1)(1 (x) gamma), gamma the copairing as a map A^0 -> A^2."""
        m = self.alg.dim
        gamma = self._structure_map(0, 2, [
            ((i * m + j, 0), c) for i, row in enumerate(self.frob.copairing.rows)
            for j, c in row.items()])
        return self.ident.tensor(gamma).compose(self.mult.tensor(self.ident))

    def _check_frobenius_axioms(self):
        ident, dm, mult = self.ident, self.coproduct, self.mult
        # counit axioms for the derived coproduct
        if (dm.compose(self.counit.tensor(ident)) != ident
                or dm.compose(ident.tensor(self.counit)) != ident):
            raise PreconditionError("pairing-induced coproduct fails the counit axiom")
        # coassociativity
        if dm.compose(dm.tensor(ident)) != dm.compose(ident.tensor(dm)):
            raise PreconditionError("pairing-induced coproduct is not coassociative")
        # Frobenius compatibility: delta o mu = (mu (x) id) o (id (x) delta)
        if mult.compose(dm) != ident.tensor(dm).compose(mult.tensor(ident)):
            raise PreconditionError("Frobenius compatibility fails")

    # -- evaluation ---------------------------------------------------------------

    def _component(self, genus: int, p_i: int, q_i: int) -> TQFTMap:
        """The map of one connected component, cached per shape.  Each shape
        is one composition away from a smaller cached shape:

        - p_i >= 2: the (genus, p_i - 1, q_i) map after mult (x) id^{p_i - 2}
        - else q_i >= 2: the (genus, p_i, q_i - 1) map, then
          coproduct (x) id^{q_i - 2}
        - else q_i = 0: the (genus, p_i, 1) map, then the counit
        - else genus >= 1: the (genus - 1, p_i, 1) map, then the handle
        - else the unit (p_i = 0) or the identity (p_i = 1).

        The result is the iterated product (left to right), the handle
        factors, then the iterated coproduct (split on the first leg), as a
        composite of the same structure maps.  Callers must not mutate it."""
        key = (genus, p_i, q_i)
        tm = self._components.get(key)
        if tm is None:
            if p_i >= 2:
                tm = self.mult.tensor(self._identity(p_i - 2)).compose(
                    self._component(genus, p_i - 1, q_i))
            elif q_i >= 2:
                tm = self._component(genus, p_i, q_i - 1).compose(
                    self.coproduct.tensor(self._identity(q_i - 2)))
            elif q_i == 0:
                tm = self._component(genus, p_i, 1).compose(self.counit)
            elif genus:
                tm = self._component(genus - 1, p_i, 1).compose(self.handle)
            else:
                tm = self.unit if p_i == 0 else self.ident
            self._components[key] = tm
        return tm

    def _port_map(self, slots: tuple):
        """The signed permutation of A^{(x)width} (width = len(slots)) from
        the block of component maps, whose tensor slot k carries global port
        ``slots[k]``, to the global ports 1..width, as two lists over block
        indices: the global index and the sign.  The Koszul sign flips once
        per inverted pair of slots whose basis elements are both of odd
        degree.  Both ends of an evaluation use it: the map from the global
        in-ports to the block is its inverse, and the inverse of a signed
        slot permutation is the map of the inverse slot permutation, with
        the same signs.  Cached per slots; callers must not mutate it."""
        out = self._port_maps.get(slots)
        if out is None:
            m = self.alg.dim
            odd = [d % 2 for d in self.alg.degrees]
            pos = {port: k for k, port in enumerate(slots)}
            # global slot t carries block slot sources[t]
            sources = [pos[j] for j in range(1, len(slots) + 1)]
            inversions = [(s, s2) for t, s in enumerate(sources)
                          for s2 in sources[t + 1:] if s2 < s]
            targets, signs = [], []
            # digits run most significant first, as in the column index
            for digits in product(range(m), repeat=len(slots)):
                row = 0
                for s in sources:
                    row = row * m + digits[s]
                sign = 1
                for s, s2 in inversions:
                    if odd[digits[s]] and odd[digits[s2]]:
                        sign = -sign
                targets.append(row)
                signs.append(sign)
            out = self._port_maps[slots] = (targets, signs)
        return out

    def evaluate(self, cob: Cobordism) -> TQFTMap:
        """Evaluate a cobordism: each component contributes iterated product,
        handle factors, iterated coproduct; ports are wired by (signed)
        tensor permutations; closed components contribute scalar factors.

        All in integer rows: the open components' rows are multiplied out
        by ``_row_kron``, the closed components' values fold into one int
        factor and the denominator, and each row of the block is scattered
        to its global row, each entry to its global column, through the
        port maps, so no dense permutation product is formed."""
        f = self.alg.field
        p = f.char
        m = self.alg.dim
        block = None
        scalar, c = 1, 1
        in_slots, out_slots = [], []
        for genus, ins, outs in cob.components:
            tm = self._component(genus, len(ins), len(outs))
            rows = tm.rows
            c *= tm.c
            if not ins and not outs:
                # closed component: the 1x1 map counit(handle^genus(1))
                scalar *= rows[0].get(0, 0)
            else:
                block = rows if block is None else _row_kron(
                    block, rows, m ** len(ins), p)
                in_slots += ins
                out_slots += outs
        if block is None:
            block = [{0: 1}]   # the empty tensor product, a 1x1 identity
        if p:
            scalar %= p
        if not scalar:
            block = [{}] * len(block)
        col_index, col_sign = self._port_map(tuple(in_slots))
        row_index, row_sign = self._port_map(tuple(out_slots))
        data = [None] * len(row_index)
        for brow, r, s in zip(block, row_index, row_sign):
            w = s * scalar
            if p:
                data[r] = {col_index[k]: v * w * col_sign[k] % p
                           for k, v in brow.items()}
            else:
                data[r] = {col_index[k]: v * w * col_sign[k]
                           for k, v in brow.items()}
        return TQFTMap(f, m, cob.p, cob.q, data, c)


def tqft_evaluate(alg: FDAlgebra, frob: FrobeniusStructure,
                  cob: Cobordism) -> TQFTMap:
    return FrobeniusTQFT(alg, frob).evaluate(cob)


# ---------------------------------------------------------------------------
# pants decompositions (used by the decomposition-invariance tests)


def _cylinders(targets) -> Cobordism:
    """Cylinders wiring in-port i to out-port targets[i - 1], built in
    normal form: ``targets`` is a permutation of 1..n that the caller made."""
    n = len(targets)
    return Cobordism._normal(n, n, [(0, (i,), (t,))
                                    for i, t in enumerate(targets, 1)])


def _sphere(p: int, q: int) -> Cobordism:
    """The connected genus-0 cobordism p -> q, built in normal form."""
    return Cobordism._normal(p, q, [(0, tuple(range(1, p + 1)),
                                     tuple(range(1, q + 1)))])


def _elementary(width: int, position: int, piece: Cobordism) -> Cobordism:
    """cyl^{(x)position} (x) piece (x) cyl^{(x)(width-position-1... )}."""
    left = _cylinders(range(1, position + 1))
    right = _cylinders(range(1, width - position - piece.p + 1))
    return left.tensor(piece).tensor(right)


def pants_decomposition(cob: Cobordism, rng=None) -> list:
    """A list of elementary layers whose left-to-right composition equals the
    cobordism (asserted).  A seeded rng randomizes the merge/split order."""
    import random

    rng = rng or random.Random(0)
    pants, copants = _sphere(2, 1), _sphere(1, 2)
    cap_in, cap_out = _sphere(1, 0), _sphere(0, 1)

    comps = list(cob.components)
    layers: list[Cobordism] = []
    # route global in-ports to a contiguous per-component layout
    in_order = [i for _, ins, _ in comps for i in ins]
    if cob.p:
        perm = [0] * cob.p
        for newpos, port in enumerate(in_order, start=1):
            perm[port - 1] = newpos
        layers.append(_cylinders(perm))

    # per-component layer sequences on disjoint strands, concatenated by
    # padding with identities
    seqs = []
    for genus, ins, outs in comps:
        w = len(ins)
        seq = []
        if w == 0:
            seq.append(cap_out)
            w = 1
        while w > 1:
            pos = rng.randrange(w - 1)
            seq.append(_elementary(w, pos, pants))
            w -= 1
        for _ in range(genus):
            seq.append(_elementary(w, 0, copants))   # width w -> w + 1
            seq.append(_elementary(w + 1, 0, pants))  # and back to w
        target = len(outs)
        if target == 0:
            seq.append(cap_in)
            w = 0
        while w < target:
            pos = rng.randrange(w)
            seq.append(_elementary(w, pos, copants))
            w += 1
        seqs.append((seq, len(ins), target))

    depth = max((len(s) for s, _, _ in seqs), default=0)
    for level in range(depth):
        layer = None
        for seq, _, wout in seqs:
            piece = (seq[level] if level < len(seq)
                     else _cylinders(range(1, wout + 1)))
            layer = piece if layer is None else layer.tensor(piece)
        if layer is not None:
            layers.append(layer)

    # route contiguous component out-strands to the global out-ports
    out_order = [j for _, _, outs in comps for j in outs]
    if cob.q:
        layers.append(_cylinders(out_order))

    chained = layers[0] if layers else identity_cobordism(0)
    for layer in layers[1:]:
        chained = chained.compose(layer)
    if chained != cob:
        raise CobordismError("pants decomposition does not recompose")
    return layers


# ---------------------------------------------------------------------------
# determinant lines


@dataclass(frozen=True)
class DetLine:
    """An element of the d-th power of the determinant line of a cobordism:
    rank = -chi(F), an integer coefficient against the canonical generator,
    and the twisting exponent."""

    cob: Cobordism
    rank: int
    coeff: int
    power: int = 1

    def __repr__(self):
        return f"DetLine(rank {self.rank}, coeff {self.coeff}, power {self.power})"


def det_line(cob: Cobordism, coeff: int = 1, power: int = 1) -> DetLine:
    """The determinant line of a cobordism with positive boundary
    (``Cobordism.positive_boundary``); its rank is -chi.  The coefficient is
    stored already twisted: an orientation sign s enters as s**power."""
    if not cob.positive_boundary():
        raise CobordismError(
            "determinant lines need positive in- and out-boundary on every component"
        )
    if coeff == 0:
        raise CobordismError("a determinant-line element must be a generator multiple")
    return DetLine(cob, -cob.euler_characteristic(), coeff, power)


def twist_coeff(orientation_sign: int, power: int) -> int:
    """The d-th tensor power sends an orientation sign to its d-th power,
    an int for every integer d (a negative power too)."""
    if orientation_sign not in (1, -1):
        raise CobordismError("orientation coefficient must be +-1")
    return orientation_sign if power % 2 else 1


def det_compose(x: DetLine, y: DetLine) -> DetLine:
    """Composition along the glued cobordism: ranks add, coefficients
    multiply (the short-exact-sequence isomorphism of determinant lines)."""
    if x.power != y.power:
        raise CobordismError("determinant lines twisted by different powers")
    glued = x.cob.compose(y.cob)
    rank = -glued.euler_characteristic()
    if rank != x.rank + y.rank:
        raise CobordismError("determinant rank is not additive (chi broke)")
    return DetLine(glued, rank, x.coeff * y.coeff, x.power)
