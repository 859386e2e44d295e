"""Finite-dimensional graded algebras with optional Hopf data, Frobenius
pairings, integrals, and the group-algebra / exterior-algebra constructors.

Sign conventions (used verbatim everywhere downstream):

* product on a tensor square: ``(a (x) b) . (c (x) d) = (-1)^{|b||c|} ac (x) bd``;
* a pairing is *symmetric* in the graded sense: ``<a,b> = (-1)^{|a||b|} <b,a>``;
* exterior monomials are ordered by generator index, and the sign of a product
  is the parity of the degree-weighted interleaving permutation.

The axioms (associativity; coassociativity, counit, bialgebra and antipode
identities; the Frobenius identity) are checked on basis elements by
building both sides as ``sum_terms`` sums and comparing them: sparse vectors
drop their zeros, so two sides agree iff the dicts are equal, and a scalar
side is ``f.of_int`` of a plain sum.  Basis triples and pairs are visited in
lexicographic order, so the first witness named is the first that fails.
Algebra and Hopf axioms raise on the first failure; a ``FrobeniusStructure``
instead keeps its check flags and witnesses as fields, since a pairing that
fails a check (a non-symmetric one, say) is still a valid input to report on.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import product

from .fields import field_by_name
from .groups import FiniteGroup
from .linalg import (LinalgError, SparseMatrix, inverse, sparse_kernel_basis,
                     sum_terms)


class AlgebraError(ValueError):
    pass


class ModelError(AlgebraError):
    """A constructor was asked for a model outside its hypotheses."""


class PreconditionError(AlgebraError):
    """An operation's stated precondition fails on the given data."""


# ---------------------------------------------------------------------------
# core types


class FDAlgebra:
    """Unital associative algebra by structure constants.

    ``mult[(i, j)]`` maps basis index k to the coefficient of e_k in e_i e_j
    (absent keys are zero).  ``unit`` is the coefficient vector of 1.
    Associativity, the unit axioms, and degree additivity are asserted at
    construction.
    """

    def __init__(self, field, names, degrees, mult, unit):
        self.field = field
        self.names = list(names)
        self.degrees = list(degrees)
        self.dim = len(self.names)
        if len(self.degrees) != self.dim:
            raise AlgebraError("degrees/basis length mismatch")
        basis = range(self.dim)
        for (i, j), row in mult.items():
            # a bool or a float is not an index, though 1.0 and True are in range
            if not all(type(x) is int and x in basis for x in (i, j, *row)):
                raise AlgebraError(
                    f"product entry ({i}, {j}) -> {list(row)} indexes outside "
                    f"the basis 0..{self.dim - 1}"
                )
        self.mult = {
            ij: {k: c for k, c in row.items() if not field.is_zero(c)}
            for ij, row in mult.items()
        }
        self.mult = {ij: row for ij, row in self.mult.items() if row}
        if len(unit) != self.dim:
            raise AlgebraError("unit vector length mismatch")
        self.unit = list(unit)
        self.unit_index = self._unit_as_basis_index()
        self.hopf: HopfData | None = None
        self.group: FiniteGroup | None = None
        self._check_axioms()

    def _unit_as_basis_index(self):
        f = self.field
        idx = None
        for i, c in enumerate(self.unit):
            if f.is_zero(c):
                continue
            if idx is not None or c != f.one:
                return None
            idx = i
        return idx

    # -- basic arithmetic ---------------------------------------------------

    def mul_basis(self, i, j) -> dict:
        return self.mult.get((i, j), {})

    def mul_vec(self, u, v):
        f = self.field
        out = sum_terms(f, [(k, a * b * c) for i, a in enumerate(u) if a
                            for j, b in enumerate(v) if b
                            for k, c in self.mul_basis(i, j).items()])
        return [out.get(k, f.zero) for k in range(self.dim)]

    def left_mult_matrix(self, vec) -> SparseMatrix:
        """The matrix of x -> vec . x."""
        return SparseMatrix.from_terms(self.field, self.dim, self.dim,
                                       self._mult_terms(vec, 0))

    def right_mult_matrix(self, vec) -> SparseMatrix:
        """The matrix of x -> x . vec."""
        return SparseMatrix.from_terms(self.field, self.dim, self.dim,
                                       self._mult_terms(vec, 1))

    def _mult_terms(self, vec, side, row0=0):
        """The ``((row0 + k, j), c)`` terms of the matrix of x -> vec . x
        (``side`` 0) or x -> x . vec (``side`` 1), rows shifted by ``row0``:
        e_j is the factor that is not ``vec``, e_k the product's basis
        element."""
        return [((row0 + k, ij[1 - side]), a * c)
                for ij, row in self.mult.items() if (a := vec[ij[side]])
                for k, c in row.items()]

    def basis_vector(self, i):
        f = self.field
        v = [f.zero] * self.dim
        v[i] = f.one
        return v

    # -- checks and invariants ----------------------------------------------

    def _check_axioms(self):
        f = self.field
        for (i, j), row in self.mult.items():
            di, dj = self.degrees[i], self.degrees[j]
            for k in row:
                if self.degrees[k] != di + dj:
                    raise AlgebraError(
                        f"product {self.names[i]}*{self.names[j]} breaks the grading"
                    )
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.mul_vec(self.unit, e) != e or self.mul_vec(e, self.unit) != e:
                raise AlgebraError(f"unit axiom fails at basis element {self.names[i]}")
        mul = self.mul_basis
        for i, j, k in product(range(self.dim), repeat=3):
            lhs = sum_terms(f, [(l, c * c2) for m, c in mul(i, j).items()
                                for l, c2 in mul(m, k).items()])
            rhs = sum_terms(f, [(l, c * c2) for m, c in mul(j, k).items()
                                for l, c2 in mul(i, m).items()])
            if lhs != rhs:
                raise AlgebraError(
                    "associativity fails at "
                    f"({self.names[i]}, {self.names[j]}, {self.names[k]})"
                )

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mul_basis(i, j) != self.mul_basis(j, i):
                    return False
        return True

    def center_dim(self) -> int:
        """Dimension of {x : xz = zx for all z}, by one stacked linear solve."""
        e = [self.basis_vector(h) for h in range(self.dim)]
        return len(_commutation_kernel(self, list(zip(e, e))))

    def top_degree(self) -> int:
        return max(self.degrees)

    def is_graded(self) -> bool:
        return any(d != 0 for d in self.degrees)

    def graded_dims(self) -> dict:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def __repr__(self):
        return f"FDAlgebra(dim {self.dim} over {self.field})"


class HopfData:
    """Coproduct, counit and antipode for an FDAlgebra, verified on creation.

    ``coproduct[i]`` maps a pair (j, k) to the coefficient of e_j (x) e_k in
    the coproduct of e_i; ``counit`` is a coefficient vector; ``antipode`` is
    the matrix of S on the basis.
    """

    def __init__(self, alg: FDAlgebra, coproduct, counit, antipode: SparseMatrix):
        self.alg = alg
        f = alg.field
        basis = range(alg.dim)
        for i, row in coproduct.items():
            if not all(type(x) is int and x in basis
                       for jk in row for x in (i, *jk)):
                raise AlgebraError(
                    f"coproduct entry {i} -> {list(row)} indexes outside "
                    f"the basis 0..{alg.dim - 1}"
                )
        if (len(counit), antipode.nrows, antipode.ncols) != (alg.dim,) * 3:
            raise AlgebraError("counit or antipode size does not match the basis")
        self.coproduct = {
            i: {jk: c for jk, c in row.items() if not f.is_zero(c)}
            for i, row in coproduct.items()
        }
        self.coproduct = {i: row for i, row in self.coproduct.items() if row}
        self.counit = list(counit)
        self.antipode = antipode
        self._check_axioms()

    def coproduct_of_vec(self, vec) -> dict:
        f = self.alg.field
        return sum_terms(f, [(jk, a * c) for i, a in enumerate(vec)
                             if not f.is_zero(a)
                             for jk, c in self.coproduct.get(i, {}).items()])

    def _tensor_mul(self, x: dict, y: dict) -> dict:
        """Product in A (x) A with the Koszul sign."""
        alg = self.alg
        f = alg.field
        terms = []
        for (j1, k1), c1 in x.items():
            for (j2, k2), c2 in y.items():
                coef = c1 * c2
                if (alg.degrees[k1] * alg.degrees[j2]) % 2:
                    coef = -coef
                for j, cj in alg.mul_basis(j1, j2).items():
                    for k, ck in alg.mul_basis(k1, k2).items():
                        terms.append(((j, k), coef * (cj * ck)))
        return sum_terms(f, terms)

    def _check_axioms(self):
        alg = self.alg
        f = alg.field
        cop = self.coproduct
        eps = self.counit
        # coproduct respects the grading
        for i, row in cop.items():
            for (j, k) in row:
                if alg.degrees[j] + alg.degrees[k] != alg.degrees[i]:
                    raise AlgebraError("coproduct breaks the grading")
        # coassociativity
        for i in range(alg.dim):
            row = cop.get(i, {}).items()
            lhs = sum_terms(f, [((a, b, k), c * c2) for (j, k), c in row
                                for (a, b), c2 in cop.get(j, {}).items()])
            rhs = sum_terms(f, [((j, a, b), c * c2) for (j, k), c in row
                                for (a, b), c2 in cop.get(k, {}).items()])
            if lhs != rhs:
                raise AlgebraError(f"coassociativity fails at {alg.names[i]}")
        # counit axioms
        for i in range(alg.dim):
            row = cop.get(i, {}).items()
            left = sum_terms(f, [(k, c * eps[j]) for (j, k), c in row])
            right = sum_terms(f, [(j, c * eps[k]) for (j, k), c in row])
            if left != {i: f.one} or right != {i: f.one}:
                raise AlgebraError(f"counit axiom fails at {alg.names[i]}")
        # bialgebra: coproduct and counit are algebra maps, unit is grouplike
        unit = list(enumerate(alg.unit))
        if self.coproduct_of_vec(alg.unit) != sum_terms(
                f, [((i, j), a * b) for i, a in unit for j, b in unit]):
            raise AlgebraError("coproduct of the unit is not 1 (x) 1")
        for i, j in product(range(alg.dim), repeat=2):
            ij = alg.mul_basis(i, j).items()
            prod_cop = sum_terms(f, [(jk, c * c2) for k, c in ij
                                     for jk, c2 in cop.get(k, {}).items()])
            if prod_cop != self._tensor_mul(cop.get(i, {}), cop.get(j, {})):
                raise AlgebraError(
                    f"bialgebra compatibility fails at ({alg.names[i]}, {alg.names[j]})"
                )
            if f.of_int(sum(c * eps[k] for k, c in ij)) != f.mul(eps[i], eps[j]):
                raise AlgebraError("counit is not multiplicative")
        # antipode axiom, both sides
        # S[j] maps a to the coefficient of e_a in S(e_j)
        S = self.antipode.transpose().rows
        for i in range(alg.dim):
            row = cop.get(i, {}).items()
            left = sum_terms(f, [(l, c * s * cl) for (j, k), c in row
                                 for a, s in S[j].items()
                                 for l, cl in alg.mul_basis(a, k).items()])
            right = sum_terms(f, [(l, c * s * cl) for (j, k), c in row
                                  for b, s in S[k].items()
                                  for l, cl in alg.mul_basis(j, b).items()])
            target = sum_terms(f, [(l, eps[i] * u) for l, u in unit])
            if left != target or right != target:
                raise AlgebraError(f"antipode axiom fails at {alg.names[i]}")


class FrobeniusStructure:
    """A bilinear pairing on an algebra, checked at construction by
    exhaustive basis checks in this order: homogeneity, nondegeneracy, the
    Frobenius identity <a,bc> = <ab,c> and graded symmetry.

    ``copairing`` is the inverse of the pairing matrix, ``None`` when the
    pairing is degenerate.  ``degree`` is the lower degree of the pairing
    (-d for the homology of a Lie-group model, 0 in the ungraded case),
    ``None`` when the pairing is not homogeneous.  ``frobenius_identity``
    and ``symmetric`` are the flags of the last two checks.  ``failures``
    holds the witnesses in check order: ``("inhomogeneous-pairing",)``,
    ``("degenerate",)``, then the ``("frobenius", a, b, c)`` and
    ``("symmetry", a, b)`` basis names, 20 witnesses at most.  Every field
    is computed from the pairing matrix, never stored blindly.
    """

    def __init__(self, alg: FDAlgebra, pairing: SparseMatrix):
        f = alg.field
        if pairing.nrows != alg.dim or pairing.ncols != alg.dim:
            raise PreconditionError("pairing dimensions do not match the algebra")
        self.alg = alg
        self.pairing = pairing
        P, names, degrees = pairing.rows, alg.names, alg.degrees
        basis = range(alg.dim)
        failures = []
        sums = {degrees[i] + degrees[j] for i, row in enumerate(P) for j in row}
        if len(sums) > 1:
            self.degree = None
            failures.append(("inhomogeneous-pairing",))
        else:
            self.degree = -sums.pop() if sums else 0
        try:
            self.copairing = inverse(pairing)
        except LinalgError:
            self.copairing = None
            failures.append(("degenerate",))
        frob = [("frobenius", names[a], names[b], names[c])
                for a, b, c in product(basis, repeat=3)
                if f.of_int(sum(cc * P[a].get(k, 0)
                                for k, cc in alg.mul_basis(b, c).items()))
                != f.of_int(sum(cc * P[k].get(c, 0)
                                for k, cc in alg.mul_basis(a, b).items()))]
        minus = f.neg(f.one)
        sym = [("symmetry", names[i], names[j])
               for i, j in product(basis, repeat=2)
               if P[i].get(j, f.zero)
               != f.mul(minus if degrees[i] * degrees[j] % 2 else f.one,
                        P[j].get(i, f.zero))]
        self.frobenius_identity = not frob
        self.symmetric = not sym
        self.failures = (failures + frob + sym)[:20]

    @property
    def nondegenerate(self) -> bool:
        return self.copairing is not None


# ---------------------------------------------------------------------------
# constructors


def group_algebra(g: FiniteGroup, field) -> FDAlgebra:
    """The group algebra F[G] with its standard Hopf structure:
    the coproduct is diagonal, the antipode is the inverse map."""
    f = field
    dim = g.order
    mult = {(i, j): {g.table[i][j]: f.one} for i in range(dim) for j in range(dim)}
    unit = [f.zero] * dim
    unit[g.identity] = f.one
    alg = FDAlgebra(f, g.names, [0] * dim, mult, unit)
    alg.hopf = HopfData(
        alg,
        {i: {(i, i): f.one} for i in range(dim)},
        [f.one] * dim,
        SparseMatrix.from_terms(f, dim, dim,
                                [((g.inv[j], j), f.one) for j in range(dim)]),
    )
    alg.group = g
    return alg


def _exterior_names(degrees):
    names = []
    seen: dict[int, int] = {}
    for d in degrees:
        n = seen.get(d, 0)
        seen[d] = n + 1
        names.append(f"x{d}" + ("" if n == 0 else chr(ord("b") + n - 1)))
    return names


def exterior_algebra(gen_degrees, field) -> FDAlgebra:
    """The exterior algebra on odd-degree generators, as a primitively
    generated Hopf algebra: the model of H_*(G;Q) for a compact connected
    Lie group.  Characteristic 2 and even degrees are rejected."""
    f = field
    if f.char == 2:
        raise ModelError("exterior model unsupported in characteristic 2")
    if not gen_degrees or any(d <= 0 or d % 2 == 0 for d in gen_degrees):
        raise ModelError("exterior generators must have odd positive degree")
    k = len(gen_degrees)
    gen_names = _exterior_names(gen_degrees)
    subsets = []
    for mask in range(1 << k):
        subsets.append(tuple(i for i in range(k) if mask >> i & 1))
    subsets.sort(key=lambda s: (sum(gen_degrees[i] for i in s), s))
    index = {s: n for n, s in enumerate(subsets)}
    names = ["1" if not s else "".join(gen_names[i] for i in s) for s in subsets]
    degrees = [sum(gen_degrees[i] for i in s) for s in subsets]

    def merge(s, t):
        """(sign, union) of the ordered product x_s . x_t, or None."""
        if set(s) & set(t):
            return None
        inversions = sum(1 for i in s for j in t if i > j)
        # all generator degrees are odd, so each swap contributes -1
        sign = f.neg(f.one) if inversions % 2 else f.one
        return sign, tuple(sorted(s + t))

    mult = {}
    for s in subsets:
        for t in subsets:
            st = merge(s, t)
            if st is not None:
                sign, u = st
                mult[(index[s], index[t])] = {index[u]: sign}
    unit = [f.zero] * len(subsets)
    unit[index[()]] = f.one
    alg = FDAlgebra(f, names, degrees, mult, unit)

    # primitive coproduct, extended multiplicatively with Koszul signs
    def times_primitive(terms, i):
        """The terms of (x_u (x) x_v) . (x_i (x) 1 + 1 (x) x_i) over ``terms``."""
        for (u, v), c in terms.items():
            left = merge(u, (i,))
            if left is not None:
                sgn, w = left
                # x_i passes x_v
                if (gen_degrees[i] * sum(gen_degrees[j] for j in v)) % 2:
                    sgn = -sgn
                yield (w, v), c * sgn
            right = merge(v, (i,))
            if right is not None:
                sgn, w = right
                yield (u, w), c * sgn

    coproduct = {}
    for s in subsets:
        terms = {((), ()): f.one}
        for i in s:
            terms = sum_terms(f, times_primitive(terms, i))
        coproduct[index[s]] = {
            (index[u], index[v]): c for (u, v), c in terms.items()
        }
    counit = [f.one if not s else f.zero for s in subsets]
    # antipode of a connected graded Hopf algebra, by the standard recursion
    antipode = _connected_antipode(alg, coproduct)
    alg.hopf = HopfData(alg, coproduct, counit, antipode)
    return alg


def _connected_antipode(alg: FDAlgebra, coproduct) -> SparseMatrix:
    """S(1) = 1 and S(a) = -a - sum S(a') a'' over the reduced coproduct,
    solved degree by degree (requires the unit to be a basis element)."""
    f = alg.field
    dim = alg.dim
    u = alg.unit_index
    if u is None:
        raise ModelError("connected antipode needs the unit as a basis element")
    # S[j] maps a to the coefficient of e_a in S(e_j): the columns of S,
    # each read by the higher degrees once it is solved
    S = [{} for _ in range(dim)]
    for i in sorted(range(dim), key=lambda i: (alg.degrees[i], i)):
        if i == u:
            S[u] = {u: f.one}
            continue
        # S(e_i) = -(e_i + sum S(a') a'')
        acc = sum_terms(f, [(l, c * s * cl)
                            for (j, k), c in coproduct.get(i, {}).items()
                            if u not in (j, k)
                            for a, s in S[j].items()
                            for l, cl in alg.mul_basis(a, k).items()], {i: f.one})
        S[i] = {l: f.neg(v) for l, v in acc.items()}
    return SparseMatrix(f, dim, dim, S).transpose()


# ---------------------------------------------------------------------------
# integrals and Frobenius forms


def _kernel(alg: FDAlgebra, nrows, terms) -> list:
    """The reduced kernel basis (``sparse_kernel_basis``) of the ``nrows`` x
    dim system summing the ``((i, j), c)`` terms, each vector written out
    as a dense list, every absent entry the field's shared ``zero``."""
    f, d = alg.field, alg.dim
    system = SparseMatrix.from_terms(f, nrows, d, terms)
    return [[vec.get(c, f.zero) for c in range(d)]
            for vec in sparse_kernel_basis(system)]


def _commutation_kernel(alg: FDAlgebra, pairs):
    """The reduced kernel basis of the stacked system x . u - u . y = 0 in
    u, one block of rows per ``(x, y)`` in ``pairs``.  It depends only on
    the row space, so neither the order of the blocks nor the sign of one
    changes it."""
    d = alg.dim
    terms = []
    for b, (x, y) in enumerate(pairs):
        terms += alg._mult_terms(x, 0, b * d)
        terms += alg._mult_terms([-c for c in y], 1, b * d)
    return _kernel(alg, len(pairs) * d, terms)


def find_integrals(alg: FDAlgebra):
    """Bases of the left and right integral spaces and the unimodular flag.

    A left integral satisfies h.l = eps(h) l for every h; unimodular means a
    nonzero two-sided integral exists.
    """
    if alg.hopf is None:
        raise PreconditionError("find_integrals requires Hopf data")
    # h.l = eps(h) l reads e_h . l - l . (eps(h) 1) = 0; l.h = eps(h) l is
    # the same block with its sides swapped, so its negative
    left = [(alg.basis_vector(h), [e * c for c in alg.unit])
            for h, e in enumerate(alg.hopf.counit)]
    right = [(y, x) for x, y in left]
    both = _commutation_kernel(alg, left + right)
    return (_commutation_kernel(alg, left), _commutation_kernel(alg, right),
            len(both) > 0)


def dual_left_integrals(alg: FDAlgebra):
    """Basis of left integrals of the dual Hopf algebra, i.e. functionals
    lam with phi * lam = phi(1) lam for all phi (convolution product)."""
    if alg.hopf is None:
        raise PreconditionError("dual integrals require Hopf data")
    d = alg.dim
    # row (i, h): the coefficient of e_i (x) - in Delta(e_h), less 1_i e_h
    terms = [((i * d + h, k), c) for h, row in alg.hopf.coproduct.items()
             for (i, k), c in row.items()]
    terms += [((i * d + h, h), -c) for i, c in enumerate(alg.unit) if c
              for h in range(d)]
    return _kernel(alg, d * d, terms)


def is_dual_left_integral(alg: FDAlgebra, lam) -> bool:
    f = alg.field
    cop = alg.hopf.coproduct
    return all(
        f.of_int(sum(c * lam[k] for (j, k), c in cop.get(h, {}).items() if j == i))
        == f.mul(alg.unit[i], lam[h])
        for i, h in product(range(alg.dim), repeat=2)
    )


def is_invertible_element(alg: FDAlgebra, u) -> bool:
    try:
        inverse(alg.left_mult_matrix(u))
        return True
    except LinalgError:
        return False


def s_square_conjugator(alg: FDAlgebra):
    """A deterministic invertible u with S^2(h) = u h u^{-1} for all h, or None.

    Solves the linear system S^2(e_i) u = u e_i, then sweeps the solution
    space: basis vectors first, then prefix sums; the first invertible
    element wins.
    """
    if alg.hopf is None:
        raise PreconditionError("conjugator search requires Hopf data")
    f = alg.field
    S2 = alg.hopf.antipode * alg.hopf.antipode
    space = _commutation_kernel(
        alg, [([col.get(k, f.zero) for k in range(alg.dim)], alg.basis_vector(i))
              for i, col in enumerate(S2.transpose().rows)])
    candidates = list(space)
    acc: dict = {}
    for v in space:
        sum_terms(f, enumerate(v), acc)
        candidates.append([acc.get(k, f.zero) for k in range(alg.dim)])
    for u in candidates:
        if is_invertible_element(alg, u):
            return u
    return None


def frobenius_from_integral(alg: FDAlgebra, lam, u) -> FrobeniusStructure:
    """The bilinear form beta(h, k) = lam(h k u) built from a left integral
    lam of the dual and an invertible u conjugating to S^2."""
    if alg.hopf is None:
        raise PreconditionError("frobenius_from_integral requires Hopf data")
    f = alg.field
    if not is_dual_left_integral(alg, lam):
        raise PreconditionError("lam is not a left integral of the dual Hopf algebra")
    if not is_invertible_element(alg, u):
        raise PreconditionError("u is not invertible")
    S2 = alg.hopf.antipode * alg.hopf.antipode
    # column i of S^2(-) . u against column i of u . (-), as sparse columns
    lhs = (alg.right_mult_matrix(u) * S2).transpose().rows
    rhs = alg.left_mult_matrix(u).transpose().rows
    for i in range(alg.dim):
        if lhs[i] != rhs[i]:
            raise PreconditionError(
                f"u does not conjugate S^2 at basis element {alg.names[i]}"
            )
    # beta(e_i, e_j) = sum of c lam(e_k u) over the terms c e_k of e_i e_j
    pairing = SparseMatrix.from_terms(f, alg.dim, alg.dim, [
        ((i, j), c * a * cl * lam[l])
        for (i, j), row in alg.mult.items() for k, c in row.items()
        for m, a in enumerate(u) if a
        for l, cl in alg.mul_basis(k, m).items()])
    return FrobeniusStructure(alg, pairing)


def lambda_L(alg: FDAlgebra) -> SparseMatrix:
    """The bimodule isomorphism F[G] -> F[G]-dual sending g to the dual
    functional of g^{-1}; verified on all basis triples."""
    if alg.group is None:
        raise PreconditionError("lambda_L is defined for group algebras")
    f = alg.field
    g = alg.group
    lam = SparseMatrix.from_terms(f, alg.dim, alg.dim,
                                  [((g.inv[j], j), f.one) for j in range(alg.dim)])
    # bimodule identity on all basis triples: lam(x a y) = x . lam(a) . y,
    # with the dual actions (x.phi.y)(z) = phi(y z x); cols[a] maps z to
    # lam(a)(e_z)
    cols = lam.transpose().rows
    for x in range(alg.dim):
        for a in range(alg.dim):
            phi = cols[a]
            for y in range(alg.dim):
                xay = g.table[g.table[x][a]][y]
                rhs = {z: v for z in range(alg.dim)
                       if (v := phi.get(g.table[g.table[y][z]][x]))}
                if cols[xay] != rhs:
                    raise AlgebraError("lambda_L bimodule identity fails")
    return lam


def group_frobenius(alg: FDAlgebra) -> FrobeniusStructure:
    """The symmetric Frobenius structure of a group algebra:
    <g, h> = 1 iff gh = 1 (i.e. beta from lam = delta_1, u = 1)."""
    if alg.group is None:
        raise PreconditionError("group_frobenius is defined for group algebras")
    f = alg.field
    g = alg.group
    return FrobeniusStructure(alg, SparseMatrix.from_terms(
        f, alg.dim, alg.dim, [((i, g.inv[i]), f.one) for i in range(alg.dim)]))


def class_algebra(g: FiniteGroup, field):
    """The centre Z(k[G]) = k[classes] of a group algebra with its Frobenius
    form, as ``(alg, frob)``.  The basis is the class sums C_i, in the order
    of ``g.conjugacy_classes()``; C_i C_j = sum_k n_ij^k C_k, where n_ij^k
    counts the pairs (x, y) in C_i x C_j with xy in C_k, divided by |C_k|,
    read off the group table.  The form is eps(C) = [e in C] / |G|, so
    <C_i, C_j> = eps(C_i C_j) = n_ij^{[e]} / |G|, the pairing whose 2d TQFT
    sends a closed genus-g surface to |Hom(pi_1, G)| / |G|.  Over F_p the
    form needs p not to divide |G|, and is refused otherwise."""
    f = field
    if f.char and g.order % f.char == 0:
        raise PreconditionError(
            f"the class-algebra form 1/|G| needs p = {f.char} not to divide "
            f"|G| = {g.order}"
        )
    classes = g.conjugacy_classes()
    m = len(classes)
    class_of = {x: k for k, cls in enumerate(classes) for x in cls}
    mult = {}
    for (i, ci), (j, cj) in product(enumerate(classes), repeat=2):
        counts = [0] * m
        for x in ci:
            for y in cj:
                counts[class_of[g.table[x][y]]] += 1
        mult[(i, j)] = {k: f.of_int(n // len(classes[k]))
                        for k, n in enumerate(counts) if n}
    e = class_of[g.identity]
    unit = [f.zero] * m
    unit[e] = f.one
    alg = FDAlgebra(f, [f"[{g.names[cls[0]]}]" for cls in classes], [0] * m,
                    mult, unit)
    order = f.of_int(g.order)
    pairing = SparseMatrix.from_terms(f, m, m, [((i, j), f.div(row[e], order))
                                                for (i, j), row in mult.items()
                                                if e in row])
    return alg, FrobeniusStructure(alg, pairing)


def lie_pairing(alg: FDAlgebra) -> FrobeniusStructure:
    """The pairing <a, b> = eta(a b) on a connected graded Hopf algebra with
    one-dimensional top degree, where eta is the dual functional of the
    first top-degree basis monomial.  Yields a symmetric Frobenius structure
    of lower degree -d."""
    if alg.hopf is None:
        raise PreconditionError("lie_pairing requires Hopf data")
    f = alg.field
    d = alg.top_degree()
    top = [i for i in range(alg.dim) if alg.degrees[i] == d]
    if len(top) != 1:
        raise ModelError(
            f"top degree {d} is {len(top)}-dimensional; the pairing needs dimension 1"
        )
    if alg.unit_index is None or alg.degrees[alg.unit_index] != 0:
        raise ModelError("algebra is not connected with basis unit")
    zero_deg = [i for i in range(alg.dim) if alg.degrees[i] == 0]
    if len(zero_deg) != 1:
        raise ModelError("algebra is not connected (degree 0 is not one-dimensional)")
    t = top[0]
    return FrobeniusStructure(alg, SparseMatrix.from_terms(
        f, alg.dim, alg.dim, [(ij, row[t]) for ij, row in alg.mult.items() if t in row]))


def matrix_algebra(n, field) -> FDAlgebra:
    """The matrix algebra M_n with basis E_ab (unit = sum of the diagonal)."""
    f = field
    names = [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n)]
    idx = {(a, b): a * n + b for a in range(n) for b in range(n)}
    mult = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        mult[(idx[(a, b)], idx[(c, d)])] = {idx[(a, d)]: f.one}
    unit = [f.zero] * (n * n)
    for a in range(n):
        unit[idx[(a, a)]] = f.one
    return FDAlgebra(f, names, [0] * (n * n), mult, unit)


def trace_pairing(alg: FDAlgebra, n) -> SparseMatrix:
    """<A, B> = tr(AB) on matrix_algebra(n)."""
    # the diagonal E_aa has index a * n + a
    return SparseMatrix.from_terms(alg.field, alg.dim, alg.dim, [
        (ij, row[k]) for ij, row in alg.mult.items()
        for k in range(0, n * n, n + 1) if k in row])


# ---------------------------------------------------------------------------
# serialization


def algebra_to_json(alg: FDAlgebra) -> dict:
    f = alg.field
    obj = {
        "field": {"type": "Q"} if f.char == 0 else {"type": "Fp", "p": f.char},
        "basis": [
            {"name": n, "degree": d} for n, d in zip(alg.names, alg.degrees)
        ],
        "unit": [f.fmt(c) for c in alg.unit],
        "mult": [
            [i, j, k, f.fmt(c)]
            for (i, j), row in sorted(alg.mult.items())
            for k, c in sorted(row.items())
        ],
    }
    if alg.hopf is not None:
        h = alg.hopf
        obj["coproduct"] = [
            [i, j, k, f.fmt(c)]
            for i, row in sorted(h.coproduct.items())
            for (j, k), c in sorted(row.items())
        ]
        obj["counit"] = [f.fmt(c) for c in h.counit]
        obj["antipode"] = [[f.fmt(v) for v in row] for row in h.antipode.data]
    return obj


def _entries(obj: dict, key: str) -> list:
    """The ``[i, j, k, c]`` entries of ``obj[key]``; an entry of another
    length is refused by the part's name and the entry's index."""
    entries = obj[key]
    for idx, entry in enumerate(entries):
        if len(entry) != 4:
            raise AlgebraError(
                f"algebra file: {key!r} entry {idx} must be [i, j, k, c]")
    return entries


def algebra_from_json(obj: dict) -> FDAlgebra:
    part = "the top level"
    try:
        ftag = obj["field"]
        part = "'field'"
        if ftag.get("type") == "Q":
            f = field_by_name("Q")
        elif ftag.get("type") == "Fp":
            f = field_by_name(f"F{ftag['p']}")
        else:
            raise AlgebraError(f"unknown field tag {ftag!r}")
        part = "'basis'"
        names = [b["name"] for b in obj["basis"]]
        degrees = [b.get("degree", 0) for b in obj["basis"]]
        for name, d in zip(names, degrees):
            if type(d) is not int:  # a bool or a float is not a degree
                raise AlgebraError(
                    f"basis element {name!r} has degree {d!r}, not an integer")
        part = "'mult'"
        mult: dict = {}
        for i, j, k, c in _entries(obj, "mult"):
            mult.setdefault((i, j), {})[k] = f.parse(c)
        part = "'unit'"
        unit = [f.parse(c) for c in obj["unit"]]
        hopf = None
        if "coproduct" in obj:
            part = "Hopf data"
            cop: dict = {}
            for i, j, k, c in _entries(obj, "coproduct"):
                cop.setdefault(i, {})[(j, k)] = f.parse(c)
            counit = [f.parse(c) for c in obj["counit"]]
            antipode = [[f.parse(v) for v in row] for row in obj["antipode"]]
            d = len(names)
            if len(antipode) != d or any(len(row) != d for row in antipode):
                raise AlgebraError(
                    f"algebra file: 'antipode' must be {d} rows of {d} entries")
            hopf = cop, counit, antipode
    except KeyError as exc:
        raise AlgebraError(f"algebra file missing key {exc}") from exc
    except (TypeError, AttributeError):
        raise AlgebraError(f"algebra file: {part} is malformed") from None
    alg = FDAlgebra(f, names, degrees, mult, unit)
    if hopf is not None:
        cop, counit, antipode = hopf
        alg.hopf = HopfData(alg, cop, counit,
                            SparseMatrix.from_dense(f, alg.dim, alg.dim, antipode))
    return alg


def load_algebra(path) -> FDAlgebra:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # a JSON or a text decoding error
            raise AlgebraError(f"algebra file {path}: not valid JSON ({exc})") from None
    return algebra_from_json(obj)


def sweedler_algebra() -> FDAlgebra:
    """The packaged 4-dimensional Hopf algebra with distinct left and right
    integral spaces (so not unimodular, hence no symmetric Frobenius form)."""
    data = resources.files("hbv").joinpath("data/sweedler4.json").read_text()
    return algebra_from_json(json.loads(data))
