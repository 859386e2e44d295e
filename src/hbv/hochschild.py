"""Normalized Hochschild cochain complexes, the cup product and Gerstenhaber
bracket, the dual Connes rotation operator, Frobenius duality, and the BV
operator.

Complexes.  With Abar = A / F.1, the self-coefficient complex is
C^n(A; A) = Hom(Abar^{(x)n}, A); the dual-coefficient complex is realized as
the linear dual of the normalized chain complex A (x) Abar^{(x)n}, under
Hom(Abar^{(x)n}, A-dual) = (A (x) Abar^{(x)n})-dual.  Its differential and
rotation operator are literal transposes of the chain-level operators, so
d^2 = 0, B^2 = 0 and dB + Bd = 0 are inherited and not re-derived.

Both differentials, and the group cochains of the centralizer oracle, are
built by one kernel (``_differential_rows``).  Their inner faces
sum_i (-1)^i [..|a_i a_{i+1}|..] are the same for every complex, keyed by
arithmetic on the base-(m-1) code of the row's tuple: only the two outer
faces see the bimodule, each read from a table signed once per parity.
B_n (``connes_b_dual_matrix``) is keyed in the bar's encoding.

Sign conventions (pinned once; every sign is a simplicial factor times a
Koszul factor on internal degrees, and the whole package of identities
(d^2 = 0 on both coefficient complexes, rotation square zero and
anticommutation, cup Leibniz, graded cup commutativity in cohomology, the
pre-Lie relation, and the seven-term BV identity) is what fixes it, as
validated by the test suite on ungraded group algebras and graded exterior
models simultaneously):

* chain differential
    b(a_0[a_1|..|a_n]) = (a_0 a_1)[a_2|..]
                       + sum_{0<i<n} (-1)^i a_0[..|a_i a_{i+1}|..]
                       + (-1)^{n + |a_n| (|a_0|+..+|a_{n-1}|)} (a_n a_0)[a_1|..];
* chain rotation (normalized Connes boundary)
    B(a_0[a_1|..|a_n]) = sum_j (-1)^{n j + d(pre_j) d(post_j)}
                         1[a_j|..|a_n|a_0|..|a_{j-1}],
  the Koszul factor pairing the internal degrees of the two rotated blocks;
* self differential, for f of internal degree t (f raises degree by t),
    (d f)(a_1..a_{n+1}) = (-1)^{|a_1| t} a_1 f(a_2..a_{n+1})
                        + sum_i (-1)^i f(.., a_i a_{i+1}, ..)
                        + (-1)^{n+1} f(a_1..a_n) a_{n+1};
* cup product, on self coefficients only:
    (f u g)(a_1..a_{p+q}) = +- f(a_1..a_p) g(a_{p+1}..a_{p+q})
  with the sign (-1)^{t(g) |f-inputs|};
* circle product: insertion of g at 0-based slot i with sign (-1)^{(q-1) i},
  and [f, g] = f o g - (-1)^{(p-1)(q-1) + t(f) t(g)} g o f;
* in cohomology, f u g = (-1)^{p q + t(f) t(g)} g u f.

Everything reduces to the classical textbook formulas when all degrees
vanish.
"""

from __future__ import annotations

from itertools import accumulate, product

from .algebra import FDAlgebra, FrobeniusStructure, PreconditionError
from .groups import FiniteGroup
from .linalg import Complex, SparseMatrix, operator_ring, sum_terms
from .reports import CheckReport

DEFAULT_BUDGET = 20000


class BudgetError(ValueError):
    """A requested complex exceeds the configured dimension cap."""


class CoefficientError(ValueError):
    """Operation not defined for this coefficient bimodule."""


def check_budget(what: str, dim: int, budget: int | None) -> None:
    """Refuse ``what``, of dimension ``dim``, above the cap ``budget``
    (``DEFAULT_BUDGET`` when None).  The message names what sets the cap:
    library calls pass it as ``budget``, and the CLI takes it from
    ``--budget``, else from ``HBV_BUDGET``."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if dim > budget:
        raise BudgetError(
            f"{what} of dimension {dim} exceeds the budget {budget} (the cap"
            f" is the budget argument, {DEFAULT_BUDGET} when unset; the CLI"
            f" sets it from --budget, else from HBV_BUDGET)"
        )


# ---------------------------------------------------------------------------
# cochains


class Cochain:
    """A normalized Hochschild cochain stored as a sparse table.

    ``table`` maps ``(tuple_of_basis_indices, value_index)`` to a scalar.
    For self coefficients the entry is the coefficient of basis element
    ``value`` in f(tuple); for dual coefficients it is the evaluation
    f(tuple)(e_value).  Tuple entries range over non-unit basis indices.
    """

    __slots__ = ("alg", "coeff", "degree", "table")

    def __init__(self, alg: FDAlgebra, coeff: str, degree: int, table: dict):
        if coeff not in ("self", "dual"):
            raise CoefficientError(f"unknown coefficient tag {coeff!r}")
        self.alg = alg
        self.coeff = coeff
        self.degree = degree
        f = alg.field
        self.table = {k: v for k, v in table.items() if not f.is_zero(v)}

    def is_zero(self) -> bool:
        return not self.table

    def internal_degree(self) -> int:
        """The common internal degree t of all entries (asserted homogeneous).
        On an ungraded algebra every basis degree is 0, and so is t."""
        alg = self.alg
        if not alg.is_graded():
            return 0
        t = None
        for (tup, v), _ in self.table.items():
            dv = -alg.degrees[v] if self.coeff == "dual" else alg.degrees[v]
            here = dv - sum(alg.degrees[i] for i in tup)
            if t is None:
                t = here
            elif t != here:
                raise ValueError("cochain is not homogeneous in internal degree")
        return 0 if t is None else t

    def total_degree(self) -> int:
        return self.degree - self.internal_degree()

    def scaled(self, c) -> "Cochain":
        f = self.alg.field
        return Cochain(
            self.alg, self.coeff, self.degree,
            {k: f.mul(c, v) for k, v in self.table.items()},
        )

    def plus(self, other: "Cochain") -> "Cochain":
        f = self.alg.field
        if other.degree != self.degree or other.coeff != self.coeff:
            raise ValueError("cochain sum degree/coefficient mismatch")
        table = sum_terms(f, other.table.items(), dict(self.table))
        return Cochain(self.alg, self.coeff, self.degree, table)

    def minus(self, other: "Cochain") -> "Cochain":
        f = self.alg.field
        return self.plus(other.scaled(f.neg(f.one)))

    def __repr__(self):
        return f"Cochain({self.coeff}, degree {self.degree}, {len(self.table)} entries)"


def unit_cochain(alg: FDAlgebra) -> Cochain:
    """The algebra unit as a 0-cochain with coefficients in A."""
    if alg.unit_index is None:
        raise PreconditionError("the unit must be a basis element")
    return Cochain(alg, "self", 0, {((), alg.unit_index): alg.field.one})


# ---------------------------------------------------------------------------
# the bar cochain complex


def _lifted_products(alg: FDAlgebra) -> dict:
    """``(i, j) -> [(k, c), ...]``: the terms of e_i e_j in ``mul_basis``
    order, each constant as the operators store it (``operator_ring``): an
    int (F_p elements are ints), or a Fraction if it is not integral."""
    of_int = operator_ring(alg.field).of_int
    return {(i, j): [(k, of_int(c)) for k, c in alg.mul_basis(i, j).items()]
            for i in range(alg.dim) for j in range(alg.dim)}


def _differential_rows(n: int, m1: int, products: list, ring, stride: int,
                       outer) -> list:
    """The rows of a bar-type differential C^n -> C^{n+1} on m1 non-units
    and ``stride`` value slots (1 for group cochains), constants stored as
    ``ring`` stores them.  Row code * stride + w is the slot w of the tuple s
    of n + 1 digits (positions among the non-units) whose base-m1 reading is
    code: ``product(range(m1), repeat=n + 1)`` order.  Its terms, in order:
    the head face, each (x, c) of ``outer(s)[0][w]`` keyed
    (code % m1^n) * stride + x; the inner faces i = 0..n-1, (-1)^{i+1} c for
    each (u, c) of ``products[s_i * m1 + s_{i+1}]``, the product's terms off
    the unit (one on it is a degenerate tuple), keyed stride times
    (code // m1^(n+1-i) * m1 + u) * m1^(n-1-i) + code % m1^(n-1-i), plus w;
    the tail face, ``outer(s)[1][w]``, keyed (code // m1) * stride + x.  A
    row is the ``dict`` of its terms unless two keys meet, then their
    ``sum_terms``."""
    faces = []
    for i in range(n):
        q = m1 ** (n - 1 - i)
        faces.append((q * m1 * m1, q * m1, q, [
            [(u * q * stride, c if i % 2 else ring.of_int(-c)) for u, c in terms]
            for terms in products]))
    low = m1 ** n
    rows = []
    for code, s in enumerate(product(range(m1), repeat=n + 1)):
        mids = []
        for i, (pre, lift, q, table) in enumerate(faces):
            base = (code // pre * lift + code % q) * stride
            for k, c in table[s[i] * m1 + s[i + 1]]:
                mids.append((base + k, c))
        head, tail = outer(s)
        h = code % low * stride
        t = code // m1 * stride
        for w in range(stride):
            # appends, not comprehensions: each list is a few terms long
            terms = []
            for x, c in head[w]:
                terms.append((h + x, c))
            for k, c in mids:
                terms.append((k + w, c))
            for x, c in tail[w]:
                terms.append((t + x, c))
            row = dict(terms)
            rows.append(row if len(row) == len(terms) else sum_terms(ring, terms))
    return rows


class BarComplex:
    """The normalized bar cochain complex of (A, M) up to degree N.

    Materializes C^0..C^{N+1} and d^0..d^N as sparse matrices, whose
    entries over Q are ints wherever integral (``operator_ring``).  HH^N is
    computable but uncertified: its cocycle condition uses the stored d^N,
    while operations raising cochain degree past N are refused by callers.
    """

    def __init__(self, alg: FDAlgebra, coeff: str, max_degree: int,
                 budget: int | None = None):
        if coeff not in ("self", "dual"):
            raise CoefficientError(f"unknown coefficient tag {coeff!r}")
        if alg.unit_index is None:
            raise PreconditionError("bar complex needs the unit to be a basis element")
        if max_degree < 3:
            raise ValueError(f"truncation degree must be at least 3, got {max_degree}")
        if alg.dim < 2:
            raise PreconditionError("bar complex needs dim(A/F1) >= 1")
        self.alg = alg
        self.coeff = coeff
        self.max_degree = max_degree
        self.nonunit = [i for i in range(alg.dim) if i != alg.unit_index]
        self.nu_pos = {g: k for k, g in enumerate(self.nonunit)}
        m = alg.dim
        dims = {n: (m - 1) ** n * m for n in range(max_degree + 2)}
        check_budget("cochain space", max(dims.values()), budget)
        self._prod = _lifted_products(alg)
        build = (self._self_differential if coeff == "self"
                 else self._dual_differential)
        diffs = {n: build(n) for n in range(max_degree + 1)}
        self.complex = Complex(alg.field, dims, diffs)

    # -- column encoding ------------------------------------------------------

    def encode(self, tup, v) -> int:
        m1 = len(self.nonunit)
        c = 0
        for x in tup:
            c = c * m1 + self.nu_pos[x]
        return c * self.alg.dim + v

    def decode(self, n: int, col: int):
        m1 = len(self.nonunit)
        col, v = divmod(col, self.alg.dim)
        tup = []
        for _ in range(n):
            col, r = divmod(col, m1)
            tup.append(self.nonunit[r])
        return tuple(reversed(tup)), v

    def cochain_to_vec(self, c: Cochain) -> dict:
        return {self.encode(t, v): coef for (t, v), coef in c.table.items()}

    def vec_to_cochain(self, n: int, vec: dict) -> Cochain:
        return Cochain(
            self.alg, self.coeff, n,
            {self.decode(n, col): coef for col, coef in vec.items()},
        )

    # -- differentials ----------------------------------------------------------

    def _differential(self, n: int, outer) -> SparseMatrix:
        """d^n from ``_differential_rows``, given its outer faces."""
        m = self.alg.dim
        m1 = m - 1
        unit = self.alg.unit_index
        products = [[(self.nu_pos[u], c) for u, c in self._prod[a, b] if u != unit]
                    for a in self.nonunit for b in self.nonunit]
        rows = _differential_rows(n, m1, products, operator_ring(self.alg.field),
                                  m, outer)
        return SparseMatrix(self.alg.field, m1 ** (n + 1) * m, m1 ** n * m, rows)

    def _dual_differential(self, n: int) -> SparseMatrix:
        """Transpose of the chain differential b : C_{n+1} -> C_n (module
        docstring): row (s, w) holds b(w[s]), its terms keyed by ``encode``,
        which is injective, so they meet exactly where the chain terms do."""
        ring = operator_ring(self.alg.field)
        m = self.alg.dim
        deg = self.alg.degrees
        prod = self._prod
        # (a0 a_1)[a_2..a_{n+1}] and (a_{n+1} a0)[a_1..a_n] for w = a0, the
        # tail signed for the parity p of |a_1| + .. + |a_n|
        head = [[prod[w, a] for w in range(m)] for a in self.nonunit]
        tail = [[[[(x, ring.of_int(-c)
                    if (n + 1 + deg[a] * (deg[w] + p)) % 2 else c)
                   for x, c in prod[a, w]] for w in range(m)]
                 for a in self.nonunit] for p in (0, 1)]
        par = [deg[a] % 2 for a in self.nonunit]
        return self._differential(n, lambda s: (
            head[s[0]], tail[sum(par[x] for x in s[:n]) % 2][s[n]]))

    def _self_differential(self, n: int) -> SparseMatrix:
        ring = operator_ring(self.alg.field)
        m = self.alg.dim
        deg = self.alg.degrees
        prod = self._prod
        # left[p][a][w] / right[a][w]: the (v, c) with c the e_w coefficient
        # of e_a e_v / e_v e_a, v increasing, signed by
        # (-1)^{|a_1| t} a_1 . f(a_2..), t the degree f raises, for the
        # parity p of |a_2| + .. + |a_{n+1}|, and by
        # (-1)^{n+1} f(a_1..a_n) . a_{n+1}
        left = [[[[] for _ in range(m)] for _ in self.nonunit] for _ in (0, 1)]
        right = [[[] for _ in range(m)] for _ in self.nonunit]
        for v in range(m):
            for i, a in enumerate(self.nonunit):
                for w, c in prod[a, v]:
                    for p in (0, 1):
                        left[p][i][w].append(
                            (v, ring.of_int(-c) if deg[a] * (deg[v] - p) % 2 else c))
                for w, c in prod[v, a]:
                    right[i][w].append((v, c if n % 2 else ring.of_int(-c)))
        par = [deg[a] % 2 for a in self.nonunit]
        return self._differential(n, lambda s: (
            left[sum(par[x] for x in s[1:]) % 2][s[0]], right[s[n]]))

    def is_cocycle(self, c: Cochain) -> bool:
        return not self.complex.apply(c.degree, self.cochain_to_vec(c))


# ---------------------------------------------------------------------------
# operations on cochains


def cup(f: Cochain, g: Cochain) -> Cochain:
    """The cup product on self coefficients,
    (f u g)(a_1..a_{p+q}) = +- f(a_1..a_p) g(a_{p+1}..a_{p+q}): the values
    are multiplied in A, with the Koszul sign (-1)^{t(g) . deg(f-inputs)},
    which vanishes on ungraded algebras.  A dual-coefficient factor raises
    ``CoefficientError``.
    """
    alg = f.alg
    fl = alg.field
    if f.coeff != "self" or g.coeff != "self":
        raise CoefficientError("the cup product is taken on HH*(A;A)")
    graded = alg.is_graded()
    terms = []
    for (t1, v1), c1 in f.table.items():
        s_p = sum(alg.degrees[i] for i in t1) if graded else 0
        for (t2, v2), c2 in g.table.items():
            coef = fl.mul(c1, c2)
            if graded:
                tg = alg.degrees[v2] - sum(alg.degrees[i] for i in t2)
                if (tg * s_p) % 2:
                    coef = fl.neg(coef)
            tup = t1 + t2
            terms += [((tup, w), coef * cw)
                      for w, cw in alg.mul_basis(v1, v2).items()]
    return Cochain(alg, "self", f.degree + g.degree, sum_terms(fl, terms))


def circle(f: Cochain, g: Cochain) -> Cochain:
    """The pre-Lie insertion product f o g (self coefficients only):
    insertion of g's value into the i-th slot carries the sign (-1)^{(q-1) i}."""
    alg = f.alg
    fl = alg.field
    if f.coeff != "self" or g.coeff != "self":
        raise CoefficientError("the circle product lives on HH*(A;A)")
    q = g.degree
    terms = []
    for (tf, vf), cf in f.table.items():
        for i in range(len(tf)):
            slot = tf[i]
            for (tg, vg), cg in g.table.items():
                if vg != slot:
                    continue
                coef = cf * cg
                terms.append(((tf[:i] + tg + tf[i + 1:], vf),
                              -coef if ((q - 1) * i) % 2 else coef))
    return Cochain(alg, "self", f.degree + q - 1, sum_terms(fl, terms))


def gerstenhaber_bracket(f: Cochain, g: Cochain) -> Cochain:
    """[f, g] = f o g - (-1)^{(p-1)(q-1) + t(f) t(g)} g o f."""
    fg = circle(f, g)
    gf = circle(g, f)
    tf = f.internal_degree()
    tg = g.internal_degree()
    exp = (f.degree - 1) * (g.degree - 1) + tf * tg
    if exp % 2:
        return fg.plus(gf)
    return fg.minus(gf)


def connes_b_dual(f: Cochain) -> Cochain:
    """The transpose of the normalized Connes boundary, lowering cochain
    degree by one on dual-coefficient cochains.

    Only table entries whose evaluation slot is the unit contribute; each
    spreads over the cyclic rotations of its tuple with the chain-level
    rotation sign.
    """
    alg = f.alg
    fl = alg.field
    if f.coeff != "dual":
        raise CoefficientError("the rotation operator needs dual coefficients")
    n = f.degree
    if n == 0:
        return Cochain(alg, "dual", -1, {})
    unit = alg.unit_index
    terms = []
    for (tup, v), c in f.table.items():
        if v != unit:
            continue
        degs = [alg.degrees[x] for x in tup]
        for j in range(n):
            # term j of B sent a0[s] to 1[s_j..s_{n-1} | a0 | s_1..s_{j-1}]
            if j == 0:
                a0 = tup[0]
                out_tup = tup[1:]
                exp = 0
            else:
                a0 = tup[n - j]
                out_tup = tup[n - j + 1:] + tup[:n - j]
                d0 = alg.degrees[a0]
                dpre = d0 + sum(alg.degrees[x] for x in tup[n - j + 1:])
                dpost = sum(degs) - dpre
                exp = (n - 1) * j + dpre * dpost
            terms.append(((out_tup, a0), -c if exp % 2 else c))
    return Cochain(alg, "dual", n - 1, sum_terms(fl, terms))


def connes_b_dual_matrix(bar: BarComplex, n: int) -> SparseMatrix:
    """The matrix of the rotation operator C^n -> C^{n-1} on a
    dual-coefficient bar complex (the zero map with empty target for
    n = 0), built as the transpose of the chain-level B (module
    docstring).  Row (s, w), in
    ``product(bar.nonunit, repeat=n-1)`` order and then w, holds B(w[s]):
    empty for w the unit, else ``sum_terms`` of the signed rotations of the
    tuple t = (w,) + s, keyed by ``bar.encode(t[j:] + t[:j], unit)``."""
    alg = bar.alg
    f = alg.field
    ring = operator_ring(f)
    m = alg.dim
    unit = alg.unit_index
    src = (m - 1) ** n * m
    if n == 0:
        return SparseMatrix(f, 0, src)
    rows = []
    for s in product(bar.nonunit, repeat=n - 1):
        for w in range(m):
            t = (w,) + s
            d = list(accumulate((alg.degrees[x] for x in t), initial=0))
            rows.append({} if w == unit else sum_terms(ring, [
                (bar.encode(t[j:] + t[:j], unit),
                 -1 if ((n - 1) * j + d[j] * (d[n] - d[j])) % 2 else 1)
                for j in range(n)]))
    return SparseMatrix(f, (m - 1) ** (n - 1) * m, src, rows)


# ---------------------------------------------------------------------------
# cohomology with classes


class CohomologyClass:
    """A Hochschild or cyclic cohomology class: coordinates in the
    deterministic basis of its space plus a chosen representative cocycle
    (a ``Cochain`` in HH, a total vector in HC).  It keeps its space's
    field, not the space, which keeps its basis classes: no reference cycle
    holds a space and its complex."""

    __slots__ = ("field", "degree", "coords", "representative", "_memo_key")

    def __init__(self, space, degree, coords, representative):
        self.field = space.alg.field
        self.degree = degree
        self.coords = coords
        self.representative = representative
        self._memo_key = None

    def memo_key(self) -> tuple:
        """``(degree, items of the representative)``, key order included:
        what a memo of class operations is keyed by.  The items are those of
        an HH representative's table or of an HC representative, a plain
        dict.  Built on first use and kept, so it assumes the representative
        is not mutated afterwards."""
        if self._memo_key is None:
            rep = self.representative
            items = rep.items() if isinstance(rep, dict) else rep.table.items()
            self._memo_key = (self.degree, tuple(items))
        return self._memo_key

    def is_zero(self):
        return all(map(self.field.is_zero, self.coords))

    def __repr__(self):
        return f"CohomologyClass(degree {self.degree}, coords {self.coords})"


def basis_classes(space, n: int, cohomology, wrap):
    """The basis classes of ``space`` (HH or HC) in degree n, kept in
    ``space._classes``: unit coordinates on each representative of
    ``cohomology(n)``, wrapped as ``wrap(n, rep)``.  A degree of dimension 0
    needs only ranks, not the representative machinery."""
    if n < 0 or n > space.max_degree:
        return []
    if n not in space._classes:
        out = []
        if space.dim(n):
            data = cohomology(n)
            f = space.alg.field
            for i, rep in enumerate(data.representatives):
                coords = [f.zero] * data.dim
                coords[i] = f.one
                out.append(CohomologyClass(space, n, coords, wrap(n, rep)))
        space._classes[n] = out
    return space._classes[n]


class HochschildCohomology:
    """HH^*(A; M) up to a truncation degree, with class-level projection."""

    def __init__(self, alg: FDAlgebra, coeff: str, max_degree: int,
                 budget: int | None = None):
        self.alg = alg
        self.coeff = coeff
        self.max_degree = max_degree
        self.bar = BarComplex(alg, coeff, max_degree, budget)
        self._classes: dict[int, list] = {}

    def dim(self, n: int) -> int:
        return self.bar.complex.cohomology_dim(n)

    def classes(self, n: int):
        return basis_classes(self, n, self.bar.complex.cohomology_at,
                             self.bar.vec_to_cochain)

    def project(self, c: Cochain) -> CohomologyClass:
        """The class of a cocycle; equality of classes is decided by
        coboundary membership, never representative equality."""
        if c.degree < 0:
            return CohomologyClass(self, c.degree, [], c)
        data = self.bar.complex.cohomology_at(c.degree)
        coords = data.project(self.bar.cochain_to_vec(c))
        return CohomologyClass(self, c.degree, coords, c)

    def zero_class(self, n: int) -> CohomologyClass:
        dim = self.dim(n) if 0 <= n <= self.max_degree else 0
        f = self.alg.field
        return CohomologyClass(self, n, [f.zero] * dim,
                               Cochain(self.alg, self.coeff, max(n, 0), {}))

    def unit_class(self) -> CohomologyClass:
        if self.coeff != "self":
            raise CoefficientError("the unit class lives in HH^0(A;A)")
        return self.project(unit_cochain(self.alg))


def hochschild_dims(alg, coeff, max_degree, budget=None):
    """Dimension table only; skips all representative machinery."""
    cx = BarComplex(alg, coeff, max_degree, budget).complex
    return [(n, cx.cohomology_dim(n)) for n in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# the certified window of the identity suites


def window_tuples(basis, arity: int, lo: int, hi: int):
    """Every ``arity``-tuple of basis classes whose degrees sum to lo..hi,
    as ``(degrees, indices, classes)``, with ``basis[n]`` the classes of
    degree n.  Degree tuples come in lexicographic order and, within one,
    index tuples do too: the order of loops nested over the degrees, then
    over the classes of each."""
    for degrees in product(range(hi + 1), repeat=arity):
        if lo <= sum(degrees) <= hi:
            for picked in product(*(enumerate(basis[n]) for n in degrees)):
                indices, classes = zip(*picked)
                yield degrees, indices, classes


def window_label(degrees, indices=None) -> str:
    """Where a window check sits, ``at (1,2) basis (0,1)``; without the
    basis part when ``indices`` is None."""
    label = "at (" + ",".join(map(str, degrees)) + ")"
    if indices is not None:
        label += " basis (" + ",".join(map(str, indices)) + ")"
    return label


def signed(f, odd, coords):
    """The coordinates times (-1)^odd."""
    return [f.neg(c) for c in coords] if odd else coords


def combine(f, a, b, odd):
    """a + (-1)^odd b, coordinate by coordinate."""
    return [f.sub(x, y) if odd else f.add(x, y) for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# duality and the BV operator


class BVStructure:
    """HH^*(A;A) with the operator transported from the dual-side rotation
    through the Frobenius duality.

    Refuses non-symmetric or degenerate Frobenius structures: the BV
    construction's hypothesis is a symmetric nondegenerate pairing.
    """

    def __init__(self, alg: FDAlgebra, frob: FrobeniusStructure,
                 max_degree: int, budget: int | None = None):
        if not frob.symmetric or not frob.nondegenerate:
            raise PreconditionError(
                "BV structure needs a symmetric nondegenerate Frobenius pairing"
            )
        self.alg = alg
        self.frob = frob
        self.max_degree = max_degree
        self.hh = HochschildCohomology(alg, "self", max_degree, budget)
        self.hh_dual = HochschildCohomology(alg, "dual", max_degree, budget)
        # a -> <a, -> : A -> A-dual (rows index the dual basis), and back,
        # with the columns of each, rows ascending, that _compose_values reads
        self.lam = frob.pairing.transpose()
        self.lam_inv = frob.copairing.transpose()
        self._columns = {"dual": self.lam.transpose().rows,
                         "self": self.lam_inv.transpose().rows}

    # -- duality --------------------------------------------------------------

    def _compose_values(self, c: Cochain, out_coeff: str) -> Cochain:
        """Each value v of ``c`` replaced by column v of ``lam`` (into
        ``out_coeff`` "dual") or of ``lam_inv`` (into "self")."""
        cols = self._columns[out_coeff]
        terms = [((tup, w), coef * mv) for (tup, v), coef in c.table.items()
                 for w, mv in cols[v].items()]
        return Cochain(self.alg, out_coeff, c.degree, sum_terms(self.alg.field, terms))

    def to_self(self, c: Cochain) -> Cochain:
        """Post-compose a dual-coefficient cochain with the pairing inverse.
        Dual tables are coordinate vectors in the dual basis, so this is a
        plain matrix application on values."""
        return self._compose_values(c, "self")

    def to_dual(self, c: Cochain) -> Cochain:
        """Post-compose a self-coefficient cochain with the pairing map."""
        return self._compose_values(c, "dual")

    def duality(self, cls: CohomologyClass) -> CohomologyClass:
        """D : HH(A; A-dual) -> HH(A; A)."""
        return self.hh.project(self.to_self(cls.representative))

    def duality_inv(self, cls: CohomologyClass) -> CohomologyClass:
        """D^{-1} : HH(A; A) -> HH(A; A-dual)."""
        return self.hh_dual.project(self.to_dual(cls.representative))

    # -- the BV operator --------------------------------------------------------

    def delta(self, cls: CohomologyClass) -> CohomologyClass:
        """Delta = D o (rotation transpose) o D^{-1}, lowering degree by 1."""
        if cls.degree == 0:
            return self.hh.zero_class(0)
        rotated = connes_b_dual(self.to_dual(cls.representative))
        return self.hh.project(self.to_self(rotated))

    # -- class-level products -----------------------------------------------------

    def cup_classes(self, x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
        if x.degree + y.degree > self.max_degree:
            raise ValueError("cup product lands above the truncation degree")
        return self.hh.project(cup(x.representative, y.representative))

    def bracket_classes(self, x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
        if x.degree + y.degree - 1 > self.max_degree:
            raise ValueError("bracket lands above the truncation degree")
        return self.hh.project(
            gerstenhaber_bracket(x.representative, y.representative)
        )


def bv_check(alg: FDAlgebra, frob: FrobeniusStructure, max_degree: int,
             budget: int | None = None,
             flip_sign_convention: bool = False) -> CheckReport:
    """The full BV verification suite on cohomology classes.

    Within the certified window (cochain degrees of the arguments summing to
    at most N-2): Delta(1) = 0, Delta^2 = 0, the seven-term identity

        [x, y] = (-1)^{|x|} ( Delta(x u y) - Delta(x) u y
                              - (-1)^{|x|} x u Delta(y) ),

    |.| the cochain degree, plus graded Jacobi and the Poisson rule.  Each
    check runs over ``window_tuples`` of the basis classes of HH^0 ..
    HH^{N-1}, the degrees the windows reach; HH^N is only ranked.  Each distinct
    cup product, bracket and Delta is computed once per call, keyed by its
    exact arguments: the degree and the representative's table, key order
    included, never the coordinates (``CohomologyClass.memo_key``, built
    once per class object).  Two representatives of one class are
    therefore each computed, so the suites still test that the products
    are well defined on classes.  The ``flip_sign_convention`` switch
    negates the seven-term right side, the alternative convention, kept for
    comparison runs.  The report lists failures with witnesses.
    """
    bv = BVStructure(alg, frob, max_degree, budget)
    f = alg.field
    N = max_degree
    window = N - 2
    report = CheckReport()
    # results are deterministic in the key; a call that raises stores
    # nothing, and no caller mutates a returned class
    memo = {}

    def once(op, *args):
        key = (op,) + tuple(x.memo_key() for x in args)
        out = memo.get(key)
        if out is None:
            out = memo[key] = getattr(bv, op)(*args)
        return out

    def delta(x):
        return once("delta", x)

    def cup(x, y):
        return once("cup_classes", x, y)

    def bracket(x, y):
        return once("bracket_classes", x, y)

    report.record("delta(1) = 0", delta(bv.hh.unit_class()).is_zero())

    # every window stops at degree N-1, so HH^N needs no basis; its dim
    # still ranks d^N, which the traced fingerprint lists (ROADMAP item 5)
    basis = [bv.hh.classes(n) for n in range(N)]
    bv.hh.dim(N)
    # Delta of every basis class of degree 1..N-1 first: when one of them
    # fails to project, its error is the one raised
    for _, _, (x,) in window_tuples(basis, 1, 1, N - 1):
        delta(x)

    for (n,), (i,), (x,) in window_tuples(basis, 1, 2, N - 1):
        d2 = delta(delta(x))
        report.record(
            f"delta^2 = 0 at degree {n} basis {i}",
            d2.is_zero(),
            None if d2.is_zero() else (n, i, d2.coords),
        )

    for (nx, ny), (i, j), (x, y) in window_tuples(basis, 2, 1, window):
        lhs = bracket(x, y).coords
        t1 = delta(cup(x, y)).coords
        zero = [f.zero] * len(lhs)
        t2 = cup(delta(x), y).coords if nx else zero
        t3 = cup(x, delta(y)).coords if ny else zero
        odd = nx % 2
        # (-1)^{|x|} (t1 - t2 - (-1)^{|x|} t3), negated once more if flipped
        rhs = signed(f, odd ^ flip_sign_convention,
                     combine(f, combine(f, t1, t2, 1), t3, 1 - odd))
        ok = lhs == rhs
        report.record(f"seven-term {window_label((nx, ny), (i, j))}", ok,
                      None if ok else (nx, ny, i, j, (lhs, rhs)))

    def internal(x):
        return x.representative.internal_degree()

    # graded Leibniz form: [[x,y],z] = [x,[y,z]] - +-[y,[x,z]], the exchange
    # sign matching the bracket's antisymmetry convention; a nested bracket
    # of total degree < 2 lands in degree < 0
    for (nx, ny, nz), ijk, (x, y, z) in window_tuples(basis, 3, 2, window):
        ex = (nx - 1) * (ny - 1) + internal(x) * internal(y)
        lhs = bracket(bracket(x, y), z)
        r1 = bracket(x, bracket(y, z))
        r2 = bracket(y, bracket(x, z))
        report.record(f"jacobi {window_label((nx, ny, nz), ijk)}",
                      lhs.coords == combine(f, r1.coords, r2.coords, 1 - ex % 2))

    # [x, y u z] = [x,y] u z + (-1)^{(|x|-1)|y| + t(x) t(y)} y u [x,z]
    for (nx, ny, nz), ijk, (x, y, z) in window_tuples(basis, 3, 1, window):
        ex = (nx - 1) * ny + internal(x) * internal(y)
        lhs = bracket(x, cup(y, z))
        r1 = cup(bracket(x, y), z)
        r2 = cup(y, bracket(x, z))
        report.record(f"poisson {window_label((nx, ny, nz), ijk)}",
                      lhs.coords == combine(f, r1.coords, r2.coords, ex % 2))
    return report


# ---------------------------------------------------------------------------
# the centralizer oracle


def group_cochain_complex(g: FiniteGroup, field, max_degree: int,
                          budget: int | None = None) -> Complex:
    """The normalized bar cochain complex of the group with trivial
    coefficients, C^0..C^{N+1} with d^0..d^N (independent of the Hochschild
    machinery above).  A negative ``max_degree`` is refused with a
    ``ValueError`` naming it."""
    if max_degree < 0:
        raise ValueError(f"group cochain truncation degree {max_degree} is "
                         "negative: it must be at least 0")
    f = field
    ring = operator_ring(f)
    m1 = g.order - 1
    nu = [i for i in range(g.order) if i != g.identity]
    pos = {x: k for k, x in enumerate(nu)}
    dims = {n: m1 ** n for n in range(max_degree + 2)}
    check_budget("group cochain space", max(dims.values()), budget)
    products = [[] if g.table[a][b] == g.identity else [(pos[g.table[a][b]], 1)]
                for a in nu for b in nu]
    diffs = {}
    for n in range(max_degree + 1):
        outer = ([[(0, 1)]], [[(0, ring.of_int(1 if n % 2 else -1))]])
        rows = _differential_rows(n, m1, products, ring, 1, lambda s: outer)
        diffs[n] = SparseMatrix(f, dims[n + 1], dims[n], rows)
    return Complex(f, dims, diffs)


def group_cochain_dims(g: FiniteGroup, field, max_degree: int,
                       budget: int | None = None):
    """Group cohomology dims H^n(G; F) with trivial coefficients, from
    ``group_cochain_complex``."""
    cx = group_cochain_complex(g, field, max_degree, budget)
    return [cx.cohomology_dim(n) for n in range(max_degree + 1)]


def centralizer_oracle(g: FiniteGroup, field, max_degree: int,
                       budget: int | None = None):
    """Per-degree totals of the conjugacy-class/centralizer decomposition:
    sum over classes of dim H^n(centralizer; F).

    This is the test oracle paired with the direct bar computation of
    HH^*(F[G]; F[G]); the two tables must agree degreewise.
    """
    totals = [0] * (max_degree + 1)
    for cls in g.conjugacy_classes():
        cent = g.centralizer(cls[0])
        dims = group_cochain_dims(cent, field, max_degree, budget)
        for n in range(max_degree + 1):
            totals[n] += dims[n]
    return list(enumerate(totals))
