"""Cyclic cohomology via the dual (b, B)-bicomplex, the long exact sequence
maps I, S and the connecting map, and the string bracket.

The total complex is laid out recursively as Tot^n = C^n (+) Tot^{n-2},
with C^n the degree-n cochains of the dual-coefficient bar complex and
Tot^n = 0 for n < 0.  The coordinates of C^n come first, at indices
0 .. dim C^n - 1, and those of Tot^{n-2} follow, so
dim Tot^n = dim C^n + dim Tot^{n-2} and Tot^n unrolls to
C^n (+) C^{n-2} (+) C^{n-4} (+) ...  The total differential is

    d_tot^n = [ d^n   0           ] : C^n (+) Tot^{n-2} -> C^{n+1} (+) Tot^{n-1}
              [ B_n   d_tot^{n-2} ]

with d^n the Hochschild differential and B_n : C^n -> C^{n-1} the rotation
operator, which lands in the C^{n-1} at the front of Tot^{n-1}.  On the
summand C^m of Tot^n, d_tot o d_tot is d d into C^{m+2}, B d + d B into
C^m and B B into C^{m-2}, so d_tot squares to zero exactly when the
mixed-complex identities d^2 = 0, B d + d B = 0 and B^2 = 0 hold (Kassel,
J. Algebra 107 (1987); Loday, Cyclic Homology, 2.5).  The bar complex
certifies d^2 = 0 when it is built, and ``Complex.mixed_total`` checks the
other two in every degree the truncation uses, naming a failure by the
(degree, column) of d_tot it breaks.  The maps of the Connes sequence are
index offsets: I keeps the indices below dim C^n, and the periodicity
S : Tot^n -> Tot^{n+2} adds dim C^{n+2} to every index.

Truncation at N certifies degrees up to N-2: the top two total degrees see
a cut-off staircase.
"""

from __future__ import annotations

from .algebra import FDAlgebra, FrobeniusStructure
from .hochschild import (
    BarComplex,
    BVStructure,
    CohomologyClass,
    HochschildCohomology,
    basis_classes,
    combine,
    connes_b_dual,
    connes_b_dual_matrix,
    signed,
    window_label,
    window_tuples,
)
from .linalg import Complex, SparseMatrix, rank, sparse_kernel_basis
from .reports import CheckReport


class CyclicComplex:
    """The truncated total complex Tot^n = C^n (+) Tot^{n-2} of the dual
    (b, B)-bicomplex, for n = 0 .. N+1 (see the module docstring), built
    and certified by ``Complex.mixed_total`` from the dual bar complex and
    the rotation operators B_1 .. B_N.
    """

    def __init__(self, alg: FDAlgebra, max_degree: int, budget: int | None = None):
        self.alg = alg
        self.max_degree = max_degree
        self.bar = BarComplex(alg, "dual", max_degree, budget)
        self.complex = Complex.mixed_total(
            self.bar.complex,
            {n: connes_b_dual_matrix(self.bar, n)
             for n in range(1, max_degree + 1)})


class CyclicCohomology:
    """HC^*(A) with the Connes sequence maps into the Hochschild machinery."""

    def __init__(self, alg: FDAlgebra, max_degree: int, budget: int | None = None):
        self.alg = alg
        self.max_degree = max_degree
        self.certified = max_degree - 2
        self.total = CyclicComplex(alg, max_degree, budget)
        self._classes: dict[int, list] = {}

    def dim(self, n: int) -> int:
        return self.total.complex.cohomology_dim(n)

    def classes(self, n: int):
        return basis_classes(self, n, self.total.complex.cohomology_at,
                             lambda n, rep: dict(rep))

    def project(self, n: int, vec: dict) -> CohomologyClass:
        if n < 0:
            return CohomologyClass(self, n, [], dict(vec))
        data = self.total.complex.cohomology_at(n)
        return CohomologyClass(self, n, data.project(vec), dict(vec))

    # -- the long exact sequence maps --------------------------------------------

    def to_hochschild(self, cls: CohomologyClass, hh) -> CohomologyClass:
        """I : HC^n -> HH^n(A; A-dual), the restriction to the front C^n."""
        front = self.total.bar.complex.dim(cls.degree)
        bar_vec = {c: v for c, v in cls.representative.items() if c < front}
        return hh.project(hh.bar.vec_to_cochain(cls.degree, bar_vec))

    def periodicity(self, cls: CohomologyClass) -> CohomologyClass:
        """S : HC^n -> HC^{n+2}, Tot^n placed behind C^{n+2}."""
        off = self.total.bar.complex.dim(cls.degree + 2)
        shifted = {c + off: v for c, v in cls.representative.items()}
        return self.project(cls.degree + 2, shifted)

    def connecting(self, hh_cls: CohomologyClass, hh) -> CohomologyClass:
        """The connecting map HH^n(A; A-dual) -> HC^{n-1} by the zig-zag:
        the cocycle sits at the front C^n of Tot^n, d_tot^n sends it to
        0 in C^{n+1} plus the answer in Tot^{n-1} behind it."""
        n = hh_cls.degree
        vec = hh.bar.cochain_to_vec(hh_cls.representative)
        dtot = self.total.complex.apply(n, vec)
        front = self.total.bar.complex.dim(n + 1)
        if any(c < front for c in dtot):
            raise ValueError("representative is not a cocycle")
        return self.project(n - 1, {c - front: v for c, v in dtot.items()})


def _map_matrix(field, images, target_dim):
    """Columns = coordinate images."""
    return SparseMatrix.from_terms(field, target_dim, len(images), [
        ((i, j), v) for j, img in enumerate(images) for i, v in enumerate(img)])


def connes_maps(alg: FDAlgebra, max_degree: int, budget: int | None = None):
    """Matrices of I, S and the connecting map on cohomology at every
    certified degree, plus the exactness report (rank identities and
    vanishing composites) and the identity  I o (connecting) = rotation.
    """
    f = alg.field
    hc = CyclicCohomology(alg, max_degree, budget)
    hh = HochschildCohomology(alg, "dual", max_degree, budget)
    W = hc.certified
    report = CheckReport()

    I_mats = {}
    S_mats = {}
    C_mats = {}
    rot_mats = {}
    connected = {}  # the connecting image of each basis class of HH^n
    for n in range(W + 1):
        I_mats[n] = _map_matrix(
            f, [hc.to_hochschild(x, hh).coords for x in hc.classes(n)], hh.dim(n)
        )
        if n + 2 <= W:
            S_mats[n] = _map_matrix(
                f, [hc.periodicity(x).coords for x in hc.classes(n)],
                hc.dim(n + 2),
            )
        if n >= 1:
            connected[n] = [hc.connecting(x, hh) for x in hh.classes(n)]
            C_mats[n] = _map_matrix(
                f, [c.coords for c in connected[n]], hc.dim(n - 1))
            # rotation on cohomology, via the class-level operator
            rot_imgs = []
            for x in hh.classes(n):
                rot = connes_b_dual(x.representative)
                rot_imgs.append(hh.project(rot).coords)
            rot_mats[n] = _map_matrix(f, rot_imgs, hh.dim(n - 1))

    # I o connecting = rotation, as matrices on cohomology
    for n in range(1, W + 1):
        imgs = [hc.to_hochschild(c, hh).coords for c in connected[n]]
        comp = _map_matrix(f, imgs, hh.dim(n - 1))
        report.record(
            f"I o connecting = rotation at degree {n}",
            comp == rot_mats[n],
            None if comp == rot_mats[n] else (n,),
        )

    # exactness:  HC^{n-2} -S-> HC^n -I-> HH^n -del-> HC^{n-1} -S-> HC^{n+1}
    for n in range(W + 1):
        # at HC^n: im S = ker I
        if n - 2 >= 0:
            comp = I_mats[n] * S_mats[n - 2]
            report.record(f"I o S = 0 at degree {n}", comp.is_zero())
            ok = rank(S_mats[n - 2]) + rank(I_mats[n]) == hc.dim(n)
            report.record(f"rank S + rank I = dim HC^{n}", ok)
        elif n in (0, 1):
            # sequence starts: I injective at the bottom edge
            report.record(
                f"I injective at degree {n}",
                rank(I_mats[n]) == hc.dim(n),
            )
        # at HH^n: im I = ker connecting
        if n >= 1:
            comp = C_mats[n] * I_mats[n]
            report.record(f"connecting o I = 0 at degree {n}", comp.is_zero())
            ok = rank(I_mats[n]) + rank(C_mats[n]) == hh.dim(n)
            report.record(f"rank I + rank connecting = dim HH^{n}", ok)
        # at HC^{n-1}: im connecting = ker S
        if n >= 1 and n + 1 <= W:
            comp = S_mats[n - 1] * C_mats[n]
            report.record(f"S o connecting = 0 at degree {n - 1}", comp.is_zero())
            ok = rank(C_mats[n]) + rank(S_mats[n - 1]) == hc.dim(n - 1)
            report.record(f"rank connecting + rank S = dim HC^{n - 1}", ok)
    return {
        "I": I_mats,
        "S": S_mats,
        "connecting": C_mats,
        "rotation": rot_mats,
        "report": report,
        "hc": hc,
        "hh": hh,
    }


class StringBracket:
    """The bracket {x, y} = +- connecting(I(x) u I(y)) on cyclic classes,
    with the cup computed in HH(A;A) through the Frobenius duality.

    Each distinct bracket is computed once per instance: ``bracket`` keeps
    its results keyed by the arguments' ``memo_key``, degree and exact
    representative with its key order, never coordinates.  Two
    representatives of one class are therefore each computed, so the suites
    still test that the bracket is well defined on classes.  Every call
    returns a fresh class with its own coordinates and representative.
    """

    def __init__(self, alg: FDAlgebra, frob: FrobeniusStructure,
                 max_degree: int, budget: int | None = None):
        self.alg = alg
        self.frob = frob
        self.max_degree = max_degree
        self.hc = CyclicCohomology(alg, max_degree, budget)
        self.bv = BVStructure(alg, frob, max_degree, budget)
        self.pairing_shift = -(frob.degree or 0)  # d >= 0: pairing degree -d
        self._brackets: dict[tuple, CohomologyClass] = {}

    def certified(self):
        return self.hc.certified

    def bracket(self, x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
        """{x, y} := (-1)^{|x| - d} connecting(I(x) u I(y)), the cup routed
        through HH(A;A) since dual-coefficient cochains cannot be cupped."""
        if x.degree + y.degree > self.hc.certified:
            raise ValueError("bracket exceeds the certified window")
        key = x.memo_key() + y.memo_key()
        out = self._brackets.get(key)
        if out is None:
            out = self._brackets[key] = self._compute_bracket(x, y)
        return CohomologyClass(out.space, out.degree, list(out.coords),
                               dict(out.representative))

    def _compute_bracket(self, x, y):
        f = self.alg.field
        d = self.pairing_shift
        w = self.bv.cup_classes(self._to_hh(x), self._to_hh(y))
        back = self.bv.duality_inv(w)
        out = self.hc.connecting(back, self.bv.hh_dual)
        # total degree of x in the cyclic grading
        if (x.degree - d) % 2:
            return CohomologyClass(
                self.hc, out.degree, [f.neg(c) for c in out.coords],
                {k: f.neg(vv) for k, vv in out.representative.items()})
        return out

    def _basis(self):
        """The basis classes of HC^0 .. HC^W, W the certified degree."""
        return [self.hc.classes(n) for n in range(self.certified() + 1)]

    def _to_hh(self, x: CohomologyClass) -> CohomologyClass:
        """M = D o I : HC^n -> HH^n(A; A)."""
        return self.bv.duality(self.hc.to_hochschild(x, self.bv.hh_dual))

    def morphism_check(self):
        """The map M = D o I sends the string bracket to the Gerstenhaber
        bracket: {M(x), M(y)} = M({x, y}) on all certified pairs, from
        ``window_tuples``; M of each basis class is computed once."""
        report = CheckReport()
        basis = self._basis()
        W = len(basis) - 1
        M = {(n, i): self._to_hh(x)
             for (n,), (i,), (x,) in window_tuples(basis, 1, 0, W)}
        for (nx, ny), (i, j), (x, y) in window_tuples(basis, 2, 1, W):
            lhs = self.bv.bracket_classes(M[nx, i], M[ny, j])
            # {x, y} lies in degree nx + ny - 1 >= 0
            ok = lhs.coords == self._to_hh(self.bracket(x, y)).coords
            report.record(f"morphism {window_label((nx, ny), (i, j))}", ok,
                          None if ok else (nx, ny, i, j, lhs.coords))
        return report

    def antisymmetry_jacobi_check(self):
        """Graded antisymmetry and Jacobi for the bracket of degree -1-d on
        the certified basis classes, each over ``window_tuples``."""
        f = self.alg.field
        d = self.pairing_shift
        report = CheckReport()
        basis = self._basis()
        W = len(basis) - 1

        for (nx, ny), (i, j), (x, y) in window_tuples(basis, 2, 1, W):
            lhs = self.bracket(x, y)
            rhs = self.bracket(y, x)
            # bracket of degree -1-d: antisymmetry sign
            want = signed(f, (nx - 1 - d) * (ny - 1 - d) % 2 == 0, rhs.coords)
            report.record(
                f"antisymmetry {window_label((nx, ny), (i, j))}",
                lhs.coords == want,
                None if lhs.coords == want else (lhs.coords, rhs.coords),
            )
        # Jacobi in Leibniz form on triples whose nested brackets stay in window
        for degrees, _, (x, y, z) in window_tuples(basis, 3, 2 * (1 + d), W):
            inner = self.bracket(y, z)
            if inner.degree < 0:
                continue
            lhs = self.bracket(x, inner).coords
            zero = [f.zero] * len(lhs)
            xy = self.bracket(x, y)
            r1 = self.bracket(xy, z).coords if xy.degree >= 0 else zero
            xz = self.bracket(x, z)
            r2 = self.bracket(y, xz).coords if xz.degree >= 0 else zero
            nx, ny, _ = degrees
            rhs = combine(f, r1, r2, (nx - 1 - d) * (ny - 1 - d) % 2)
            report.record(f"jacobi {window_label(degrees)}", lhs == rhs,
                          None if lhs == rhs else (lhs, rhs))
        return report


def cyclic_cohomology(alg, max_degree, budget=None):
    """The (degree, dimension, basis) table of HC^*(A), certified to N-2."""
    hc = CyclicCohomology(alg, max_degree, budget)
    return [(n, hc.dim(n), hc.classes(n)) for n in range(max_degree + 1)]


def trace_space_dim(alg: FDAlgebra) -> int:
    """dim of the space of traces (functionals vanishing on commutators),
    the independent description of HC^0."""
    d = alg.dim
    # row (i, j): the coefficients of the commutator e_i e_j - e_j e_i
    terms = [((i * d + j, k), c) for (i, j), row in alg.mult.items()
             for k, c in row.items()]
    terms += [((j * d + i, k), -c) for (i, j), row in alg.mult.items()
              for k, c in row.items()]
    system = SparseMatrix.from_terms(alg.field, d * d, d, terms)
    return len(sparse_kernel_basis(system))
