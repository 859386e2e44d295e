"""Every span target of the benchmark's tracer names a function or method
that ``hbv`` defines, so a rename of a traced name fails here, not only in a
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved(entries) -> list:
    """The ``(module, attribute or Class.method, tag)`` entries that
    ``tracing.patch`` could not wrap: a method must be defined on its class
    itself, a function must be a callable attribute of its module."""
    missing = []
    for modname, attr, tag in entries:
        mod = importlib.import_module(modname)
        owner_name, _, meth = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            ok = owner is not None and meth in vars(owner)
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append((modname, attr, tag))
    return missing


def test_traced_names_resolve():
    tracing = load_tracing()
    assert tracing.SPANS and tracing.MEMORY_SPANS
    assert unresolved(tracing.SPANS + tracing.MEMORY_SPANS) == []


def test_unresolved_finds_a_renamed_target():
    entries = [("hbv.linalg", "SparseMatrix.__mul__", "a"),
               ("hbv.linalg", "SparseMatrix.no_such_method", "b"),
               ("hbv.linalg", "sparse_kernel_basis", "c"),
               ("hbv.linalg", "no_such_function", "d"),
               ("hbv.linalg", "NoSuchClass.__init__", "e")]
    assert [tag for _, _, tag in unresolved(entries)] == ["b", "d", "e"]


def test_dense_functions_stay_off_the_traced_rank(monkeypatch):
    # the tracer appends every result of the public ``sparse_rank`` to the
    # fingerprint, and ``connes_maps`` calls ``rank`` for its Connes-
    # sequence identities: a function on the small structure matrices that
    # reached ``sparse_rank`` would add entries the reference does not have
    from hbv import linalg
    from hbv.fields import GF, QQ

    def refuse(sm):
        raise AssertionError("sparse_rank called")

    monkeypatch.setattr(linalg, "sparse_rank", refuse)
    for field in (QQ, GF(2), GF(3)):
        one, two = field.of_int(1), field.of_int(2)
        m = linalg.SparseMatrix.from_dense(field, 2, 2, [[one, two], [field.zero, one]])
        assert linalg.rank(m) == 2
        assert linalg.sparse_kernel_basis(m) == []
        assert linalg.inverse(m) * m == linalg.SparseMatrix.identity(field, 2)


def test_closed_surface_value_is_the_field_element_the_benchmark_reads():
    # the benchmark's TQFT cases read a closed genus-g surface's 1 x 1 map
    # as ``.matrix.data[0][0]`` and compare it with f.of_int(|G|**g); over
    # Q it must be a Fraction, which a report renders differently from an int
    from fractions import Fraction

    from hbv.algebra import group_algebra, group_frobenius
    from hbv.cobordism import FrobeniusTQFT, connected_cobordism
    from hbv.fields import field_by_name
    from hbv.groups import preset

    for group, field in (("Z3", "Q"), ("Z4", "Q"), ("Z4", "F3")):
        g, f = preset(group), field_by_name(field)
        alg = group_algebra(g, f)
        T = FrobeniusTQFT(alg, group_frobenius(alg))
        for genus in range(3):
            value = T.evaluate(connected_cobordism(genus, 0, 0)).matrix.data[0][0]
            assert value == f.of_int(g.order ** genus)
            assert type(value) is (int if f.char else Fraction)
