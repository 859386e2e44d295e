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
    entries = [("hbv.linalg", "Matrix.__mul__", "a"),
               ("hbv.linalg", "Matrix.no_such_method", "b"),
               ("hbv.linalg", "kernel_basis", "c"),
               ("hbv.linalg", "no_such_function", "d"),
               ("hbv.linalg", "NoSuchClass.__init__", "e")]
    assert [tag for _, _, tag in unresolved(entries)] == ["b", "d", "e"]


def test_dense_functions_stay_off_the_traced_rank(monkeypatch):
    # the tracer appends every result of the public ``sparse_rank`` to the
    # fingerprint, and ``connes_maps`` calls ``rank`` for its Connes-
    # sequence identities: a dense function that reached ``sparse_rank``
    # would add entries the reference does not have
    from hbv import linalg
    from hbv.fields import GF, QQ

    def refuse(sm):
        raise AssertionError("sparse_rank called")

    monkeypatch.setattr(linalg, "sparse_rank", refuse)
    for field in (QQ, GF(2), GF(3)):
        one, two = field.of_int(1), field.of_int(2)
        m = linalg.Matrix(field, 2, 2, [[one, two], [field.zero, one]])
        assert linalg.rank(m) == 2
        assert linalg.kernel_basis(m) == []
        assert linalg.inverse(m) * m == linalg.Matrix.identity(field, 2)
