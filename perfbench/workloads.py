"""The four workloads: seeded inputs and the case list of one repetition.

Every repetition of a run draws fresh inputs from ``(workload, seed, rep)``:
each group preset is relabelled by a random permutation of its elements and
written to a group JSON file, which is all the program receives.  Cost
depends on the labelling (the elimination order follows the basis order)
while dims, ranks, nnz and check counts do not, so a run averages over
several labellings and the fingerprints in ``reference.json`` hold for every
seed.

A case returns ``(status, checks, body)``: ``status`` is the exit code (0
when every check of a library case holds), ``checks`` the list of check
outcomes, ``body`` the report text, which must be byte-identical to the
reference for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random


def rng_for(workload, seed, rep):
    return random.Random(f"{workload}:{seed}:{rep}")


def relabelled(group, rng):
    """The group's table under a random relabelling of its elements, in the
    group file format."""
    n = group.order
    perm = list(range(n))
    rng.shuffle(perm)
    names = [None] * n
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        names[perm[i]] = group.names[i]
        for j in range(n):
            table[perm[i]][perm[j]] = perm[group.table[i][j]]
    return {"elements": names, "table": table}


def group_path(name):
    """Relative to the run's working directory, so that report bodies, which
    name the file, are the same for every run."""
    return name + ".json"


def write_groups(hbv, names, rng):
    """Relabel each preset once per repetition; every case of the
    repetition that names the group reads the same file."""
    for name in names:
        with open(group_path(name), "w") as fh:
            json.dump(relabelled(hbv.preset(name), rng), fh)


def run_cli(hbv, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = hbv.cli.main(argv)
    body = out.getvalue()
    checks = [c["ok"] for c in json.loads(body)["checks"]] if body else []
    return status, checks, body


class Case:
    def __init__(self, label, fn):
        self.label = label
        self.fn = fn


# -- hh_dims ------------------------------------------------------------------

HH_GROUPS = [("Z4", 5), ("S3", 3), ("Z6", 3)]
FIELDS = ["F2", "F3", "Q"]


def _hh_case(group, field, n):
    def run(hbv):
        g = hbv.FiniteGroup.load(group_path(group))
        f = hbv.field_by_name(field)
        direct = [d for _, d in hbv.hochschild_dims(hbv.group_algebra(g, f), "self", n)]
        oracle = [d for _, d in hbv.centralizer_oracle(g, f, n)]
        checks = [a == b for a, b in zip(direct, oracle)] + [len(direct) == len(oracle)]
        body = json.dumps({"hochschild_dims": direct, "oracle_dims": oracle})
        return (0 if all(checks) else 1), checks, body
    return Case(f"{group}/{field} N={n}", run)


def hh_dims(hbv, rng):
    write_groups(hbv, [g for g, _ in HH_GROUPS], rng)
    return [_hh_case(g, f, n) for g, n in HH_GROUPS for f in FIELDS]


# -- bv_suite -----------------------------------------------------------------

# order-8 groups are left out: one bv-check on them costs 3-5 s and varies
# +-25% with the labelling, which a 25 s run cannot average away
BV_CASES = [
    ("group", "S3", "F2", 3),
    ("group", "Z6", "F3", 3),
    ("group", "Z4", "F2", 5),
    ("group", "Z4", "F2", 4),
    ("group", "Z3", "F3", 4),
    ("exterior", "3,5", "Q", 3),
    ("exterior", "3", "Q", 5),
    ("exterior", "3,5", "Q", 4),
]


def _cli_case(command, kind, name, field, n):
    source = group_path(name) if kind == "group" else name
    argv = [command, "--" + kind, source, "--field", field, "--max-degree", str(n)]
    label = (f"{command} {name}/{field} N={n}" if kind == "group"
             else f"{command} ext({name})/{field} N={n}")
    return Case(label, lambda hbv: run_cli(hbv, argv))


def bv_suite(hbv, rng):
    write_groups(hbv, sorted({c[1] for c in BV_CASES if c[0] == "group"}), rng)
    return [_cli_case("bv-check", *c) for c in BV_CASES]


# -- cyclic_bracket -----------------------------------------------------------

CYCLIC_GROUPS = [("Z4", "F2", 5), ("S3", "F2", 3), ("Z6", "F3", 3), ("Z3", "F3", 6)]


def cyclic_bracket(hbv, rng):
    write_groups(hbv, [g for g, _, _ in CYCLIC_GROUPS], rng)
    return [_cli_case(cmd, "group", g, f, n)
            for g, f, n in CYCLIC_GROUPS for cmd in ("cyclic", "string-bracket")]


# -- tqft_prop ----------------------------------------------------------------

# (group, field, widest boundary evaluated): evaluation is dense in
# dim^width, so the width is capped per algebra to keep every instance small.
# Pants decompositions are drawn genus 0: each handle adds a strand to every
# layer below it, and the few wide layers that result dominated whole runs.
TQFT_ALGEBRAS = [("Z3", "Q", 3), ("Z4", "Q", 2), ("Z4", "F3", 2)]
TQFT_BATCHES = 6      # cases per algebra
TQFT_INSTANCES = 75   # random instances per case
CLOSED_GENERA = range(4)


def random_cobordism(rng, p, q, max_genus):
    """A cobordism p -> q with 1..3 components, in the cobordism file format."""
    k = rng.randint(1, max(1, min(p + q, 3)))
    ins = list(range(1, p + 1))
    outs = list(range(1, q + 1))
    rng.shuffle(ins)
    rng.shuffle(outs)
    comps = [[rng.randint(0, max_genus), [], []] for _ in range(k)]
    for i, port in enumerate(ins):
        comps[i % k][1].append(port)
    for i, port in enumerate(outs):
        comps[i % k][2].append(port)
    return {"in": p, "out": q,
            "components": [{"genus": g, "in_legs": a, "out_legs": b}
                           for g, a, b in comps if a or b]}


def tqft_instance(rng, width):
    p, q, r, s = (rng.randint(1, 3) for _ in range(4))
    f2 = random_cobordism(rng, rng.randint(1, 2), rng.randint(1, 2), 1)
    sf = random_cobordism(rng, rng.randint(1, width), rng.randint(1, width), 1)
    return {
        "f": random_cobordism(rng, p, q, 2),
        "g": random_cobordism(rng, q, r, 2),
        "h": random_cobordism(rng, r, s, 2),
        "f2": f2,
        "g2": random_cobordism(rng, f2["out"], rng.randint(1, 2), 1),
        "sf": sf,
        "sg": random_cobordism(rng, sf["out"], rng.randint(1, width), 1),
        "cb": random_cobordism(rng, rng.randint(1, width), rng.randint(1, width), 0),
        "pants_seed": rng.randrange(2 ** 32),
    }


def _instance_checks(hbv, T, inst):
    """Prop axioms, chi additivity, functoriality of the evaluation and
    invariance under a pants decomposition: seven checks."""
    cob = hbv.cobordism
    f, g, h, f2, g2, sf, sg, cb = (
        hbv.Cobordism.from_json(inst[k])
        for k in ("f", "g", "h", "f2", "g2", "sf", "sg", "cb"))
    fg = f.compose(g)
    checks = [
        fg.compose(h) == f.compose(g.compose(h)),
        cob.identity_cobordism(f.p).compose(f) == f,
        f.compose(cob.identity_cobordism(f.q)) == f,
        f.tensor(f2).compose(g.tensor(g2)) == fg.tensor(f2.compose(g2)),
        fg.euler_characteristic() == f.euler_characteristic() + g.euler_characteristic(),
        T.evaluate(sf.compose(sg)) == T.evaluate(sf).compose(T.evaluate(sg)),
    ]
    ev = None
    for layer in cob.pants_decomposition(cb, random.Random(inst["pants_seed"])):
        piece = T.evaluate(layer)
        ev = piece if ev is None else ev.compose(piece)
    checks.append(ev == T.evaluate(cb))
    return checks


def _tqft_case(group, field, batch, instances):
    def run(hbv):
        g = hbv.FiniteGroup.load(group_path(group))
        f = hbv.field_by_name(field)
        alg = hbv.group_algebra(g, f)
        T = hbv.FrobeniusTQFT(alg, hbv.group_frobenius(alg))
        checks = []
        for inst in instances:
            checks += _instance_checks(hbv, T, inst)
        # oracle: the closed genus-g surface evaluates to |G|^g on F[G]
        closed = []
        for genus in CLOSED_GENERA:
            tm = T.evaluate(hbv.cobordism.connected_cobordism(genus, 0, 0))
            value = tm.matrix.data[0][0]
            closed.append(f.fmt(value))
            checks.append(value == f.of_int(g.order ** genus))
        body = json.dumps({"checks": checks, "closed_surfaces": closed})
        return (0 if all(checks) else 1), checks, body
    return Case(f"tqft {group}/{field} batch {batch}", run)


def tqft_prop(hbv, rng):
    write_groups(hbv, sorted({g for g, _, _ in TQFT_ALGEBRAS}), rng)
    return [_tqft_case(g, f, b, [tqft_instance(rng, w) for _ in range(TQFT_INSTANCES)])
            for g, f, w in TQFT_ALGEBRAS for b in range(TQFT_BATCHES)]


WORKLOADS = {
    "hh_dims": hh_dims,
    "bv_suite": bv_suite,
    "cyclic_bracket": cyclic_bracket,
    "tqft_prop": tqft_prop,
}
