"""The four benchmark workloads: their operation lists and input builders.

An operation is one call into a public dendrikit function, or one CLI
command.  ``build_cli``, ``build_finite`` and ``build_affine`` return the
operations of one pass, each with the record its result must reduce to (see
``outcomes``).

About half of the finite slots run on inputs valid by construction and the
rest on inputs with one perturbed coefficient; ``affine-window`` and
``cli-corpus`` add
perturbed (and, for the CLI, format-breaking) copies to clean inputs.  The
perturbed inputs, and their expected verdicts and witnesses, come from a
pool of variants recorded from the program (``goldens/``, written by
``record_goldens.py``); the seed picks one variant per slot.  Clean inputs
of ``finite-dense`` take their change of basis straight from the seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import inputs as gen
import outcomes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "dendrikit" / "corpus"
GOLDENS = BENCH / "goldens"
WORK = ROOT / ".bench_work"

WORKLOADS = ("cli-corpus", "finite-sparse", "finite-dense", "affine-window")
CLEAN = {"ok": True, "witness": None, "nonzero": 0}


@dataclass
class Op:
    slot: str
    variant: str
    call: Callable[[], Any]
    outcome: Callable[[Any], dict]
    expected: dict
    perturbed: bool
    props: dict = field(default_factory=dict)

    @property
    def op_id(self) -> str:
        return f"{self.slot}#{self.variant}"


def dk():
    """The dendrikit package.  Operations reach functions through its module
    attributes at call time, so the tracing wrappers apply to them."""
    import dendrikit.affinization  # noqa: F401  (binds the submodules)
    import dendrikit.bialgebras  # noqa: F401
    import dendrikit.functors  # noqa: F401
    import dendrikit.ybe  # noqa: F401
    return sys.modules["dendrikit"]


def load_goldens(workload: str) -> dict:
    return json.loads((GOLDENS / f"{workload}.json").read_text())["slots"]


def pick_variant(seed, slot: str, pool: dict) -> str:
    return gen.rng_for(seed, slot).choice(sorted(pool, key=int))


# --- finite workloads -----------------------------------------------------------

# (operation, family, n on finite-sparse, n on finite-dense, perturbed).
# 14 of the 29 slots run on inputs valid by construction.  The clean sweeps (check_axioms on
# truncated polynomials; ybe_residual and the coboundary bialgebra on the
# Rota-Baxter dendriform split) give the points of the fitted exponents in n.
# Sizes keep every call short: the machine's speed changes in bursts, and
# only short calls repeated many times give a steady best latency.
FINITE_SLOTS = (
    ("axioms", "trunc", 2, 2, False),
    ("axioms", "trunc", 3, 3, False),
    ("axioms", "trunc", 4, 4, False),
    ("axioms", "rbdend", 3, 3, True),
    ("axioms", "novikov", 3, 3, True),
    ("axioms", "witt", 3, 3, True),
    ("axioms", "phiperm", 3, 3, True),
    ("axioms", "tensor", 4, 4, True),
    ("bimodule", "rbdend", 3, 3, False),
    ("bimodule", "trunc", 3, 3, True),
    ("bimodule", "novikov", 3, 3, False),
    ("bimodule", "witt", 3, 3, True),
    ("ybe", "rbdend", 3, 2, False),
    ("ybe", "rbdend", 4, 3, False),
    ("ybe", "rbdend", 5, 4, False),
    ("ybe", "trunc", 4, 3, True),
    ("ybe", "novikov", 4, 3, True),
    ("ybe", "witt", 4, 4, True),
    ("bialgebra", "rbdend", 2, 2, False),
    ("bialgebra", "rbdend", 3, 3, False),
    ("bialgebra", "rbdend", 4, 4, False),
    ("bialgebra", "novikov", 3, 3, True),
    ("bialgebra", "witt", 4, 4, True),
    ("ooperator", "rbdend", 4, 3, True),
    ("ooperator", "trunc", 4, 3, False),
    ("ooperator", "novikov", 4, 3, True),
    ("ooperator", "witt", 4, 4, False),
    ("square", "pair", 2, 2, False),
    ("square", "rbdend", 2, 2, True),
)


def tensor_assoc_spec(d: dict, b: dict) -> dict:
    """(d1 x b1)(d2 x b2) = (d1 > d2) x (b1 b2) + (d1 < d2) x (b2 b1) on D (x) B."""
    nd, nb = d["dim"], b["dim"]
    n = nd * nb
    lt, gt, mul = d["products"]["lt"], d["products"]["gt"], b["products"]["mul"]
    c = gen.zero_cube(n)
    for d1 in range(nd):
        for b1 in range(nb):
            for d2 in range(nd):
                for b2 in range(nb):
                    for kd in range(nd):
                        for kb in range(nb):
                            v = gt[kd][d1][d2] * mul[kb][b1][b2] + lt[kd][d1][d2] * mul[kb][b2][b1]
                            if v:
                                c[kd * nb + kb][d1 * nb + b1][d2 * nb + b2] = v
    return {"kind": "assoc", "dim": n, "products": {"mul": c}}


def base_spec(family: str, n: int) -> dict:
    if family == "tensor":
        return tensor_assoc_spec(gen.dendriform_pair(), gen.perm_pair())
    if family == "pair":
        return gen.dendriform_pair()
    return gen.FAMILIES[family](n)


DENSE_DRAWS = 16


def nonzero(m) -> int:
    return sum(x != 0 for row in m for x in row)


def finite_slot_id(op: str, family: str, n: int) -> str:
    return f"{op}/{family}/n{n}"


def finite_inputs(op: str, family: str, n: int, dense: bool, basis_rng, perturb_rng):
    """Program objects for one finite operation, and the input's properties.

    ``perturb_rng`` is None for the clean input.
    """
    d = dk()
    FinAlgebra, Tensor2, LinMap = d.algebras.FinAlgebra, d.exact.Tensor2, d.exact.LinMap
    spec = base_spec(family, n)
    dim = spec["dim"]
    r = gen.square_zero_r(dim, skew=spec["kind"] == "lie")
    partner = gen.perm_pair()
    if dense:
        # Of DENSE_DRAWS bases, keep the first that leaves the fewest zero
        # coordinates in r: the cost of ybe_residual grows with nnz(r)^2, so
        # a sparse r would make the run length depend on the seed.
        draws = DENSE_DRAWS if op in ("ybe", "bialgebra", "ooperator") else 1
        best = None
        for _ in range(draws):
            s, s_inv = gen.random_basis(dim, basis_rng)
            r_new = gen.transform_tensor(r, s_inv)
            zeros = dim * dim - nonzero(r_new)
            if best is None or zeros < best[0]:
                best = (zeros, s, s_inv, r_new)
        _, s, s_inv, r = best
        spec = gen.change_basis(spec, s, s_inv)
        if op == "square":
            s2, s2_inv = gen.random_basis(2, basis_rng)
            partner = gen.change_basis(partner, s2, s2_inv)
    cubes = spec["products"]
    if perturb_rng is not None and op in ("axioms", "bialgebra", "square"):
        cubes = gen.perturb_cube(cubes, perturb_rng)
    alg = FinAlgebra(spec["kind"], dim, cubes)
    nz, total, bits = gen.cube_properties(cubes)
    props = {"nonzero": nz, "constants": total, "bits": bits, "r_nonzero": nonzero(r)}
    if op == "axioms":
        return (alg,), props
    if op == "bimodule":
        bim = d.algebras.regular_bimodule(alg)
        if perturb_rng is not None:
            name = perturb_rng.choice(sorted(bim.actions))
            mats = list(bim.actions[name])
            b = perturb_rng.randrange(dim)
            mats[b] = gen.perturb_matrix(mats[b], perturb_rng)
            bim = d.algebras.Bimodule(alg, dim, {**bim.actions, name: mats})
        return (bim,), props
    if op == "ybe":
        if perturb_rng is not None:
            r = gen.perturb_matrix(r, perturb_rng)
            props["r_nonzero"] = nonzero(r)
        return (alg, Tensor2(r)), props
    if op == "bialgebra":
        return (alg, Tensor2(r)), props
    if op == "ooperator":
        p = [[r[j][i] for j in range(dim)] for i in range(dim)]  # r-sharp = transpose
        if perturb_rng is not None:
            p = gen.perturb_matrix(p, perturb_rng)
        return (d.ybe.coregular_bimodule(alg), LinMap(p)), props
    if op == "square":
        return (alg, FinAlgebra("perm", 2, partner["products"])), props
    raise ValueError(op)


def finite_call(op: str, args):
    """The timed call and the reduction of its result to an outcome record."""
    d = dk()
    if op == "axioms":
        return (lambda: d.algebras.check_axioms(*args)), outcomes.report_outcome
    if op == "bimodule":
        return (lambda: d.algebras.check_bimodule(*args)), outcomes.report_outcome
    if op == "ybe":
        return ((lambda: d.ybe.ybe_residual(*args)),
                lambda t: outcomes.tensor_outcome("ybe", t.coeffs))
    if op == "bialgebra":
        def call():
            alg, r = args
            theta = d.ybe.coboundary_coproduct(alg, r)
            return (d.bialgebras.check_coalgebra(theta),
                    d.bialgebras.check_bialgebra(alg, theta))
        return call, lambda reps: outcomes.combine([outcomes.report_outcome(x) for x in reps])
    if op == "ooperator":
        return (lambda: d.ybe.check_ooperator(*args)), outcomes.report_outcome
    if op == "square":
        return (lambda: d.functors.check_square(*args)), outcomes.report_outcome
    raise ValueError(op)


def finite_op(workload: str, seed, op: str, family: str, n: int, variant) -> Op:
    """One finite operation; ``variant`` is "clean" or a recorded variant id."""
    dense = workload == "finite-dense"
    slot = finite_slot_id(op, family, n)
    if variant == "clean":
        basis_rng, perturb_rng = gen.rng_for(seed, f"{slot}/basis"), None
    else:
        basis_rng = gen.rng_for("variant", f"{slot}/{variant}/basis")
        perturb_rng = gen.rng_for("variant", f"{slot}/{variant}")
    args, props = finite_inputs(op, family, n, dense, basis_rng, perturb_rng)
    call, outcome = finite_call(op, args)
    return Op(slot, str(variant), call, outcome, {}, variant != "clean", props)


def build_finite(workload: str, seed, goldens: dict) -> list:
    dense = workload == "finite-dense"
    ops = []
    for op, family, n_sparse, n_dense, perturbed in FINITE_SLOTS:
        n = n_dense if dense else n_sparse
        slot = finite_slot_id(op, family, n)
        if perturbed:
            pool = goldens[slot]["variants"]
            v = pick_variant(seed, slot, pool)
            ops.append(finite_op(workload, seed, op, family, n, v))
            ops[-1].expected = pool[v]
        else:
            ops.append(finite_op(workload, seed, op, family, n, "clean"))
            ops[-1].expected = CLEAN
    return ops


# --- affine-window ----------------------------------------------------------------

# (slot, check, window N, perturbed structure or None)
AFFINE_SLOTS = (
    ("gf/N2", "check_graded_form", 2, None),
    ("lpa/N2", "check_laurent_perm_axioms", 2, None),
    ("nu/N2", "check_nu_pairing", 2, None),
    ("cpc/N2", "check_completed_perm_coalgebra", 2, None),
    ("aa/N2", "check_affine_associativity", 2, None),
    ("asi/N2", "check_completed_asi", 2, None),
    ("coassoc/N2", "check_completed_coassociativity", 2, None),
    ("lpa/N3", "check_laurent_perm_axioms", 3, None),
    ("gf/N1", "check_graded_form", 1, None),
    ("aa/N2/product", "check_affine_associativity", 2, "product"),
    ("asi/N2/coproduct", "check_completed_asi", 2, "coproduct"),
    ("coassoc/N2/coproduct", "check_completed_coassociativity", 2, "coproduct"),
)
WINDOW_ONLY = ("check_laurent_perm_axioms", "check_graded_form", "check_nu_pairing",
               "check_completed_perm_coalgebra")


def pair_coproducts() -> dict:
    """Coboundary coproducts of r = e1 (x) e1 on the dendriform pair (the corpus
    D-bialgebra): theta_>(e_i) = e1 (x) e_i, theta_< = 0."""
    co_gt = gen.zero_cube(2)
    co_gt[0][0][0] = gen.ONE
    co_gt[1][0][1] = gen.ONE
    return {"co_lt": gen.zero_cube(2), "co_gt": co_gt}


def affine_op(slot: str, check: str, N: int, target, variant) -> Op:
    d = dk()
    af = d.affinization
    products = gen.dendriform_pair()["products"]
    coproducts = pair_coproducts()
    if variant != "clean":
        rng = gen.rng_for("variant", f"{slot}/{variant}")
        if target == "product":
            products = gen.perturb_cube(products, rng)
        else:
            coproducts = gen.perturb_cube(coproducts, rng)
    nz, total, bits = gen.cube_properties({**products, **coproducts})
    props = {"nonzero": nz, "constants": total, "bits": bits}
    w = af.Window(N)
    D = d.algebras.FinAlgebra("dendriform", 2, products)
    theta = d.bialgebras.CoalgStruct("dendriform", 2, coproducts)
    if check in WINDOW_ONLY:
        args = (w,)
    elif check == "check_affine_associativity":
        args = (D, w)
    else:
        args = (D, theta, w)
    call = lambda: getattr(d.affinization, check)(*args)
    return Op(slot, str(variant), call, outcomes.affine_outcome, {}, variant != "clean", props)


def build_affine(seed, goldens: dict) -> list:
    ops = []
    for slot, check, N, target in AFFINE_SLOTS:
        entry = goldens[slot]
        if target is None:
            op = affine_op(slot, check, N, None, "clean")
            op.expected = entry["clean"]
        else:
            pool = entry["variants"]
            v = pick_variant(seed, slot, pool)
            op = affine_op(slot, check, N, target, v)
            op.expected = pool[v]
        ops.append(op)
    return ops


# --- cli-corpus -------------------------------------------------------------------

BIALG = "corpus:ex-dendind-bialgebra.json"
PAIR = "corpus:ex-D-alg-iii.json"
QPERM = "corpus:perm-quadratic.json"
JSON = ("--format", "json")
REPRODUCE_IDS = ("ex-2.2", "ex-2.13", "ex-3.13", "ex-4.2", "ex-4.5", "ex-4.9",
                 "ex-4.27", "ex-5.13")

# (slot, arguments, group).  "corpus:" names a shipped corpus file and
# "work:" a file written in set-up.  Groups: shipped inputs (exit 0, or the
# recorded exit where a shipped input is meant to fail), perturbed copies
# (exit 1) and copies that break the file format (exit 2).
CLI_SLOTS = tuple(
    [(f"reproduce/{i}", ("reproduce", i) + JSON, "shipped") for i in REPRODUCE_IDS]
    + [
        ("check/bialgebra", ("check", BIALG) + JSON, "shipped"),
        ("check/qperm/text", ("check", QPERM), "shipped"),
        ("ybe/solution", ("ybe", "--eq", "dybe", "--algebra", PAIR,
                          "--r", "corpus:r-beta1-gamma1.json") + JSON, "shipped"),
        ("ybe/nonsolution", ("ybe", "--eq", "dybe", "--algebra", PAIR,
                             "--r", "corpus:r-nonsolution.json") + JSON, "shipped"),
        ("invariance", ("invariance", "--algebra", "corpus:prelie-ooperator.json",
                        "--r", "corpus:r-e1e1.json") + JSON, "shipped"),
        ("induce/asi-bialgebra", ("induce", "--construction", "asi-bialgebra",
                                  "--algebra", BIALG, "--perm", QPERM), "shipped"),
        ("lift", ("lift", "--r", "corpus:r-e1e1.json", "--qperm", QPERM), "shipped"),
        ("ooperator/text", ("ooperator", "--spec", "corpus:dendriform-ooperator.json"),
         "shipped"),
        ("square/bialgebra", ("square", "--dendriform", BIALG, "--qperm", QPERM,
                              "--bialgebra") + JSON, "shipped"),
        ("affine/asi", ("affine", "--dendriform", BIALG, "--window", "2",
                        "--check", "asi") + JSON, "shipped"),
        ("affine/assoc/text", ("affine", "--dendriform", BIALG, "--window", "2",
                               "--check", "assoc"), "shipped"),
        ("perturbed/check", ("check", "work:check.json") + JSON, "perturbed"),
        ("perturbed/ybe", ("ybe", "--eq", "dybe", "--algebra", PAIR,
                           "--r", "work:r.json") + JSON, "perturbed"),
        ("perturbed/ooperator", ("ooperator", "--spec", "work:ooperator.json") + JSON,
         "perturbed"),
        ("perturbed/affine", ("affine", "--dendriform", "work:affine.json", "--window", "2",
                              "--check", "assoc") + JSON, "perturbed"),
        ("broken/non-reduced", ("check", "work:non-reduced.json"), "broken"),
        ("broken/unknown-key", ("check", "work:unknown-key.json") + JSON, "broken"),
        ("broken/out-of-range", ("ybe", "--eq", "dybe", "--algebra", "work:out-of-range.json",
                                 "--r", "corpus:r-e1e1.json"), "broken"),
    ]
)

# Which shipped file each written copy starts from.
CLI_SOURCES = {
    "perturbed/check": "ex-dendind-bialgebra.json",
    "perturbed/ybe": "r-e1e1.json",
    "perturbed/ooperator": "dendriform-ooperator.json",
    "perturbed/affine": "ex-dendind-bialgebra.json",
}
BROKEN_SOURCES = ("ex-D-alg-iii.json", "ex-dendind-bialgebra.json", "perm-quadratic.json")


def cli_work_dir() -> Path:
    return WORK / "cli-corpus"


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def resolve_args(args) -> list:
    out = []
    for a in args:
        if a.startswith("corpus:"):
            out.append(rel(CORPUS / a[len("corpus:"):]))
        elif a.startswith("work:"):
            out.append(rel(cli_work_dir() / a[len("work:"):]))
        else:
            out.append(a)
    return out


def _coeff_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coeff_sites(obj: dict):
    """(container, key) for every coefficient string in a parsed corpus file."""
    sites = []

    def walk(x):
        if isinstance(x, dict):
            for k in sorted(x):
                if k == "coeff":
                    sites.append((x, k))
                else:
                    walk(x[k])
        elif isinstance(x, list):
            for i, y in enumerate(x):
                if isinstance(y, str):
                    sites.append((x, i))
                else:
                    walk(y)

    walk({k: v for k, v in obj.items() if k != "basis"})
    return sites


def perturbed_file(slot: str, variant) -> str:
    """A shipped file with one coefficient shifted or one new term added."""
    rng = gen.rng_for("variant", f"{slot}/{variant}")
    obj = json.loads((CORPUS / CLI_SOURCES[slot]).read_text())
    delta = rng.choice(gen.DELTAS)
    if obj["kind"] == "tensor":
        i, j = rng.randrange(obj["dim"]), rng.randrange(obj["dim"])
        obj["entries"].append({"left": i, "right": j, "coeff": _coeff_text(delta)})
    elif slot == "perturbed/ooperator":
        i, j = rng.randrange(obj["dim"]), rng.randrange(obj["dim"])
        obj["matrix"][i][j] = _coeff_text(Fraction(obj["matrix"][i][j]) + delta)
    else:
        section = "products" if slot == "perturbed/affine" else rng.choice(
            ("products", "coproducts"))
        name = rng.choice(sorted(obj[section]))
        n = obj["dim"]
        if section == "products":
            entry = {"left": rng.randrange(n), "right": rng.randrange(n),
                     "result": [{"index": rng.randrange(n), "coeff": _coeff_text(delta)}]}
        else:
            entry = {"input": rng.randrange(n),
                     "result": [{"left": rng.randrange(n), "right": rng.randrange(n),
                                 "coeff": _coeff_text(delta)}]}
        obj[section][name].append(entry)
    return json.dumps(obj, indent=2) + "\n"


def broken_file(slot: str, variant) -> str:
    """A shipped file broken by one rule the format enforces."""
    rng = gen.rng_for("variant", f"{slot}/{variant}")
    obj = json.loads((CORPUS / rng.choice(BROKEN_SOURCES)).read_text())
    if slot == "broken/non-reduced":
        container, key = rng.choice([s for s in _coeff_sites(obj) if s[0][s[1]] != "0"])
        x = Fraction(container[key])
        m = rng.choice((2, 3, 4))
        container[key] = f"{x.numerator * m}/{x.denominator * m}"
    elif slot == "broken/unknown-key":
        entries = [e for es in obj["products"].values() for e in es]
        target = rng.choice([obj] + entries)
        target[rng.choice(("weight", "comment", "Dim"))] = "1"
    else:
        entries = [e for es in obj["products"].values() for e in es]
        entry = rng.choice(entries)
        field_name = rng.choice(("left", "right"))
        entry[field_name] = obj["dim"] + rng.randrange(3)
    return json.dumps(obj, indent=2) + "\n"


def cli_files(seed, goldens: dict) -> dict:
    """Contents of every file written in set-up, keyed by slot, with variants."""
    files = {}
    for slot, _args, group in CLI_SLOTS:
        if group == "shipped":
            continue
        pool = goldens[slot]["variants"]
        v = pick_variant(seed, slot, pool)
        text = perturbed_file(slot, v) if group == "perturbed" else broken_file(slot, v)
        files[slot] = (v, text)
    return files


def work_name(slot: str) -> str:
    args = next(a for s, a, _g in CLI_SLOTS if s == slot)
    return next(a for a in args if a.startswith("work:"))[len("work:"):]


def write_cli_files(files: dict):
    work = cli_work_dir()
    work.mkdir(parents=True, exist_ok=True)
    for slot, (_v, text) in files.items():
        (work / work_name(slot)).write_text(text)


def cli_replacements() -> dict:
    """Machine-specific text in CLI output and its placeholder."""
    return {str(SRC): "<src>", str(cli_work_dir()): "<work>"}


def build_cli(seed, goldens: dict, runner) -> list:
    """Operations of ``cli-corpus``; ``runner(argv)`` -> (exit, stdout, stderr, start-up)."""
    files = cli_files(seed, goldens)
    write_cli_files(files)
    repl = cli_replacements()
    ops = []
    for slot, args, group in CLI_SLOTS:
        argv = resolve_args(args)
        if group == "shipped":
            variant, expected = "clean", goldens[slot]["clean"]
        else:
            variant = files[slot][0]
            expected = goldens[slot]["variants"][variant]
        props = {"argv": argv}
        call = (lambda argv=argv: runner(argv))
        ops.append(Op(slot, str(variant), call,
                      lambda res: outcomes.cli_outcome(*res[:3], repl), expected,
                      group != "shipped", props))
    return ops
