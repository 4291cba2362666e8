"""Command-line interface: verification commands and worked-example replays.

Exit codes: 0 = all checks pass, 1 = a verification check failed,
2 = usage or input-file error, 3 = internal error (an exception escaped a
command).  Reports print to stdout as text (default) or as deterministic
JSON (``--format json``).  Every finite verdict and first violation is read
from a law's integer cells (`algebras.Residuals`); no residual is nested.

`affinization`, `ybe` and `examples` are imported inside the commands and
replays that use them, so ``check``, ``induce`` and ``square`` start faster.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .algebras import (
    Residuals,
    check_axioms,
    dendriform_from_rota_baxter,
    law_residuals,
    rota_baxter_residual,
)
from .bialgebras import (
    check_bialgebra,
    check_bialgebra_square,
    check_coalgebra,
    check_quadratic_perm_identities,
    dendriform_to_prelie_bialgebra,
    induce_asi_bialgebra,
    induce_lie_bialgebra,
)
from .exact import LinMap, sharp
from .functors import (
    check_square,
    commutator_lie,
    dendriform_to_assoc,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_lie,
)
from .io import (
    FileFormatError,
    ParsedFile,
    Report,
    parse_algebra,
    serialize_parsed,
)

YBE_KIND = {"cybe": "lie", "aybe": "assoc", "plybe": "prelie", "dybe": "dendriform"}

_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Report output format.",
)


def _usage_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load(path) -> ParsedFile:
    try:
        return parse_algebra(path)
    except FileFormatError as exc:
        _usage_error(str(exc))


def _finish(report: Report, fmt: str):
    click.echo(report.to_json() if fmt == "json" else report.to_text())
    sys.exit(0 if report.status == "pass" else 1)


def _add_affine(report: Report, check_id: str, rep):
    detail = (
        f"{rep.subject}; window N={rep.window}; {rep.safe_region}; "
        f"{rep.checked} comparisons"
    )
    if rep.failures:
        label, loc, info = rep.failures[0]
        detail += f"; first failure {label} at {loc}: {info}"
    report.add_check(check_id, rep.ok, detail=detail)


def _add_ybe(report: Report, check_id: str, alg, r, detail=None):
    """Add the check that r solves the Yang-Baxter equation of ``alg``'s
    kind, its first violation read from the residual's integer cells."""
    from .ybe import _ybe_cells

    residuals = Residuals()
    residuals.add(check_id, *_ybe_cells(alg, r), (alg.dim,) * 3)
    fv = residuals.violations[check_id]
    report.add_check(check_id, fv is None, first_violation=fv, detail=detail)


def _add_transfer(report: Report, check_id: str, thunk):
    """Run a transfer theorem, folding hypothesis failures into the report."""
    from .ybe import HypothesisError

    try:
        rep = thunk()
    except HypothesisError as exc:
        report.add_check(check_id, False, detail=str(exc))
        return
    report.add_report(rep, prefix=f"{check_id}:")


def _corpus(name: str) -> Path:
    return Path(__file__).parent / "corpus" / name


def _load_corpus(report: Report, name: str) -> ParsedFile:
    path = _corpus(name)
    report.record_file(path)
    return _load(path)


class _Main(click.Group):
    """Command group that keeps exit 1 for verification failures only.

    An exception escaping a command is a fault of the program, not of the
    input, so it exits 3 with a one-line message instead of a traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Abort, click.exceptions.Exit):
            raise
        except Exception as exc:
            message = " ".join(str(exc).split())
            click.echo(f"error: internal error: {type(exc).__name__}: {message}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """Exact verification toolkit for dendriform-type algebras."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_format_option
def check(file, fmt):
    """Verify every law the FILE's contents are subject to."""
    pf = _load(file)
    report = Report(command=["dendrikit", "check", str(file)])
    report.record_file(file)
    if pf.kind == "tensor":
        _usage_error("tensor files carry no laws to check; use ybe/invariance")
    report.add_report(check_axioms(pf.algebra), prefix="axioms:")
    if pf.coalgebra is not None:
        report.add_report(check_coalgebra(pf.coalgebra), prefix="coalgebra:")
        if pf.kind != "perm":
            report.add_report(
                check_bialgebra(pf.algebra, pf.coalgebra), prefix="bialgebra:"
            )
    if pf.qperm is not None:
        report.add_report(
            check_quadratic_perm_identities(pf.qperm), prefix="qperm:"
        )
    _finish(report, fmt)


@main.command()
@click.option("--eq", type=click.Choice(sorted(YBE_KIND)), required=True)
@click.option("--algebra", "algebra_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--r", "r_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@_format_option
def ybe(eq, algebra_file, r_file, fmt):
    """Evaluate a Yang-Baxter residual for an algebra and an r-matrix."""
    pf = _load(algebra_file)
    rf = _load(r_file)
    if pf.kind != YBE_KIND[eq]:
        _usage_error(f"--eq {eq} needs a {YBE_KIND[eq]} algebra, got {pf.kind}")
    if rf.kind != "tensor":
        _usage_error("--r must be a tensor file")
    if rf.tensor.dim_left != pf.algebra.dim:
        _usage_error("r-matrix dimension does not match the algebra")
    report = Report(
        command=["dendrikit", "ybe", "--eq", eq, "--algebra", str(algebra_file),
                 "--r", str(r_file)]
    )
    report.record_file(algebra_file)
    report.record_file(r_file)
    _add_ybe(report, f"{eq}_residual", pf.algebra, rf.tensor,
             detail=f"{pf.kind} Yang-Baxter equation")
    _finish(report, fmt)


@main.command()
@click.option("--algebra", "algebra_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--r", "r_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@_format_option
def invariance(algebra_file, r_file, fmt):
    """Check invariance of a 2-tensor under the algebra's actions."""
    from .ybe import invariance_residual

    pf = _load(algebra_file)
    rf = _load(r_file)
    if rf.kind != "tensor":
        _usage_error("--r must be a tensor file")
    if pf.kind == "tensor":
        _usage_error("--algebra must be an algebra file")
    if rf.tensor.dim_left != pf.algebra.dim:
        _usage_error("tensor dimension does not match the algebra")
    report = Report(
        command=["dendrikit", "invariance", "--algebra", str(algebra_file),
                 "--r", str(r_file)]
    )
    report.record_file(algebra_file)
    report.record_file(r_file)
    try:
        rep = invariance_residual(pf.algebra, rf.tensor)
    except ValueError as exc:
        _usage_error(str(exc))
    report.add_report(rep)
    _finish(report, fmt)


# The constructions of ``induce``: the kind of algebra each needs (with its
# name in a usage error), what it takes besides the algebra ("" nothing,
# "perm" the perm algebra, "qperm" the coproducts and the quadratic perm
# algebra), and its builder.
INDUCTIONS = {
    "prelie": ("dendriform", "a dendriform algebra", "", dendriform_to_prelie),
    "assoc": ("dendriform", "a dendriform algebra", "", dendriform_to_assoc),
    "commutator": ("assoc", "an associative algebra", "", commutator_lie),
    "tensor-lie": ("prelie", "a pre-Lie algebra", "perm", tensor_lie),
    "tensor-assoc": ("dendriform", "a dendriform algebra", "perm", tensor_assoc),
    "lie-bialgebra": ("prelie", "a pre-Lie algebra", "qperm", induce_lie_bialgebra),
    "asi-bialgebra": ("dendriform", "a dendriform algebra", "qperm", induce_asi_bialgebra),
}
CONSTRUCTIONS = tuple(INDUCTIONS)


def _tensor_basis(basis_a, basis_b):
    return tuple(f"{a}*{b}" for a in basis_a for b in basis_b)


@main.command()
@click.option("--construction", type=click.Choice(CONSTRUCTIONS), required=True)
@click.option("--algebra", "algebra_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--perm", "perm_file", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Perm algebra file (tensor constructions; quadratic form "
                   "required for bialgebra constructions).")
def induce(construction, algebra_file, perm_file):
    """Apply a construction and print the resulting structure as JSON.

    The result is validated against its own kind's laws before printing;
    a validation failure exits 1.
    """
    pf = _load(algebra_file)
    kind, an_algebra, takes, build = INDUCTIONS[construction]
    if takes and perm_file is None:
        _usage_error(f"--construction {construction} requires --perm")
    bf = _load(perm_file) if perm_file is not None else None
    if bf is not None and bf.kind != "perm":
        _usage_error("--perm must be a perm algebra file")

    basis = _tensor_basis(pf.basis, bf.basis) if takes else pf.basis
    if takes == "qperm":
        if pf.kind != kind or pf.coalgebra is None:
            _usage_error(f"{construction} needs {an_algebra} with coproducts")
        if bf.qperm is None:
            _usage_error(f"{construction} needs a quadratic form on the perm algebra")
        alg, coalg = build(pf.algebra, pf.coalgebra, bf.qperm)
    else:
        if pf.kind != kind:
            _usage_error(f"{construction} construction needs {an_algebra}")
        alg, coalg = build(pf.algebra, *([bf.algebra] if takes else [])), None

    ok = check_axioms(alg).ok
    if coalg is not None:
        ok = ok and check_coalgebra(coalg).ok and check_bialgebra(alg, coalg).ok
    out = ParsedFile(kind=alg.kind, algebra=alg, coalgebra=coalg, basis=basis)
    click.echo(json.dumps(serialize_parsed(out), indent=2))
    if not ok:
        click.echo("error: induced structure failed validation", err=True)
        sys.exit(1)


@main.command()
@click.option("--r", "r_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--qperm", "qperm_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
def lift(r_file, qperm_file):
    """Lift an r-matrix through a quadratic perm algebra; print the result."""
    from .ybe import lift_r

    rf = _load(r_file)
    bf = _load(qperm_file)
    if rf.kind != "tensor":
        _usage_error("--r must be a tensor file")
    if bf.kind != "perm" or bf.qperm is None:
        _usage_error("--qperm must be a perm algebra file with a quadratic form")
    rhat = lift_r(rf.tensor, bf.qperm)
    out = ParsedFile(
        kind="tensor",
        basis=_tensor_basis(rf.basis, bf.basis),
        tensor=rhat,
    )
    click.echo(json.dumps(serialize_parsed(out), indent=2))


@main.command()
@click.option("--spec", "spec_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@_format_option
def ooperator(spec_file, fmt):
    """Check the operator in FILE against the algebra's dual-space bimodule."""
    from .ybe import check_ooperator, coregular_bimodule

    pf = _load(spec_file)
    if pf.kind == "tensor" or pf.operator is None:
        _usage_error("--spec must be an algebra file with an operator matrix")
    report = Report(command=["dendrikit", "ooperator", "--spec", str(spec_file)])
    report.record_file(spec_file)
    try:
        bim = coregular_bimodule(pf.algebra)
    except ValueError as exc:
        _usage_error(str(exc))
    report.add_report(check_ooperator(bim, pf.operator))
    _finish(report, fmt)


@main.command()
@click.option("--dendriform", "dend_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--qperm", "qperm_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--bialgebra", is_flag=True,
              help="Also check the bialgebra-level commuting square "
                   "(needs coproducts and a quadratic form).")
@_format_option
def square(dend_file, qperm_file, bialgebra, fmt):
    """Check the commuting construction square on D and B."""
    pf = _load(dend_file)
    bf = _load(qperm_file)
    if pf.kind != "dendriform":
        _usage_error("--dendriform must be a dendriform algebra file")
    if bf.kind != "perm":
        _usage_error("--qperm must be a perm algebra file")
    command = ["dendrikit", "square", "--dendriform", str(dend_file),
               "--qperm", str(qperm_file)]
    if bialgebra:
        command.append("--bialgebra")
    report = Report(command=command)
    report.record_file(dend_file)
    report.record_file(qperm_file)
    report.add_report(check_square(pf.algebra, bf.algebra), prefix="algebras:")
    if bialgebra:
        if pf.coalgebra is None:
            _usage_error("--bialgebra needs coproducts on the dendriform file")
        if bf.qperm is None:
            _usage_error("--bialgebra needs a quadratic form on the perm file")
        report.add_report(
            check_bialgebra_square(pf.algebra, pf.coalgebra, bf.qperm),
            prefix="bialgebras:",
        )
    _finish(report, fmt)


@main.command()
@click.option("--dendriform", "dend_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--window", "window_n", type=int, default=2, show_default=True)
@click.option("--check", "which", type=click.Choice(["assoc", "coalg", "asi"]),
              required=True)
@_format_option
def affine(dend_file, window_n, which, fmt):
    """Windowed checks of the Laurent-series affinization of D."""
    from .affinization import (MAX_WINDOW, Window, check_affine_associativity,
                               check_completed_asi, check_completed_coassociativity)

    pf = _load(dend_file)
    if pf.kind != "dendriform":
        _usage_error("--dendriform must be a dendriform algebra file")
    if window_n < 2:
        _usage_error("--window must be at least 2 (depth-2 compositions)")
    if window_n > MAX_WINDOW:
        _usage_error(f"--window {window_n} exceeds the limit {MAX_WINDOW}")
    w = Window(window_n)
    report = Report(
        command=["dendrikit", "affine", "--dendriform", str(dend_file),
                 "--window", str(window_n), "--check", which]
    )
    report.record_file(dend_file)
    if which == "assoc":
        _add_affine(report, "affine_assoc", check_affine_associativity(pf.algebra, w))
    else:
        if pf.coalgebra is None:
            _usage_error(f"--check {which} needs coproducts on the dendriform file")
        if which == "coalg":
            _add_affine(
                report,
                "affine_coassoc",
                check_completed_coassociativity(pf.algebra, pf.coalgebra, w),
            )
        else:
            _add_affine(
                report,
                "affine_asi",
                check_completed_asi(pf.algebra, pf.coalgebra, w),
            )
    _finish(report, fmt)


# --- worked-example replays ---------------------------------------------------


# got − want: a computed matrix or cube against the value a worked example
# displays.
AGREE_LAWS = {
    "matrix": ("ij", ((+1, ("got", "ij")), (-1, ("want", "ij")))),
    "cube": ("kij", ((+1, ("got", "kij")), (-1, ("want", "kij")))),
}


def _disagreement(shape: str, got, want, n: int):
    """The first violation (index path, value) of got − want for two
    `exact.IntTable`s of extent ``n`` on every axis, or None."""
    residuals = law_residuals({shape: AGREE_LAWS[shape]}, {"got": got, "want": want}, n)
    return residuals.violations[shape]


def _add_cubes_agree(report, check_id, got, want):
    """Add the check that the structures ``got`` and ``want`` have the same
    cubes; the first violation's index path starts with the cube's name,
    the names taken in sorted order."""
    fv = None
    for name in sorted(got.tables):
        hit = _disagreement("cube", got.tables[name], want.tables[name], got.dim)
        if hit is not None:
            fv = ((name, *hit[0]), hit[1])
            break
    report.add_check(check_id, fv is None, first_violation=fv)


def _add_matrices_agree(report, check_id, got, want, n: int):
    """Add the check that the n×n matrices of the `exact.IntTable`s ``got``
    and ``want`` are equal."""
    fv = _disagreement("matrix", got, want, n)
    report.add_check(check_id, fv is None, first_violation=fv)


def _reproduce_ex_2_2(report):
    """Splitting an associative product with a Rota-Baxter operator."""
    from . import examples

    pf = _load_corpus(report, "assoc-truncated-rb.json")
    A, R = pf.algebra, pf.operator
    # R(a)R(b) = R(R(a)b + aR(b)), checked on all basis pairs
    fv = rota_baxter_residual(A, R).violations["rota_baxter"]
    report.add_check("rota_baxter_identity", fv is None, first_violation=fv)
    split = dendriform_from_rota_baxter(A, R)
    report.add_report(check_axioms(split), prefix="split_dendriform:")
    _add_cubes_agree(report, "split_matches_expected", split, examples.rota_baxter_dendriform())
    # the bundled 2-dim dendriform algebra is itself a valid dendriform algebra
    pair = _load_corpus(report, "ex-D-alg-iii.json")
    _add_cubes_agree(report, "pair_matches_corpus", pair.algebra, examples.dendriform_pair())
    report.add_report(check_axioms(pair.algebra), prefix="pair:")


def _reproduce_ex_2_13(report):
    """Tensor-product associative and Lie algebras on D⊗B and A⊗B."""
    from . import examples

    D = _load_corpus(report, "ex-D-alg-iii.json").algebra
    B = _load_corpus(report, "perm-quadratic.json").algebra
    P = dendriform_to_prelie(D)
    ta = tensor_assoc(D, B)
    tl = tensor_lie(P, B)
    _add_cubes_agree(report, "assoc_products_match", ta, examples.expected_tensor_assoc())
    _add_cubes_agree(report, "lie_brackets_match", tl, examples.expected_tensor_lie())
    report.add_report(check_axioms(ta), prefix="assoc:")
    report.add_report(check_axioms(tl), prefix="lie:")
    report.add_report(check_square(D, B), prefix="square:")


def _reproduce_ex_3_13(report):
    """Induced Lie bialgebra from a symmetric pre-Lie Yang-Baxter solution."""
    from . import examples
    from .ybe import (blockwise_product, coboundary_coproduct, kappa_tensor, lift_r,
                      transfer_induced_lie_cobracket)

    D = _load_corpus(report, "ex-D-alg-iii.json").algebra
    qp = _load_corpus(report, "perm-quadratic.json").qperm
    r = _load_corpus(report, "r-e1e1.json").tensor
    P = dendriform_to_prelie(D)
    _add_cubes_agree(report, "prelie_products_match", P, examples.prelie_pair())
    theta = coboundary_coproduct(P, r)
    _add_cubes_agree(report, "coboundary_coproduct_match", theta, examples.prelie_pair_coalgebra())
    lie, cobr = induce_lie_bialgebra(P, theta, qp)
    _add_cubes_agree(report, "lie_brackets_match", lie, examples.expected_tensor_lie())
    _add_cubes_agree(report, "lie_cobracket_match", cobr, examples.expected_lie_cobracket())
    report.add_report(check_bialgebra(lie, cobr), prefix="lie_bialgebra:")
    rhat = lift_r(r, qp)
    _add_matrices_agree(report, "lift_match", rhat.table, examples.expected_lift().table, lie.dim)
    _add_ybe(report, "lift_solves_cybe", lie, rhat)
    _add_transfer(
        report,
        "triangular_equals_induced",
        lambda: transfer_induced_lie_cobracket(P, r, qp),
    )
    _add_matrices_agree(
        report, "r_sharp_match", sharp(r).table, examples.expected_r_sharp().table, D.dim
    )
    kappa_sharp = sharp(kappa_tensor(qp))
    _add_matrices_agree(
        report,
        "kappa_sharp_match",
        kappa_sharp.table,
        examples.expected_kappa_sharp().table,
        qp.algebra.dim,
    )
    lift_sharp = sharp(rhat)
    _add_matrices_agree(
        report,
        "lift_sharp_match",
        lift_sharp.table,
        examples.expected_lift_sharp().table,
        lie.dim,
    )
    # blockwise Kronecker identity r̂♯ = r♯⊗κ♯
    kron = LinMap(blockwise_product(sharp(r).table, kappa_sharp.table, r.dim_left,
                                    kappa_sharp.rows))
    _add_matrices_agree(
        report, "lift_sharp_is_blockwise_product", lift_sharp.table, kron.table, lie.dim
    )


def _reproduce_ex_4_2(report):
    from .affinization import Window, check_laurent_perm_axioms

    _add_affine(report, "laurent_perm_axioms", check_laurent_perm_axioms(Window(2)))


def _reproduce_ex_4_5(report):
    from .affinization import Window, check_completed_perm_coalgebra

    _add_affine(
        report, "completed_perm_coalgebra", check_completed_perm_coalgebra(Window(2))
    )


def _reproduce_ex_4_9(report):
    from .affinization import Window, check_graded_form, check_nu_pairing

    w = Window(2)
    _add_affine(report, "graded_form", check_graded_form(w))
    _add_affine(report, "nu_pairing", check_nu_pairing(w))


def _reproduce_ex_4_27(report):
    """Symmetric dendriform Yang-Baxter families and the induced bialgebra."""
    from . import examples
    from .ybe import coboundary_coproduct, transfer_dybe_lift, transfer_induced_asi_coproduct

    D = _load_corpus(report, "ex-D-alg-iii.json").algebra
    qp = _load_corpus(report, "perm-quadratic.json").qperm
    r0 = _load_corpus(report, "r-e1e1.json").tensor
    r11 = _load_corpus(report, "r-beta1-gamma1.json").tensor
    r01 = _load_corpus(report, "r-beta0-gamma1.json").tensor
    for name, r in (("alpha1", r0), ("beta1_gamma1", r11), ("beta0_gamma1", r01)):
        _add_ybe(report, f"dybe_residual_{name}", D, r)
    theta = coboundary_coproduct(D, r0)
    _add_cubes_agree(
        report, "coboundary_coproduct_match", theta,
        examples.dendriform_pair_coalgebra(),
    )
    assoc, delta = induce_asi_bialgebra(D, theta, qp)
    _add_cubes_agree(report, "assoc_products_match", assoc, examples.expected_tensor_assoc())
    _add_cubes_agree(report, "asi_coproduct_match", delta, examples.expected_asi_coproduct())
    report.add_report(check_bialgebra(assoc, delta), prefix="asi_bialgebra:")
    _add_transfer(
        report,
        "coproduct_is_coboundary_of_lift",
        lambda: transfer_induced_asi_coproduct(D, r0, qp),
    )
    _add_transfer(
        report, "lift_skew_solves_aybe", lambda: transfer_dybe_lift(D, r0, qp)
    )


def _reproduce_ex_5_13(report):
    """All six faces of the three-dimensional construction diagram."""
    from .ybe import (lift_r, transfer_assoc_cobound_to_lie, transfer_assoc_ooperator_to_lie,
                      transfer_aybe_to_cybe, transfer_dend_cobound_to_prelie,
                      transfer_dend_ooperator_to_prelie, transfer_dybe_to_plybe)

    D = _load_corpus(report, "ex-D-alg-iii.json").algebra
    theta = _load_corpus(report, "ex-dendind-bialgebra.json").coalgebra
    qp = _load_corpus(report, "perm-quadratic.json").qperm
    r = _load_corpus(report, "r-e1e1.json").tensor
    P = dendriform_to_prelie(D)
    assoc, delta = induce_asi_bialgebra(D, theta, qp)
    rhat = lift_r(r, qp)

    # top face: both bialgebra routes to the Lie bialgebra agree
    report.add_report(check_bialgebra_square(D, theta, qp), prefix="top:")
    # back face: the ASI bialgebra is a bialgebra
    report.add_report(check_bialgebra(assoc, delta), prefix="back:")
    # front face: the induced Lie bialgebra is a bialgebra
    pl_alg, pl_co = dendriform_to_prelie_bialgebra(D, theta)
    lie, cobr = induce_lie_bialgebra(pl_alg, pl_co, qp)
    report.add_report(check_bialgebra(lie, cobr), prefix="front:")
    # left face: Yang-Baxter solutions transfer along both construction edges
    _add_transfer(report, "left:dybe_to_plybe", lambda: transfer_dybe_to_plybe(D, r))
    _add_transfer(
        report, "left:aybe_to_cybe", lambda: transfer_aybe_to_cybe(assoc, rhat)
    )
    # right face: coboundary coproducts transfer along the same edges
    _add_transfer(
        report,
        "right:dend_cobound_to_prelie",
        lambda: transfer_dend_cobound_to_prelie(D, r),
    )
    _add_transfer(
        report,
        "right:assoc_cobound_to_lie",
        lambda: transfer_assoc_cobound_to_lie(assoc, rhat),
    )
    # bottom face: the associated operators transfer to the induced algebras
    _add_transfer(
        report,
        "bottom:dend_ooperator_to_prelie",
        lambda: transfer_dend_ooperator_to_prelie(D, sharp(r)),
    )
    _add_transfer(
        report,
        "bottom:assoc_ooperator_to_lie",
        lambda: transfer_assoc_ooperator_to_lie(assoc, sharp(rhat)),
    )


REPRODUCERS = {
    "ex-2.2": _reproduce_ex_2_2,
    "ex-2.13": _reproduce_ex_2_13,
    "ex-3.13": _reproduce_ex_3_13,
    "ex-4.2": _reproduce_ex_4_2,
    "ex-4.5": _reproduce_ex_4_5,
    "ex-4.9": _reproduce_ex_4_9,
    "ex-4.27": _reproduce_ex_4_27,
    "ex-5.13": _reproduce_ex_5_13,
}


@main.command()
@click.argument("example_id", type=click.Choice(sorted(REPRODUCERS)))
@_format_option
def reproduce(example_id, fmt):
    """Replay a bundled worked example and verify every displayed value."""
    report = Report(command=["dendrikit", "reproduce", example_id])
    REPRODUCERS[example_id](report)
    _finish(report, fmt)
