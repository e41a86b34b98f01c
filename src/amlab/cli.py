"""Command-line front end: one subcommand per operation, machine-readable output.

Exit codes: 0 when the requested check passes (or the artifact was built),
1 when inputs parsed but the verdict is negative, 2 for malformed inputs or
parameters, 3 when a presentation or map fails invariant validation.

The scalar mode defaults to the AMLAB_MODE environment variable, read on
each call of main, then to exact rationals.  The argument parser is built
once per process.
"""

import argparse
import functools
import os
import sys

from . import serialize
from .algebra import AlgebraError, center as algebra_center
from .catalog import matrix_algebra
from .derivations import (central_jordan_decompose, classify_maps,
                          jordan_decompose, lie_decompose, quotient_bimodule,
                          regular_bimodule)
from .diagonals import (defect_report, defects, direct_sum_diagonal,
                        group_diagonal, ideal_diagonal, matrix_diagonal,
                        pushforward_diagonal, tail_mass,
                        truncated_matrix_diagonal)
from .scalars import DEFAULT_FLOAT_TOL, FLOAT, RATIONAL, SchemaError, check_mode, check_tol
from .witness import trace_feasibility, witness_from_diagonal

MODE_ENV = "AMLAB_MODE"


def _add_global_options(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--mode", choices=[RATIONAL, FLOAT], default=d,
                        help="scalar arithmetic (default: env AMLAB_MODE or rational)")
    parser.add_argument("--tol", type=float,
                        default=d if suppress else DEFAULT_FLOAT_TOL,
                        help="tolerance for float mode (ignored in rational mode)")
    parser.add_argument("--out", default=d,
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], default=d,
                        help="output format where both are supported")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="amlab",
        description="Construct and verify symmetric approximate diagonals for "
                    "finite-dimensional weighted-l1 algebras, and run the "
                    "associated derivation decompositions.")
    _add_global_options(parser)
    # the same options are accepted after the subcommand without clobbering
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-diagonal", parents=[common],
                       help="evaluate the four defects of a net")
    p.add_argument("algebra")
    p.add_argument("net")
    p.add_argument("--require-symmetric", action="store_true")
    p.set_defaults(func=cmd_check_diagonal)

    p = sub.add_parser("build-diagonal", help="construct a diagonal tensor")
    kinds = p.add_subparsers(dest="kind", required=True)

    k = kinds.add_parser("matrix", parents=[common])
    k.add_argument("n", type=int)
    k.add_argument("--algebra-out")
    k = kinds.add_parser("truncated", parents=[common])
    k.add_argument("n", type=int)
    k.add_argument("ambient", type=int)
    k.add_argument("--algebra-out")
    k = kinds.add_parser("group", parents=[common])
    k.add_argument("group_file")
    k.add_argument("--algebra-out")
    k = kinds.add_parser("direct-sum", parents=[common])
    k.add_argument("files", nargs="+",
                   help="alternating algebra and tensor files, one pair per block")
    k.add_argument("--algebra-out")
    k = kinds.add_parser("pushforward", parents=[common])
    k.add_argument("domain_algebra")
    k.add_argument("codomain_algebra")
    k.add_argument("map")
    k.add_argument("tensor")
    k = kinds.add_parser("ideal", parents=[common])
    k.add_argument("algebra")
    k.add_argument("tensor")
    k.add_argument("element")
    p.set_defaults(func=cmd_build_diagonal)

    p = sub.add_parser("convergence-table", parents=[common],
                       help="defects and tail bounds of truncated matrix diagonals")
    p.add_argument("ambient", type=int)
    p.add_argument("test_file")
    p.set_defaults(func=cmd_convergence_table)

    p = sub.add_parser("witness", parents=[common],
                       help="decide trace feasibility at an element")
    p.add_argument("algebra")
    p.add_argument("z")
    p.add_argument("--diagonal", help="tensor file: also build the witness functional")
    p.add_argument("--seed-functional", help="functional file used to seed the witness")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("decompose-jordan", parents=[common],
                       help="split a Jordan derivation")
    p.add_argument("algebra")
    p.add_argument("bimodule", help="bimodule file, or 'regular'")
    p.add_argument("map")
    p.add_argument("tensor")
    p.add_argument("--central", action="store_true",
                   help="use the central Jordan route")
    p.add_argument("--out-omega")
    p.set_defaults(func=cmd_decompose_jordan)

    p = sub.add_parser("decompose-lie", parents=[common],
                       help="split a Lie derivation")
    p.add_argument("algebra")
    p.add_argument("bimodule")
    p.add_argument("map")
    p.add_argument("tensor")
    p.add_argument("--out-inner")
    p.add_argument("--out-trace")
    p.set_defaults(func=cmd_decompose_lie)

    p = sub.add_parser("classify", parents=[common],
                       help="basis of derivation-type maps")
    p.add_argument("kind", choices=["derivation", "jordan", "lie", "central_trace"])
    p.add_argument("algebra")
    p.add_argument("bimodule")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("center", parents=[common],
                       help="basis of the center of an algebra")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("quotient", parents=[common],
                       help="quotient a bimodule by an invariant subspace")
    p.add_argument("algebra")
    p.add_argument("bimodule")
    p.add_argument("subspace", help="element-list file spanning the subspace")
    p.set_defaults(func=cmd_quotient)

    return parser


def _load_algebra(args, path):
    """The algebra in path; each warning of its certificates goes to stderr."""
    name = os.path.splitext(os.path.basename(path))[0]
    algebra = serialize.algebra_from_dict(serialize.load_json(path), args.mode,
                                          args.tol, name=name)
    for warning in algebra.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return algebra


def _load_bimodule(args, algebra, path):
    if path == "regular":
        return regular_bimodule(algebra)
    return serialize.bimodule_from_dict(serialize.load_json(path), algebra)


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(args, obj):
    _emit(args, serialize.dump_json(obj))


def cmd_check_diagonal(args):
    algebra = _load_algebra(args, args.algebra)
    net = serialize.net_from_dict(serialize.load_json(args.net), algebra)
    report = defect_report(net, require_symmetric=args.require_symmetric)
    if args.format == "csv":
        _emit(args, serialize.defect_report_csv(report))
    else:
        _emit_json(args, serialize.defect_report_to_dict(report))
    return 0 if report.verdict else 1


def cmd_build_diagonal(args):
    algebra_out = getattr(args, "algebra_out", None)
    if args.kind == "matrix":
        t = matrix_diagonal(args.n, mode=args.mode)
    elif args.kind == "truncated":
        t = truncated_matrix_diagonal(args.n, args.ambient, mode=args.mode)
    elif args.kind == "group":
        table, labels = serialize.group_from_dict(serialize.load_json(args.group_file))
        t = group_diagonal(table, labels, mode=args.mode)
    elif args.kind == "direct-sum":
        if len(args.files) % 2:
            raise SchemaError("direct-sum needs algebra/tensor file pairs")
        components = []
        for k in range(0, len(args.files), 2):
            block = _load_algebra(args, args.files[k])
            tensor = serialize.tensor_from_dict(
                serialize.load_json(args.files[k + 1]), block)
            components.append((block, tensor))
        t = direct_sum_diagonal(components)
    elif args.kind == "pushforward":
        dom = _load_algebra(args, args.domain_algebra)
        cod = _load_algebra(args, args.codomain_algebra)
        theta = serialize.linear_map_from_dict(
            serialize.load_json(args.map), dom, cod)
        base = serialize.tensor_from_dict(serialize.load_json(args.tensor), dom)
        t = pushforward_diagonal(theta, base)
    else:  # ideal
        algebra = _load_algebra(args, args.algebra)
        base = serialize.tensor_from_dict(serialize.load_json(args.tensor), algebra)
        e = serialize.element_from_dict(serialize.load_json(args.element), algebra)
        t = ideal_diagonal(base, e)
    payload = serialize.tensor_to_dict(t)
    payload["symmetric"] = t.is_symmetric()
    payload["proj_norm"] = serialize.scalars.to_json(t.proj_norm())
    if algebra_out:
        serialize.dump_json(serialize.algebra_to_dict(t.space), algebra_out)
    _emit_json(args, payload)
    return 0


def cmd_convergence_table(args):
    ambient = args.ambient
    if ambient < 1:
        raise SchemaError("ambient dimension must be >= 1")
    algebra = matrix_algebra(ambient, mode=args.mode, tol=args.tol)
    elements, labels = serialize.element_list_from_dict(
        serialize.load_json(args.test_file), algebra)
    rows = []
    ok = True
    for n in range(1, ambient + 1):
        t = truncated_matrix_diagonal(n, ambient, algebra=algebra)
        for a, lab in zip(elements, labels):
            d1, d2, d3, d4 = defects(t, a)
            bound = tail_mass(a, n)
            ok = ok and max(d1, d2, d3, d4) <= bound
            rows.append({"n": n, "element": lab, "d1": d1, "d2": d2,
                         "d3": d3, "d4": d4, "tail_bound": bound})
    if args.format == "json":
        _emit_json(args, [{k: (serialize.scalars.to_json(v) if k not in ("n", "element") else v)
                           for k, v in row.items()} for row in rows])
    else:
        _emit(args, serialize.convergence_rows_csv(rows))
    return 0 if ok else 1


def cmd_witness(args):
    algebra = _load_algebra(args, args.algebra)
    z = serialize.element_from_dict(serialize.load_json(args.z), algebra)
    result = trace_feasibility(algebra, z)
    payload = serialize.feasibility_to_dict(result)
    if args.diagonal and args.seed_functional:
        t = serialize.tensor_from_dict(serialize.load_json(args.diagonal), algebra)
        g = serialize.functional_from_dict(
            serialize.load_json(args.seed_functional), algebra)
        payload["witness_from_diagonal"] = serialize.witness_report_to_dict(
            witness_from_diagonal(t, z, g))
    _emit_json(args, payload)
    return 0 if result.feasible else 1


def cmd_decompose_jordan(args):
    algebra = _load_algebra(args, args.algebra)
    X = _load_bimodule(args, algebra, args.bimodule)
    D = serialize.linear_map_from_dict(serialize.load_json(args.map), algebra, X)
    t = serialize.tensor_from_dict(serialize.load_json(args.tensor), algebra)
    if args.central:
        rep = central_jordan_decompose(D, t)
        _emit_json(args, serialize.central_jordan_report_to_dict(rep))
    else:
        rep = jordan_decompose(D, t)
        if args.out_omega:
            serialize.dump_json(serialize.element_to_dict(rep.omega), args.out_omega)
        _emit_json(args, serialize.jordan_report_to_dict(rep))
    return 0 if rep.ok else 1


def cmd_decompose_lie(args):
    algebra = _load_algebra(args, args.algebra)
    X = _load_bimodule(args, algebra, args.bimodule)
    D = serialize.linear_map_from_dict(serialize.load_json(args.map), algebra, X)
    t = serialize.tensor_from_dict(serialize.load_json(args.tensor), algebra)
    rep = lie_decompose(D, t)
    if args.out_inner:
        serialize.dump_json(serialize.linear_map_to_dict(rep.inner), args.out_inner)
    if args.out_trace:
        serialize.dump_json(serialize.linear_map_to_dict(rep.central_trace),
                            args.out_trace)
    _emit_json(args, serialize.lie_report_to_dict(rep))
    return 0 if rep.ok else 1


def cmd_classify(args):
    algebra = _load_algebra(args, args.algebra)
    X = _load_bimodule(args, algebra, args.bimodule)
    basis = classify_maps(algebra, X, args.kind)
    _emit_json(args, {
        "kind": args.kind,
        "dimension": len(basis),
        "basis": [serialize.linear_map_to_dict(m)["matrix"] for m in basis],
    })
    return 0


def cmd_center(args):
    algebra = _load_algebra(args, args.algebra)
    basis = algebra_center(algebra)
    _emit_json(args, serialize.element_list_to_dict(
        basis, labels=[f"z{k}" for k in range(len(basis))], space=algebra))
    return 0


def cmd_quotient(args):
    algebra = _load_algebra(args, args.algebra)
    X = _load_bimodule(args, algebra, args.bimodule)
    vectors, _labels = serialize.element_list_from_dict(
        serialize.load_json(args.subspace), X)
    W, qmap = quotient_bimodule(X, vectors)
    _emit_json(args, {"bimodule": serialize.bimodule_to_dict(W),
                      "map": serialize.linear_map_to_dict(qmap)})
    return 0


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.mode is None:
        args.mode = os.environ.get(MODE_ENV, RATIONAL)
    try:
        check_mode(args.mode)
        check_tol(args.tol)
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
