"""Batch front end.

    fqg [--backend exact|float] [--tol T] [--format json|table] [-o FILE]
        [--skip-verify] <command> ...

Commands: build, dual, verify, check-family, aut, relations, compose,
selftest.  Exit codes: 0 all requested checks pass, 1 a check failed,
2 malformed input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import InvalidDataError, verify_star_algebra
from .groups import named_group
from .hopf import verify_quantum_group
from .scalar import set_backend
from .serialize import (canonical_json, dual_pair_to_dict, family_from_dict,
                        family_to_dict, load_json_file, quantum_group_from_dict,
                        quantum_group_to_dict)


_GLOBAL_DEFAULTS = {"backend": "exact", "tol": 1e-9, "fmt": "table",
                    "output": None, "skip_verify": False}


def _common_flags() -> argparse.ArgumentParser:
    # accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS
    common.add_argument("--backend", choices=["exact", "float"], default=sup)
    common.add_argument("--tol", type=float, default=sup,
                        help="comparison tolerance for the float backend")
    common.add_argument("--format", choices=["json", "table"], default=sup,
                        dest="fmt")
    common.add_argument("-o", "--output", default=sup,
                        help="write the JSON payload to this file")
    common.add_argument("--skip-verify", action="store_true", default=sup,
                        help="trust quantum-group data in input files")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="fqg", parents=[common],
        description="Exact verification engine for finite quantum groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="emit a quantum group as JSON")
    p.add_argument("--group", required=True,
                   help="catalog name (S3, Z6, ...) or a group-table JSON file")
    p.add_argument("--kind", choices=["fun", "grp"], default="fun")

    p = sub.add_parser("dual", parents=[common],
                       help="emit the dual quantum group and transform")
    p.add_argument("file")

    p = sub.add_parser("verify", parents=[common],
                       help="run the axiom battery on a quantum group file")
    p.add_argument("file")

    p = sub.add_parser("check-family", parents=[common],
                       help="run the family predicate battery")
    p.add_argument("file")
    p.add_argument("--all", action="store_true",
                   help="also run the duality equivalences and the action equation")

    p = sub.add_parser("aut", parents=[common], help="enumerate group automorphisms")
    p.add_argument("--group", required=True)
    p.add_argument("--emit-family", help="write the universal family to this file")

    p = sub.add_parser("relations", parents=[common],
                       help="relation sweeps on a family file")
    p.add_argument("file")
    p.add_argument("--scheme", choices=["auto", "order", "cyclic", "dual"],
                   required=True)

    p = sub.add_parser("compose", parents=[common],
                       help="compose two families over the same group")
    p.add_argument("first")
    p.add_argument("second")

    sub.add_parser("selftest", parents=[common],
                   help="run the embedded acceptance battery")
    return parser


def _emit(args, payload_json: str, table_text: str) -> None:
    """-o FILE gets the JSON payload and stdout the table; without -o, stdout
    gets the body --format asks for."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload_json)
        sys.stdout.write(table_text + "\n")
    else:
        sys.stdout.write(payload_json if args.fmt == "json" else table_text + "\n")


def _report_exit(reports) -> int:
    return 0 if all(r.passed for r in reports) else 1


def _cmd_build(args) -> int:
    from .constructors import function_algebra, group_algebra
    from .serialize import group_from_dict

    if os.path.exists(args.group):
        group = group_from_dict(load_json_file(args.group))
    else:
        group = named_group(args.group)
    qg = function_algebra(group) if args.kind == "fun" else group_algebra(group)
    payload = canonical_json(quantum_group_to_dict(qg))
    _emit(args, payload, "built %s (dim %d)" % (qg.label, qg.dim))
    return 0


def _cmd_dual(args) -> int:
    from .fourier import dual_pair

    qg = quantum_group_from_dict(load_json_file(args.file),
                                 verify=not args.skip_verify)
    pair = dual_pair(qg)
    payload = canonical_json(dual_pair_to_dict(pair))
    _emit(args, payload, "dual of %s (dim %d)" % (qg.label, qg.dim))
    return 0


def _cmd_verify(args) -> int:
    qg = quantum_group_from_dict(load_json_file(args.file), verify=False)
    reports = [verify_star_algebra(qg.algebra), verify_quantum_group(qg)]
    payload = canonical_json([r.to_dict() for r in reports])
    _emit(args, payload, "\n".join(r.table() for r in reports))
    return _report_exit(reports)


def _cmd_check_family(args) -> int:
    from .qfamily import (check_action, check_convolution_preservation,
                          check_family, is_automorphism_family,
                          verify_dual_equivalences)

    qf = family_from_dict(load_json_file(args.file), verify=not args.skip_verify)
    reports = [check_family(qf), check_convolution_preservation(qf)]
    verdict, rep = is_automorphism_family(qf)
    reports.append(rep)
    if getattr(args, "all", False):
        reports.append(verify_dual_equivalences(qf))
        if qf.hopf_on_target is not None:
            reports.append(check_action(qf))
    payload = canonical_json({"automorphism_family": verdict,
                              "reports": [r.to_dict() for r in reports]})
    _emit(args, payload, "\n".join(r.table() for r in reports))
    return 0 if verdict else 1


def _cmd_aut(args) -> int:
    from .classical import enumerate_automorphisms, universal_classical_family
    from .serialize import family_to_dict as fam_dict

    group = named_group(args.group)
    auts = enumerate_automorphisms(group)
    payload = canonical_json({"group": group.label, "order": len(auts),
                              "automorphisms": [list(a) for a in auts]})
    text = "Aut(%s): order %d" % (group.label, len(auts))
    if args.emit_family:
        fam = universal_classical_family(group)
        with open(args.emit_family, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(fam_dict(fam)))
        text += "\nwrote universal family to %s" % args.emit_family
    _emit(args, payload, text)
    return 0


def _cmd_relations(args) -> int:
    from .classical import (check_cyclic_identity, check_dual_group_theorem,
                            check_dualact_consequences, check_magic_unitary,
                            check_order_properties, check_pointwise_relations,
                            extract_matrix)

    qf = family_from_dict(load_json_file(args.file), verify=not args.skip_verify)
    if args.scheme == "dual":
        reports = [check_dual_group_theorem(qf)]
    else:
        matrix = extract_matrix(qf)
        if args.scheme == "auto":
            reports = [check_pointwise_relations(matrix),
                       check_magic_unitary(matrix),
                       check_dualact_consequences(matrix)]
        elif args.scheme == "order":
            reports = [check_order_properties(matrix)]
        else:
            reports = [check_cyclic_identity(matrix)]
    witnesses = []
    for rep in reports:
        for c in rep.checks:
            if not c.passed:
                witnesses.append({"check": c.name, "witness": list(c.witness)})
    payload = canonical_json({"scheme": args.scheme,
                              "pass": all(r.passed for r in reports),
                              "witnesses": witnesses})
    _emit(args, payload, "\n".join(r.table() for r in reports))
    return _report_exit(reports)


def _cmd_compose(args) -> int:
    from .qfamily import compose

    first = family_from_dict(load_json_file(args.first), verify=not args.skip_verify)
    second = family_from_dict(load_json_file(args.second), verify=not args.skip_verify)
    out = compose(first, second)
    payload = canonical_json(family_to_dict(out))
    _emit(args, payload,
          "composed family over %s (dim %d)" % (out.target_algebra.label,
                                                out.target_algebra.dim))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest, selftest_to_dict

    reports = run_selftest()
    payload = canonical_json(selftest_to_dict(reports))
    lines = []
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        timing = "" if rep.elapsed is None else " (%.2fs)" % rep.elapsed
        lines.append("%-22s %s%s" % (rep.subject, status, timing))
        if not rep.passed:
            for c in rep.checks:
                if not c.passed:
                    lines.append("  %s FAILED witness=%r" % (c.name, tuple(c.witness)))
    overall = all(r.passed for r in reports)
    lines.append("selftest: %s" % ("PASS" if overall else "FAIL"))
    _emit(args, payload, "\n".join(lines))
    return 0 if overall else 1


_COMMANDS = {
    "build": _cmd_build,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
    "check-family": _cmd_check_family,
    "aut": _cmd_aut,
    "relations": _cmd_relations,
    "compose": _cmd_compose,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    set_backend(args.backend, args.tol)
    try:
        return _COMMANDS[args.command](args)
    except InvalidDataError as exc:
        sys.stderr.write("error: [input] %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("error: [io] %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
