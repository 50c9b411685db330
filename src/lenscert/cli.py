"""Command-line front end.

Exit codes: 0 success/accept, 1 reject, 2 error.  Every subcommand takes
--json for a single machine-readable document; identical invocations
produce byte-identical output.  Certificates are written atomically
(temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional

# the checker's modules only: each subcommand imports the producers it
# runs, so that verify loads no producer module
from . import checker
from .presentation import format_presentation, fundamental_group
from .psl import parse_decimal
from .triangulation import orientation_check, parse_triangulation, validate


class CliError(RuntimeError):
    pass


def _read(path: str) -> str:
    # newline="": certificates are read with their line ends as written
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_atomic(path: str, text: str) -> None:
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), prefix=".lenscert-", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None
    finally:
        # a replaced temp file is gone; a failed write leaves none behind
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _decimal(text: str) -> int:
    """An integer argument: a canonical decimal, as every number lenscert reads."""
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_triangulation(path: str):
    return parse_triangulation(_read(path))


def cmd_validate(args) -> int:
    tri = _load_triangulation(args.triangulation)
    report = validate(tri)
    doc = report._asdict()
    lines = [
        f"v={report.v} e={report.e} f={report.f} t={report.t} euler={report.euler}",
        "links=" + ",".join(str(x) for x in report.vertex_link_eulers),
        f"passed={'yes' if report.passed else 'no'}",
    ]
    lines.extend(f"failure: {msg}" for msg in report.failures)
    _emit(doc, args.json, lines)
    return 0 if report.passed else 1


def cmd_orient(args) -> int:
    tri = _load_triangulation(args.triangulation)
    result = orientation_check(tri)
    if result.orientable:
        assert result.assignment is not None
        signs = "".join("+" if s > 0 else "-" for s in result.assignment)
        doc = {"orientable": True, "assignment": signs}
        lines = [f"orientable=yes assignment={signs}"]
    else:
        fp = result.witness
        assert fp is not None
        witness = (
            f"{fp.source[0]}:{fp.source[1]}->{fp.target[0]}:{fp.target[1]} perm={fp.perm}"
        )
        doc = {"orientable": False, "witness": witness}
        lines = [f"orientable=no witness={witness}"]
    _emit(doc, args.json, lines)
    return 0


def cmd_pi1(args) -> int:
    tri = _load_triangulation(args.triangulation)
    pres = fundamental_group(tri)
    block = format_presentation(pres)
    # total symbol length: all generators plus all relator letters
    size = pres.g + sum(len(w) for w in pres.relators)
    doc = {
        "generators": pres.g,
        "relators": len(pres.relators),
        "size": size,
        "presentation": block,
    }
    _emit(doc, args.json, block + [f"size={size}"])
    return 0


def cmd_homology(args) -> int:
    from .intlinalg import abelianization, format_abelian, is_cyclic
    tri = _load_triangulation(args.triangulation)
    group = abelianization(fundamental_group(tri))
    text = format_abelian(group)
    doc = {
        "h1": text,
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "cyclic": is_cyclic(group),
    }
    _emit(doc, args.json, [f"h1={text} cyclic={'yes' if is_cyclic(group) else 'no'}"])
    return 0


def _cert_summary(cert, info: dict) -> tuple[dict, list[str]]:
    from .trianglerep import HYPERBOLIC
    # json.dumps writes the tuples in doc as lists
    doc = {"kind": cert.kind, **info}
    if cert.field is None:
        a, b = doc["target"] = cert.target
        return doc, [f"kind=NonCyclicAbelian target=Z/{a}xZ/{b}"]
    doc.update(p=cert.field.p, field_degree=cert.field.degree)
    line = f"p={cert.field.p} field_deg={cert.field.degree}"
    # the orders of x, y and xy are exactly the triple only on the hyperbolic path
    if info.get("curvature") == HYPERBOLIC:
        doc["orders"] = info["triple"]
        line += " orders=" + ",".join(map(str, info["triple"]))
    return doc, [line + " nonabelian=yes"]


def cmd_trianglecert(args) -> int:
    from . import certificate as certmod
    cert, info = certmod.triangle_certificate(args.n1, args.n2, args.n3)
    out = args.output or f"t_{args.n1}_{args.n2}_{args.n3}.cert"
    _write_atomic(out, checker.serialize(cert))
    doc, lines = _cert_summary(cert, info)
    if cert.field is not None:
        doc["field_size"] = cert.field.p**cert.field.degree
    doc["output"] = out
    _emit(doc, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    cert = checker.parse(_read(args.certificate))
    if args.triangulation is None:
        report = checker.verify(cert)
    else:
        tri = _load_triangulation(args.triangulation)
        report = checker.verify_bound(cert, tri)
    doc = {
        "accepted": report.accepted,
        "kind": report.kind,
        "reason": report.reason,
        "mat_mults": report.relator_mat_mults,
        "total_mat_mults": report.mat_mults,
        "field_ops": report.field_ops,
        "cert_bits": report.cert_bits,
        "matrix_bits": list(report.matrix_bits),
    }
    line = (
        f"accepted={'yes' if report.accepted else 'no'} kind={report.kind} "
        f"mat_mults={report.relator_mat_mults} field_ops={report.field_ops} "
        f"cert_bits={report.cert_bits}"
    )
    lines = [line]
    if report.reason:
        lines.append(f"reason: {report.reason}")
    if args.triangulation is not None:
        # the paper's field budget |F| <= 2^(20t) * 3^(120t), in bits;
        # reported, not gated on, as the paper's constant is not explicit
        budget = round(tri.t * (20 + 120 * math.log2(3)), 1)
        bits = (cert.field.p**cert.field.degree).bit_length() if cert.field else None
        doc.update(t=tri.t, field_bits=bits, field_budget_bits=budget)
        lines.append(f"t={tri.t} field_bits={bits} field_budget_bits={budget}")
    _emit(doc, args.json, lines)
    return 0 if report.accepted else 1


def cmd_pipeline(args) -> int:
    from . import certificate as certmod
    tri = _load_triangulation(args.triangulation)
    if args.base is not None and len(args.base) != 3:
        raise CliError("--base needs exactly three integers")
    surjection_text = _read(args.surjection) if args.surjection else None
    cert, info = certmod.pipeline(tri, args.base, surjection_text)
    out = args.output or "pipeline.cert"
    _write_atomic(out, checker.serialize(cert))
    doc, lines = _cert_summary(cert, info)
    doc.update(output=out, step=info["step"], h1=info["h1"])
    lines.insert(0, f"step={info['step']} h1={info['h1']}")
    _emit(doc, args.json, lines)
    return 0


def cmd_sweep(args) -> int:
    from . import certificate as certmod
    from .trianglerep import bound_report, field_degree_report, hyperbolic_triples
    triples = hyperbolic_triples(args.max_n)
    built = witnesses = failures = 0
    rows = []
    for t in triples:
        row: dict = {
            "triple": list(t.triple),
            "ell": t.ell,
            "gcd": t.d,
        }
        try:
            # raises unless the certificate it builds verifies
            cert = certmod.triangle_certificate(*t.triple)[0]
            built += 1
            row["kind"] = cert.kind
            if cert.kind == checker.NON_ABELIAN:
                bounds = bound_report(t, spec=cert.field)
                row["p"] = cert.field.p
                row["field_deg"] = cert.field.degree
                row["linnik_ratio"] = bounds.linnik_ratio
                row["field_ratio_ell10"] = bounds.field_ratio_ell10
            else:
                row["target"] = list(cert.target)
            scan = field_degree_report(t)
            row["witness_l"] = scan.witness_l
            row["trace_degree"] = scan.trace_degree
            if scan.witness_l is not None:
                witnesses += 1
        except Exception as exc:  # build failure: report, keep sweeping
            failures += 1
            row["error"] = str(exc)
        rows.append(row)
    summary = f"{len(triples)} triples, {built} built, {failures} failures"
    doc = {
        "max_n": args.max_n,
        "triples": len(triples),
        "built": built,
        "embedding_witnesses": witnesses,
        "failures": failures,
        "rows": rows,
        "summary": summary,
    }
    lines = []
    if args.verbose:
        for row in rows:
            triple = ",".join(str(x) for x in row["triple"])
            if "p" in row:
                detail = (
                    f"p={row['p']} deg={row['field_deg']} linnik_ratio={row['linnik_ratio']:.4g} "
                    f"field_ratio_ell10={row['field_ratio_ell10']:.4g}"
                )
            elif "target" in row:
                detail = f"target={row['target']}"
            else:
                detail = f"error={row['error']}"
            lines.append(
                f"({triple}) ell={row['ell']} gcd={row['gcd']} {detail} "
                f"trace_degree={row.get('trace_degree')} witness_l={row.get('witness_l')}"
            )
    lines.append(f"embedding witnesses found: {witnesses}/{len(triples)}")
    coprime = [row for row in rows if "p" in row]
    quadratic = sum(row["field_deg"] == 2 for row in coprime)
    lines.append(f"quadratic extensions needed: {quadratic}/{len(coprime)}")
    for key, name in (("linnik_ratio", "p/ell^5.18"), ("field_ratio_ell10", "|F|/ell^10")):
        top = max(coprime, key=lambda row: row[key], default=None)
        at = f"{top[key]:.4g} at {tuple(top['triple'])}" if top else "none"
        lines.append(f"largest {name}: {at}")
    lines.append(summary)
    _emit(doc, args.json, lines)
    return 0 if failures == 0 else 1


def cmd_degree_report(args) -> int:
    from .galois import euler_phi
    from .trianglerep import classify, field_degree_report
    t = classify(args.n1, args.n2, args.n3)
    scan = field_degree_report(t)
    doc = {**scan._asdict(), "phi_ell": euler_phi(t.ell)}
    lines = [
        f"triple=({t.n1},{t.n2},{t.n3}) ell={t.ell} phi={euler_phi(t.ell)}",
        f"trace_degree={scan.trace_degree} candidates={scan.candidate_degrees}",
        f"witness_l={scan.witness_l} verdict={scan.verdict} "
        f"variant_disagrees={'yes' if scan.variant_disagrees else 'no'}",
    ]
    _emit(doc, args.json, lines)
    return 0


def cmd_norms(args) -> int:
    from .trianglerep import cosine_norm
    rows = []
    lines = []
    max_err = 0.0
    for n in range(3, args.max_n + 1):
        plain = cosine_norm(n, "plain")
        minus = cosine_norm(n, "minus_two")
        err = max(
            abs(_float_norm(n, 0.0) - plain),
            abs(_float_norm(n, 2.0) - minus),
        )
        max_err = max(max_err, err)
        rows.append({"n": n, "plain": plain, "minus_two": minus, "float_err": err})
        if args.verbose:
            lines.append(f"n={n} plain={plain} minus_two={minus} float_err={err:.3g}")
    lines.append(f"checked n=3..{args.max_n}, max float deviation {max_err:.3g}")
    doc = {"max_n": args.max_n, "rows": rows, "max_float_err": max_err}
    _emit(doc, args.json, lines)
    return 0


def _float_norm(n: int, shift: float) -> float:
    out = 1.0
    for l in range(1, 2 * n):
        if math.gcd(l, 2 * n) == 1:
            out *= abs(2 * math.cos(2 * math.pi * l / (2 * n)) - shift)
    return out


def cmd_bounds(args) -> int:
    from .trianglerep import HYPERBOLIC, bound_report, classify, triangle_image
    t = classify(args.n1, args.n2, args.n3)
    image = triangle_image(t) if t.curvature == HYPERBOLIC else None
    spec = image[0].spec if image else None
    # the fields only: the two bounds are there as bit lengths, as the
    # bounds themselves can have billions of bits
    doc = bound_report(t, t=args.tetrahedra, spec=spec)._asdict()
    doc["triple"] = list(doc["triple"])
    lines = [f"{k}={v}" for k, v in doc.items()]
    _emit(doc, args.json, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenscert",
        description="Certificates distinguishing Seifert fiber spaces from lens spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    p = add("validate", cmd_validate, help="closed-3-manifold checks on a triangulation")
    p.add_argument("triangulation")

    p = add("orient", cmd_orient, help="orientability by spanning-tree sign propagation")
    p.add_argument("triangulation")

    p = add("pi1", cmd_pi1, help="fundamental group presentation")
    p.add_argument("triangulation")

    p = add("homology", cmd_homology, help="first homology via Smith normal form")
    p.add_argument("triangulation")

    p = add("trianglecert", cmd_trianglecert, help="certificate for a triangle group")
    p.add_argument("n1", type=_decimal)
    p.add_argument("n2", type=_decimal)
    p.add_argument("n3", type=_decimal)
    p.add_argument("-o", "--output")

    p = add("verify", cmd_verify, help="verify a certificate file")
    p.add_argument("certificate")
    p.add_argument(
        "--triangulation",
        help="also require the certificate to be about this closed 3-manifold's own group",
    )

    p = add("pipeline", cmd_pipeline, help="homology, else --surjection to a triangle group")
    p.add_argument("triangulation")
    p.add_argument(
        "--base",
        type=lambda text: tuple(map(_decimal, text.split(","))),
        help="base orbifold cone orders n1,n2,n3 (cyclic H1)",
    )
    p.add_argument(
        "--surjection", help="file mapping presentation generators to words in x,y (cyclic H1)"
    )
    p.add_argument("-o", "--output")

    p = add("sweep", cmd_sweep, help="build and verify all hyperbolic triples up to a bound")
    p.add_argument("--max-n", type=_decimal, default=19)
    p.add_argument("--verbose", action="store_true", help="one line per triple")

    p = add("degree-report", cmd_degree_report, help="trace-field degree and embedding scan")
    p.add_argument("n1", type=_decimal)
    p.add_argument("n2", type=_decimal)
    p.add_argument("n3", type=_decimal)

    p = add("norms", cmd_norms, help="cosine norm closed forms vs float products")
    p.add_argument("--max-n", type=_decimal, default=200)
    p.add_argument("--verbose", action="store_true")

    p = add("bounds", cmd_bounds, help="certificate-size bound report for a triple")
    p.add_argument("n1", type=_decimal)
    p.add_argument("n2", type=_decimal)
    p.add_argument("n3", type=_decimal)
    p.add_argument("-t", "--tetrahedra", type=_decimal)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout is met here, not at exit
        return code
    except BrokenPipeError as exc:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
