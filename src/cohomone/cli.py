"""Command-line front end.

Every subcommand reads scalar flags (and, for diagrams, a JSON document
from a file or stdin) and writes one deterministic JSON payload to
stdout.  Exit codes: 0 success, 1 verification failure, 2 usage error.
Each handler imports the modules it runs, and only the subcommands in
``_READS_CATALOG`` load the catalog, so a process does not pay for the
other subcommands' modules or for a catalog it does not read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import CohomoneError, InvalidParams

if TYPE_CHECKING:
    from .catalog import Catalog
    from .diagram import GroupDiagram
    from .polynomial import IntegerPolynomial

#: which subcommand exercises each public library operation (coverage-tested)
OP_COVERAGE = {
    "canonicalize": "degrees",
    "degrees": "degrees",
    "weyl_order": "degrees",
    "transitive_sphere_pairs": "verify-tables",
    "sphere_quotient": "verify-tables",
    "spheres_acted_on": "verify-tables",
    "quotient_homotopy": "quotient",
    "hilbert_series": "hilbert",
    "euler_characteristic": "hilbert",
    "odd_product_poincare": "mv-check",
    "validate": "classify",
    "gh_classify": "gh-case",
    "primitivity": "primitivity",
    "double_disk_euler": "verify-tables",
    "mv_feasible": "mv-check",
    "delta_poly": "brieskorn",
    "delta_at_one": "brieskorn",
    "homology": "brieskorn",
    "enumerate_corank2": "verify-tables",
    "table3_filter": "verify-tables",
    "seven_family_torsion": "seven-family",
    "realize_torsion": "seven-family",
    "case6_pairs": "verify-tables",
    "classify_diagram": "classify",
}


class CommandResult(NamedTuple):
    exit_code: int
    payload: dict


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 2, diagnostics on stderr
        raise _UsageError(message)


def _integers(values: list[str], flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in values)
    except ValueError as exc:
        raise _UsageError(f"{flag} takes comma-separated integers ({exc})") from None


def _coeffs(text: str, flag: str) -> IntegerPolynomial:
    from .polynomial import IntegerPolynomial

    return IntegerPolynomial(_integers(text.split(","), flag) if text.strip() else (1,))


def _sphere_poly(text: str, flag: str) -> IntegerPolynomial:
    from .polynomial import MAX_SPHERE_DIM
    from .rational_homotopy import odd_product_poincare

    dims = _integers([v for v in text.split(",") if v.strip()], flag)
    if any(d < 1 for d in dims) or sum(dims) > MAX_SPHERE_DIM:
        raise _UsageError(
            f"{flag} takes positive sphere dimensions summing to at most {MAX_SPHERE_DIM}, got {text!r}"
        )
    return odd_product_poincare(dims)


def _load_diagram(spec: str, catalog: Catalog) -> GroupDiagram:
    try:
        raw = sys.stdin.read() if spec == "-" else Path(spec).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read diagram file {spec}: {exc}") from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"diagram document {spec} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise _UsageError(f"diagram document {spec} is not a JSON object")
    return _diagram_from_document(document, catalog)


def _int_key(document: dict, key: str) -> int:
    if key not in document:
        raise _UsageError(f"diagram document has no {key!r} key")
    value = document[key]
    if not isinstance(value, int) or isinstance(value, bool):  # a JSON true is not an integer
        raise _UsageError(f"diagram document key {key!r} must be an integer, got {value!r}")
    return value


def _diagram_from_document(document: dict, catalog: Catalog) -> GroupDiagram:
    if "catalog" in document:
        return catalog.diagram_record(str(document["catalog"])).diagram
    from .classification import (
        SevenFamilyParams, brieskorn_diagram, seven_family_diagram, tensor_sp_diagram, tensor_su_diagram,
    )

    family = document.get("family")
    if family == "brieskorn":
        return brieskorn_diagram(
            _int_key(document, "m"), _int_key(document, "d"), document.get("variant", "standard")
        )
    if family == "seven":
        params = SevenFamilyParams(
            *(_int_key(document, key) for key in ("p_minus", "q_minus", "p_plus", "q_plus"))
        )
        return seven_family_diagram(params)
    if family == "tensor-su":
        return tensor_su_diagram(_int_key(document, "n"))
    if family == "tensor-sp":
        return tensor_sp_diagram(_int_key(document, "n"))
    if family is not None:
        raise _UsageError(f"unknown diagram family {family!r}")
    return catalog.diagram_from_record(document)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cohomone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("brieskorn", help="monodromy polynomial and homology of B^(2m-1)_d")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("degrees", help="rank, dimension, degrees and Weyl order of a group")
    p.add_argument("--group", required=True, help="group expression, e.g. 'SU(3)xSU(2)'")

    p = sub.add_parser("quotient", help="rational homotopy of G/H for a catalogued inclusion")
    p.add_argument("--embedding", required=True, help="catalog embedding id")

    p = sub.add_parser("hilbert", help="equal-rank Poincare series and Euler characteristic")
    p.add_argument("--embedding", required=True, help="catalog embedding id")

    p = sub.add_parser("gh-case", help="compatible homotopy-fiber cases and forced dimensions")
    p.add_argument("--l-minus", type=int, required=True)
    p.add_argument("--l-plus", type=int, required=True)
    p.add_argument("--h", type=int, required=True, help="number of non-orientable singular orbits")
    p.add_argument("--fiber", default=None, help="exceptional fiber tag to select")

    p = sub.add_parser("classify", help="classify a diagram document")
    p.add_argument("--diagram", required=True, help="JSON file path or '-' for stdin")

    p = sub.add_parser("primitivity", help="scan the shipped lattice for non-primitivity witnesses")
    p.add_argument("--diagram", required=True, help="JSON file path or '-' for stdin")
    p.add_argument("--rational-sphere", action="store_true",
                   help="assert the total space is a rational sphere")

    p = sub.add_parser("mv-check", help="Mayer-Vietoris rank feasibility for Betti data")
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--p-h", help="comma-separated Betti numbers of G/H by degree")
    g.add_argument("--h-spheres", help="sphere dimensions whose product models G/H")
    p.add_argument("--p-k-plus", help="Betti numbers of G/K+")
    p.add_argument("--k-plus-spheres", help="sphere dimensions whose product models G/K+")
    p.add_argument("--p-k-minus", help="Betti numbers of G/K-")
    p.add_argument("--k-minus-spheres", help="sphere dimensions whose product models G/K-")

    p = sub.add_parser("seven-family", help="torsion arithmetic of the seven-manifold family")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--realize", type=int, help="build parameters realizing this torsion order")
    g.add_argument("--p-minus", type=int)
    p.add_argument("--q-minus", type=int, default=1)
    p.add_argument("--p-plus", type=int, default=None)
    p.add_argument("--q-plus", type=int, default=1)

    p = sub.add_parser("verify-tables", help="verify every shipped table and closed form")
    p.add_argument("--timings", action="store_true",
                   help="also write each report section's wall time in seconds, as JSON, to stderr")
    return parser


_PARSER = _build_parser()  # parse_args keeps no state between calls


def _cmd_brieskorn(args) -> CommandResult:
    from .brieskorn import BrieskornParams, delta_at_one, delta_poly, homology, rational_sphere_gate

    params = BrieskornParams(args.m, args.d)
    groups = homology(params)
    payload = {
        "m": params.m,
        "d": params.d,
        "delta_coeffs": delta_poly(params).as_list(),
        "delta_at_one": delta_at_one(params),
        "homology": [
            {"degree": e.degree, "free_rank": e.free_rank, "torsion": list(e.torsion)}
            for e in groups.entries
        ],
        "rational_sphere": rational_sphere_gate(params),
    }
    return CommandResult(0, payload)


def _cmd_degrees(args) -> CommandResult:
    from .lie_catalog import degrees, parse_group, weyl_order
    from .polynomial import MAX_SPHERE_DIM

    group = parse_group(args.group)
    if group.dimension > MAX_SPHERE_DIM:  # the degree list and the Weyl order grow with it
        raise InvalidParams(f"--group names a group of dimension {group.dimension}, above {MAX_SPHERE_DIM}")
    order = weyl_order(group)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0, or absent before Python 3.10.7: no limit
    if digits and order >= 10**digits:
        raise InvalidParams(f"--group names a group whose Weyl order has more than {digits} digits, "
                            "more than this interpreter prints")
    payload = {
        "group": str(group),
        "rank": group.rank,
        "dimension": group.dimension,
        "degrees": list(degrees(group)),
        "weyl_order": order,
    }
    return CommandResult(0, payload)


def _cmd_quotient(args, catalog: Catalog) -> CommandResult:
    from .rational_homotopy import quotient_homotopy

    embedding = catalog.embedding(args.embedding)
    qh = quotient_homotopy(embedding)
    payload = {
        "embedding": embedding.id,
        "ambient": str(embedding.ambient),
        "subgroup": str(embedding.subgroup),
        "odd_degrees": list(qh.odd_degrees),
        "even_degrees": list(qh.even_degrees),
        "heuristic": qh.heuristic,
        "dimension": embedding.ambient.dimension - embedding.subgroup.dimension,
    }
    return CommandResult(0, payload)


def _cmd_hilbert(args, catalog: Catalog) -> CommandResult:
    from .rational_homotopy import euler_characteristic, hilbert_series

    embedding = catalog.embedding(args.embedding)
    series = hilbert_series(embedding)
    payload = {
        "embedding": embedding.id,
        "coefficients": series.as_list(),
        "euler_characteristic": euler_characteristic(embedding),
        "dimension": embedding.ambient.dimension - embedding.subgroup.dimension,
    }
    return CommandResult(0, payload)


def _cmd_gh_case(args) -> CommandResult:
    from .diagram import gh_classify

    cases = gh_classify(args.l_minus, args.l_plus, args.h, args.fiber)
    payload = {
        "query": {"l_minus": args.l_minus, "l_plus": args.l_plus, "h": args.h, "fiber": args.fiber},
        "cases": [
            {"case": c.case_index, "fiber": c.fiber_model, "dim": c.forced_dim} for c in cases
        ],
    }
    return CommandResult(0, payload)


def _cmd_classify(args, catalog: Catalog) -> CommandResult:
    from .classification import classify_diagram

    diagram = _load_diagram(args.diagram, catalog)
    outcome = classify_diagram(diagram, catalog)
    payload = {
        "group": str(diagram.g),
        "ell_minus": diagram.ell_minus,
        "ell_plus": diagram.ell_plus,
        "manifold_dim": diagram.manifold_dim,
        "outcome": outcome.as_dict(),
    }
    return CommandResult(0, payload)


def _cmd_primitivity(args, catalog: Catalog) -> CommandResult:
    from .diagram import primitivity

    diagram = _load_diagram(args.diagram, catalog)
    lattice = catalog.lattice_for(diagram.g)
    result = primitivity(diagram, lattice, assert_rational_sphere=args.rational_sphere)
    payload = {
        "group": str(diagram.g),
        "lattice_size": len(lattice),
        "verdict": result.verdict,
        "witness": result.witness,
    }
    return CommandResult(0, payload)


def _cmd_mv_check(args) -> CommandResult:
    from .diagram import mv_feasible

    def pick(coeffs: Optional[str], spheres: Optional[str], name: str) -> IntegerPolynomial:
        coeff_flag, sphere_flag = name.split("/")
        if coeffs is not None:
            return _coeffs(coeffs, coeff_flag)
        if spheres is not None:
            return _sphere_poly(spheres, sphere_flag)
        raise _UsageError(f"missing {name} (give Betti coefficients or sphere dimensions)")

    p_h = pick(args.p_h, args.h_spheres, "--p-h/--h-spheres")
    p_kp = pick(args.p_k_plus, args.k_plus_spheres, "--p-k-plus/--k-plus-spheres")
    p_km = pick(args.p_k_minus, args.k_minus_spheres, "--p-k-minus/--k-minus-spheres")
    result = mv_feasible(p_h, p_kp, p_km, args.n)
    payload = {
        "n": args.n,
        "p_h": p_h.as_list(),
        "p_k_plus": p_kp.as_list(),
        "p_k_minus": p_km.as_list(),
        "verdict": result.verdict,
        "failing_degree": result.failing_degree,
        "rank_profile": [list(row) for row in result.rank_profile],
    }
    return CommandResult(0, payload)


def _cmd_seven_family(args) -> CommandResult:
    from .classification import SevenFamilyParams, realize_torsion, seven_family_torsion

    if args.realize is not None:
        params = realize_torsion(args.realize)
    else:
        if args.p_plus is None:
            raise _UsageError("--p-plus is required with --p-minus")
        params = SevenFamilyParams(args.p_minus, args.q_minus, args.p_plus, args.q_plus)
    torsion = seven_family_torsion(params)
    payload = {
        "params": params._asdict(),
        "torsion": torsion,
        "rational_sphere": torsion != 0,
    }
    return CommandResult(0, payload)


def _cmd_verify_tables(args, catalog: Catalog) -> CommandResult:
    from .verify import build_report

    timings = {} if args.timings else None
    report = build_report(catalog, timings)
    if timings is not None:
        sys.stderr.write(json.dumps({"timings_s": timings}) + "\n")
    return CommandResult(0 if report["summary"]["ok"] else 1, report)


_HANDLERS = {
    "brieskorn": _cmd_brieskorn,
    "degrees": _cmd_degrees,
    "quotient": _cmd_quotient,
    "hilbert": _cmd_hilbert,
    "gh-case": _cmd_gh_case,
    "classify": _cmd_classify,
    "primitivity": _cmd_primitivity,
    "mv-check": _cmd_mv_check,
    "seven-family": _cmd_seven_family,
    "verify-tables": _cmd_verify_tables,
}
#: the subcommands whose handler takes the catalog; the rest never load it
_READS_CATALOG = frozenset({"quotient", "hilbert", "classify", "primitivity", "verify-tables"})


def run(argv: list[str], catalog: Optional[Catalog] = None) -> CommandResult:
    """Dispatch one command line; returns the exit code and JSON payload."""
    try:
        args = _PARSER.parse_args(argv)
        if args.command not in _READS_CATALOG:
            return _HANDLERS[args.command](args)
        if catalog is None:
            from .catalog import default_catalog

            catalog = default_catalog()
        return _HANDLERS[args.command](args, catalog)
    except _UsageError as exc:
        return CommandResult(2, {"error": str(exc)})
    except CohomoneError as exc:
        return CommandResult(2, {"error": f"{type(exc).__name__}: {exc}"})


def render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.exit_code == 2:
        sys.stderr.write(render(result.payload))
    else:
        sys.stdout.write(render(result.payload))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
