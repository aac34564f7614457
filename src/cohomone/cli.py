"""Command-line front end.

Every subcommand reads scalar flags (and, for diagrams, a JSON document
from a file or stdin) and writes one deterministic JSON payload to
stdout.  Exit codes: 0 success, 1 verification failure, 2 usage error.
One table, ``_COMMANDS``, gives each subcommand's handler, flags and
whether it reads the catalog; a small parser reads it.
Each handler imports the modules it runs, and only the subcommands that
read the catalog load it.  The per-document path of ``classify`` and
``primitivity`` reads its modules as attributes of the package, which loads
each on first use: an import statement would cost a microsecond per call.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import cohomone

from .errors import CohomoneError, InvalidDiagram, InvalidParams

if TYPE_CHECKING:
    from .catalog import Catalog
    from .diagram import GroupDiagram
    from .polynomial import IntegerPolynomial

MAX_DOCUMENT_BYTES = 1 << 16  # the longest diagram document read, in bytes (characters from stdin)
_PRINTABLE = 1 << 1000  # below 10**640, the fewest digits an interpreter's print limit may be set to


class CommandResult(NamedTuple):
    exit_code: int
    payload: dict


class _UsageError(Exception):
    pass


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
        raise _UsageError(f"{flag} takes positive sphere dimensions summing to at most {MAX_SPHERE_DIM}, got {text!r}")
    return odd_product_poincare(dims)


def _printable(value: int, what: str) -> int:
    """``value``, or InvalidParams if it has more digits than this interpreter prints."""
    if -_PRINTABLE < value < _PRINTABLE:
        return value
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0, or absent before Python 3.10.7: no limit
    if digits and value.bit_length() > 3 * digits and abs(value) >= 10**digits:  # 2^(3k) < 10^k
        raise InvalidParams(f"{what} has more than {digits} digits, more than this interpreter prints")
    return value


def _load_diagram(spec: str, catalog: Catalog) -> GroupDiagram:
    try:
        if spec == "-":
            raw = sys.stdin.read(MAX_DOCUMENT_BYTES + 1)
        else:  # decoded below as text mode reads a file: \r\n and a lone \r end a line
            with open(spec, "rb") as file:
                raw = file.read(MAX_DOCUMENT_BYTES + 1)
        if len(raw) > MAX_DOCUMENT_BYTES:
            raise _UsageError(f"diagram document {spec} is longer than the limit of {MAX_DOCUMENT_BYTES} bytes")
        text = raw if spec == "-" else raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read diagram file {spec}: {exc}") from exc
    try:
        document = cohomone.catalog.parse_json(text)
    except (ValueError, RecursionError) as exc:  # not JSON, a repeated key, an integer too long for int(), deep nesting
        raise InvalidDiagram(f"diagram document {spec} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InvalidDiagram(f"diagram document {spec} is not a JSON object")
    return _diagram_from_document(document, catalog)


_REFERENCE = {"catalog": str}  # the keys of a document naming a shipped diagram


def _diagram_from_document(document: dict, catalog: Catalog) -> GroupDiagram:
    read = cohomone.catalog.read_object
    if "catalog" in document:
        return catalog.diagram_record(*read(document, _REFERENCE, "diagram document")).diagram
    family = document.get("family")
    if family is None:
        return catalog.diagram_from_record(read(document, cohomone.catalog.INLINE_RECORD, "diagram record")[1:])
    families = cohomone.classification.FAMILIES
    entry = families.get(family) if isinstance(family, str) else None  # a JSON array or object is unhashable
    if entry is None:
        raise InvalidDiagram(f"unknown diagram family {family!r} (choose from {', '.join(map(repr, families))})")
    return entry.factory(*read(document, entry.keys, "diagram document")[1:])


def _cmd_brieskorn(args) -> CommandResult:
    from .brieskorn import BrieskornParams, delta_at_one, delta_poly, homology, rational_sphere_gate

    params = BrieskornParams(args.m, args.d)
    _printable(2 * params.m - 1, "the top homology degree 2m-1")
    return CommandResult(0, {
        "m": params.m,
        "d": params.d,
        "delta_coeffs": delta_poly(params).as_list(),
        "delta_at_one": delta_at_one(params),
        "homology": [{"degree": e.degree, "free_rank": e.free_rank, "torsion": list(e.torsion)}
                     for e in homology(params).entries],
        "rational_sphere": rational_sphere_gate(params),
    })


def _cmd_degrees(args) -> CommandResult:
    from .lie_catalog import parse_group
    from .polynomial import MAX_SPHERE_DIM

    group = parse_group(args.group)
    if group.dimension > MAX_SPHERE_DIM:  # the degree list and the Weyl order grow with it
        dimension = _printable(group.dimension, "--group names a group whose dimension")
        raise InvalidParams(f"--group names a group of dimension {dimension}, above {MAX_SPHERE_DIM}")
    return CommandResult(0, {
        "group": str(group),
        "rank": group.rank,
        "dimension": group.dimension,
        "degrees": list(group.degrees),
        "weyl_order": _printable(group.weyl_order, "--group names a group whose Weyl order"),
    })


def _cmd_quotient(args, catalog: Catalog) -> CommandResult:
    from .rational_homotopy import quotient_homotopy

    embedding = catalog.embedding(args.embedding)
    qh = quotient_homotopy(embedding)
    return CommandResult(0, {
        "embedding": embedding.id,
        "ambient": str(embedding.ambient),
        "subgroup": str(embedding.subgroup),
        "odd_degrees": list(qh.odd_degrees),
        "even_degrees": list(qh.even_degrees),
        "heuristic": qh.heuristic,
        "dimension": embedding.ambient.dimension - embedding.subgroup.dimension,
    })


def _cmd_hilbert(args, catalog: Catalog) -> CommandResult:
    from .rational_homotopy import euler_characteristic, hilbert_series

    embedding = catalog.embedding(args.embedding)
    return CommandResult(0, {
        "embedding": embedding.id,
        "coefficients": hilbert_series(embedding).as_list(),
        "euler_characteristic": euler_characteristic(embedding),
        "dimension": embedding.ambient.dimension - embedding.subgroup.dimension,
    })


def _cmd_gh_case(args) -> CommandResult:
    from .diagram import gh_classify

    cases = gh_classify(args.l_minus, args.l_plus, args.h, args.fiber)
    for c in cases:  # a case's forced dimension is its largest number
        _printable(c.forced_dim, "a gh-case forced dimension")
    return CommandResult(0, {
        "query": {"l_minus": args.l_minus, "l_plus": args.l_plus, "h": args.h, "fiber": args.fiber},
        "cases": [{"case": c.case_index, "fiber": c.fiber_model, "dim": c.forced_dim} for c in cases],
    })


def _cmd_classify(args, catalog: Catalog) -> CommandResult:
    diagram = _load_diagram(args.diagram, catalog)
    outcome = cohomone.classification.classify_diagram(diagram, catalog)
    # a winding, slope or family parameter can make either one too long to print
    _printable(outcome.d or 0, "the classify outcome's d")
    _printable(outcome.torsion or 0, "the classify outcome's torsion")
    return CommandResult(0, {
        "group": str(diagram.g),
        "ell_minus": diagram.ell_minus,
        "ell_plus": diagram.ell_plus,
        "manifold_dim": diagram.manifold_dim,
        "outcome": outcome.as_dict(),
    })


def _cmd_primitivity(args, catalog: Catalog) -> CommandResult:
    diagram = _load_diagram(args.diagram, catalog)
    lattice = catalog.lattice_for(diagram.g)
    result = cohomone.diagram.primitivity(diagram, lattice, assert_rational_sphere=args.rational_sphere)
    return CommandResult(0, {
        "group": str(diagram.g),
        "lattice_size": len(lattice),
        "verdict": result.verdict,
        "witness": result.witness,
    })


def _cmd_mv_check(args) -> CommandResult:
    from .diagram import mv_feasible

    # the parser lets through exactly one flag of each pair
    p_h = _coeffs(args.p_h, "--p-h") if args.p_h is not None else _sphere_poly(args.h_spheres, "--h-spheres")
    p_kp = _coeffs(args.p_k_plus, "--p-k-plus") if args.p_k_plus is not None else \
        _sphere_poly(args.k_plus_spheres, "--k-plus-spheres")
    p_km = _coeffs(args.p_k_minus, "--p-k-minus") if args.p_k_minus is not None else \
        _sphere_poly(args.k_minus_spheres, "--k-minus-spheres")
    result = mv_feasible(p_h, p_kp, p_km, args.n)
    _printable(max(max(map(abs, row)) for row in result.rank_profile), "a Mayer-Vietoris rank")
    return CommandResult(0, {
        "n": args.n,
        "p_h": p_h.as_list(),
        "p_k_plus": p_kp.as_list(),
        "p_k_minus": p_km.as_list(),
        "verdict": result.verdict,
        "failing_degree": result.failing_degree,
        "rank_profile": [list(row) for row in result.rank_profile],
    })


def _cmd_seven_family(args) -> CommandResult:
    from .classification import SevenFamilyParams, realize_torsion, seven_family_torsion

    params = realize_torsion(args.realize) if args.realize is not None else \
        SevenFamilyParams(args.p_minus, args.q_minus, args.p_plus, args.q_plus)
    torsion = _printable(seven_family_torsion(params), "the seven-family torsion")
    _printable(max(map(abs, params)), "a seven-family parameter")  # --realize t gives 2t+1
    return CommandResult(0, {
        "params": params._asdict(),
        "torsion": torsion,
        "rational_sphere": torsion != 0,
    })


def _cmd_verify_tables(args, catalog: Catalog) -> CommandResult:
    from .verify import build_report

    timings = {} if args.timings else None
    report = build_report(catalog, timings)
    if timings is not None:
        sys.stderr.write(json.dumps({"timings_s": timings}) + "\n")
    return CommandResult(0 if report["summary"]["ok"] else 1, report)


class _Flag(NamedTuple):
    kind: type  # int, str, or bool for a switch
    help: str
    required: bool = False  # in a group: one flag of the group is required
    default: object = None
    group: Optional[str] = None  # the flags of one group exclude one another
    needs: Optional[str] = None  # a flag given only with this one; if required, required with it


class _Command(NamedTuple):
    handler: Callable[..., CommandResult]
    help: str
    flags: dict[str, _Flag]
    reads_catalog: bool  # only these handlers take the catalog; the others never load it


_DIAGRAM = _Flag(str, "JSON file path or '-' for stdin", True)
_EMBEDDING = _Flag(str, "catalog embedding id", True)

_COMMANDS = {
    "brieskorn": _Command(_cmd_brieskorn, "monodromy polynomial and homology of B^(2m-1)_d", {
        "--m": _Flag(int, "the link B^(2m-1)_d has dimension 2m-1", True),
        "--d": _Flag(int, "the exponent of z_0 in z_0^d + z_1^2 + ... + z_m^2", True),
    }, False),
    "degrees": _Command(_cmd_degrees, "rank, dimension, degrees and Weyl order of a group",
                        {"--group": _Flag(str, "group expression, e.g. 'SU(3)xSU(2)'", True)}, False),
    "quotient": _Command(_cmd_quotient, "rational homotopy of G/H for a catalogued inclusion",
                         {"--embedding": _EMBEDDING}, True),
    "hilbert": _Command(_cmd_hilbert, "equal-rank Poincare series and Euler characteristic",
                        {"--embedding": _EMBEDDING}, True),
    "gh-case": _Command(_cmd_gh_case, "compatible homotopy-fiber cases and forced dimensions", {
        "--l-minus": _Flag(int, "the sphere dimension of K-/H", True),
        "--l-plus": _Flag(int, "the sphere dimension of K+/H", True),
        "--h": _Flag(int, "number of non-orientable singular orbits", True),
        "--fiber": _Flag(str, "exceptional fiber tag to select"),
    }, False),
    "classify": _Command(_cmd_classify, "classify a diagram document", {"--diagram": _DIAGRAM}, True),
    "primitivity": _Command(_cmd_primitivity, "scan the shipped lattice for non-primitivity witnesses", {
        "--diagram": _DIAGRAM,
        "--rational-sphere": _Flag(bool, "assert the total space is a rational sphere", default=False),
    }, True),
    "mv-check": _Command(_cmd_mv_check, "Mayer-Vietoris rank feasibility for Betti data", {
        "--n": _Flag(int, "the dimension of the rational sphere", True),
        "--p-h": _Flag(str, "comma-separated Betti numbers of G/H by degree", True, group="p-h"),
        "--h-spheres": _Flag(str, "sphere dimensions whose product models G/H", True, group="p-h"),
        "--p-k-plus": _Flag(str, "Betti numbers of G/K+", True, group="p-k-plus"),
        "--k-plus-spheres": _Flag(str, "sphere dimensions whose product models G/K+", True, group="p-k-plus"),
        "--p-k-minus": _Flag(str, "Betti numbers of G/K-", True, group="p-k-minus"),
        "--k-minus-spheres": _Flag(str, "sphere dimensions whose product models G/K-", True, group="p-k-minus"),
    }, False),
    "seven-family": _Command(_cmd_seven_family, "torsion arithmetic of the seven-manifold family", {
        "--realize": _Flag(int, "build parameters realizing this torsion order", True, group="params"),
        "--p-minus": _Flag(int, "p- of the slope (p-, q-), 1 mod 4; needs --p-plus", True, group="params"),
        "--q-minus": _Flag(int, "q- of the slope (p-, q-), 1 mod 4", default=1, needs="--p-minus"),
        "--p-plus": _Flag(int, "p+ of the slope (p+, q+), 1 mod 4", True, needs="--p-minus"),
        "--q-plus": _Flag(int, "q+ of the slope (p+, q+), 1 mod 4", default=1, needs="--p-minus"),
    }, False),
    "verify-tables": _Command(_cmd_verify_tables, "verify every shipped table and closed form", {
        "--timings": _Flag(bool, "also write each report section's seconds, as JSON, to stderr", default=False),
    }, True),
}


def _parse(argv: list[str]) -> tuple[Optional[str], Optional[SimpleNamespace]]:
    """The subcommand of a command line and its flag values; no values means help was asked for."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, None
    if not argv:
        raise _UsageError("the following arguments are required: command")
    if argv[0] not in _COMMANDS:
        raise _UsageError(f"argument command: invalid choice: {argv[0]!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    flags, values, tokens = _COMMANDS[argv[0]].flags, {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return argv[0], None
        name, eq, value = token.partition("=") if token[:2] == "--" else (token, "", "")
        flag = flags.get(name)  # an exact name: no prefix abbreviations
        if flag is None:
            raise _UsageError(f"unrecognized arguments: {token}")
        if name in values:
            raise _UsageError(f"argument {name}: given more than once")
        if flag.kind is bool:
            if eq:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif not eq:
            value = next(tokens, "--")  # as with argparse, '-' (stdin) and negative integers are values
            if value[:1] == "-" and value != "-" and not value[1:].isdigit():
                raise _UsageError(f"argument {name}: expected one argument")
        if flag.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument {name}: invalid int value: {value!r}") from None
        values[name] = value
    chosen: dict[str, str] = {}  # an exclusive group, or a flag outside any -> the flag given for it
    for name in values:
        key = flags[name].group or name
        if chosen.setdefault(key, name) != name:
            raise _UsageError(f"argument {name}: not allowed with argument {chosen[key]}")
    for name in values:
        needs = flags[name].needs
        if needs and needs not in values:
            other = chosen.get(flags[needs].group or needs)  # the flag given in place of the needed one
            raise _UsageError(f"argument {name}: not allowed with argument {other}" if other
                              else f"argument {name}: needs {needs}")
    missing = [name for name, flag in flags.items() if flag.required and (flag.group or name) not in chosen
               and (flag.needs is None or flag.needs in values)]
    if missing:  # like argparse, name the missing flags outside any group, else those of the first missing group
        plain = [name for name in missing if not flags[name].group]
        first = [name for name in missing if flags[name].group == flags[missing[0]].group]
        raise _UsageError(f"the following arguments are required: {', '.join(plain)}" if plain
                          else f"one of the arguments {' '.join(first)} is required")
    return argv[0], SimpleNamespace(**{name[2:].replace("-", "_"): values.get(name, flag.default)
                                       for name, flag in flags.items()})


def _usage(command: Optional[str]) -> dict:
    """The help payload, built from the table: the subcommands, or one subcommand's flags."""
    if command is None:
        return {"usage": "cohomone COMMAND [FLAGS]; cohomone COMMAND --help lists its flags",
                "commands": {name: entry.help for name, entry in _COMMANDS.items()}}
    flags, words = _COMMANDS[command].flags, {}  # words: an exclusive group, or a flag outside any -> usage
    for name, flag in flags.items():
        word = name if flag.kind is bool else f"{name} {flag.kind.__name__.upper()}"
        word = word if flag.required else f"[{word}]"
        if flag.needs:  # written after the flag it needs, which the table lists last of its group so far
            words[flags[flag.needs].group or flag.needs][-1] += f" {word}"
        else:
            words.setdefault(flag.group or name, []).append(word)
    usage = " ".join(" | ".join(w).join("()") if len(w) > 1 else w[0] for w in words.values())
    return {"usage": f"cohomone {command} {usage}", "help": _COMMANDS[command].help, "flags": {
        name: flag.help + ("" if flag.default in (None, False) else f" (default {flag.default})")
        for name, flag in flags.items()}}


def run(argv: list[str], catalog: Optional[Catalog] = None) -> CommandResult:
    """Dispatch one command line; returns the exit code and JSON payload."""
    try:
        command, args = _parse(argv)
        if args is None:
            return CommandResult(0, _usage(command))
        entry = _COMMANDS[command]
        if not entry.reads_catalog:
            return entry.handler(args)
        if catalog is None:
            from .catalog import default_catalog

            catalog = default_catalog()
        return entry.handler(args, catalog)
    except _UsageError as exc:
        return CommandResult(2, {"error": str(exc)})
    except CohomoneError as exc:
        return CommandResult(2, {"error": f"{type(exc).__name__}: {exc}"})


def render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    (sys.stderr if result.exit_code == 2 else sys.stdout).write(render(result.payload))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
