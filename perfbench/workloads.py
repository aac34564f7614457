"""The benchmark workloads: seeded operation plans, execution and oracles.

Every workload is a closed loop with one client.  Its operation list is a
pure function of the seed and of ``--seconds`` (through a fixed rate per
workload), never of measured speed, so two commits do the same work and
grow the catalog to the same size.  Mixes are drawn with exact quotas and
sizes from fixed strata, so different seeds do nearly the same amount of
work.

An operation's contract result is what the ROADMAP promises: exit 0 with
the right payload for good input, exit 2 for malformed input.  Results are
checked against closed forms where the paper gives one and against payloads
recorded from the seed commit (``golden.json``) otherwise.  A wrong answer
or a traceback counts as a failed operation.  Inputs marked ``known_defect``
are the malformed inputs that end in a traceback with exit 1 at the seed
commit (ROADMAP item 4); they fail and are counted, but do not make the run
incorrect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional


@functools.lru_cache(maxsize=1)
def golden() -> dict:
    """Payload digests recorded from the seed commit by ``make_golden.py``."""
    return json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


@dataclass(frozen=True)
class Op:
    """One operation: ``label`` names its kind, ``args`` its input, ``expect`` its oracle."""

    label: str
    args: tuple
    expect: Any = None
    known_defect: bool = False


@dataclass
class Plan:
    ops: list[Op]
    documents: dict[str, str] = field(default_factory=dict)  # file name -> text


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _quota(rng: random.Random, weights: dict[str, float], n: int) -> list[str]:
    """``n`` labels in exact proportion to ``weights`` (largest remainder), shuffled."""
    total = sum(weights.values())
    raw = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: (counts[k] - raw[k], k))[: n - sum(counts.values())]:
        counts[k] += 1
    labels = [k for k in weights for _ in range(counts[k])]
    rng.shuffle(labels)
    return labels


def repeated_share(ops: list[Op]) -> float:
    """Share of operations whose input equals that of an earlier operation."""
    seen, repeats = set(), 0
    for op in ops:
        key = (op.label, op.args)
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops)


# ---------------------------------------------------------------------------
# Payload oracles shared by the CLI-driven workloads
# ---------------------------------------------------------------------------


_MISSING = object()


def _field(payload, path: str):
    for part in path.split("."):
        if not isinstance(payload, dict) or part not in payload:
            return _MISSING
        payload = payload[part]
    return payload


def _gh_cases(payload: dict) -> list:
    return [[c["case"], c["dim"]] for c in payload["cases"]]


def _seven_closed_form(payload: dict) -> dict:
    p = payload["params"]
    diff = p["p_minus"] ** 2 * p["q_plus"] ** 2 - p["p_plus"] ** 2 * p["q_minus"] ** 2
    return {
        "mod4": [p[k] % 4 for k in ("p_minus", "q_minus", "p_plus", "q_plus")],
        "closed_form_torsion": abs(diff) // 8 if diff % 8 == 0 else None,
    }


# label -> extra derived fields the oracle compares, computed from the payload
_DERIVED = {"gh-case": lambda p: {"cases": _gh_cases(p)}, "seven-family": _seven_closed_form}


def check_payload(op: Op, exit_code: int, payload: Optional[dict], text: str) -> bool:
    """Does a CLI result meet ``op.expect`` = {"exit", "fields"?, "sha256"?}?"""
    expect = op.expect
    if exit_code != expect["exit"]:
        return False
    if exit_code == 2:
        return isinstance(payload, dict) and isinstance(payload.get("error"), str)
    if "sha256" in expect and sha256(text) != expect["sha256"]:
        return False
    fields = expect.get("fields", {})
    if fields and op.label in _DERIVED:
        try:
            payload = {**payload, **_DERIVED[op.label](payload)}
        except (KeyError, TypeError):
            return False
    return all(_field(payload, path) == value for path, value in fields.items())


# ---------------------------------------------------------------------------
# Diagram documents
# ---------------------------------------------------------------------------

MISSING_FILE = "no-such-diagram.json"

# kind -> (document, known defect at the seed commit); None means no file
MALFORMED_DOCUMENTS = {
    "missing-file": (None, True),
    "json-array": ("[1, 2]", True),
    "missing-d": ({"family": "brieskorn", "m": 6}, True),
    "bad-json": ('{"family": ', False),
    "unknown-family": ({"family": "klein"}, False),
    "unknown-id": ({"catalog": "no-such-diagram"}, False),
    "brieskorn-m2": ({"family": "brieskorn", "m": 2, "d": 3}, False),
    "seven-not-1-mod-4": ({"family": "seven", "p_minus": 3, "q_minus": 1, "p_plus": 1, "q_plus": 1}, False),
}


def _doc_file(document, documents: dict[str, str]) -> str:
    if document is None:
        return MISSING_FILE
    text = document if isinstance(document, str) else json.dumps(document, sort_keys=True)
    name = sha256(text)[:16] + ".json"
    documents[name] = text
    return name


def _brieskorn_expect(m: int, d: int) -> dict:
    fields = {"ell_minus": 1, "ell_plus": m - 2, "manifold_dim": 2 * m - 1}
    if m % 2 == 0 or d % 2 == 1:  # the rational-sphere gate
        fields["outcome"] = {"kind": "brieskorn", "m": m, "d": d}
    else:
        fields["outcome.kind"] = "not-rational-sphere"
    return fields


def _seven_expect(pm: int, qm: int, pp: int, qp: int) -> dict:
    torsion = abs(pm**2 * qp**2 - pp**2 * qm**2) // 8
    fields = {"ell_minus": 1, "ell_plus": 1, "manifold_dim": 7}
    if torsion == 0:
        fields["outcome.kind"] = "not-rational-sphere"
    else:
        (a, b), (c, e) = sorted(((pm, qm), (pp, qp)))
        fields["outcome"] = {
            "kind": "seven-family", "torsion": torsion,
            "params": {"p_minus": a, "q_minus": b, "p_plus": c, "q_plus": e},
        }
    return fields


_UNKNOWN_PRIMITIVITY = {"lattice_size": 0, "verdict": "unknown", "witness": None}


def _family_document(rng: random.Random, kind: str, small: bool = False,
                     place: Optional[float] = None) -> tuple[dict, dict, dict]:
    """(document, classify fields, primitivity fields) for one well-formed document.

    The size parameter (m of a Brieskorn document, n of a tensor one) sets
    the cost of classifying it; ``place`` in [0, 1), if given, puts it at
    that point of its range instead of drawing it."""

    def size(lo: int, hi: int) -> int:
        return rng.randint(lo, hi) if place is None else lo + int((hi - lo + 1) * place)

    if kind == "shipped":
        diagram_id = rng.choice(sorted(golden()["diagrams"]))
        recorded = golden()["diagrams"][diagram_id]
        return {"catalog": diagram_id}, recorded["classify"], recorded["primitivity"]
    if kind == "brieskorn":
        m, d = (size(3, 12), rng.randint(1, 60)) if small else (size(3, 40), rng.randint(1, 500))
        return {"family": "brieskorn", "m": m, "d": d}, _brieskorn_expect(m, d), _UNKNOWN_PRIMITIVITY
    if kind == "brieskorn-variant":
        variant, m = rng.choice((("spin7", 8), ("g2", 7)))
        d = rng.randint(1, 500)
        doc = {"family": "brieskorn", "m": m, "d": d, "variant": variant}
        return doc, _brieskorn_expect(m, d), _UNKNOWN_PRIMITIVITY
    if kind == "seven":
        pm, qm, pp, qp = (4 * rng.randint(-25, 25) + 1 for _ in range(4))
        doc = {"family": "seven", "p_minus": pm, "q_minus": qm, "p_plus": pp, "q_plus": qp}
        return doc, _seven_expect(pm, qm, pp, qp), _UNKNOWN_PRIMITIVITY
    if kind == "tensor-su":
        n = size(4, 8 if small else 30)
        fields = {"ell_minus": 2 * n - 3, "ell_plus": 2, "manifold_dim": 4 * n - 1,
                  "outcome.kind": "linear-sphere"}
        return {"family": "tensor-su", "n": n}, fields, _UNKNOWN_PRIMITIVITY
    if kind == "tensor-sp":
        n = size(2, 20)
        fields = {"ell_minus": 4 * n - 5, "ell_plus": 4, "manifold_dim": 8 * n - 1,
                  "outcome.kind": "linear-sphere"}
        return {"family": "tensor-sp", "n": n}, fields, _UNKNOWN_PRIMITIVITY
    raise ValueError(kind)


_DOCUMENT_MIX = {"shipped": 0.10, "brieskorn": 0.40, "brieskorn-variant": 0.10,
                 "seven": 0.15, "tensor-su": 0.15, "tensor-sp": 0.10}


def _stratified_documents(rng: random.Random, count: int) -> list:
    """``count`` documents in the exact ``_DOCUMENT_MIX``; the j-th of a kind's c
    documents takes its size from the j-th of c equal strata of the range, so
    every seed's documents cost nearly the same."""
    kinds = _quota(rng, _DOCUMENT_MIX, count)
    totals, seen = Counter(kinds), Counter()
    documents = []
    for kind in kinds:
        documents.append(_family_document(rng, kind, place=(seen[kind] + rng.random()) / totals[kind]))
        seen[kind] += 1
    return documents


def _malformed_cycle(rng: random.Random, kinds: dict) -> list:
    """Every malformed kind once, the known-defect kinds first, each group shuffled.

    Malformed operations take the kinds in this order, so a plan with at
    least as many malformed operations as known-defect kinds sends each of
    them, whatever the seed."""
    groups = [sorted(k for k, (_, known) in kinds.items() if known is flag) for flag in (True, False)]
    for group in groups:
        rng.shuffle(group)
    return groups[0] + groups[1]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name: str
    rate: float  # operations planned per second of --seconds: about the seed commit's ops_per_s
    in_process = True
    passes = 5  # a run is this many passes; the metrics take the median over passes

    def plan(self, seed: int, seconds: float) -> Plan:
        raise NotImplementedError

    def plan_run(self, seed: int, seconds: float) -> Plan:
        """The plan of a run: every pass runs all of it, in a fresh interpreter."""
        return self.plan(seed, seconds / self.passes)

    def size(self, seconds: float) -> int:
        return max(1, round(seconds * self.rate))

    def prepare(self, op: Op, ctx) -> Callable[[], Any]:
        """Untimed input construction; returns the call that is timed."""
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError

    def tolerated(self, op: Op, result) -> bool:
        """A failure that is the known seed defect: a traceback on a known-defect input."""
        code = getattr(result, "exit_code", getattr(result, "returncode", None))
        return op.known_defect and (isinstance(result, Exception) or code == 1)


class VerifyTables(Workload):
    """Repeated in-process ``build_report(default_catalog())``."""

    name = "verify-tables"
    rate = 9.0

    def plan(self, seed: int, seconds: float) -> Plan:
        return Plan([Op("build_report", ()) for _ in range(self.size(seconds))])

    def prepare(self, op: Op, ctx):
        return functools.partial(ctx.verify.build_report, ctx.catalog)

    def check(self, op: Op, result) -> bool:
        from cohomone.cli import render

        return result["summary"]["ok"] is True and sha256(render(result)) == golden()["verify_tables_sha256"]


class ClassifyStream(Workload):
    """In-process ``cli.run(["classify" | "primitivity", "--diagram", path])``."""

    name = "classify-stream"
    rate = 100.0
    hot_set = 24

    def plan(self, seed: int, seconds: float) -> Plan:
        rng = _rng(self.name, seed)
        n = self.size(seconds)
        documents: dict[str, str] = {}
        hot = _stratified_documents(rng, self.hot_set)
        sources = _quota(rng, {"hot": 0.50, "wide": 0.45, "malformed": 0.05}, n)
        hot_picks = iter(_quota(rng, dict.fromkeys(range(self.hot_set), 1), sources.count("hot")))
        wide = iter(_stratified_documents(rng, sources.count("wide")))
        commands = _quota(rng, {"classify": 0.75, "primitivity": 0.25}, n)
        malformed = _malformed_cycle(rng, MALFORMED_DOCUMENTS)
        ops, sent = [], 0  # sent: malformed operations so far
        for source, command in zip(sources, commands):
            if source == "malformed":
                document, known = MALFORMED_DOCUMENTS[malformed[sent % len(malformed)]]
                sent += 1
                ops.append(Op(command, (command, _doc_file(document, documents)), {"exit": 2}, known))
                continue
            document, classify, primitivity = hot[next(hot_picks)] if source == "hot" else next(wide)
            fields = classify if command == "classify" else primitivity
            ops.append(Op(command, (command, _doc_file(document, documents)), {"exit": 0, "fields": fields}))
        return Plan(ops, documents)

    def prepare(self, op: Op, ctx):
        command, name = op.args
        return functools.partial(ctx.cli.run, [command, "--diagram", str(ctx.workdir / name)], ctx.catalog)

    def check(self, op: Op, result) -> bool:
        return check_payload(op, result.exit_code, result.payload, "")


# group term -> (rank, dimension, degrees, Weyl order), from the classical closed forms
def _su(n):
    return n - 1, n * n - 1, tuple(range(3, 2 * n, 2)), math.factorial(n)


def _sp(n):
    return n, n * (2 * n + 1), tuple(range(3, 4 * n, 4)), 2**n * math.factorial(n)


def _so(n):
    if n % 2:
        return _sp((n - 1) // 2)
    k = n // 2
    return k, k * (2 * k - 1), tuple(sorted(tuple(range(3, 4 * k - 4, 4)) + (2 * k - 1,))), \
        2 ** (k - 1) * math.factorial(k)


_EXCEPTIONAL = {
    "G2": (2, 14, (3, 11), 12),
    "F4": (4, 52, (3, 11, 15, 23), 1152),
    "E6": (6, 78, (3, 9, 11, 15, 17, 23), 51840),
    "E7": (7, 133, (3, 11, 15, 19, 23, 27, 35), 2903040),
    "E8": (8, 248, (3, 15, 23, 27, 35, 39, 47, 59), 696729600),
}


def _group_term(rng: random.Random) -> tuple[str, tuple]:
    family = rng.choice(("SU", "Sp", "SO", "exceptional"))
    if family == "SU":
        n = rng.randint(2, 10)
        return f"SU({n})", _su(n)
    if family == "Sp":
        n = rng.randint(1, 6)
        return f"Sp({n})", _sp(n)
    if family == "SO":
        n = rng.randint(3, 16)
        return f"SO({n})", _so(n)
    name = rng.choice(sorted(_EXCEPTIONAL))
    return name, _EXCEPTIONAL[name]


def _degrees_op(rng: random.Random) -> tuple[list, dict]:
    terms = [_group_term(rng) for _ in range(rng.randint(1, 2))]
    fields = {
        "rank": sum(t[1][0] for t in terms),
        "dimension": sum(t[1][1] for t in terms),
        "degrees": sorted(d for t in terms for d in t[1][2]),
        "weyl_order": math.prod(t[1][3] for t in terms),
    }
    return ["degrees", "--group", "x".join(t[0] for t in terms)], fields


def _gh_expect(lm: int, lp: int, h: int) -> list:
    """(case, forced dimension) pairs of the six-case fiber classification."""
    lo, hi = sorted((lm, lp))
    if h == 2:
        return [[1, 7]] if lo == hi == 1 else []
    if h == 1:
        if lo == hi == 1:
            return [[2, 5]]
        return [[3, 2 * hi + 3]] if lo == 1 and hi >= 3 and hi % 2 else []
    total = lm + lp
    out = [[4, total + 1 if lm % 2 == lp % 2 else 2 * total + 1]]
    if lm == lp and lm % 2 == 0:
        out.append([5, lm + 1])
        out += [[6, dim] for ell, dim in ((2, 7), (2, 9), (2, 13), (4, 13), (8, 25)) if ell == lm]
    return out


def _brieskorn_cli_fields(m: int, d: int) -> dict:
    s = -1 if m % 2 else 1
    middle = d if m % 2 == 0 else (0 if d % 2 == 0 else 1)
    homology = [{"degree": 0, "free_rank": 1, "torsion": []}]
    if middle == 0:
        homology += [{"degree": m - 1, "free_rank": 1, "torsion": []},
                     {"degree": m, "free_rank": 1, "torsion": []}]
    elif middle > 1:
        homology.append({"degree": m - 1, "free_rank": 0, "torsion": [middle]})
    homology.append({"degree": 2 * m - 1, "free_rank": 1, "torsion": []})
    return {
        "m": m, "d": d, "delta_at_one": middle,
        "delta_coeffs": [s ** (d - 1 - k) for k in range(d)],
        "homology": homology,
        "rational_sphere": m % 2 == 0 or d % 2 == 1,
    }


# malformed command lines: kind -> (argv, known defect at the seed commit); a classify
# argv names a MALFORMED_DOCUMENTS kind where the document file goes
MALFORMED_COMMANDS = {
    "classify-missing-file": (["classify", "--diagram", MISSING_FILE], True),
    "classify-json-array": (["classify", "--diagram", "json-array"], True),
    "classify-missing-d": (["classify", "--diagram", "missing-d"], True),
    "mv-check-bad-betti": (["mv-check", "--n", "5", "--p-h", "1,a", "--p-k-plus", "1", "--p-k-minus", "1"], True),
    "brieskorn-m2": (["brieskorn", "--m", "2", "--d", "3"], False),
    "degrees-unknown-group": (["degrees", "--group", "Foo(3)"], False),
    "quotient-unknown-id": (["quotient", "--embedding", "no-such-embedding"], False),
    "seven-family-not-1-mod-4": (["seven-family", "--p-minus", "3", "--p-plus", "1"], False),
}


class CliCold(Workload):
    """One ``python -m cohomone.cli`` process per operation."""

    name = "cli-cold"
    rate = 8.5
    in_process = False

    MIX = {"brieskorn": 0.12, "degrees": 0.12, "quotient": 0.11, "hilbert": 0.10, "gh-case": 0.12,
           "classify": 0.11, "primitivity": 0.07, "mv-check": 0.10, "seven-family": 0.08,
           "verify-tables": 0.02, "malformed": 0.05}

    def plan_run(self, seed: int, seconds: float) -> Plan:
        """The plan of a run: each pass runs the next ``1/passes`` of it."""
        return self.plan(seed, seconds)

    def plan(self, seed: int, seconds: float) -> Plan:
        rng = _rng(self.name, seed)
        documents: dict[str, str] = {}
        malformed = _malformed_cycle(rng, MALFORMED_COMMANDS)
        ops, sent = [], 0  # sent: malformed operations so far
        for kind in _quota(rng, self.MIX, self.size(seconds)):
            known = False
            expect: dict = {"exit": 0}
            if kind == "malformed":
                argv, known = MALFORMED_COMMANDS[malformed[sent % len(malformed)]]
                sent += 1
                if argv[0] == "classify" and argv[2] != MISSING_FILE:
                    document = MALFORMED_DOCUMENTS[argv[2]][0]
                    argv = argv[:2] + [_doc_file(document, documents)]
                kind, expect = argv[0], {"exit": 2}
            elif kind == "brieskorn":
                m, d = rng.randint(3, 12), rng.randint(1, 60)
                argv, expect["fields"] = ["brieskorn", "--m", str(m), "--d", str(d)], _brieskorn_cli_fields(m, d)
            elif kind == "degrees":
                argv, expect["fields"] = _degrees_op(rng)
            elif kind in ("quotient", "hilbert"):
                digests = golden()[f"{kind}_sha256"]
                embedding = rng.choice(sorted(digests))
                argv, expect["sha256"] = [kind, "--embedding", embedding], digests[embedding]
            elif kind == "gh-case":
                lm, lp, h = rng.randint(1, 12), rng.randint(1, 12), rng.randint(0, 2)
                argv = ["gh-case", "--l-minus", str(lm), "--l-plus", str(lp), "--h", str(h)]
                expect["fields"] = {"cases": _gh_expect(lm, lp, h)}
            elif kind in ("classify", "primitivity"):
                family = "shipped" if kind == "primitivity" else rng.choice(("shipped", "brieskorn", "tensor-su"))
                document, classify, primitivity = _family_document(rng, family, small=True)
                argv = [kind, "--diagram", _doc_file(document, documents)]
                expect["fields"] = classify if kind == "classify" else primitivity
            elif kind == "mv-check":
                total = 2 * rng.randint(1, 30) + 1  # odd, so the two fibers have opposite parity
                a = rng.randint(1, total - 1)
                argv = ["mv-check", "--n", str(2 * total + 1), "--h-spheres", f"{a},{total - a},{total}",
                        "--k-plus-spheres", f"{a},{total}", "--k-minus-spheres", f"{total - a},{total}"]
                expect["fields"] = {"verdict": "feasible", "failing_degree": None}
            elif kind == "seven-family":
                if rng.random() < 0.5:
                    t = rng.randint(1, 10**6)
                    argv = ["seven-family", "--realize", str(t)]
                    expect["fields"] = {"torsion": t, "rational_sphere": True, "mod4": [1, 1, 1, 1],
                                        "closed_form_torsion": t}
                else:
                    pm, qm, pp, qp = (4 * rng.randint(-25, 25) + 1 for _ in range(4))
                    torsion = abs(pm**2 * qp**2 - pp**2 * qm**2) // 8
                    argv = ["seven-family", "--p-minus", str(pm), "--q-minus", str(qm),
                            "--p-plus", str(pp), "--q-plus", str(qp)]
                    expect["fields"] = {"torsion": torsion, "rational_sphere": torsion != 0,
                                        "closed_form_torsion": torsion}
            else:
                argv, expect["sha256"] = ["verify-tables"], golden()["verify_tables_sha256"]
            ops.append(Op(kind, tuple(argv), expect, known))
        return Plan(ops, documents)

    def prepare(self, op: Op, ctx):
        argv = list(op.args)
        if argv[0] in ("classify", "primitivity"):
            argv[2] = str(ctx.workdir / argv[2])
        return functools.partial(subprocess.run, [sys.executable, "-m", "cohomone.cli", *argv],
                                 cwd=ctx.root, env=ctx.child_env, capture_output=True, text=True,
                                 timeout=60)

    def check(self, op: Op, result) -> bool:
        text = result.stdout if result.returncode != 2 else result.stderr
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return False
        return check_payload(op, result.returncode, payload, text)


WORKLOADS = {w.name: w for w in (VerifyTables(), ClassifyStream(), CliCold())}
