"""cohomone benchmark: one closed-loop client, one workload per invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-tables, classify-stream and cli-cold (see ``workloads.py``;
tracing is in ``tracing.py``).  The seed fixes the inputs.  ``--seconds``
fixes how much work is planned, through a rate per workload sized so that
the seed commit spends about that long in operations on a 2-core machine; a
faster commit does the same work in less time.  A run is 5 passes: in-process
workloads run a plan of ``seconds / 5`` in each pass, in a fresh interpreter;
cli-cold splits one plan of ``seconds`` over the passes.  Each timing metric is
the median over passes of that pass's value, so one slow phase of a shared
machine moves few of them.  The program is imported from ``src/``; CLI
children run as ``python -m cohomone.cli`` with ``PYTHONPATH=src``, one at a
time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced and one with every traced function wrapped, in this process, prints
the per-layer metrics and writes the spans to ``.bench_build/perfbench/``.
Human-readable ``metric`` lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5  # fresh interpreters timed before the passes, and again after them
SETUP_CODE = ("import time; t = time.perf_counter(); import cohomone; cohomone.default_catalog(); "
              "print(time.perf_counter() - t)")
IMPORT_CODE = "import time; t = time.perf_counter(); import cohomone.cli; print(time.perf_counter() - t)"
CLI_SUBCOMMANDS = ("brieskorn", "degrees", "quotient", "hilbert", "gh-case", "classify",
                   "primitivity", "mv-check", "seven-family", "verify-tables")

# (name, unit) of every per-layer metric, in the order printed
PER_LAYER = [(f"{prefix}.{stat}", "count" if stat == "calls" else "s")
             for prefix in ("lie_catalog.transitive_sphere_pairs", "lie_catalog.sphere_quotient",
                            "lie_catalog.spheres_acted_on", "lie_catalog.parse_group",
                            "diagram.validate", "diagram.equivalent", "diagram.primitivity",
                            "diagram.mv_feasible", "classification.classify_diagram",
                            "classification.enumerate_corank2", "classification.table3_filter",
                            "catalog.Catalog.register", "catalog.Catalog.lattice_for",
                            "catalog.Catalog.embeddings", "polynomial.IntegerPolynomial.divmod",
                            "polynomial.IntegerPolynomial.mul", "brieskorn.delta_poly",
                            "rational_homotopy.hilbert_series", "rational_homotopy.quotient_homotopy",
                            "verify.build_report", "cli.run")
             for stat in ("calls", "self_s")] + [
    ("lie_catalog.transitive_sphere_pairs.rows_built", "count"),
    ("lie_catalog.sphere_rows_per_lookup", "rows/call"),
    ("lie_catalog.GroupType.constructed", "count"),
    ("lie_catalog.sphere_quotient.match_ratio", "ratio"),
    ("diagram.validate.calls_per_classify", "ratio"),
    ("diagram.mv_feasible.degrees_scanned", "count"),
    ("catalog.embeddings_end", "count"),
    ("catalog.Catalog.lattice_for.scanned", "count"),
    ("polynomial.IntegerPolynomial.divmod.coeffs_in", "count"),
    ("brieskorn.delta_poly.coeffs_out", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
] + [(f"cli.{sub}.p50_ms", "ms") for sub in CLI_SUBCOMMANDS] + [
    ("cli.render.bytes_out", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


@dataclasses.dataclass
class Context:
    root: Path
    workdir: Path
    child_env: dict
    catalog: Any = None
    cli: Any = None
    verify: Any = None


@dataclasses.dataclass
class Outcome:
    seconds: float            # wall time of the whole timed loop
    latencies: list[float]    # per operation, seconds
    attempted: int
    failed: int
    correct: bool


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children reuse the bytecode set-up compiled
    return env


def child_seconds(code: str, env: dict) -> float:
    """Run ``python -c code`` and return the float it prints."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def median_wall_ms(argv: list[str], env: dict, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e3


def run_plan(workload, ops, ctx: Context, tracer=None) -> Outcome:
    latencies, failed, correct = [], 0, True
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            record = tracer.begin(f"op.{op.label}")
        call = workload.prepare(op, ctx)
        t0 = clock()
        try:
            result = call()
        except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
            result = exc
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.end(record)
            tracer.counters["cli.render.bytes_out"] += _bytes_out(result)
        if isinstance(result, Exception) or not workload.check(op, result):
            failed += 1
            correct = correct and workload.tolerated(op, result)
        call = result = None  # free large inputs and results before the next operation
    return Outcome(clock() - start, latencies, len(ops), failed, correct)


def _bytes_out(result) -> int:
    if isinstance(result, subprocess.CompletedProcess):
        return len(result.stdout.encode()) + len(result.stderr.encode())
    return 0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, passes: list[Outcome], setup_s: float) -> tuple[dict, dict]:
    """(metrics for the result line, extra metrics printed only as text)."""
    per_pass = [[t * 1e3 for t in p.latencies] for p in passes]
    latencies = [t for pass_ms in per_pass for t in pass_ms]
    attempted = sum(p.attempted for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(len(ms) * 1e3 / sum(ms) for ms in per_pass), "1/s"),
        "op_p50_ms": (statistics.median(statistics.median(ms) for ms in per_pass), "ms"),
        "op_p90_ms": (statistics.median(quantile(ms, 90) for ms in per_pass), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "error_rate": (sum(p.failed for p in passes) / attempted, "ratio"),
        "ops": (attempted, "count"),
    }
    if workload.name == "classify-stream":  # the only workload with enough operations for it
        extra["op_p99_ms"] = (quantile(latencies, 99), "ms")
    return metrics, extra


def per_layer(workload, tracer, untraced: Outcome, traced: Outcome, ctx: Context) -> dict:
    from tracing import self_times

    stats = self_times(tracer.spans)
    counters = tracer.counters
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            calls, self_s = stats.get(prefix, (0, 0.0))
            values[name] = calls if stat == "calls" else self_s
        else:
            values[name] = counters.get(name, 0)
    calls = lambda prefix: stats.get(prefix, (0, 0.0))[0]  # noqa: E731
    lookups = calls("lie_catalog.sphere_quotient") + calls("lie_catalog.spheres_acted_on")
    values["lie_catalog.sphere_rows_per_lookup"] = (
        counters.get("lie_catalog.transitive_sphere_pairs.rows_built", 0) / lookups if lookups else 0)
    quotients = calls("lie_catalog.sphere_quotient")
    values["lie_catalog.sphere_quotient.match_ratio"] = (
        counters.get("lie_catalog.sphere_quotient.matched", 0) / quotients if quotients else 0)
    classified = calls("classification.classify_diagram")
    values["diagram.validate.calls_per_classify"] = (
        calls("diagram.validate") / classified if classified else 0)
    if workload.in_process:
        values["catalog.embeddings_end"] = len(ctx.catalog.embeddings())
    else:
        values["cli.interpreter_ms"] = median_wall_ms([sys.executable, "-c", "pass"], ctx.child_env, 5)
        values["cli.import_ms"] = statistics.median(
            child_seconds(IMPORT_CODE, ctx.child_env) for _ in range(5)) * 1e3
        for sub in CLI_SUBCOMMANDS:
            spans = [end - start for name, start, end, _p, _o in tracer.spans if name == f"op.{sub}"]
            values[f"cli.{sub}.p50_ms"] = statistics.median(spans) * 1e3 if spans else 0
    values["trace.overhead_ratio"] = untraced.seconds / traced.seconds
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def load_program(ctx: Context, fresh: bool) -> None:
    """Import cohomone from ``src/`` into this process; ``fresh`` loads a catalog of its own."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cohomone.cli
    import cohomone.verify
    from cohomone import default_catalog, load_catalog

    ctx.cli, ctx.verify = cohomone.cli, cohomone.verify
    ctx.catalog = load_catalog() if fresh else default_catalog()


def run_passes(workload, plan, ctx: Context, args) -> list[Outcome]:
    """Run ``workload.passes`` passes: in-process workloads run the whole plan in a fresh
    interpreter each; cli-cold runs the pass's share of the plan, in plan order."""
    passes, n = [], len(plan.ops)
    for index in range(workload.passes):
        if not workload.in_process:
            share = plan.ops[index * n // workload.passes:(index + 1) * n // workload.passes]
            passes.append(run_plan(workload, share, ctx))
            continue
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--pass-in", str(ctx.workdir)],
                              cwd=ROOT, env=ctx.child_env, capture_output=True, text=True, timeout=150,
                              check=True)
        passes.append(Outcome(**json.loads(done.stdout.splitlines()[-1])))
    return passes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-in", type=Path, help=argparse.SUPPRESS)  # internal: one pass, in this directory
    args = parser.parse_args(argv)
    if not (SRC / "cohomone" / "__init__.py").is_file():
        print(f"perfbench: no cohomone sources under {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, repeated_share

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    plan = workload.plan_run(args.seed, args.seconds)
    if args.pass_in:
        ctx = Context(ROOT, args.pass_in, child_env())
        load_program(ctx, fresh=False)
        print(json.dumps(dataclasses.asdict(run_plan(workload, plan.ops, ctx))))
        return 0

    workdir = OUT / f"{workload.name}-{os.getpid()}"
    ctx = Context(ROOT, workdir, child_env())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in plan.documents.items():
            (workdir / name).write_text(text)
        child_seconds(IMPORT_CODE, ctx.child_env)  # compiles the bytecode the timed runs reuse
        if not args.trace:
            setups = [child_seconds(SETUP_CODE, ctx.child_env) for _ in range(SETUP_REPEATS)]
            passes = run_passes(workload, plan, ctx, args)
            # as many set-ups again after the passes, so one slow phase of the machine moves few of them
            setups += [child_seconds(SETUP_CODE, ctx.child_env) for _ in range(SETUP_REPEATS)]
            metrics, extra = end_to_end(workload, passes, statistics.median(setups))
            outcome = Outcome(sum(p.seconds for p in passes), [], sum(p.attempted for p in passes),
                              sum(p.failed for p in passes), all(p.correct for p in passes))
        else:
            from tracing import Tracer

            load_program(ctx, fresh=True)
            untraced = run_plan(workload, plan.ops, ctx)
            load_program(ctx, fresh=True)
            tracer = Tracer()
            tracer.install()
            try:
                outcome = run_plan(workload, plan.ops, ctx, tracer)
            finally:
                tracer.restore()
            metrics = per_layer(workload, tracer, untraced, outcome, ctx)
            extra = {"spans": (len(tracer.spans), "count")}
            tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = sum(op.known_defect for op in plan.ops) / len(plan.ops)
    extra.update({"known_defect_share": (known, "ratio"),
                  "repeated_input_share": (repeated_share(plan.ops), "ratio")})
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {workload.name} {name} = {value} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
