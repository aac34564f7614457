"""Record the seed commit's payloads that the benchmark's oracles compare against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

It rewrites ``perfbench/golden.json``.  Payloads with a closed form in the
paper (Brieskorn homology, seven-family torsion, fiber-case dimensions,
Weyl orders) are checked by closed forms instead and are not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cohomone import default_catalog  # noqa: E402
from cohomone.cli import render, run  # noqa: E402
from cohomone.verify import build_report  # noqa: E402

from workloads import sha256  # noqa: E402


def main() -> None:
    catalog = default_catalog()
    diagrams = {}
    for record in catalog.diagram_records():
        document = HERE / ".golden-diagram.json"
        document.write_text(json.dumps({"catalog": record.id}))
        try:
            diagrams[record.id] = {
                command: run([command, "--diagram", str(document)], catalog).payload
                for command in ("classify", "primitivity")
            }
        finally:
            document.unlink()
    embeddings = catalog.embeddings()
    golden = {
        "verify_tables_sha256": sha256(render(build_report(catalog))),
        "diagrams": diagrams,
        "quotient_sha256": {
            e.id: sha256(render(run(["quotient", "--embedding", e.id], catalog).payload)) for e in embeddings
        },
        "hilbert_sha256": {
            e.id: sha256(render(run(["hilbert", "--embedding", e.id], catalog).payload))
            for e in embeddings if e.ambient.rank == e.subgroup.rank
        },
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
