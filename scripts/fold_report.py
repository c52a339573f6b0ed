"""Rewrite a verify or mutant JSON report of the unfolded schema in the folded one.

The unfolded schema wrote one ``defining_relations`` row per ordered
supercharge pair and listed every central label of a rank entry twice, in
``elements`` and in ``classes``.  The folded schema writes, for each run of
pairs with one left operator, one passing row if every pair holds and its
failing pairs otherwise, and gives a rank entry a ``count`` in place of its
``elements``.  Everything else is kept as it is.  So an unfolded report run
through this script must equal, byte for byte, the report that the folded
schema writes for the same call::

    python scripts/fold_report.py old.json > folded.json
    cmp folded.json new.json

It reads the file named by its argument, or stdin, and writes stdout with the
CLI's JSON format and final newline.
"""

from __future__ import annotations

import json
import sys
from itertools import groupby
from operator import itemgetter


def fold_pairs(rows: list[dict]) -> list[dict]:
    """One passing row per run of passing pairs with one left operator, or the run's failures."""
    out: list[dict] = []
    for left, run in groupby(rows, itemgetter("left")):
        run = list(run)
        failing = [row for row in run if not row["ok"]]
        right = f"{len(run)} supercharges"
        out += failing or [{"kind": "graded", "left": left, "ok": True, "residual": None, "right": right}]
    return out


def fold(doc: dict) -> dict:
    """The folded form of one report document."""
    doc = dict(doc)
    for name in ("defining_relations", "centrality"):
        if name in doc:
            section = dict(doc[name])
            section["pair_results"] = fold_pairs(section["pair_results"])
            doc[name] = section
    if "rank" in doc:
        rank = dict(doc["rank"])
        rank["entries"] = [
            {"classes": e["classes"], "count": len(e["elements"]), "degree": e["degree"], "rank": e["rank"]}
            for e in rank["entries"]
        ]
        doc["rank"] = rank
    return doc


def main(argv: list[str]) -> int:
    text = open(argv[0], encoding="utf-8").read() if argv else sys.stdin.read()
    sys.stdout.write(json.dumps(fold(json.loads(text)), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
