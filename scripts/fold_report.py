"""Rewrite a verify or mutant JSON report of an earlier schema in the current one.

Two earlier schemas are read.  The per-pair one wrote one
``defining_relations`` row per ordered supercharge pair, and a rank entry
with its ``elements`` and every proportionality class.  The per-operator one
wrote one passing relation row per supercharge whose pairs all hold and a
rank entry with a ``count`` in place of ``elements``.  Both wrote one
passing centrality row per left operator whose brackets all vanish.  The
current schema writes, in each check section, one passing row that counts
the left operators whose brackets all hold, then the failing rows as
before, and only the rank classes of two or more labels.  Everything else is
kept as it is.  The rows are rewritten by the report classes themselves, so
an earlier report run through this script equals, byte for byte, the report
that the current schema writes for the same call::

    PYTHONPATH=src python scripts/fold_report.py old.json > folded.json
    cmp folded.json new.json

It reads the file named by its argument, or stdin, and writes stdout with the
CLI's JSON format and final newline.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graded_sqm.verify import DegreeRankEntry, PairCheck, RankReport, RelationReport  # noqa: E402


def fold_section(section: dict) -> dict:
    """A check section in the current schema, from its rows in either earlier one."""
    rows = [
        tuple(PairCheck(**row) for row in section[name])
        for name in ("pair_results", "centrality_results")
    ]
    return RelationReport(section["model"], section["check"], *rows).to_dict()


def fold_rank(rank: dict) -> dict:
    """A rank section in the current schema: its entries keep only the classes of two or more labels."""
    entries = tuple(
        DegreeRankEntry(e["degree"], e["count"] if "count" in e else len(e["elements"]), e["rank"], e["classes"])
        for e in rank["entries"]
    )
    return RankReport(**{**rank, "entries": entries}).to_dict()


def fold(doc: dict) -> dict:
    """The current form of one report document."""
    doc = dict(doc)
    for name in ("defining_relations", "centrality"):
        if name in doc:
            doc[name] = fold_section(doc[name])
    if "rank" in doc:
        doc["rank"] = fold_rank(doc["rank"])
    return doc


def main(argv: list[str]) -> int:
    text = open(argv[0], encoding="utf-8").read() if argv else sys.stdin.read()
    sys.stdout.write(json.dumps(fold(json.loads(text)), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
