"""Rewrite a verify or mutant JSON report of an earlier schema in the current one.

Five earlier schemas are read.  The per-pair one wrote one
``defining_relations`` row per ordered supercharge pair, and a rank entry
with its ``elements`` and every proportionality class.  The per-operator one
wrote one passing relation row per supercharge whose pairs all hold and a
rank entry with a ``count`` in place of ``elements``.  Both wrote one
passing centrality row per left operator whose brackets all vanish.  The
classes-of-two schema wrote, in each check section, one passing row that
counts the left operators whose brackets all hold, then one row per failing
bracket, and only the rank classes of two or more labels.  The per-row
schema wrote the check sections as that one does, and every rank class but
the largest of its entry.  The all-partners schema wrote the rank as the
per-row one does, and in each check section the count row, then the failing
rows grouped by the operator they share, every group with its partner lists.
The current schema writes those lists only in a group of more than three
rows, whose first three rows in full do not name every partner.  Everything
else is kept as it is.
A check section of an earlier schema keeps its failing rows, and its counts
come from the number of supercharges of the model that the CLI builds for
the report's selector.  A rank entry that leaves labels out gets them back
from the degree's labels, in the same model.  The rows are
rewritten by the report classes themselves, so an earlier report run
through this script equals, byte for byte, the report that the current
schema writes for the same call, and a current report is left as it is::

    PYTHONPATH=src python scripts/fold_report.py old.json > folded.json
    cmp folded.json new.json

It reads the file named by its argument, or stdin, and writes stdout with the
CLI's JSON format and final newline.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graded_sqm.grading import degree_text  # noqa: E402
from graded_sqm.models import Model, build_from_selector  # noqa: E402
from graded_sqm.verify import DegreeRankEntry, PairCheck, RankReport, RelationReport, _labels  # noqa: E402


@cache
def selector_model(selector: str) -> Model:
    """The model the CLI builds for the selector."""
    return build_from_selector(selector)


def fold_group(row: dict) -> dict:
    """A row of a grouped section in the current schema: a group of at most
    three rows, which its rows in full name every partner of, drops its
    partner lists; any other row is kept."""
    if "operator" not in row or row["count"] > 3:
        return row
    return {key: value for key, value in row.items() if key not in ("left_of", "right_of")}


def fold_section(section: dict) -> dict:
    """A check section in the current schema, from its rows in any earlier one.

    A section that holds only a passing row that counts left operators, in
    words where an operator's label has no space, and groups of failing rows
    is grouped already, and only a group of at most three rows loses its
    partner lists.  An earlier one keeps its failing rows only.
    """
    names = ("pair_results", "centrality_results")
    rows = [section[name] for name in names]
    if all("operator" in row or " " in row["left"] for row in (*rows[0], *rows[1])):
        return {**section, **{name: [fold_group(row) for row in part] for name, part in zip(names, rows)}}
    checks = [tuple(PairCheck(**row) for row in part if not row["ok"]) for part in rows]
    n = len(selector_model(section["model"]).q)
    return RelationReport(section["model"], section["check"], n, *checks).to_dict()


@cache
def degree_labels(selector: str) -> dict[str, list[str]]:
    """The labels of each degree's central elements, in report order."""
    model = selector_model(selector)
    labels: dict[str, list[str]] = {}
    for label, (i, j) in zip(_labels(model, centrals=True)[len(model.q):], model.pairs):
        labels.setdefault(degree_text(model.spec.n, model.masks[i] ^ model.masks[j]), []).append(label)
    return labels


def fold_classes(selector: str, entry: dict, count: int) -> tuple[tuple[str, ...], ...]:
    """Every proportionality class of a rank entry, in order of first appearance.

    The labels an entry leaves out make rank - len(classes) classes: one
    class in the current schema, one class each in the classes-of-two one.
    The degree's labels are read only when some are left out.
    """
    classes = [tuple(c) for c in entry["classes"]]
    if sum(map(len, classes)) == count:
        return tuple(classes)
    order = degree_labels(selector)[entry["degree"]]
    given = {label for c in classes for label in c}
    rest = [label for label in order if label not in given]
    missing = entry["rank"] - len(classes)
    if missing == len(rest):
        classes += [(label,) for label in rest]
    elif missing == 1:
        classes.append(tuple(rest))
    else:
        raise ValueError(f"rank entry {entry['degree']}: {len(rest)} labels left out cannot make {missing} classes")
    first = {label: k for k, label in enumerate(order)}
    return tuple(sorted(classes, key=lambda c: first[c[0]]))


def fold_rank(rank: dict) -> dict:
    """A rank section in the current schema: each entry keeps every class but its largest."""
    entries = []
    for e in rank["entries"]:
        count = e["count"] if "count" in e else len(e["elements"])
        entries.append(DegreeRankEntry(e["degree"], count, e["rank"], fold_classes(rank["model"], e, count)))
    return RankReport(**{**rank, "entries": tuple(entries)}).to_dict()


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
    text = Path(argv[0]).read_text(encoding="utf-8") if argv else sys.stdin.read()
    sys.stdout.write(json.dumps(fold(json.loads(text)), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
