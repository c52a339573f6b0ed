"""Correctness gate: the checked content of each report against expected.json.

Every invocation's expected exit status and checked content is stored in
``expected.json``, keyed by ``Invocation.key``.  For verify that is the
``passed`` flag, per-degree and total ranks, orbit component sizes and the
generated-operator count; for spectrum the cluster multiplicities and zero
modes; for a mutant, that the checks detected the mutation.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict[str, dict]:
    return json.loads(EXPECTED_PATH.read_text())


def summarize(kind: str, doc: dict) -> dict:
    """The checked content of one JSON report."""
    if kind == "mutant":
        return {"detected": doc["detected"]}
    if kind == "spectrum":
        return {
            "ok": doc["ok"],
            "zero_modes": doc["zero_modes"],
            "multiplicities": [c["multiplicity"] for c in doc["clusters"]],
        }
    out = {"passed": doc["passed"]}
    if "rank" in doc:
        out["ranks"] = {e["degree"]: e["rank"] for e in doc["rank"]["entries"]}
        out["total_rank"] = doc["rank"]["total_rank"]
    if "orbits" in doc:
        out["orbits"] = list(doc["orbits"]["component_sizes"])
    if "generated_operators" in doc:
        out["generated_operators"] = doc["generated_operators"]
    return out


def mismatches(want: dict | None, exit_code: int, summary: dict | None) -> list[str]:
    """Human-readable differences between an invocation's result and want."""
    if want is None:
        return ["no expected result stored"]
    got = {"exit": exit_code, **(summary or {})}
    return [
        f"{k}: expected {want[k]!r}, got {got.get(k, '<missing>')!r}"
        for k in sorted(set(want) | set(got))
        if want.get(k, "<missing>") != got.get(k, "<missing>")
    ]
