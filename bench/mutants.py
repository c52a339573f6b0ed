"""Seeded single-site mutations of a built model, and the mutants child.

Mutations use only the public operator algebra: block scalars (x i, x -1),
Clifford products (``@``) and handing one supercharge another's Clifford
factor.  None reads or writes the ``perm``/``phase`` arrays, so the
mutations survive a change of the Clifford representation.  Each kind is
built so that the exact checks must see it: the donor factor is never
proportional to the replaced one, and the factor multiplied into a central
element is never a multiple of the identity.

Run as a child:  python3 bench/mutants.py SELECTOR KIND SEED REPORT_PATH
It writes the JSON report of both checks to REPORT_PATH.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace

KINDS = ("q-times-i", "z-times-minus-1", "q-factor", "z-times-q")


def mutation_rng(seed: int, selector: str, kind: str) -> random.Random:
    # the site depends on the seed and the invocation only, so every pass of
    # a run mutates the same sites and per-pass counts repeat exactly
    return random.Random(f"{seed}:{selector}:{kind}")


def mutate(model, kind: str, rng: random.Random):
    """Return (mutated copy of model, description of the mutation)."""
    from graded_sqm import Model, proportional

    charges = dict(model.supercharges)
    cents = dict(model.centrals)
    degrees = list(model.odd_degrees)
    if kind == "q-times-i":
        a = rng.choice(degrees)
        charges[a] = replace(charges[a], block=charges[a].block * 1j)
        what = f"{charges[a].label()} block x i"
    elif kind == "z-times-minus-1":
        key = rng.choice(list(cents))
        cents[key] = replace(cents[key], block=cents[key].block * -1)
        what = f"{cents[key].label()} block x -1"
    elif kind == "q-factor":
        a = rng.choice(degrees)
        donors = [
            b for b in degrees
            if proportional(charges[b].clifford, charges[a].clifford) is None
        ]
        b = rng.choice(donors)
        charges[a] = replace(charges[a], clifford=charges[b].clifford)
        what = f"{charges[a].label()} takes the Clifford factor of {charges[b].label()}"
    elif kind == "z-times-q":
        key = rng.choice(list(cents))
        donors = [c for c in degrees if charges[c].clifford.scalar_of_identity() is None]
        c = rng.choice(donors)
        z = cents[key]
        cents[key] = replace(z, clifford=z.clifford @ charges[c].clifford)
        what = f"{z.label()} Clifford factor @ that of {charges[c].label()}"
    else:
        raise ValueError(f"unknown mutation kind {kind!r}; choose from {KINDS}")
    return Model(model.spec, model.odd_degrees, model.hamiltonian, charges, cents), what


def report_document(what: str, rel, cen) -> dict:
    return {
        "mutation": what,
        "defining_relations": rel.to_dict(),
        "centrality": cen.to_dict(),
        "detected": not (rel.overall and cen.overall),
    }


def main(argv: list[str]) -> int:
    selector, kind, seed, out = argv
    from graded_sqm import build_from_selector, check_centrality, check_defining_relations

    broken, what = mutate(build_from_selector(selector), kind, mutation_rng(int(seed), selector, kind))
    rel = check_defining_relations(broken)
    cen = check_centrality(broken)
    with open(out, "w") as fh:
        fh.write(json.dumps(report_document(what, rel, cen), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
