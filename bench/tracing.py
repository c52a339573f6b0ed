"""Traced in-process replay of a workload, one span per layer call.

Each invocation of a workload is replayed in this process through the same
public functions the CLI (or the mutants child) calls, with a span around
each call: name, start, end, parent span and invocation id.  Spans stay in
memory; the caller writes them out when the run ends.  Three layers are
measured by replaying the relation-pair brackets after the check: their
Clifford ``@`` products, their block ``@`` products and their
``TensorSum(...).residual()`` zero tests.  ``realize`` and
``ground_state_pair`` are timed inside ``spectrum`` by wrapping the names
``graded_sqm.verify`` looks them up under, for the length of the replay.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from checks import summarize
from mutants import mutate, mutation_rng, report_document

# spans whose self time is reported as the per-layer metric "<name>_s"
LAYER_SPANS = (
    "models.build",
    "cli.render",
    "verify.relations",
    "verify.centrality",
    "verify.rank",
    "verify.orbits",
    "verify.counts",
    "verify.tensor_zero",
    "clifford.product",
    "sqm_block.product",
    "verify.spectrum",
    "sqm_block.realize",
    "sqm_block.kernel",
)


class Tracer:
    """In-memory span recorder; spans are dicts, parents are list indices."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.invocation = 0

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "invocation": self.invocation,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part covered by its child spans."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def pass_layers(tracer: Tracer, first_span: int, results: list[dict]) -> dict:
    """Per-layer numbers of one traced pass: self time per layer, and counts.

    ``first_span`` is where the pass starts in ``tracer.spans``; ``results``
    are the pass's ``replay`` results.
    """
    spans = tracer.spans[first_span:]
    out = {f"{name}_s": 0.0 for name in LAYER_SPANS}
    for span, own in zip(spans, self_times(tracer.spans)[first_span:]):
        if span["name"] in LAYER_SPANS:
            out[f"{span['name']}_s"] += own
    checked = sum(
        s["end"] - s["start"] for s in spans if s["name"] in ("verify.relations", "verify.centrality")
    )
    brackets = sum(r["brackets"] for r in results)
    out.update(
        {
            "verify.report_rows": sum(r["report_rows"] for r in results),
            "verify.brackets": brackets,
            "verify.brackets_per_s": brackets / checked if checked else 0.0,
            "clifford.products": sum(r["products"] for r in results),
            "verify.spectrum_dense_bytes": max((r["dense_bytes"] for r in results), default=0),
            "verify.failed_rows": sum(r["failed_rows"] for r in results),
        }
    )
    return out


def bracket_count(model) -> int:
    """Exact brackets the two checks evaluate, from the model's sizes."""
    nq, nz = len(model.supercharges), len(model.centrals)
    return nq * nq + nq + nz + nz * nq + nz * (nz - 1) // 2


def realization_of(inv):
    from graded_sqm import FockRealization
    from graded_sqm.cli import make_grid_realization

    if inv.fock is not None:
        return FockRealization(inv.fock)
    return make_grid_realization(*inv.grid)


def _replay_relation_pairs(model, tracer: Tracer, rel) -> tuple[int, bool]:
    """Replay the relation-pair brackets layer by layer.

    Returns the number of Clifford products and whether the replayed zero
    tests agree with the check's own pass/fail flags.
    """
    from graded_sqm import TensorSum, TensorTerm, bracket_sign, dot
    from graded_sqm.clifford import PHASES

    degrees = model.odd_degrees
    pairs = [(model.supercharge(a), model.supercharge(b)) for a in degrees for b in degrees]
    with tracer.span("clifford.product"):
        cliffs = [(u.clifford @ v.clifford, v.clifford @ u.clifford) for u, v in pairs]
    with tracer.span("sqm_block.product"):
        blocks = [(u.block @ v.block, v.block @ u.block) for u, v in pairs]
    sums = []
    for (u, v), (c_uv, c_vu), (b_uv, b_vu) in zip(pairs, cliffs, blocks):
        a, b = u.degree, v.degree
        if a == b:
            target, scale = model.hamiltonian, -2
        else:
            target, scale = model.central(a, b), -2 * PHASES[(1 - dot(a, b)) % 4]
        sums.append(
            TensorSum(
                [
                    TensorTerm(c_uv, b_uv),
                    TensorTerm(c_vu, b_vu * -bracket_sign(a, b)),
                    TensorTerm(target.clifford, target.block * scale),
                ]
            )
        )
    with tracer.span("verify.tensor_zero"):
        zero = [s.residual() is None for s in sums]
    return 2 * len(pairs), zero == [p.ok for p in rel.pair_results]


def replay(inv, seed: int, tracer: Tracer) -> dict:
    """Run one invocation in-process under spans; return its counts and result."""
    import graded_sqm as g

    counts = {"brackets": 0, "report_rows": 0, "failed_rows": 0, "products": 0, "dense_bytes": 0}
    consistent = True
    with tracer.span("invocation"):
        with tracer.span("models.build"):
            model = g.build_from_selector(inv.selector)
        if inv.kind == "spectrum":
            realization = realization_of(inv)
            with tracer.span("verify.spectrum"):
                rep = g.spectrum(model, realization)
            with tracer.span("cli.render"):
                text = json.dumps(rep.to_dict(), indent=2, sort_keys=True)
            doc = json.loads(text)
            exit_code = 0 if rep.ok else 1
            counts["dense_bytes"] = 16 * rep.total_dim**2
        else:
            if inv.kind == "mutant":
                model, what = mutate(model, inv.mutation, mutation_rng(seed, inv.selector, inv.mutation))
            with tracer.span("verify.relations"):
                rel = g.check_defining_relations(model)
            with tracer.span("verify.centrality"):
                cen = g.check_centrality(model)
            sections = {"defining_relations": rel, "centrality": cen}
            for flag, name, span, fn in (
                ("--rank", "rank", "verify.rank", g.central_rank),
                ("--orbits", "orbits", "verify.orbits", g.orbit_decomposition),
                ("--counts", "generated_operators", "verify.counts", g.count_generated_operators),
            ):
                if flag in inv.flags:
                    with tracer.span(span):
                        sections[name] = fn(model)
            with tracer.span("cli.render"):
                if inv.kind == "mutant":
                    doc = report_document(what, rel, cen)
                else:
                    doc = {
                        name: rep if isinstance(rep, int) else rep.to_dict()
                        for name, rep in sections.items()
                    }
                    doc["passed"] = rel.overall and cen.overall
                text = json.dumps(doc, indent=2, sort_keys=True)
            doc = json.loads(text)
            exit_code = 0 if inv.kind == "mutant" or doc["passed"] else 1
            counts["products"], consistent = _replay_relation_pairs(model, tracer, rel)
            counts["brackets"] = bracket_count(model)
            counts["report_rows"] = len(rel.pair_results) + len(cen.centrality_results)
            if inv.kind == "mutant":
                counts["failed_rows"] = len(rel.failures()) + len(cen.failures())
    return {
        "exit": exit_code,
        "summary": summarize(inv.kind, doc),
        "report_bytes": len(text.encode()) + 1,  # the CLI writes a final newline
        "replay_consistent": consistent,
        **counts,
    }


@contextmanager
def traced_spectrum_layers(tracer: Tracer):
    """Time realize and ground_state_pair where spectrum() calls them."""
    import graded_sqm.verify as verify

    saved = verify.realize, verify.ground_state_pair
    verify.realize = tracer.wrap("sqm_block.realize", saved[0])
    verify.ground_state_pair = tracer.wrap("sqm_block.kernel", saved[1])
    try:
        yield
    finally:
        verify.realize, verify.ground_state_pair = saved
