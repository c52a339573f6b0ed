"""The benchmark's workloads: every invocation, its kind and its time budget.

A workload is a fixed list of invocations; one pass runs each of them once,
in an order drawn from the run's seed.  Each invocation is either a CLI
child (``verify`` or ``spectrum``) or a ``mutants`` child that mutates a
model in-process and runs the exact checks on it.  ``key`` names the
expected result in ``expected.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

# A call that runs longer than this is killed and counted as failed.  The
# slowest call kept here (verify on n5cl28) takes about 6 s.
CALL_BUDGET_S = 60.0


@dataclass(frozen=True)
class Invocation:
    kind: str  # "verify", "spectrum" or "mutant"
    selector: str
    flags: tuple[str, ...] = ()  # verify: --rank/--orbits/--counts
    fock: int | None = None
    grid: tuple[int, float, str] | None = None  # points, spacing, W
    mutation: str | None = None

    @property
    def key(self) -> str:
        if self.kind == "mutant":
            return f"mutant {self.selector} {self.mutation}"
        return " ".join((self.kind, self.selector, *self.cli_options()))

    def cli_options(self) -> tuple[str, ...]:
        """Flags after ``--model SELECTOR``, without the output options."""
        if self.fock is not None:
            return ("--fock", str(self.fock))
        if self.grid is not None:
            points, spacing, w = self.grid
            return ("--grid", "--points", str(points), "--spacing", str(spacing), "--W", w)
        return self.flags


def _verify(selectors: list[str], flags: tuple[str, ...]) -> tuple[Invocation, ...]:
    return tuple(Invocation("verify", s, flags) for s in selectors)


LADDER_MODELS = (
    [f"minimal:n={n}" for n in range(2, 7)]
    + [f"next:n={n}" for n in range(2, 7)]
    + [f"maximal:n={n}" for n in range(2, 5)]
    + ["n4cl12", "n4cl10"]
)

WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # Many operators on Clifford dimension <= 64: per-pair Python, free-word
    # block algebra, large JSON reports and the Gaussian rank of next:n=6.
    "verify-ladder": _verify(LADDER_MODELS, ("--rank", "--orbits", "--counts")),
    # Few operators (16 Q, 120 Z) on Clifford dimensions 2^13 and 2^14: O(dim)
    # array work in clifford and the vectorized centrality sweep dominate.
    # The exact checks alone on n5cl26 make the third call, so the median
    # call lies inside one invocation's samples, not between two.
    "verify-wide": _verify(["n5cl28", "n5cl26"], ("--rank", "--orbits")) + _verify(["n5cl26"], ()),
    # The only workload on the numeric realization layer, the dense
    # Kronecker product and the eigensolve; it runs no exact check.
    "spectrum": (
        Invocation("spectrum", "minimal:n=3", fock=8),
        Invocation("spectrum", "next:n=4", fock=48),
        Invocation("spectrum", "maximal:n=3", fock=96),
        Invocation("spectrum", "n4cl10", fock=24),
        Invocation("spectrum", "minimal:n=2", grid=(401, 0.025, "x^3")),
        Invocation("spectrum", "next:n=3", grid=(101, 0.1, "x")),
    ),
    # The verify layer on its failure path: one seeded mutation per model,
    # covering all four mutation kinds, and every one must be detected.  An
    # odd number of calls per pass puts the median call inside a cluster of
    # similar calls rather than halfway between two.
    "mutants": (
        Invocation("mutant", "minimal:n=5", mutation="q-factor"),
        Invocation("mutant", "minimal:n=6", mutation="z-times-q"),
        Invocation("mutant", "next:n=5", mutation="z-times-q"),
        Invocation("mutant", "next:n=6", mutation="q-times-i"),
        Invocation("mutant", "maximal:n=4", mutation="z-times-minus-1"),
        Invocation("mutant", "n4cl10", mutation="z-times-q"),
        Invocation("mutant", "n5cl26", mutation="q-factor"),
    ),
}

# Left out because one call alone does not fit a run at the seed commit.
# Each lower bound is a measured single call on a 2-core x86-64 machine;
# a later change can add it back as a workload of its own.
EXCLUDED = (
    {"call": "verify --counts --model n5cl26", "lower_bound_s": 190, "why": "closure BFS did not finish"},
    {"call": "verify --counts --model n5cl28", "lower_bound_s": 540, "why": "closure BFS did not finish"},
    {"call": "verify --counts --model maximal:n=5", "lower_bound_s": 540, "why": "closure BFS did not finish"},
    {"call": "verify --model minimal:n=8", "lower_bound_s": 144, "why": "centrality check alone"},
    {"call": "verify --model next:n=8", "lower_bound_s": 351, "why": "centrality check alone"},
    {"call": "verify --rank --orbits --counts --model minimal:n=7", "lower_bound_s": 8.1, "why": "one call is a third of a run; 22 MB report"},
    {"call": "verify --rank --orbits --counts --model next:n=7", "lower_bound_s": 17, "why": "one call is most of a run; rank alone 9.2 s"},
    {"call": "verify --rank --orbits --model maximal:n=5", "lower_bound_s": 12.2, "why": "one call is half a run; centrality alone 10.3 s"},
    {"call": "spectrum --model next:n=3 --grid --points 201 --spacing 0.05 --W x", "lower_bound_s": 13.9, "why": "replaced by --points 101 --spacing 0.1, same extent"},
)


def model_selectors(workload: str) -> list[str]:
    """Distinct selectors a workload builds, in first-use order."""
    return list(dict.fromkeys(inv.selector for inv in WORKLOADS[workload]))
