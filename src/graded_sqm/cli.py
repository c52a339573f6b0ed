"""Batch command-line front end.

Three subcommands: ``census`` prints the algebra counting table, ``verify``
builds a model and runs the exact relation/centrality checks (plus optional
rank, orbit and spectrum reports), ``spectrum`` reports eigenvalue clusters
and degeneracies for a numeric realization.  Exit status: 0 all selected
checks pass, 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .grading import census
from .models import ModelSpec, ModelSpecError, build
from .sqm_block import FockRealization, GridRealization, NumericRealization
from .verify import (
    central_rank,
    check_block_bytes,
    check_centrality,
    check_defining_relations,
    count_generated_operators,
    orbit_decomposition,
    spectrum,
)

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

FORMATS = ("markdown", "json", "csv")

DEFAULT_GRID_POINTS = 201
DEFAULT_GRID_SPACING = 0.05


# ---------------------------------------------------------------------------
# superpotential parsing
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?P<coeff>\d+(?:\.\d+)?)?(?:\*?(?P<x>x)(?:\^(?P<pow>\d+))?)?$"
)


def parse_polynomial(expr: str) -> list[tuple[float, int]]:
    """Parse expressions like 'x', 'x^3', '2*x^3 - x' into (coeff, power)."""
    s = expr.replace(" ", "")
    if not s:
        raise ValueError("empty superpotential expression")
    if s[0] not in "+-":
        s = "+" + s
    terms = []
    for m in re.finditer(r"[+-][^+-]*", s):
        t = m.group(0)
        g = _TERM_RE.match(t)
        if not g or (g.group("coeff") is None and g.group("x") is None):
            raise ValueError(f"cannot parse superpotential term {t!r} in {expr!r}")
        coeff = float(g.group("coeff") or 1.0)
        if g.group("sign") == "-":
            coeff = -coeff
        power = 0
        if g.group("x"):
            power = int(g.group("pow") or 1)
        terms.append((coeff, power))
    return terms


def make_grid_realization(points: int, spacing: float, w_expr: str) -> GridRealization:
    """Grid realization from a polynomial expression or a table file.

    A table file (prefix '@' or an existing path) holds one superpotential
    value per grid point; its derivative is taken by central differences.
    """
    path = w_expr[1:] if w_expr.startswith("@") else w_expr
    if w_expr.startswith("@") or Path(path).is_file():
        import numpy as np
        values = np.loadtxt(path, dtype=float).reshape(-1)
        if values.shape != (points,):
            raise ValueError(
                f"superpotential table {path!r} has {values.shape[0]} values, "
                f"expected {points}"
            )
        return GridRealization(points, spacing, values, label=f"table:{Path(path).name}")
    terms = parse_polynomial(w_expr)

    def w(x: np.ndarray) -> np.ndarray:
        return sum(c * x**p for c, p in terms)

    def w_prime(x: np.ndarray) -> np.ndarray:
        return sum(c * p * x ** (p - 1) for c, p in terms if p > 0) + 0.0 * x

    return GridRealization.from_function(points, spacing, w, w_prime, label=w_expr)


# ---------------------------------------------------------------------------
# config files: key=value lines mirroring the flags
# ---------------------------------------------------------------------------


# accepted spellings for realization settings in config files
_CONFIG_ALIASES = {
    "grid.points": "points",
    "grid.spacing": "spacing",
    "cutoff": "fock",
}


def load_config(path: str) -> dict[str, str]:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r} (expected key=value)")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        key = _CONFIG_ALIASES.get(key, key.replace("-", "_"))
        if key == "realization":
            if value not in ("fock", "grid"):
                raise ValueError(f"realization must be fock or grid, got {value!r}")
            if value == "grid":
                out["grid"] = "true"
            continue
        out[key] = value
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(value: str) -> bool:
    v = value.lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise ValueError(f"expected boolean, got {value!r}")


def _merge(args: argparse.Namespace, key: str, default, cast=str):
    """CLI value if given, else config value, else default."""
    cli = getattr(args, key)
    if cli is not None and cli is not False:
        return cli
    cfg = getattr(args, "_config", {})
    if key in cfg:
        return cast(cfg[key])
    return default


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _table_markdown(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _table_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _relation_rows(rep) -> list[tuple]:
    return [
        (rep.check, p.left, p.right, p.kind, "pass" if p.ok else "FAIL", p.residual or "")
        for p in (*rep.pair_results, *rep.centrality_results)
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_census(args: argparse.Namespace) -> int:
    lo = int(_merge(args, "n_from", 2))
    hi = int(_merge(args, "n_to", 10))
    fmt = _merge(args, "format", "markdown")
    out = _merge(args, "out", None)
    if not 2 <= lo <= hi <= 10:
        raise ValueError(f"census range must satisfy 2 <= from <= to <= 10, got {lo}..{hi}")
    header = ("n", "supercharges", "central_elements", "central_subspace_dim")
    rows = []
    for n in range(lo, hi + 1):
        c = census(n)
        rows.append((c.n, c.num_supercharges, c.num_central, c.dim_central_subspace))
    if fmt == "json":
        text = json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2, sort_keys=True
        )
    elif fmt == "csv":
        text = _table_csv(header, rows)
    else:
        text = _table_markdown(header, rows)
    _emit(text, out)
    return EXIT_OK


def _realization_from(args: argparse.Namespace) -> NumericRealization | None:
    fock = _merge(args, "fock", None)
    grid = _merge(args, "grid", False, _as_bool)
    if fock is not None and grid:
        raise ValueError("choose either --fock or --grid, not both")
    if fock is not None:
        return FockRealization(int(fock))
    if grid:
        points = int(_merge(args, "points", DEFAULT_GRID_POINTS))
        spacing = float(_merge(args, "spacing", DEFAULT_GRID_SPACING))
        w_expr = _merge(args, "w", "x")
        check_block_bytes(points)  # before W is read or evaluated on the grid
        return make_grid_realization(points, spacing, w_expr)
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    selector = _merge(args, "model", None)
    if not selector:
        raise ValueError("--model is required (flag or config)")
    fmt = _merge(args, "format", "markdown")
    out = _merge(args, "out", None)
    model = build(ModelSpec.parse(selector))

    sections: dict[str, object] = {}
    sections["defining_relations"] = check_defining_relations(model)
    sections["centrality"] = check_centrality(model)
    if _merge(args, "rank", False, _as_bool):
        sections["rank"] = central_rank(model)
    if _merge(args, "orbits", False, _as_bool):
        sections["orbits"] = orbit_decomposition(model)
    if _merge(args, "counts", False, _as_bool):
        sections["generated_operators"] = count_generated_operators(model)
    realization = _realization_from(args)
    if realization is not None:
        sections["spectrum"] = spectrum(model, realization)

    passed = (
        sections["defining_relations"].overall
        and sections["centrality"].overall
        and (("spectrum" not in sections) or sections["spectrum"].ok)
    )

    if fmt == "json":
        doc = {
            name: (rep if isinstance(rep, int) else rep.to_dict())
            for name, rep in sections.items()
        }
        doc["passed"] = passed
        text = json.dumps(doc, indent=2, sort_keys=True)
    elif fmt == "csv":
        header = ("check", "left", "right", "kind", "status", "residual")
        rows = _relation_rows(sections["defining_relations"])
        rows += _relation_rows(sections["centrality"])
        text = _table_csv(header, rows)
    else:
        parts = []
        for name, rep in sections.items():
            if isinstance(rep, int):
                parts.append(f"## generated-operators — {selector}\n\ncount: {rep}")
            else:
                parts.append(rep.to_markdown())
        parts.append(f"# result: {'PASS' if passed else 'FAIL'}")
        text = "\n\n".join(parts)
    _emit(text, out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_spectrum(args: argparse.Namespace) -> int:
    selector = _merge(args, "model", None)
    if not selector:
        raise ValueError("--model is required (flag or config)")
    fmt = _merge(args, "format", "markdown")
    out = _merge(args, "out", None)
    model = build(ModelSpec.parse(selector))
    realization = _realization_from(args)
    if realization is None:
        realization = FockRealization(8)
    rep = spectrum(model, realization)
    if fmt == "json":
        text = json.dumps(rep.to_dict(), indent=2, sort_keys=True)
    elif fmt == "csv":
        header = ("energy", "multiplicity", "status")
        rows = [(f"{c.value:.9g}", c.multiplicity, "reported") for c in rep.clusters]
        rows += [(f"{c.value:.9g}", c.multiplicity, "excluded") for c in rep.excluded]
        text = _table_csv(header, rows)
    else:
        text = rep.to_markdown()
    _emit(text, out)
    return EXIT_OK if rep.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default=None, help="output format")
    sub.add_argument("--out", default=None, help="write the report to this file")
    sub.add_argument("--config", default=None, help="key=value file mirroring the flags")


def _add_realization(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fock", type=int, default=None, metavar="N", help="truncated Fock cutoff (W=x)")
    sub.add_argument("--grid", action="store_true", help="finite-difference grid realization")
    sub.add_argument("--points", type=int, default=None, help="grid points")
    sub.add_argument("--spacing", type=float, default=None, help="grid spacing")
    sub.add_argument("--W", dest="w", default=None, help="superpotential: polynomial in x or @table-file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graded-sqm",
        description="Build graded supersymmetric quantum mechanics models and verify them exactly.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_census = subs.add_parser("census", help="algebra counting table")
    p_census.add_argument("--n-from", type=int, default=None)
    p_census.add_argument("--n-to", type=int, default=None)
    _add_common(p_census)
    p_census.set_defaults(func=cmd_census)

    p_verify = subs.add_parser("verify", help="exact relation and centrality checks")
    p_verify.add_argument("--model", default=None, help="e.g. minimal:n=4, next:n=3, maximal:n=4, n4cl12")
    p_verify.add_argument("--rank", action="store_true", help="add the central-rank report")
    p_verify.add_argument("--orbits", action="store_true", help="add the orbit report")
    p_verify.add_argument("--counts", action="store_true", help="add the generated-operator count")
    p_verify.add_argument(
        "--jobs", type=int, default=None,
        help="accepted and ignored (as is the config key jobs); removed in the next release",
    )
    _add_realization(p_verify)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_spec = subs.add_parser("spectrum", help="eigenvalue clusters and degeneracies")
    p_spec.add_argument("--model", default=None)
    _add_realization(p_spec)
    _add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = load_config(args.config) if args.config else {}
        return args.func(args)
    except (ModelSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
