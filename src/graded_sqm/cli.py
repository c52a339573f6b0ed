"""Batch command-line front end.

Three subcommands: ``census`` prints the algebra counting table, ``verify``
builds a model and runs the exact relation/centrality checks (plus optional
rank, orbit and spectrum reports), ``spectrum`` reports eigenvalue clusters
and degeneracies for a numeric realization.  Each subcommand imports the
modules it runs when it runs: ``census`` loads no model, ``spectrum`` no
exact check, and ``verify`` the spectrum only for a realization.  A
``--config`` file's ``key = value`` lines are turned into the flags they
stand for and parsed ahead of the command line's own, so argparse checks
both alike and the command line wins.  Exit status: 0 all selected checks
pass, 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import codecs
import io
import json
import os
import re
import stat
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

    from .realizations import GridRealization, NumericRealization

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

FORMATS = ("markdown", "json", "csv")
# the Fock cutoff of a spectrum given no realization, and of a config's realization = fock
DEFAULT_CUTOFF = 8
# bytes of a config file: it holds about 15 key = value lines at most
MAX_CONFIG_BYTES = 64 << 10
# bytes of a superpotential table: a table of a grid the guard admits is far smaller
MAX_TABLE_BYTES = 48 << 20


def read_input(path: str, limit: int, what: str) -> bytes:
    """The bytes of the regular file ``path``, the ``what`` of a command.

    Opened without blocking, so that a FIFO with no writer cannot hold the
    call, and refused unless ``fstat`` calls it a regular file: a FIFO, a
    device such as /dev/zero, a directory or a process substitution.  At
    most ``limit`` + 1 bytes are read, and a file over ``limit`` is refused.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise ValueError(f"{what} {path!r} is not a regular file")
        with open(fd, "rb", closefd=False) as f:
            raw = f.read(limit + 1)
    finally:
        os.close(fd)
    if len(raw) > limit:
        raise ValueError(f"{what} {path!r} is over {limit} bytes")
    return raw


# ---------------------------------------------------------------------------
# superpotential parsing
# ---------------------------------------------------------------------------

# ASCII digits only: float() and int() would read any Unicode digit
_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?P<coeff>\d+(?:\.\d+)?)?(?:\*?(?P<x>x)(?:\^(?P<pow>\d+))?)?$", re.ASCII
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

    A value that parses as a polynomial is that polynomial, even when a
    file of that name exists.  A table file, named with the prefix '@' or
    by a path that does not parse as a polynomial, holds one superpotential
    value per grid point.
    The grid is checked before the table is read, W evaluated or numpy
    imported.
    """
    from .realizations import GridRealization, check_grid

    points, spacing = check_grid(points, spacing)
    if w_expr.startswith("@"):
        path = w_expr[1:]
    else:
        try:
            terms = parse_polynomial(w_expr)
        except ValueError:
            if not os.path.isfile(w_expr):  # False, not an OSError, for a name too long
                raise
            path = w_expr
        else:
            def w(x: np.ndarray) -> np.ndarray:
                return sum(c * x**p for c, p in terms)

            return GridRealization.from_function(points, spacing, w, label=w_expr)
    raw = read_input(path, MAX_TABLE_BYTES, "superpotential table")
    import numpy as np
    with warnings.catch_warnings():  # an empty table is refused below, not warned about
        warnings.simplefilter("ignore", UserWarning)
        values = np.loadtxt(io.StringIO(raw.decode(), newline=None), dtype=float).reshape(-1)
    if values.shape != (points,):
        raise ValueError(
            f"superpotential table {path!r} has {values.shape[0]} values, "
            f"expected {points}"
        )
    return GridRealization(points, spacing, values, label=f"table:{Path(path).name}")


# ---------------------------------------------------------------------------
# config files: key=value lines mirroring the flags
# ---------------------------------------------------------------------------


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(value: str) -> bool:
    v = value.lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise ValueError(f"expected boolean, got {value!r}")


def config_flags(argv: list[str], sub: argparse.ArgumentParser) -> list[str]:
    """The flags that the config file named by ``--config`` in ``argv`` stands for.

    Each ``key = value`` line becomes ``--key=value``, a true switch a bare
    ``--key`` and a false one nothing, so the parser checks config values
    exactly as it checks flags.  A key must spell an option of ``sub``, in
    any case and with ``_`` for ``-``.  A ``#`` at the start of a line or
    after whitespace starts a comment; any other ``#`` is part of the value.
    ``realization = fock`` is ``--fock`` at ``DEFAULT_CUTOFF``, put ahead of
    every other config flag so that a ``cutoff`` line wins wherever it stands.
    """
    pre = argparse.ArgumentParser(prog=sub.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    options = {
        s.lower(): a for a in sub._actions for s in a.option_strings
        if a.dest not in ("help", "config")
    }
    flags = []
    for raw in read_input(path, MAX_CONFIG_BYTES, "config").decode("utf-8-sig").splitlines():
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r} (expected key=value)")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "realization":
            if value not in ("fock", "grid"):
                raise ValueError(f"realization must be fock or grid, got {value!r}")
            action = options.get("--" + value)
            value = str(DEFAULT_CUTOFF) if value == "fock" else "true"
        else:
            action = options.get("--" + key.replace("_", "-"))
        if action is None:
            raise ValueError(f"{sub.prog} has no config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:
            flags += [flag] if _as_bool(value) else []
        else:
            flags.insert(0 if key == "realization" else len(flags), f"{flag}={value}")
    return flags


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _table_markdown(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _table_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """RFC 4180 rows: a field holding a comma or a quote is quoted."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()[:-1]


def _emit(text: str, out: str | None) -> None:
    """Write the report as UTF-8, to ``out`` or to stdout, whatever the locale.

    ``out`` is opened without blocking, so that a FIFO with no reader fails
    at once (ENXIO), and is then written as a blocking file.
    """
    if out:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
        with open(fd, "w", encoding="utf-8") as f:
            os.set_blocking(fd, True)
            f.write(text + "\n")
        return
    encoding = getattr(sys.stdout, "encoding", None)  # stdout is None when closed
    if encoding and codecs.lookup(encoding).name != "utf-8":
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # a reader that stops early is no error: the command keeps its exit
        # status, and the interpreter's last flush of stdout goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _relation_rows(rep) -> list[tuple]:
    return [
        (rep.check, p.left, p.right, p.kind, "pass" if p.ok else "FAIL", p.residual or "")
        for rows in rep.written_rows() for p in rows
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_census(args: argparse.Namespace) -> int:
    from .grading import census

    lo, hi = args.n_from, args.n_to
    if not 2 <= lo <= hi <= 10:
        raise ValueError(f"census range must satisfy 2 <= from <= to <= 10, got {lo}..{hi}")
    header = ("n", "supercharges", "central_elements", "central_subspace_dim")
    rows = []
    for n in range(lo, hi + 1):
        c = census(n)
        rows.append((c.n, c.num_supercharges, c.num_central, c.dim_central_subspace))
    if args.format == "json":
        text = json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2, sort_keys=True
        )
    elif args.format == "csv":
        text = _table_csv(header, rows)
    else:
        text = _table_markdown(header, rows)
    _emit(text, args.out)
    return EXIT_OK


def _realization_from(args: argparse.Namespace) -> NumericRealization | None:
    if not args.grid and (args.points, args.spacing, args.w) != (None, None, None):
        raise ValueError("--points, --spacing and --W apply only with --grid")
    if args.grid:
        points = 201 if args.points is None else args.points
        spacing = 0.05 if args.spacing is None else args.spacing
        return make_grid_realization(points, spacing, "x" if args.w is None else args.w)
    if args.fock is not None:
        from .realizations import FockRealization

        return FockRealization(args.fock)
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    if args.format == "csv" and (args.rank or args.orbits or args.counts):
        raise ValueError("--rank, --orbits and --counts have no CSV form; use json or markdown")
    from .models import build_from_selector

    model = build_from_selector(args.model)
    realization = _realization_from(args)
    from . import verify

    sections: dict[str, object] = {}
    sections["defining_relations"] = verify.check_defining_relations(model)
    sections["centrality"] = verify.check_centrality(model)
    if args.rank:
        sections["rank"] = verify.central_rank(model)
    if args.orbits:
        sections["orbits"] = verify.orbit_decomposition(model)
    if args.counts:
        sections["generated_operators"] = verify.count_generated_operators(model)
    spectral = None
    if realization is not None:
        from .realizations import spectrum

        spectral = sections["spectrum"] = spectrum(model, realization)

    passed = (
        sections["defining_relations"].overall
        and sections["centrality"].overall
        and (spectral is None or spectral.ok)
    )

    if args.format == "json":
        doc = {
            name: (rep if isinstance(rep, int) else rep.to_dict())
            for name, rep in sections.items()
        }
        doc["passed"] = passed
        text = json.dumps(doc, indent=2, sort_keys=True)
    elif args.format == "csv":
        header = ("check", "left", "right", "kind", "status", "residual")
        rows = _relation_rows(sections["defining_relations"])
        rows += _relation_rows(sections["centrality"])
        if spectral is not None:
            status = "pass" if spectral.ok else "FAIL"
            problems = "; ".join(spectral.problems)
            rows.append(("spectrum", "H", spectral.realization, "multiplicities", status, problems))
        text = _table_csv(header, rows)
    else:
        parts = []
        for name, rep in sections.items():
            if isinstance(rep, int):
                parts.append(f"## generated-operators — {model.spec.selector}\n\ncount: {rep}")
            else:
                parts.append(rep.to_markdown())
        parts.append(f"# result: {'PASS' if passed else 'FAIL'}")
        text = "\n\n".join(parts)
    _emit(text, args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .models import build_from_selector

    model = build_from_selector(args.model)
    from .realizations import spectrum

    rep = spectrum(model, _realization_from(args))
    if args.format == "json":
        text = json.dumps(rep.to_dict(), indent=2, sort_keys=True)
    elif args.format == "csv":
        header = ("energy", "multiplicity", "status")
        rows = [(f"{c.value:.9g}", c.multiplicity, "reported") for c in rep.clusters]
        rows += [(f"{c.value:.9g}", c.multiplicity, "excluded") for c in rep.excluded]
        text = _table_csv(header, rows)
    else:
        text = rep.to_markdown()
    _emit(text, args.out)
    return EXIT_OK if rep.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="markdown", help="output format")
    sub.add_argument("--out", help="write the report to this file")
    sub.add_argument("--config", help="key=value file mirroring the flags")


def _ascii(kind: type) -> Callable[[str], int | float]:
    """An argparse type that reads a number as ``kind`` does, from ASCII
    without ``_`` only: int() and float() also read any Unicode digit and a
    ``_`` between digits."""
    def number(text: str) -> int | float:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)

    number.__name__ = kind.__name__  # argparse's refusal says "invalid int value"
    return number


def _add_realization(sub: argparse.ArgumentParser, cutoff: int | None = None) -> None:
    choice = sub.add_mutually_exclusive_group()
    # argparse takes an option whose value is its default for absent, and --fock 8
    # parses to the very int 8: a text default keeps it in conflict with --grid
    choice.add_argument(
        "--fock", "--cutoff", type=_ascii(int), default=None if cutoff is None else str(cutoff),
        metavar="N", help="truncated Fock cutoff (W=x)",
    )
    choice.add_argument("--grid", action="store_true", help="finite-difference grid realization")
    sub.add_argument("--points", "--grid.points", type=_ascii(int), help="grid points")
    sub.add_argument("--spacing", "--grid.spacing", type=_ascii(float), help="grid spacing")
    sub.add_argument("--W", dest="w", help="superpotential: polynomial in x or @table-file")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="graded-sqm",
        description="Build graded supersymmetric quantum mechanics models and verify them exactly.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_census = subs.add_parser("census", help="algebra counting table")
    p_census.add_argument("--n-from", type=_ascii(int), default=2)
    p_census.add_argument("--n-to", type=_ascii(int), default=10)
    _add_common(p_census)
    p_census.set_defaults(func=cmd_census)

    p_verify = subs.add_parser("verify", help="exact relation and centrality checks")
    p_verify.add_argument("--model", required=True, help="e.g. minimal:n=4, next:n=3, maximal:n=4, n4cl12")
    p_verify.add_argument("--rank", action="store_true", help="add the central-rank report")
    p_verify.add_argument("--orbits", action="store_true", help="add the orbit report")
    p_verify.add_argument("--counts", action="store_true", help="add the generated-operator count")
    _add_realization(p_verify)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_spec = subs.add_parser("spectrum", help="eigenvalue clusters and degeneracies")
    p_spec.add_argument("--model", required=True)
    _add_realization(p_spec, DEFAULT_CUTOFF)
    _add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    return parser, subs.choices


def _glue_w_value(argv: list[str]) -> list[str]:
    """argv with ``--W VALUE`` spelled ``--W=VALUE`` when VALUE starts with
    a single "-": argparse would take a superpotential such as -x for an
    option and report --W as missing its argument."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--W" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--W={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _glue_w_value(sys.argv[1:] if argv is None else list(argv))
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:
            # config flags go ahead of the command line's, so that its flags win
            argv[1:1] = config_flags(argv[1:], commands[argv[0]])
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its error line or the help
        return exc.code
    except (ValueError, OSError) as exc:  # a ModelSpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # raised bare, it has no message
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
