"""Command-line front end: exact tables, limit tables, MC runs, verification.

Every run writes a '#' metadata header (version, command, parameters, wall
time) followed by a CSV or JSON table.  Identical command and seed give
byte-identical data sections; only the wall-time metadata line varies.
Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import genfun, grandmoments, numerics, sampler, trees, verify
from .families import TreeFamily, get_family
from .partitions import canonical_partition, weight
from .sampler import SeedSpec

VERSION = "0.1.0"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _parse_partition(text: str, allow_zero: bool) -> tuple[int, ...]:
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid partition string {text!r}") from exc
    return canonical_partition(parts, allow_zero=allow_zero)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid integer list {text!r}") from exc


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: either comma floats '0,0.5,1' or linspace 'lo:hi:count'."""
    if ":" in text:
        bits = text.split(":")
        if len(bits) != 3:
            raise ValueError(f"grid range must be lo:hi:count, got {text!r}")
        lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
        if count < 1:
            raise ValueError("grid count must be positive")
        return tuple(float(v) for v in np.linspace(lo, hi, count))
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid grid {text!r}") from exc


def _factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _quartic_root_split(base: Fraction, power: int) -> tuple[Fraction, Fraction]:
    """Split base**power into (outside, residual) with outside**4 * residual
    = base**power and residual fourth-power-free."""
    outside = Fraction(1)
    residual = Fraction(1)
    for value, inverted in ((base.numerator, False), (base.denominator, True)):
        for prime, exp in _factorization(value).items():
            total = exp * power
            quot, rem = divmod(total, 4)
            o = Fraction(prime) ** quot
            r = Fraction(prime) ** rem
            if inverted:
                outside /= o
                residual /= r
            else:
                outside *= o
                residual *= r
    return outside, residual


def _is_square(frac: Fraction) -> bool:
    ni = math.isqrt(frac.numerator)
    di = math.isqrt(frac.denominator)
    return ni * ni == frac.numerator and di * di == frac.denominator


def _exact_normalized_string(fam: TreeFamily, lam: Sequence[int], n: int, mean_ps: Fraction) -> str:
    """Exact normalized moment as a string: a fraction when the quartic root
    resolves, otherwise 'r*sqrt(v)' or 'r*(v)^(1/4)' with exact r and v."""
    if mean_ps == 0:
        return "0"
    nodes = fam.node_count(n)
    w = weight(lam)
    rat = mean_ps / Fraction(nodes) ** len(lam)
    outside, residual = _quartic_root_split(Fraction(fam.gamma4) / nodes, w)
    rat *= outside
    if residual == 1:
        return str(rat)
    if _is_square(residual):
        root = Fraction(math.isqrt(residual.numerator), math.isqrt(residual.denominator))
        return f"{rat}*sqrt({root})"
    return f"{rat}*({residual})^(1/4)"


def _emit(args: argparse.Namespace, meta: dict, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    for row in rows:
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise numerics.ToleranceError(
                    f"non-finite value leaked into output row {row!r}"
                )
    if args.format == "csv":
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}: {value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [_fmt_float(c) if isinstance(c, float) else str(c) for c in row]
            )
        text = buf.getvalue()
    else:
        doc = {
            "meta": {k: str(v) for k, v in meta.items()},
            "columns": list(columns),
            "rows": [
                [c if isinstance(c, (int, float)) else str(c) for c in row]
                for row in rows
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _h_moments_exact(args) -> tuple[list[str], list[list], dict, int]:
    fam = get_family(args.family)
    lam = _parse_partition(args.lam, allow_zero=False)
    sizes = _parse_int_list(args.n)
    limit = grandmoments.limit_moment_ise(lam)
    for n in sizes:
        if not fam.valid_size(n):
            raise ValueError(f"size {n} is not valid for family {fam.name}")
    rows = []
    for n in sizes:
        em = genfun.exact_moment(fam, lam, n)
        gap = abs(em.normalized / limit - 1.0) if limit != 0 else abs(em.normalized)
        rows.append(
            [
                n,
                _exact_normalized_string(fam, lam, n, em.exact),
                em.normalized,
                limit,
                gap,
            ]
        )
    meta = {"family": fam.name, "lambda": args.lam, "n": args.n}
    return (["n", "exact", "normalized", "limit", "rel_gap"], rows, meta, 0)


def _h_grand_moments(args) -> tuple[list[str], list[list], dict, int]:
    kind = args.kind.lower()
    rows = []
    for text in args.lam:
        lam = _parse_partition(text, allow_zero=True)
        if kind == "ise":
            exact = grandmoments.c_lambda(lam)
            limit = grandmoments.limit_moment_ise(lam)
        else:
            exact = grandmoments.d_lambda(lam)
            limit = grandmoments.limit_moment_exc(lam)
        rows.append([",".join(map(str, lam)), str(exact), limit])
    meta = {"kind": kind, "lambda": " ".join(args.lam)}
    return (["lambda", "exact", "limit"], rows, meta, 0)


def _h_profile(args) -> tuple[list[str], list[list], dict, int]:
    fam = get_family(args.family)
    if not fam.has_sampler:
        raise ValueError(f"no sampler is defined for the {fam.name} family")
    n = args.n
    if n < 16:
        raise ValueError("profile needs n >= 16 for the rescaling to mean anything")
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    grid = _parse_grid(args.grid)
    tol = _tol(args)
    base = SeedSpec(args.seed)
    vals = np.empty((args.samples, len(grid)))
    for i in range(args.samples):
        tree = sampler.sample_tree(fam, n, base.stream(i))
        prof = trees.vertical_profile(tree)
        vals[i] = [sampler.rescaled_density(prof, fam, x) for x in grid]
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(args.samples)
    rows = [
        [float(x), float(means[j]), float(ses[j]), numerics.mean_density_quadrature(x, tol)]
        for j, x in enumerate(grid)
    ]
    meta = {
        "family": fam.name,
        "n": n,
        "samples": args.samples,
        "seed": args.seed,
        "grid": args.grid,
    }
    return (["x", "mean_g", "stderr", "mean_density"], rows, meta, 0)


def _h_mgf(args) -> tuple[list[str], list[list], dict, int]:
    tol = _tol(args)
    avals = _parse_grid(args.a)
    rows = [[float(a), *numerics.mgf_L_with_error(args.x, float(a), tol)] for a in avals]
    meta = {"x": args.x, "a": args.a}
    return (["a", "L", "err"], rows, meta, 0)


def _h_mean_density(args) -> tuple[list[str], list[list], dict, int]:
    tol = _tol(args)
    grid = _parse_grid(args.grid)
    rows = []
    for lam_x in grid:
        q, err = numerics.mean_density_quadrature_with_error(lam_x, tol)
        s = numerics.mean_density_series(lam_x)
        rows.append([float(lam_x), q, s, abs(q - s), err])
    meta = {"grid": args.grid}
    return (["lambda", "quadrature", "series", "gap", "err"], rows, meta, 0)


def _h_fourier_bound(args) -> tuple[list[str], list[list], dict, int]:
    fam = get_family(args.family)
    sizes = _parse_int_list(args.n)
    grid = _parse_grid(args.grid)
    rows = []
    for n in sizes:
        if not fam.valid_size(n):
            raise ValueError(f"size {n} is not valid for family {fam.name}")
        vals = [genfun.lemma_L3_ratio(fam, n, float(u)) for u in grid]
        j = int(np.argmax(vals))
        rows.append([n, float(vals[j]), float(grid[j])])
    meta = {"family": fam.name, "n": args.n, "grid": args.grid}
    return (["n", "max_ratio", "u_at_max"], rows, meta, 0)


def _h_dyck_moments(args) -> tuple[list[str], list[list], dict, int]:
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    base = SeedSpec(args.seed)
    lams = args.lam or ["1"]
    rows = []
    for i, text in enumerate(lams):
        lam = _parse_partition(text, allow_zero=False)
        est = sampler.empirical_dyck_moment(
            args.n, lam, args.samples, base.stream(1000 * i)
        )
        limit = grandmoments.limit_moment_exc(lam)
        rows.append([",".join(map(str, lam)), est.mean, est.stderr, limit])
    meta = {
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "lambda": " ".join(lams),
    }
    return (["lambda", "mean", "stderr", "limit"], rows, meta, 0)


def _h_verify(args) -> tuple[list[str], list[list], dict, int]:
    results = verify.run(args.level)
    rows = [
        [r.cid, r.name, "pass" if r.passed else "fail", r.detail, float(r.elapsed)]
        for r in results
    ]
    code = 0 if all(r.passed for r in results) else 1
    meta = {"level": args.level}
    return (["criterion", "name", "status", "detail", "seconds"], rows, meta, code)


def _tol(args) -> float:
    if not args.tol > 0:
        raise ValueError("--tol must be positive")
    return args.tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iselab",
        description="Exact and Monte Carlo tables for labelled-tree profile limits.",
    )
    parser.add_argument("--version", action="version", version=f"iselab {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = subs.add_parser("moments-exact", help="exact normalized moment table")
    sp.add_argument("--family", required=True)
    sp.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 1,1,2")
    sp.add_argument("--n", required=True, help="comma list of sizes")
    common(sp)
    sp.set_defaults(handler=_h_moments_exact)

    sp = subs.add_parser("grand-moments", help="grand-moment constants and limits")
    sp.add_argument("--kind", choices=("ise", "exc"), required=True)
    sp.add_argument(
        "--lambda", dest="lam", action="append", required=True, help="repeatable partition"
    )
    common(sp)
    sp.set_defaults(handler=_h_grand_moments)

    sp = subs.add_parser("profile", help="MC mean rescaled profile vs mean density")
    sp.add_argument("--family", default="binary")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", default="0:2:9")
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(handler=_h_profile)

    sp = subs.add_parser("mgf", help="moment generating function of the density")
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--a", required=True, help="comma list or lo:hi:count")
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(handler=_h_mgf)

    sp = subs.add_parser("mean-density", help="mean density by quadrature and series")
    sp.add_argument("--grid", required=True, help="comma list or lo:hi:count")
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(handler=_h_mean_density)

    sp = subs.add_parser("fourier-bound", help="Fourier second-moment ratio maxima")
    sp.add_argument("--family", default="binary")
    sp.add_argument("--n", required=True, help="comma list of sizes")
    sp.add_argument("--grid", default="0:3:200")
    common(sp)
    sp.set_defaults(handler=_h_fourier_bound)

    sp = subs.add_parser("dyck-moments", help="Dyck-path MC vs excursion limits")
    sp.add_argument("--n", type=int, default=2048)
    sp.add_argument(
        "--lambda", dest="lam", action="append", help="repeatable partition"
    )
    sp.add_argument("--samples", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(handler=_h_dyck_moments)

    sp = subs.add_parser("verify", help="run the acceptance battery")
    sp.add_argument("--level", choices=("quick", "full"), default="full")
    common(sp)
    sp.set_defaults(handler=_h_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        columns, rows, meta_extra, code = args.handler(args)
    except (ValueError, KeyError) as exc:
        print(f"iselab: error: {exc}", file=sys.stderr)
        return 2
    except numerics.ToleranceError as exc:
        print(f"iselab: numeric failure: {exc}", file=sys.stderr)
        return 3
    meta = {"version": VERSION, "command": args.command}
    meta.update(meta_extra)
    meta["wall_ms"] = f"{(time.perf_counter() - t0) * 1000.0:.1f}"
    try:
        _emit(args, meta, columns, rows)
    except numerics.ToleranceError as exc:
        print(f"iselab: numeric failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
