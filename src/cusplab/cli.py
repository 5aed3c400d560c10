"""Single command-line entry point: every module behind one subcommand.

Runs are configured by an INI file with one section per command (reproducible
research style: no positional parameters beyond the subcommand and paths).
Each run writes ``report.json`` (schema 3, with the originating config
embedded) plus CSV files where a command produces sequences.  Identical
config, seed, machine and BLAS thread count give byte-identical reports.

Exit codes: 0 success (a negative verdict is still success), 2 config error
(nothing written), 3 validity violation, 4 numerical inconclusiveness (the
partial report is written).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from . import geometry
from .cuspmap import (
    distortion_Ia,
    distortion_report,
    ia_exponent_q_threshold,
    ja_exponent_s_bound,
    jacobian_Ja,
)
from .exponents import (
    EmbeddingQuery,
    ValidityError,
    besov_threshold,
    cor2_threshold,
    select_witness,
    thm6_threshold,
    thm8_threshold,
)
from .geometry import Box, CuspDomain, Verdict
from .mollifier import SmoothField, convergence_test
from .pde import (
    CuspSection,
    SolverError,
    l2_error,
    manufactured_rhs,
    solve_dirichlet,
    triangulate,
    write_mesh,
)
from .probe import TrialFamily, probe_scales, run_probe
from .weights import BallFamily, Weight, ap_check, theorem10_condition

__all__ = ["RunConfig", "main", "run"]

SCHEMA_VERSION = 3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDITY = 3
EXIT_INCONCLUSIVE = 4


class ConfigError(ValueError):
    """Unparseable config, unknown command, or bad/missing keys."""


_ALLOWED_KEYS: dict[str, dict[str, set[str]]] = {
    "exponents": {
        "required": {"n", "p", "alpha"},
        "optional": {"gamma", "sigma", "m", "s", "queries_csv"},
    },
    "ap-check": {
        "required": {"n", "p", "alpha"},
        "optional": {"r_min", "r_max", "n_radii", "n_random"},
    },
    "distortion": {
        "required": {"n", "p", "alpha", "gamma", "a", "r"},
        "optional": {"q", "s", "q_steps", "s_steps", "margin"},
    },
    "mollify": {
        "required": {"function", "p", "delta"},
        "optional": {"alpha", "r_max", "n_radii", "cells"},
    },
    "solve": {
        "required": {"domain", "h"},
        "optional": {"alpha", "u_exact", "f", "tol", "eps_geo", "grade", "gamma"},
    },
    "probe": {
        "required": {"n", "p", "alpha", "gamma", "s"},
        "optional": {"family", "eps_max", "eps_min", "points", "beta"},
    },
    "report": {
        "required": {"n", "p", "alpha", "gamma"},
        "optional": {"s", "a", "margin"},
    },
}


@dataclass(frozen=True)
class RunConfig:
    """One validated run: command, typed parameters, output dir, seed."""

    command: str
    parameters: dict[str, Any]
    output_dir: Path
    seed: int = 0

    def echo(self) -> dict:
        return {
            "command": self.command,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "seed": self.seed,
        }


_INTEGER_KEYS = {"n", "m", "n_radii", "n_random", "q_steps", "s_steps", "points", "cells"}
_TEXT_KEYS = {"domain", "family", "function", "u_exact", "f", "queries_csv"}


def _parse_value(key: str, raw: str) -> Any:
    """Text keys stay text, integer keys are ints, other keys finite numbers."""
    raw = raw.strip()
    if key in _TEXT_KEYS:
        return raw
    try:
        return int(raw)
    except ValueError:
        if key in _INTEGER_KEYS:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return value


def _at_least(params: dict, key: str, lower: int, default: int | None = None) -> int:
    """An integer key with its lower bound; a value below it is a validity
    error, so read the key before anything is computed or written."""
    value = params.get(key, default)
    if value < lower:
        raise ValidityError(f"{key} must be >= {lower}, got {value}")
    return value


def load_config(command: str, path: str | Path, out: str | Path, seed: int) -> RunConfig:
    if command not in _ALLOWED_KEYS:
        raise ConfigError(f"unknown command {command!r}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not parser.has_section(command):
        raise ConfigError(f"config has no [{command}] section")
    spec = _ALLOWED_KEYS[command]
    params: dict[str, Any] = {}
    for key, raw in parser.items(command):
        if key not in spec["required"] and key not in spec["optional"]:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        params[key] = _parse_value(key, raw)
    missing = spec["required"] - params.keys()
    if missing:
        raise ConfigError(f"missing required keys for {command!r}: {sorted(missing)}")
    return RunConfig(command, params, Path(out), seed)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(float(obj))
    return obj


def _write_report(config: RunConfig, results: dict) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "config": config.echo(),
        "results": _jsonable(results),
    }
    config.output_dir.mkdir(parents=True, exist_ok=True)
    with open(config.output_dir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_solution(path: Path, vertices: np.ndarray, values: np.ndarray) -> None:
    """``solution.csv`` as :func:`_write_csv` writes it (a float is its
    ``repr``, a line ends in ``\\r\\n``), formatted from the arrays' Python
    lists and written at once."""
    x, y = vertices.T.tolist()
    rows = map("{!r},{!r},{!r}\r\n".format, x, y, values.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("".join(["x,y,u\r\n", *rows]))


def _count_inconclusive(results: Any) -> int:
    found = 0
    stack = [results]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            if item.get("verdict") == Verdict.INCONCLUSIVE:
                found += 1
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _query_from(params: dict) -> EmbeddingQuery:
    if "gamma" in params:
        return EmbeddingQuery(
            n=params["n"],
            p=params["p"],
            alpha=params["alpha"],
            gamma=params["gamma"],
            m=params.get("m", 1),
        )
    if "sigma" in params:
        return EmbeddingQuery.from_sigma(
            params["n"], params["p"], params["alpha"], params["sigma"],
            m=params.get("m", 1),
        )
    raise ConfigError("need gamma or sigma")


def _threshold_block(query: EmbeddingQuery, s=None) -> dict:
    block = {
        "query": query.to_dict(),
        "thm6": thm6_threshold(query).to_dict(),
        "thm8": thm8_threshold(query).to_dict(),
        "cor2": cor2_threshold(query).to_dict(),
        "besov": besov_threshold(query).to_dict(),
    }
    if s is not None:
        w = select_witness(query, s)
        block["s"] = float(s)
        block["witness"] = w.to_dict() if w else None
    return block


def _csv_cells(row: dict, line: int) -> dict[str, Any]:
    """The query cells of one ``queries_csv`` row, read like config values;
    an empty ``m`` or ``s`` cell is absent, any other unreadable cell is a
    config error."""
    cells = {}
    for key in ("n", "p", "alpha", "gamma", "m", "s"):
        raw = row.get(key) or ""  # None in a short row
        if key in ("m", "s") and not raw.strip():
            continue
        try:
            cells[key] = _parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"queries_csv line {line}: {exc}") from None
    return cells


def _run_exponents(config: RunConfig) -> dict:
    params = config.parameters
    if "queries_csv" in params:
        rows_out = []
        try:
            fh = open(params["queries_csv"], newline="")
        except OSError as exc:
            raise ConfigError(f"cannot open queries_csv: {exc}") from exc
        with fh:
            reader = csv.DictReader(fh)
            missing = {"n", "p", "alpha", "gamma"} - set(reader.fieldnames or ())
            if missing:
                raise ConfigError(f"queries_csv lacks columns {sorted(missing)}")
            for row in reader:
                cells = _csv_cells(row, reader.line_num)
                q = EmbeddingQuery(
                    n=cells["n"],
                    p=float(cells["p"]),
                    alpha=float(cells["alpha"]),
                    gamma=float(cells["gamma"]),
                    m=cells.get("m", 1),
                )
                t6 = thm6_threshold(q)
                t8 = thm8_threshold(q)
                bz = besov_threshold(q)
                s_req = float(cells["s"]) if "s" in cells else None
                wit = select_witness(q, s_req) if s_req is not None else None
                rows_out.append(
                    [
                        q.n, float(q.p), float(q.alpha), float(q.gamma), q.m,
                        float(t6.s_max) if t6.valid else "invalid",
                        float(t8.s_max) if t8.valid else "invalid",
                        float(bz.s_max) if bz.valid else "invalid",
                        "" if s_req is None else s_req,
                        "" if wit is None else wit.a,
                        "" if wit is None else wit.q,
                        "" if wit is None else wit.r,
                    ]
                )
        _write_csv(
            config.output_dir / "thresholds.csv",
            ["n", "p", "alpha", "gamma", "m", "thm6", "thm8", "besov", "s", "wit_a", "wit_q", "wit_r"],
            rows_out,
        )
        return {"batch_rows": len(rows_out), "output": "thresholds.csv"}
    query = _query_from(params)
    return _threshold_block(query, params.get("s"))


def _run_ap_check(config: RunConfig) -> dict:
    params = config.parameters
    n = _at_least(params, "n", 1)
    w = Weight.polynomial(float(params["alpha"]), n)
    family = BallFamily(
        dim=n,
        r_min=float(params.get("r_min", 1e-3)),
        r_max=float(params.get("r_max", 1.0)),
        n_radii=_at_least(params, "n_radii", 1, 7),
        n_random=_at_least(params, "n_random", 0, 8),
        seed=config.seed,
    )
    report = ap_check(w, float(params["p"]), family)
    return {"ap": report.to_dict()}


# a threshold can sit outside its exponent's valid range, 1 <= q < p and
# s < r (at a = 1 it does), so every exponent chosen from one is clipped
# into it; both sides of a threshold can then share one exponent
def _q_in(q: float, p: float) -> float:
    return min(max(1.0, q), p * (1 - 1e-9))


def _s_in(s: float, r: float) -> float:
    return min(s, r * (1 - 1e-9))


def _run_distortion(config: RunConfig) -> dict:
    params = config.parameters
    n = _at_least(params, "n", 2)
    q_steps = _at_least(params, "q_steps", 0, 0)
    s_steps = _at_least(params, "s_steps", 0, 0)
    gamma = float(params["gamma"])
    domain = CuspDomain.isotropic(n, gamma)
    p, alpha, a, r = (float(params[k]) for k in ("p", "alpha", "a", "r"))
    q_star = ia_exponent_q_threshold(n, p, alpha, gamma, a)
    s_star = ja_exponent_s_bound(n, r, alpha, gamma, a)
    results: dict[str, Any] = {
        "q_threshold": q_star,
        "s_bound": s_star,
    }
    if "q" in params and "s" in params:
        rep = distortion_report(p, float(params["q"]), r, float(params["s"]), a, alpha, domain)
        results["report"] = rep.to_dict()
    margin = float(params.get("margin", 0.05))
    if q_steps:
        qs = np.linspace(_q_in(q_star * (1 - 3 * margin), p), _q_in(q_star * (1 + 3 * margin), p), q_steps)
        rows = []
        for qv in qs:
            v = distortion_Ia(p, float(qv), a, alpha, domain)
            rows.append([float(qv), v.verdict.value, v.value])
        _write_csv(config.output_dir / "ia_sweep.csv", ["q", "verdict", "value"], rows)
        results["ia_sweep"] = {"rows": len(rows), "output": "ia_sweep.csv"}
    if s_steps:
        ss = np.linspace(_s_in(s_star * (1 - 3 * margin), r), _s_in(s_star * (1 + 3 * margin), r), s_steps)
        rows = []
        for sv in ss:
            v = jacobian_Ja(r, float(sv), a, alpha, domain)
            rows.append([float(sv), v.verdict.value, v.value])
        _write_csv(config.output_dir / "ja_sweep.csv", ["s", "verdict", "value"], rows)
        results["ja_sweep"] = {"rows": len(rows), "output": "ja_sweep.csv"}
    if "q" in params and "s" not in params:
        v = distortion_Ia(p, float(params["q"]), a, alpha, domain)
        results["Ia"] = v.to_dict()
    if "s" in params and "q" not in params:
        v = jacobian_Ja(r, float(params["s"]), a, alpha, domain)
        results["Ja"] = v.to_dict()
    return results


def _run_mollify(config: RunConfig) -> dict:
    params = config.parameters
    delta = float(params["delta"])
    r_max = float(params.get("r_max", delta / 1.5))
    try:
        field = SmoothField.from_string(params["function"], 2)
    except ValueError as exc:
        raise ConfigError(f"mollify: {exc}") from exc
    n_radii = _at_least(params, "n_radii", 1, 4)
    cells = _at_least(params, "cells", 1, 64)
    radii = [r_max * 2.0**-k for k in range(n_radii)]
    region = Box((0.0, 0.0), (1.0, 1.0))
    weight = None
    if "alpha" in params:
        weight = Weight.polynomial(float(params["alpha"]), 2)
    seq = convergence_test(
        field, weight, float(params["p"]), delta, radii, region,
        cells=cells,
    )
    _write_csv(config.output_dir / "convergence.csv", ["r", "norm"], [[r, v] for r, v in seq])
    return {
        "radii": [r for r, _ in seq],
        "norms": [v for _, v in seq],
        "decreasing": all(seq[i + 1][1] <= seq[i][1] for i in range(len(seq) - 1)),
    }


def _run_solve(config: RunConfig) -> dict:
    params = config.parameters
    h = float(params["h"])
    tol = float(params.get("tol", 1e-10))
    if not tol > 0.0:
        raise ValidityError(f"tol must be > 0, got {tol:g}")
    grade = params.get("grade")
    if params["domain"] == "square":
        region: Box | CuspSection = Box((0.0, 0.0), (1.0, 1.0))
    elif params["domain"] == "cusp":
        domain = CuspDomain.isotropic(2, float(params.get("gamma", 3.0)))
        region = CuspSection(domain, eps=float(params.get("eps_geo", 1e-3)))
    else:
        raise ConfigError("domain must be 'square' or 'cusp'")
    alpha = params.get("alpha")
    if ("u_exact" in params) == ("f" in params):
        raise ConfigError("solve needs one of u_exact and f")
    exact = None
    try:
        if "u_exact" in params:
            w_text = f"(x**2+y**2)**({float(alpha) / 2.0!r})" if alpha is not None else "1"
            exact, _, f_fn = manufactured_rhs(params["u_exact"], w_text)
        else:
            f_fn = SmoothField.from_string(params["f"], 2)
    except ValueError as exc:
        raise ConfigError(f"solve: {exc}") from exc
    mesh = triangulate(region, h, grade_exponent=float(grade) if grade else None)
    weight = Weight.polynomial(float(alpha), 2) if alpha is not None else 1.0
    results: dict[str, Any] = {"vertices": len(mesh.vertices), "h": mesh.h}
    if isinstance(weight, Weight):
        # decide the solvability integral on a region with exact radial
        # reduction: a ball covering the square, or the cusp itself
        if isinstance(region, CuspSection):
            check_region = region.domain
        else:
            check_region = geometry.Ball((0.0, 0.0), math.sqrt(2.0))
        cond = theorem10_condition(weight, check_region)
        results["solvability_condition"] = cond.to_dict()
    sol = solve_dirichlet(mesh, weight, f_fn, tol=tol)
    results["residual"] = sol.residual
    results["energy"] = sol.energy
    if exact is not None:
        results["l2_error"] = l2_error(sol, exact)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    write_mesh(mesh, config.output_dir / "mesh.txt")
    _write_solution(config.output_dir / "solution.csv", mesh.vertices, sol.values)
    return results


#: most scales a probe takes: each is a few ms of work, and a schedule of
#: this many already spans its decades finely
_MAX_PROBE_POINTS = 1000


def _run_probe(config: RunConfig) -> dict:
    params = config.parameters
    query = _query_from(params)
    family = params.get("family", "tip_bump")
    try:
        eps_max = float(params.get("eps_max", 1e-1))
        eps_min = float(params.get("eps_min", 1e-5))
        if min(eps_max, eps_min) <= 0.0:
            raise ValueError("scales must be positive and finite")
        points = params.get("points", 9)
        if points > _MAX_PROBE_POINTS:  # before the schedule is allocated
            raise ValueError(f"points must be at most {_MAX_PROBE_POINTS}, got {points}")
        epsilons = probe_scales(np.geomspace(eps_max, eps_min, points))
        beta = float(params["beta"]) if "beta" in params else None
        TrialFamily(family, beta=beta)  # rejects an unknown kind, or a spike without beta > 0
    except ValueError as exc:
        raise ConfigError(f"probe: {exc}") from exc
    report = run_probe(
        query,
        float(params["s"]),
        family_kind=family,
        epsilons=epsilons,
        beta=beta,
    )
    _write_csv(
        config.output_dir / "probe.csv",
        ["epsilon", "ratio"],
        [[e, r] for e, r in report.ratios],
    )
    return {"probe": report.to_dict()}


def _run_report(config: RunConfig) -> dict:
    params = config.parameters
    query = _query_from(params)
    n, p, alpha, gamma = query.n, float(query.p), float(query.alpha), float(query.gamma)
    results = _threshold_block(query, params.get("s"))
    w = Weight.polynomial(alpha, n)
    results["ap"] = ap_check(w, p, BallFamily(dim=n, seed=config.seed)).to_dict()
    a = float(params.get("a", 0.5))
    margin = float(params.get("margin", 0.05))
    domain = CuspDomain.isotropic(n, gamma)
    q_star = ia_exponent_q_threshold(n, p, alpha, gamma, a)
    r_ref = 3.0
    s_star = ja_exponent_s_bound(n, r_ref, alpha, gamma, a)
    block: dict[str, Any] = {"a": a, "q_threshold": q_star, "s_bound": s_star}
    for side, sign in (("below", -1.0), ("above", 1.0)):
        q = _q_in(q_star * (1 + sign * margin), p)
        s = _s_in(s_star * (1 + sign * margin), r_ref)
        block[f"Ia_{side}"] = {"q": q, **distortion_Ia(p, q, a, alpha, domain).to_dict()}
        block[f"Ja_{side}"] = {"s": s, **jacobian_Ja(r_ref, s, a, alpha, domain).to_dict()}
    results["distortion"] = block
    return results


_COMMANDS = {
    "exponents": _run_exponents,
    "ap-check": _run_ap_check,
    "distortion": _run_distortion,
    "mollify": _run_mollify,
    "solve": _run_solve,
    "probe": _run_probe,
    "report": _run_report,
}


def run(config: RunConfig) -> int:
    """Execute one validated run; returns the process exit code."""
    try:
        results = _COMMANDS[config.command](config)
    except (ValidityError, ValueError, ZeroDivisionError, SolverError) as exc:
        if isinstance(exc, ConfigError):
            raise
        print(f"validity error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    _write_report(config, results)
    if _count_inconclusive(_jsonable(results)):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="cusplab",
        description="weighted Sobolev embedding laboratory for cusp domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI file with a [%s] section" % name)
        p.add_argument("--out", required=True, help="output directory for report.json and CSVs")
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.command, args.config, args.out, args.seed)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
