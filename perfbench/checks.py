"""Correctness checks and output digests for one CLI command.

Every check returns a list of problems; an empty list means the command
passed. The digest hashes the command's output files with the fields
that hold wall-clock times removed (``elapsed_*`` in JSON reports, the
``seconds`` columns in compare CSVs), so two runs on the same inputs must
give the same digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from probe import ESTIMATE, LOADER, PAB, PRK, SOLVERS

STOP_REASONS = {"eps-met", "ceiling-hit"}
BASELINE_STOP_REASONS = {"eps-met", "ceiling-hit", "fixed-size"}
COMPARE_ALGORITHMS = ["mcera", "p-rk-fixed", "p-ab-progressive-naive"]
RAW_COLUMNS = ["algorithm", "epsilon", "rep", "samples", "seconds", "sd", "mad"]
TIME_COLUMNS = {"seconds", "seconds_mean", "seconds_std"}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def check_record(record: dict, n: int, m: int) -> list[str]:
    """What the probe saw: the loaded graph and every solver's estimates."""
    problems = []
    results = record["results"]
    loads = results.get(LOADER, [])
    if not loads:
        problems.append("graph was never loaded")
    for load in loads:
        if (load["n"], load["m"]) != (n, m):
            problems.append(f"loaded n, m = {load['n']}, {load['m']}; generated {n}, {m}")
    for name in SOLVERS:
        for res in results.get(name, []):
            if res["size"] != n:
                problems.append(f"{name}: {res['size']} estimates for {n} vertices")
            if not res["finite"] or res["min"] < 0.0:
                problems.append(f"{name}: estimates not finite and >= 0")
            if name in (PRK, PAB) and res["stop_reason"] not in BASELINE_STOP_REASONS:
                problems.append(f"{name}: unknown stop_reason {res['stop_reason']!r}")
    for res in results.get(ESTIMATE, []):
        if res["r_final"] > res["ceiling"]:
            problems.append(f"r_final {res['r_final']} exceeds ceiling {res['ceiling']}")
        if res["stop_reason"] not in STOP_REASONS:
            problems.append(f"unknown stop_reason {res['stop_reason']!r}")
    return problems


def check_approx(path: Path, n: int, m: int) -> tuple[list[str], str | None]:
    """The JSON report of ``percolator approx``."""
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"], None
    problems = []
    if (report.get("n"), report.get("m")) != (n, m):
        problems.append(f"report n, m = {report.get('n')}, {report.get('m')}; generated {n}, {m}")
    values = list(report.get("estimates", {}).values())
    if len(values) != n:
        problems.append(f"{len(values)} estimates for {n} vertices")
    if not all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in values):
        problems.append("estimates not finite and >= 0")
    if report.get("r_final", math.inf) > report.get("ceiling", -1):
        problems.append("r_final exceeds ceiling")
    if report.get("stop_reason") not in STOP_REASONS:
        problems.append(f"unknown stop_reason {report.get('stop_reason')!r}")
    kept = {k: v for k, v in report.items() if not k.startswith("elapsed_")}
    return problems, _sha([json.dumps(kept, sort_keys=True)])


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _drop_time_columns(rows: list[list[str]]) -> list[str]:
    keep = [i for i, col in enumerate(rows[0]) if col not in TIME_COLUMNS]
    return [",".join(row[i] for i in keep) for row in rows]


def check_compare(path: Path, epsilon: float) -> tuple[list[str], str | None, dict]:
    """The raw and aggregated CSVs of ``percolator compare``; returns the
    problems, the digest and the ``sd`` per algorithm."""
    agg_path = path.with_name(path.stem + ".agg" + path.suffix)
    try:
        raw, agg = _read_csv(path), _read_csv(agg_path)
    except OSError as exc:
        return [f"compare output unreadable: {exc}"], None, {}
    problems = []
    if not raw or raw[0] != RAW_COLUMNS:
        return [f"raw header {raw[:1]}"], None, {}
    rows = [dict(zip(RAW_COLUMNS, row)) for row in raw[1:]]
    if [r["algorithm"] for r in rows] != COMPARE_ALGORITHMS:
        problems.append(f"rows {[r['algorithm'] for r in rows]}")
    sd = {}
    for r in rows:
        try:
            eps, r_sd, r_mad = float(r["epsilon"]), float(r["sd"]), float(r["mad"])
            samples = int(r["samples"])
        except ValueError:
            problems.append(f"unparsable row {r}")
            continue
        if eps != epsilon or samples < 1:
            problems.append(f"row {r['algorithm']}: epsilon {eps}, samples {samples}")
        if not (math.isfinite(r_sd) and math.isfinite(r_mad)):
            problems.append(f"row {r['algorithm']}: sd/mad not finite")
        elif r_sd > eps:
            problems.append(f"row {r['algorithm']}: sd {r_sd} exceeds epsilon {eps}")
        sd[r["algorithm"]] = r_sd
    if len(agg) != len(COMPARE_ALGORITHMS) + 1:
        problems.append(f"aggregate has {len(agg) - 1} rows")
    digest = _sha(["raw", *_drop_time_columns(raw), "agg", *_drop_time_columns(agg)])
    return problems, digest, sd
