"""The mutation matrix: which tests kill each broken estimator.

Usage:
    python tests/mutants.py [NAME ...]      (default: every mutant, in order)

Each mutant of ``CATALOGUE`` breaks one thing in one file of
``src/percolator``: it lists exact source snippets, each found once in
that file, with their replacements, and says what it breaks. For each
mutant the runner copies ``src/``, ``tests/``, ``perfbench/``,
``BENCHMARK.json`` and ``pyproject.toml`` to a fresh temporary directory
(the tests read the last three), applies the mutant there, and runs
tier-1 in that copy without ``test_golden.py`` and
``test_output_bytes.py``, whose pinned digests fail any change of bits,
and without ``test_mutants.py``, which fails on every applied mutant.
The mutants run one after another, and the repo's own files are never
written. It prints one Markdown row per mutant: killed or not, and the
failing tests, each marked ``replay`` when it compares bits with a
replica, a pinned value or a mechanism (the hand-kept ``REPLAYS``), or
``check`` when it tests a property that a broken estimator fails.

Not a test module: pytest does not collect it. ``test_mutants.py`` checks
that every snippet occurs exactly once, so a refactor that moves one
breaks the catalogue loudly and its change updates the mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "BENCHMARK.json", "pyproject.toml")
# the pinned digests fail any change of bits; the catalogue's own check fails every mutant
LEFT_OUT = ("tests/test_golden.py", "tests/test_output_bytes.py", "tests/test_mutants.py")
TIMEOUT_S = 1800


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                           # under src/percolator
    edits: tuple[tuple[str, str], ...]  # (snippet found once in the file, its replacement)
    breaks: str


CATALOGUE = (
    Mutant("M1", "sampling.py",
           (('arc = np.minimum(cum.searchsorted(uniforms[::d] * cum[-1], side="right"), '
             'cum.size - 1)',
             'arc = np.minimum((uniforms[::d] * cum.size).astype(np.int64), cum.size - 1)'),),
           "a path's candidate arc is picked uniformly, not by its path count"),
    Mutant("M2", "progressive.py",
           (("                if (xi <= config.epsilon).all() or state.r >= ceiling:",
             "                top = np.flatnonzero(occupied)[0]\n"
             "                xi[top] = min(xi[top], config.epsilon)\n"
             "                if (xi <= config.epsilon).all() or state.r >= ceiling:"),),
           "the top occupied class is reported as met, so the run stops at its first evaluation"),
    Mutant("M3", "progressive.py",
           (("return self.delta / 2.0 ** (i + 1)", "return self.delta / 2.0 ** i"),),
           "delta_i = delta / 2^i: the iterations' shares sum to delta, not delta / 2"),
    Mutant("M4", "progressive.py",
           (("ceiling = sufficient_sample_size(vhat, rho(), config.epsilon, config.delta / 2.0)",
             "ceiling = sufficient_sample_size(vhat, rho(), config.epsilon, "
             "config.delta / 2.0) // 2"),
            ("vhat, rho(), config.epsilon, config.delta / 2.0))",
             "vhat, rho(), config.epsilon, config.delta / 2.0) // 2)")),
           "both ceilings inside estimate are halved"),
    Mutant("M5", "rng.py",
           (("k = np.arange(c, dtype=np.uint64)[None, :]",
             "k = np.zeros(c, dtype=np.uint64)[None, :]"),),
           "one Rademacher sign per sample, shared by all c trials"),
    Mutant("M6", "sampling.py",
           (("multi = (last_pred > first_pred).nonzero()[0]",
             "multi = (last_pred < first_pred).nonzero()[0]"),),
           "a walker always takes its first predecessor"),
    Mutant("M7", "progressive.py",
           (("ceiling = sufficient_sample_size(vhat, rho(), config.epsilon, config.delta / 2.0)",
             "ceiling = sufficient_sample_size(vhat, rho(), config.epsilon, config.delta / 4.0)"),
            ("vhat, rho(), config.epsilon, config.delta / 2.0))",
             "vhat, rho(), config.epsilon, config.delta / 4.0))")),
           "both ceilings inside estimate are sized at delta / 4, not delta / 2"),
    Mutant("M8", "progressive.py",
           (("for j in np.flatnonzero(occupied):", "for j in np.flatnonzero(occupied)[1:]:"),),
           "the top occupied class is never evaluated: its xi stays 1"),
    Mutant("M9", "graph.py",
           (("            if 8 * sum(level.size for level in touched) >= self.n:",
             "            if touched is self.touched[1]:\n"
             "                touched.clear()\n"
             "                continue\n"
             "            if 8 * sum(level.size for level in touched) >= self.n:"),),
           "a workspace reset skips the z row: its stale labels reach the next pair search"),
    Mutant("M10", "sampling.py",
           (("lo = np.where(uz, graph.fwd_offsets[uv], graph.bwd_offsets[uv])\n"
             "            size = np.where(uz, graph.out_degrees[uv], graph.in_degrees[uv])",
             "lo = np.where(~uz, graph.fwd_offsets[uv], graph.bwd_offsets[uv])\n"
             "            size = np.where(~uz, graph.out_degrees[uv], graph.in_degrees[uv])"),
            ("nbrs = (np.where(nz, graph.fwd_targets[arcs], graph.bwd_targets[arcs])",
             "nbrs = (np.where(~nz, graph.fwd_targets[arcs], graph.bwd_targets[arcs])")),
           "a directed walk reads the wrong CSR side: successors on the s side, "
           "predecessors on the z side"),
    Mutant("M11", "sampling.py",
           (("counts[kept] * (1.0 / len(bag.paths))", "counts[kept] * (1.0 / bag.requested)"),),
           "a bag's estimate is divided by the requested path count, not the drawn one "
           "(they differ only on capped bags)"),
)

# Killing tests (by function name) that compare bits with a replica, a
# pinned value or a mechanism rather than check a property.
REPLAYS = frozenset({
    # a replica or an oracle of the same arithmetic
    "test_sample_paths_matches_per_path_draws", "test_walk_matches_per_neighbour_loop",
    "test_walk_subtracts_predecessors_in_order", "test_bag_estimate_matches_dict_oracle",
    "test_prk_sample_matches_dict_oracle", "test_fold_matches_per_vertex_loop",
    "test_pab_sample_matches_oracle_on_random_graphs", "test_search_matches_reference_bit_for_bit",
    "test_workspace_reuse_matches_fresh_searches", "test_pab_sample_takes_the_dag_from_2_53_paths",
    "test_rho_and_cap_events_count_every_sample",
    "test_approx_prk_fixed_refuses_exact_pass_over_budget",
    # a pinned or worked value
    "test_config_derived_quantities", "test_numeric_supremum_sets_the_ceiling_on_two_edges",
    "test_pab_naive_evaluates_only_where_it_could_stop",
    "test_no_exact_vertex_diameter_bounds_a_disconnected_graph",
    # a mechanism: the same report another way, or the reservations and folds made
    "test_floor_skip_keeps_the_golden_report", "test_floor_skip_keeps_eps_met_reports",
    "test_runs_that_cannot_stop_early_reserve_their_ceiling_first",
    "test_pooled_runs_reserve_nothing_past_their_last_sample", "test_deterministic_given_seed",
    "test_split_index_range_draws_the_same_samples", "test_threads_default_to_all_cores",
    "test_benchmark_harness_selfcheck_passes",
})


def mutated(mutant: Mutant, source: str) -> str:
    """``source`` with ``mutant``'s edits; each snippet must occur exactly once."""
    for snippet, replacement in mutant.edits:
        found = source.count(snippet)
        if found != 1:
            raise ValueError(f"{mutant.name}: snippet found {found} times in {mutant.file}: "
                             f"{snippet!r}")
        source = source.replace(snippet, replacement)
    return source


def run(mutant: Mutant) -> tuple[list[str], float]:
    """The tests that fail on a copy with ``mutant`` applied, and the run's seconds."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".bench_work"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / "src" / "percolator" / mutant.file
        target.write_text(mutated(mutant, target.read_text()))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        start = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors",
                 *(f"--ignore={path}" for path in LEFT_OUT)],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"(tier-1 did not finish within {TIMEOUT_S} s)"], time.monotonic() - start
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
        if done.returncode not in (0, 1) and not failed:
            failed = [f"(pytest exited {done.returncode})"]
        return failed, time.monotonic() - start


def kind(test_id: str) -> str:
    name = test_id.split("::")[-1].split("[")[0]
    return "replay" if name in REPLAYS else "check"


def main(argv: list[str]) -> int:
    chosen = [m for m in CATALOGUE if not argv or m.name in argv]
    if len(chosen) < len(set(argv)):
        print(f"unknown mutant among {argv}; known: {[m.name for m in CATALOGUE]}",
              file=sys.stderr)
        return 2
    print("| mutant | breaks | killed | killing tests | s |")
    print("|---|---|---|---|---|")
    for mutant in chosen:
        failed, seconds = run(mutant)
        tests = "; ".join(f"`{t}` ({kind(t)})" for t in failed) or "none"
        print(f"| {mutant.name} | {mutant.breaks} | {'yes' if failed else 'no'} | {tests} "
              f"| {seconds:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
