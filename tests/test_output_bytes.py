"""Same-seed output bytes of the CLI for every algorithm.

``test_golden.py`` digests reports with ``sort_keys``, so it cannot see
key order or float spelling; these digests cover the written files
themselves on the same heavy-tailed graph, with only the timing fields
and columns taken out.
"""

import csv
import hashlib

import numpy as np
import pytest

from percolator import PercolationModel, ScheduleConfig, estimate, random_states, rng
from percolator.cli import main

from gen import build, chung_lu_edges

HUB_EDGES = chung_lu_edges(400, 6, 2.3, seed=5)

APPROX_DIGESTS = {        # (report without elapsed_* lines, .tsv)
    "mcera": (
        "d87d8b227316b8691c68d7324536d30e70e16fddbeb2ceff0a41febddaa99a85",
        "7c2f1b6a3f8e2a12c672f63a2bcdb789d9d5e386087f33f508ae6b31b785b0a9"),
    "p-rk-fixed": (
        "eb2e62b76de8229bc10018361492bfea12223d456f8936da357e703b588095d4",
        "77a9869270bd07fd48df1ec523ecffe5ba0f8c06a801441890fff926a365b924"),
    "p-ab-progressive-naive": (
        "7723319ccc0df49aa3ed621126228c9cbdbc9b0442aa7b66fd115a8c842f7c78",
        "9ca34897c2ebf0333d5b6aee47441b8a2a7d34906f1259cbc6a653a5ce9a1c2e"),
}
COMPARE_DIGESTS = (       # (raw, aggregate), without the seconds* columns
    "91a7f7c591da0ea659a3045730c2b75b105a5df8a26ffe63bbb5af5dc1a31b60",
    "523ac4433c6ea0422108d46141e87dd9fcdcfa681a35342c22fae9a79bf8a6fa")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def hub_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("hub") / "hub.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in HUB_EDGES))
    return str(path)


def without_timings(report_text: str) -> str:
    # each top-level key sits on its own line, and elapsed_* is never the last
    return "".join(line for line in report_text.splitlines(keepends=True)
                   if not line.startswith(' "elapsed_'))


def without_columns(csv_path: str, prefix: str) -> str:
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if not name.startswith(prefix)]
    return "\n".join(",".join(row[j] for j in keep) for row in rows)


def assert_approx_bytes(tmp_path, hub_path, algorithm, threads):
    out = tmp_path / "report.json"
    assert main(["approx", "--graph", hub_path, "--states", "random:9",
                 "--output", str(out), "--algorithm", algorithm, "--seed", "3",
                 "--epsilon", "0.2", "--format", "tsv", "--threads", threads]) == 0
    report_digest, tsv_digest = APPROX_DIGESTS[algorithm]
    assert sha(without_timings(out.read_text())) == report_digest
    assert sha((tmp_path / "report.json.tsv").read_text()) == tsv_digest


@pytest.mark.parametrize("algorithm", sorted(APPROX_DIGESTS))
def test_approx_report_bytes(tmp_path, hub_path, algorithm):
    assert_approx_bytes(tmp_path, hub_path, algorithm, "1")


@pytest.mark.parametrize("algorithm", sorted(APPROX_DIGESTS))
@pytest.mark.parametrize("threads", ["2", "3"])
def test_approx_report_bytes_for_any_thread_count(tmp_path, hub_path, threads, algorithm):
    """``approx`` draws its samples in a pool of ``--threads`` workers and
    writes the one-process bytes, timings apart."""
    assert_approx_bytes(tmp_path, hub_path, algorithm, threads)


def test_compare_csv_bytes(tmp_path, hub_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--graph", hub_path, "--states", "random:9",
                 "--output", str(out), "--epsilon-grid", "0.3", "0.2",
                 "--repetitions", "2", "--seed", "3", "--threads", "1"]) == 0
    assert (sha(without_columns(str(out), "seconds")),
            sha(without_columns(str(tmp_path / "cmp.agg.csv"), "seconds"))) == COMPARE_DIGESTS


@pytest.mark.parametrize("threads", ["2", "3"])
def test_compare_csv_bytes_for_any_thread_count(tmp_path, hub_path, threads):
    """With workers, the exact pass and every sampler run in the pool, and
    the files hold the one-process bytes, seconds apart. The naive
    baseline's doubling steps cover the sample blocks both ways: at eps
    0.3 it grows 16 -> 512, so its first step (16) is smaller than a block
    and its last (256) spans several."""
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--graph", hub_path, "--states", "random:9",
                 "--output", str(out), "--epsilon-grid", "0.3", "0.2",
                 "--repetitions", "2", "--seed", "3", "--threads", threads]) == 0
    assert (sha(without_columns(str(out), "seconds")),
            sha(without_columns(str(tmp_path / "cmp.agg.csv"), "seconds"))) == COMPARE_DIGESTS
    with open(out, newline="") as fh:
        naive = {int(row[3]) for row in csv.reader(fh) if row[0] == "p-ab-progressive-naive"}
    assert 512 in naive and 16 < rng._BLOCK < 256 // 2


def test_as_dict_is_estimates_then_head():
    graph = build(HUB_EDGES)
    model = PercolationModel(random_states(graph.n, seed=9))
    report = estimate(graph, model, ScheduleConfig(epsilon=0.1, delta=0.1), seed=3)
    full, head = report.as_dict(), report.head()
    assert list(full) == ["estimates", *head]
    assert full == {"estimates": report.estimates.tolist(), **head}
    assert "estimates" not in head
    assert isinstance(head["xi_per_class"], list)
    assert head["config"] == ScheduleConfig(epsilon=0.1, delta=0.1).as_dict()
    assert head["config"] is not report.config
    assert np.array_equal(np.asarray(full["estimates"]), report.estimates)
