"""The paired benchmark tool's statistic and its refusal of a bad run.

`tools/bench_pairs.py` compares two trees on per-pair benchmark results.
The statistic is pinned on the committed `BENCH_2b5817a.json`; the refusals
run a stand-in `perfbench/run.py`, so no benchmark runs here.
"""

import json
import shutil

import pytest

from helpers import ROOT, load_tool

bench_pairs = load_tool("bench_pairs")


@pytest.mark.parametrize(
    "workload, ratio, better, p, low, high",
    [
        ("pipeline", 0.867, 9, 0.021, 0.776, 0.929),
        ("sweep", 0.968, 6, 0.754, 0.924, 1.066),
        ("train-gen", 0.996, 7, 0.344, 0.985, 1.030),
    ],
)
def test_run_s_p50_statistic_on_a_committed_record(workload, ratio, better, p, low, high):
    entries = json.loads((ROOT / "BENCH_2b5817a.json").read_text())["workloads"][workload]
    s = bench_pairs.pair_stats(
        bench_pairs.metric_values(entries, "parent", "run_s_p50"),
        bench_pairs.metric_values(entries, "change", "run_s_p50"), "lower",
    )
    got = (round(s.ratio, 3), s.better, s.pairs, round(s.p, 3), round(s.low, 3), round(s.high, 3))
    assert got == (ratio, better, 10, p, low, high)


def test_ties_count_for_neither_side():
    s = bench_pairs.pair_stats([1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 3.0, 1.0], "higher")
    assert (s.better, s.pairs, s.p) == (1, 4, 1.0)
    assert bench_pairs.sign_test(0, 0) == 1.0
    assert bench_pairs.sign_test(10, 0) == pytest.approx(2 / 1024)


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([1.0, 1.0, 1.1, 1.1], [1.3, 1.3, 1.4, 1.4], "lower", "worse"),
        ([1.0, 1.0, 1.1, 1.1], [0.7, 0.7, 0.7, 0.7], "higher", "worse"),
        ([1.0, 1.0, 1.1, 1.1], [1.05, 1.05, 1.1, 1.1], "lower", "within"),
        ([0.6, 0.8, 1.2, 1.4], [0.7, 0.8, 1.2, 1.3], "lower", "unresolved"),
        ([1.0, 1.5, 2.0, 2.5], [0.5, 0.6, 0.7, 0.8], "lower", "within"),
    ],
    ids=["slower", "lower-of-higher", "inside-bound", "wide-spread", "every-run-better"],
)
def test_verdict_against_the_bound(parent, change, better, expected):
    assert bench_pairs.verdict(parent, change, better, 0.25)[1] == expected


def test_fewer_than_ten_pairs_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["a", "b", "--seed", "1", "--pairs", "9"])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("raise SystemExit(3)", "train-gen seed 1 in parent exited 3"),
        ("print('only one line')", "train-gen seed 1 in parent printed a malformed last line"),
        ("print(json.dumps({'record': {'failed_frac': 0, 'param_sha256': {}}}))\n"
         "print(json.dumps({'metrics': {}}))",
         "train-gen seed 1 in parent printed a malformed last line: KeyError('setup_s')"),
    ],
    ids=["exit-non-zero", "one-line", "no-metric"],
)
def test_bad_run_ends_in_one_error_line_and_exit_2(tmp_path, monkeypatch, capsys, body, message):
    def export(side, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "run.py").write_text(f"import json\n{body}\n")

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "label", lambda side: side)
    argv = ["a", "b", "--workloads", "train-gen", "--seed", "1"]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {message}"), err
    assert err.count("error:") == 1
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_an_existing_record_is_never_run_over(tmp_path, monkeypatch, capsys):
    record = tmp_path / "BENCH_a.json"
    record.write_text("kept\n")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "label", lambda side: side)
    assert bench_pairs.main(["a", "b", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: BENCH_a.json exists; move it away to record a new run\n"
    assert record.read_text() == "kept\n"
