import json

import compare


class TestVerdict:
    def test_unchanged_within_the_bound(self):
        a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        b = [103, 104, 102, 103, 105, 101, 103, 104, 102, 103]
        assert compare.verdict(a, b, 0.1, "lower") == "unchanged"

    def test_worse_beyond_the_bound(self):
        a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        b = [x * 1.2 for x in a]
        assert compare.verdict(a, b, 0.1, "lower") == "worse"
        assert compare.verdict(b, a, 0.1, "higher") == "worse"

    def test_better_needs_nine_tenths_of_pairs_and_the_parent_spread(self):
        a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        b = [x - 5 for x in a]
        assert compare.verdict(a, b, 0.1, "lower") == "better"
        b_two_losses = list(b)
        b_two_losses[0], b_two_losses[1] = 101, 102
        assert compare.verdict(a, b_two_losses, 0.1, "lower") == "unchanged"
        b_small = [x - 0.5 for x in a]  # wins every pair, within the spread
        assert compare.verdict(a, b_small, 0.1, "lower") == "unchanged"

    def test_wide_spread_is_unresolved(self):
        a = [100, 140, 80, 120, 90, 130, 70, 110]
        b = [x * 1.15 for x in a]
        assert compare.verdict(a, b, 0.1, "lower") == "unresolved"

    def test_wide_spread_with_full_separation_is_decided(self):
        a = [100, 130, 80, 120, 90, 125, 85, 110]
        b = [x + 100 for x in a]
        assert compare.verdict(a, b, 0.1, "lower") == "worse"
        assert compare.verdict(b, a, 0.1, "lower") == "better"


def _run(workload, seed, values, failed=0, raw_ms=None):
    return {
        "workload": workload, "seed": seed, "trace": False,
        "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()},
        "details": {} if raw_ms is None else {"raw_join_ms.p50": raw_ms, "join_n": 12},
    }


# The wide sim_io_s bound shows that exact metrics ignore it.
SPEC = {"end_to_end": [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "sim_io_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def _write_runs(tmp_path, runs):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(SPEC))
    for side, records in runs.items():
        (tmp_path / f"{side}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return spec


class TestCompare:
    def test_rows_per_metric_with_failed_share_and_raw_timings(self):
        a = [_run("w", s, {"p50_ms": 100 + s, "sim_io_s": 2.0 + s}, raw_ms=150 + s)
             for s in range(5)]
        b = [_run("w", s, {"p50_ms": 101 + s, "sim_io_s": 2.0 + s}, failed=int(s == 3),
                  raw_ms=130 + s)
             for s in range(5)]
        rows = {row[1]: row for row in compare.compare(a, b, SPEC)}
        assert rows["p50_ms"][4] == "unchanged"
        assert rows["sim_io_s"][4:] == ("unchanged", "seed by seed")
        assert rows["failed_frac"][4] == "worse"
        assert rows["raw_join_ms.p50"][2:5] == ((150.5, 152.0, 153.5), (130.5, 132.0, 133.5),
                                                "not gated")
        assert "join_n" not in rows

    def test_exact_metric_worse_on_any_seed_is_worse(self):
        a = [_run("w", s, {"p50_ms": 100.0, "sim_io_s": 2.0 + s}) for s in range(10)]
        rising = [_run("w", s, {"p50_ms": 100.0, "sim_io_s": (2.0 + s) * 1.05})
                  for s in range(10)]
        rows = {row[1]: row for row in compare.compare(a, rising, SPEC)}
        assert rows["sim_io_s"][4] == "worse"
        one_seed = [_run("w", s, {"p50_ms": 100.0, "sim_io_s": 2.0 + s - 0.5 * (s == 4)})
                    for s in range(10)]
        one_seed[7]["metrics"]["sim_io_s"]["value"] += 1e-6
        rows = {row[1]: row for row in compare.compare(a, one_seed, SPEC)}
        assert rows["sim_io_s"][4] == "worse"
        falling = [_run("w", s, {"p50_ms": 100.0, "sim_io_s": 1.9 + s}) for s in range(10)]
        rows = {row[1]: row for row in compare.compare(a, falling, SPEC)}
        assert rows["sim_io_s"][4] == "better"

    def test_exact_metric_on_different_seeds_uses_the_bound(self):
        a = [_run("w", s, {"p50_ms": 100.0, "sim_io_s": 2.0}) for s in range(10)]
        b = [_run("w", s + 10, {"p50_ms": 100.0, "sim_io_s": 2.1}) for s in range(10)]
        rows = {row[1]: row for row in compare.compare(a, b, SPEC)}
        assert rows["sim_io_s"][4:] == ("unchanged", "")

    def test_main_exits_nonzero_on_a_worse_verdict(self, tmp_path, capsys):
        runs = {"a": [_run("w", s, {"p50_ms": 100.0 + s, "sim_io_s": 2.0}) for s in range(5)]}
        runs["b"] = [_run("w", s, {"p50_ms": 150.0 + s, "sim_io_s": 2.0}) for s in range(5)]
        runs["b"].append(dict(_run("w", 0, {"p50_ms": 1.0, "sim_io_s": 1.0}), trace=True))
        spec = _write_runs(tmp_path, runs)
        code = compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
                             "--benchmark", str(spec)])
        assert code == 1
        assert "worse" in capsys.readouterr().out
        assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl"),
                             "--benchmark", str(spec)]) == 0

    def test_main_exits_nonzero_when_only_simulated_io_rises(self, tmp_path):
        runs = {
            "a": [_run("w", s, {"p50_ms": 100.0, "sim_io_s": 2.0 + s}) for s in range(10)],
            "b": [_run("w", s, {"p50_ms": 100.0, "sim_io_s": (2.0 + s) * 1.05})
                  for s in range(10)],
        }
        spec = _write_runs(tmp_path, runs)
        assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
                             "--benchmark", str(spec)]) == 1
