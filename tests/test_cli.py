import json
import time

import pytest

from sumchoice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestChiSc:
    def test_wheel_json(self, capsys):
        code, out, _ = run(capsys, "chi-sc", "--family", "wheel:4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chi_sc"] == 12
        assert payload["gb"] == 13
        assert payload["sc_greedy"] is False

    def test_cycle5(self, capsys):
        code, out, _ = run(capsys, "chi-sc", "--family", "cycle:5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chi_sc"] == 10 and payload["sc_greedy"] is True

    def test_single_vertex_graph6(self, capsys):
        code, out, _ = run(capsys, "chi-sc", "--graph6", "@", "--json")
        assert code == 0
        assert json.loads(out)["chi_sc"] == 1

    def test_bad_graph6(self, capsys):
        code, _, err = run(capsys, "chi-sc", "--graph6", "D")
        assert code == 2 and "error" in err

    def test_cache_env(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "memo.jsonl"
        monkeypatch.setenv("SUMCHOICE_CACHE", str(cache))
        code, _, _ = run(capsys, "chi-sc", "--family", "bipartite:2,3")
        assert code == 0 and cache.exists()
        text = cache.read_text()
        assert '"chi_sc": 10' in text

    def test_torn_memo_line_is_ignored(self, capsys, tmp_path):
        cache = tmp_path / "memo.jsonl"
        code, _, _ = run(capsys, "chi-sc", "--family", "complete:3", "--cache", str(cache))
        assert code == 0
        with open(cache, "a") as fh:
            fh.write('{"canonical_graph6": "Bw", "chi_sc": 6, "g')
        code, out, _ = run(capsys, "chi-sc", "--family", "complete:3", "--cache", str(cache))
        assert code == 0
        assert "chi_sc = 6" in out

    def test_budget_stops_the_prism(self, capsys):
        # P3 x P3, the 3 x 3 grid: about 1 s without a budget on a 2-vCPU
        # host, so a 1 s budget sometimes let it finish
        start = time.monotonic()
        code, out, _ = run(capsys, "chi-sc", "--family",
                           "product:path:3,path:3",
                           "--budget", "0.25", "--json")
        assert code == 3 and json.loads(out)["unknown"] is True
        assert time.monotonic() - start < 0.25 + 2

    def test_budget_holds_on_a_symmetric_star(self, capsys):
        # Canonical labeling runs before any budget check; K1,9 has 9!
        # automorphisms, one search leaf each without orbit pruning.
        start = time.monotonic()
        code, out, _ = run(capsys, "chi-sc", "--family", "bipartite:1,9",
                           "--budget", "1", "--json")
        assert code == 0 and json.loads(out)["chi_sc"] == 19
        assert time.monotonic() - start < 1 + 2

    def test_budget_holds_on_a_large_clique(self, capsys):
        # K11 is past the memo's order limit: every G - v is searched afresh
        start = time.monotonic()
        code, out, _ = run(capsys, "chi-sc", "--family", "complete:11",
                           "--budget", "1", "--json")
        assert code == 3 and json.loads(out)["unknown"] is True
        assert time.monotonic() - start < 1 + 2

    def test_wrong_memo_record_exits_2(self, capsys, tmp_path):
        # a hand-written K3 record: sizes 1,1,2 sum to the claimed 4, but
        # K3 is not choosable with them
        cache = tmp_path / "memo.jsonl"
        cache.write_text('{"canonical_graph6": "Bw", "chi_sc": 4, "gb": 6, '
                         '"optimal_f": [1, 1, 2], "rho": 4, "tau": "inf"}\n')
        code, out, err = run(capsys, "chi-sc", "--family", "complete:3", "--cache", str(cache))
        assert code == 2 and not out
        assert "wrong memo record" in err

    def test_corrupt_memo_line_exits_2(self, capsys, tmp_path):
        cache = tmp_path / "memo.jsonl"
        run(capsys, "chi-sc", "--family", "complete:3", "--cache", str(cache))
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("not json\n" + "".join(lines))
        code, _, err = run(capsys, "chi-sc", "--family", "complete:3", "--cache", str(cache))
        assert code == 2
        assert "malformed memo line" in err

    def test_memo_path_that_is_a_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "chi-sc", "--family", "path:3", "--cache", str(tmp_path))
        assert code == 2 and not out
        assert "cannot read memo file" in err and str(tmp_path) in err

    def test_memo_path_in_a_missing_directory_exits_2(self, capsys, tmp_path):
        cache = tmp_path / "missing" / "dir" / "x.jsonl"
        code, out, err = run(capsys, "chi-sc", "--family", "path:3", "--cache", str(cache))
        assert code == 2 and not out
        assert "cannot write memo file" in err and str(cache) in err

    def test_memo_record_of_another_format_exits_2(self, capsys, tmp_path):
        cache = tmp_path / "memo.jsonl"
        run(capsys, "chi-sc", "--family", "complete:3", "--cache", str(cache))
        records = [json.loads(line) for line in cache.read_text().splitlines()]
        assert all(rec["format"] == 1 for rec in records)
        records[0]["format"] = 2
        cache.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        code, out, err = run(capsys, "chi-sc", "--family", "complete:3", "--cache", str(cache))
        assert code == 2 and not out
        assert f"{cache}:1: memo format 2" in err


class TestChoosable:
    def test_triangle_witness(self, capsys):
        code, out, _ = run(capsys, "choosable", "--family", "complete:3",
                           "--sizes", "2,2,2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["choosable"] is False
        assert payload["witness"] == [[0, 1], [0, 1], [0, 1]]

    def test_c4_choosable(self, capsys):
        code, out, _ = run(capsys, "choosable", "--family", "cycle:4",
                           "--sizes", "2,2,2,2", "--json")
        assert code == 0 and json.loads(out)["choosable"] is True

    def test_p2_choosable(self, capsys):
        code, out, _ = run(capsys, "choosable", "--family", "path:2",
                           "--sizes", "1,2")
        assert code == 0 and "choosable" in out

    def test_length_mismatch(self, capsys):
        code, _, err = run(capsys, "choosable", "--family", "path:2",
                           "--sizes", "1,2,3")
        assert code == 2 and "error" in err


class TestFamily:
    def test_theta(self, capsys):
        code, out, _ = run(capsys, "family", "theta:0,1,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert "n=5 m=6 gb=11" in lines[1]

    def test_pathcycles(self, capsys):
        code, out, _ = run(capsys, "family", "pathcycles:4,4")
        assert code == 0 and "n=6 m=7 gb=13" in out

    def test_power_matches_brokenwheel(self, capsys):
        _, out_a, _ = run(capsys, "family", "power:path:5,2")
        _, out_b, _ = run(capsys, "family", "brokenwheel:4")
        from sumchoice import canonical_form, parse_graph6
        key_a = canonical_form(parse_graph6(out_a.splitlines()[0]))
        key_b = canonical_form(parse_graph6(out_b.splitlines()[0]))
        assert key_a == key_b

    def test_invalid(self, capsys):
        code, _, err = run(capsys, "family", "walrus:9")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("command", ["family", "chi-sc --family"])
    def test_power_with_exponent_zero_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command.split(), "power:path:5,0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestVerify:
    def test_four_vertex_passes_json_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "four-vertex", "--json")
        assert code == 0
        lines = [json.loads(x) for x in out.strip().splitlines()]
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["failed"] == 0 and summary["passed"] >= 1
        assert all("outcome" in x for x in lines[:-1])

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-suite")
        assert code == 2 and "error" in err

    def test_text_report_carries_provenance(self, capsys):
        code, out, _ = run(capsys, "verify", "four-vertex")
        assert code == 0
        assert "[literature]" in out and "PASS" in out


class TestLimits:
    @pytest.mark.parametrize("argv", [
        ("chi-sc", "--family", "cycle:4", "--budget", "nan"),
        ("chi-sc", "--family", "cycle:4", "--budget", "-1"),
        ("choosable", "--family", "cycle:4", "--sizes", "2,2,2,2", "--budget", "nan"),
        ("choosable", "--family", "cycle:4", "--sizes", "2,2,2,2", "--budget", "-1"),
        ("verify", "four-vertex", "--budget", "nan"),
        ("verify", "four-vertex", "--budget", "-1"),
    ])
    def test_bad_jobs_or_budget_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --") and "Traceback" not in err

    def test_jobs_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "four-vertex", "--jobs", "2"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "usage:" in out.err and "unrecognized arguments: --jobs 2" in out.err
        assert "Traceback" not in out.err

    def test_negative_sizes_exit_2(self, capsys):
        code, out, err = run(capsys, "choosable", "--family", "path:2", "--sizes=-1,2")
        assert code == 2 and out == ""
        assert err.startswith("error: --sizes") and "Traceback" not in err

    def test_huge_size_exits_2(self, capsys):
        code, out, err = run(capsys, "choosable", "--graph6", "Bw",
                             "--sizes", "99999999999999999999,1,1")
        assert code == 2 and out == ""
        assert err.startswith("error: --sizes") and "Traceback" not in err

    def test_large_sizes_below_the_bound_are_answered(self, capsys):
        code, out, _ = run(capsys, "choosable", "--graph6", "Bw",
                           "--sizes", "5000,5000,5000", "--json")
        assert code == 0 and json.loads(out)["choosable"] is True
