"""Run-record schema and JSONL round-trip tests."""

import json
import math
import re

import pytest

from pao.records import RunRecord, history_entry, read_jsonl, write_jsonl


def make_record(run_id="x_dejong_2d_r000", gens=3, best=None):
    best = best or [4.0, 2.0, 2.0, 1.0]
    history = [
        history_entry(g=g, best=b, mean=b + 1.0, shifted_best=b) for g, b in enumerate(best)
    ]
    return RunRecord(
        run_id=run_id,
        optimizer="x",
        problem="dejong",
        dim=2,
        seed=123,
        pop=5,
        gens=gens,
        evals=5 * (gens + 1),
        history=history,
        duration_ms=12.5,
        params={"a": 1},
    )


class TestContract:
    def test_finals(self):
        rec = make_record()
        assert rec.final_best() == 1.0
        assert rec.final_shifted_best() == 1.0

    def test_check_passes(self):
        make_record().check()

    def test_check_rejects_wrong_length(self):
        rec = make_record(gens=5)
        with pytest.raises(ValueError, match="history entries"):
            rec.check()

    def test_check_rejects_non_monotone(self):
        rec = make_record(best=[4.0, 2.0, 3.0, 1.0])
        with pytest.raises(ValueError, match="non-increasing"):
            rec.check()

    def test_check_rejects_best_below_optimum(self):
        rec = make_record()
        rec.history[-1]["shifted_best"] = -0.5
        with pytest.raises(ValueError, match="below the optimum"):
            rec.check()

    def test_json_dict_key_order(self):
        keys = list(make_record().to_json_dict())
        assert keys == [
            "run_id", "optimizer", "problem", "dim", "seed", "pop", "gens",
            "evals", "params", "history", "duration_ms",
        ]

    def test_json_dict_without_duration(self):
        assert "duration_ms" not in make_record().to_json_dict(include_duration=False)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        recs = [make_record(run_id=f"x_dejong_2d_r{i:03d}") for i in range(3)]
        write_jsonl(recs, path)
        back = read_jsonl(path)
        assert len(back) == 3
        for a, b in zip(recs, back):
            assert a.to_json_dict() == b.to_json_dict()

    def test_one_object_per_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl([make_record(), make_record(run_id="y")], path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl([make_record()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_jsonl(path)) == 1

    def test_read_names_file_line_and_missing_keys(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl([make_record()], path)
        path.write_text(path.read_text() + "\n" + json.dumps({"optimizer": "x", "params": {}}) + "\n")
        with pytest.raises(ValueError) as err:
            read_jsonl(path)
        assert str(err.value) == (
            f"{path}, line 3: record lacks the keys "
            "['run_id', 'problem', 'dim', 'seed', 'pop', 'gens', 'evals', 'history']"
        )

    def test_read_names_file_and_line_of_a_truncated_line(self, tmp_path):
        # a killed run leaves its last line cut short
        path = tmp_path / "records.jsonl"
        write_jsonl([make_record(), make_record(run_id="y")], path)
        text = path.read_text()
        path.write_text(text[: text.index("\n") + 12])
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: not JSON")):
            read_jsonl(path)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"run"', "null"])
    def test_read_names_file_and_line_of_a_non_object(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        write_jsonl([make_record()], path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: not a JSON object: {line}")):
            read_jsonl(path)

    def test_read_names_file_line_and_run_of_a_record_that_fails_its_check(self, tmp_path):
        # a history cut short failed later, inside NumPy, naming no file
        path = tmp_path / "records.jsonl"
        rec = make_record(run_id="y")
        del rec.history[2:]
        write_jsonl([make_record(), rec], path)
        error = f"{path}, line 2: y: 2 history entries for 3 generations"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "case, edit, error",
        # each read cleanly or escaped as a bare KeyError or TypeError
        [
            ("no best", lambda r: r["history"][1].pop("best"), "history entry 1 is not {g: 1, "),
            ("no shifted_best", lambda r: r["history"][1].pop("shifted_best"), "history entry 1 is not {g: 1, "),
            ("no g", lambda r: r["history"][1].pop("g"), "history entry 1 is not {g: 1, "),
            ("g not its index", lambda r: r["history"][1].update(g=5), "history entry 1 is not {g: 1, "),
            ("an extra key", lambda r: r["history"][1].update(x=0), "history entry 1 is not {g: 1, "),
            ("entry a list", lambda r: r["history"].__setitem__(1, [1, 2.0, 3.0, 2.0]), "history entry 1 is not"),
            ("best text", lambda r: r["history"][1].update(best="x"), "history entry 1 needs finite numeric bests"),
            ("best null", lambda r: r["history"][1].update(best=None), "history entry 1 needs finite numeric bests"),
            ("best nan", lambda r: r["history"][1].update(best=math.nan), "history entry 1 needs finite numeric"),
            ("shifted_best inf", lambda r: r["history"][3].update(shifted_best=math.inf), "history entry 3 needs"),
            ("mean text", lambda r: r["history"][0].update(mean="1"), "history entry 0 needs finite numeric bests"),
            ("history a number", lambda r: r.update(history=5), "history must be a list, got 5"),
            ("gens text", lambda r: r.update(gens="2"), "gens must be an integer, got '2'"),
            ("dim a bool", lambda r: r.update(dim=True), "dim must be an integer, got True"),
        ],
    )
    def test_read_names_file_line_and_run_of_a_malformed_record(self, tmp_path, case, edit, error):
        path = tmp_path / "records.jsonl"
        obj = make_record(run_id="y").to_json_dict()
        edit(obj)
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line 1: y: {error}')}"):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "key, value, error",
        # each read cleanly, and plot-data then wrote outside its directory,
        # wrote a plot under a bad name or failed naming no file
        [
            ("problem", "../../escaped", "y: problem must be one of ("),
            ("problem", 5, "y: problem must be a string, got 5"),
            ("optimizer", None, "y: optimizer must be a string, got None"),
            ("run_id", 7, "7: run_id must be a string, got 7"),
            ("params", 5, "y: params must be a dict, got 5"),
            ("duration_ms", "x", "y: duration_ms must be a number, got 'x'"),
            ("duration_ms", True, "y: duration_ms must be a number, got True"),
            ("dim", 0, "y: dim must be >= 1, got 0"),
            ("pop", -1, "y: pop must be >= 1, got -1"),
            ("gens", -1, "y: gens must be >= 0, got -1"),
            ("seed", -1, "y: seed must be >= 0, got -1"),
            ("evals", -3, "y: evals must be pop * (gens + 1) = 20, got -3"),
            ("evals", 21, "y: evals must be pop * (gens + 1) = 20, got 21"),
        ],
    )
    def test_read_rejects_a_field_of_the_wrong_type_or_range(self, tmp_path, key, value, error):
        path = tmp_path / "records.jsonl"
        obj = make_record(run_id="y").to_json_dict()
        obj[key] = value
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line 1: {error}')}"):
            read_jsonl(path)

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
    def test_read_rejects_an_optimizer_name_that_breaks_the_plot_csv(self, tmp_path, char):
        # "my,opt" gave plot-data the header generation,pso,my,opt above
        # rows of three values
        path = tmp_path / "records.jsonl"
        obj = make_record(run_id="y").to_json_dict()
        obj["optimizer"] = f"my{char}opt"
        path.write_text(json.dumps(obj) + "\n")
        error = f"{path}, line 1: y: optimizer must hold no comma, quote or line break, got {obj['optimizer']!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            read_jsonl(path)

    def test_read_takes_a_mean_that_overflowed(self, tmp_path):
        # the mean of finite fitness values can overflow to inf
        path = tmp_path / "records.jsonl"
        rec = make_record()
        rec.history[0]["mean"] = math.inf
        write_jsonl([rec], path)
        assert read_jsonl(path)[0].history[0]["mean"] == math.inf

    def test_read_defaults_params_and_duration(self, tmp_path):
        path = tmp_path / "records.jsonl"
        obj = make_record().to_json_dict(include_duration=False)
        del obj["params"]
        path.write_text(json.dumps(obj) + "\n")
        (rec,) = read_jsonl(path)
        assert (rec.params, rec.duration_ms) == ({}, 0.0)
