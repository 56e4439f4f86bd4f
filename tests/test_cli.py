import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covpkit import InputError
from covpkit.cli import main
from covpkit.jsonio import (
    decomposition_from_obj,
    decomposition_to_obj,
    graph_from_obj,
    loads_strict,
    tensor_from_obj,
    tensor_to_obj,
    transport_from_obj,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SUM_MATRIX_OBJ = {"dims": [2, 2], "data": [0, 2, 1, 3]}


class TestJsonSchemas:
    def test_tensor_roundtrip(self):
        tensor = tensor_from_obj({"dims": [2, 2], "data": ["1/2", 0, 3, "7/3"]})
        assert tensor.at((1, 1)) == loads_strict("1") / 2
        again = tensor_from_obj(tensor_to_obj(tensor))
        assert again.data == tensor.data

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="4 entries"):
            tensor_from_obj({"dims": [2, 2], "data": [1, 2, 3]})

    def test_decimal_rejected(self):
        with pytest.raises(InputError, match="decimal"):
            loads_strict('{"dims":[2],"data":[0.5,1]}')

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            loads_strict('{"x": NaN}')

    def test_trailing_garbage(self):
        with pytest.raises(InputError, match="line 1"):
            loads_strict('{"dims":[1],"data":[1]} trailing')

    def test_decomposition_roundtrip(self):
        from covpkit import decompose

        tensor = tensor_from_obj(SUM_MATRIX_OBJ)
        result = decompose(tensor, 1)
        obj = decomposition_to_obj(result.decomposition)
        assert set(obj) == {"d", "s", "n", "components"}
        back = decomposition_from_obj(obj)
        from covpkit import reconstruct

        assert reconstruct(back).data == tensor.data

    def test_graph_schema(self):
        g = graph_from_obj(
            {"n": 3, "directed": False, "edges": [[1, 2, "1/2"], [2, 3, 1], [1, 3, 0]]}
        )
        assert g.n == 3 and len(g.edges) == 3

    def test_transport_schema(self):
        instance = transport_from_obj(
            {"dims": [2, 2], "costs": [0, 2, 1, 3], "supplies": [[2, 1], [1, 2]]}
        )
        assert instance.total == 3


class TestCliCommands:
    def test_dim(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--d", "4", "--s", "2", "--n", "3")
        assert code == 0
        assert json.loads(out)["dimension"] == 33

    def test_covp_check_holds(self, capsys, tmp_path):
        path = write(tmp_path, "arr.json", SUM_MATRIX_OBJ)
        code, out, _ = run_cli(capsys, "covp", "check", "--file", path, "--s", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["holds"] is True and obj["common_value"] == 3

    def test_covp_check_fails_exit_zero(self, capsys, tmp_path):
        path = write(tmp_path, "arr.json", {"dims": [2, 2], "data": [1, 0, 0, 0]})
        code, out, _ = run_cli(capsys, "covp", "check", "--file", path, "--s", "1")
        assert code == 0  # a verdict, even a negative one, is a success
        obj = json.loads(out)
        assert obj["holds"] is False and len(obj["witness"]) == 2

    def test_covp_check_methods_agree(self, capsys, tmp_path):
        path = write(tmp_path, "arr.json", SUM_MATRIX_OBJ)
        verdicts = []
        for method in ("brute", "p2", "axial"):
            code, out, _ = run_cli(
                capsys, "covp", "check", "--file", path, "--s", "1", "--method", method
            ) if method != "p2" else run_cli(
                capsys, "covp", "check", "--file", path, "--s", "1", "--method", "p2"
            )
            assert code == 0
            verdicts.append(json.loads(out)["holds"])
        assert verdicts == [True, True, True]

    def test_unreadable_file(self, capsys):
        code, _, err = run_cli(capsys, "covp", "check", "--file", "/nope.json", "--s", "1")
        assert code == 1 and "input error" in err

    def test_decimal_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims":[2],"data":[0.5,1]}')
        code, _, err = run_cli(capsys, "covp", "check", "--file", str(path), "--s", "1")
        assert code == 1 and "decimal" in err

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--d", "4", "--s", "2", "--n", "3"
        )
        assert code == 0
        assert json.loads(out)["count"] == 72

    def test_enumerate_budget_exhaustion_exit_2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--d", "4", "--s", "2", "--n", "3", "--max-nodes", "50",
        )
        assert code == 2
        assert json.loads(out)["complete"] is False

    def test_enumerate_streams_without_print(self, capsys, monkeypatch):
        for extra in ((), ("--max-nodes", "50")):
            argv = ("enumerate", "--d", "4", "--s", "2", "--n", "3") + extra
            code, out, _ = run_cli(capsys, *argv, "--print-solutions")
            listed = json.loads(out)
            # without --print-solutions no solution list is built
            with monkeypatch.context() as patch:
                patch.setattr("covpkit.cli.enumerate_general", None)
                streamed_code, out, _ = run_cli(capsys, *argv)
            streamed = json.loads(out)
            assert streamed_code == code == (2 if extra else 0)
            assert "solutions" not in streamed
            assert streamed == {k: v for k, v in listed.items() if k != "solutions"}

    def test_covp_dim(self, capsys):
        code, out, _ = run_cli(capsys, "covp", "dim", "--d", "4", "--s", "2", "--n", "3")
        assert code == 0
        assert json.loads(out)["covp_dimension"] == 49

    def test_covp_dim_budget_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "covp", "dim", "--d", "4", "--s", "2", "--n", "3", "--max-nodes", "10"
        )
        assert code == 2 and "inconclusive" in err

    def test_decompose(self, capsys, tmp_path):
        path = write(tmp_path, "arr.json", SUM_MATRIX_OBJ)
        code, out, _ = run_cli(capsys, "decompose", "--file", path, "--s", "1")
        assert code == 0
        assert json.loads(out)["decomposable"] is True

    def test_reduce_axial(self, capsys, tmp_path):
        path = write(tmp_path, "arr.json", {"dims": [2, 2], "data": [1, 2, 3, 4]})
        code, out, _ = run_cli(capsys, "reduce", "axial", "--file", path)
        assert code == 0
        obj = json.loads(out)
        assert obj["z"] == 5 and obj["reduced"]["data"] == [0, 0, 0, 0]

    def test_reduce_apply_and_certify(self, capsys, tmp_path):
        arr = write(tmp_path, "arr.json", {"dims": [2, 2], "data": [1, 2, 3, 4]})
        sub = write(tmp_path, "sub.json", {"dims": [2, 2], "data": [1, 2, 3, 4]})
        code, out, _ = run_cli(
            capsys, "reduce", "apply", "--file", arr, "--subtrahend", sub, "--s", "1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["accepted"] is True and obj["z"] == 5

        reduced = write(tmp_path, "red.json", obj["reduced"])
        sol = write(tmp_path, "sol.json", [[1, 1], [2, 2]])
        code, out, _ = run_cli(
            capsys,
            "reduce", "certify", "--file", reduced, "--solution", sol, "--s", "1", "--z", "5",
        )
        assert code == 0
        assert json.loads(out)["optimal"] is True

    def test_tp_commands(self, capsys, tmp_path):
        inst = write(
            tmp_path,
            "inst.json",
            {"dims": [2, 2], "costs": [0, 2, 1, 3], "supplies": [[2, 1], [1, 2]]},
        )
        code, out, _ = run_cli(capsys, "tp", "covp", "--file", inst)
        assert code == 0 and json.loads(out)["holds"] is True
        code, out, _ = run_cli(capsys, "tp", "blowup", "--file", inst)
        assert code == 0
        assert json.loads(out)["dims"] == [3, 3]

    def test_tp_boolean_supply_rejected(self, capsys, tmp_path):
        inst = write(
            tmp_path,
            "inst.json",
            {"dims": [2, 2], "costs": [1, 2, 3, 4], "supplies": [[True, 1], [1, 1]]},
        )
        code, out, err = run_cli(capsys, "tp", "covp", "--file", inst)
        assert code == 1 and out == ""
        assert "supplies must be nonnegative integers" in err

    def test_workers_option_gone(self, capsys, tmp_path):
        path = write(tmp_path, "arr.json", SUM_MATRIX_OBJ)
        with pytest.raises(SystemExit):
            main(["covp", "check", "--file", path, "--s", "1", "--workers", "2"])

    def test_closed_stdout_is_quiet(self):
        # the reader is gone before covpkit writes, as with `| head -c 100`
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "covpkit.cli", "covp", "repro", "dims"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_graph_covp_with_oracle(self, capsys, tmp_path):
        g = write(
            tmp_path,
            "g.json",
            {"n": 3, "directed": False, "edges": [[1, 2, 7], [1, 3, 7], [2, 3, 7]]},
        )
        code, out, _ = run_cli(
            capsys, "graph", "covp", "--kind", "mst", "--file", g, "--oracle"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["holds"] is True and obj["agrees"] is True

    def test_graph_tsp_from_graph_json(self, capsys, tmp_path):
        g = write(
            tmp_path,
            "g.json",
            {"n": 3, "directed": False, "edges": [[1, 2, 0], [1, 3, 0], [2, 3, 0]]},
        )
        code, out, _ = run_cli(capsys, "graph", "covp", "--kind", "tsp", "--file", g)
        assert code == 0 and json.loads(out)["holds"] is True

    def test_pretty_mode(self, capsys):
        code, out, _ = run_cli(capsys, "--pretty", "dim", "--d", "3", "--s", "1", "--n", "3")
        assert code == 0 and "dimension: 7" in out

    def test_env_var_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("COVPKIT_MAX_NODES", "50")
        code, out, _ = run_cli(capsys, "enumerate", "--d", "4", "--s", "2", "--n", "3")
        assert code == 2
        assert json.loads(out)["complete"] is False

    def test_print_solutions(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--d", "2", "--s", "1", "--n", "2", "--print-solutions"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["solutions"] == [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]

    def test_provisional_check_exit_2(self, capsys, tmp_path):
        path = write(
            tmp_path, "arr.json", {"dims": [3, 3, 3], "data": [0] * 27}
        )
        code, out, _ = run_cli(
            capsys,
            "covp", "check", "--file", path, "--s", "1",
            "--method", "brute", "--max-nodes", "5",
        )
        assert code == 2
        assert json.loads(out)["provisional"] is True

    def test_apply_refusal(self, capsys, tmp_path):
        arr = write(tmp_path, "arr.json", SUM_MATRIX_OBJ)
        bad = write(tmp_path, "bad.json", {"dims": [2, 2], "data": [1, 0, 0, 0]})
        code, out, _ = run_cli(
            capsys, "reduce", "apply", "--file", arr, "--subtrahend", bad, "--s", "1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["accepted"] is False and obj["refusal"]["holds"] is False

    def test_apply_provisional_refusal_exit_2(self, capsys, tmp_path):
        arr = write(tmp_path, "arr.json", {"dims": [4] * 4, "data": [0] * 256})
        unit = write(
            tmp_path, "unit.json", {"dims": [4] * 4, "data": [0, 1] + [0] * 254}
        )
        code, out, _ = run_cli(
            capsys,
            "reduce", "apply", "--file", arr, "--subtrahend", unit, "--s", "2",
            "--max-nodes", "300",
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["accepted"] is False and obj["refusal"]["provisional"] is True

    def test_internal_assertion_exit_3(self, capsys, monkeypatch):
        import covpkit.cli as climod

        def boom(args):
            raise AssertionError("forced")

        monkeypatch.setattr(climod, "_cmd_dim", boom)
        code = climod.main(["dim", "--d", "3", "--s", "1", "--n", "3"])
        _, err = capsys.readouterr().out, capsys.readouterr().err
        assert code == 3


class TestRepro:
    def test_example1(self, capsys):
        code, out, _ = run_cli(capsys, "covp", "repro", "example1", "--no-timings")
        assert code == 0
        obj = json.loads(out)
        assert obj["failed"] == 0
        assert obj["passed"] >= 5

    def test_rank_md(self, capsys):
        code, out, _ = run_cli(capsys, "covp", "repro", "rank-md", "--no-timings")
        assert code == 0
        obj = json.loads(out)
        assert obj["failed"] == 0
        notes = [e for e in obj["claims"] if e["level"] == "note"]
        assert notes and all(e["pass"] is False for e in notes)

    def test_dims(self, capsys):
        code, out, _ = run_cli(capsys, "covp", "repro", "dims", "--no-timings")
        assert code == 0 and json.loads(out)["failed"] == 0

    def test_conjecture(self, capsys):
        code, out, _ = run_cli(capsys, "covp", "repro", "conjecture", "--no-timings")
        assert code == 0
        obj = json.loads(out)
        assert obj["failed"] == 0 and obj["inconclusive"] == 0
        n3 = [e for e in obj["claims"] if e["claim"].startswith("(4,2) at n=3")]
        assert n3[0]["detail"] == "covp_dim=49, savs_dim=33"

    def test_reports_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "covp", "repro", "dims", "--no-timings")
        _, second, _ = run_cli(capsys, "covp", "repro", "dims", "--no-timings")
        assert first == second

    def test_timings_present_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "covp", "repro", "dims")
        assert code == 0
        obj = json.loads(out)
        assert "elapsed_ms" in obj and all("ms" in e for e in obj["claims"])
