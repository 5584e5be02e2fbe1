"""tools/snapshot.py: workload outputs kept byte for byte, wall times fixed."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_snapshot():
    spec = importlib.util.spec_from_file_location(
        "snapshot_tool", ROOT / "tools" / "snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_small_seed0(tmp_path, capsys):
    tool = load_snapshot()
    assert tool.main([str(tmp_path), "--workload", "verify-small",
                      "--seed", "0"]) == 0
    assert capsys.readouterr().out == "verify-small-0: exit 0\n"
    work = tmp_path / "verify-small-0"
    assert sorted(p.name for p in work.iterdir()) == [
        "exit_code.txt", "stderr.txt", "stdout.txt"]
    assert (work / "exit_code.txt").read_text() == "0\n"
    assert (work / "stderr.txt").read_text() == ""
    workload = tool.load_workloads(ROOT)["verify-small"]
    lines = (work / "stdout.txt").read_text().splitlines()
    results = [line for line in lines if not line.startswith("replay:")]
    assert [line.split()[0] for line in results] == list(workload.suites)
    assert all(line.endswith("PASS") for line in results)
    # The call ran with relative paths: no line names the snapshot's place.
    assert str(tmp_path) not in "\n".join(lines)


def test_lse_general_seed1_instance_hash(tmp_path, capsys):
    # The end-to-end pin of the hash: this digest was recorded when the
    # instance was still hashed as one JSON string.
    tool = load_snapshot()
    assert tool.main([str(tmp_path), "--workload", "lse-general",
                      "--seed", "1"]) == 0
    assert capsys.readouterr().out == "lse-general-1: exit 0\n"
    work = tmp_path / "lse-general-1"
    assert (work / "exit_code.txt").read_text() == "0\n"
    summary = (work / "out" / "lse" / "summary.json").read_text()
    assert ('"instance_hash": "b5fbb32b5d5ce8b9dba6a149e5247c48988da11518bc5f6'
            'bf45298f7a01a023a"') in summary


def test_wall_times_masked(tmp_path):
    tool = load_snapshot()
    (tmp_path / "stdout.txt").write_text(
        "a: PASS  iterations=3 wall=0.125s\nb: PASS  iterations=4 "
        "wall=12.500s\n")
    summary = tmp_path / "out" / "a" / "summary.json"
    summary.parent.mkdir(parents=True)
    summary.write_text(json.dumps(
        {"name": "a", "wall_time_s": 1.2e-05, "pass": True}, indent=1) + "\n")
    tool.mask_wall_times(tmp_path)
    assert (tmp_path / "stdout.txt").read_text() == (
        "a: PASS  iterations=3 wall=0.000s\nb: PASS  iterations=4 "
        "wall=0.000s\n")
    assert json.loads(summary.read_text()) == {
        "name": "a", "wall_time_s": 0.0, "pass": True}
