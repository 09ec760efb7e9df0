import hashlib
import json
import subprocess
import sys

import pytest

from ranking_market import analysis, cli
from ranking_market import instance as instance_module
from ranking_market.cli import main
from helpers import no_fork


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_kvv(capsys):
    code, out = run_cli(capsys, "gen", "--kvv", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "3 3"
    assert len(lines) == 1 + 6


def test_gen_random_deterministic(capsys):
    code1, out1 = run_cli(capsys, "gen", "--random", "4", "4", "0.5", "--seed", "1")
    code2, out2 = run_cli(capsys, "gen", "--random", "4", "4", "0.5", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed=1" in out1


def test_gen_rejects_zero(capsys):
    code, _ = run_cli(capsys, "gen", "--kvv", "0")
    assert code == 2


def test_gen_output_parses_back(tmp_path, capsys):
    out_path = tmp_path / "inst.txt"
    code, _ = run_cli(capsys, "gen", "--random", "5", "4", "0.6", "--seed", "3",
                      "--out", str(out_path))
    assert code == 0
    from ranking_market import parse

    inst = parse(out_path.read_text())
    assert inst.n_left == 5 and inst.n_right == 4


def test_ratio_single_edge(tmp_path, capsys):
    inst = tmp_path / "single.txt"
    inst.write_text("1 1\n0 0\n")
    code, out = run_cli(capsys, "ratio", "--file", str(inst), "--trials", "200",
                        "--seed", "5")
    assert code == 0
    header, row = out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["mean_ratio"]) == 1.0
    assert values["seed"] == "5"


def test_ratio_empty_graph_errors(tmp_path, capsys):
    inst = tmp_path / "empty.txt"
    inst.write_text("2 2\n")
    code, _ = run_cli(capsys, "ratio", "--file", str(inst), "--trials", "10", "--seed", "1")
    assert code == 2


def test_ratio_unreadable_file(capsys):
    code, _ = run_cli(capsys, "ratio", "--file", "/nonexistent/x.txt", "--seed", "1")
    assert code == 2


def test_claim1_passes_on_exponential(capsys):
    code, out = run_cli(capsys, "claim1", "--kvv", "4", "--trials", "2000", "--seed", "4")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 10
    assert all(row.split(",")[4] == "true" for row in rows)


def test_claim1_uniform_fails_on_last_edge(capsys):
    code, out = run_cli(capsys, "claim1", "--kvv", "12", "--scheme", "uniform",
                        "--edge", "11", "11", "--trials", "3000", "--seed", "4")
    assert code == 1
    row = out.splitlines()[1].split(",")
    assert row[4] == "false"
    assert float(row[2]) < 0.6


def test_claim1_edge_out_of_range(capsys):
    code, _ = run_cli(capsys, "claim1", "--kvv", "4", "--edge", "0", "9",
                      "--trials", "100", "--seed", "1")
    assert code == 2


def test_remark3_rejects_n1(capsys):
    code, _ = run_cli(capsys, "remark3", "--n", "1", "--trials", "100", "--seed", "1")
    assert code == 2


def test_remark3_reports_all_metrics(capsys):
    code, out = run_cli(capsys, "remark3", "--n", "5", "--trials", "2000", "--seed", "3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    metrics = {r["metric"]: r for r in payload["results"]}
    assert set(metrics) == {
        "edge_guarantee_exp",
        "edge_guarantee_uniform",
        "service_probability",
        "priciest_last_probability",
        "service_without_priciest_count",
    }
    assert metrics["service_without_priciest_count"]["mean"] == 0.0
    assert payload["config"]["seed"] == 3


def test_properties_zero_violations(capsys):
    code, out = run_cli(capsys, "properties", "--kvv", "6", "--sweep", "300", "--seed", "9")
    assert code == 0
    header, row = out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["trials"] == "300"
    assert values["sold_if_cheaper_violations"] == "0"
    assert values["monotone_violations"] == "0"


def test_properties_random_instances(capsys):
    code, out = run_cli(capsys, "properties", "--sweep", "200", "--seed", "2")
    assert code == 0


def test_oracle_check_kvv2(capsys):
    code, out = run_cli(capsys, "oracle-check", "--kvv", "2", "--trials", "5000",
                        "--seed", "2")
    assert code == 0
    header, row = out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["exact_numerator"] == "3"
    assert values["exact_denominator"] == "2"
    assert float(values["exact"]) == 1.5
    assert values["passed"] == "true"


def test_oracle_check_no_edges(tmp_path, capsys):
    inst = tmp_path / "empty.txt"
    inst.write_text("3 3\n")
    code, out = run_cli(capsys, "oracle-check", "--file", str(inst), "--trials", "50",
                        "--seed", "2")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[2] == "0" and row[3] == "0"


def test_oracle_check_rejects_large_instance(capsys):
    code, _ = run_cli(capsys, "oracle-check", "--kvv", "9", "--trials", "10", "--seed", "1")
    assert code == 2


def test_run_dumps_complete_outcome(capsys):
    code, out = run_cli(capsys, "run", "--kvv", "3", "--seed", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]
    buyers = [r for r in rows if r["buyer"] >= 0]
    assert len(buyers) == 3
    matched = [r for r in buyers if r["item"] >= 0]
    for r in matched:
        assert r["util"] + r["rev"] == pytest.approx(1.0, abs=1e-9)
    # every item appears either as a matched row or an unsold row
    items_seen = {r["item"] for r in rows if r["item"] >= 0}
    assert items_seen == {0, 1, 2}


def test_reruns_are_byte_identical(capsys):
    cases = [
        ("gen", "--random", "6", "6", "0.4", "--seed", "8"),
        ("ratio", "--kvv", "8", "--trials", "400", "--seed", "8"),
        ("claim1", "--kvv", "4", "--trials", "400", "--seed", "8", "--format", "json"),
        ("remark3", "--n", "4", "--trials", "400", "--seed", "8"),
        ("properties", "--kvv", "5", "--sweep", "150", "--seed", "8"),
        ("oracle-check", "--kvv", "3", "--trials", "400", "--seed", "8"),
        ("run", "--kvv", "5", "--seed", "8", "--sigma", "random"),
    ]
    for argv in cases:
        code1, out1 = run_cli(capsys, *argv)
        code2, out2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv


def test_parallel_output_identical(capsys):
    base = ("claim1", "--kvv", "5", "--trials", "5000", "--seed", "3")
    _, sequential = run_cli(capsys, *base, "--jobs", "1")
    _, parallel = run_cli(capsys, *base, "--jobs", "3")
    assert sequential == parallel


def test_csv_and_json_carry_identical_values(capsys):
    base = ("ratio", "--kvv", "6", "--trials", "500", "--seed", "11")
    _, csv_text = run_cli(capsys, *base, "--format", "csv")
    _, json_text = run_cli(capsys, *base, "--format", "json")
    header, row = csv_text.splitlines()
    csv_values = dict(zip(header.split(","), row.split(",")))
    json_row = json.loads(json_text)["results"][0]
    for key, cell in csv_values.items():
        assert float(cell) == float(json_row[key]), key


def test_auto_seed_is_printed_and_reproduces(capsys):
    code, out = run_cli(capsys, "ratio", "--kvv", "5", "--trials", "300")
    assert code == 0
    header, row = out.splitlines()
    seed = dict(zip(header.split(","), row.split(",")))["seed"]
    code2, out2 = run_cli(capsys, "ratio", "--kvv", "5", "--trials", "300", "--seed", seed)
    assert out2 == out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out = run_cli(capsys, "ratio", "--kvv", "4", "--trials", "200", "--seed", "2",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("mean_ratio,")


def test_ratio_on_a_long_chain_file(tmp_path, capsys):
    # the augmenting paths of this instance are 3000 steps long
    n = 3000
    lines = [f"{n} {n}", "0 0"] + [f"{i} {j}" for i in range(1, n) for j in (i - 1, i)]
    inst = tmp_path / "chain.txt"
    inst.write_text("\n".join(lines) + "\n")
    code, out = run_cli(capsys, "ratio", "--file", str(inst), "--trials", "3", "--seed", "1")
    assert code == 0
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["optimum"] == "3000"


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def crash(args, instance, sigma):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_ratio", crash)
    code = main(["ratio", "--kvv", "3", "--trials", "10", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_ratio_computes_the_optimum_once(monkeypatch, capsys):
    calls = []
    real = analysis.maximum_matching

    def counting(instance):
        calls.append(instance.n_left)
        return real(instance)

    # cli is patched too, so an optimum computed there would be counted
    for module in (analysis, cli):
        monkeypatch.setattr(module, "maximum_matching", counting, raising=False)
    code, out = run_cli(capsys, "ratio", "--kvv", "4", "--trials", "20", "--seed", "1")
    assert code == 0
    assert calls == [4]
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["optimum"] == "4"


def _no_trial(*args):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("trials", ["1", "3"])
@pytest.mark.parametrize(
    "argv",
    [["ratio", "--kvv", "3"], ["claim1", "--kvv", "3"], ["remark3", "--n", "3"],
     ["oracle-check", "--kvv", "3"]],
)
def test_invalid_level_exits_2_before_any_trial(monkeypatch, capsys, argv, trials):
    # a trial would raise AssertionError, which main reports as exit 3
    monkeypatch.setattr(analysis, "trial_rng", _no_trial)
    monkeypatch.setattr(analysis, "_trial_weights", _no_trial)
    code = main(argv + ["--trials", trials, "--seed", "1", "--level", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "confidence level" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [["claim1", "--kvv", "3", "--trials", "5000"], ["ratio", "--kvv", "3", "--trials", "5000"],
     ["remark3", "--n", "3", "--trials", "5000"], ["properties", "--sweep", "5000"]],
)
def test_jobs_below_one_exits_2(monkeypatch, capsys, argv, jobs):
    monkeypatch.setattr(analysis.os, "fork", no_fork)
    code = main(argv + ["--seed", "1", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert "jobs must be >= 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["claim1", "--kvv", "3", "--trials", "5"], ["remark3", "--n", "3", "--trials", "5"],
     ["run", "--kvv", "3"], ["properties", "--sweep", "5"]],
)
def test_negative_seed_exits_2(capsys, argv):
    # the estimators' batched streams reject it as trial_rng does
    code = main(argv + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "expected non-negative integer" in captured.err
    assert captured.out == ""


def test_oversize_generator_exits_2(capsys):
    for argv in (["ratio", "--kvv", "2000"], ["remark3", "--n", "2000"],
                 ["gen", "--random", "1415", "1414", "0.5"]):
        code = main(argv + ["--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "MAX_EDGES" in captured.err


def test_oversize_file_header_exits_2(monkeypatch, tmp_path, capsys):
    def no_instance(*args):
        raise AssertionError("make_instance was reached")

    monkeypatch.setattr(instance_module, "make_instance", no_instance)
    inst = tmp_path / "huge.txt"
    inst.write_text("1000000000 1000000000\n")
    code = main(["ratio", "--file", str(inst), "--trials", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 1" in captured.err


# sha256 over (argv, exit code, stdout, --out file) of every GOLDEN_ARGV case,
# captured before the command pipeline moved into main. Placeholders {out}
# and {inst} stand for paths under tmp_path, so the digest does not depend on
# where the test runs.
GOLDEN_CLI_DIGEST = "f9a75014f80727ca5fb7f60c578dafc96669a92cbbef21609506f4e7e1ffb2db"

GOLDEN_ARGV = [
    ["gen", "--kvv", "4"],
    ["gen", "--random", "5", "4", "0.5", "--seed", "3", "--out", "{out}"],
    ["gen", "--file", "{inst}"],
    ["ratio", "--kvv", "6", "--trials", "300", "--seed", "11"],
    ["ratio", "--kvv", "6", "--trials", "300", "--seed", "11", "--format", "json",
     "--sigma", "reversed"],
    ["ratio", "--kvv", "4", "--trials", "200", "--seed", "2", "--format", "json",
     "--out", "{out}"],
    ["ratio", "--kvv", "3", "--trials", "3", "--seed", "1", "--level", "5"],
    ["claim1", "--kvv", "4", "--trials", "400", "--seed", "8"],
    ["claim1", "--kvv", "4", "--trials", "400", "--seed", "8", "--format", "json",
     "--scheme", "uniform", "--sigma", "random"],
    ["claim1", "--kvv", "12", "--scheme", "uniform", "--edge", "11", "11",
     "--trials", "3000", "--seed", "4"],
    ["claim1", "--kvv", "5", "--trials", "2500", "--seed", "3", "--jobs", "2"],
    ["remark3", "--n", "5", "--trials", "500", "--seed", "3"],
    ["remark3", "--n", "5", "--trials", "500", "--seed", "3", "--format", "json",
     "--level", "0.95"],
    ["remark3", "--n", "1", "--trials", "100", "--seed", "1"],
    ["properties", "--sweep", "100", "--seed", "2"],
    ["properties", "--kvv", "5", "--sweep", "100", "--seed", "8", "--format", "json"],
    ["oracle-check", "--kvv", "3", "--trials", "400", "--seed", "8"],
    ["oracle-check", "--random", "4", "5", "0.4", "--trials", "400", "--seed", "5",
     "--format", "json", "--sigma", "random"],
    ["oracle-check", "--file", "{inst}", "--trials", "300", "--seed", "6"],
    ["run", "--kvv", "5", "--seed", "8", "--sigma", "random"],
    ["run", "--random", "5", "4", "0.6", "--seed", "2", "--format", "json",
     "--scheme", "uniform"],
]


def test_cli_output_matches_the_golden_digest(tmp_path, capsys):
    paths = {"out": str(tmp_path / "out.txt"), "inst": str(tmp_path / "inst.txt")}
    digest = hashlib.sha256()
    for template in GOLDEN_ARGV:
        (tmp_path / "inst.txt").write_text("3 4\n0 0\n0 1\n1 0\n2 0\n2 3\n")
        (tmp_path / "out.txt").unlink(missing_ok=True)
        argv = [arg.format(**paths) for arg in template]
        code, out = run_cli(capsys, *argv)
        written = (tmp_path / "out.txt").read_text() if "--out" in argv and code == 0 else ""
        digest.update(repr((template, code, out, written)).encode())
    assert digest.hexdigest() == GOLDEN_CLI_DIGEST


def test_start_up_imports_no_module_a_run_may_not_need():
    # the chunk runner forks without a process pool, a fresh seed comes from
    # os.urandom and json is imported only for JSON output
    unneeded = ["concurrent.futures", "multiprocessing", "secrets", "hashlib", "json"]
    script = f"import ranking_market.cli, sys; print([m for m in {unneeded!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
