"""CLI behavior: exit codes, verdict output, file round trips."""

from __future__ import annotations

import json

import pytest

from dmkit.cli import build_parser, main
from dmkit.setsystem import parse_set_system


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text('{"elements":["a","b","c"],"feasible":[[],["a","b"],["a","b","c"]]}')
    return str(path)


@pytest.fixture
def u24_file(tmp_path):
    fam = [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]]
    path = tmp_path / "u24.json"
    path.write_text(json.dumps({"elements": list("abcd"), "feasible": fam}))
    return str(path)


def test_check_delta_negative(t1_file, capsys):
    assert main(["check", "--class", "delta", t1_file]) == 1
    out = capsys.readouterr().out
    assert "not in class delta" in out and "T1" in out


def test_check_delta_positive(u24_file, capsys):
    assert main(["check", "--class", "delta", u24_file]) == 0


def test_check_json_witness(t1_file, capsys):
    assert main(["check", "--class", "delta", "--json", t1_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is False and doc["witness"]["target"].startswith("T1")


def test_check_json_witness_reverifies(u24_file, tmp_path, capsys):
    # the emitted witness re-verifies through the library
    from dmkit.catalog import make_named
    from pathlib import Path

    twisted = tmp_path / "twisted.json"
    assert main(["twist", "--set", "a,b", u24_file, "-o", str(twisted)]) == 0
    assert main(["check", "--class", "binary", "--json", str(twisted)]) == 1
    doc = json.loads(capsys.readouterr().out)
    w = doc["witness"]
    system = parse_set_system(Path(twisted).read_text())
    minor = system.minor(w["delete"], w["contract"])
    assert minor.is_isomorphic(make_named(w["target"]))


def test_check_cap_below_ground_set_exit_2(tmp_path, capsys):
    # S_5: not a delta-matroid, yet free of every excluded minor on <= 4
    # elements; a cap of 4 must be refused, not answered "member"
    path = tmp_path / "s5.json"
    path.write_text('{"elements":["a","b","c","d","e"],"feasible":[[],["a","b","c","d","e"]]}')
    assert main(["check", "--class", "delta", "--cap", "4", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cap 4" in captured.err
    assert main(["check", "--class", "delta", str(path)]) == 1


def test_check_hypothesis_violation_exit_2(t1_file):
    # T1 is not a delta-matroid, so the Higgs ambient fails
    assert main(["check", "--class", "higgs", t1_file]) == 2


def test_twist_round_trip(t1_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["twist", "--set", "a,b", t1_file, "-o", str(out)]) == 0
    system = parse_set_system(out.read_text())
    assert {frozenset(fs) for fs in system.feasible_sets()} == {
        frozenset(), frozenset("c"), frozenset("ab")
    }


def test_minor_and_dual(t1_file, tmp_path):
    out = tmp_path / "m.json"
    assert main(["minor", "--contract", "a,b", t1_file, "-o", str(out)]) == 0
    system = parse_set_system(out.read_text())
    assert system.labels == ("c",)
    assert main(["dual", t1_file, "-o", str(out)]) == 0
    assert parse_set_system(out.read_text()).masks == frozenset({0, 4, 7})


def test_minor_invalid_exit_2(t1_file):
    assert main(["minor", "--delete", "a", "--contract", "a", t1_file]) == 2


def test_census_run_output(capsys):
    assert main(["census", "run", "--n", "3", "--theorem", "exdelta"]) == 0
    out = capsys.readouterr().out
    assert "0 discrepancies" in out and "255 systems" in out


def test_census_run_json(capsys):
    assert main(["census", "run", "--n", "2", "--theorem", "exfull", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True

def test_census_long_guard(capsys):
    assert main(["census", "run", "--n", "5", "--theorem", "exdelta"]) == 2


def test_census_refuses_negative_n(capsys):
    # exit 2 with an explanation, not a traceback and the negative-verdict
    # exit code
    for argv in (["run", "--n", "-1", "--theorem", "exdelta"],
                 ["run", "--n", "-1", "--theorem", "exdelta", "--no-dedupe"],
                 ["run", "--n", "-1", "--theorem", "exdelta", "--mode", "sampled"],
                 ["run", "--n", "-1", "--theorem", "exdelta", "--long"],
                 ["count", "--n", "-1"],
                 ["count", "--n", "-1", "--mode", "sampled"]):
        assert main(["census", *argv]) == 2, argv
        assert "n = -1" in capsys.readouterr().err, argv


def test_census_refuses_a_negative_sample_count(capsys):
    # a negative count used to print a 0-family report and exit 0
    for argv in (["run", "--n", "4", "--theorem", "exdelta", "--mode", "sampled"],
                 ["count", "--n", "4", "--mode", "sampled"],
                 ["count", "--n", "4", "--mode", "sampled", "--json"]):
        assert main(["census", *argv, "--count", "-3"]) == 2, argv
        captured = capsys.readouterr()
        assert "count = -3" in captured.err and not captured.out, argv


def test_census_refuses_no_dedupe_on_a_sampled_run(capsys):
    # a sampled run is never deduplicated, so --no-dedupe used to be
    # ignored with exit 0; it is refused before the sample count is read
    for count in ([], ["--count", "5"], ["--count", "-3"]):
        argv = ["census", "run", "--n", "4", "--theorem", "exdelta", "--mode", "sampled",
                "--no-dedupe", *count]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == "census: a sampled run is never deduplicated; drop --no-dedupe\n"
        assert not captured.out, argv


def test_census_refuses_jobs_below_one(capsys):
    # jobs below one used to run silently as one job
    from dmkit.census import run_streaming
    from dmkit.errors import DmkitError

    for jobs, extra in (("0", []), ("-2", ["--long"]), ("0", ["--no-dedupe"])):
        argv = ["census", "run", "--n", "3", "--theorem", "exdelta", "--jobs", jobs, *extra]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert f"jobs = {jobs}" in captured.err and not captured.out, argv
    with pytest.raises(DmkitError, match="jobs = 0"):
        run_streaming(2, "exdelta", jobs=0)


def test_timestamps_add_only_finished_at(capsys):
    # --timestamps appends a finished_at stamp as the last key; the rest
    # of the JSON is byte for byte the output of the same run without it
    import re

    for argv in (["run", "--n", "3", "--theorem", "exdelta", "--json"],
                 ["run", "--n", "3", "--theorem", "exdelta", "--long", "--json"],
                 ["count", "--n", "2", "--json"]):
        assert main(["census", *argv]) == 0
        plain = capsys.readouterr().out
        assert main(["census", *argv, "--timestamps"]) == 0
        stamped = capsys.readouterr().out
        assert plain.endswith("}\n") and stamped.startswith(plain[:-2]), argv
        assert re.fullmatch(r', "finished_at": "\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d[+-]\d{4}"\}\n',
                            stamped[len(plain) - 2:]), stamped
        assert "finished_at" not in plain


def test_timestamps_without_json_are_refused(capsys):
    # a text report has no stamp, so --timestamps used to be ignored
    for argv in (["run", "--n", "3", "--theorem", "exdelta"], ["count", "--n", "2"]):
        assert main(["census", *argv, "--timestamps"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == "census: only a JSON report carries a stamp; drop --timestamps\n"
        assert not captured.out, argv


def test_census_output_deterministic(capsys):
    main(["census", "run", "--n", "2", "--theorem", "exdelta", "--json"])
    first = capsys.readouterr().out
    main(["census", "run", "--n", "2", "--theorem", "exdelta", "--json"])
    assert capsys.readouterr().out == first


def test_higgs_pipeline(tmp_path, capsys):
    q = tmp_path / "q.json"
    q.write_text('{"elements":["a","b"],"feasible":[[]]}')
    lift = tmp_path / "l.json"
    lift.write_text('{"elements":["a","b"],"feasible":[["a","b"]]}')
    out = tmp_path / "dm.json"
    assert main([
        "higgs", "build", "--quotient", str(q), "--lift", str(lift),
        "--index-set", "0,2", "-o", str(out),
    ]) == 0
    system = parse_set_system(out.read_text())
    assert system.masks == frozenset({0, 3})
    assert main(["higgs", "classify", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "even" and doc["index_set"] == [0, 2]


def test_higgs_lift_command(tmp_path):
    q = tmp_path / "q.json"
    q.write_text('{"elements":["a","b"],"feasible":[[]]}')
    lift = tmp_path / "l.json"
    lift.write_text('{"elements":["a","b"],"feasible":[["a","b"]]}')
    out = tmp_path / "h1.json"
    assert main([
        "higgs", "lift", "--quotient", str(q), "--lift", str(lift),
        "-i", "1", "-o", str(out),
    ]) == 0
    assert parse_set_system(out.read_text()).masks == frozenset({1, 2})


def test_lattice_pipeline(tmp_path, capsys):
    region = tmp_path / "r.json"
    region.write_text('{"d":1,"c":0,"u":1,"v":1,"P":"EN","Q":"EE"}')
    out = tmp_path / "lpdm.json"
    assert main(["lattice", "build", str(region), "-o", str(out)]) == 0
    assert parse_set_system(out.read_text()).masks == frozenset({0, 1, 2})
    svg = tmp_path / "r.svg"
    assert main(["lattice", "svg", str(region), "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    assert main(["lattice", "dual", str(region)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d"], doc["c"]) == (0, 1)
    assert main(["lattice", "minor", "--element", "2", "--op", "delete", str(region)]) == 0


def test_stack_classify(u24_file, capsys):
    assert main(["stack", "classify", u24_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matroid_stack"] is True and doc["proper_layers"] == [
        {"size": 2, "feasible": 6}
    ]


def test_binary_commands(tmp_path, capsys):
    mat = tmp_path / "c.json"
    mat.write_text('{"labels":["a","b"],"rows":["01","10"]}')
    out = tmp_path / "d.json"
    assert main(["binary", "dofc", str(mat), "-o", str(out)]) == 0
    assert parse_set_system(out.read_text()).masks == frozenset({0, 3})
    assert main(["binary", "check", str(out)]) == 0
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps({
        "elements": ["a", "b", "c"],
        "feasible": [[], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]],
    }))
    assert main(["binary", "check", str(p1)]) == 1


def test_catalog_commands(tmp_path, capsys):
    assert main(["catalog", "make", "--name", "T5*{a,b}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] == [[], ["a", "b"], ["c", "d"]]
    assert main(["catalog", "dump", "--class", "full-higgs", "--cap", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {e["name"] for e in doc} == {"U1", "S2"}
    assert main(["catalog", "twists", "--name", "T3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 4


def test_scan_alias(t1_file):
    assert main(["scan", "--class", "delta", t1_file]) == 1


def test_missing_file_exit_2(tmp_path):
    assert main(["check", "--class", "delta", str(tmp_path / "nope.json")]) == 2


def test_bad_usage_exit_2():
    assert main(["check", "--class", "not-a-class", "x.json"]) == 2


def test_parser_reuse_leaks_no_state(t1_file, tmp_path, capsys):
    # the same calls give the same results on the shared parser as on a
    # parser built afresh for each call
    s5 = tmp_path / "s5.json"
    s5.write_text('{"elements":["a","b","c","d","e"],"feasible":[[],["a","b","c","d","e"]]}')
    calls = [
        ["check", "--class", "not-a-class", t1_file],
        ["check", "--class", "delta", "--cap", "4", str(s5)],
        ["check", "--class", "higgs", t1_file],
        ["check", "--class", "delta", "--json", t1_file],
        ["census", "run", "--n", "2", "--theorem", "exfull", "--json"],
        ["dual", t1_file, "-o", str(tmp_path / "dual.json")],
        ["check", "--class", "delta", t1_file],
    ]

    def run(fresh: bool) -> list:
        out = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            rc = main(list(argv))
            captured = capsys.readouterr()
            written = tmp_path / "dual.json"
            out.append((rc, captured.out, captured.err,
                        written.read_text() if written.exists() else None))
            written.unlink(missing_ok=True)
        return out

    build_parser.cache_clear()
    shared = run(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert [rc for rc, *_ in shared] == [2, 2, 2, 1, 0, 0, 1]
    assert shared[0][2].startswith("usage: dmkit check") and "cap 4" in shared[1][2]
    assert shared[5][3] is not None
    assert run(fresh=True) == shared


def test_check_does_not_import_numpy(t1_file, tmp_path):
    # dmkit has no runtime dependency: not even the deduplicated census
    # imports numpy
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dmkit
    from dmkit.census import verify_equivalence

    script = (
        "import sys\n"
        "import dmkit.cli\n"
        "rc = dmkit.cli.main(sys.argv[1:])\n"
        "print('numpy' in sys.modules, rc, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dmkit.__file__).parents[1])}

    def run(*argv):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=env)
        return proc.stdout, proc.stderr.split()

    out, (numpy, rc) = run("check", "--class", "delta", "--json", t1_file)
    assert (numpy, rc) == ("False", "1") and json.loads(out)["member"] is False
    out, (numpy, rc) = run("census", "run", "--n", "4", "--theorem", "exdelta", "--json")
    assert (numpy, rc) == ("False", "0")
    assert json.loads(out)["totals"] == verify_equivalence(4, "exdelta").totals


def test_console_script_smoke(t1_file):
    import shutil
    import subprocess

    exe = shutil.which("dmkit")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", "--class", "delta", t1_file], capture_output=True, text=True
    )
    assert proc.returncode == 1 and "T1" in proc.stdout


def test_module_entry_point(t1_file):
    # python -m dmkit runs the command line without the console script
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dmkit

    env = {**os.environ, "PYTHONPATH": str(Path(dmkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "dmkit", "check", "--class", "delta", t1_file],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1 and "T1" in proc.stdout


def test_a_cap_far_above_the_system_answers_at_once(tmp_path):
    # the excluded minors of a 2-element system are scanned up to two
    # elements whatever the cap, so a cap of 30 indexes no 30-element target
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dmkit

    path = tmp_path / "two.json"
    path.write_text('{"elements":["a","b"],"feasible":[[],["a","b"]]}')
    env = {**os.environ, "PYTHONPATH": str(Path(dmkit.__file__).parents[1])}
    for command in ("check", "scan"):
        proc = subprocess.run(
            [sys.executable, "-m", "dmkit", command, "--class", "delta", "--cap", "30",
             "--json", str(path)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"class": "delta", "member": True}


def test_scans_past_fourteen_elements_exit_2(tmp_path, capsys):
    # a 15-element excluded-minor list is refused, not scanned out of memory
    from dmkit import minorscan

    verdicts = {}
    for n in (14, 15):
        path = tmp_path / f"pair{n}.json"
        path.write_text(json.dumps({"elements": [f"e{i}" for i in range(n)],
                                    "feasible": [[], ["e0", "e1"]]}))
        verdicts[n] = main(["check", "--class", "delta", str(path)]), capsys.readouterr()
    minorscan._scan_plans.clear()
    assert verdicts[14][0] == 0 and verdicts[14][1].err == ""
    code, captured = verdicts[15]
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("dmkit: excluded-minor scans take targets on at most 14")


def test_running_out_of_memory_is_no_verdict(monkeypatch, tmp_path, capsys):
    # exit 1 means "not a member": a MemoryError must exit 2 with a
    # dmkit: line, not end in a traceback
    import dmkit.cli

    def exhausted(region):
        raise MemoryError

    monkeypatch.setattr(dmkit.cli, "lpdm", exhausted)
    region = tmp_path / "region.json"
    region.write_text('{"d": 1, "c": 0, "u": 1, "v": 1, "P": "EN", "Q": "EE"}')
    assert main(["lattice", "build", str(region)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "dmkit: out of memory\n"


# The options a command used to accept and then ignore: -o where the
# output is not written through _write_or_print or _emit_system, --format
# where no set system is written, --json where no verdict or report is
# printed.  Each input file holds what the command reads, so that the
# command alone runs.
IGNORED_OPTIONS = [
    (["check", "--class", "delta", "{system}"], ["-o", "--format"]),
    (["scan", "--class", "delta", "{system}"], ["-o", "--format"]),
    (["minor", "--delete", "a", "{system}"], ["--json"]),
    (["twist", "--set", "a", "{system}"], ["--json"]),
    (["dual", "{system}"], ["--json"]),
    (["higgs", "lift", "--quotient", "{quotient}", "--lift", "{lift}", "-i", "1"], ["--json"]),
    (["higgs", "build", "--quotient", "{quotient}", "--lift", "{lift}", "--index-set", "0,2"],
     ["--json"]),
    (["higgs", "classify", "{system}"], ["-o", "--format"]),
    (["lattice", "build", "{region}"], ["--json"]),
    (["lattice", "svg", "{region}"], ["--format", "--json"]),
    (["lattice", "dual", "{region}"], ["--format", "--json"]),
    (["lattice", "minor", "--element", "2", "--op", "delete", "{region}"], ["--format", "--json"]),
    (["stack", "classify", "{system}"], ["-o", "--format"]),
    (["binary", "check", "{system}"], ["-o", "--format"]),
    (["binary", "dofc", "{matrix}"], ["--json"]),
    (["census", "run", "--n", "2", "--theorem", "exdelta"], ["-o", "--format"]),
    (["census", "count", "--n", "2"], ["-o", "--format"]),
    (["catalog", "dump", "--class", "full-higgs", "--cap", "4"], ["--format", "--json"]),
    (["catalog", "make", "--name", "T3"], ["--json"]),
    (["catalog", "twists", "--name", "T3"], ["--format", "--json"]),
]


def test_every_subcommand_is_listed_with_its_ignored_options():
    assert len(IGNORED_OPTIONS) == 20
    assert sum(len(options) for _, options in IGNORED_OPTIONS) == 32


@pytest.mark.parametrize("argv, option", [(argv, option) for argv, options in IGNORED_OPTIONS
                                          for option in options])
def test_an_option_the_command_would_ignore_is_refused(argv, option, t1_file, tmp_path, capsys):
    files = {"system": t1_file}
    for name, text in (("quotient", '{"elements":["a","b"],"feasible":[[]]}'),
                       ("lift", '{"elements":["a","b"],"feasible":[["a","b"]]}'),
                       ("region", '{"d":1,"c":0,"u":1,"v":1,"P":"EN","Q":"EE"}'),
                       ("matrix", '{"labels":["a","b"],"rows":["01","10"]}')):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    argv = [arg.format(**files) for arg in argv]
    build_parser().parse_args(argv)  # the command alone parses
    out = tmp_path / "out.json"
    extra = {"-o": ["-o", str(out)], "--format": ["--format", "compact"], "--json": ["--json"]}
    assert main(argv + extra[option]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name, text", [
    (["check", "--class", "delta"], "s.json", '{"elements":["a"],"feasible":[1]}'),
    (["stack", "classify"], "s.json", '{"elements":["a"],"feasible":[null]}'),
    (["dual"], "s.json", '{"elements":["a","b"],"feasible":["ab"]}'),
    (["lattice", "build"], "r.json", '{"d":1.5,"c":0,"u":1,"v":1,"P":"EN","Q":"EE"}'),
    (["binary", "dofc"], "c.json", '{"labels":"ab","rows":["01","10"]}'),
])
def test_malformed_input_exits_2(command, name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main(command + [str(path)]) == 2
    assert capsys.readouterr().err.startswith("dmkit: ")
