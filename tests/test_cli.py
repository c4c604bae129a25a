"""End-to-end tests of the command line front end.

Every fixture command is pinned to a golden file; the suite also checks
exit codes and byte determinism across repeated runs.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segtriples
import segtriples.classify
import segtriples.triples
from segtriples import GSpinTerm, JordanTriple, cli, expand_induced, induce, render_term
from segtriples.config import load_config, parse_segment_spec

from helpers import run_cli

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
BASE = str(HERE / "fixtures" / "base.json")
DAG_EVEN = str(HERE / "fixtures" / "dag_even.json")
ENUM_C1 = str(HERE / "fixtures" / "enum_c1.json")
MAXA0 = str(HERE / "fixtures" / "maxa0.json")
MU_FIXTURE = str(HERE / "fixtures" / "mu_fixture.json")
# the jord_sets entry at q repeats the block 2
DUP_BLOCK = {
    "symbols": [{"id": "q", "rank": 2, "parity": "even"}],
    "supports": [{"id": "c0"}],
    "bounds": {"support": "c0", "symbols": ["q"], "jord_sets": {"q": [[], [2, 2]]}},
}

# 6,664,097 admissible triples, over the enumeration limit
OVERSIZED = {
    "symbols": [{"id": "r", "rank": 1, "parity": "odd"}, {"id": "q", "rank": 2, "parity": "even"}],
    "supports": [{"id": "c0"}],
    "bounds": {"support": "c0", "symbols": ["r", "q"], "max_a": 17},
}
# 13,536 admissible triples, 2.0 MB of text
WINDOW_11 = {**OVERSIZED, "bounds": {**OVERSIZED["bounds"], "max_a": 11}}


def config_argv(argv, tmp_path):
    """argv with each dict in it, which stands for a config file holding it as JSON, so written."""
    config = tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    return [str(config) if isinstance(a, dict) else a for a in argv]


GOLDEN_RUNS = [
    ("mu_rho.txt", 0,
     ["mu-star", "--config", BASE, "--sigma", "c0", "--seg", "r:[0,0]"]),
    ("mu_half.txt", 0,
     ["mu-star", "--config", BASE, "--sigma", "c0", "--seg", "q:[-1/2,1/2]"]),
    ("mu_tower.txt", 0,
     ["mu-star", "--config", BASE, "--sigma", "c0",
      "--seg", "r:[0,0]", "--seg", "r:[1,1]"]),
    ("mu_fixture_tower.txt", 0,
     ["mu-star", "--config", MU_FIXTURE, "--sigma", "c0",
      "--seg", "r:[0,0]", "--seg", "r:[-1,1]"]),
    ("enumerate_base.txt", 0, ["enumerate", "--config", BASE]),
    ("enumerate_c1.txt", 0, ["enumerate", "--config", ENUM_C1]),
    ("enumerate_maxa0.txt", 0, ["enumerate", "--config", MAXA0]),
    ("check_demo.txt", 0, ["check", "--config", BASE, "--triple", "demo"]),
    ("check_alt.txt", 0, ["check", "--config", BASE, "--triple", "alt"]),
    ("check_notadm.txt", 0, ["check", "--config", BASE, "--triple", "notadm"]),
    ("check_bad.txt", 1, ["check", "--config", BASE, "--triple", "bad"]),
    ("reduce_demo.txt", 0, ["reduce", "--config", BASE, "--triple", "demo"]),
    ("chain_evenpair.txt", 0, ["chain", "--config", BASE, "--triple", "evenpair"]),
    ("chain_pairsdemo.txt", 0, ["chain", "--config", BASE, "--triple", "pairsdemo"]),
    ("jord_update_basic.txt", 0,
     ["jord-update", "--config", BASE, "--x", "2", "--y", "1", "--base", "1,7"]),
    ("dag_even.txt", 0, ["dominance-dag", "--config", DAG_EVEN]),
]


@pytest.mark.parametrize("name,want_code,argv",
                         GOLDEN_RUNS, ids=[g[0] for g in GOLDEN_RUNS])
def test_golden_output(name, want_code, argv):
    code, out, err = run_cli(argv)
    assert code == want_code, err
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--config", BASE],
    ["dominance-dag", "--config", DAG_EVEN],
    ["mu-star", "--config", BASE, "--sigma", "c0",
     "--seg", "r:[0,0]", "--seg", "r:[1,1]"],
    ["chain", "--config", BASE, "--triple", "demo"],
])
def test_repeated_runs_are_byte_identical(argv):
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0


@pytest.mark.parametrize("command,name,text,head", [
    ("chain", "demo",
     "cusp=c0 ; jord= r:1 r:3 r:5 r:7 ; single= r:1:+ r:3:+ r:5:- r:7:- ; pair= r:1:3:+ r:3:5:- r:5:7:+",
     "base="),
    # evenpair spells out pair= q:2:4:+, which the singles already determine
    ("check", "evenpair", "cusp=c0 ; jord= q:2 q:4 ; single= q:2:+ q:4:+ ; pair=",
     "admissible, 1 step\n"),
], ids=["demo", "evenpair"])
def test_triple_text_source_matches_named_source(command, name, text, head):
    named = run_cli([command, "--config", BASE, "--triple", name])
    literal = run_cli([command, "--config", BASE, "--text", text])
    assert named == literal
    assert literal[0] == 0 and literal[1].startswith(head)


# -- exit codes --------------------------------------------------------------


@pytest.mark.parametrize("argv,fragment", [
    (["mu-star", "--config", BASE, "--sigma", "c0", "--seg", "zz:[0,0]"],
     "unknown symbol"),
    (["mu-star", "--config", BASE, "--sigma", "c0", "--seg", "r:[0,x]"],
     "not a half-integer literal"),
    (["mu-star", "--config", BASE, "--sigma", "nope", "--seg", "r:[0,0]"],
     "unknown support"),
    (["check", "--config", BASE, "--triple", "ghost"], "no triple named"),
    (["check", "--config", BASE, "--text", "jord= ; single= ; pair="],
     "starts with cusp="),
    (["jord-update", "--config", BASE, "--x", "huh", "--y", "0"],
     "not a half-integer literal"),
    (["enumerate", "--config", MU_FIXTURE], "bounds section"),
    (["check", "--config", BASE, "--text", "cusp=nope ; jord= ; single= ; pair="],
     "unknown support"),
    (["enumerate", "--config", str(HERE / "fixtures" / "absent.json")],
     "cannot read config"),
    (["enumerate", "--config", __file__], "not valid JSON"),
    (["jord-update", "--config", BASE, "--x", "2", "--y", "1", "--rho", "zz"],
     "unknown symbol"),
    (["enumerate", "--config", DUP_BLOCK],
     "error: bounds: jord_sets['q']: duplicate block"),
    (["dominance-dag", "--config", DUP_BLOCK],
     "error: bounds: jord_sets['q']: duplicate block"),
    (["enumerate", "--config", OVERSIZED],
     "error: the window holds 6664097 admissible triples, over the limit of 1000000\n"),
    (["dominance-dag", "--config", OVERSIZED],
     "error: the window holds 6664097 admissible triples, over the limit of 1000000\n"),
    (["enumerate", "--config", {**OVERSIZED, "bounds": {**OVERSIZED["bounds"], "max_a": 21}}],
     "error: the window holds 443873859 admissible triples, over the limit of 1000000\n"),
    # 2001 x 2002 / 2 pairs i <= j over the one row of the cuspidal leaf
    (["mu-star", "--config", BASE, "--sigma", "c0", "--seg", "r:[-1000,1000]"],
     "error: the expansion visits 2005003 base rows, over the limit of 1000000\n"),
    # an integer or half-integer read in any spelling but its own
    (["jord-update", "--config", BASE, "--x", "2", "--y", "1", "--base", "1,07"],
     "error: block '07' is not an integer\n"),
    (["jord-update", "--config", BASE, "--x", "2", "--y", "1", "--base", "1,+7"],
     "error: block '+7' is not an integer\n"),
    (["jord-update", "--config", BASE, "--x", "2", "--y", "1", "--base", "\u0661,7"],
     "error: block '\u0661' is not an integer\n"),
    (["mu-star", "--config", BASE, "--sigma", "c0", "--seg", "r:[0,4/2]"],
     "error: not a half-integer literal: '4/2'\n"),
])
def test_usage_errors_exit_2(argv, fragment, tmp_path):
    code, out, err = run_cli(config_argv(argv, tmp_path))
    assert code == 2
    assert fragment in err
    assert out == ""


@pytest.mark.parametrize("text,message", [
    ("cusp=c0 ; jord= r:1 ; single= r:1 ; pair=", "single item 'r:1': expected rho:a:sign"),
    ("cusp=c0 ; jord= r:x ; single= ; pair=", "jord item 'r:x': a 'x' is not an integer"),
    ("cusp=c0 ; jord= r:1 r:3 ; single= ; pair= r:1:3:?", "pair item 'r:1:3:?': not a sign: '?'"),
])
def test_a_malformed_item_exits_2_naming_it(text, message):
    assert run_cli(["check", "--config", BASE, "--text", text]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,fragment", [
    (["chain", "--config", BASE, "--triple", "notadm"],
     "no chain reaches an alternated triple"),
    (["chain", "--config", BASE, "--triple", "bad"], "missing single"),
    (["mu-star", "--config", BASE, "--sigma", "c0", "--seg", "r:[1,0]"],
     "expands nothing new"),
    (["jord-update", "--config", BASE, "--x", "-1", "--y", "-1"],
     "must be nonnegative"),
    (["jord-update", "--config", BASE, "--x", "2", "--y", "1", "--base", "5"],
     "missing from the base"),
    (["reduce", "--config", BASE, "--triple", "bad"], "missing single"),
    (["check", "--config", BASE, "--text",
      "cusp=c0 ; jord= r:1 r:3 ; single= r:1:+ r:3:+ ; pair= r:1:3:-"],
     "violation: pair sign on r:1-3 breaks the product rule"),
])
def test_domain_errors_exit_1(argv, fragment):
    code, out, err = run_cli(argv)
    assert code == 1
    # check reports violations on stdout; the other commands fail on stderr
    assert fragment in (out if argv[0] == "check" else err)


def test_bench_data_mirrors_the_test_goldens_and_fixtures():
    # the benchmark's cli workload replays these commands against its own copy
    bench = HERE.parent / "bench" / "data"
    for kind in ("golden", "fixtures"):
        ours = sorted(p.name for p in (HERE / kind).iterdir())
        assert sorted(p.name for p in (bench / kind).iterdir()) == ours
        for name in ours:
            assert (bench / kind / name).read_bytes() == (HERE / kind / name).read_bytes(), name


def test_missing_config_flag_exits_2():
    code, out, err = run_cli(["enumerate"])
    assert code == 2


def test_unknown_command_exits_2():
    code, out, err = run_cli(["frobnicate", "--config", BASE])
    assert code == 2


def test_jord_update_explicit_symbol_and_inferred_parity():
    explicit = run_cli(["jord-update", "--config", BASE, "--rho", "r",
                        "--x", "2", "--y", "1", "--base", "1,7"])
    assert explicit == (0, "{5, 7}\n", "")
    # half-integer exponents force an even symbol when none is named
    inferred = run_cli(["jord-update", "--config", BASE,
                        "--x", "3/2", "--y", "3/2", "--base", "2"])
    assert inferred == (0, "{4}\n", "")


# -- enumeration is computed, never stored ------------------------------------


def test_no_cache_dir_means_no_cache_io(tmp_path, monkeypatch):
    # there is no cache: SEGTRIPLES_CACHE_DIR is ignored and every run recomputes
    monkeypatch.setenv("SEGTRIPLES_CACHE_DIR", str(tmp_path))
    for name, argv in [("enumerate_base.txt", ["enumerate", "--config", BASE]),
                       ("dag_even.txt", ["dominance-dag", "--config", DAG_EVEN])]:
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        for _ in range(2):
            assert run_cli(argv) == (0, golden, "")
    assert list(tmp_path.iterdir()) == []


def test_cold_import_leaves_out_heavy_stdlib_modules():
    # -S keeps the site hooks, which may import these themselves, out of the check
    src = str(Path(segtriples.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, segtriples.cli; "
         "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point_runs_as_subprocess():
    src = str(Path(segtriples.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "segtriples", "enumerate", "--config", BASE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "enumerate_base.txt").read_text(encoding="utf-8")


TOWER_4 = ["mu-star", "--config", BASE, "--sigma", "c0"] + ["--seg", "r:[-1,2]"] * 4
# each far more than a pipe holds unread: the tower prints 16,920 lines
CLOSED_PIPE_RUNS = [
    (TOWER_4, b"1 (x) d([-1,2],r) |x d([-1,2],r) |x d([-1,2],r) |x d([-1,2],r) |x c0\n"),
    (["enumerate", "--config", WINDOW_11], b"cusp=c0 ; jord= ; single= ; pair=\n"),
]


@pytest.mark.parametrize("argv,first,unbuffered",
                         [(*run, unbuffered) for run in CLOSED_PIPE_RUNS for unbuffered in (None, "1")],
                         ids=["buffered", "unbuffered", "enumerate-buffered", "enumerate-unbuffered"])
def test_a_closed_stdout_ends_without_a_traceback(argv, first, unbuffered, tmp_path):
    # an unbuffered stdout may take only part of a write before the pipe closes
    src = str(Path(segtriples.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "segtriples", *config_argv(argv, tmp_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src})
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_PIPE_CLOSED, b"") == (141, b"")


def test_mu_star_writes_each_term_as_render_term_does():
    cfg = load_config(BASE)
    table, obj = cfg.expansion_table(), GSpinTerm.cuspidal("c0")
    seg = parse_segment_spec("r:[-1,2]", cfg.symbols)
    for _ in range(4):
        expansion, obj = expand_induced(seg, obj, table), induce(seg, obj)
    code, out, err = run_cli(TOWER_4)
    assert (code, err) == (0, "")
    assert out.splitlines() == [render_term(t, c) for t, c in expansion.terms]


def test_enumerate_and_the_dag_write_each_line_once_from_the_stream(monkeypatch):
    # enumerate joins each line from the ordered construction's items and builds no triple; the
    # dag takes its node and edge texts from that stream and writes no triple's text afresh
    built, written = [], []
    of_rows, text = JordanTriple._of_rows, segtriples.triples.triple_text
    monkeypatch.setattr(JordanTriple, "_of_rows", classmethod(lambda cls, cusp, rows: built.append(rows)
                                                              or of_rows(cusp, rows)))
    for module in (segtriples.triples, segtriples.classify, cli):
        monkeypatch.setattr(module, "triple_text", lambda t: written.append(t) or text(t))
    for name, argv in [("enumerate_base.txt", ["enumerate", "--config", BASE]),
                       ("dag_even.txt", ["dominance-dag", "--config", DAG_EVEN])]:
        built.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert (code, out.getvalue()) == (0, (GOLDEN / name).read_text(encoding="utf-8"))
        nodes = out.getvalue().count(" ; pair=") - 2 * out.getvalue().count(" -> ")
        assert len(built) >= nodes > 0 if name == "dag_even.txt" else built == []
    assert written == []


def test_a_stdout_with_no_buffer_takes_the_text():
    # an in-process caller may hand main a text stream with no bytes under it;
    # the tower's 16,920 lines take 17 batches
    golden = (GOLDEN / "enumerate_base.txt").read_text(encoding="utf-8")
    for argv, want in [(["enumerate", "--config", BASE], golden), (TOWER_4, run_cli(TOWER_4)[1])]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert (code, out.getvalue()) == (0, want)
