"""End-to-end tests of the command line front end.

Every fixture command is pinned to a golden file; the suite also checks
exit codes, byte determinism across repeated runs, and the enumeration
cache (cold write, warm replay, unwritable directory, failed write).
"""

import subprocess
import sys
from pathlib import Path

import pytest

from segtriples.config import config_digest, load_config

from helpers import run_cli

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
BASE = str(HERE / "fixtures" / "base.json")
DAG_EVEN = str(HERE / "fixtures" / "dag_even.json")
ENUM_C1 = str(HERE / "fixtures" / "enum_c1.json")
MAXA0 = str(HERE / "fixtures" / "maxa0.json")
MU_FIXTURE = str(HERE / "fixtures" / "mu_fixture.json")

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


def test_triple_text_source_matches_named_source():
    text = "cusp=c0 ; jord= r:1 r:3 r:5 r:7 ; single= r:1:+ r:3:+ r:5:- r:7:- ; pair= r:1:3:+ r:3:5:- r:5:7:+"
    named = run_cli(["chain", "--config", BASE, "--triple", "demo"])
    literal = run_cli(["chain", "--config", BASE, "--text", text])
    assert named == literal


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
])
def test_usage_errors_exit_2(argv, fragment):
    code, out, err = run_cli(argv)
    assert code == 2
    assert fragment in err
    assert out == ""


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
])
def test_domain_errors_exit_1(argv, fragment):
    code, out, err = run_cli(argv)
    assert code == 1
    assert fragment in err


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


# -- enumeration cache -------------------------------------------------------


def test_cold_then_warm_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SEGTRIPLES_CACHE_DIR", str(tmp_path))
    cold = run_cli(["enumerate", "--config", BASE])
    digest = config_digest(load_config(BASE))
    cache_file = tmp_path / f"{digest}.triples"
    assert cache_file.exists()
    warm = run_cli(["enumerate", "--config", BASE])
    assert cold == warm
    assert cold[0] == 0
    assert cold[1] == (GOLDEN / "enumerate_base.txt").read_text(encoding="utf-8")


def test_warm_run_replays_cached_bytes(tmp_path, monkeypatch):
    # prove the warm path reads the file instead of recomputing
    monkeypatch.setenv("SEGTRIPLES_CACHE_DIR", str(tmp_path))
    run_cli(["enumerate", "--config", BASE])
    digest = config_digest(load_config(BASE))
    (tmp_path / f"{digest}.triples").write_text("sentinel\n", encoding="utf-8")
    code, out, err = run_cli(["enumerate", "--config", BASE])
    assert (code, out) == (0, "sentinel\n")


def test_distinct_configs_use_distinct_cache_keys(tmp_path, monkeypatch):
    monkeypatch.setenv("SEGTRIPLES_CACHE_DIR", str(tmp_path))
    run_cli(["enumerate", "--config", BASE])
    run_cli(["enumerate", "--config", ENUM_C1])
    assert len(list(tmp_path.glob("*.triples"))) == 2


def test_unwritable_cache_dir_only_warns(monkeypatch):
    monkeypatch.setenv("SEGTRIPLES_CACHE_DIR", "/proc/definitely/nope")
    code, out, err = run_cli(["enumerate", "--config", BASE])
    assert code == 0
    assert out == (GOLDEN / "enumerate_base.txt").read_text(encoding="utf-8")
    assert "cache write failed" in err


def test_failed_cache_write_leaves_no_entry(tmp_path, monkeypatch):
    # the write dies halfway through: nothing may later replay the half
    write_text = Path.write_text

    def write_half(self, data, *args, **kwargs):
        write_text(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setenv("SEGTRIPLES_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(Path, "write_text", write_half)
    code, out, err = run_cli(["enumerate", "--config", BASE])
    assert code == 0
    assert out == (GOLDEN / "enumerate_base.txt").read_text(encoding="utf-8")
    assert "cache write failed" in err
    assert list(tmp_path.iterdir()) == []


def test_no_cache_dir_means_no_cache_io(tmp_path, monkeypatch):
    monkeypatch.delenv("SEGTRIPLES_CACHE_DIR", raising=False)
    code, out, err = run_cli(["enumerate", "--config", BASE])
    assert code == 0 and err == ""
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "segtriples", "enumerate", "--config", BASE],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "enumerate_base.txt").read_text(encoding="utf-8")
