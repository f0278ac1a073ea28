import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurlab
from schurlab.cli import main

# the directory this schurlab was imported from, first on the subprocesses' path
_SRC = str(Path(schurlab.__file__).resolve().parent.parent)


def run_module(args):
    """``python -m schurlab.cli args`` against the schurlab under test."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "schurlab.cli", *args], capture_output=True, text=True, env=env
    )


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_alpha(capsys):
    code, out, _ = run_cli(["alpha", "--m", "3", "--n", "4"], capsys)
    assert code == 0
    assert out.strip() == "36"


def test_tables(capsys):
    code, out, _ = run_cli(["tables"], capsys)
    assert code == 0
    assert "Table I" in out and "DISCREPANCY" in out


def test_multiplier_command(capsys):
    code, out, _ = run_cli(
        ["multiplier", "--group", "heisenberg_3", "--method", "both"], capsys
    )
    assert code == 0
    assert "[3, 3]" in out


def test_cover_command(capsys):
    code, out, _ = run_cli(
        ["cover", "--group", "dihedral_8", "--print-presentation"], capsys
    )
    assert code == 0
    assert "order 16" in out
    assert "pow" in out or "comm" in out


def test_identities_single_check(capsys):
    code, out, _ = run_cli(["identities", "--check", "L3.8", "--n-max", "10"], capsys)
    assert code == 0
    assert "L3.8: pass" in out


def test_identities_unknown_id(capsys):
    code, _, err = run_cli(["identities", "--check", "L0.0"], capsys)
    assert code == 2
    assert "unknown identity" in err


def test_group_lookup_checks_only_that_group(monkeypatch, capsys):
    from schurlab import pcgroup

    checked = []
    real = pcgroup.check_consistency

    def counting(pres):
        checked.append(pres.name)
        return real(pres)

    monkeypatch.setattr(pcgroup, "check_consistency", counting)
    code, out, _ = run_cli(["multiplier", "--group", "heisenberg_3"], capsys)
    assert code == 0
    assert checked == ["heisenberg_3"]


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "--max-order", "16", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    names = [g["name"] for g in doc["groups"]]
    assert names == sorted(names)
    assert all(g["order"] <= 16 for g in doc["groups"])


def test_outputs_match_the_benchmark_reference(catalog_run, capsys):
    # the reference outputs are the stdout of ``schurlab verify --format json``
    # over the bundle and of ``schurlab identities``; print adds the newline
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
    expected = (reference / "verify_bundle.json").read_bytes()
    assert (catalog_run(1).render("json") + "\n").encode() == expected
    code, out, _ = run_cli(["identities"], capsys)
    assert code == 0
    assert out.encode() == (reference / "identities.txt").read_bytes()


def test_verify_rule_selection(capsys):
    code, out, _ = run_cli(
        ["verify", "--max-order", "9", "--rules", "R13", "--format", "csv"], capsys
    )
    assert code == 0
    body = [line for line in out.splitlines()[1:] if line]
    assert body
    assert all(",R13," in line or ",OBS," in line for line in body)


def test_verify_unknown_rule(capsys):
    code, _, err = run_cli(["verify", "--rules", "R99"], capsys)
    assert code == 2
    assert "unknown rules" in err


def test_verify_bad_catalog_path(capsys):
    code, _, err = run_cli(["verify", "--catalog", "/nonexistent.cat"], capsys)
    assert code == 2


def test_verify_corrupt_catalog(tmp_path, capsys):
    path = tmp_path / "bad.cat"
    path.write_text("[group]\nname = broken\nngens = 3\norders = 2 2 3\ncomm 2 1 : g3\n")
    code, _, err = run_cli(["verify", "--catalog", str(path)], capsys)
    assert code == 2
    assert "broken" in err


def test_verify_strict_with_zero_cap(capsys):
    code, out, _ = run_cli(
        ["verify", "--max-order", "8", "--oracle-cap", "0", "--strict"], capsys
    )
    assert code == 3


@pytest.mark.parametrize("cap", ["100", "-1"])
def test_verify_oracle_cap_checked_before_any_group(cap, monkeypatch, capsys):
    from schurlab import verifier

    def no_profile(*args, **kwargs):
        raise AssertionError("a group was profiled")

    monkeypatch.setattr(verifier, "profile", no_profile)
    code, out, err = run_cli(["verify", "--max-order", "4", "--oracle-cap", cap], capsys)
    assert code == 2 and not out
    assert "0..81" in err


def test_console_script_runs():
    proc = run_module(["alpha", "--m", "2", "--n", "4"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "14"


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["multiplier", "--group", "heisenberg_5", "--method", "bar"], 2, "oracle cap"),
        (["multiplier", "--group", "no_such_group"], 2, "no bundled group"),
        (["cover", "--group", "no_such_group"], 2, "no bundled group"),
        (["alpha", "--m", "1", "--n", "3"], 2, "alpha requires"),
        (["identities", "--check", "L2.7", "--prime", "4"], 2, "unrecognized arguments"),
        (["verify", "--rules", "R99"], 2, "unknown rules"),
        (["verify", "--catalog", "{ngens_two}"], 2, "line 3: ngens"),
        (["alpha", "--m", "3", "--n", "4"], 0, ""),
        (["identities", "--n-max", "10"], 0, ""),
        (["identities", "--n-max", "0"], 2, "leaves no n"),
        (["verify", "--oracle-cap", "82"], 2, "hard limit"),
        (["verify", "--jobs", "0"], 2, "at least 1"),
        (["verify", "--jobs", "-4"], 2, "at least 1"),
        (["verify", "--max-order", "1", "--catalog", "{repeated_ngens}"], 2, "repeated ngens"),
        (["verify", "--rules", ""], 2, "--rules selects no rule"),
        (["verify", "--rules", ","], 2, "--rules selects no rule"),
        (["verify", "--max-order", "0", "--catalog", "{ngens_two}"], 2,
         "--max-order 0 selects no group"),
        (["verify", "--max-order", "-5"], 2, "--max-order -5 selects no group"),
        (["verify", "--catalog", "{big_3_12}", "--format", "json"], 4, ""),
        (["verify", "--catalog", "{big_3_12}", "--format", "json", "--jobs", "2"], 4, ""),
    ],
)
def test_exit_codes_without_traceback(args, code, message, tmp_path):
    bad = tmp_path / "ngens_two.cat"
    bad.write_text("[group]\nname = x\nngens = two\norders = 2 2\n")
    repeated = tmp_path / "repeated_ngens.cat"
    repeated.write_text("[group]\nname = x\nngens = 1\nngens = 2\norders = 2 2\n")
    big = tmp_path / "big_3_12.cat"  # consistent, but above the enumeration cap
    big.write_text("[group]\nname = big_3_12\nngens = 12\norders =" + " 3" * 12 + "\n")
    args = [a.format(ngens_two=bad, repeated_ngens=repeated, big_3_12=big) for a in args]
    proc = run_module(args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    if code == 4:
        # one group errored: its record says why, and every bundled group is reported
        records = {rec["name"]: rec for rec in json.loads(proc.stdout)["groups"]}
        assert records.pop("big_3_12") == {
            "name": "big_3_12",
            "order": 3**12,
            "status": "error",
            "error": "big_3_12: order 531441 exceeds cap 200000",
        }
        assert len(records) == 49 and all("rules" in rec for rec in records.values())


@pytest.mark.parametrize(
    "args, loaded, absent",
    [
        (["identities", "--check", "L3.8", "--n-max", "5"],
         {"schurlab.identities", "schurlab.commexpr", "schurlab.freenil"},
         {"schurlab.verifier", "schurlab.suites", "concurrent.futures",
          "schurlab.multiplier"}),
        (["verify", "--max-order", "4"],
         {"schurlab.verifier", "schurlab.suites", "concurrent.futures"},
         {"schurlab.identities", "schurlab.commexpr", "schurlab.freenil"}),
        (["tables"], {"schurlab.bounds"}, {"schurlab.multiplier", "schurlab.pcgroup"}),
        (["alpha", "--m", "2", "--n", "3"], {"schurlab.identities"},
         {"schurlab.multiplier", "schurlab.pcgroup"}),
    ],
)
def test_subcommand_loads_only_its_modules(args, loaded, absent, modules_after):
    # stdout is the report, so the subcommand's own output goes to a buffer
    code = (
        "import contextlib, io; from schurlab.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert main({args!r}) == 0"
    )
    modules = set(modules_after(code))
    assert loaded <= modules and not absent & modules, sorted(modules)
