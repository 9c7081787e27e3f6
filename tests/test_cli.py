import json

import pytest

from tauwaring.cli import main
from tauwaring.tau_core import load_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_command(tmp_path, capsys):
    out_path = tmp_path / "t.txt"
    code, out, _ = run(capsys, "table", "--limit", "105", "--out", str(out_path))
    assert code == 0
    assert "limit=105" in out and "sha256=" in out
    table = load_table(out_path)
    assert table.tau(105) == -20380127040


def test_table_single_entry(tmp_path, capsys):
    out_path = tmp_path / "t.txt"
    code, _, _ = run(capsys, "table", "--limit", "1", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "TAU-TABLE v1 limit=1\n1\t1\n"


def test_table_rejects_zero_limit(tmp_path, capsys):
    code, _, err = run(capsys, "table", "--limit", "0", "--out", str(tmp_path / "t"))
    assert code == 3


def test_verify_zero_sums(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "zero-sums", "--limit", "105")
    assert code == 0
    assert "violations=0" in out


def test_verify_mod691_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mod691", "--limit", "500")
    assert code == 0
    assert "violations=0" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 3


def test_verify_reports_violations(tmp_path, capsys):
    # corrupt one entry on disk; the sweep must exit 1 and print the line
    path = tmp_path / "t.txt"
    run(capsys, "table", "--limit", "200", "--out", str(path))
    lines = path.read_text().splitlines()
    n, v = lines[9].split("\t")  # entry for n=9: odd, so the mod256 sweep sees it
    lines[9] = f"{n}\t{int(v) + 691}"  # adding 691 keeps mod691 clean
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--suite", "mod256", "--table", str(path))
    assert code == 1
    assert "CHECK mod256 n=9" in out


def test_represent_target_one(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    code, out, _ = run(capsys, "represent", "--target", "1", "--out", str(cert_path))
    assert code == 0
    obj = json.loads(cert_path.read_text())
    assert obj["plus"] == [1]
    assert "terms=1" in out


def test_represent_residue_mode(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    code, out, _ = run(
        capsys, "represent", "--target", "370943", "--residue",
        "--max-terms", "198", "--out", str(cert_path),
    )
    assert code == 0
    obj = json.loads(cert_path.read_text())
    assert len(obj["plus"]) == 198
    assert "terms=198" in out


def test_represent_residue_default_max_terms(tmp_path, capsys):
    # the default 74000 cap accommodates the fixed 198-term output
    code, out, _ = run(capsys, "represent", "--target", "12345", "--residue",
                       "--out", str(tmp_path / "c.json"))
    assert code == 0 and "terms=198" in out


def test_represent_residue_cap_too_small(capsys):
    code, _, _ = run(capsys, "represent", "--target", "5", "--residue",
                     "--max-terms", "100")
    assert code == 3


def test_represent_residue_out_of_range(capsys):
    code, _, err = run(capsys, "represent", "--target", "370944", "--residue")
    assert code == 3


def test_represent_huge_target_exits_3(capsys):
    code, _, err = run(capsys, "represent", "--target", str(10**200))
    assert code == 3


def test_represent_infeasible_bounds_exit_2(capsys):
    # index budget of 2 cannot carry the finisher's index 3 for this target
    code, _, err = run(capsys, "represent", "--target", "26", "--c-bound", "1",
                       "--limit", "100")
    assert code == 2
    assert "infeasible" in err


def test_modp_window_exhaustion_exit_2(capsys):
    # a 30-entry table caps the window before any branch can cover Z_29
    code, _, err = run(capsys, "modp", "--p", "29", "--lambda", "0",
                       "--mode", "pm32", "--limit", "30")
    assert code == 2
    assert "infeasible" in err


def test_represent_then_check_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    code, _, _ = run(capsys, "represent", "--target", "-4821", "--out", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(cert_path), "--limit", "105")
    assert code == 0
    assert "target=-4821 recomputed=-4821 ok=True" in out


def test_check_rejects_tampered_certificate(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    run(capsys, "represent", "--target", "99", "--out", str(cert_path))
    obj = json.loads(cert_path.read_text())
    obj["plus"][0] += 1
    cert_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", str(cert_path), "--limit", "105")
    assert code == 1
    assert "ok=False" in out


def test_check_rejects_malformed_json(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    run(capsys, "represent", "--target", "99", "--out", str(cert_path))
    cert_path.write_text(cert_path.read_text()[:-20])
    code, _, err = run(capsys, "check", str(cert_path))
    assert code == 3


def test_check_rejects_unknown_kind(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    cert_path.write_text('{"kind": "mystery"}')
    code, _, err = run(capsys, "check", str(cert_path))
    assert code == 3


def test_check_integer_skips_out_of_range_index(tmp_path, capsys):
    # A raw table lookup would wrap tau(-3) to tau(48) = 248758272 here.
    cert_path = tmp_path / "c.json"
    cert_path.write_text(json.dumps({
        "kind": "integer_sum", "target": "1", "plus": [-3, 1],
        "meta": {"term_count": 2, "max_index": 1},
    }))
    code, out, _ = run(capsys, "check", str(cert_path), "--limit", "50")
    assert code == 1
    assert "recomputed=1 ok=False" in out


@pytest.mark.parametrize("text, field", [
    ('{"kind": "integer_sum"}', "target"),
    ('{"kind": "integer_sum", "target": "5"}', "plus"),
    ('{"kind": "pm32", "p": 29, "plus": [], "minus": []}', "lambda"),
])
def test_check_names_missing_field(tmp_path, capsys, text, field):
    cert_path = tmp_path / "c.json"
    cert_path.write_text(text)
    code, _, err = run(capsys, "check", str(cert_path))
    assert code == 3
    assert f"no {field!r} field" in err


def test_modp_pm32(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    code, out, _ = run(
        capsys, "modp", "--p", "29", "--lambda", "0", "--mode", "pm32",
        "--limit", "2000", "--out", str(cert_path),
    )
    assert code == 0
    obj = json.loads(cert_path.read_text())
    assert obj["kind"] == "pm32" and obj["p"] == 29
    code, out, _ = run(capsys, "check", str(cert_path), "--limit", "2000")
    assert code == 0


def test_modp_sum16(capsys):
    code, out, _ = run(
        capsys, "modp", "--p", "29", "--lambda", "28", "--mode", "sum16",
        "--limit", "2000",
    )
    assert code == 0
    assert "mode=sum16" in out


def test_modp_sum96_bad_modulus(capsys):
    code, _, err = run(capsys, "modp", "--p", "7", "--lambda", "0", "--mode", "sum96")
    assert code == 3


def test_modp_small_p(capsys):
    code, _, err = run(capsys, "modp", "--p", "19", "--lambda", "0", "--mode", "pm32")
    assert code == 3


def test_forced_mismatch_hook(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAUWARING_FORCE_MISMATCH", "1")
    code, _, err = run(capsys, "represent", "--target", "5", "--out",
                       str(tmp_path / "c.json"))
    assert code == 1
    assert "SELF-CHECK FAILED" in err
    code, _, err = run(
        capsys, "modp", "--p", "29", "--lambda", "3", "--mode", "pm32",
        "--limit", "2000",
    )
    assert code == 1


def test_env_table_path(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env_table.txt"
    run(capsys, "table", "--limit", "300", "--out", str(path))
    monkeypatch.setenv("TAU_TABLE_PATH", str(path))
    code, out, _ = run(capsys, "verify", "--suite", "hecke")
    assert code == 0


def test_bench_format(capsys):
    code, out, _ = run(capsys, "bench", "--limit", "2000", "--reps", "2")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("BENCH table_build") and "rep=" in l) == 2
    assert any("median_seconds=" in l for l in lines)
    assert any(l.startswith("BENCH sweep_mod691") for l in lines)


def test_bad_flag_exits_3(capsys):
    code, _, _ = run(capsys, "table", "--limit", "abc")
    assert code == 3
