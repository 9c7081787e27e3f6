import contextlib
import copy
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tauwaring import cli, modp_basis, tau_core, verify, waring_int
from tauwaring.cli import main
from tauwaring.modp_basis import (
    WindowPolicy,
    build_abc_context,
    build_context,
    represent_pm32,
    represent_sum16,
    represent_sum96,
)
from tauwaring.tau_core import build_tau_table_series
from tauwaring.verify import TauTable, load_table, save_table, verdict
from tauwaring.waring_int import RepresentationParams, represent_integer


ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("limit", ["0", "-5"])
@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_rejects_nonpositive_limit(tmp_path, capsys, suite, limit):
    path = tmp_path / "t.txt"
    run(capsys, "table", "--limit", "200", "--out", str(path))
    for flags in ((), ("--table", str(path))):
        code, out, err = run(capsys, "verify", "--suite", suite, "--limit", limit, *flags)
        assert code == 3
        assert out == ""
        assert "--limit must be >= 1" in err


@pytest.mark.parametrize("limit", ["0", "-5"])
@pytest.mark.parametrize("command", [
    ("represent", "--target", "5"),
    ("represent", "--target", "5", "--residue"),
    ("modp", "--p", "29", "--lambda", "3", "--mode", "pm32"),
    ("check", "{cert}"),
])
def test_table_commands_reject_nonpositive_limit(tmp_path, capsys, command, limit):
    path = tmp_path / "t.txt"
    cert = tmp_path / "c.json"
    run(capsys, "table", "--limit", "200", "--out", str(path))
    run(capsys, "represent", "--target", "5", "--limit", "200", "--out", str(cert))
    argv = [a.format(cert=cert) for a in command]
    for flags in ((), ("--table", str(path))):
        code, out, err = run(capsys, *argv, "--limit", limit, *flags)
        assert code == 3
        assert out == ""
        assert "--limit must be >= 1" in err


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


def test_verify_zero_sums_names_the_bad_block(tmp_path, capsys):
    table = build_tau_table_series(105)
    table.values[105] += 1
    path = tmp_path / "t.txt"
    save_table(path, table)
    code, out, err = run(capsys, "verify", "--suite", "zero-sums", "--table", str(path))
    assert (code, out) == (1, "")
    assert err == ("internal check failed: indices (12, 27, 55, 69, 90, 105) sum to 1,"
                   " not zero; table is wrong or claim false\n")


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
    assert run(capsys, "represent", "--target", "5", "--residue", "--max-terms", "100") == (
        3, "", "error: residue mode emits exactly 198 terms, which exceeds --max-terms 100\n")


def test_represent_residue_out_of_range(capsys):
    assert run(capsys, "represent", "--target", "370944", "--residue") == (
        3, "", "error: residue targets live in [0, 370944)\n")


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


def test_modp_on_one_tau_class_exits_0_or_2(tmp_path, capsys):
    # tau = 1 throughout leaves A empty at p = 29; BxC still covers Z_29,
    # and the window of pm32 and sum96 never qualifies.
    table_path = tmp_path / "ones.txt"
    save_table(table_path, TauTable(40, [0] + [1] * 40))
    for lam in range(29):
        code, out, _ = run(capsys, "modp", "--p", "29", "--lambda", str(lam),
                           "--mode", "sum16", "--table", str(table_path))
        assert code == 0 and "mode=sum16" in out, lam
    for mode in ("pm32", "sum96"):
        code, _, err = run(capsys, "modp", "--p", "29", "--lambda", "1",
                           "--mode", mode, "--table", str(table_path))
        assert code == 2 and "infeasible" in err, mode


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


def test_represent_zero_without_table(capsys, monkeypatch):
    # the zero certificate uses the six-term block up to index 105
    monkeypatch.delenv("TAU_TABLE_PATH", raising=False)
    code, out, _ = run(capsys, "represent", "--target", "0")
    assert code == 0
    assert "terms=198" in out


@pytest.mark.parametrize("argv", [("--target", "5", "--residue"), ("--target", "0")])
def test_represent_table_below_block_index_exits_3(capsys, monkeypatch, argv):
    # both certificates use the six-term block up to index 105
    monkeypatch.delenv("TAU_TABLE_PATH", raising=False)
    code, _, err = run(capsys, "represent", *argv, "--limit", "50")
    assert code == 3
    assert "50" in err and "105" in err


def test_modp_small_p(capsys):
    code, _, err = run(capsys, "modp", "--p", "19", "--lambda", "0", "--mode", "pm32")
    assert code == 3


def _tampered(represent):
    def wrapper(*args, **kwargs):
        cert = represent(*args, **kwargs)
        cert.plus[0] += 1
        return cert
    return wrapper


def test_forced_mismatch_hook(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(waring_int, "represent_integer", _tampered(represent_integer))
    monkeypatch.setattr(modp_basis, "represent_pm32", _tampered(represent_pm32))
    code, _, err = run(capsys, "represent", "--target", "5", "--out",
                       str(tmp_path / "c.json"))
    assert code == 1
    assert "SELF-CHECK FAILED" in err
    code, _, err = run(
        capsys, "modp", "--p", "29", "--lambda", "3", "--mode", "pm32",
        "--limit", "2000",
    )
    assert code == 1
    assert "SELF-CHECK FAILED" in err


def test_env_table_path(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env_table.txt"
    run(capsys, "table", "--limit", "300", "--out", str(path))
    monkeypatch.setenv("TAU_TABLE_PATH", str(path))
    code, out, _ = run(capsys, "verify", "--suite", "hecke")
    assert code == 0


def test_module_entry_point_exits_3_on_missing_file():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "tauwaring.cli", "check", "/nonexistent.json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert "unreadable certificate" in proc.stderr


def test_bad_flag_exits_3(capsys):
    code, _, _ = run(capsys, "table", "--limit", "abc")
    assert code == 3


# ------------------------------------------------- check: total and bounded


@pytest.fixture(scope="module")
def check_inputs(tmp_path_factory, table_2k):
    """A saved 2000-entry table plus valid pm32 certificates (pairs branch,
    16+16 terms, and direct branch, one plus term) and one valid integer
    certificate, as JSON objects."""
    workdir = tmp_path_factory.mktemp("check")
    table_path = workdir / "table.txt"
    save_table(table_path, table_2k)
    ctx = build_context(29, table_2k, WindowPolicy(branch="pairs"))
    pm32 = represent_pm32(3, ctx, table_2k)
    pm32_one = represent_pm32(3, build_context(29, table_2k), table_2k)
    assert (len(pm32_one.plus), len(pm32_one.minus)) == (1, 0)
    integer = represent_integer(123456789, RepresentationParams(), table_2k)
    assert verdict(pm32, table_2k)
    assert verdict(integer, table_2k)
    return SimpleNamespace(
        dir=workdir,
        table=str(table_path),
        certs={"pm32": pm32.to_json_dict(), "pm32_one": pm32_one.to_json_dict(),
               "integer": integer.to_json_dict()},
    )


def run_check(*argv):
    """`tauwaring check` in process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", *map(str, argv)])
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def edited(obj, path, value):
    obj = copy.deepcopy(obj)
    box = obj
    for key in path[:-1]:
        box = box[key]
    box[path[-1]] = value
    return obj


@pytest.mark.parametrize("kind, path, value, field", [
    ("integer", ("plus",), [[1]], "plus[0]"),
    ("pm32", ("meta", "max_index"), "x", "meta.max_index"),
    ("pm32", ("meta", "index_bound"), "abc", "meta.index_bound"),
    ("integer", ("meta", "index_bound"), "abc", "meta.index_bound"),
    ("pm32", ("meta", "counts"), [1], "meta.counts"),
    ("pm32", ("p",), 0, None),
    ("pm32_one", ("meta", "counts", "plus"), True, "meta.counts.plus"),
    ("pm32_one", ("meta", "counts", "plus"), 1.0, "meta.counts.plus"),
])
def test_check_wrongly_typed_field(check_inputs, kind, path, value, field):
    cert_path = check_inputs.dir / "typed.json"
    cert_path.write_text(json.dumps(edited(check_inputs.certs[kind], path, value)))
    code, _, err, _ = run_check(cert_path, "--limit", "2000")
    assert code in (1, 3)
    if code == 3:
        assert repr(field) in err


def test_check_of_huge_prime_powers_is_bounded_by_the_table(check_inputs):
    # 96 indices 2^(14000-i), about 412 KB of JSON, each far above 2000^5: the
    # verifier refuses them without factoring any.
    indices = [2**(14000 - i) for i in range(96)]
    obj = {"kind": "sum96", "p": 1999, "lambda": 5, "plus": indices, "minus": [],
           "meta": {"index_bound": indices[0], "max_index": indices[0],
                    "counts": {"plus": 96, "minus": 0}}}
    cert_path = check_inputs.dir / "hostile.json"
    cert_path.write_text(json.dumps(obj))
    code, out, err, seconds = run_check(cert_path, "--table", check_inputs.table)
    assert (code, out, err) == (1, "CHECK sum96 p=1999 lambda=5 recomputed=None ok=False\n", "")
    assert seconds < 1.0


BIG_PRIME = 10**20 + 39


@pytest.mark.parametrize("kind, path, value, flags", [
    ("pm32", ("p",), 2**61 - 1, ("--limit", "2000")),
    ("pm32", ("plus", 0), str(BIG_PRIME), ("--limit", "2000")),
    ("integer", ("plus", 0), BIG_PRIME, ("--limit", "2000")),
    ("pm32", ("meta", "window"), [23, 900000], ()),
])
def test_check_work_is_bounded_by_the_table(check_inputs, monkeypatch, kind, path, value,
                                            flags):
    monkeypatch.delenv("TAU_TABLE_PATH", raising=False)
    obj = edited(check_inputs.certs[kind], path, value)
    if path[0] == "plus":  # keep the meta consistent so the index is factored
        obj["meta"].update(max_index=value, index_bound=BIG_PRIME)
    elif path[-1] == "window":
        obj["lambda"] += 1  # any wrong claim
    cert_path = check_inputs.dir / "bounded.json"
    cert_path.write_text(json.dumps(obj))
    code, _, _, seconds = run_check(cert_path, *flags)
    assert code in (1, 3)
    assert seconds < 1.0


@pytest.mark.parametrize("key", ["window", "unread"])
def test_check_verdict_ignores_unread_meta(check_inputs, key):
    # meta other than max_index, counts and index_bound is passed through
    # and never read: the verdict comes from the congruence alone
    for moved, expect in ((0, 0), (1, 1)):
        obj = edited(check_inputs.certs["pm32"], ("meta", key), "x")
        obj["lambda"] += moved
        cert_path = check_inputs.dir / "unread.json"
        cert_path.write_text(json.dumps(obj))
        code, out, err, _ = run_check(cert_path, "--limit", "2000")
        assert (code, err) == (expect, "")
        assert out == f"CHECK pm32 p=29 lambda={3 + moved} recomputed=3 ok={not moved}\n"


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([0, 1, -1, 29, 2**53, 2**61 - 1, BIG_PRIME, -BIG_PRIME, 10**4000,
                     2**14000, 3**8800 * 1999, 2000**5, 2 * 2000**5]),
    st.floats(),
    st.sampled_from(["", "x", "-7", "29", "1e5", " 5", "pm32", "sum96", "sum16",
                     "integer_sum", str(BIG_PRIME), str(2**61 - 1), "9" * 5000]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                               max_size=3),
    max_leaves=8,
)


def containers(obj):
    """The certificate object, its meta, counts and index lists, where present."""
    out = [obj]
    for key in ("meta", "plus", "minus"):
        if isinstance(obj.get(key), (dict, list)):
            out.append(obj[key])
    if isinstance(obj.get("meta"), dict) and isinstance(obj["meta"].get("counts"), dict):
        out.append(obj["meta"]["counts"])
    return out


def mutate(obj, data):
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        box = data.draw(st.sampled_from(containers(obj)))
        if isinstance(box, dict):
            key = data.draw(st.sampled_from(sorted(box) + ["p", "index_bound"])
                            | st.text(max_size=4))
            if key in box and data.draw(st.booleans()):
                del box[key]
            else:
                box[key] = data.draw(JSON_VALUES)
        else:
            i = data.draw(st.integers(min_value=0, max_value=len(box)))
            box[i:i + 1] = [data.draw(JSON_VALUES)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_check_survives_mutated_certificates(check_inputs, data):
    # One to four files; the first is always mutated, each later one may be.
    paths = []
    for i in range(data.draw(st.integers(min_value=1, max_value=4))):
        obj = copy.deepcopy(check_inputs.certs[data.draw(st.sampled_from(["pm32", "integer"]))])
        if i == 0 or data.draw(st.booleans()):
            mutate(obj, data)
        paths.append(check_inputs.dir / f"fuzz{i}.json")
        paths[-1].write_text(json.dumps(obj))
    code, out, err, seconds = run_check(*paths, "--table", check_inputs.table)
    assert code in (0, 1, 3)
    assert "Traceback" not in err
    assert seconds < 2.0 * len(paths)
    if len(paths) > 1:
        singles = [run_check(path, "--table", check_inputs.table)[0] for path in paths]
        assert code == (3 if 3 in singles else 1 if 1 in singles else 0)
        lines = out.splitlines()
        assert lines[-1] == (f"CHECKED files={len(paths)} ok={singles.count(0)}"
                             f" failed={singles.count(1)} invalid={singles.count(3)}")
        assert len(lines) - 1 == singles.count(0) + singles.count(1)
        assert err.count("error: ") == singles.count(3)


def test_module_entry_point_checks_several_files(tmp_path, check_inputs):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(check_inputs.certs["pm32"]))
    bad.write_text(json.dumps(edited(check_inputs.certs["pm32"], ("lambda",), 4)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "tauwaring.cli", "check", str(good), str(bad),
                           "--table", check_inputs.table],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.splitlines() == [
        "CHECK pm32 p=29 lambda=3 recomputed=3 ok=True",
        "CHECK pm32 p=29 lambda=4 recomputed=3 ok=False",
        "CHECKED files=2 ok=1 failed=1 invalid=0",
    ]


@pytest.mark.parametrize("mode", ["pm32", "sum16"])
def test_modp_huge_p_is_refused_by_the_table(check_inputs, capsys, mode):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "modp", "--p", str(2**61 - 1), "--lambda", "0",
                       "--mode", mode, "--table", check_inputs.table)
    assert code == 3, err
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("p, mode, limit", [(29, "pm32", 2000), (300007, "pm32", 36649),
                                            (3000017, "pm32", 116044),
                                            (300007, "sum16", 300007)])
def test_modp_fallback_table_reaches_p(monkeypatch, capsys, p, mode, limit):
    # sum16 needs limit >= p, while the pm32 window settles at 26.2 or
    # 41.9 sqrt(p), so pm32 and sum96 ask for 67 isqrt(p); a fallback of p
    # was refused past the series cap
    requested = []

    def builder(n):
        requested.append(n)
        return build_tau_table_series(100)

    monkeypatch.setattr(tau_core, "build_tau_table_series", builder)
    monkeypatch.delenv("TAU_TABLE_PATH", raising=False)
    code, _, _ = run(capsys, "modp", "--p", str(p), "--lambda", "1", "--mode", mode)
    assert requested == [limit]
    assert code in (2, 3)  # the 100-entry stand-in cannot serve p


def test_modp_certificates_at_a_large_prime(tmp_path, monkeypatch, capsys, table_100k):
    p = 99991
    table_path = tmp_path / "table.txt"
    save_table(table_path, table_100k)
    # parse the saved table once; every check below still decodes its JSON and
    # verifies against the table read back from the file
    monkeypatch.setattr(verify, "load_table", functools.lru_cache(maxsize=1)(verify.load_table))
    ctx, abc = build_context(p, table_100k), build_abc_context(p, table_100k)
    rng = random.Random(99991)
    emitters = {"pm32": lambda lam: represent_pm32(lam, ctx, table_100k),
                "sum96": lambda lam: represent_sum96(lam, ctx, table_100k),
                "sum16": lambda lam: represent_sum16(lam, p, table_100k, ctx=abc)}
    for kind, emit in emitters.items():
        for lam in rng.sample(range(p), 10):
            cert = emit(lam)
            assert cert.kind == kind and verdict(cert, table_100k), (kind, lam)
            cert_path = tmp_path / f"{kind}.json"
            cert_path.write_text(json.dumps(cert.to_json_dict()))
            code, out, _ = run(capsys, "check", str(cert_path), "--table", str(table_path))
            assert code == 0, (kind, lam)
            assert f"CHECK {kind} p={p} lambda={lam} recomputed={lam} ok=True" in out


# -------------------------------------- tables with damaged small entries


@pytest.fixture(scope="module")
def small_entries_damaged(tmp_path_factory, table_2k):
    """A saved 2000-entry table whose tau(2..10) read -1, 2, -2, ..., -5. The
    finisher once took its coins from these entries, and coins this small
    needed some 2e5 search layers for a remainder near 1e6."""
    values = list(table_2k.values)
    values[2:11] = [-1, 2, -2, 3, -3, 4, -4, 5, -5]
    path = tmp_path_factory.mktemp("small") / "table.txt"
    save_table(path, TauTable(table_2k.limit, values))
    return str(path)


@pytest.mark.parametrize("target", ["5", "-24"])
def test_represent_on_damaged_small_entries_ends_at_the_self_check(small_entries_damaged,
                                                                  target):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tauwaring.cli", "represent",
                           "--target", target, "--table", small_entries_damaged],
                          capture_output=True, text=True, env=env, timeout=5)
    assert time.perf_counter() - t0 < 5
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr


# ----------------------------------------- tables damaged past the first block


@pytest.fixture(scope="module")
def damaged_tables(tmp_path_factory, table_20k, check_inputs):
    """A pm32 certificate, and saved 2e4 tables whose last line is damaged,
    each with the error line that every command prints for it."""
    workdir = tmp_path_factory.mktemp("damaged")
    cert = workdir / "cert.json"
    cert.write_text(json.dumps(check_inputs.certs["pm32"]))
    table = workdir / "table.txt"
    save_table(table, table_20k)
    head, last = table.read_bytes()[:-1].rsplit(b"\n", 1)
    bad = last.replace(b"\t", b"\t+")
    table.write_bytes(head + b"\n" + bad + b"\n")
    huge = workdir / "huge.txt"
    huge.write_bytes(head + b"\n20000\t" + b"9" * 5000 + b"\n")
    with pytest.raises(ValueError) as limit:
        int("9" * 5000)
    return SimpleNamespace(
        cert=str(cert),
        table=str(table),
        error=f"error: line 20001: malformed entry {bad.decode()!r}\n",
        huge=str(huge),
        huge_error=f"error: {limit.value}\n",
    )


@pytest.mark.parametrize("argv", [
    ("check", "{cert}", "--table", "{table}"),
    ("represent", "--target", "5", "--table", "{table}"),
    ("modp", "--p", "29", "--lambda", "3", "--mode", "pm32", "--table", "{table}"),
    ("verify", "--suite", "hecke", "--table", "{table}"),
    ("check", "{cert}"),
], ids=["check", "represent", "modp", "verify", "check-env"])
def test_commands_name_a_damaged_last_table_line(damaged_tables, capsys, monkeypatch, argv):
    monkeypatch.setenv("TAU_TABLE_PATH", damaged_tables.table)
    args = [a.format(cert=damaged_tables.cert, table=damaged_tables.table) for a in argv]
    assert run(capsys, *args) == (3, "", damaged_tables.error)


def test_check_refuses_a_table_value_past_the_int_digit_limit(damaged_tables, capsys):
    code, out, err = run(capsys, "check", damaged_tables.cert, "--table", damaged_tables.huge)
    assert (code, out, err) == (3, "", damaged_tables.huge_error)
