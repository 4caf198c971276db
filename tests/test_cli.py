import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from weylspecht.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# roots


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A3")
    assert code == 0
    positive_line = next(l for l in out.splitlines() if l.startswith("positive roots:"))
    assert len(positive_line.split(":", 1)[1].split()) == 6


def test_roots_json_g2(capsys):
    code, out, _ = run(capsys, "roots", "--type", "G2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "weyl-specht/1"
    gram = [[Fraction(x) for x in row] for row in doc["gram"]]
    assert gram == [[Fraction(2), Fraction(-3)], [Fraction(-3), Fraction(6)]]


def test_roots_bad_label(capsys):
    code, _, err = run(capsys, "roots", "--type", "Z9")
    assert code == 2
    assert "Z9" in err


# --------------------------------------------------------------------------
# tabloids


def test_tabloids_a3(capsys):
    code, out, _ = run(capsys, "tabloids", "--type", "A3", "--J", "100,001")
    assert code == 0
    assert "tabloids (3):" in out
    assert "{100,001}" in out and "{010,111}" in out


def test_tabloids_d4_json(capsys):
    code, out, _ = run(
        capsys, "tabloids", "--type", "D4", "--J", "1000,0100,0001", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["psi"]["label"] == "A3"
    assert doc["psi"]["normalizer_order"] == 48
    assert doc["psi"]["index"] == 4
    assert [t["word"] for t in doc["tabloids"]] == [[], [3], [2, 3], [1, 2, 3]]


def test_tabloids_whole_system(capsys):
    code, out, _ = run(capsys, "tabloids", "--type", "A3", "--J", "100,010,001")
    assert code == 0
    assert "tabloids (1):" in out


def test_tabloids_bad_root(capsys):
    code, _, err = run(capsys, "tabloids", "--type", "A3", "--J", "100,botch")
    assert code == 2
    assert "botch" in err


# --------------------------------------------------------------------------
# specht


def test_specht_d4_full_run(capsys):
    code, out, _ = run(
        capsys,
        "specht",
        "--type",
        "D4",
        "--J",
        "1000,0100,0001",
        "--Jp",
        "1110",
        "--check",
        "useful,good",
        "--char",
        "1 3 2",
    )
    assert code == 0
    assert "dim S = 3, dim radical = 0, dim D = 3" in out
    assert "useful sub-system: yes" in out
    assert "good sub-system: yes" in out
    assert "psi(1 3 2) = -1" in out


def test_specht_d4_json_report(capsys):
    code, out, _ = run(
        capsys,
        "specht",
        "--type",
        "D4",
        "--J",
        "1000,0100,0001",
        "--Jp",
        "1110",
        "--check",
        "useful,good",
        "--char",
        "1 3 2",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "weyl-specht/1"
    assert doc["ambient"] == "D4"
    assert doc["psi"] == {"label": "A3", "J": ["1000", "0100", "0001"]}
    assert doc["psi_prime"] == {"label": "A1", "J'": ["1110"]}
    assert doc["field"] == "Q"
    assert doc["tabloid_count"] == 4
    assert (doc["dim_S"], doc["dim_radical"], doc["dim_D"]) == (3, 0, 3)
    assert doc["useful"] is True and doc["good"] is True
    assert doc["sample_characters"] == [{"word": [1, 3, 2], "trace": "-1"}]
    assert doc["checks"]["useful"] is True
    assert doc["checks"]["good"]["good"] is True
    assert doc["checks"]["vanishing_witness"] is None


def test_specht_g2_vanishing(capsys):
    code, out, _ = run(capsys, "specht", "--type", "G2", "--J", "10", "--Jp", "01,31")
    assert code == 0
    assert "dim S = 0" in out
    assert "vanishing witness: 2 1 2 1 2" in out


def test_specht_d4_degree_six(capsys):
    code, out, _ = run(
        capsys, "specht", "--type", "D4", "--J", "1000,0100", "--Jp", "0001,0110"
    )
    assert code == 0
    assert "dim S = 6" in out


def test_specht_failed_check_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "specht",
        "--type",
        "G2",
        "--J",
        "10",
        "--Jp",
        "01,31",
        "--check",
        "useful",
    )
    assert code == 3
    assert "useful: FAIL" in out


def test_specht_probe_check(capsys):
    code, out, _ = run(
        capsys,
        "specht",
        "--type",
        "A3",
        "--J",
        "100,001",
        "--Jp",
        "110",
        "--check",
        "probe",
        "--probe-trials",
        "5",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["probe"]["trials"] == 5
    assert doc["checks"]["probe"]["violations"] == []


def test_specht_char_words_file(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("1 3 2\n# comment\n2\n")
    code, out, _ = run(
        capsys,
        "specht",
        "--type",
        "D4",
        "--J",
        "1000,0100,0001",
        "--Jp",
        "1110",
        "--char",
        str(path),
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["word"] for c in doc["sample_characters"]] == [[1, 3, 2], [2]]


def test_specht_char_file_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(
        capsys,
        "specht",
        "--type",
        "D4",
        "--J",
        "1000,0100,0001",
        "--Jp",
        "1110",
        "--char",
        str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err


def test_specht_field_f2(capsys):
    code, out, _ = run(
        capsys,
        "specht",
        "--type",
        "D4",
        "--J",
        "1000,0100,0001",
        "--Jp",
        "1110",
        "--field",
        "F2",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "F2"
    assert (doc["dim_S"], doc["dim_radical"], doc["dim_D"]) == (3, 1, 2)


def test_specht_rejects_overlap(capsys):
    code, _, err = run(
        capsys, "specht", "--type", "A3", "--J", "100", "--Jp", "100,001"
    )
    assert code == 2
    assert "disjoint" in err


def test_specht_rejects_unknown_check(capsys):
    code, _, err = run(
        capsys,
        "specht", "--type", "A3", "--J", "100,001", "--Jp", "110",
        "--check", "bogus",
    )
    assert code == 2
    assert "bogus" in err


def test_specht_rejects_bad_field(capsys):
    code, _, err = run(
        capsys,
        "specht", "--type", "A3", "--J", "100,001", "--Jp", "110",
        "--field", "F9",
    )
    assert code == 2


def test_char_word_out_of_range(capsys):
    code, _, err = run(
        capsys,
        "specht", "--type", "A3", "--J", "100,001", "--Jp", "110",
        "--char", "1 7",
    )
    assert code == 2
    assert "out of range" in err


def test_specht_probe_text_mode(capsys):
    code, out, _ = run(
        capsys,
        "specht", "--type", "A3", "--J", "100,001", "--Jp", "110",
        "--check", "probe", "--probe-trials", "3",
    )
    assert code == 0
    assert "probe: trials=3" in out and "pass" in out


def test_probe_trials_below_one_is_usage_error(capsys):
    for trials in ("0", "-1"):
        code, out, err = run(
            capsys,
            "specht", "--type", "A3", "--J", "100,001", "--Jp", "110",
            "--check", "probe", "--probe-trials", trials,
        )
        assert code == 2
        assert out == ""
        assert "--probe-trials" in err


D4_COMMANDS = (
    ("tabloids", "--type", "D4", "--J", "1000"),
    ("specht", "--type", "D4", "--J", "1000,0100,0001", "--Jp", "1110"),
)


def test_group_limit_exit_code(capsys):
    for argv in D4_COMMANDS:
        code, out, err = run(capsys, *argv, "--limit", "10")
        assert code == 4
        assert out == ""
        assert "limit" in err


def test_group_limit_is_the_order(capsys):
    # |W(D4)| = 192: a limit of exactly |W| passes, one less exits 4
    for argv in D4_COMMANDS:
        code, out, err = run(capsys, *argv, "--limit", "192")
        assert code == 0
        assert out.startswith("ambient D4: |W| = 192\n")
        code, out, err = run(capsys, *argv, "--limit", "191")
        assert code == 4
        assert out == ""
        assert err == "error: group of D4 exceeds the limit of 191 elements\n"


def test_limit_below_one_is_usage_error(capsys):
    commands = (
        ("tabloids", "--type", "A3", "--J", "100"),
        ("specht", "--type", "A3", "--J", "100,001", "--Jp", "110"),
    )
    for argv in commands:
        for limit in ("0", "-3"):
            code, out, err = run(capsys, *argv, "--limit", limit)
            assert code == 2
            assert out == ""
            assert "--limit" in err


def test_bad_usage_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_identical_invocations_are_byte_identical(capsys):
    args = [
        "specht", "--type", "D4", "--J", "1000,0100,0001", "--Jp", "1110",
        "--check", "useful,good,probe", "--probe-trials", "5", "--json",
    ]
    code1 = main(list(args))
    first = capsys.readouterr().out
    code2 = main(list(args))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_json_reports_reparse(capsys):
    for args in (
        ["roots", "--type", "D4", "--json"],
        ["tabloids", "--type", "A3", "--J", "100,001", "--json"],
        ["specht", "--type", "A3", "--J", "100,001", "--Jp", "110", "--json"],
    ):
        code = main(list(args))
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "weyl-specht/1"


def test_closed_stdout_exits_1_without_traceback():
    # the reader closes the pipe before the child writes, as `| head -1` may
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = [sys.executable, "-m", "weylspecht.cli", "tabloids", "--type", "A5", "--J", "10000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""
