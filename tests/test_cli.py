import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import disjoint_pairs, normalizer_by_definition, weyl_group
from weylspecht.cli import main
from weylspecht.subsystem import closure_from_simples
from weylspecht.rootsys import build_root_system, format_root, parse_root


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
    assert (doc["label"], doc["rank"], doc["positive_count"]) == ("G2", 2, 6)
    assert len(doc["roots"]) == 12
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


@pytest.mark.parametrize(
    "label, j_text",
    [("A3", "100,001"), ("G2", "10"), ("B3", "100"), ("D4", "1000,0100"), ("F4", "1000,0100,0010")],
)
def test_tabloids_normalizer_order_is_the_swept_normalizer(capsys, label, j_text):
    # the CLI reads |N(psi)| as |W| // index without generating W
    code, out, _ = run(capsys, "tabloids", "--type", label, "--J", j_text, "--json")
    assert code == 0
    system = build_root_system(label)
    psi = closure_from_simples(system, [parse_root(system, t) for t in j_text.split(",")])
    n_psi = normalizer_by_definition(system, psi, weyl_group(system))[0]
    assert json.loads(out)["psi"]["normalizer_order"] == len(n_psi)


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


def _word_text(word):
    return " ".join(map(str, word)) or "e"


def _agreement_cases():
    for label in ("A3", "G2"):
        system = build_root_system(label)
        for psi, psi_prime in disjoint_pairs(system, max_size=2):
            if psi.simples and psi_prime.simples:
                J, Jp = (
                    ",".join(format_root(system, r) for r in sub.simples)
                    for sub in (psi, psi_prime)
                )
                for field in ("Q", "F2"):
                    yield label, J, Jp, field


def test_text_and_json_reports_agree(capsys):
    # both renderers read one computed report; the manifest pins only the
    # benchmark pairs, so every small pair of A3 and G2 is compared here
    cases = list(_agreement_cases())
    assert len(cases) == 2 * 158
    for label, J, Jp, field in cases:
        argv = ["specht", "--type", label, "--J", J, "--Jp", Jp, "--field", field,
                "--check", "useful,good", "--char", "1 2"]
        code, text, _ = run(capsys, *argv)
        json_code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        lines = text.splitlines()
        case = f"{label} J={J} J'={Jp} {field}"
        assert code == json_code, case
        dims = (doc["dim_S"], doc["dim_radical"], doc["dim_D"])
        assert "dim S = %d, dim radical = %d, dim D = %d" % dims in lines, case
        yes_no = {True: "yes", False: "no"}
        assert f"useful sub-system: {yes_no[doc['useful']]}" in lines, case
        assert f"good sub-system: {yes_no[doc['good']]}" in lines, case
        good_line = next(line for line in lines if line.startswith("  good: "))
        witnesses = doc["checks"]["good"]["witnesses"]
        cosets = " ".join(map(_word_text, witnesses))
        assert ("missing cosets" in good_line) == bool(witnesses), case
        if witnesses:
            assert good_line.endswith(f"(missing cosets: {cosets})"), case
        witness = doc["checks"]["vanishing_witness"]
        witness_lines = [line for line in lines if line.startswith("vanishing witness: ")]
        expected = [] if witness is None else [f"vanishing witness: {_word_text(witness)}"]
        assert witness_lines == expected, case
        assert f"  psi(1 2) = {doc['sample_characters'][0]['trace']}" in lines, case


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


def test_specht_char_accepts_e_as_the_identity(capsys, tmp_path):
    # the reports write the identity as e, so --char reads it back
    d4 = ["specht", "--type", "D4", "--J", "1000,0100,0001", "--Jp", "1110"]
    code, out, _ = run(capsys, *d4, "--char", "e", "--char", " e ")
    assert code == 0
    assert out.endswith("character values:\n  psi(e) = 3\n  psi(e) = 3\n")
    path = tmp_path / "words.txt"
    path.write_text("e\n1 3 2\n")
    code, out, _ = run(capsys, *d4, "--char", str(path), "--json")
    assert code == 0
    assert json.loads(out)["sample_characters"] == [
        {"word": [], "trace": "3"},
        {"word": [1, 3, 2], "trace": "-1"},
    ]
    code, out, err = run(capsys, *d4, "--char", "e 1")
    assert code == 2 and out == ""
    assert "malformed word 'e 1'" in err


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
        code, out, err = run(capsys, *argv, "--limit", "3")
        assert code == 4
        assert out == ""
        assert "limit" in err


def test_group_limit_is_the_largest_walk(capsys):
    # the limit bounds the points of each walk, not |W(D4)| = 192: the
    # tabloid walk of J = 1000 has 12 points, and the D4 report's largest
    # walks have 4, its tabloids and the D_psi' translates it lists
    for argv, largest in zip(D4_COMMANDS, (12, 4)):
        code, out, err = run(capsys, *argv, "--limit", str(largest))
        assert code == 0
        assert out.startswith("ambient D4: |W| = 192\n")
        code, out, err = run(capsys, *argv, "--limit", str(largest - 1))
        assert code == 4
        assert out == ""
        assert err == f"error: coset walk exceeds the limit of {largest - 1} points\n"


def test_listing_walk_past_the_limit_prints_nothing(capsys):
    # the A7 report lists 89 points of D_psi', more than its 56 tabloids and
    # |W(psi')| = 8; the listing runs before the first line is printed
    argv = (
        "specht", "--type", "A7", "--J", "1000000,0100000,0010000,0001000,0000010,0000001",
        "--Jp", "1111100,0111110,0011111",
    )
    code, out, err = run(capsys, *argv, "--limit", "89")
    assert (code, err) == (0, "")
    assert "independent generators:" in out
    code, out, err = run(capsys, *argv, "--limit", "88")
    assert (code, out) == (4, "")
    assert err == "error: coset walk exceeds the limit of 88 points\n"


def test_column_group_past_the_walk_bound_exits_4(capsys):
    # the walk of W(psi') = W(B7), 645120 elements, meets the default bound
    # of 100000 points
    argv = (
        "specht", "--type", "B8", "--J", "10000000",
        "--Jp", "01000000,00100000,00010000,00001000,00000100,00000010,00000001",
        "--json",
    )
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "error: coset walk exceeds the limit of 100000 points\n"


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


# --------------------------------------------------------------------------
# start-up: what each process loads

SRC = str(Path(__file__).resolve().parent.parent / "src")

# what `from weylspecht import *` binds
EXPORTED = [
    "GeneratedGroup", "GoodSubsystemResult", "GroupElement", "GroupLimitError",
    "PrimeField", "ProbeReport", "QQ", "Root", "RootSystem", "SpechtModuleData",
    "Subsystem", "Tabloid", "TabloidSpace", "act_tabloid", "act_vector",
    "apply_kappa", "apply_to_root", "bilinear_form", "build_root_system",
    "build_specht_module", "character_norm", "character_value",
    "closure_from_simples", "compose", "cyclic_submodule", "descent_word",
    "distinguished_reps", "enumerate_tabloids", "exactlin", "field_by_name",
    "format_module_vector", "format_root", "format_tabloid", "generate_group",
    "group_order", "identity", "inner_product", "inverse", "is_good_subsystem",
    "is_useful_subsystem", "length", "matrix_of", "orthogonal_complement",
    "parse_root", "polytabloid", "quotient_dimension", "reflect_root", "rootsys",
    "sign", "simple_reflection", "specht", "subgroup_generated",
    "submodule_theorem_probe", "subsystem", "vanishing_obstruction", "verify",
    "weyl", "word_to_element",
]

# run in a fresh interpreter: the modules that `code` adds to sys.modules
_LOADED = """
import json, sys
before = set(sys.modules)
exec(sys.argv[1])
sys.stderr.write(json.dumps(sorted(set(sys.modules) - before)))
"""


def _loaded_by(code):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def _package_modules(loaded):
    return {m for m in loaded if m == "weylspecht" or m.startswith("weylspecht.")}


def test_package_import_loads_no_submodule():
    assert _package_modules(_loaded_by("import weylspecht")) == {"weylspecht"}


def test_cli_import_loads_only_rootsys():
    loaded = _loaded_by("import weylspecht.cli")
    assert _package_modules(loaded) == {"weylspecht", "weylspecht.cli", "weylspecht.rootsys"}
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [["roots", "--type", "F4"], ["roots", "--type", "F4", "--json"]])
def test_roots_loads_no_other_module(argv):
    loaded = _loaded_by(f"from weylspecht.cli import main; assert main({argv!r}) == 0")
    assert _package_modules(loaded) == {"weylspecht", "weylspecht.cli", "weylspecht.rootsys"}


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_tabloids_never_loads_verify(fmt):
    argv = ["tabloids", "--type", "A5", "--J", "10000,00010", *fmt]
    loaded = _loaded_by(f"from weylspecht.cli import main; assert main({argv!r}) == 0")
    assert "weylspecht.specht" in loaded
    assert "weylspecht.verify" not in loaded


def test_lazy_exports_are_the_module_objects():
    import importlib

    import weylspecht

    assert weylspecht.__all__ == sorted(EXPORTED)
    assert dir(weylspecht) == sorted(EXPORTED)
    namespace = {}
    exec("from weylspecht import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTED)
    for name in EXPORTED:
        value = getattr(weylspecht, name)
        home = weylspecht._HOME.get(name, name)
        module = importlib.import_module(f"weylspecht.{home}")
        assert value is (module if home == name else getattr(module, name)), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(weylspecht, "no_such_name")
