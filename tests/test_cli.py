import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fockboundary
from fockboundary.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_half(self, capsys):
        code, out = run(capsys, "classify", "--weights", "1/2,1/2")
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert rep["kind"] == "III_lambda"
        assert rep["lambda"] == "1/2"

    def test_dense(self, capsys):
        code, out = run(capsys, "classify", "--weights", "1/3,2/3")
        assert json.loads(out)["kind"] == "III_one"

    def test_bad_weights_exit_2(self, capsys):
        assert main(["classify", "--weights", "1/3,1/3"]) == 2

    def test_large_coprime_denominator(self, capsys):
        n = (10 ** 9 + 7) * 998244353
        code, out = run(capsys, "classify",
                        "--weights", "1/%d,%d/%d" % (n, n - 1, n))
        assert code == 0
        assert json.loads(out)["kind"] == "III_one"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance_exit_2(self, capsys, tol):
        code = main(["classify", "--weights", "0.25,0.75", "--mode", "float",
                     "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "must be positive and finite, got %s" % tol in errors[0]


class TestSpectrum:
    def test_values(self, capsys):
        code, out = run(capsys, "spectrum", "--weights", "1/2,1/2",
                        "--max-len", "2")
        assert code == 0
        assert json.loads(out)["values"] == ["1/4", "1/2", "1", "2", "4"]

    def test_long_words_from_letter_counts(self, capsys):
        # 55 letter-count vectors, where 1023 words would make 1046529 pairs
        code, out = run(capsys, "spectrum", "--weights", "1/3,2/3",
                        "--max-len", "9")
        assert code == 0
        assert len(json.loads(out)["values"]) == 271


class TestProduct:
    @pytest.fixture
    def element_files(self, tmp_path, w_half):
        from fockboundary.algebra import CuntzElement

        x = CuntzElement.monomial(w_half, (1,), ())
        y = CuntzElement.monomial(w_half, (), (1,))
        xp = tmp_path / "x.json"
        yp = tmp_path / "y.json"
        xp.write_text(json.dumps(x.to_json()))
        yp.write_text(json.dumps(y.to_json()))
        return str(xp), str(yp)

    def test_symbolic(self, capsys, element_files):
        xp, yp = element_files
        code, out = run(capsys, "product", "--weights", "1/2,1/2", xp, yp)
        assert code == 0
        terms = json.loads(out)["result"]["terms"]
        assert terms == [{"I": "1", "J": "1", "im": "0", "re": "1"}]

    def test_iterative(self, capsys, element_files):
        xp, yp = element_files
        code, out = run(capsys, "product", "--weights", "1/2,1/2",
                        xp, yp, "--method", "iterative", "--cut", "5")
        assert code == 0
        rep = json.loads(out)
        assert rep["steps_used"] >= 0
        entries = {(e["row"], e["col"]): e["re"]
                   for e in rep["result"]["entries"]}
        assert entries[("", "")] == "1/2"

    def test_iterative_cut_defaults_to_6(self, capsys, element_files):
        xp, yp = element_files
        argv = ["product", "--weights", "1/2,1/2", xp, yp, "--method", "iterative"]
        code, out = run(capsys, *argv)
        rep = json.loads(out)
        assert code == 0 and rep["result"]["cut"] == 6 - rep["steps_used"] - 1
        assert run(capsys, *argv, "--cut", "6") == (code, out)

    def test_iterative_reports_only_the_certified_block(self, capsys, tmp_path):
        # S_1* S_1 is the identity.  The guard of the product is 1, so at
        # cut 5 only the degree <= 3 block is certified: the degree 4
        # block of the stabilized iterate lacks the identity's 16 entries
        from fockboundary.algebra import CuntzElement
        from fockboundary.fock import WeightVector, words_up_to

        w = WeightVector.parse("1/3,2/3")
        paths = []
        for name, (I, J) in (("x", ((), (1,))), ("y", ((1,), ()))):
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(CuntzElement.monomial(w, I, J).to_json()))
            paths.append(str(path))
        code, out = run(capsys, "product", "--weights", "1/3,2/3", *paths,
                        "--method", "iterative", "--cut", "5")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["cut"] == 3
        assert [(e["row"], e["col"], e["re"], e["im"]) for e in result["entries"]] \
            == [("".join(map(str, v)),) * 2 + ("1", "0") for v in words_up_to(2, 3)]

    def test_iterative_cut_over_budget_exit_2(self, capsys, element_files):
        # x's truncation at cut 40 would hold 2**40 - 1 entries
        xp, yp = element_files
        start = time.perf_counter()
        code = main(["product", "--weights", "1/2,1/2", xp, yp,
                     "--method", "iterative", "--cut", "40"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(
            "error: to_truncated at cut 40 exceeded the term budget (")
        assert elapsed < 1.0

    def test_malformed_element_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["product", "--weights", "1/2,1/2",
                     str(bad), str(bad)]) == 2


class TestVerifyAndDeterminism:
    def test_verify_relations_exit_0(self, capsys):
        code, _ = run(capsys, "verify", "relations", "--seed", "7")
        assert code == 0

    def test_byte_identical_reports(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code = main(["verify", "delta", "--seed", "11",
                         "--json", str(path)])
            capsys.readouterr()
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_delta_at_nine_letters_ends_within_5_s(self):
        # the span is computed from d: words of up to 2 letters at d = 9
        src = str(Path(fockboundary.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        run = subprocess.run(
            [sys.executable, "-m", "fockboundary.cli", "verify", "delta",
             "--weights", ",".join(["1/9"] * 9)],
            env=env, capture_output=True, text=True, timeout=5)
        assert run.returncode == 0, run.stderr
        rep = json.loads(run.stdout)
        assert rep["ok"] and rep["max_len"] == 2 and rep["kms_pairs"] > 0

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        # the reader is gone before the report is written; unbuffered, the
        # write fails in print, buffered, at the flush
        src = str(Path(fockboundary.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "fockboundary.cli", "verify", "relations",
                 "--seed", "7"],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write)
        assert run.returncode == 141
        assert run.stderr == ""

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_probe_center_draws_nothing(self, capsys, flag):
        # the center probe solves its span exactly: no draws to seed or count
        code = main(["probe", "center", "--weights", "1/3,2/3", flag, "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: probe center does not read %s\n" % flag

    @pytest.mark.parametrize("argv", [
        ["verify", "masa"],
        ["probe", "masa"],
        ["probe", "center"],
    ])
    def test_commutant_probes_at_nine_letters_end_within_10_s(self, argv):
        # the default span is computed from d: words of up to 1 letter at d = 9
        src = str(Path(fockboundary.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        run = subprocess.run(
            [sys.executable, "-m", "fockboundary.cli", *argv,
             "--weights", ",".join(["1/9"] * 9)],
            env=env, capture_output=True, text=True, timeout=10)
        assert run.returncode == 0, run.stderr
        rep = json.loads(run.stdout)
        probe = rep["probe"] if argv[0] == "verify" else rep["report"]
        assert probe["max_len"] == 1 and probe["span_dimension"] == 99

    @pytest.mark.parametrize("suite, span", [
        ("phi", ("family_size", 100)),  # words of up to 1 letter
        ("dr", ("n_max", 2)),  # u_2 has 9^3 terms
    ])
    def test_phi_and_dr_at_nine_letters_end_within_10_s(self, suite, span):
        # the span is computed from d, as delta's and masa's are
        src = str(Path(fockboundary.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        run = subprocess.run(
            [sys.executable, "-m", "fockboundary.cli", "verify", suite,
             "--weights", ",".join(["1/9"] * 9)],
            env=env, capture_output=True, text=True, timeout=10)
        assert run.returncode == 0, run.stderr
        rep = json.loads(run.stdout)
        assert rep["ok"] and rep[span[0]] == span[1]


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["classify", "--mode", "float"],
    ["spectrum"],
    ["probe", "masa"],
    ["probe", "center"],
    ["probe", "dr"],
    ["probe", "diffuse"],
])
def test_report_names_its_weights(capsys, argv):
    code, out = run(capsys, *argv, "--weights", "0.25,0.75")
    assert code == 0
    assert json.loads(out)["weights"] == (
        ["0.25", "0.75"] if "float" in argv else ["1/4", "3/4"])


class TestQuantizeAndProbe:
    def test_quantize_swap(self, capsys, tmp_path):
        from fockboundary.algebra import CuntzElement
        from fockboundary.fock import WeightVector

        w = WeightVector.uniform(2)
        x = CuntzElement.monomial(w, (1,), ())
        xp = tmp_path / "x.json"
        xp.write_text(json.dumps(x.to_json()))
        code, out = run(capsys, "quantize", "--weights", "1/2,1/2",
                        "--element", str(xp), "--swap", "1", "2")
        assert code == 0
        assert json.loads(out)["result"]["terms"][0]["I"] == "2"

    def test_quantize_nonuniform_exit_2(self, capsys, tmp_path):
        from fockboundary.algebra import CuntzElement
        from fockboundary.fock import WeightVector

        w = WeightVector.parse("1/3,2/3")
        xp = tmp_path / "x.json"
        xp.write_text(json.dumps(
            CuntzElement.identity(w).to_json()))
        assert main(["quantize", "--weights", "1/3,2/3",
                     "--element", str(xp), "--swap", "1", "2"]) == 2

    def test_quantize_unitary_with_gaussian_entries(self, capsys, tmp_path):
        # diag(i, 1) maps M(1, 2) to i M(1, 2)
        from fockboundary.algebra import CuntzElement
        from fockboundary.fock import WeightVector

        w = WeightVector.uniform(2)
        xp = tmp_path / "x.json"
        xp.write_text(json.dumps(CuntzElement.monomial(w, (1,), (2,)).to_json()))
        up = tmp_path / "u.json"
        up.write_text('[[{"re": "0", "im": "1"}, 0], [0, "1"]]')
        code, out = run(capsys, "quantize", "--weights", "1/2,1/2",
                        "--element", str(xp), "--unitary", str(up))
        assert code == 0
        assert json.loads(out)["result"]["terms"] == [
            {"I": "1", "J": "2", "re": "0", "im": "1"}]

    @pytest.mark.parametrize("rows", [
        '[[{"re": "0"}, 0], [0, 1]]',
        '[[{"re": "1/2", "im": "1/2"}, 0], [0, 1]]',
        '[["i", 0], [0, 1]]',
    ])
    def test_quantize_bad_unitary_exit_2(self, capsys, tmp_path, rows):
        from fockboundary.algebra import CuntzElement
        from fockboundary.fock import WeightVector

        xp = tmp_path / "x.json"
        xp.write_text(json.dumps(CuntzElement.identity(WeightVector.uniform(2)).to_json()))
        up = tmp_path / "u.json"
        up.write_text(rows)
        assert main(["quantize", "--weights", "1/2,1/2", "--element", str(xp),
                     "--unitary", str(up)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad --unitary" in captured.err

    def test_probe_masa(self, capsys):
        code, out = run(capsys, "probe", "masa", "--weights", "1/3,2/3")
        assert code == 0
        assert json.loads(out)["report"]["matches_diagonal"]

    def test_probe_dr(self, capsys):
        code, out = run(capsys, "probe", "dr", "--weights", "1/3,2/3",
                        "--word", "12")
        assert code == 0
        assert json.loads(out)["report"]["first_zero"] == 2

    def test_usage_error(self, capsys):
        assert main(["nonsense"]) == 2


class TestLibraryErrors:
    """Library errors leave as one line on stderr with exit 2."""

    def assert_one_line_exit_2(self, capsys, argv, needle):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_spectrum_too_large(self, capsys):
        self.assert_one_line_exit_2(
            capsys, ["spectrum", "--weights", "1/3,1/3,1/3", "--max-len", "13"],
            "exceed the cap")

    def test_iterative_cut_below_word_length(self, capsys, tmp_path, w_half):
        from fockboundary.algebra import CuntzElement

        xp = tmp_path / "x.json"
        xp.write_text(json.dumps(
            CuntzElement.monomial(w_half, (1, 2, 1, 2), ()).to_json()))
        self.assert_one_line_exit_2(
            capsys, ["product", "--weights", "1/2,1/2", str(xp), str(xp),
                     "--method", "iterative", "--cut", "3"],
            "--cut 3 below the maximal word length 4")

    def test_non_integer_term_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("FOCK_TERM_CAP", "1e5")
        self.assert_one_line_exit_2(
            capsys, ["classify", "--weights", "1/2,1/2"], "FOCK_TERM_CAP")

    @pytest.mark.parametrize("argv", [
        ["phi", "--weights", "0.25,0.75"],
        ["delta", "--weights", "0.25,0.75"],
        ["harmonic", "--weights", "0.25,0.75"],
        ["cesaro", "--weights", "0.25,0.75"],
        ["relations"],
        ["all"],
    ])
    def test_verify_refuses_float_mode(self, capsys, argv):
        self.assert_one_line_exit_2(
            capsys, ["verify", *argv, "--mode", "float"], "exact mode only")

    @pytest.mark.parametrize("suite", ["relations", "multiplications", "quantize"])
    def test_verify_refuses_weights_it_would_ignore(self, capsys, suite):
        self.assert_one_line_exit_2(
            capsys, ["verify", suite, "--weights", "1/2,1/2"],
            "draws its own weights")

    @pytest.mark.parametrize("word", [12, [1]])
    @pytest.mark.parametrize("command", ["product", "quantize", "probe"])
    def test_non_string_word_in_element_file(self, capsys, tmp_path, word,
                                             command):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"d": 2, "mode": "exact", "terms": [
            {"I": word, "J": "", "re": "1", "im": "0"}]}))
        argv = {
            "product": ["product", str(path), str(path)],
            "quantize": ["quantize", "--element", str(path), "--swap", "1", "2"],
            "probe": ["probe", "center", "--element", str(path)],
        }[command]
        self.assert_one_line_exit_2(
            capsys, argv + ["--weights", "1/3,2/3"], "malformed word string")

    @pytest.mark.parametrize("obj,key", [
        ({"terms": [{"I": "1", "J": "2", "re": "1/3", "im": "0"}]}, "d"),
        ({"d": 2, "terms": []}, "mode"),
        ({"d": 2, "mode": "exact"}, "terms"),
        ({"d": 2, "mode": "exact", "terms": [{"I": "1", "re": "1", "im": "0"}]}, "J"),
        ({"d": 2, "mode": "exact", "terms": [{"I": "1", "J": "2", "re": "1"}]}, "im"),
    ])
    def test_element_file_missing_key(self, capsys, tmp_path, obj, key):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(obj))
        self.assert_one_line_exit_2(
            capsys, ["product", "--weights", "1/2,1/2", str(path), str(path)],
            "malformed element in %s: missing key '%s'" % (path, key))

    def test_unitary_entry_missing_key(self, capsys, tmp_path):
        from fockboundary.algebra import CuntzElement
        from fockboundary.fock import WeightVector

        xp = tmp_path / "x.json"
        xp.write_text(json.dumps(CuntzElement.identity(WeightVector.uniform(2)).to_json()))
        up = tmp_path / "u.json"
        up.write_text('[[{"re": "0"}, 0], [0, 1]]')
        self.assert_one_line_exit_2(
            capsys, ["quantize", "--weights", "1/2,1/2", "--element", str(xp),
                     "--unitary", str(up)],
            "bad --unitary %s: missing key 'im'" % up)

    def test_verify_all_refuses_weights_some_suites_ignore(self, capsys):
        self.assert_one_line_exit_2(
            capsys, ["verify", "all", "--weights", "1/4,3/4"],
            "draws its own weights in multiplications, relations, quantize")


    @pytest.mark.parametrize("argv", [
        ["verify", "phi", "--trials", "3"],
        ["verify", "phi", "--seed", "3"],
        ["verify", "masa", "--seed", "1"],
        ["verify", "cesaro", "--trials", "2"],
        ["verify", "relations", "--trials", "2"],
        ["verify", "quantize", "--trials", "2"],
        ["probe", "masa", "--weights", "1/3,2/3", "--trials", "5"],
        ["probe", "masa", "--weights", "1/3,2/3", "--seed", "1"],
        ["probe", "masa", "--weights", "1/3,2/3", "--element", "x.json"],
        ["probe", "dr", "--weights", "1/3,2/3", "--element", "x.json"],
        ["probe", "dr", "--weights", "1/3,2/3", "--trials", "2"],
        ["probe", "diffuse", "--weights", "1/3,2/3", "--word", "12"],
        ["probe", "center", "--weights", "1/3,2/3", "--word", "12"],
        ["probe", "center", "--weights", "1/3,2/3", "--max-len", "5"],
        ["product", "--weights", "1/2,1/2", "x.json", "x.json", "--cut", "-5"],
        ["product", "--weights", "1/2,1/2", "x.json", "x.json", "--cut", "6",
         "--method", "symbolic"],
    ])
    def test_unread_flag_is_refused(self, capsys, argv):
        flag = next(a for a in argv[2:] if a.startswith("--")
                    and a != "--weights")
        self.assert_one_line_exit_2(capsys, argv, "does not read %s" % flag)

    @pytest.mark.parametrize("kind", ["masa", "dr", "diffuse"])
    def test_probe_kinds_that_read_max_len(self, capsys, kind):
        argv = ["probe", kind, "--weights", "1/3,2/3"]
        _, default = run(capsys, *argv)
        code, out = run(capsys, *argv, "--max-len", "0")
        assert code != 2
        assert json.loads(out)["report"] != json.loads(default)["report"]

    def test_span_over_the_cap_is_refused(self, capsys):
        # d = 9, L = 3: 664119 coordinates, refused before any product
        self.assert_one_line_exit_2(
            capsys, ["probe", "masa", "--weights", ",".join(["1/9"] * 9),
                     "--max-len", "3"], "coordinates (cap 5000)")

    def test_verify_all_reads_flags_some_suite_reads(self, capsys):
        code, out = run(capsys, "verify", "all", "--trials", "2", "--seed", "3")
        assert code == 0
        assert json.loads(out)["ok"]


def readme_commands():
    """The README's CLI example lines that need no input file."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", text, re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("fockboundary ") and ".json" not in line]


def test_readme_has_cli_examples():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_runs(capsys, line):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


class TestBadCounts:
    """A negative --max-len or a --trials below 1 is refused by the parser."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--weights", "1/2,1/2", "--max-len", "-1"],
        ["verify", "multiplications", "--trials", "0"],
        ["verify", "delta", "--trials", "0"],
        ["probe", "masa", "--weights", "1/2,1/2", "--max-len", "-1"],
        ["probe", "diffuse", "--weights", "1/2,1/2", "--max-len", "-2"],
        ["probe", "center", "--weights", "1/2,1/2", "--trials", "-1"],
    ])
    def test_refused_with_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be at least" in captured.err

    def test_dr_max_len_zero_runs_no_step(self, capsys):
        code, out = run(capsys, "probe", "dr", "--weights", "1/2,1/2",
                        "--max-len", "0")
        assert code == 1
        assert json.loads(out)["report"]["gns_norms"] == []
