import json

import pytest

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


class TestSpectrum:
    def test_values(self, capsys):
        code, out = run(capsys, "spectrum", "--weights", "1/2,1/2",
                        "--max-len", "2")
        assert code == 0
        assert json.loads(out)["values"] == ["1/4", "1/2", "1", "2", "4"]


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

    def test_seed_changes_instances(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        code = main(["probe", "center", "--weights", "1/3,2/3",
                     "--seed", "3", "--json", str(a)])
        capsys.readouterr()
        assert code == 0


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
            capsys, ["spectrum", "--weights", "1/2,1/2", "--max-len", "9"],
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

    def test_verify_all_refuses_weights_some_suites_ignore(self, capsys):
        self.assert_one_line_exit_2(
            capsys, ["verify", "all", "--weights", "1/4,3/4"],
            "draws its own weights in multiplications, relations, quantize")
