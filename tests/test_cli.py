"""Tests for the text front end: grammar parsing, canonical printing,
command reports, exit codes, and byte-stable machine output."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from artifact.chain import ChainComplex, Check, GradedMap, GradedModule
from artifact.circle import Window
from artifact import cli
from artifact.cli import (MAX_N, MAX_WINDOW_WIDTH, Manifest, ParseError,
                          SumSpec, ValidationError, main, parse_all,
                          parse_all_text, print_complex, run)
from artifact.connsum import ConnSumMaps, FilteredComplex
from artifact.flavors import (BalancedComponents, TowerParams, four_flavors,
                              tower_model)

from helpers import (case2_input, parse, perturb_right_side, print_components,
                     print_sum_file)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "v1"


def write(tmp_path, text, name="in.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_single_generator(self, tmp_path):
        path = write(tmp_path, "complex c\n  gen a 0\nend\n")
        C = parse(path)
        assert isinstance(C, ChainComplex)
        assert C.module.generators == (("a", 0),)
        assert C.p == 0 and C.module.modulus == 0
        assert C.d.is_zero_mod(0) and C.u_action.is_zero_mod(0) and \
            C.y_action.is_zero_mod(0)

    def test_two_line_file_parses(self, tmp_path):
        # End of input closes the last block, so the smallest useful file
        # is just the header and one generator line.
        path = write(tmp_path, "complex point\n  gen a 0\n")
        C = parse(path)
        assert isinstance(C, ChainComplex)
        assert C.module.generators == (("a", 0),)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "# leading note\ncomplex c # trailing\n\n"
                               "  gen a 0\n  # indented note\nend\n")
        assert parse(path).module.generators == (("a", 0),)

    def test_homogeneity_violation_names_pair(self, tmp_path):
        path = write(tmp_path, "complex c\n  gen a 0\n  gen b 0\n"
                               "  d a b 1\nend\n")
        with pytest.raises(ValidationError) as exc:
            parse(path)
        assert exc.value.law == "degree-homogeneity"
        assert "'a'" in exc.value.witness and "'b'" in exc.value.witness

    def test_repeated_entries_accumulate(self, tmp_path):
        path = write(tmp_path, "complex c\n  gen a 1\n  gen b 0\n"
                               "  d a b 1\n  d a b 1\nend\n")
        assert parse(path).d.entries == {("a", "b"): 2}
        path = write(tmp_path, "complex c\n  gen a 1\n  gen b 0\n"
                               "  d a b 1\n  d a b -1\nend\n", "zero.txt")
        assert parse(path).d.is_zero_mod(0)

    def test_filtered_block(self, tmp_path):
        path = write(tmp_path, "complex f\n  gen a 0\n  gen b -1\n"
                               "  dU a b 2 0\nend\n")
        F = parse(path)
        assert isinstance(F, FilteredComplex)
        assert F.d_entries == {("a", "b"): ((0, 2),)} or \
            dict(F.d_entries) == {("a", "b"): [(0, 2)]}

    def test_multiple_blocks_in_order(self, tmp_path):
        path = write(tmp_path, "complex one\n  gen a 0\nend\n"
                               "complex two\n  gen b 1\nend\n")
        objs = parse_all(path)
        assert [name for name, _ in objs] == ["one", "two"]
        assert parse(path).module.generators == (("b", 1),)

    # each id names its case by a short label of the message
    @pytest.mark.parametrize("text,lineno,message", [
        pytest.param(text, lineno, message, id=f"{text}-{lineno}-{label}")
        for text, lineno, label, message in [
            ("complex c\n  gen a 0\n  frob a b 1\nend\n", 3,
             "unknown keyword", "unknown keyword 'frob' in a complex"),
            ("gen a 0\n", 1, "outside a block",
             "unexpected 'gen' outside a block"),
            ("complex c\n  gen a 0\nend\nend\n", 4, "outside any block",
             "end outside any block"),
            ("complex c\n  ring Q\n  gen a 0\nend\n", 2, "ring",
             "ring must be Z or F<p>, got 'Q'"),
            ("complex c\n  gen a zero\nend\n", 2, "degree",
             "expected degree, got 'zero'"),
            ("complex c\n  gen a 0\nend\ncomplex c\n  gen b 0\nend\n", 4,
             "duplicate block name", "duplicate block name 'c'"),
            ("complex c\n  mod 2\n  gen a 0\n  gen b 1\n  dU b a 1 0\nend\n",
             1, "Z-graded", "filtered complexes are Z-graded (mod must be 0)"),
            ("components x\n  gen a 0\nend\n", 2, "outside a part",
             "gen outside a part section"),
            ("components x\n  map q:o->s\nend\n", 2, "map spec",
             "map spec must look like d:o->s, got 'q:o->s'"),
            ("components x\n  entry a b 1\nend\n", 2, "outside a map",
             "entry outside a map section"),
            ("summaps m\n  of a b\nend\n", 1, "sharp",
             "summaps needs both an of line and a sharp line"),
            ("", 1, "no blocks", "no blocks found"),
        ]])
    def test_parse_errors(self, tmp_path, text, lineno, message):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as exc:
            parse_all(path)
        assert exc.value.line == lineno
        assert exc.value.message == message

    @pytest.mark.parametrize("text,law,witness", [
        ("complex c\n  gen a 0\n  gen b 0\n  d a b 1\nend\n",
         "degree-homogeneity",
         "entry 'a'->'b' violates degree -1 homogeneity"),
        ("components x\n  part o\n  gen a 0\n  part s\n  gen b 0\n"
         "  map d:o->s\n  entry a b 1\nend\n",
         "degree-homogeneity",
         "entry 'a'->'b' violates degree -1 homogeneity"),
        ("complex c1\n  gen a 0\nend\ncomplex c2\n  gen e 0\nend\n"
         "complex sh\n  gen s 0\nend\nsummaps m\n  of c1 c2\n  sharp sh\n"
         "  map V0 -1\n  entry s a|e 1\n  map V1 0\n  map V0d 0\n"
         "  map V1d 0\n  map Hsharp 1\n  map A 1\n  map B 1\n  map C 1\n"
         "  map D 1\nend\n",
         "degree-homogeneity",
         "entry 's'->'a|e' violates degree -1 homogeneity"),
        ("complex f\n  gen a 1\n  gen b 0\n  gen c -1\n  dU a b 1 0\n"
         "  dU b c 1 0\nend\n",
         "structure", "d.d != 0: ('a' -> 'c') exponent 0 has coefficient 1"),
        ("complex f\n  gen a 1\n  gen b 0\n  dU a b 1 1\nend\n",
         "degree-homogeneity",
         "entry ('a', 'b') exponent 1 breaks degree homogeneity: "
         "0 != 1 - 1 + 2"),
        ("complex c\n  gen a 0\n  d a homogeneity 1\nend\n",
         "structure", "unknown target generator 'homogeneity'"),
    ], ids=["complex", "components", "summaps", "filtered",
            "filtered-homogeneity", "unknown-generator"])
    def test_construction_errors(self, tmp_path, text, law, witness):
        # the engine's ChainError, reported as the law the block breaks: a
        # HomogeneityViolated is named by its type, whatever its message
        # says
        with pytest.raises(ValidationError) as exc:
            parse_all(write(tmp_path, text))
        assert exc.value.law == law
        assert str(exc.value) == f"{law}: {witness}"

    def test_summaps_requires_all_nine_maps(self, tmp_path):
        text = ("complex c1\n  gen a 0\nend\n"
                "complex c2\n  gen e 0\nend\n"
                "complex sh\n  gen s 0\nend\n"
                "summaps m\n  of c1 c2\n  sharp sh\n  map V0 -1\nend\n")
        with pytest.raises(ParseError, match="missing map"):
            parse(write(tmp_path, text))

    def test_summaps_parses_to_maps(self):
        maps = parse(str(CORPUS / "summaps_acyclic.txt"))
        assert isinstance(maps, ConnSumMaps)
        assert maps.V0.degree == -1 and maps.V1d.degree == 1


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in CORPUS.glob("*.txt")))
    def test_print_parse_identity(self, name):
        path = CORPUS / name
        text = path.read_text()
        blocks = parse_all(str(path))
        label, obj = blocks[-1]
        if isinstance(obj, SumSpec):
            rendered = print_sum_file(obj)
        elif isinstance(obj, BalancedComponents):
            rendered = print_components(obj, label)
        else:
            rendered = print_complex(obj, label)
        assert rendered == text

    def test_tower_golden_matches_model(self):
        parsed = parse(str(CORPUS / "tower_n3.txt"))
        m = GradedModule((("a", 0),))
        point = ChainComplex(m, GradedMap.zero(m, m, -1))
        model = tower_model(TowerParams(base=point, n=3))
        assert print_components(parsed, "x") == print_components(model, "x")

    def test_su_output_reparses(self):
        code, text = run(Manifest(command="su",
                                  inputs=(str(CORPUS / "utower.txt"),)))
        assert code == 0
        name, S = parse_all_text(text)[-1]
        assert name == "utower.su"
        assert S.y_action is not None and not S.y_action.is_zero_mod(0)

    def test_ey_output_reparses(self):
        code, text = run(Manifest(command="ey", flavor="hat",
                                  inputs=(str(CORPUS / "point.txt"),)))
        assert code == 0
        name, E = parse_all_text(text)[-1]
        assert name == "point.hat"
        assert E.module.generators == (("a.u0", 0),)


class TestCommands:
    def test_flavors_point_text_report(self):
        code, text = run(Manifest(command="flavors", window=Window(-4, 4),
                                  inputs=(str(CORPUS / "point.txt"),)))
        assert code == 0
        assert text == ("window=-4..4\n"
                        "flavor minus\n"
                        "H_-4 = Z\n"
                        "H_-1 = Z\n"
                        "flavor infinity\n"
                        "H_-4 = Z\n"
                        "flavor plus\n"
                        "H_0 = Z\n"
                        "flavor hat\n"
                        "H_0 = Z\n"
                        "H_1 = Z\n"
                        "PASS eq:E-sq1\n"
                        "PASS eq:E-sq2\n")

    def test_koszul_text_line(self):
        code, text = run(Manifest(command="koszul", direction="a",
                                  flavor="minus", seed=7))
        assert code == 0
        assert text.splitlines()[0] == "shift=+1, match=yes"

    def test_verify_perturbed_bundle(self):
        code, text = run(Manifest(
            command="verify",
            inputs=(str(CORPUS / "perturbed_bundle.txt"),)))
        assert code == 1
        assert text == "FAIL eq:U-i\n"

    def test_homology_twotorsion(self):
        code, text = run(Manifest(command="homology",
                                  inputs=(str(CORPUS / "twotorsion.txt"),)))
        assert code == 0
        assert "H_0 = Z/2" in text

    def test_ladder_tower_golden(self):
        code, text = run(Manifest(command="ladder",
                                  inputs=(str(CORPUS / "tower_n3.txt"),)))
        assert code == 0
        assert "PASS eq:induced-KM1" in text
        assert "vanishing=no" in text

    def test_ladder_coupled_acyclic_vanishes(self):
        code, text = run(Manifest(
            command="ladder",
            inputs=(str(CORPUS / "coupled_acyclic.txt"),)))
        assert code == 0
        assert "vanishing=yes" in text
        assert "PASS eq:KM:j-iso" in text

    def test_tower_command(self):
        code, text = run(Manifest(command="tower", n=3))
        assert code == 0
        assert "PASS tower-vanishing" in text
        assert "PASS tower-edges" in text
        assert "H_-6 = Z" in text and "H_7 = Z" in text

    def test_cmflavors_filtered(self):
        code, text = run(Manifest(
            command="cmflavors", window=Window(-6, 4),
            inputs=(str(CORPUS / "filtered_knot.txt"),)))
        assert code == 0
        assert "PASS eq:fund-short:1" in text
        assert "PASS eq:fund-short:2" in text

    def test_cmflavors_accepts_plain_zero_u_complex(self):
        code, text = run(Manifest(command="cmflavors", window=Window(-4, 4),
                                  inputs=(str(CORPUS / "twotorsion.txt"),)))
        assert code == 0

    def test_cmflavors_rejects_live_u(self):
        code, text = run(Manifest(command="cmflavors",
                                  inputs=(str(CORPUS / "utower.txt"),)))
        assert code == 2
        assert "filtered" in text

    def test_case1_command(self):
        code, text = run(Manifest(command="consum-case1", n=4,
                                  inputs=(str(CORPUS / "point.txt"),)))
        assert code == 0
        assert text.splitlines()[0] == "shift=+1, match=yes"

    def test_case2_command(self):
        for flavor in ("minus", "inf", "plus", "hat"):
            code, text = run(Manifest(command="consum-case2", flavor=flavor,
                                      window=Window(-5, 3),
                                      inputs=(str(CORPUS / "point.txt"),)))
            assert code == 0
            assert "PASS eq:S=eq:E" in text

    @pytest.mark.parametrize("fmt,lines", [
        ("text", ["FAIL eq:S=eq:E",
                  "  differential entry mismatch at ('c.u0' -> 'a.y.u0'): "
                  "-1 vs -3"]),
        ("machine", ["kind=check tag=eq:S=eq:E status=fail",
                     'kind=detail message="differential entry mismatch at '
                     "('c.u0' -> 'a.y.u0'): -1 vs -3\""]),
    ])
    def test_case2_prints_the_mismatch_as_detail(self, monkeypatch, tmp_path,
                                                 fmt, lines):
        perturb_right_side(monkeypatch, "entry")
        path = write(tmp_path, print_complex(case2_input(), "c"))
        code, text = run(Manifest(command="consum-case2", flavor="hat",
                                  inputs=(path,), fmt=fmt))
        assert code == 1
        assert text.splitlines() == lines

    def test_consum_verify_command(self):
        code, text = run(Manifest(
            command="consum-verify",
            inputs=(str(CORPUS / "summaps_acyclic.txt"),)))
        assert code == 0
        for tag in ("eq:V-m:parity", "eq:chain-maps:V0",
                    "eq:chain-maps:V1-dagger", "eq:cob-comp:sharp",
                    "eq:cob-comp:product"):
            assert f"PASS {tag}" in text

    def test_verify_every_corpus_file(self):
        for path in sorted(CORPUS.glob("*.txt")):
            code, text = run(Manifest(command="verify",
                                      inputs=(str(path),)))
            expected = 1 if path.name in ("filtered_negative.txt",
                                          "perturbed_bundle.txt") else 0
            assert code == expected, (path.name, text)

    @pytest.mark.parametrize("fmt,fail,detail", [
        ("text", "FAIL positivity",
         "  negative differential exponent at ('b', 'a')"),
        ("machine", "kind=check tag=positivity status=fail",
         'kind=detail message="negative differential exponent at '
         "('b', 'a')\""),
    ])
    def test_verify_and_cmflavors_print_the_positivity_witness(
            self, fmt, fail, detail):
        path = str(CORPUS / "filtered_negative.txt")
        reports = [run(Manifest(command=command, inputs=(path,), fmt=fmt))
                   for command in ("verify", "cmflavors")]
        # verify prints the two laws the constructor enforced first
        assert [code for code, _ in reports] == [1, 1]
        assert reports[0][1].splitlines()[2:] == [fail, detail]
        assert reports[1][1].splitlines() == [fail, detail]

    def test_verify_ok_prints_all_assembly_tags(self):
        code, text = run(Manifest(command="verify",
                                  inputs=(str(CORPUS / "golden_one.txt"),)))
        assert code == 0
        for tag in ("eq:hat-d", "eq:ijk:i", "eq:U-i", "eq:U-check",
                    "eq:1", "eq:S2:line2"):
            assert f"PASS {tag}" in text


class TestExitCodes:
    def test_missing_file(self):
        code, text = run(Manifest(command="homology",
                                  inputs=("/nonexistent/nope.txt",)))
        assert code == 2 and "ERROR" in text

    def test_parse_error_exit(self, tmp_path):
        path = write(tmp_path, "complex c\n  frob\nend\n")
        code, text = run(Manifest(command="verify", inputs=(path,)))
        assert code == 2
        assert "line 2" in text

    def test_validation_error_exit(self, tmp_path):
        path = write(tmp_path, "complex c\n  gen a 0\n  gen b 0\n"
                               "  d a b 1\nend\n")
        code, text = run(Manifest(command="verify", inputs=(path,)))
        assert code == 2
        assert "degree-homogeneity" in text

    def test_main_returns_codes(self, tmp_path):
        assert main(["verify", str(CORPUS / "point.txt")]) == 0
        assert main(["verify", str(CORPUS / "perturbed_bundle.txt")]) == 1
        bad = write(tmp_path, "complex c\nend\n--\n")
        assert main(["verify", bad]) == 2

    @pytest.mark.parametrize("ring", ["F4", "F1", "F9", "F341",
                                      "F18446744073709551629"])
    def test_ring_needs_a_prime_below_2_64(self, tmp_path, ring):
        # field arithmetic on F4 once reported H_0 = H_1 = F4 here, where
        # Z/4 coefficients give Z/2 in each degree
        text = (CORPUS / "twotorsion.txt").read_text()
        path = write(tmp_path, text.replace("ring Z", f"ring {ring}"))
        code, out = run(Manifest(command="homology", inputs=(path,),
                                 fmt="machine"))
        assert code == 2
        assert out.startswith("kind=error") and "group=" not in out

    @pytest.mark.parametrize("ring", ["F2", "F3", "F1000003"])
    def test_prime_rings_accepted(self, tmp_path, ring):
        text = (CORPUS / "twotorsion.txt").read_text()
        path = write(tmp_path, text.replace("ring Z", f"ring {ring}"))
        assert run(Manifest(command="homology", inputs=(path,)))[0] == 0

    def test_negative_window_value(self, capsys):
        assert main(["homology", str(CORPUS / "twotorsion.txt"),
                     "--window", "-2..2"]) == 0
        out = capsys.readouterr().out
        assert "window=-2..2" in out


class TestResourceGuards:
    # only values the parser refuses run here: the handler is replaced by
    # one that fails, so no refused request can start any work
    @pytest.mark.parametrize("argv", [
        ["tower", "--n", str(MAX_N + 1)],
        ["tower", "--n", "1000000000"],
        ["consum-case1", str(CORPUS / "point.txt"), "--n", str(MAX_N + 1)],
        ["homology", str(CORPUS / "point.txt"),
         "--window", f"0..{MAX_WINDOW_WIDTH}"],
        ["flavors", str(CORPUS / "utower.txt"),
         "--window", "-1000000..1000000"],
        ["ladder", str(CORPUS / "tower_n3.txt"),
         "--window", f"-{MAX_WINDOW_WIDTH}..0"],
    ])
    def test_oversized_request_exits_2(self, argv, monkeypatch, capsys):
        def refuse(manifest):
            raise AssertionError("an oversized request reached a handler")
        monkeypatch.setattr(cli, "run", refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tower", "--n", str(MAX_N)],
        ["tower", "--n", "40"],
        ["consum-case1", "in.txt", "--n", str(MAX_N)],
        ["flavors", "in.txt", "--window", f"1..{MAX_WINDOW_WIDTH}"],
    ])
    def test_caps_admit_their_bound(self, argv):
        # parsed only; nothing is run
        args = cli._build_parser().parse_args(cli._merge_flag_values(argv))
        assert args.command == argv[0]


class TestVacuousCertificates:
    """A window too narrow for any window-safe node checks nothing, and a
    certificate that checked nothing does not pass."""

    @pytest.mark.parametrize("command,name,tags", [
        ("flavors", "utower.txt", ("eq:E-sq1", "eq:E-sq2")),
        ("cmflavors", "filtered_knot.txt",
         ("eq:fund-short:1", "eq:fund-short:2")),
    ])
    def test_narrow_window_fails(self, command, name, tags):
        code, text = run(Manifest(command=command, fmt="machine",
                                  window=Window(0, 1),
                                  inputs=(str(CORPUS / name),)))
        assert code == 1
        for tag in tags:
            assert f"kind=check tag={tag} status=fail" in text
        # the same inputs on a wide window pass
        code, text = run(Manifest(command=command, fmt="machine",
                                  window=Window(-3, 3),
                                  inputs=(str(CORPUS / name),)))
        assert code == 0
        for tag in tags:
            assert f"kind=check tag={tag} status=pass" in text

    def test_koszul_with_no_degree_safe_on_both_sides_does_not_match(self):
        # both sides are trivial at every safe degree, but no degree is
        # safe on both, so nothing was compared
        code, text = run(Manifest(command="koszul", direction="a",
                                  flavor="minus", seed=7,
                                  window=Window(0, 0)))
        assert code == 1
        assert text.splitlines()[0] == "shift=none, match=no"

    def test_case2_on_an_empty_window_fails(self):
        code, text = run(Manifest(command="consum-case2", flavor="hat",
                                  window=Window(20, 21),
                                  inputs=(str(CORPUS / "point.txt"),)))
        assert code == 1
        assert text.splitlines() == [
            "FAIL eq:S=eq:E", "  nothing to compare in the window 20..21"]

    def test_empty_certificate_is_not_ok(self):
        C = parse(str(CORPUS / "utower.txt"))
        seqs = four_flavors(C, Window(0, 1)).sequences
        # failing with no witness: no node was checked, none failed
        assert (seqs.les1, seqs.les2) == (Check("eq:E-sq1", False),
                                          Check("eq:E-sq2", False))
        assert seqs.checks == (seqs.les1, seqs.les2) and not seqs.ok


class TestComparisonAnswers:
    """Comparisons that a search over degree shifts once answered wrongly,
    now certified by their maps; exact machine records."""

    @staticmethod
    def records(**fields):
        code, text = run(Manifest(fmt="machine", **fields))
        return code, text.splitlines()

    def test_hat_on_a_window_matches_at_shift_zero(self):
        # the name map s_u(C) -> hat slice is an isomorphism at both
        # compared degrees (the search found no shift)
        assert self.records(command="koszul", direction="a", flavor="hat",
                            window=Window(-3, 3)) == (0, [
            "kind=result shift=+0 match=yes",
            "kind=pair degree=1 expected=Z got=Z",
            "kind=pair degree=2 expected=Z/2 got=Z/2"])

    def test_hat_shift_is_the_map_degree(self):
        # the search printed shift=-3 for this degree-0 map
        assert self.records(command="koszul", direction="a", flavor="hat",
                            seed=7, window=Window(-3, 3)) == (0, [
            "kind=result shift=+0 match=yes",
            "kind=pair degree=-2 expected=Z got=Z",
            "kind=pair degree=0 expected=Z got=Z",
            "kind=pair degree=1 expected=Z got=Z"])

    def test_minus_with_only_trivial_groups_has_the_map_degree(self):
        # six degrees are compared, all trivial on both sides; the search
        # printed shift=+0
        assert self.records(command="koszul", direction="a", seed=10) == (
            0, ["kind=result shift=+1 match=yes"])

    def test_case1_on_a_narrow_window_certifies_its_one_degree(self):
        assert self.records(command="consum-case1", window=Window(0, 1),
                            inputs=(str(CORPUS / "utower.txt"),)) == (0, [
            "kind=result shift=+1 match=yes",
            "kind=pair degree=0 expected=Z+Z/3 got=Z+Z/3"])

    def test_no_degree_compared_has_no_shift(self):
        assert self.records(command="koszul", direction="a", seed=7,
                            window=Window(0, 0)) == (
            1, ["kind=result shift=none match=no"])


class TestMachineFormat:
    def test_machine_lines_are_records(self):
        code, text = run(Manifest(command="flavors", fmt="machine",
                                  window=Window(-3, 3),
                                  inputs=(str(CORPUS / "point.txt"),)))
        assert code == 0
        for line in text.splitlines():
            assert line.startswith("kind="), line

    _RECORD = re.compile(r'kind=\S+( [a-z]+=("(?:[^"\\]|\\.)*"|[^" ]+))*')

    def test_error_message_round_trips(self, tmp_path):
        path = write(tmp_path, "complex c\n  ring Z'q\\\nend\n")
        code, text = run(Manifest(command="verify", inputs=(path,),
                                  fmt="machine"))
        assert code == 2
        m = re.fullmatch(r'kind=error message="((?:[^"\\]|\\.)*)"\n', text)
        assert m, text
        with pytest.raises(ParseError) as exc:
            parse_all(path)
        assert re.sub(r"\\(.)", r"\1", m.group(1)) == str(exc.value)

    def test_detail_message_escaped(self, tmp_path):
        path = write(tmp_path, 'complex f\n  gen b" 0\n  gen a -3\n'
                               '  dU b" a 1 -1\nend\n')
        code, text = run(Manifest(command="cmflavors", inputs=(path,),
                                  fmt="machine"))
        assert code == 1
        assert 'message="negative differential exponent at' in text
        for line in text.splitlines():
            assert self._RECORD.fullmatch(line), line

    def test_machine_determinism_across_processes(self):
        cmds = [
            ["flavors", str(CORPUS / "point.txt"), "--format", "machine"],
            ["ladder", str(CORPUS / "tower_n3.txt"), "--format", "machine"],
            ["cmflavors", str(CORPUS / "filtered_diamond.txt"),
             "--format", "machine"],
        ]
        for argv in cmds:
            outs = [
                subprocess.run([sys.executable, "-m", "artifact.cli"] + argv,
                               capture_output=True, text=True).stdout
                for _ in range(2)
            ]
            assert outs[0] == outs[1]
            assert outs[0]
