import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from imcoalg import bisim, cli, frames, poset as poset_module
from imcoalg.cli import main
from imcoalg.errors import ParseError, ValueNotUpset
from imcoalg.export import frame_to_dot, frame_to_json_dict, dump_json
from imcoalg.framefile import parse_frame_file
from imcoalg.frames import ModalFrame
from imcoalg.logic import MAX_FORMULA_TOKENS
from imcoalg.poset import make_poset, point_poset

from helpers import (
    FORMULA_PIECES,
    counted_mix_law_witness,
    parse_frame_file_by_lines,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

CHAIN_FILE = """\
# two-point chain with a serial relation
[elements]
a b
[order]
a < b
[modal]
a R b
b R b
[val]
p : b
"""

POINT_FILE = """\
[elements]
x
[modal]
x R x
"""

NBHD_FILE = """\
[elements]
a b
[order]
a < b
[nbhd]
a : {b}
b : {b} {a b}
"""


class TestFrameFileParsing:
    def test_chain_file(self):
        ff = parse_frame_file(CHAIN_FILE)
        assert ff.labels == ["a", "b"]
        assert ff.order_pairs == [("a", "b")]
        assert ff.modal_pairs == [("a", "b"), ("b", "b")]
        assert ff.valuations == {"p": ["b"]}

    def test_comments_and_blank_lines(self):
        ff = parse_frame_file("# top\n\n[elements]\na # trailing\n")
        assert ff.labels == ["a"]

    def test_undeclared_label_position(self):
        with pytest.raises(ParseError) as err:
            parse_frame_file("[elements]\na\n[order]\na < z\n")
        assert err.value.line == 4
        assert err.value.column == 5

    def test_undeclared_label_column_is_its_own_token(self):
        # the undeclared a also occurs inside the declared ab, earlier on
        # the line
        cases = (
            ("[elements]\nab b\n[modal]\nab R a\n", 4, 6),
            ("[elements]\nab b\n[val]\np : b ab a\n", 4, 10),
            ("[elements]\nab b\n[order]\n  ab < a # a\n", 4, 8),
            ("[elements]\n< a\n[order]\na < <<\n", 4, 5),
            ("[elements]\nab\n[nbhd]\n a : {ab}\n", 4, 2),
            ("[elements]\na\n[nbhd]\na : {a} {z}", 4, 10),
            ("[elements]\nab\n[nbhd]\nab : {ab}{a}\n", 4, 11),
            ("[elements]\nab b\n[nbhd]\nb :{b\tab  a }\n", 4, 11),
        )
        for text, line, column in cases:
            with pytest.raises(ParseError) as err:
                parse_frame_file(text)
            assert (err.value.line, err.value.column) == (line, column), text

    def test_val_letters_a_formula_cannot_name(self):
        # T and F are the formula constants; p-q and 1p are no identifier
        # of the formula grammar, so no formula could name them
        for letter in ("T", "F", "p-q", "1p"):
            for indent in ("", "  "):
                text = f"[elements]\na\n[val]\n{indent}{letter} : a\n"
                with pytest.raises(ParseError) as err:
                    parse_frame_file(text)
                assert (err.value.line, err.value.column) == (
                    4, len(indent) + 1
                ), text
                assert repr(letter) in str(err.value)
        for letter in ("p", "_", "Tp", "p1", "q'", "F_"):
            text = f"[elements]\na\n[val]\n{letter} : a\n"
            assert parse_frame_file(text).valuations == {letter: ["a"]}

    def test_bisim_no_longer_distinguishes_by_a_constant(
        self, tmp_path, capsys
    ):
        # with T accepted as a letter, these files printed "distinguish
        # b vs c: T", a formula that mc reads as true everywhere
        left = tmp_path / "left.frame"
        left.write_text("[elements]\na b\n[order]\na < b\n"
                        "[modal]\na R b\nb R b\n[val]\nT : b\n")
        right = tmp_path / "right.frame"
        right.write_text("[elements]\nc d\n[order]\nc < d\n"
                         "[modal]\nc R c\nc R d\n[val]\nT : d\n")
        argv = ["bisim", str(left), str(right), "--distinguish", "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "line 9, column 1: letter 'T' cannot be named" in err

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse_frame_file("[wat]\n")
        assert err.value.line == 1

    def test_bad_order_line(self):
        with pytest.raises(ParseError):
            parse_frame_file("[elements]\na b\n[order]\na b\n")

    def test_nbhd_parses(self):
        ff = parse_frame_file(NBHD_FILE)
        assert ff.nbhd == {"a": [["b"]], "b": [["b"], ["a", "b"]]}
        nf = ff.build_nbhd_frame()
        assert nf.poset.n == 2

    def test_nbhd_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse_frame_file("[elements]\na\n[nbhd]\na : {a\n")

    def test_valuation_not_upset_rejected(self):
        ff = parse_frame_file("[elements]\na b\n[order]\na < b\n[val]\np : a\n")
        poset = ff.build_poset()
        with pytest.raises(ValueNotUpset):
            ff.valuation_masks(poset)
        assert ff.valuation_masks(poset, close=True)["p"] == poset.full_mask


def _parsed(parse, text):
    """The FrameFile parse returns, or the message, line and column of its
    ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


# pieces inserted into frame files: separators, section headers, symbols,
# declared and undeclared labels, and characters that split lines or
# words in Python but rarely in frame files
_PIECES = (
    " ", "\t", "\n", "#", "[", "]", "<", "R", ":", "{", "}", "a", "ab", "z",
    "[order]", "[modal]", "[val]", "[nbhd]", "[elements]", "x R y", "a < b",
    "p : b", "\x1c", "\x85", "\u2028", "\u3000",
)


def _mutated(rng, text):
    """text after one to three random edits: a character dropped, a piece
    inserted, or a line repeated or swapped with another."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        if edit == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        else:
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if edit == 2:
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


class TestParserAgainstLineLoop:
    """parse_frame_file's one-test [order]/[modal] lines against the
    step-by-step loop it replaced (parse_frame_file_by_lines), on mutated
    frame files: the same FrameFile, or the same message, line and
    column."""

    def test_frame_files_and_their_mutants(self):
        seeds = [CHAIN_FILE, POINT_FILE, NBHD_FILE] + [
            path.read_text() for path in sorted(GOLDEN.glob("*.frame"))
        ]
        rng = random.Random(2406)
        mutants = (_mutated(rng, rng.choice(seeds)) for _ in range(10000))
        parsed = columns = 0
        for text in itertools.chain(seeds, mutants):
            want = _parsed(parse_frame_file_by_lines, text)
            assert _parsed(parse_frame_file, text) == want, text
            if isinstance(want, tuple):
                columns += want[2] > 1
            else:
                parsed += 1
        # about a quarter parse; over 600 errors name a column past the first
        assert parsed > 2000 and columns > 500


class TestExport:
    def test_point_dot_golden(self):
        one = point_poset("x")
        fr = ModalFrame.from_pairs(one, [("x", "x")])
        assert frame_to_dot(fr) == (
            'digraph imcoalg {\n'
            '  "x";\n'
            '  "x" -> "x" [style=dashed];\n'
            '}\n'
        )

    def test_chain_dot_has_cover_and_modal_edges(self):
        p = make_poset(["a", "b"], [("a", "b")])
        fr = ModalFrame.from_pairs(p, [("a", "b")])
        dot = frame_to_dot(fr)
        assert '"a" -> "b";' in dot
        assert '"a" -> "b" [style=dashed];' in dot

    def test_json_schema_version(self):
        p = make_poset(["a", "b"], [("a", "b")])
        fr = ModalFrame.from_pairs(p, [])
        doc = frame_to_json_dict(fr)
        assert doc["schema"] == "imcoalg/1"
        assert doc["elements"] == ["a", "b"]

    def test_json_deterministic(self):
        p = make_poset(["a", "b"], [("a", "b")])
        fr = ModalFrame.from_pairs(p, [("b", "b")])
        assert dump_json(frame_to_json_dict(fr)) == dump_json(
            frame_to_json_dict(fr)
        )


def shifted_chain_text(n, shift, prefix):
    """Chain 0 < ... < n-1 with R[x] = up(x + shift), empty past the top."""
    labels = [f"{prefix}{i}" for i in range(n)]
    lines = ["[elements]", " ".join(labels), "[order]"]
    lines += [f"{labels[i]} < {labels[i + 1]}" for i in range(n - 1)]
    lines.append("[modal]")
    lines += [
        f"{labels[x]} R {labels[y]}"
        for x in range(n)
        for y in range(x + shift, n)
    ]
    return "\n".join(lines) + "\n"


def antichain_text(n, prefix):
    """n incomparable elements and no modal relation."""
    labels = " ".join(f"{prefix}{i}" for i in range(n))
    return f"[elements]\n{labels}\n"


def cli_env():
    """The environment for a `python -m imcoalg` child: this checkout's
    package first on the import path."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "imcoalg", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )
    return proc


@pytest.fixture
def chain_path(tmp_path):
    path = tmp_path / "chain.frame"
    path.write_text(CHAIN_FILE)
    return str(path)


@pytest.fixture
def point_path(tmp_path):
    path = tmp_path / "point.frame"
    path.write_text(POINT_FILE)
    return str(path)


class TestCliExitCodes:
    def test_check_ok(self, chain_path, tmp_path):
        proc = run_cli(["check", chain_path], str(tmp_path))
        assert proc.returncode == 0
        assert "PASS order-axioms" in proc.stdout
        assert "PASS mix-law" in proc.stdout

    def test_check_failure_is_exit_1(self, tmp_path):
        path = tmp_path / "bad.frame"
        path.write_text("[elements]\na b\n[order]\na < b\n[modal]\na R a\n")
        proc = run_cli(["check", str(path)], str(tmp_path))
        assert proc.returncode == 1
        assert "FAIL mix-law" in proc.stdout
        assert "witness" in proc.stdout

    def test_parse_error_is_exit_2(self, tmp_path):
        path = tmp_path / "broken.frame"
        path.write_text("[elements]\na\n[order]\na < z\n")
        proc = run_cli(["check", str(path)], str(tmp_path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_cap_exceeded_is_exit_3(self, chain_path, tmp_path):
        proc = run_cli(
            ["complex", chain_path, "--depth", "3", "--max-stage", "3"],
            str(tmp_path),
        )
        assert proc.returncode == 3

    def test_rooted_stage_cap_is_exit_3(self, tmp_path):
        # stage 3 over Up(3-chain) has 2856 elements, built over a root map
        # with needs
        path = tmp_path / "c3.frame"
        path.write_text("[elements]\na b c\n[order]\na < b\nb < c\n")
        proc = run_cli(
            ["complex", str(path), "--depth", "3", "--max-stage", "1000"],
            str(tmp_path),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: stage 3 too large: more than 1000 elements\n"
        )

    def test_usage_error_is_exit_2(self, tmp_path):
        proc = run_cli(["definitely-not-a-command"], str(tmp_path))
        assert proc.returncode == 2

    def test_mc_valid(self, chain_path, tmp_path):
        proc = run_cli(["mc", chain_path, "[]p"], str(tmp_path))
        assert proc.returncode == 0
        assert "a: true" in proc.stdout
        assert "b: true" in proc.stdout

    def test_mc_invalid_formula_text(self, chain_path, tmp_path):
        proc = run_cli(["mc", chain_path, "p ->"], str(tmp_path))
        assert proc.returncode == 2

    def test_mc_formula_of_the_token_bound_runs(self, chain_path, capsys):
        formula = "[]" * (MAX_FORMULA_TOKENS - 1) + "p"
        assert main(["mc", chain_path, formula]) == 0
        assert "PASS formula-valid" in capsys.readouterr().out

    def test_mc_formula_past_the_token_bound_exits_2(self, chain_path,
                                                    capsys):
        formula = "[]" * MAX_FORMULA_TOKENS + "p"
        assert main(["mc", chain_path, formula]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: formula longer than {MAX_FORMULA_TOKENS} tokens "
            f"(at position {2 * MAX_FORMULA_TOKENS})\n"
        )

    def test_mc_deep_parentheses_exit_2_as_a_process(self, chain_path,
                                                     tmp_path):
        formula = "(" * 200 + "p" + ")" * 200
        proc = run_cli(["mc", chain_path, formula], str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: formula longer than {MAX_FORMULA_TOKENS} tokens "
            f"(at position {MAX_FORMULA_TOKENS})\n"
        )

    def test_mc_not_valid(self, chain_path, tmp_path):
        proc = run_cli(["mc", chain_path, "p"], str(tmp_path))
        assert proc.returncode == 1

    def test_mc_undeclared_letter(self, chain_path, tmp_path):
        proc = run_cli(["mc", chain_path, "zz"], str(tmp_path))
        assert proc.returncode == 2

    def test_unreadable_file_is_a_usage_error(self, chain_path, tmp_path,
                                              capsys):
        missing = str(tmp_path / "nope.frame")
        assert main(["bisim", chain_path, missing]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: cannot read {missing}: No such file or directory\n"
        )
        assert main(["check", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {tmp_path}: Is a directory\n"
        )

    def test_file_that_is_not_text_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bytes.frame"
        path.write_bytes(b"\xff\xfe[elements]\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: not ")
        assert "at byte 0" in err and "Traceback" not in err


class TestClosedStdout:
    """A reader that closes standard output early (``| head -1``) ends the
    run with exit code 4 and nothing on stderr, whether the write that
    fails comes in the middle of the report or at its final flush."""

    def run_into_closed_pipe(self, args, cwd):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "imcoalg", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                cwd=cwd,
                env=cli_env(),
            )
        finally:
            os.close(write_end)

    def test_short_report(self, chain_path, point_path, tmp_path):
        proc = self.run_into_closed_pipe(
            ["bisim", chain_path, point_path], str(tmp_path)
        )
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OUTPUT_CLOSED, "")
        assert cli.EXIT_OUTPUT_CLOSED == 4

    @staticmethod
    def long_report_argv(tmp_path):
        """bisim --distinguish 1 on chains of 100 and 101 points: a report
        of 10 107 lines (365 kB), past any pipe's buffer."""
        paths = []
        for prefix, n in (("l", 100), ("r", 101)):
            path = tmp_path / f"{prefix}.frame"
            top = f"{prefix}{n - 1}"
            path.write_text(shifted_chain_text(n, 1, prefix) + f"[val]\np : {top}\n")
            paths.append(str(path))
        return ["bisim", *paths, "--distinguish", "1"]

    def test_report_longer_than_the_buffer(self, tmp_path):
        proc = self.run_into_closed_pipe(
            self.long_report_argv(tmp_path), str(tmp_path)
        )
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OUTPUT_CLOSED, "")

    def test_reader_that_stops_after_one_line(self, tmp_path):
        argv = self.long_report_argv(tmp_path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "imcoalg", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(tmp_path),
            env=cli_env(),
        )
        assert proc.stdout.readline() == b"PASS order-axioms\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), stderr) == (cli.EXIT_OUTPUT_CLOSED, b"")


class TestCliBehaviour:
    def test_deterministic_output(self, chain_path, tmp_path):
        a = run_cli(["check", chain_path], str(tmp_path))
        b = run_cli(["check", chain_path], str(tmp_path))
        assert a.stdout == b.stdout

    def test_report_json(self, chain_path, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            ["check", chain_path, "--report", str(out)], str(tmp_path)
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "imcoalg/1"
        assert doc["ok"] is True
        assert "timing_ms" not in doc
        names = [c["name"] for c in doc["checks"]]
        assert "order-axioms" in names and "mix-law" in names

    def test_bisim_command(self, chain_path, point_path, tmp_path):
        proc = run_cli(
            ["bisim", chain_path, point_path, "--depth", "2"], str(tmp_path)
        )
        assert proc.returncode == 0
        assert "largest bisimulation" in proc.stdout
        assert "PASS coalgebraic-agreement" in proc.stdout

    def test_bisim_long_chains_within_budget(self, tmp_path):
        f1 = tmp_path / "c16.frame"
        f1.write_text(shifted_chain_text(16, 2, "l"))
        f2 = tmp_path / "c17.frame"
        f2.write_text(shifted_chain_text(17, 2, "r"))
        start = time.perf_counter()
        proc = run_cli(
            ["bisim", str(f1), str(f2), "--depth", "2"], str(tmp_path)
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        checks = [
            line for line in proc.stdout.splitlines()
            if line.startswith(("PASS", "FAIL"))
        ]
        assert checks and all(line.startswith("PASS") for line in checks)
        assert elapsed < 10.0

    def test_bisim_distinguish_depth_four_on_long_chains(self, tmp_path):
        f1 = tmp_path / "c20.frame"
        f1.write_text(shifted_chain_text(20, 1, "l") + "[val]\np : l19\n")
        f2 = tmp_path / "c21.frame"
        f2.write_text(shifted_chain_text(21, 1, "r") + "[val]\np : r20\n")
        start = time.perf_counter()
        proc = run_cli(
            ["bisim", str(f1), str(f2), "--depth", "2", "--distinguish", "4"],
            str(tmp_path),
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert proc.stdout.count("\ndistinguish ") == 20 * 21 - 20
        assert elapsed < 10.0

    def test_bisim_distinguish_depth_six_on_forty_element_chains(self,
                                                               tmp_path):
        f1 = tmp_path / "c40.frame"
        f1.write_text(shifted_chain_text(40, 1, "l") + "[val]\np : l39\n")
        f2 = tmp_path / "c41.frame"
        f2.write_text(shifted_chain_text(41, 1, "r") + "[val]\np : r40\n")
        start = time.perf_counter()
        proc = run_cli(
            ["bisim", str(f1), str(f2), "--depth", "2", "--distinguish", "6"],
            str(tmp_path),
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert proc.stdout.count("\ndistinguish ") == 40 * 41 - 40
        assert "distinguish l0 vs r34: [][][][][][]p\n" in proc.stdout
        assert "distinguish l0 vs r0: (none found)\n" in proc.stdout
        assert elapsed < 5.0

    def test_bisim_distinguish(self, tmp_path):
        f1 = tmp_path / "one.frame"
        f1.write_text("[elements]\na b\n[order]\na < b\n[modal]\na R b\nb R b\n[val]\np : b\n")
        f2 = tmp_path / "two.frame"
        f2.write_text("[elements]\nc d\n[order]\nc < d\n[val]\np : d\n")
        proc = run_cli(
            ["bisim", str(f1), str(f2), "--distinguish", "2"], str(tmp_path)
        )
        assert proc.returncode in (0, 1)
        assert "distinguish" in proc.stdout

    def test_complex_stage_sizes(self, chain_path, tmp_path):
        proc = run_cli(["complex", chain_path, "--depth", "2"], str(tmp_path))
        assert proc.returncode == 0
        assert "stage sizes: [1, 3, 7]" in proc.stdout

    def test_complex_exports(self, chain_path, tmp_path):
        dot = tmp_path / "cx.dot"
        js = tmp_path / "cx.json"
        proc = run_cli(
            [
                "complex", chain_path, "--depth", "2",
                "--dot", str(dot), "--json", str(js),
            ],
            str(tmp_path),
        )
        assert proc.returncode == 0
        assert dot.read_text().startswith("digraph complex {")
        doc = json.loads(js.read_text())
        assert [s["size"] for s in doc["stages"]] == [1, 3, 7]
        assert doc["stages"][1]["root_map"]

    def test_lift_command(self, chain_path, tmp_path):
        proc = run_cli(["lift", chain_path, "--depth", "2"], str(tmp_path))
        assert proc.returncode == 0
        assert "PASS limit-pmorphism" in proc.stdout

    def test_freealg_command(self, tmp_path):
        proc = run_cli(
            ["freealg", "--generators", "1", "--stages", "2",
             "--inner-depth", "1"],
            str(tmp_path),
        )
        assert proc.returncode == 0
        assert "stage sizes: [2, 6, 20]" in proc.stdout

    def test_freealg_cap_exit(self, tmp_path):
        proc = run_cli(
            ["freealg", "--generators", "1", "--stages", "2",
             "--inner-depth", "2"],
            str(tmp_path),
        )
        assert proc.returncode == 3

    def test_export_golden_point(self, point_path, tmp_path):
        dot = tmp_path / "point.dot"
        proc = run_cli(
            ["export", point_path, "--dot", str(dot)], str(tmp_path)
        )
        assert proc.returncode == 0
        assert dot.read_text() == (
            'digraph imcoalg {\n'
            '  "x";\n'
            '  "x" -> "x" [style=dashed];\n'
            '}\n'
        )

    def test_export_json_sections(self, chain_path, tmp_path):
        js = tmp_path / "chain.json"
        proc = run_cli(
            ["export", chain_path, "--json", str(js)], str(tmp_path)
        )
        assert proc.returncode == 0
        doc = json.loads(js.read_text())
        assert doc["schema"] == "imcoalg/1"
        assert doc["val"] == {"p": ["b"]}
        assert doc["modal"] == [["a", "b"], ["b", "b"]]

    def test_close_valuations_flag(self, tmp_path):
        path = tmp_path / "open.frame"
        path.write_text("[elements]\na b\n[order]\na < b\n[val]\np : a\n")
        rejected = run_cli(["check", str(path)], str(tmp_path))
        assert rejected.returncode == 1
        assert "FAIL valuation-persistence" in rejected.stdout
        closed = run_cli(
            ["check", str(path), "--close-valuations"], str(tmp_path)
        )
        assert closed.returncode == 0

    def test_env_stage_cap(self, chain_path, tmp_path):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["IMCOALG_MAX_STAGE"] = "3"
        proc = subprocess.run(
            [sys.executable, "-m", "imcoalg", "complex", chain_path,
             "--depth", "3"],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=env,
        )
        assert proc.returncode == 3

    def test_timing_flag_adds_line(self, chain_path, tmp_path):
        proc = run_cli(["check", chain_path, "--timing"], str(tmp_path))
        assert proc.returncode == 0
        assert "elapsed:" in proc.stdout

    def test_strict_nbhd_flag(self, tmp_path):
        path = tmp_path / "nb.frame"
        path.write_text(
            "[elements]\na b\n[order]\na < b\n[nbhd]\na : {a b}\nb : {a b}\n"
        )
        lax = run_cli(["check", str(path)], str(tmp_path))
        assert lax.returncode == 0
        assert "PASS nbhd-wellformed" in lax.stdout
        strict = run_cli(["check", str(path), "--strict-nbhd"], str(tmp_path))
        assert strict.returncode == 1
        assert "FAIL nbhd-wellformed" in strict.stdout

    def test_export_json_closes_or_rejects_families(self, tmp_path):
        # {a} is not an upset of a < b; closed it is {a b}, which b
        # lists already
        path = tmp_path / "nb.frame"
        path.write_text(
            "[elements]\na b\n[order]\na < b\n[nbhd]\na : {a}\n"
            "b : {a} {a b}\n"
        )
        js, dot = tmp_path / "nb.json", tmp_path / "nb.dot"
        rejected = run_cli(
            ["export", str(path), "--dot", str(dot), "--json", str(js)],
            str(tmp_path),
        )
        assert rejected.returncode == 2
        assert rejected.stderr == (
            "error: neighbourhood of 'a' contains a non-upset\n"
        )
        assert not js.exists() and not dot.exists()
        closed = run_cli(
            ["export", str(path), "--close-valuations", "--json", str(js)],
            str(tmp_path),
        )
        assert closed.returncode == 0
        doc = json.loads(js.read_text())
        assert doc["nbhd"] == {"a": [["a", "b"]], "b": [["a", "b"]]}

    def test_freealg_exports(self, tmp_path):
        dot = tmp_path / "free.dot"
        js = tmp_path / "free.json"
        proc = run_cli(
            ["freealg", "--generators", "1", "--stages", "1",
             "--inner-depth", "2", "--dot", str(dot), "--json", str(js)],
            str(tmp_path),
        )
        assert proc.returncode == 0
        assert dot.read_text().startswith("digraph freealg {")
        doc = json.loads(js.read_text())
        assert [s["size"] for s in doc["stages"]] == [2, 14]
        assert "step_relation" in doc["stages"][1]

    def test_complex_stage_of_19187_within_budget(self, tmp_path):
        # P has up rows (25, 6, 4, 8, 16); stage 2 over Up(P) is 19 187
        # rooted subsets of its 15 upsets
        path = tmp_path / "p.frame"
        path.write_text(
            "[elements]\na b c d e\n[order]\na < d\na < e\nb < c\n"
        )
        start = time.perf_counter()
        proc = run_cli(
            ["complex", str(path), "--depth", "2", "--max-stage", "20000"],
            str(tmp_path),
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert "stage sizes: [1, 15, 19187]" in proc.stdout
        assert "PASS stages-valid" in proc.stdout
        assert elapsed < 10.0


class TestBisimJobWork:
    """What one bisim job derives from its inputs, counted by patching the
    kernels where the job looks them up."""

    def test_each_modal_relation_is_transposed_once(self, monkeypatch,
                                                    capsys):
        calls = []
        real = poset_module.transpose

        def recording(rows, n):
            calls.append(tuple(rows))
            return real(rows, n)

        for module in (poset_module, frames, bisim):
            if hasattr(module, "transpose"):
                monkeypatch.setattr(module, "transpose", recording)
        paths = [str(GOLDEN / name) for name in ("chain.frame", "diamond.frame")]
        argv = ["bisim", *paths, "--distinguish", "2", "--close-valuations"]
        assert main(argv) == 0
        capsys.readouterr()
        for path in paths:
            rel = parse_frame_file(Path(path).read_text()).build_frame().rel
            assert calls.count(rel) == 1, path

    @pytest.mark.parametrize("extra", [(), ("--distinguish", "2")])
    def test_each_frame_decides_the_mix_law_once(self, monkeypatch, capsys,
                                                 extra):
        calls = counted_mix_law_witness(monkeypatch)
        paths = [str(GOLDEN / name) for name in ("chain.frame", "diamond.frame")]
        argv = ["bisim", *paths, "--close-valuations", *extra]
        assert main(argv) == 0
        assert "PASS coalgebraic-agreement" in capsys.readouterr().out
        assert len(calls) == 2

    def test_labels_and_formulas_are_printed_once(self, monkeypatch, capsys):
        # chain.frame against step.frame at D = 1: []F tells y from all three
        # chain points, and x is told from none
        counts = {"format_label": 0, "print_formula": 0}
        for name in counts:
            real = getattr(cli, name)

            def counting(value, name=name, real=real):
                counts[name] += 1
                return real(value)

            monkeypatch.setattr(cli, name, counting)
        paths = [str(GOLDEN / name) for name in ("chain.frame", "step.frame")]
        argv = ["bisim", *paths, "--distinguish", "1", "--close-valuations"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count(": []F\n") == 3 and out.count("(none found)") == 3
        assert counts == {"format_label": 3 + 2, "print_formula": 1}


class TestCliWideAntichains:
    """Frame-level checks run on upset masks; Up(P) is built only as a
    stage, and then under the stage cap."""

    def _timed(self, tmp_path, argv):
        start = time.perf_counter()
        proc = run_cli(argv, str(tmp_path))
        return proc, time.perf_counter() - start

    def test_bisim_six_element_antichains(self, tmp_path):
        # the relation poset has 36 elements and 2^36 upsets
        f1 = tmp_path / "a6.frame"
        f1.write_text(antichain_text(6, "l"))
        f2 = tmp_path / "b6.frame"
        f2.write_text(antichain_text(6, "r"))
        proc, elapsed = self._timed(tmp_path, ["bisim", str(f1), str(f2)])
        assert proc.returncode == 0
        assert "largest bisimulation: 36 pairs" in proc.stdout
        assert "PASS coalgebraic-agreement" in proc.stdout
        assert elapsed < 2.0

    def test_bisim_bare_120_chains(self, tmp_path):
        # all 14 400 pairs are bisimilar; the coalgebraic check decides
        # them at level 1 without a relation poset
        f1 = tmp_path / "l120.frame"
        f1.write_text(shifted_chain_text(120, 120, "l"))
        f2 = tmp_path / "r120.frame"
        f2.write_text(shifted_chain_text(120, 120, "r"))
        proc = run_cli(
            ["bisim", str(f1), str(f2), "--depth", "2"], str(tmp_path)
        )
        assert proc.returncode == 0
        assert "largest bisimulation: 14400 pairs" in proc.stdout
        assert "PASS coalgebraic-agreement" in proc.stdout

    def test_complex_stops_at_the_stage_one_cap(self, tmp_path):
        path = tmp_path / "a18.frame"
        path.write_text(antichain_text(18, "x"))
        proc, elapsed = self._timed(tmp_path, ["complex", str(path)])
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: stage 1 too large")
        assert elapsed < 2.0

    def test_lift_stops_at_the_stage_one_cap(self, tmp_path):
        path = tmp_path / "a13.frame"
        path.write_text(antichain_text(13, "x"))  # 8192 upsets
        proc = run_cli(["lift", str(path)], str(tmp_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: stage 1 too large")

    def test_stage_one_within_the_cap(self, tmp_path):
        path = tmp_path / "a12.frame"
        path.write_text(antichain_text(12, "x"))  # 4096 upsets
        proc = run_cli(["complex", str(path), "--depth", "1"], str(tmp_path))
        assert proc.returncode == 0
        assert "stage sizes: [1, 4096]" in proc.stdout


class TestCliUsageGaps:
    """Inputs that once ended in a traceback or a vacuous PASS line."""

    @pytest.mark.parametrize("command", ["complex", "lift", "bisim"])
    @pytest.mark.parametrize("depth", ["0", "-1", "two"])
    def test_depth_must_be_positive(self, command, depth, chain_path,
                                    capsys):
        files = [chain_path, chain_path] if command == "bisim" else [chain_path]
        assert main([command, *files, "--depth", depth]) == 2
        out, err = capsys.readouterr()
        assert "--depth" in err
        assert "PASS" not in out

    def test_lift_depth_above_cap_exits_before_lifting(self, chain_path,
                                                       capsys):
        # lifting 1200 levels first would end in a RecursionError
        assert main(["lift", chain_path, "--depth", "1200"]) == 3
        assert "exceeds cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["complex", "lift"])
    def test_env_stage_cap_must_be_an_integer(self, command, chain_path,
                                              monkeypatch, capsys):
        monkeypatch.setenv("IMCOALG_MAX_STAGE", "abc")
        assert main([command, chain_path]) == 2
        assert "error: IMCOALG_MAX_STAGE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{frame}", "--report", "{out}"],
            ["complex", "{frame}", "--dot", "{out}"],
            ["complex", "{frame}", "--json", "{out}"],
            ["export", "{frame}", "--dot", "{out}"],
            ["export", "{frame}", "--json", "{out}"],
            ["freealg", "--dot", "{out}"],
            ["freealg", "--json", "{out}"],
        ],
    )
    def test_unwritable_output_is_usage_error(self, argv, chain_path,
                                              tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.txt")
        args = [a.format(frame=chain_path, out=out) for a in argv]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert out in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["freealg", "--generators", "-1"], "--generators"),
            (["freealg", "--stages", "-1"], "--stages"),
            (["freealg", "--inner-depth", "0"], "--inner-depth"),
            (["freealg", "--max-stage", "-5"], "--max-stage"),
            (["freealg", "--max-depth", "-1"], "--max-depth"),
            (["complex", "{frame}", "--max-stage", "-5"], "--max-stage"),
            (["lift", "{frame}", "--max-depth", "-1"], "--max-depth"),
            (["bisim", "{frame}", "{frame}", "--max-depth", "-1"],
             "--max-depth"),
        ],
    )
    def test_integer_below_range_is_usage_error(self, argv, flag, chain_path,
                                                capsys):
        assert main([a.format(frame=chain_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert "error:" in err and flag in err
        assert out == ""

    @pytest.mark.parametrize("command", ["complex", "freealg"])
    def test_env_stage_cap_must_not_be_negative(self, command, chain_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("IMCOALG_MAX_STAGE", "-3")
        argv = [command, chain_path] if command == "complex" else [command]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: IMCOALG_MAX_STAGE")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["freealg", "--generators", "3"],
            ["freealg", "--stages", "3"],
            ["freealg", "--inner-depth", "3"],
            ["freealg", "--generators", "4"],
        ],
    )
    def test_freealg_upper_bounds_stay_caps(self, argv, capsys):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_freealg_two_generators_two_stages(self, capsys):
        # stage 1 has 24 elements and 494 upsets: a guard on the element
        # count once made this exit 3 although the layers fit the caps
        argv = ["freealg", "--generators", "2", "--stages", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stage sizes: [4, 24, 1976]" in out
        assert out.count("PASS ") == 6 and "FAIL" not in out
        assert main(argv + ["--max-stage", "100"]) == 3
        err = capsys.readouterr().err
        assert err == "error: stage 1 too large: more than 100 elements\n"

    def test_usage_error_leaves_next_call_unchanged(self, chain_path, capsys):
        # the parser is built once per process and reused by every call
        argv = ["freealg", "--generators", "1", "--stages", "2"]
        first = (main(argv), capsys.readouterr())
        for bad in (["freealg", "--stages", "-1"], ["nosuch"],
                    ["complex", chain_path, "--depth", "two"]):
            assert main(bad) == 2
            capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == first

    def test_negative_distinguish_is_usage_error(self, chain_path, capsys):
        assert main(["bisim", chain_path, chain_path, "--distinguish", "-1"]) == 2
        out, err = capsys.readouterr()
        assert "error:" in err and "--distinguish" in err
        assert out == ""

    @pytest.mark.parametrize("extra, depth", [("", "5"), ("q : b\n", "4")])
    def test_formerly_capped_stream_sizes_run(self, extra, depth, tmp_path,
                                              capsys):
        # 10 617 633 and 1 462 868 formulas, once a cap exit; the search
        # builds one formula per truth set
        path = tmp_path / "chain.frame"
        path.write_text(CHAIN_FILE + extra)
        dead = tmp_path / "dead.frame"
        dead.write_text("[elements]\nx\n[val]\np :\n" + extra.replace("b", ""))
        argv = ["bisim", str(path), str(path), "--distinguish", depth]
        assert main(argv) == 0
        assert "distinguish" not in capsys.readouterr().out
        argv = ["bisim", str(path), str(dead), "--distinguish", depth]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "distinguish a vs x: []F\n" in out
        assert "distinguish b vs x: p\n" in out

    def test_connective_applications_above_cap_exits_3(self, tmp_path,
                                                       capsys):
        # chains 8 and 9 next to a 16-element antichain on which four
        # letters take every pattern: the chain pairs need deep boxes while
        # the truth sets on the antichain multiply
        def text(n, prefix):
            chain = [f"{prefix}{i}" for i in range(n)]
            wide = [f"w{j}" for j in range(16)]
            lines = ["[elements]", " ".join(chain + wide), "[order]"]
            lines += [f"{a} < {b}" for a, b in zip(chain, chain[1:])]
            lines.append("[modal]")
            lines += [f"{a} R {b}" for i, a in enumerate(chain)
                      for b in chain[i + 1:]]
            lines.append("[val]")
            for bit, letter in enumerate("pqrs"):
                members = [w for j, w in enumerate(wide) if (j >> bit) & 1]
                lines.append(f"{letter} : {chain[-1]} {' '.join(members)}")
            return "\n".join(lines) + "\n"

        left, right = tmp_path / "l.frame", tmp_path / "r.frame"
        left.write_text(text(8, "l"))
        right.write_text(text(9, "r"))
        argv = ["bisim", str(left), str(right), "--distinguish", "10"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error:")
        assert "connective applications up to depth 6" in err
        assert f"exceed cap {1 << 20}" in err
        assert out == ""

    def test_formula_stream_at_depth_four_runs(self, chain_path, tmp_path,
                                               capsys):
        # 373 803 formulas fit under the cap; the search stops once both
        # pairs are separated
        dead = tmp_path / "dead.frame"
        dead.write_text("[elements]\nx\n[val]\np :\n")
        argv = ["bisim", chain_path, str(dead), "--distinguish", "4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "distinguish a vs x: []F\n" in out
        assert "distinguish b vs x: p\n" in out

    def test_bisim_depth_above_cap_exits_before_lifting(self, chain_path,
                                                        capsys):
        # lifting 1200 levels first would end in a RecursionError
        assert main(["bisim", chain_path, chain_path, "--depth", "1200"]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "exceeds cap" in err
        assert "Traceback" not in err and "PASS coalgebraic" not in out

    def test_bisim_depth_within_raised_cap(self, chain_path, capsys):
        argv = ["bisim", chain_path, chain_path, "--depth", "5",
                "--max-depth", "5"]
        assert main(argv) == 0
        assert "PASS coalgebraic-agreement" in capsys.readouterr().out


# -- fuzzing the exit-code contract ----------------------------------------------

_LABELS = ["a", "b", "c", "d", "e", "f"]


@st.composite
def frame_texts(draw, max_elements=4):
    """Frame files on at most max_elements elements: orders may have cycles,
    the relation may break the mix law, valuations may miss upward closure,
    and one line may name an undeclared element. One file in four is a bare
    antichain with no modal relation, the widest case for upsets."""
    labels = _LABELS[: draw(st.integers(1, max_elements))]
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    bare = draw(st.sampled_from([False] * 3 + [True]))
    lines = ["[elements]", " ".join(labels), "[order]"]
    if not bare:
        lines += [f"{a} < {b}" for a, b in draw(st.lists(pair, max_size=4))]
    lines.append("[modal]")
    if not bare:
        lines += [f"{a} R {b}" for a, b in draw(st.lists(pair, max_size=6))]
    lines.append("[val]")
    for letter in ["p"] + draw(st.lists(st.just("q"), max_size=1)):
        members = draw(st.lists(st.sampled_from(labels), max_size=3,
                                unique=True))
        lines.append(f"{letter} : {' '.join(members)}")
    stray = draw(st.sampled_from([None] * 5 + ["[val]\nr : z",
                                               "[modal]\na R z",
                                               "[order]\nz < a"]))
    if stray is not None:
        lines.append(stray)
    return "\n".join(lines) + "\n"


# a nest of one opener around a run of pieces: (tokens per level, opener,
# closer)
_NESTS = [(2, "(", ")"), (1, "~", ""), (1, "[]", ""), (2, "p -> ", ""),
          (4, "(p & ", ")")]


@st.composite
def formula_texts(draw, max_tokens=600):
    """Formula arguments of up to about max_tokens tokens over
    FORMULA_PIECES: a letter or a run of at most 20 pieces inside a nest
    of parentheses, prefix connectives or connectives, deep enough to pass
    the parser's token bound, with its closers or without them."""
    per_level, opener, closer = draw(st.sampled_from(_NESTS))
    most = (max_tokens - 20) // per_level
    depth = draw(st.integers(0, most) | st.just(most))
    pieces = st.lists(st.sampled_from(FORMULA_PIECES), max_size=20)
    body = draw(st.just("p") | pieces.map("".join))
    if draw(st.booleans()):
        closer = ""
    return opener * depth + body + closer * depth


@contextlib.contextmanager
def process_recursion_limit():
    """Run with the recursion budget a `python -m imcoalg` process gives
    main(): the default 1000 frames above the caller. Hypothesis raises
    the limit while a test runs, so without this a formula deep enough to
    overflow the stack of a process would pass in process."""
    depth, frame = 0, sys._getframe(2)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestCliFuzz:
    """Every frame file and formula ends in a documented exit code, never a
    traceback. The formula is also checked on a fixed frame file, so that a
    bad frame file does not keep it from the parser."""

    @settings(max_examples=100, derandomize=True,
              deadline=timedelta(seconds=5))
    @given(
        left=frame_texts(max_elements=6),
        right=frame_texts(max_elements=6),
        small=frame_texts(),
        formula=formula_texts(),
    )
    # two bare 6-element antichains: a 2^36-upset relation poset for any
    # check that builds Up(P) of it
    @example(left=antichain_text(6, "l"), right=antichain_text(6, "r"),
             small=antichain_text(4, "s"), formula="[]p -> p")
    def test_exit_code_contract(self, left, right, small, formula):
        # complex stays on at most four elements: stage-2 scans over wider
        # frames can legitimately take seconds
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, text in (("left", left), ("right", right),
                               ("small", small), ("chain", CHAIN_FILE)):
                paths.append(os.path.join(tmp, f"{name}.frame"))
                with open(paths[-1], "w") as fh:
                    fh.write(text)
            f1, f2, f3, chain = paths
            for argv in (
                ["check", f1],
                ["mc", f1, formula],
                ["mc", chain, formula],
                ["bisim", f1, f2, "--distinguish", "2"],
                ["complex", f3, "--depth", "2"],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err), \
                        process_recursion_limit():
                    code = main(argv)
                assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
                if code in (2, 3):
                    assert "error:" in err.getvalue()
