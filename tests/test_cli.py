"""End-to-end command-line behavior: scene parsing, dispatch, output
formats, exit codes, and determinism of emitted JSON."""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logsod.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_SELFCHECK, main
from logsod.complexes import STRATA_CAP, nc_from_json, snc_from_divisors
from logsod.orders import PRIME_TEST_BOUND
from logsod.psod import psod_infinite, psod_nc, psod_snc
from logsod.selfcheck import CheckResult, SelfcheckReport
from scenes import scenes
from test_psod import with_characters

A1_SCENE = {"kind": "monoid", "rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]}
FREE_SCENE = {"kind": "monoid", "rank": 2, "generators": [[1, 0], [0, 1]]}
THIRD_SCENE = {
    "kind": "monoid",
    "rank": 2,
    "generators": [[1, 0], [1, 1], [1, 2], [1, 3]],
}
SQUARE_SCENE = {
    "kind": "monoid",
    "rank": 3,
    "generators": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]],
}
LINE_SCENE = {
    "kind": "snc",
    "components": ["D"],
    "nonempty": [[], ["D"]],
    "assignment": {"value_system": "int", "values": {"X": 2, "D_{D}": 1}},
}
P2_SCENE = {
    "kind": "snc",
    "components": [1, 2, 3],
    "nonempty": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]],
    "assignment": {
        "value_system": "int",
        "values": {
            "X": 3,
            "D_{1}": 2, "D_{2}": 2, "D_{3}": 2,
            "D_{1,2}": 1, "D_{1,3}": 1, "D_{2,3}": 1,
        },
    },
}
NODAL_SCENE = {
    "kind": "nc",
    "components": ["C"],
    "crossings": [{"name": "N", "branches": [["C", 1], ["C", 2]]}],
    "ambient_dim": 2,
    "assignment": {
        "value_system": "int",
        "values": {"X": 10, "N": 1, "C": 3, "E1": 2, "N@1": 5, "N@2": 7},
    },
}
TWO_NODE_SCENE = {
    "kind": "nc",
    "components": ["C"],
    "crossings": [
        {"name": "N1", "branches": [["C", 1], ["C", 2]]},
        {"name": "N2", "branches": [["C", 3], ["C", 4]]},
    ],
    "ambient_dim": 2,
}
CHART_SCENE = {
    "kind": "chart",
    "charts": [{"rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]}],
    "assignment": {
        "value_system": "int",
        "values": {"X": 4, "D_{R1}": 2, "D_{R2}": 3, "D_{R1,R2}": 1},
        "invariant": "G",
    },
}


def write_scene(tmp_path: Path, scene: dict, name: str = "scene.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(scene), encoding="utf-8")
    return str(p)


def run_cli(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv, seconds: float) -> subprocess.CompletedProcess:
    """argv run by a fresh `python -m logsod.cli`, which is killed, raising
    TimeoutExpired, when it runs longer than seconds."""
    return subprocess.run([sys.executable, "-m", "logsod.cli", *argv],
                          capture_output=True, text=True, timeout=seconds)


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestMonoidCommand:
    def test_a1_analysis(self, tmp_path, capsys):
        data = run_json(capsys, ["monoid", write_scene(tmp_path, A1_SCENE)])
        assert len(data["rays"]) == 2
        assert data["simplicial"] is True
        assert data["saturated"] is True
        assert [1, 1] in data["indecomposables"]
        assert len(data["faces"]) == 4

    def test_free_identity_analysis(self, tmp_path, capsys):
        data = run_json(capsys, ["monoid", write_scene(tmp_path, FREE_SCENE)])
        assert data["rays"] == sorted(data["generators"]) == sorted(data["indecomposables"])

    def test_square_cone_not_simplicial(self, tmp_path, capsys):
        data = run_json(capsys, ["monoid", write_scene(tmp_path, SQUARE_SCENE)])
        assert data["simplicial"] is False
        assert len(data["rays"]) == 4

    def test_one_facet_pass_per_cone_reader(self, tmp_path, capsys, monkeypatch):
        # The rays, the faces and the saturation each take one facet pass
        # on the README monoid; the simplicial flag reads the rays.
        from logsod import monoids

        calls = []
        real = monoids._facets

        def counted(gens, basis):
            calls.append(gens)
            return real(gens, basis)

        monkeypatch.setattr(monoids, "_facets", counted)
        run_json(capsys, ["monoid", write_scene(tmp_path, A1_SCENE)])
        assert len(calls) <= 3

    def test_wrong_scene_kind(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["monoid", write_scene(tmp_path, LINE_SCENE)])
        assert code == EXIT_PARSE
        assert "monoid scene" in err


class TestKummerCommand:
    def test_a1_quotient(self, tmp_path, capsys):
        data = run_json(capsys, ["kummer", write_scene(tmp_path, A1_SCENE)])
        assert data["quotient_invariant_factors"] == [2]
        assert data["root_orders"] == [2, 2]

    def test_free_trivial(self, tmp_path, capsys):
        data = run_json(capsys, ["kummer", write_scene(tmp_path, FREE_SCENE)])
        assert data["quotient_invariant_factors"] == []
        assert data["root_orders"] == [1, 1]

    def test_third_chart(self, tmp_path, capsys):
        data = run_json(capsys, ["kummer", write_scene(tmp_path, THIRD_SCENE)])
        assert data["quotient_invariant_factors"] == [3]

    def test_square_cone_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["kummer", write_scene(tmp_path, SQUARE_SCENE)])
        assert code == EXIT_DOMAIN
        assert err


class TestResourceLimits:
    @pytest.mark.parametrize("command", ["monoid", "kummer"])
    def test_deep_membership_search_is_domain_error(self, tmp_path, capsys, command):
        scene = {"kind": "monoid", "rank": 1, "generators": [[1], [3000]]}
        code, out, err = run_cli(capsys, [command, write_scene(tmp_path, scene)])
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_memory_error_is_domain_error(self, capsys, monkeypatch):
        def exhausted(level):
            raise MemoryError

        monkeypatch.setattr("logsod.selfcheck.run_selfcheck", exhausted)
        code, out, err = run_cli(capsys, ["selfcheck"])
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ") and "MemoryError" in err

    def test_label_cap_is_domain_error(self, tmp_path, capsys):
        scene = write_scene(tmp_path, LINE_SCENE)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["psod", scene, "--level", "12"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ") and "479001600" in err
        assert "logsod decompose" in err

    @pytest.mark.parametrize("scene, argv, stage", [
        (LINE_SCENE, ["psod", "--level", "20000"], "stage 20000 "),
        (LINE_SCENE, ["psod", "--level", "10000000"], "stage 10000000 "),
        (LINE_SCENE, ["psod", "--level", "100000000"], "stage 100000000 "),
        (NODAL_SCENE, ["psod", "--level", "100000000"], "stage 100000000 "),
        (NODAL_SCENE, ["decompose", "--level", "1000"], "stage 1000 "),
        (NODAL_SCENE, ["decompose", "--level", "100000000"], "stage 100000000 "),
        # The counts fit, but not their contributions.
        ({**NODAL_SCENE, "assignment": {"value_system": "int", "values": {
            **NODAL_SCENE["assignment"]["values"], "N@1": 10**4000}}},
         ["decompose", "--level", "200"], "stage 200 "),
        (P2_SCENE, ["decompose", "--level", "1" + "0" * 2200], "the level "),
    ])
    def test_huge_stages_are_domain_errors(self, tmp_path, capsys, scene, argv, stage):
        # Refused before n! is computed where it is too long to write, and
        # before any output, in the library's words: Python's own refusal to
        # write a long int names sys.set_int_max_str_digits.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [argv[0], write_scene(tmp_path, scene), *argv[1:]])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith(f"error: {stage}") and "sys." not in err and err.count("\n") == 1

    def test_strictify_refusals_come_before_the_stage_check(self, tmp_path, capsys):
        deep = write_scene(tmp_path, {**NODAL_SCENE, "ambient_dim": 3})
        shallow = run_cli(capsys, ["decompose", deep, "--level", "3"])
        assert shallow[0] == EXIT_DOMAIN and "stage" not in shallow[2]
        assert run_cli(capsys, ["decompose", deep, "--level", "100000000"]) == shallow


class TestPsodCommand:
    def test_single_divisor_stage_three(self, tmp_path, capsys):
        scene = write_scene(tmp_path, LINE_SCENE)
        data = run_json(capsys, ["psod", scene, "--level", "3"])
        assert data["order"] == "factorial"
        assert data["level"] == [6]
        assert data["truncation"] == 3
        # characters serialize as [p, q] meaning the class of -p/q
        assert [lab["char"][0] for lab in data["labels"]] == [
            [5, 6], [1, 3], [2, 3], [1, 6], [1, 2], [0, 1],
        ]
        assert data["labels"][-1]["provenance"] == "BaseStack"

    def test_stage_one_single_line(self, tmp_path, capsys):
        data = run_json(capsys, ["psod", write_scene(tmp_path, LINE_SCENE),
                                 "--level", "1"])
        assert len(data["labels"]) == 1

    def test_boundary_of_plane(self, tmp_path, capsys):
        data = run_json(capsys, ["psod", write_scene(tmp_path, P2_SCENE),
                                 "--level", "2"])
        assert len(data["labels"]) == 8
        assert sum(lab["zero"] for lab in data["labels"]) == 1

    def test_standard_order_vector_level(self, tmp_path, capsys):
        scene = dict(P2_SCENE)
        data = run_json(capsys, ["psod", write_scene(tmp_path, scene),
                                 "--level", "2,3,2", "--order", "standard"])
        assert data["order"] == "standard"
        assert len(data["labels"]) == 12

    def test_nondiagonal_factorial_level_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["psod", write_scene(tmp_path, P2_SCENE),
                                        "--level", "2,6,2"])
        assert code == EXIT_DOMAIN
        assert err

    def test_level_from_scene_options(self, tmp_path, capsys):
        scene = dict(LINE_SCENE)
        scene["options"] = {"level": 2}
        data = run_json(capsys, ["psod", write_scene(tmp_path, scene)])
        assert data["level"] == [2]

    def test_level_required(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["psod", write_scene(tmp_path, LINE_SCENE)])
        assert code == EXIT_PARSE
        assert "level" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_implied_strata_warning_line(self, tmp_path, capsys, fmt):
        implied = {"kind": "snc", "components": [1, 2], "nonempty": [[1, 2]]}
        closed = dict(implied, nonempty=[[1], [2], [1, 2]])
        argv = ["--level", "2", "--format", fmt]
        code, out, err = run_cli(
            capsys, ["psod", write_scene(tmp_path, implied), *argv]
        )
        assert code == EXIT_OK
        assert err == "warning: added 2 implied nonempty strata\n"
        assert run_cli(
            capsys, ["psod", write_scene(tmp_path, closed, "closed.json"), *argv]
        ) == (EXIT_OK, out, "")

    def test_nc_scene_descriptor(self, tmp_path, capsys):
        data = run_json(capsys, ["psod", write_scene(tmp_path, NODAL_SCENE),
                                 "--level", "2"])
        assert data["components"] == ["C", "E1"]
        assert data["base_breakdown"] == [["N", 1]]
        assert len(data["labels"]) == 4


class TestDecomposeCommand:
    def test_line_point_family(self, tmp_path, capsys):
        scene = write_scene(tmp_path, LINE_SCENE)
        for r, want in [(1, 2), (5, 6), (12, 13)]:
            data = run_json(capsys, ["decompose", scene, "--level", str(r)])
            assert data["total"] == want

    def test_plane_boundary_total(self, tmp_path, capsys):
        data = run_json(capsys, ["decompose", write_scene(tmp_path, P2_SCENE),
                                 "--level", "2"])
        assert data["total"] == 12

    def test_prime_filter(self, tmp_path, capsys):
        scene = write_scene(tmp_path, LINE_SCENE)
        data = run_json(capsys, ["decompose", scene, "--level", "4",
                                 "--prime-to", "2"])
        assert data["total"] == 2
        assert data["rows"][0]["count"] == 0
        assert data["kind"] == "etale"

    def test_nc_scene_total(self, tmp_path, capsys):
        data = run_json(capsys, ["decompose", write_scene(tmp_path, NODAL_SCENE),
                                 "--level", "2"])
        assert data["total"] == 28
        assert data["kind"] == "nc"

    def test_chart_scene_total(self, tmp_path, capsys):
        data = run_json(capsys, ["decompose", write_scene(tmp_path, CHART_SCENE),
                                 "--level", "2"])
        assert data["total"] == 4 + 2 + 3 + 2 * 1
        assert data["invariant"] == "G"

    def test_mixed_int_and_str_labels(self, tmp_path, capsys):
        scene = {
            "kind": "snc",
            "components": [2, "b"],
            "nonempty": [[], [2], ["b"], ["b", 2]],
            "assignment": {
                "value_system": "int",
                "values": {"X": 1, "D_{2}": 1, "D_{b}": 1, "D_{2,b}": 1},
            },
        }
        data = run_json(capsys, ["decompose", write_scene(tmp_path, scene),
                                 "--level", "2"])
        assert data["total"] == 4

    def test_assignment_required(self, tmp_path, capsys):
        scene = dict(LINE_SCENE)
        del scene["assignment"]
        code, _, err = run_cli(capsys, ["decompose", write_scene(tmp_path, scene),
                                        "--level", "2"])
        assert code == EXIT_PARSE
        assert "assignment" in err

    def test_unknown_stratum_in_assignment(self, tmp_path, capsys):
        scene = dict(LINE_SCENE)
        scene["assignment"] = {
            "value_system": "int",
            "values": {"X": 2, "D_{D}": 1, "D_{Z}": 9},
        }
        code, _, err = run_cli(capsys, ["decompose", write_scene(tmp_path, scene),
                                        "--level", "2"])
        assert code == EXIT_PARSE
        assert "D_{Z}" in err

    def test_missing_value_is_domain_error(self, tmp_path, capsys):
        scene = dict(LINE_SCENE)
        scene["assignment"] = {"value_system": "int", "values": {"X": 2}}
        code, _, err = run_cli(capsys, ["decompose", write_scene(tmp_path, scene),
                                        "--level", "2"])
        assert code == EXIT_DOMAIN
        assert "D_{D}" in err

    @pytest.mark.parametrize("p, code, err", [
        (2 ** 61 - 1, EXIT_OK, ""),
        ((10 ** 9 + 7) * (10 ** 9 + 9), EXIT_DOMAIN,
         "error: prime_to must be prime, got 1000000016000000063\n"),
        (PRIME_TEST_BOUND, EXIT_DOMAIN, f"error: prime_to must be below {PRIME_TEST_BOUND}, "
         f"past which primality is not decided exactly, got {PRIME_TEST_BOUND}\n"),
    ], ids=["prime", "semiprime", "bound"])
    def test_large_prime_answers_within_a_second(self, tmp_path, p, code, err):
        proc = run_fresh(["decompose", write_scene(tmp_path, LINE_SCENE), "--level", "5",
                          "--prime-to", str(p)], seconds=1)
        assert (proc.returncode, proc.stderr) == (code, err)
        if code == EXIT_OK:
            assert json.loads(proc.stdout)["total"] == 6

    @pytest.mark.parametrize("argv", [
        ["decompose", "--level", "2"], ["psod", "--order", "standard", "--level", "2"],
    ], ids=["decompose", "psod"])
    def test_thirty_component_stratum_refused_within_a_second(self, tmp_path, argv):
        labels = [f"L{i}" for i in range(1, 31)]
        scene = {"kind": "snc", "components": labels, "nonempty": [labels],
                 "assignment": {"value_system": "int", "values": {"X": 1}}}
        proc = run_fresh([argv[0], write_scene(tmp_path, scene), *argv[1:]], seconds=1)
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stderr == (f"error: a stratum of 30 components has 2^30 subsets, more than "
                               f"the {STRATA_CAP} nonempty strata a complex may have\n")

    def test_prime_filter_rejected_off_snc(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["decompose", write_scene(tmp_path, NODAL_SCENE),
                                        "--level", "2", "--prime-to", "2"])
        assert code == EXIT_PARSE
        assert "snc" in err

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["decompose", write_scene(tmp_path, LINE_SCENE),
                                        "--level", "5", "--format", "text"])
        assert code == EXIT_OK
        assert "total: 6" in out
        assert "D_{D}" in out

    def test_nc_deep_stages_by_closed_form(self, tmp_path, capsys):
        # The README nodal scene.  Stages 6 and 7 carry 518,400 and about
        # 25 million gerbe labels; the counts must not enumerate them.
        readme_nodal = {k: v for k, v in NODAL_SCENE.items() if k != "ambient_dim"}
        scene = write_scene(tmp_path, readme_nodal)
        for level, total in (("6", 6207138), ("7", 304723458)):
            data = run_json(capsys, ["decompose", scene, "--level", level])
            assert data["total"] == total


class TestComponentOrder:
    """A stratum's labels are written in component order wherever a
    stratum is written, as decompose names it; int labels 9 and 10 differ
    from their string order."""

    SNC = {
        "kind": "snc",
        "components": [9, 10],
        "nonempty": [[], [9], [10], [9, 10]],
        "assignment": {
            "value_system": "int",
            "values": {"X": 1, "D_{9}": 2, "D_{10}": 3, "D_{9,10}": 4},
        },
    }
    NC = {
        "kind": "nc",
        "components": [9, 10],
        "crossings": [{"name": "P", "branches": [[9, 1], [10, 1]]}],
        "ambient_dim": 2,
    }

    def test_psod_text(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["psod", write_scene(tmp_path, self.SNC),
                                        "--level", "2", "--format", "text"])
        assert code == EXIT_OK
        assert "   1. (-1/2, -1/2)  on {9,10}  [level 2]" in out.splitlines()

    def test_decompose_names(self, tmp_path, capsys):
        data = run_json(capsys, ["decompose", write_scene(tmp_path, self.SNC), "--level", "2"])
        assert [r["stratum"] for r in data["rows"]] == ["D_{9}", "D_{10}", "D_{9,10}"]
        assert data["total"] == 10

    def test_strictify_json(self, tmp_path, capsys):
        data = run_json(capsys, ["strictify", write_scene(tmp_path, self.NC)])
        assert data["complex"]["nonempty"] == [[9, 10], [9], [10], []]


def assert_same_text(got: str, want: str) -> None:
    """got == want, reporting the first difference; pytest's own diff of two
    long strings would take minutes in each shrinking step of a property."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"outputs differ at offset {at}: {got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


_NAMES = st.one_of(
    st.sampled_from(['"labels": []', 'say "hi"', "back\\slash", "Dé", "Ω\u00a0✓", "\n\t"]),
    st.text(max_size=4),
)


@st.composite
def snc_psod_calls(draw):
    """An snc scene with awkward labels, psod arguments for it (a tower
    stage, or per-component orders in the standard order) and the
    descriptor those arguments name."""
    components = draw(st.lists(st.one_of(_NAMES, st.integers(-3, 12)), min_size=1, max_size=3, unique=True))
    strata = [[c for c in components if draw(st.booleans())] for _ in range(3)]
    scene = {"kind": "snc", "components": components, "nonempty": strata}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = snc_from_divisors(components, strata)
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        return scene, ["--level", str(n)], psod_infinite(cx, n)
    level = [draw(st.integers(1, 3)) for _ in components]
    argv = ["--level", ",".join(map(str, level)), "--order", "standard"]
    return scene, argv, psod_snc(cx, level, order="standard")


@st.composite
def nc_psod_calls(draw):
    """The nodal or two-node scene with awkward component and crossing
    names, a tower stage and its psod_nc descriptor."""
    names = draw(st.lists(_NAMES.filter(bool), min_size=3, max_size=3, unique=True))
    c, n1, n2 = names
    crossings = [{"name": n1, "branches": [[c, 1], [c, 2]]}]
    if draw(st.booleans()):
        crossings.append({"name": n2, "branches": [[c, 3], [c, 4]]})
    scene = {"kind": "nc", "components": [c], "crossings": crossings, "ambient_dim": 2}
    stage = draw(st.integers(1, 3))
    return scene, ["--level", str(stage)], psod_nc(nc_from_json(scene), stage)


class TestStreamedJson:
    """psod JSON is written one label at a time; its bytes are those of
    json.dumps over the whole descriptor."""

    @staticmethod
    def expected(desc) -> str:
        return json.dumps(desc.to_json(), indent=2, ensure_ascii=False) + "\n"

    @staticmethod
    def run_stdin(scene: dict, argv: list) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(scene))), \
                redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(snc_psod_calls())
    def test_snc_bytes_equal_whole_document(self, call):
        scene, argv, desc = call
        code, out, _ = self.run_stdin(scene, ["psod", "-", *argv])
        assert code == EXIT_OK
        assert_same_text(out, self.expected(desc))
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "out.json"
            assert self.run_stdin(scene, ["psod", "-", *argv, "--output", str(target)])[:2] == (EXIT_OK, "")
            assert_same_text(target.read_text(encoding="utf-8"), out)

    @pytest.mark.parametrize("scene", [NODAL_SCENE, TWO_NODE_SCENE, CHART_SCENE])
    def test_nc_and_chart_bytes(self, tmp_path, capsys, scene):
        from logsod.cli import _psod_descriptor

        code, out, _ = run_cli(capsys, ["psod", write_scene(tmp_path, scene), "--level", "3"])
        assert code == EXIT_OK
        assert_same_text(out, self.expected(_psod_descriptor(scene, 3, "factorial")))

    @settings(max_examples=30, deadline=None)
    @given(nc_psod_calls())
    def test_nc_normalized_bytes_equal_whole_document(self, call):
        scene, argv, desc = call
        assert any(lab.normalized for lab in desc.labels)
        code, out, _ = self.run_stdin(scene, ["psod", "-", *argv])
        assert code == EXIT_OK
        assert_same_text(out, self.expected(desc))

    def test_no_components_and_no_labels(self):
        from logsod.cli import _psod_json

        desc = psod_infinite(snc_from_divisors((), [[]]), 2)
        assert '"char": []' in "".join(_psod_json(desc))
        assert_same_text("".join(_psod_json(desc)) + "\n", self.expected(desc))
        # No valid descriptor is empty; the writer still handles one.
        desc = with_characters(desc, [])
        assert '"labels": []' in "".join(_psod_json(desc))
        assert_same_text("".join(_psod_json(desc)) + "\n", self.expected(desc))


def text_by_label(desc) -> str:
    """psod's text rendering, one label at a time through str(Character):
    the reference for the writer's per-stratum pieces."""
    from logsod.complexes import in_component_order

    lines = [f"order: {desc.order}; level: ({', '.join(map(str, desc.level))})"
             + (f"; truncation: {desc.truncation}" if desc.truncation else "")]
    for i, lab in enumerate(desc.labels, start=1):
        stratum = "X" if not lab.stratum else "{" + ",".join(
            str(x) for x in in_component_order(desc.components, lab.stratum)) + "}"
        extra = "  [zero]" if lab.zero else ""
        if lab.first_level is not None:
            extra += f"  [level {lab.first_level}]"
        chars = "(" + ", ".join(str(x) for x in lab.character) + ")"
        lines.append(f"{i:>4}. {chars}  on {stratum}{extra}")
    return "\n".join(lines)


class TestPsodText:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(snc_psod_calls(), nc_psod_calls()))
    def test_text_is_the_per_label_rendering(self, call):
        scene, argv, desc = call
        code, out, _ = TestStreamedJson.run_stdin(scene, ["psod", "-", *argv, "--format", "text"])
        assert code == EXIT_OK
        assert_same_text(out, text_by_label(desc) + "\n")


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


def test_psod_json_peak_memory_is_near_the_descriptor(tmp_path):
    """Streaming keeps psod's peak near the size of the descriptor's list of
    characters: no list of labels or label dicts, no encoder chunk list and
    no document string.  What the process holds beyond that list is bounded
    per label, so that a smaller list is not punished.  At level 7 it is
    60-64 B a label on Python 3.10 to 3.13; holding the labels as well
    makes it 119 B, and holding the document 345 B.
    Garbage is collected before each reading, so that what earlier tests
    left is not collected inside a measured window."""
    scene = write_scene(tmp_path, LINE_SCENE)
    with redirect_stdout(_Discard()):
        assert main(["psod", scene, "--level", "2"]) == EXIT_OK  # loads the schema
    cx = snc_from_divisors(("D",), [[], ["D"]])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chars = psod_infinite(cx, 7).characters()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
        labels = len(chars)
        del chars
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with redirect_stdout(_Discard()):
            code = main(["psod", scene, "--level", "7"])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert (peak - retained) / labels < 90, (peak, retained, labels)


FUZZ_SCENES = scenes(st.integers(-3, 3), st.integers(1, 3))


_COMMANDS = {
    "monoid": ["monoid", "kummer"],
    "snc": ["psod", "decompose"],
    "nc": ["psod", "decompose", "strictify"],
    "chart": ["psod", "decompose"],
}


@st.composite
def fuzz_calls(draw):
    """A schema-valid scene and a command for its kind, with a level for
    psod and decompose.  Half the monoids get generators of the rank's
    length, and half the scenes given to decompose get distinct components
    and an int assignment over X and every stratum their listed strata
    imply, so that more calls get past the first checks."""
    scene = draw(FUZZ_SCENES)
    command = draw(st.sampled_from(_COMMANDS[scene["kind"]]))
    if scene["kind"] == "monoid" and draw(st.booleans()):
        rank = scene["rank"]
        scene["generators"] = [(g * rank)[:rank] for g in scene["generators"]]
    if command == "decompose" and draw(st.booleans()):
        comps = list(dict.fromkeys(scene.get("components", ())))
        if comps:
            scene["components"] = comps
        names = {"X"}
        for stratum in scene.get("nonempty", ()):
            listed = [c for c in comps if c in stratum]
            for mask in range(1, 1 << len(listed)):
                names.add("D_{" + ",".join(str(c) for i, c in enumerate(listed) if mask >> i & 1) + "}")
        values = {name: draw(st.integers(-3, 3)) for name in sorted(names)}
        scene["assignment"] = {"value_system": "int", "values": values}
    argv = [command, "-", "--format", draw(st.sampled_from(["json", "text"]))]
    if command in ("psod", "decompose"):
        levels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        argv += ["--level", ",".join(map(str, levels))]
    if command == "psod" and draw(st.booleans()):
        argv += ["--order", draw(st.sampled_from(["standard", "factorial"]))]
    if command == "decompose" and draw(st.booleans()):
        argv += ["--prime-to", str(draw(st.integers(2, 7)))]
    return scene, argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(fuzz_calls())
    def test_schema_valid_scenes_keep_the_exit_contract(self, call):
        scene, argv = call
        first = TestStreamedJson.run_stdin(scene, argv)
        code, out, err = first
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN), err
        assert "Traceback" not in err
        if code != EXIT_OK:
            assert out == ""
        again = TestStreamedJson.run_stdin(scene, argv)
        assert again[0] == code
        assert_same_text(again[1], out)
        assert_same_text(again[2], err)


class TestStrictifyCommand:
    def test_nodal_one_step(self, tmp_path, capsys):
        data = run_json(capsys, ["strictify", write_scene(tmp_path, NODAL_SCENE)])
        assert len(data["log"]) == 1
        assert data["log"][0]["exceptional"] == "E1"
        assert data["complex"]["components"] == ["C", "E1"]

    def test_two_node_two_steps(self, tmp_path, capsys):
        data = run_json(capsys, ["strictify", write_scene(tmp_path, TWO_NODE_SCENE)])
        assert len(data["log"]) == 2

    def test_simple_input_empty_log(self, tmp_path, capsys):
        scene = {
            "kind": "nc",
            "components": ["A", "B"],
            "crossings": [{"name": "S", "branches": [["A", 1], ["B", 1]]}],
        }
        code, out, _ = run_cli(capsys, ["strictify", write_scene(tmp_path, scene),
                                        "--format", "text"])
        assert code == EXIT_OK
        assert "already simple" in out

    def test_unsupported_configuration(self, tmp_path, capsys):
        scene = {
            "kind": "nc",
            "components": ["C", "D"],
            "crossings": [
                {"name": "M", "branches": [["C", 1], ["C", 2]]},
                {"name": "P", "branches": [["C", 1], ["D", 1]]},
            ],
            "closure_pairs": [["P", "M"]],
        }
        code, _, err = run_cli(capsys, ["strictify", write_scene(tmp_path, scene)])
        assert code == EXIT_DOMAIN
        assert err


class TestInputHandling:
    def test_stdin_scene(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(A1_SCENE)))
        data = run_json(capsys, ["monoid", "-"])
        assert data["simplicial"] is True

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["kummer", write_scene(tmp_path, A1_SCENE),
                                        "--output", str(out_path)])
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(out_path.read_text())["quotient_invariant_factors"] == [2]

    def test_psod_output_file_matches_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "psod.json"
        argv = ["psod", write_scene(tmp_path, P2_SCENE), "--level", "2"]
        code, stdout, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert run_cli(capsys, [*argv, "--output", str(out_path)]) == (EXIT_OK, "", "")
        assert out_path.read_text(encoding="utf-8") == stdout

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, where):
        target = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, ["monoid", write_scene(tmp_path, A1_SCENE),
                                          "--output", str(target)])
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: cannot write output file: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("scene, argv", [
        (SQUARE_SCENE, ["kummer"]),
        (LINE_SCENE, ["psod", "--level", "12"]),
    ])
    def test_domain_error_leaves_no_output_file(self, tmp_path, capsys, scene, argv):
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, [argv[0], write_scene(tmp_path, scene), *argv[1:],
                                          "--output", str(out_path)])
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error: ")
        assert not out_path.exists()

    @staticmethod
    def stdout_env(buffered: bool) -> dict:
        # Buffered, what stdout still holds after a failed write would fail
        # again at exit; unbuffered, each write reaches the OS at once.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return env if buffered else dict(env, PYTHONUNBUFFERED="1")

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_closed_stdout_pipe_exits_2(self, tmp_path, fmt, buffered):
        # The reader stops after 10 bytes of a 1 MB document.
        scene = write_scene(tmp_path, LINE_SCENE)
        proc = subprocess.Popen(
            [sys.executable, "-m", "logsod.cli", "psod", scene, "--level", "7", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.stdout_env(buffered),
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_PARSE
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("fmt, level", [("json", "2"), ("json", "7"), ("text", "2")])
    def test_full_stdout_exits_2(self, tmp_path, fmt, level, buffered):
        scene = write_scene(tmp_path, LINE_SCENE)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "logsod.cli", "psod", scene, "--level", level, "--format", fmt],
                stdout=full, stderr=subprocess.PIPE, text=True, env=self.stdout_env(buffered),
            )
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    def test_bad_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, ["monoid", str(p)])
        assert code == EXIT_PARSE
        assert "JSON" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["monoid", "/nonexistent/scene.json"])
        assert code == EXIT_PARSE

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        scene = {"kind": "snc", "components": [], "nonempty": []}
        code, _, err = run_cli(capsys, ["monoid", write_scene(tmp_path, scene)])
        assert code == EXIT_PARSE
        assert "schema" in err

    def test_unknown_scene_kind_rejected_by_schema(self, tmp_path, capsys):
        scene = {"kind": "fan"}
        code, _, err = run_cli(capsys, ["monoid", write_scene(tmp_path, scene)])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_integral_float_reads_as_integer(self, tmp_path, capsys, fmt):
        # Draft 2020-12 lets 1.0 stand for the integer 1.
        as_float = write_scene(tmp_path, {"kind": "monoid", "rank": 1.0, "generators": [[1]]}, "f.json")
        as_int = write_scene(tmp_path, {"kind": "monoid", "rank": 1, "generators": [[1]]}, "i.json")
        got = run_cli(capsys, ["monoid", as_float, "--format", fmt])
        assert got == run_cli(capsys, ["monoid", as_int, "--format", fmt])
        assert got[0] == EXIT_OK and got[2] == ""

    def test_json_output_deterministic(self, tmp_path, capsys):
        scene = write_scene(tmp_path, P2_SCENE)
        argv = ["decompose", scene, "--level", "2"]
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second
        assert first[0] == EXIT_OK

    def test_module_invocation(self, tmp_path):
        scene = write_scene(tmp_path, A1_SCENE)
        proc = subprocess.run(
            [sys.executable, "-m", "logsod.cli", "kummer", scene],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["quotient_invariant_factors"] == [2]


# Runs one command in a fresh interpreter, output to a file, and prints the
# exit code and the modules the process loaded: logsod's, jsonschema, and
# three standard modules that cost start-up time.  No valid-scene command
# may load dataclasses or inspect, and only the lattice layer loads
# fractions.
_CHILD = """
import json, sys
_WATCHED = {"jsonschema", "dataclasses", "inspect", "fractions"}
from logsod.cli import main
code = main(sys.argv[1:])
mods = [m for m in sys.modules if m in _WATCHED or m.startswith("logsod.")]
print(json.dumps([code, sorted(mods)]))
"""
_CORE = {"logsod.cli", "logsod.errors", "logsod.orders"}
_LATTICE = {"logsod.monoids", "logsod.intlinalg", "fractions"}
_MONOID = _CORE | _LATTICE | {"logsod.schemacheck"}
# snc and nc scenes need neither the monoid nor the lattice layer; charts do.
_COMPLEX = _CORE | {"logsod.schemacheck", "logsod.complexes"}
_SELFCHECK = _CORE | _LATTICE | {"logsod.complexes", "logsod.psod", "logsod.decompose", "logsod.selfcheck"}


class TestStartupImports:
    @pytest.mark.parametrize("argv, scene, expect", [
        (["monoid"], A1_SCENE, _MONOID),
        (["kummer"], A1_SCENE, _MONOID),
        (["psod", "--level", "2"], P2_SCENE, _COMPLEX | {"logsod.psod"}),
        (["decompose", "--level", "2"], P2_SCENE, _COMPLEX | {"logsod.decompose"}),
        (["decompose", "--level", "2"], NODAL_SCENE, _COMPLEX | {"logsod.decompose"}),
        (["decompose", "--level", "2"], CHART_SCENE, _COMPLEX | _LATTICE | {"logsod.decompose"}),
        (["strictify"], NODAL_SCENE, _COMPLEX),
        (["selfcheck", "--exhaustive-level", "1"], None, _SELFCHECK),
        (["psod", "--level", "2"], CHART_SCENE, _COMPLEX | _LATTICE | {"logsod.psod"}),
    ])
    def test_valid_scene_loads_only_its_command(self, tmp_path, argv, scene, expect):
        args = argv[:1] + ([write_scene(tmp_path, scene)] if scene else []) + argv[1:]
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, *args, "--output", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == EXIT_OK
        assert set(modules) == expect

    def test_rejected_scene_is_worded_by_jsonschema(self, tmp_path):
        scene = write_scene(tmp_path, {"kind": "fan"})
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, "monoid", scene],
            capture_output=True, text=True,
        )
        code, modules = json.loads(proc.stdout)
        assert code == EXIT_PARSE
        assert "jsonschema" in modules
        assert proc.stderr.startswith("error: scene fails schema validation at top level")


class TestSelfcheckCommand:
    def test_passing_suite_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, ["selfcheck", "--exhaustive-level", "2"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passed"] is True
        assert len(data["results"]) == 6

    def test_failure_exits_4(self, capsys, monkeypatch):
        rigged = SelfcheckReport(
            2, (CheckResult("rigged", False, "planted", ((1,),)),)
        )
        monkeypatch.setattr("logsod.selfcheck.run_selfcheck", lambda level: rigged)
        code, out, _ = run_cli(capsys, ["selfcheck", "--exhaustive-level", "2",
                                        "--format", "text"])
        assert code == EXIT_SELFCHECK
        assert "FAIL rigged" in out

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, ["selfcheck", "--exhaustive-level", "1",
                                        "--format", "text"])
        assert code == EXIT_OK
        assert "all checks passed" in out


class TestSchemaShipping:
    def test_schema_is_valid_jsonschema(self):
        # The CLI validates scenes without re-checking the shipped schema
        # against its metaschema, so that check lives here.
        import jsonschema

        from logsod.cli import _scene_schema

        schema = _scene_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("scene", [
        {"kind": "snc", "components": [], "nonempty": []},
        {"kind": "fan"},
        {"kind": "monoid", "rank": "two", "generators": [[1, "x"]]},
        {"kind": "nc", "components": ["C"], "crossings": [{"branches": [["C"]]}]},
        [],
    ])
    def test_messages_match_jsonschema_validate(self, tmp_path, scene):
        import jsonschema

        from logsod.cli import _scene_schema, load_scene
        from logsod.errors import ParseError

        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(scene, _scene_schema())
        where = "/".join(str(p) for p in want.value.absolute_path) or "top level"
        with pytest.raises(ParseError) as got:
            load_scene(write_scene(tmp_path, scene))
        assert str(got.value) == (
            f"scene fails schema validation at {where}: {want.value.message}"
        )
