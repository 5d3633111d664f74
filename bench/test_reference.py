"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest bench/test_reference.py

Each check must accept the program's output and reject a deliberately
wrong copy of it.
"""

import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
from logsod import complexes, decompose, monoids, psod  # noqa: E402
from workloads import _check_decompose, _check_psod, _label_row, _report_parts  # noqa: E402


def test_interleaving_chain_is_the_degree_six_chain():
    chain = [x for x, _ in ref.interleaving_chain(3)]
    assert chain == [Fraction(-5, 6), Fraction(-2, 6), Fraction(-4, 6),
                     Fraction(-1, 6), Fraction(-3, 6), Fraction(0)]
    assert [lvl for _, lvl in ref.interleaving_chain(3)] == [3, 3, 3, 3, 2, 1]


def test_tower_order_puts_deeper_first_levels_first():
    order = ref.tower_order(2, 2)
    assert order == [((1, 2), (1, 2)), ((1, 2), (0, 1)), ((0, 1), (1, 2)), ((0, 1), (0, 1))]


def _tower_rows(n=4):
    comps, nonempty = inputs.THREE_DIVISORS
    desc = psod.psod_infinite(complexes.snc_from_divisors(comps, nonempty), n)
    return [_label_row(lab) for lab in desc.labels], comps, nonempty


def test_tower_check_rejects_two_adjacent_labels_swapped():
    rows, comps, nonempty = _tower_rows(3)
    assert ref.check_tower(rows, comps, 3, nonempty) == []
    for i in (0, len(rows) // 2, len(rows) - 2):
        swapped = rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2:]
        assert ref.check_tower(swapped, comps, 3, nonempty)


def test_tower_check_rejects_a_dropped_label_and_a_wrong_zero_flag():
    rows, comps, nonempty = _tower_rows(2)
    assert ref.check_tower(rows[1:], comps, 2, nonempty)
    chi, stratum, level, zero, norm = rows[0]
    assert ref.check_tower([(chi, stratum, level, not zero, norm)] + rows[1:], comps, 2, nonempty)


def test_report_check_rejects_a_row_count_off_by_one():
    comps, nonempty = inputs.THREE_DIVISORS
    cx = complexes.snc_from_divisors(comps, nonempty)
    values = {k: (k.count(",") + 2, 1, -3) for k in
              ("X", "D_{1}", "D_{2}", "D_{3}", "D_{1,2}", "D_{1,3}", "D_{2,3}")}
    v = decompose.InvariantAssignment("int_vector", values)
    for report, counts in (
        (decompose.etale_filter(cx, v, 3, level=(12, 12, 12)), ref.etale_counts(comps, nonempty, (12,) * 3, 3)),
        (decompose.decompose_kfl(cx, v, 4), ref.kfl_counts(comps, nonempty, 4)),
    ):
        rows, base, total = _report_parts(report)
        assert ref.check_report(rows, base, total, counts, values, "int_vector") == []
        name, count, val, contrib = rows[-1]
        off = rows[:-1] + [(name, count + 1, val, contrib)]
        assert ref.check_report(off, base, total, counts, values, "int_vector")


def test_nodal_and_fixed_locus_closed_forms():
    nodal = complexes.nc_from_json(inputs.NODAL)
    values = {"X": 10, "N": 1, "C": 3, "E1": 2, "N@1": 5, "N@2": 7}
    report = decompose.decompose_nc(nodal, decompose.InvariantAssignment("int", values), 3)
    assert ref.check_report(*_report_parts(report), ref.nodal_counts(3), values, "int") == []
    assert report.total == 336
    assert ref.fixed_locus_counts(("R1", "R2"), [frozenset({"R1", "R2"})], 6) == {
        "D_{R1}": 5, "D_{R2}": 5, "D_{R1,R2}": 50}


def test_kummer_check_rejects_a_halved_root_order():
    for case in inputs.MONOID_LIBRARY:
        ext = monoids.canonical_kummer_extension(monoids.ToricMonoid(len(case.generators[0]), case.generators))
        assert ref.check_kummer(case, ext.target_basis, ext.root_orders, ext.quotient_invariant_factors) == []
        if max(ext.root_orders) > 1:
            j = ext.root_orders.index(max(ext.root_orders))
            halved = list(ext.root_orders)
            halved[j] //= 2
            assert ref.check_kummer(case, ext.target_basis, halved, ext.quotient_invariant_factors)


def test_lattice_index_and_moved_sets():
    case = inputs.CASES["mixed-orders"]
    assert ref.lattice_index(case.rays, case.root_orders, case.generators) == 6
    assert len(ref.moved_sets(case.rays, case.root_orders, case.generators)) == 5
    case = inputs.CASES["readme"]
    assert ref.moved_sets(case.rays, case.root_orders, case.generators) == [frozenset({0, 1})]


def test_face_check_rejects_a_dropped_face():
    for case in inputs.MONOID_LIBRARY + (inputs.SQUARE_CONE,):
        faces = monoids.face_strata(monoids.ToricMonoid(len(case.generators[0]), case.generators)).elements
        assert ref.check_faces(case, faces) == []
        for i in range(len(faces)):
            assert ref.check_faces(case, faces[:i] + faces[i + 1:])


def test_root_pair_check():
    case = inputs.CASES["doubled-simplex"]
    snc, data = complexes.canonical_root_pair(complexes.SimplicialChart(
        (monoids.ToricMonoid(3, case.generators),)))
    moved = [m for _, m in data.fixed_components]
    assert ref.check_root_pair(case, snc.components, snc.nonempty, data.group_order(), moved) == []
    assert ref.check_root_pair(case, snc.components, snc.nonempty, data.group_order(), moved[1:])


def test_standard_order_check():
    cx = complexes.snc_from_divisors(*inputs.THREE_DIVISORS)
    desc = psod.psod_snc(cx, (2, 3, 2), order="standard")
    chars = [row[0] for row in map(_label_row, desc.labels)]
    assert ref.check_standard(chars, (2, 3, 2)) == []
    assert ref.check_standard(chars[1:] + chars[:1], (2, 3, 2))


def test_closed_form_counts_match_brute_force():
    # prime-to-p characters of Z_r counted directly
    for r in range(1, 40):
        for p in (2, 3, 5):
            direct = sum(1 for k in range(1, r) if (r // math.gcd(k, r)) % p)
            assert ref.prime_to_part(r, p) - 1 == direct


class _Outputs:
    """Stands in for a cli-corpus run: first-round outputs by call name."""

    def __init__(self, outputs, values=None):
        self.outputs = outputs
        self.values = values or {}

    def text_of(self, name):
        return self.outputs[name]


def _cli(capsys, argv):
    from logsod import cli
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_cli_psod_text_check_rejects_two_lines_swapped(tmp_path, capsys):
    scene = tmp_path / "line.json"
    scene.write_text('{"kind": "snc", "components": ["D"], "nonempty": [[], ["D"]]}')
    out = {fmt: _cli(capsys, ["psod", str(scene), "--level", "3", "--format", fmt]) for fmt in ("json", "text")}
    w = _Outputs({"psod:line:3:json": out["json"]})
    tower = (("D",), [[], ["D"]], None)
    assert _check_psod((0, out["json"], ""), w, "line", 3, "json", tower) == []
    assert _check_psod((0, out["text"], ""), w, "line", 3, "text", tower) == []
    lines = out["text"].splitlines()
    swapped = "\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:])
    assert _check_psod((0, swapped, ""), w, "line", 3, "text", tower)


def test_cli_decompose_checks_reject_a_count_off_by_one(tmp_path, capsys):
    values = {"X": 10, "N": 1, "C": 3, "E1": 2, "N@1": 5, "N@2": 7}
    scene = tmp_path / "nodal.json"
    scene.write_text(json.dumps(dict(inputs.NODAL, assignment={"value_system": "int", "values": values})))
    w = _Outputs({}, {"nodal": ("int", values)})
    counts = ref.nodal_counts(3)
    for fmt in ("json", "text"):
        out = _cli(capsys, ["decompose", str(scene), "--level", "3", "--format", fmt])
        assert _check_decompose((0, out, ""), w, "nodal", counts, fmt) == []
        wrong = dict(counts, C=counts["C"] + 1)
        assert _check_decompose((0, out, ""), w, "nodal", wrong, fmt)


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    emitted = {k: unit for k, (_, unit) in tracing.per_layer(tracing.Tracer(), 1, 0.0).items()}
    assert listed == emitted
