import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import pytest

import ehrhart
from ehrhart import cli, constructions, indices
from ehrhart.cli import CLAIMS, main
from ehrhart.counting import DEFAULT_BUDGET, count, count_union, fitted
from ehrhart.errors import InvalidInput, VerificationFailed
from ehrhart.polytope import (
    PolytopalUnion,
    denominator,
    from_vertices,
    polytope_from_dict,
    product,
    union_to_dict,
)
from ehrhart.pte import table_lookup
from ehrhart.quasipoly import fit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_pentagon(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "pentagon", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 2
    assert ["0", "7/3"] in payload["vertices"]
    assert ["7", "0"] in payload["vertices"]
    assert payload["provenance"] == {"family": "pentagon", "p": 3}


def test_construct_barn_union_payload(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "barn", "--p", "2", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pieces"]) == 2
    assert "product_structure" not in payload
    assert "intersections" not in payload
    assert payload["provenance"]["pte_solution"] == {"s": [1, 2], "t": [3, 0]}


def test_count_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "heptagon", "--p", "2", "--k-max", "4")
    assert code == 0
    assert json.loads(out) == {"k": [1, 2, 3, 4], "count": [12, 47, 88, 165]}
    code, out, _ = run_cli(
        capsys, "count", "--family", "heptagon", "--p", "2", "--k-max", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == "k,count\n1,12\n2,47\n"


def test_count_single_k(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "hull", "--p", "2", "--n", "3", "--k", "1")
    assert json.loads(out) == {"k": [1], "count": [49]}


def test_count_from_json_input(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "pentagon", "--p", "2")
    path = tmp_path / "pentagon.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "count", "--input", str(path), "--k-max", "2")
    assert code == 0
    assert json.loads(out)["count"] == [12, 34]


@pytest.mark.parametrize("flags", [["--p", "3"], ["--n", "9"], ["--p", "7", "--n", "9"]])
@pytest.mark.parametrize("command", ["count", "fit"])
def test_family_parameters_with_input_are_usage_errors(tmp_path, capsys, command, flags):
    # --p and --n build a --family member; with --input they were ignored
    code, out, _ = run_cli(capsys, "construct", "--family", "segment")
    path = tmp_path / "segment.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, command, "--input", str(path), *flags)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", [["construct"], ["count", "--k", "2"]])
def test_a_family_member_without_p_is_built_at_p_2(capsys, command):
    _, default, _ = run_cli(capsys, *command, "--family", "hull", "--n", "3")
    _, given, _ = run_cli(capsys, *command, "--family", "hull", "--n", "3", "--p", "2")
    assert default == given != ""


TWO_D_FAMILIES = ["segment", "pentagon", "rectangle", "heptagon"]
OBJECT_COMMANDS = ["construct", "count", "fit", "indices", "series"]


@pytest.mark.parametrize("command", OBJECT_COMMANDS)
@pytest.mark.parametrize("family", TWO_D_FAMILIES)
def test_n_on_a_family_without_a_dimension_is_a_usage_error(capsys, family, command):
    # --n used to be dropped: count --family pentagon --n 9 printed the pentagon's count
    code, out, err = run_cli(capsys, command, "--family", family, "--n", "3")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error:")


def test_one_family_member_is_one_body():
    with pytest.raises(InvalidInput, match="takes no --n"):
        constructions.build("pentagon", 2, 3)
    with pytest.raises(InvalidInput, match="takes no --n"):
        cli._body("pentagon", 2, 3)


@pytest.mark.parametrize("command", OBJECT_COMMANDS)
def test_an_object_subcommand_needs_a_source(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


def test_count_of_three_piece_union_input(tmp_path, capsys):
    # three copies of the [0,1]^2 box; pairwise inclusion-exclusion would
    # give 3*4 - 3*4 = 0
    box = product(constructions.interval(0, 1), constructions.interval(0, 1))
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps(union_to_dict(PolytopalUnion(2, (box,) * 3))))
    code, out, _ = run_cli(capsys, "count", "--input", str(path), "--k", "1")
    assert code == 0
    assert json.loads(out)["count"] == [4]


def test_count_of_union_input_ignores_recorded_overlaps(tmp_path, capsys):
    # two copies of the [0,1]^2 box with an empty list of recorded
    # overlaps, as older files could carry; the union still has 4 points
    box = product(constructions.interval(0, 1), constructions.interval(0, 1))
    data = union_to_dict(PolytopalUnion(2, (box, box)))
    data["intersections"] = []
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "count", "--input", str(path), "--k", "1")
    assert code == 0
    assert json.loads(out)["count"] == [4]


def test_fit_and_periods(capsys):
    code, out, _ = run_cli(capsys, "fit", "--family", "segment", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 1
    assert payload["modulus"] == 2
    assert payload["coeffs"] == [["1", "1/2"], ["1/2", "1/2"]]
    assert payload["period_sequence"] == [2, 1]

    code, out, _ = run_cli(capsys, "fit", "--family", "heptagon", "--p", "3")
    assert json.loads(out)["period_sequence"] == [1, 3, 1]


def test_indices_payload(capsys):
    code, out, _ = run_cli(capsys, "indices", "--family", "heptagon", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "index_sequence": [2, 2, 1],
        "period_sequence": [1, 2, 1],
        "mcmullen_ok": True,
    }


def test_series_payload(capsys):
    code, out, _ = run_cli(capsys, "series", "--family", "segment", "--p", "2")
    payload = json.loads(out)
    assert payload == {"numerator": [1, 1], "modulus": 2, "power": 2}


def test_the_pte_table_report_holds_what_pte_list_and_verify_printed(capsys):
    code, out, _ = run_cli(capsys, "verify", "pte-table")
    report = json.loads(out)
    assert (code, report["outcome"]) == (0, "pass")
    assert report["params"] == {"sizes": [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]}
    for size in report["params"]["sizes"]:
        entry = report["witness"][f"size={size}"]
        sol = table_lookup(size)
        assert (entry["s"], entry["t"]) == (list(sol.s), list(sol.t))
        assert entry["verified"] and entry["product_identity"]
        # the pte leaf prints the claim's entry for a table pair
        pair = [",".join(map(str, side)) for side in (sol.s, sol.t)]
        code, out, _ = run_cli(capsys, "pte", "--s", pair[0], "--t", pair[1])
        assert (code, json.loads(out)) == (0, entry)

    code, out, _ = run_cli(capsys, "pte", "--s", "1,2", "--t", "2,0")
    assert code == 1
    assert json.loads(out) == {
        "s": [1, 2], "t": [2, 0], "verified": False, "product_identity": False
    }
    # no pair of size 1 is an ideal solution, as table_lookup says too
    code, out, _ = run_cli(capsys, "pte", "--s", "1", "--t", "0")
    assert (code, json.loads(out)["verified"]) == (1, False)


@pytest.mark.parametrize("argv", [["pte", "list"], ["pte", "verify"], ["pte", "--s", "1,2"]])
def test_pte_takes_exactly_one_pair(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


def test_verify_heptagon_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "heptagon", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["witness"]["p=2"]["period_sequence"] == [1, 2, 1]
    assert payload["witness"]["p=2"]["counts_k1_to_4"] == [12, 47, 88, 165]


def test_verify_barn_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "barn-periods", "--n", "4", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["witness"]["n=4,p=2"]["period_sequence"] == [1, 1, 1, 2, 1]
    assert payload["witness"]["construction_range"]["12"].startswith("NotAvailable")


def test_verify_barn_unreachable_dimension_is_reported_not_failed(capsys):
    code, out, _ = run_cli(capsys, "verify", "barn-periods", "--n", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["witness"]["n=12,p=2"].startswith("NotAvailable")


def test_verify_pentagon_equivalence_single_p(capsys):
    code, out, _ = run_cli(capsys, "verify", "pentagon-equivalence", "--p", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["witness"]["p=4"]["equivalent"] is True
    # witness embeds the raw counts used by the fit
    assert payload["witness"]["p=4"]["segment_counts"]["4"] == 2


def test_pyramid_equivalence_fails_on_a_wrong_fold_count(monkeypatch, capsys):
    real = cli.pyramid_transform
    monkeypatch.setattr(  # one fold short: n - 3 instead of n - 2
        cli, "pyramid_transform", lambda series, i: real(series, i - 1) if i > 1 else series
    )
    code, out, _ = run_cli(capsys, "verify", "pyramid-equivalence")
    report = json.loads(out)
    assert (code, report["outcome"]) == (1, "fail")
    assert not any(e["pyramid_law"] or e["simplex_law"] for e in report["witness"].values())


def test_pyramid_equivalence_follows_the_dimension_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "pyramid-equivalence", "--n", "5", "--p", "2")
    report = json.loads(out)
    assert (code, report["outcome"], report["params"]) == (0, "pass", {"n": [5], "p": [2]})
    assert list(report["witness"]) == ["n=5,p=2"]
    code, out, _ = run_cli(capsys, "verify", "pyramid-equivalence", "--max-n", "3")
    report = json.loads(out)
    assert (code, report["outcome"], report["params"]) == (0, "pass", {"n": [3], "p": [2, 3]})
    assert list(report["witness"]) == ["n=3,p=2", "n=3,p=3"]


def test_verify_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "verify", "decomposition", "--n", "3", "--p", "2")
    _, second, _ = run_cli(capsys, "verify", "decomposition", "--n", "3", "--p", "2")
    assert first == second


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "not-a-family"])
    assert exc.value.code == 2

    code, out, err = run_cli(capsys, "construct", "--family", "barn", "--p", "2", "--n", "12")
    assert code == 2
    assert "error:" in err

    for argv in (
        ["construct", "--family", "simplex"],  # no --n
        ["construct", "--family", "pentagon", "--p", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    with pytest.raises(SystemExit) as exc:
        main(["pte", "--s", "1,a", "--t", "3,0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "pentagon", "--budget", "5"],
    ["pte", "--s", "1,2", "--t", "3,0", "--budget", "5"],
])
def test_budget_is_rejected_where_nothing_is_counted(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "pentagon", "--format", "csv"],
    ["fit", "--family", "pentagon", "--format", "csv"],
    ["indices", "--family", "pentagon", "--format", "csv"],
    ["series", "--family", "pentagon", "--format", "csv"],
    ["pte", "--s", "1,2", "--t", "3,0", "--format", "csv"],
    ["verify", "heptagon", "--format", "csv"],
    ["periods", "--family", "heptagon", "--p", "2"],  # fit's JSON carries the periods
])
def test_only_count_takes_a_format_and_periods_is_gone(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _leaf_options(parser, prefix=()):
    """``{leaf subcommand: its option strings, positionals by name}``."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_leaf_options(sub, prefix + (name,)))
    if not out and prefix:
        out[" ".join(prefix)] = [
            s
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
            for s in (a.option_strings or [a.dest])
        ]
    return out


# every settable option of every leaf subcommand: 34 over 7 leaves
OPTION_TABLE = {
    "construct": ["--family", "--p", "--n"],
    "count": [
        "--family", "--p", "--n", "--input", "--k", "--k-max", "--budget", "--format",
    ],
    "fit": ["--family", "--p", "--n", "--input", "--budget"],
    "indices": ["--family", "--p", "--n", "--input", "--budget"],
    "series": ["--family", "--p", "--n", "--input", "--budget"],
    "pte": ["--s", "--t"],
    "verify": ["claim", "--p", "--n", "--max-p", "--max-n", "--budget"],
}


def test_the_option_table_is_pinned():
    table = _leaf_options(cli.build_parser())
    assert table == OPTION_TABLE
    assert (sum(map(len, table.values())), len(table)) == (34, 7)


@pytest.mark.parametrize("argv", [
    ["count", "--family", "pentagon", "--k", "3", "--k-max", "5"],
    ["count", "--family", "pentagon", "--k", "3", "--k-max", "6"],  # the default, given
    ["verify", "heptagon", "--p", "3", "--max-p", "2"],
    ["verify", "barn-periods", "--n", "3", "--max-n", "4"],
    ["count", "--family", "pentagon", "--input", "body.json"],
    ["fit", "--input", "body.json", "--family", "pentagon"],
])
def test_conflicting_flags_are_usage_errors(capsys, argv):
    # the first flag used to win silently
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


@pytest.mark.parametrize("family", ["segment", "pentagon"])
def test_negative_budget_is_a_usage_error(capsys, family):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", family, "--k", "5", "--budget", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget: must be at least 0, got -3" in captured.err


def test_zero_budget_counts_what_charges_nothing(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "segment", "--k", "5", "--budget", "0")
    assert (code, json.loads(out)["count"]) == (0, [3])


def test_an_overdrawn_union_names_the_budget_it_was_given(capsys):
    # barn(4,2) counts by inclusion-exclusion, and at k = 6 a term's walk
    # overdraws what the subsets before it left of the budget of 3
    argv = ("count", "--family", "barn", "--n", "4", "--p", "2", "--k", "6", "--budget", "3")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: inclusion-exclusion costs more than 3 nodes\n")


TRIANGLE = {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
MALFORMED_INPUTS = {
    "vertices-not-a-list": {"ambient_dim": 2, "vertices": 5},
    "no-vertices": {"ambient_dim": 2},
    "no-ambient-dim": {"vertices": [[0, 0]]},
    "ambient-dim-not-an-integer": {"ambient_dim": "2", "vertices": [[0, 0]]},
    "ragged-vertex": {"ambient_dim": 2, "vertices": [[0, 0], [1]]},
    "bad-coordinate": {"ambient_dim": 2, "vertices": [[0, 0], ["1/0", 1]]},
    "null-coordinate": {"ambient_dim": 2, "vertices": [[0, None]]},
    "huge-exponent": {"ambient_dim": 1, "vertices": [[0], ["1e5000"]]},
    "long-numerator": {"ambient_dim": 1, "vertices": [[0], ["1" * 5000]]},
    "long-denominator": {"ambient_dim": 1, "vertices": [[0], ["1/" + "3" * 5000]]},
    "not-an-object": [1, 2],
    "piece-not-an-object": {"ambient_dim": 2, "pieces": [7]},
    "no-pieces": {"ambient_dim": 2, "pieces": []},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_a_usage_error(name, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(MALFORMED_INPUTS[name]))
    code, out, err = run_cli(capsys, "count", "--input", str(path), "--k", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_input_that_is_not_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text("not json")
    code, out, err = run_cli(capsys, "count", "--input", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


BIG = "1" + "0" * 4299 + "1"  # 10**4300 + 1, written out: str() would refuse it


def test_numbers_beyond_the_default_digit_limit_print_in_full(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long.json"
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [1e4300]]}')
    code, out, _ = run_cli(capsys, "count", "--input", str(path), "--k", "1")
    assert code == 0 and f"[\n    {BIG}\n  ]" in out
    code, out, _ = run_cli(capsys, "count", "--input", str(path), "--k", "1", "--format", "csv")
    assert (code, out) == (0, f"k,count\n1,{BIG}\n")
    code, out, _ = run_cli(capsys, "fit", "--input", str(path))
    assert code == 0 and '"modulus": 1' in out
    assert sys.get_int_max_str_digits() == limit  # restored when main returns


def test_a_json_integer_of_more_digits_than_the_limit_is_refused(tmp_path, capsys):
    # json.dumps cannot write it under the limit, so it is written out
    path = tmp_path / "long.json"
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [' + "1" * 5000 + "]]}")
    code, out, err = run_cli(capsys, "count", "--input", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "5000 digits" in err


def test_json_float_coordinates_are_read_as_written(tmp_path, capsys):
    # a float parse would make 0.1 a fraction over 2**55, and the fit's
    # modulus with it
    path = tmp_path / "tenth.json"
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [0.1]]}')
    body = cli._load_object(cli.build_parser().parse_args(["fit", "--input", str(path)]))
    assert body.vertices == ((Fraction(0),), (Fraction(1, 10),))
    code, out, _ = run_cli(capsys, "fit", "--input", str(path))
    assert (code, json.loads(out)["modulus"]) == (0, 10)
    # an exponent that would cost a 5000-digit power of ten is refused
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [1e5000]]}')
    code, out, err = run_cli(capsys, "count", "--input", str(path), "--k", "1")
    assert (code, out) == (2, "") and "exponent beyond" in err


@pytest.mark.parametrize("option, value", [
    ("--k", "0"), ("--k", "x"), ("--k-max", "0"), ("--k-max", "-3"), ("--k-max", "x"),
])
def test_nonpositive_dilates_are_rejected_by_the_parser(option, value):
    # --k takes any nonzero dilate, --k-max a positive one
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "pentagon", option, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("option, value", [
    ("--p", "0"), ("--p", "-1"), ("--max-p", "0"), ("--p", "x"),
    ("--n", "2"), ("--n", "0"), ("--max-n", "2"), ("--max-n", "x"),
])
def test_verify_flags_out_of_range_are_rejected_by_the_parser(option, value):
    # a falsy value used to read as unset and run the default grid
    with pytest.raises(SystemExit) as exc:
        main(["verify", "heptagon", option, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid, claim", [
    ({"p": 0}, "heptagon"), ({"p": -1}, "heptagon"),
    ({"max_p": 0}, "pentagon-equivalence"), ({"max_p": -1}, "pentagon-equivalence"),
    ({"n": 2}, "hn-periods"), ({"max_n": 2}, "hn-periods"),
])
def test_verify_all_rejects_the_grids_the_parser_rejects(grid, claim):
    # a falsy or empty grid used to read as unset and run the default one
    with pytest.raises(InvalidInput, match=f"{next(iter(grid))} must be at least"):
        cli.verify_all(claims=(claim,), **grid)


@pytest.mark.parametrize("grid", [{"p": 2, "max_p": 3}, {"n": 4, "max_n": 4}])
def test_verify_all_rejects_a_value_with_its_maximum(grid):
    with pytest.raises(InvalidInput, match="not both"):
        cli.verify_all(claims=("heptagon",), **grid)


@pytest.mark.parametrize("call, choices", [
    (partial(cli.run_claim, "nope"), "unknown claim 'nope'; choose from pentagon-equivalence, "),
    (partial(cli.verify_all, claims=("nope",)), "unknown claim 'nope'; choose from "),
    (partial(cli.verify_all, max_n=4, claims=("heptagon", "nope")), "unknown claim 'nope'"),
    (
        partial(count_union, constructions.build("barn", 2, 3)[0], 1, strategy="nope"),
        "unknown strategy 'nope'; choose from auto, enumerate, inclusion-exclusion",
    ),
    (partial(constructions.build, "nope", 2), "unknown family 'nope'; choose from segment, "),
], ids=["run_claim", "verify_all", "verify_all with a grid", "count_union", "build"])
def test_an_unknown_name_is_a_usage_error_naming_the_choices(call, choices):
    with pytest.raises(InvalidInput) as exc:
        call()
    assert str(exc.value).startswith(choices)


def test_mcmullen_single_p_runs_that_p_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "mcmullen", "--p", "2")
    report = json.loads(out)
    assert (code, report["outcome"], report["params"]) == (0, "pass", {"n": [3, 4], "p": [2]})
    assert report["witness"] and all(label.endswith("p=2") for label in report["witness"])


def test_mcmullen_single_n_checks_the_bodies_of_that_n_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "mcmullen", "--n", "3", "--p", "1")
    report = json.loads(out)
    assert (code, report["outcome"], report["params"]) == (0, "pass", {"n": [3], "p": [1]})
    dims = {part for label in report["witness"] for part in label.split() if part.startswith("n=")}
    assert dims == {"n=3"}
    assert "pentagon p=1" in report["witness"] and "hull n=3 p=1" in report["witness"]


# every (claim, flag) pair whose grid axis the claim does not have; the
# PTE claims accept --max-p, which perfbench's verify-p2 workload gives
# every claim, and ignore it
FLAGS_A_CLAIM_DOES_NOT_TAKE = [
    ("pentagon-equivalence", "--n", "3"),
    ("pentagon-equivalence", "--max-n", "3"),
    ("heptagon", "--n", "5"),
    ("heptagon", "--max-n", "3"),
    ("pte-table", "--p", "3"),
    ("pte-table", "--n", "3"),
    ("pte-table", "--max-n", "3"),
    ("product-identity", "--p", "3"),
    ("product-identity", "--n", "3"),
    ("product-identity", "--max-n", "3"),
]


@pytest.mark.parametrize("claim, flag, value", FLAGS_A_CLAIM_DOES_NOT_TAKE)
def test_a_claim_refuses_a_grid_flag_it_has_no_axis_for(capsys, claim, flag, value):
    # verify heptagon --n 5 and verify pte-table --p 3 used to pass, ignoring the flag
    code, out, err = run_cli(capsys, "verify", claim, flag, value)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {claim} takes no {flag}")


# every (claim, flag) pair the claim takes: with the pairs above, the
# whole (claim, grid flag) matrix
FLAGS_A_CLAIM_TAKES = [
    ("pentagon-equivalence", "--p", "2"),
    ("pentagon-equivalence", "--max-p", "2"),
    ("heptagon", "--p", "2"),
    ("heptagon", "--max-p", "2"),
    ("pyramid-equivalence", "--p", "2"),
    ("pyramid-equivalence", "--max-p", "2"),
    ("pyramid-equivalence", "--n", "3"),
    ("pyramid-equivalence", "--max-n", "3"),
    ("prism-identity", "--p", "2"),
    ("prism-identity", "--max-p", "2"),
    ("prism-identity", "--n", "3"),
    ("prism-identity", "--max-n", "3"),
    ("sn-pn-equivalence", "--p", "2"),
    ("sn-pn-equivalence", "--max-p", "2"),
    ("sn-pn-equivalence", "--n", "3"),
    ("sn-pn-equivalence", "--max-n", "3"),
    ("decomposition", "--p", "2"),
    ("decomposition", "--max-p", "2"),
    ("decomposition", "--n", "3"),
    ("decomposition", "--max-n", "3"),
    ("hn-periods", "--p", "2"),
    ("hn-periods", "--max-p", "2"),
    ("hn-periods", "--n", "3"),
    ("hn-periods", "--max-n", "3"),
    ("barn-periods", "--p", "2"),
    ("barn-periods", "--max-p", "2"),
    ("barn-periods", "--n", "3"),
    ("barn-periods", "--max-n", "3"),
    ("mcmullen", "--p", "2"),
    ("mcmullen", "--max-p", "2"),
    ("mcmullen", "--n", "3"),
    ("mcmullen", "--max-n", "3"),
    ("pte-table", "--max-p", "2"),
    ("product-identity", "--max-p", "2"),
]


def test_the_flag_lists_cover_every_claim_and_grid_flag_once():
    refused = {(claim, flag) for claim, flag, _ in FLAGS_A_CLAIM_DOES_NOT_TAKE}
    taken = {(claim, flag) for claim, flag, _ in FLAGS_A_CLAIM_TAKES}
    assert not refused & taken
    assert refused | taken == {
        (claim, flag) for claim in CLAIMS for flag in ("--p", "--max-p", "--n", "--max-n")
    }


@pytest.mark.parametrize("claim, flag, value", FLAGS_A_CLAIM_TAKES)
def test_a_claim_takes_a_grid_flag_it_has_an_axis_for(capsys, claim, flag, value):
    # budget 0 keeps it cheap: a claim that counts is skipped at its first count
    code, out, err = run_cli(capsys, "verify", claim, flag, value, "--budget", "0")
    report = json.loads(out)
    assert (code, err, report["claim"]) == (0, "", claim)
    assert report["outcome"] == "pass" or report["outcome"].startswith("skipped: budget exceeded")


def test_indices_refuses_a_union_once(capsys):
    code, out, err = run_cli(capsys, "indices", "--family", "barn", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: index sequences are defined for convex polytopes only\n"


@pytest.mark.parametrize("claim", ["pte-table", "product-identity"])
def test_a_pte_claim_accepts_and_ignores_max_p(capsys, claim):
    _, alone, _ = run_cli(capsys, "verify", claim)
    code, out, _ = run_cli(capsys, "verify", claim, "--max-p", "2")
    assert (code, out) == (0, alone)


def test_a_grid_flag_applies_to_the_claims_that_take_it(monkeypatch):
    # n is refused only when no claim run takes it; the others run as without
    # it, and are handed None for the axis they do not have
    handed = []
    run = cli._CLAIM_FUNCS["heptagon"]
    monkeypatch.setitem(
        cli._CLAIM_FUNCS, "heptagon", lambda *args: handed.append(args) or run(*args)
    )
    assert cli.verify_all(p=2, n=3, claims=("heptagon", "hn-periods")) == (
        cli.verify_all(p=2, claims=("heptagon",)) + cli.verify_all(p=2, n=3, claims=("hn-periods",))
    )
    assert handed == [([2], None, None)] * 2
    with pytest.raises(InvalidInput, match="heptagon, pte-table take no --max-n"):
        cli.verify_all(max_n=4, claims=("heptagon", "pte-table"))


def test_a_report_does_not_alias_a_claims_default_grid():
    report = cli.run_claim("heptagon")
    report.params["p"].append(9)
    assert cli.run_claim("heptagon").params == {"p": [2, 3, 4, 5]}


def test_verify_all_takes_the_least_grid_values():
    (report,) = cli.verify_all(p=1, claims=("pentagon-equivalence",))
    assert report.params == {"p": [1]}
    (report,) = cli.verify_all(max_n=3, claims=("hn-periods",))
    assert report.params == {"n": [3], "p": [2, 3]}


def grid_labels(claim, ps, ns):
    """The witness labels of ``claim`` run on periods ``ps`` and dimensions ``ns``."""
    if claim == "mcmullen":  # every convex family, the 2-D ones at each p alone
        return {
            f"{family} n={n} p={p}" if needs_n else f"{family} p={p}"
            for family, (_, needs_n) in constructions._BUILDERS.items() if family != "barn"
            for n in ns for p in ps
        }
    labels = {f"n={n},p={p}" for n in ns for p in ps}
    return labels | {"construction_range"} if claim == "barn-periods" else labels


@pytest.mark.parametrize("claim", [claim for claim, (ps, ns) in cli._GRIDS.items() if ps and ns])
def test_a_claim_with_both_axes_runs_exactly_its_grid(claim):
    report = cli.run_claim(claim)
    assert (report.outcome, set(report.witness)) == ("pass", grid_labels(claim, *cli._GRIDS[claim]))


@pytest.mark.parametrize("claim, max_p", [("hn-periods", 3), ("decomposition", 3), ("mcmullen", 2)])
def test_a_claim_runs_its_whole_grid_at_5_d(capsys, claim, max_p):
    # hn-periods --n 5 and decomposition --n 5 used to be skipped, and
    # mcmullen --n 5 to check the 5-D simplex alone
    code, out, _ = run_cli(capsys, "verify", claim, "--n", "5", "--max-p", str(max_p))
    report = json.loads(out)
    assert (code, report["outcome"]) == (0, "pass")
    assert set(report["witness"]) == grid_labels(claim, list(range(1, max_p + 1)), [5])


def test_claims_reach_past_5_d(capsys):
    code, out, _ = run_cli(capsys, "verify", "hn-periods", "--n", "6")
    report = json.loads(out)
    assert (code, report["outcome"]) == (0, "pass")
    assert report["witness"]["n=6,p=2"]["period_sequence"] == [1, 2, 1, 1, 1, 1, 1]
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "6")
    assert code == 0 and {r["outcome"] for r in json.loads(out)} == {"pass"}


def test_fit_of_a_6_d_input_body_with_a_rational_vertex(tmp_path, capsys):
    # the simplex on 0, e_1, ..., e_5 and e_6 / 2, hulled from the JSON
    rows = [[0] * 6] + [[int(i == j) for j in range(6)] for i in range(5)] + [[0] * 5 + ["1/2"]]
    path = tmp_path / "simplex6.json"
    path.write_text(json.dumps({"ambient_dim": 6, "vertices": rows}))
    code, out, _ = run_cli(capsys, "fit", "--input", str(path))
    assert (code, json.loads(out)["modulus"]) == (0, 2)


@pytest.mark.parametrize("argv, outcome, params", [
    # no flag leaves a claim without cases, so the budget is the one way to skip
    *(
        (
            (claim, "--budget", "0"),
            "skipped: budget exceeded (the walk charges more than its budget of 0)",
            {},
        )
        for claim in ("decomposition", "hn-periods", "heptagon")
    ),
])
def test_skipped_claims_exit_0_with_empty_witness(capsys, argv, outcome, params):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert json.loads(out) == {
        "claim": argv[0], "params": params, "outcome": outcome, "witness": {}
    }


def _verify_synthetic(monkeypatch, capsys, cases):
    monkeypatch.setitem(cli._CLAIM_FUNCS, "heptagon", lambda ps, ns, budget: ({"p": ps}, cases))
    code, out, _ = run_cli(capsys, "verify", "heptagon", "--p", "3")
    report = json.loads(out)
    assert report["params"] == {"p": [3]}
    return code, report["outcome"], report["witness"]


def test_one_bad_case_fails_the_claim(monkeypatch, capsys):
    cases = [("a", True, 1), ("b", False, 2), ("c", True, 3)]
    assert _verify_synthetic(monkeypatch, capsys, cases) == (
        1, "fail", {"a": 1, "b": 2, "c": 3}
    )


def test_no_cases_is_skipped_not_passed(monkeypatch, capsys):
    assert _verify_synthetic(monkeypatch, capsys, []) == (
        0, "skipped: no matching cases", {}
    )


# a fit picks its own degree and modulus, so one that fails its check is
# the library's defect, though ``VerificationFailed`` is an ``EhrhartError``
INTERNAL_ERRORS = {
    "KeyError": (KeyError("internal"), "KeyError: 'internal'"),
    "VerificationFailed": (
        VerificationFailed("fitted value 32 != sample 31 at k=4"),
        "VerificationFailed: fitted value 32 != sample 31 at k=4",
    ),
}


def _break_a_claim(monkeypatch, error):
    def broken(ps, ns, budget):
        raise error

    monkeypatch.setitem(cli._CLAIM_FUNCS, "heptagon", broken)


@pytest.mark.parametrize("name", sorted(INTERNAL_ERRORS))
def test_internal_errors_are_not_usage_errors(monkeypatch, name):
    error, _ = INTERNAL_ERRORS[name]
    _break_a_claim(monkeypatch, error)
    with pytest.raises(type(error)):
        main(["verify", "heptagon"])


@pytest.mark.parametrize("name", sorted(INTERNAL_ERRORS))
def test_internal_errors_exit_3_with_traceback(monkeypatch, capsys, name):
    error, line = INTERNAL_ERRORS[name]
    _break_a_claim(monkeypatch, error)
    monkeypatch.setattr(sys, "argv", ["ehrhart", "verify", "heptagon"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and line in captured.err


def run_module(*argv, **kwargs):
    """``python -m ehrhart.cli *argv`` in a fresh process that imports this
    ``ehrhart``; output is captured unless ``kwargs`` direct it."""
    src_dir = str(Path(ehrhart.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "ehrhart.cli", *argv], env=env, **kwargs)


def test_module_entry_point_subprocess():
    proc = run_module("fit", "--family", "simplex", "--n", "3", "--p", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["period_sequence"] == [2, 1, 1]


# the first output fits the stdout buffer and fails on the flush in
# ``main``; the second overflows it and fails inside ``print``
@pytest.mark.parametrize("argv", [("verify", "pte-table"), ("verify", "all", "--max-p", "1")])
@pytest.mark.parametrize("shared_stderr", [False, True], ids=["own-stderr", "shared-stderr"])
def test_closed_stdout_exits_141_and_says_nothing(argv, shared_stderr):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the process starts
    try:
        proc = run_module(*argv, stdout=write, stderr=write if shared_stderr else subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr in (None, b"")


def test_a_union_file_reads_as_its_listed_vertices(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "barn", "--p", "2", "--n", "3")
    payload = json.loads(out)
    shifted = json.loads(out)
    shifted["pieces"][0]["vertices"] = [
        [str(Fraction(c) + 100) for c in v] for v in payload["pieces"][0]["vertices"]
    ]
    for name, data in (("barn", payload), ("shifted", shifted)):
        (tmp_path / f"{name}.json").write_text(json.dumps(data))

    code, out, _ = run_cli(capsys, "count", "--input", str(tmp_path / "barn.json"), "--k-max", "2")
    assert code == 0
    assert json.loads(out)["count"] == [48, 253]
    # the shifted piece no longer meets the other: the count is the two
    # pieces' sum, each counted alone
    pieces = [polytope_from_dict(piece) for piece in shifted["pieces"]]
    alone = [[count(piece, k) for piece in pieces] for k in (1, 2)]
    code, out, _ = run_cli(
        capsys, "count", "--input", str(tmp_path / "shifted.json"), "--k-max", "2"
    )
    assert code == 0
    assert json.loads(out)["count"] == [sum(c) for c in alone] == [54, 268]


# sha256 of the stdout of the default ``ehrhart verify all``. All three
# ``verify all`` pins moved when every claim began to run exactly the
# (n, p) of its grid: ``decomposition`` and ``hn-periods`` gained the
# cases that ``_HULL_CASES`` had dropped (n=4,p=3 by default, p = 1 at
# ``--max-p``), ``mcmullen`` checks every n-family at n = 3, 4 and no
# longer its 5-D simplex, and the three claims record their grid in
# ``params``; every other report stayed byte-identical.
VERIFY_ALL_SHA256 = "6b8dbad769dbdbd7dc0e8e1720c9fdb18334eba3f138e2798f20dcf42d0b9ac6"


def test_verify_all_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


# sha256 of the stdout of ``ehrhart verify all --max-p 2``. It moved when
# ``fit`` began sampling convex bodies on both sides of zero: the count maps
# of the witnesses gained negative keys and lost their largest positive
# dilates. ``test_verify_all_max_p2_agrees_with_parent_output`` checks that
# change against the output recorded before it.
VERIFY_ALL_P2_SHA256 = "96ffc8c1cccd9a9160964c9f9d65a0c84b173a2615ca06067e87f4650a743889"
PARENT_OUTPUT = Path(__file__).parent / "data" / "verify_all_p2_parent.json"


def test_verify_all_max_p2_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-p", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_P2_SHA256


def test_verify_all_max_p2_output_is_unchanged_in_a_fresh_process():
    # fits are kept on the bodies that ``_body`` holds for the whole test
    # run, so the in-process pin may read what earlier tests left there
    proc = run_module("verify", "all", "--max-p", "2")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_P2_SHA256


# sha256 of the stdout of ``ehrhart verify all --max-p 6``: the McMullen
# targets up to p = 6 are fitted on more dilates, each counted from the
# rows, level skeletons and counts that its body keeps.
VERIFY_ALL_P6_SHA256 = "e0ce8ed379c08b51f1882a213028ea060a6c703dedaea20885c66723d0affb1e"


def test_verify_all_max_p6_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-p", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_P6_SHA256


# sha256 of the stdout of ``ehrhart construct --family barn --n N --p P``,
# the JSON wire format of a product union, by (n, p). It moved when the
# writer stopped listing recorded overlaps under ``"intersections"``, and
# again when it stopped writing each piece's ``"product_structure"``; the
# output before each, with that key deleted, is byte-identical to this one.
CONSTRUCT_BARN_SHA256 = {
    (3, 2): "24c5195cbb28758d4684b5605c9a3ef94ad7ca79b948001d3763ed9821f2a90d",
    (4, 3): "d0cf9764dbcdb99561a8682ecf5f7ac81e81843d723f476b562a0c92479668ba",
    (5, 2): "f6c224180ca2682df86ca41d43b506a7b0d9bdcb3364dffd593f0aa5915ce9f9",
}


@pytest.mark.parametrize("n, p", sorted(CONSTRUCT_BARN_SHA256))
def test_construct_barn_output_is_unchanged(capsys, n, p):
    code, out, _ = run_cli(capsys, "construct", "--family", "barn", "--n", str(n), "--p", str(p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_BARN_SHA256[n, p]


# sha256 of the stdout of ``ehrhart construct --family F --p 2``, with
# ``--n 3`` for the families that need it.
CONSTRUCT_P2_SHA256 = {
    "segment": "362dbda9900afa7a0626b948be939f75535a5b46ae64edd318fa36f6d60edfbf",
    "pentagon": "ce041af1443c8402aa1cd90a3681251f1be86a2d1486b2b1361b6614e4181941",
    "rectangle": "fdb295085b5ffb52a2adb901ea72312070fb4ab79965d2ee7459b979ebc9765f",
    "heptagon": "a9b48d77beaed7dba1e33f9fe9e3195ca917ca762a132b328e714c9f901d6845",
    "simplex": "0de43e95ce67152f58fe3ff6d82cb4bf49ee53a95c0370251e70acbc363aa2ec",
    "prism": "a6da0d15158f8751414335f730bd5edee58433dbdf34aed8d8d313c381262ab5",
    "pentagon-pyramid": "40c260265005c77df89fb9aed2bf40fff3fa2e3feca20992a46497e8107d521d",
    "hull": "45a2395b2c1e1fc7ba1403764fb4b9c5ce11a65bff4fe776459429d7d60f20d5",
    "middle": "1f7595466cb1d5c4605bd0fc522a92821446796084bdb973cb3e8d86dda085ba",
}
_NEEDS_N = {"simplex", "prism", "pentagon-pyramid", "hull", "middle"}


@pytest.mark.parametrize("family", sorted(CONSTRUCT_P2_SHA256))
def test_construct_output_is_unchanged(capsys, family):
    extra = ("--n", "3") if family in _NEEDS_N else ()
    code, out, _ = run_cli(capsys, "construct", "--family", family, "--p", "2", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_P2_SHA256[family]


def test_families_keep_their_order():
    # argparse's choices and the unknown-family error print this order
    assert constructions.FAMILIES == (
        "segment", "pentagon", "rectangle", "heptagon", "simplex",
        "prism", "pentagon-pyramid", "hull", "middle", "barn",
    )


def test_fitted_follows_the_counting_route_of_equal_bodies():
    # barn(3,2) rebuilt from its pieces' vertices as hulls has the barn's
    # inequalities, so it compares and hashes equal to the barn and counts
    # by the same route, to the same fit
    barn = constructions.barn(3, 2, table_lookup(2))
    copy = PolytopalUnion(
        barn.ambient_dim, tuple(from_vertices(piece.vertices) for piece in barn.pieces)
    )
    assert copy == barn and hash(copy) == hash(barn)
    qp_barn, _ = fitted(barn)
    qp_copy, _ = fitted(copy)
    for union in (barn, copy):
        assert {route for _, route, _ in union.dilate_counts} == {"inclusion-exclusion"}
    assert qp_copy == qp_barn == fit(partial(count, copy), 3, denominator(copy))


def _is_count_map(value):
    return isinstance(value, dict) and value and all(
        key.lstrip("-").isdigit() for key in value
    )


def _compare_with_parent(old, new, path, dropped, added):
    """Equal except count maps, which may drop positive keys and add
    negative ones; every key present in both must agree."""
    if _is_count_map(old):
        assert _is_count_map(new), path
        for key in old.keys() & new.keys():
            assert old[key] == new[key], (path, key)
        dropped += [int(key) for key in old.keys() - new.keys()]
        added += [int(key) for key in new.keys() - old.keys()]
    elif isinstance(old, dict):
        assert isinstance(new, dict) and old.keys() == new.keys(), path
        for key in old:
            _compare_with_parent(old[key], new[key], f"{path}/{key}", dropped, added)
    elif isinstance(old, list):
        assert isinstance(new, list) and len(old) == len(new), path
        for i, (a, b) in enumerate(zip(old, new)):
            _compare_with_parent(a, b, f"{path}[{i}]", dropped, added)
    else:
        assert old == new, path


def test_verify_all_max_p2_agrees_with_parent_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-p", "2")
    assert code == 0
    old = json.loads(PARENT_OUTPUT.read_text())
    new = json.loads(out)
    assert [r["outcome"] for r in new] == ["pass"] * len(CLAIMS)
    at = CLAIMS.index("pyramid-equivalence")
    law, _ = new.pop(at), old.pop(at)
    # the hull claims have since gained p = 1 and mcmullen has lost its 5-D
    # simplex, as each began to run exactly its grid; the cases both hold
    # are compared below
    changed = {
        "decomposition": ({"n": [3, 4], "p": [1, 2], "k_max": 4}, {"n=3,p=1", "n=4,p=1"}, set()),
        "hn-periods": ({"n": [3, 4], "p": [1, 2]}, {"n=3,p=1", "n=4,p=1"}, set()),
        "mcmullen": ({"n": [3, 4], "p": [1, 2]}, set(), {"simplex n=5 p=1", "simplex n=5 p=2"}),
    }
    for was, report in zip(old, new):
        if report["claim"] not in changed:
            continue
        params, gained, lost = changed[report["claim"]]
        assert report["params"] == params
        assert report["witness"].keys() - was["witness"].keys() == gained
        assert was["witness"].keys() - report["witness"].keys() == lost
        was["params"] = params
        for label in gained:
            del report["witness"][label]
        for label in lost:
            del was["witness"][label]
    dropped, added = [], []
    _compare_with_parent(old, new, "", dropped, added)
    # pyramid-equivalence has since changed what it checks; the parent
    # recorded each body it fits under pentagon-equivalence (the bases)
    # or sn-pn-equivalence (the pyramids)
    recorded = {r["claim"]: r["witness"] for r in old}
    assert law["params"] == {"n": [3, 4], "p": [1, 2]}
    for label, entry in law["witness"].items():
        maps = {
            **recorded["pentagon-equivalence"][label.split(",")[1]],
            **recorded["sn-pn-equivalence"][label],
        }
        for key in ("pentagon_counts", "segment_counts", "pyramid_counts", "simplex_counts"):
            _compare_with_parent(maps[key], entry[key], f"{label}/{key}", dropped, added)
    assert dropped and all(k > 0 for k in dropped)
    assert added and all(k < 0 for k in added)


def test_two_sided_fits_equal_positive_fits(monkeypatch):
    objects = {}

    def recording_fitted(obj, budget=None):
        objects[id(obj)] = obj
        return fitted(obj, budget)

    monkeypatch.setattr(cli, "fitted", recording_fitted)
    monkeypatch.setattr(indices, "fitted", recording_fitted)
    cli.verify_all(max_p=2)
    convex = []
    for obj in objects.values():
        qp, samples = obj.fits[DEFAULT_BUDGET]
        two_sided = min(samples) < 0
        assert two_sided == (not isinstance(obj, PolytopalUnion))
        if two_sided:
            convex.append((obj, qp))
    assert len(convex) == 28  # the mcmullen targets, which include every other claim's body
    for obj, qp in convex:
        assert fit(partial(count, obj), obj.intrinsic_dim, denominator(obj)) == qp


# the family behind each count map of a convex-body witness; a union's
# maps (barn-periods) hold positive keys only
WITNESS_FAMILIES = {
    ("pentagon-equivalence", "pentagon_counts"): "pentagon",
    ("pentagon-equivalence", "segment_counts"): "segment",
    ("heptagon", "counts"): "heptagon",
    ("pyramid-equivalence", "pyramid_counts"): "pentagon-pyramid",
    ("pyramid-equivalence", "pentagon_counts"): "pentagon",
    ("pyramid-equivalence", "simplex_counts"): "simplex",
    ("pyramid-equivalence", "segment_counts"): "segment",
    ("sn-pn-equivalence", "simplex_counts"): "simplex",
    ("sn-pn-equivalence", "pyramid_counts"): "pentagon-pyramid",
    ("hn-periods", "counts"): "hull",
}


def test_every_negative_witness_key_rechecks_with_count(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-p", "2")
    assert code == 0
    expected = {}  # (family, p, n, k) -> every value the witnesses hold for it
    for report in json.loads(out):
        for label, entry in report["witness"].items():
            if not isinstance(entry, dict):
                continue
            for name, counts in entry.items():
                # a count map is keyed by dilate (decomposition's holds lists)
                if not (isinstance(counts, dict) and isinstance(next(iter(counts.values())), int)):
                    continue
                negative = sorted(int(key) for key in counts if int(key) < 0)
                family = WITNESS_FAMILIES.get((report["claim"], name))
                assert (family is None) == (report["claim"] == "barn-periods")
                if family is None:
                    assert negative == []
                    continue
                assert negative != []
                params = dict(part.split("=") for part in label.split(","))
                n = params["n"] if constructions._BUILDERS[family][1] else None
                for k in negative:
                    expected.setdefault((family, params["p"], n, k), set()).add(counts[str(k)])
    assert {family for family, *_ in expected} == set(WITNESS_FAMILIES.values())
    # recount on bodies built afresh, not on those that verify kept its counts with
    monkeypatch.setattr(cli, "_body", cache(lambda *key: constructions.build(*key)[0]))
    for (family, p, n, k), values in expected.items():
        argv = ["count", "--family", family, "--p", p, "--k", str(k)]
        code, out, _ = run_cli(capsys, *argv, *(["--n", n] if n else []))
        assert (code, [json.loads(out)["count"][0]]) == (0, sorted(values))


def test_a_union_counts_positive_dilates_only(capsys):
    # reciprocity does not hold for a union: one error line, not a traceback
    code, out, err = run_cli(capsys, "count", "--family", "barn", "--n", "3", "--p", "2", "--k", "-1")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error:")


def test_verify_builds_each_family_member_once(monkeypatch, fresh_bodies):
    # and hulls each point list once: rectangles, prisms and barns reuse the
    # segment, pentagon, simplex and box intervals that were built on their own
    built, hulled = [], []
    real_build, real_from_vertices = constructions.build, constructions.from_vertices

    def counting_build(family, p, n=None):
        built.append((family, p, n))
        return real_build(family, p, n)

    def counting_hull(points):
        hulled.append(frozenset(map(tuple, points)))
        return real_from_vertices(points)

    monkeypatch.setattr(constructions, "build", counting_build)
    monkeypatch.setattr(constructions, "from_vertices", counting_hull)
    reports = cli.verify_all(max_p=2)
    assert cli._body("hull", 2, 3) is cli._body("hull", 2, 3)
    assert [r.outcome for r in reports] == ["pass"] * len(CLAIMS)
    assert ("hull", 2, 3) in built and ("barn", 2, 3) in built
    assert len(built) == len(set(built))
    assert (len(hulled), len(set(hulled))) == (42, 42)


def test_body_takes_its_arguments_by_position():
    # the cache would key n and n= apart, so n= is refused
    with pytest.raises(TypeError):
        cli._body("hull", 2, n=3)


DECOMPOSITION_FAMILIES = ["hull", "middle", "pentagon-pyramid", "prism"]


def test_decomposition_claim_passes():
    report = cli.run_claim("decomposition", [2], [3])
    assert (report.outcome, report.params) == ("pass", {"n": [3], "p": [2], "k_max": 4})
    entry = report.witness["n=3,p=2"]
    assert entry["ok"] and entry["first_failing_k"] is None
    assert entry["integral_middle"] and entry["integral_prism_side"] and entry["integral_pyramid_side"]


def test_decomposition_counts_the_bodies_body_supplies(monkeypatch):
    held = {}

    def fresh_body(family, p, n=None, /):
        held[family] = constructions.build(family, p, n)[0]
        return held[family]

    monkeypatch.setattr(cli, "_body", fresh_body)
    report = cli.run_claim("decomposition", [2], [3])
    monkeypatch.undo()
    assert report == cli.run_claim("decomposition", [2], [3])
    assert sorted(held) == DECOMPOSITION_FAMILIES
    for body in held.values():  # the counts are kept with the supplied bodies
        assert {(k, DEFAULT_BUDGET) for k in range(1, 5)} <= set(body.dilate_counts)


def test_decomposition_fails_at_the_first_wrong_count(monkeypatch):
    bodies = {f: constructions.build(f, 2, 3)[0] for f in DECOMPOSITION_FAMILIES}
    hull = bodies["hull"]
    hull.dilate_counts[(2, DEFAULT_BUDGET)] = count(hull, 2) + 1
    monkeypatch.setattr(cli, "_body", lambda f, p, n=None, /: bodies[f])
    report = cli.run_claim("decomposition", [2], [3])
    entry = report.witness["n=3,p=2"]
    assert (report.outcome, entry["ok"], entry["first_failing_k"]) == ("fail", False, 2)


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    run_cli(capsys, "verify", "heptagon", "--p", "2")
    code, out, _ = run_cli(capsys, "verify", "heptagon")
    assert code == 0
    assert json.loads(out)["params"] == {"p": [2, 3, 4, 5]}

    run_cli(capsys, "count", "--family", "segment", "--p", "2", "--k", "3")
    code, out, _ = run_cli(capsys, "count", "--family", "segment", "--p", "2")
    assert code == 0
    assert json.loads(out)["k"] == [1, 2, 3, 4, 5, 6]

    with pytest.raises(SystemExit) as exc:
        main(["verify", "heptagon", "--p", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "verify", "heptagon", "--p", "2")
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"


def _readme_cli_lines() -> list[str]:
    """The ``ehrhart`` lines of the code block under README's ``## CLI``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("ehrhart ")]


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # a flag deleted from the CLI cannot stay in the README's examples
    lines = _readme_cli_lines()
    assert any("--input body.json" in line for line in lines)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "construct", "--family", "pentagon", "--p", "3")
    assert code == 0
    (tmp_path / "body.json").write_text(out)
    for line in lines:
        code, out, err = run_cli(capsys, *shlex.split(line, comments=True)[1:])
        assert (line, code, err) == (line, 0, "")
