import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from ehrhart.cli import main


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
    assert payload["intersections"][0]["i"] == 0
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


def test_fit_and_periods(capsys):
    code, out, _ = run_cli(capsys, "fit", "--family", "segment", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 1
    assert payload["modulus"] == 2
    assert payload["coeffs"] == [["1", "1/2"], ["1/2", "1/2"]]
    assert payload["period_sequence"] == [2, 1]

    code, out, _ = run_cli(capsys, "periods", "--family", "heptagon", "--p", "3")
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


def test_pte_list_and_verify(capsys):
    code, out, _ = run_cli(capsys, "pte", "list")
    assert code == 0
    payload = json.loads(out)
    assert payload["sizes"] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    assert payload["solutions"]["2"] == {"s": [1, 2], "t": [3, 0]}

    code, out, _ = run_cli(capsys, "pte", "verify", "--size", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run_cli(capsys, "pte", "verify", "--s", "1,2", "--t", "2,0")
    assert code == 1
    assert json.loads(out)["ok"] is False


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


def test_module_entry_point_subprocess():
    import os
    from pathlib import Path

    import ehrhart

    src_dir = str(Path(ehrhart.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "ehrhart.cli", "periods", "--family", "simplex",
         "--n", "3", "--p", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["period_sequence"] == [2, 1, 1]


def test_tampered_union_input_is_rejected(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "barn", "--p", "2", "--n", "3")
    payload = json.loads(out)
    shifted = json.loads(out)
    shifted["pieces"][0]["vertices"] = [
        [str(Fraction(c) + 100) for c in v] for v in payload["pieces"][0]["vertices"]
    ]
    moved = json.loads(out)
    moved["intersections"][0]["polytope"]["vertices"][0][0] = "77"
    for name, data in (("barn", payload), ("shifted", shifted), ("moved", moved)):
        (tmp_path / f"{name}.json").write_text(json.dumps(data))

    code, out, _ = run_cli(capsys, "count", "--input", str(tmp_path / "barn.json"), "--k-max", "2")
    assert code == 0
    assert json.loads(out)["count"] == [48, 253]
    for name, what in (("shifted", "piece 0"), ("moved", "intersection 0")):
        code, out, err = run_cli(
            capsys, "count", "--input", str(tmp_path / f"{name}.json"), "--k-max", "2"
        )
        assert code == 2
        assert out == ""
        assert f"error: {what}: listed vertices disagree" in err


# sha256 of the stdout of ``ehrhart verify all --max-p 2`` as recorded before
# the hull and face layers were rewritten; any change to a report shows here
VERIFY_ALL_P2_SHA256 = "6a6e560a6483ed43d903c7515292eb02cc574ae851c55b9246af66f9019d512e"


def test_verify_all_max_p2_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-p", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_P2_SHA256
