"""tools/same_outputs.py diff, the gate of every bit-identical claim."""
import copy
import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "same_outputs.py")


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_RECORD = {
    "src": "src",
    "sweeps": {},
    "constants": {"4,38": {"regime": "FourPhase", "lambda_1to2": 0.6093645,
                           "lambda_2to1": 0.9899796}},
    "probe": [{"key": [4, 38, 0.5], "phase": "OneRSB", "detail": None,
               "on_boundary": False, "low_s_unproven": False,
               "bits": {"z": 1.25, "energy": -1.5}},
              {"key": [4, 38, 0.95], "phase": "TwoRSB", "detail": None,
               "on_boundary": False, "low_s_unproven": False,
               "bits": {"q": 0.95, "energy": -1.6}},
              {"key": [4, 38, 0.99], "phase": "Unresolved",
               "detail": "no sign change on [0.9999999615639026, "
                         "0.9999999807817984]",
               "on_boundary": False, "low_s_unproven": False, "bits": {}}],
    "oracle": [],
}


def _diff(mod, tmp_path, capsys, change):
    b = copy.deepcopy(_RECORD)
    change(b)
    paths = []
    for name, doc in (("a.json", _RECORD), ("b.json", b)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    rc = mod.main(["diff", *paths])
    return rc, capsys.readouterr().out.splitlines()


def test_diff_passes_identical_records(same_outputs, tmp_path, capsys):
    rc, out = _diff(same_outputs, tmp_path, capsys, lambda b: None)
    assert rc == 0
    assert out[0] == "verdict or detail changes: 0"
    assert "bit changes: none" in out


def test_diff_fails_a_changed_verdict(same_outputs, tmp_path, capsys):
    rc, out = _diff(same_outputs, tmp_path, capsys,
                    lambda b: b["probe"][1].update(phase="Unresolved"))
    assert rc == 1
    assert out[0] == "verdict or detail changes: 1"
    assert out[1].startswith("  probe [4, 38, 0.95]: TwoRSB (None) -> "
                             "Unresolved")
    assert "bit changes: none" in out


def test_diff_lists_a_changed_bit(same_outputs, tmp_path, capsys):
    def change(b):
        b["probe"][0]["bits"]["energy"] = -1.5 + 2.0 ** -52

    rc, out = _diff(same_outputs, tmp_path, capsys, change)
    assert rc == 0
    assert out[0] == "verdict or detail changes: 0"
    at = out.index("bit changes:")
    assert out[at + 1:] == ["  probe: 1 points", "    [4, 38, 0.5]",
                            "    energy: 1 changed, largest |delta| 2.22e-16"]


@pytest.mark.parametrize("detail_b, tag", [
    ("no sign change on [0.9999999615639025, 0.9999999807817983]", True),
    ("no sign change on [0.9999999615639025, 1e-07]", True),
    ("no construction applies [0.9999999615639026, 0.9999999807817984]",
     False),
    ("no sign change on [0.9999999615639026, None]", False)])
def test_diff_tags_a_detail_that_changed_only_in_its_numbers(
        same_outputs, tmp_path, capsys, detail_b, tag):
    # the tag marks the line; the change still counts and still fails
    detail_a = _RECORD["probe"][2]["detail"]
    rc, out = _diff(same_outputs, tmp_path, capsys,
                    lambda b: b["probe"][2].update(detail=detail_b))
    assert rc == 1
    assert out[0] == "verdict or detail changes: 1"
    assert out[1] == (f"  probe [4, 38, 0.99]: Unresolved ({detail_a}) -> "
                      f"Unresolved ({detail_b})"
                      + (" (numbers only)" if tag else ""))


@pytest.mark.parametrize("record", ["sweeps", "constants"])
def test_diff_reports_a_family_in_one_dump_alone(same_outputs, tmp_path,
                                                 capsys, record):
    # one family dropped from the second dump and another added to it: both
    # are verdict changes, whichever dump holds the family
    sweep = {"rc": 0, "csv": ["# x", "lambda,phase"], "dat": ["# x"]}
    const = {"regime": "TwoPhase", "lambda_1to2": 0.73, "lambda_2to1": 0.97}
    first = copy.deepcopy(_RECORD)
    first["sweeps"]["4,38"] = sweep
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    second = copy.deepcopy(first)
    del second[record]["4,38"]
    second[record]["4,28"] = sweep if record == "sweeps" else const
    for path, doc in ((a, first), (b, second)):
        path.write_text(json.dumps(doc))
    rc = same_outputs.main(["diff", str(a), str(b)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[:3] == ["verdict or detail changes: 2",
                       f"  {record} (4,38): only in the first dump",
                       f"  {record} (4,28): only in the second dump"]
