"""Fresh outputs of the golden matrix (``golden.py``) against the checked-in
``golden_outputs.json``."""

import json
import math
import time

from golden import ABS_TOL, CSV_NAMES, GOLDEN_PATH, environment, run_matrix


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def csv_differences(got: str, want: str) -> list:
    """Fields of ``got`` that differ from ``want``: non-numeric ones at all,
    numeric ones by more than ``ABS_TOL``."""
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} lines, want {len(want_rows)}"]
    out = []
    for g_row, w_row in zip(got_rows, want_rows):
        g_fields, w_fields = g_row.split(","), w_row.split(",")
        if len(g_fields) != len(w_fields):
            out.append(f"{g_row!r}, want {w_row!r}")
            continue
        for g, w in zip(g_fields, w_fields):
            a, b = _number(g), _number(w)
            if a is None or b is None or not math.isfinite(a) or not math.isfinite(b):
                close = g == w
            else:
                close = abs(a - b) <= ABS_TOL
            if not close:
                out.append(f"{g!r}, want {w!r} in {w_row!r}")
    return out


def test_csv_differences_apply_the_tolerance_to_numbers_only():
    want = "method,grid_id,meo\nx,g0,0.5\n"
    assert csv_differences(want, want) == []
    assert csv_differences("method,grid_id,meo\nx,g0,0.51\n", want) == []
    assert csv_differences("method,grid_id,meo\nx,g0,0.53\n", want) != []
    assert csv_differences("method,grid_id,meo\nx,g1,0.5\n", want) != []
    assert csv_differences("method,grid_id,meo\n", want) != []


def test_outputs_equal_the_goldens(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    start = time.perf_counter()
    got = run_matrix(tmp_path)
    elapsed = time.perf_counter() - start
    assert sorted(got) == sorted(golden["configs"])
    if golden["environment"] == environment():
        changed = [name for name, want in golden["configs"].items() if got[name] != want]
        assert not changed, f"outputs differ from the goldens on {changed}"
    else:
        for name, want in golden["configs"].items():
            assert [f[:2] for f in got[name]["failures"]] == [
                f[:2] for f in want["failures"]], name
            for csv_name in CSV_NAMES:
                diffs = csv_differences(got[name][csv_name], want[csv_name])
                assert not diffs, f"{name} {csv_name}: {diffs}"
    # about 3 s on one idle 2-vCPU machine; the bound leaves room for a loaded one
    assert elapsed < 30.0, f"the golden matrix took {elapsed:.1f} s"
