import contextlib
import importlib.util
import io
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_recovery.py"


def run_calibration(n_reps: int) -> list[str]:
    spec = importlib.util.spec_from_file_location("calibrate_recovery", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main(n_reps)
    return out.getvalue().splitlines()


def test_five_replicates():
    lines = run_calibration(5)
    assert lines[0] == "replicates: 5, failures: {'total': 4, 'volatility': 4}"
    assert lines[1].split() == ["param", "truth", "p2.5", "median", "p97.5", "n"]
    rows = lines[2:10]
    assert [row.split()[0] for row in rows] == [
        "a_t", "b_t", "c_t", "psi", "kappa_t", "sigma_bar", "sigma_sigma", "kappa_sigma"]
    assert [row.split()[-1] for row in rows] == ["1"] * 8
