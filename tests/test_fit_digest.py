import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_digest.py"
_spec = importlib.util.spec_from_file_location("fit_digest", _TOOL)
fit_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_digest)


def test_two_runs_print_the_same_digest():
    # A few cases of each kind, matrices on both sides of the solver's
    # crossover among them; the digest must repeat exactly and move with
    # the case count.
    first = fit_digest.digest(fits=12, matrices=8)
    assert len(first) == 64
    assert first == fit_digest.digest(fits=12, matrices=8)
    assert first != fit_digest.digest(fits=12, matrices=7)
