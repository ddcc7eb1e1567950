import dataclasses
import importlib.util
import math
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_digest.py"
_spec = importlib.util.spec_from_file_location("fit_digest", _TOOL)
fit_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_digest)


def test_two_runs_print_the_same_digest(monkeypatch):
    # A few cases of each kind, matrices on both sides of the solver's
    # crossover among them; the digest must repeat exactly and move with
    # the case count.
    first = fit_digest.digest(fits=12, matrices=8)
    assert len(first) == 64
    assert first == fit_digest.digest(fits=12, matrices=8)
    assert first != fit_digest.digest(fits=12, matrices=7)
    # check's records are hashed at full precision: one measured value
    # moved by an ulp moves the digest.
    real = fit_digest.check_fit

    def nudged(points, resolution_deg):
        head, *rest = real(points, resolution_deg)
        return (dataclasses.replace(head, measured=math.nextafter(head.measured, 1.0)), *rest)

    monkeypatch.setattr(fit_digest, "check_fit", nudged)
    assert first != fit_digest.digest(fits=12, matrices=8)
