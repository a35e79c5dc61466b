"""Suite-wide options.

``--backend process --workers N`` makes the tests that take a backend
from the command line (``test_schedule.py``) run their expansion rows on
real worker processes; CI's ``multicore-smoke`` job does, tier-1 does
not.
"""


def pytest_addoption(parser):
    parser.addoption("--backend", default="simulated",
                     choices=("simulated", "process"),
                     help="parallel backend for the schedule golden test")
    parser.addoption("--workers", type=int, default=None,
                     help="worker processes for --backend process")
