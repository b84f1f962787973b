import re

from hypothesis import settings

settings.register_profile("default", deadline=None)
# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and a failure prints the blob that replays it with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile("default")

# Acceptance tests are named test_criterion_<n>_*; collect their outcomes and
# print one line per criterion at the end of the run.
_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_DESCRIPTIONS = {
    1: "great-circle distance matches arbitrary-precision oracle",
    2: "sigmoid weight anchors, bounds and monotonicity",
    3: "seeding distribution on the three-point instance",
    4: "k-means matches exhaustive weighted optimum",
    5: "Dunn ratio example and relabeling invariance",
    6: "byte-identical artifacts across reruns and worker counts",
    7: "full-scale survey reproduction (needs dataset)",
    8: "site coordinates verbatim among inputs",
}

_outcomes: "dict[int, str]" = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.when == "call":
        _outcomes[number] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup":
        if report.skipped:
            _outcomes[number] = "SKIP"
        elif report.failed:
            _outcomes[number] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_outcomes):
        description = _DESCRIPTIONS.get(number, "")
        terminalreporter.write_line(
            f"criterion {number} ({description}): {_outcomes[number]}"
        )
