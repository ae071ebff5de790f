from __future__ import annotations

import kiselman.verify as verify
from kiselman.errors import InvariantError
from kiselman.verify import SUITE_NAMES, run_suites


def test_solution_set_is_constructed_once_per_run(monkeypatch):
    calls = []
    construct = verify.construct_right_zero_solutions

    def counting(rank):
        calls.append(rank)
        return construct(rank)

    monkeypatch.setattr(verify, "construct_right_zero_solutions", counting)
    report = run_suites(4)
    assert report["all_passed"]
    assert calls == [4]


def test_failed_construction_fails_only_the_suites_that_use_it(monkeypatch):
    def broken(rank):
        raise InvariantError("deliberately broken construction")

    monkeypatch.setattr(verify, "construct_right_zero_solutions", broken)
    report = run_suites(3, samples=100)
    assert report["aborted"] is False
    assert [s["name"] for s in report["suites"]] == SUITE_NAMES
    failed = {s["name"] for s in report["suites"] if s["status"] == "fail"}
    assert failed == {"solution_structure", "prefix_bijection"}
    for suite in report["suites"]:
        if suite["name"] in failed:
            assert suite["failures"] == [
                "invariant violated: deliberately broken construction"
            ]


def test_zero_cancellation_checks_every_element_against_every_upper_generator():
    # |K_3|^2 exhaustive pairs, 1,000 sampled triples, and one check of
    # x * a_k = zero => x = zero per element x and letter k >= 2
    report = run_suites(3, names=["zero_cancellation"])
    (suite,) = report["suites"]
    assert suite["checks"] == 18 * 18 + 1000 + 18 * 2
    assert suite["detail"] == {"pairs": 324, "triples": 1000, "exhaustive_pairs": True}
