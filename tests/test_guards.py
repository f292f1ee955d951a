from __future__ import annotations

import pytest

import guards


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("guards")
    return workdir, guards.build_inputs(workdir)


def test_every_input_builds_to_its_pin(inputs, tmp_path, monkeypatch):
    workdir, failures = inputs
    assert failures == []
    assert sorted(p.name for p in workdir.iterdir()) == sorted(guards.INPUTS)
    build, pin = guards.INPUTS["s3.json"]
    monkeypatch.setattr(guards, "INPUTS", {"s3.json": (build, "0" * 64)})
    assert guards.build_inputs(tmp_path) \
        == [f"FAIL input s3.json: sha256 expected {'0' * 64}, got {pin}"]


def test_the_row_checker_passes_its_pin_and_names_each_failure(inputs):
    workdir, _ = inputs
    row = guards.Call("type.txt", "type s3.json", guards.sha256(b"Odd\n"))
    assert guards.run_call(row, workdir)[1] is None
    for bad, message in [
        (row._replace(pin="0" * 64), f"sha256 expected {'0' * 64}, got {row.pin}"),
        (row._replace(code=1), "exit code expected 1, got 0"),
        (row._replace(timeout=0.01), "no exit within 0.01 s"),
    ]:
        assert guards.run_call(bad, workdir)[1] \
            == f"FAIL type.txt (layerlat type s3.json): {message}"
