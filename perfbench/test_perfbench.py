"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import importlib

import pytest

import run
import spans
import speed
import workloads

run.load_program()  # puts src/ and tests/ on sys.path


def _files(setup, seed, tmp_path, tag):
    d = tmp_path / tag
    d.mkdir()
    problems = setup(seed, d, workloads.OracleCache())
    texts = {f.name: f.read_bytes() for f in sorted(d.iterdir())}
    argv = [[a.replace(str(d), "<dir>") for a in p.argv] for p in problems]
    return texts, argv, [p.ref for p in problems]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    first = _files(setup, 7, tmp_path, "a")
    assert first == _files(setup, 7, tmp_path, "b")
    assert first[0] != _files(setup, 8, tmp_path, "c")[0]


def test_child_set_up_matches_in_process(tmp_path):
    (tmp_path / "child").mkdir()
    times, problems = run.set_up("certify", 7, tmp_path / "child")
    here = workloads.setup_certify(7, tmp_path, workloads.OracleCache())
    child_dir = str(tmp_path / "child" / "setup0")
    assert len(times) == run.SETUP_REPS
    assert [(p.name, [a.replace(child_dir, str(tmp_path)) for a in p.argv], p.ref, p.terms)
            for p in problems] == [(p.name, p.argv, p.ref, p.terms) for p in here]


def test_passes_keep_first_outputs_and_flag_changes():
    passes = run.Passes()
    passes.add([1.0, 1.0], [(0, "ab"), (0, "c")])
    passes.add([1.0, 1.0], [(0, "ab"), (0, "d")])
    assert passes.outputs == [(0, "ab"), (0, "c")]
    assert passes.differs == {1} and passes.out_bytes == 6


def test_passes_scale_wall_times_by_host_speed():
    passes = run.Passes()
    passes.gauge.units = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    passes.add([1.5, 0.5], [(0, "a"), (0, "b")])
    passes.add([2.5, 1.5], [(0, "a"), (0, "b")])
    assert passes.wall_times == [2.0, 4.0]
    assert passes.run_s() == pytest.approx(1.5)
    assert passes.latency(50) == pytest.approx(1.0 / 2)  # problem means 2.0 and 1.0
    assert passes.latency(90) == pytest.approx(2.0 / 2)


def test_gauge_keeps_units_at_their_share_of_the_work():
    gauge = speed.Gauge()
    gauge.add(0.5)
    assert gauge.unit_total >= speed.SHARE * 0.5
    assert gauge.unit_total == pytest.approx(sum(gauge.units))
    mean_unit = gauge.unit_total / len(gauge.units)
    assert gauge.factor() == pytest.approx(speed.REFERENCE_S / mean_unit)


def test_pool_symmetry_keeps_supports():
    import random

    a = list(zip(range(20), workloads.pool_curves(random.Random(1), 3)))
    b = list(zip(range(20), workloads.pool_curves(random.Random(2), 3)))
    for (_, (ka, sa, da)), (_, (kb, sb, db)) in zip(a, b):
        assert (ka, da) == (kb, db)
        assert [(x, i, abs(c)) for x, i, c in sa] == [(x, i, abs(c)) for x, i, c in sb]


def _spans(*rows):
    """Spans from (name, parent, start, end) rows; ids are row indices."""
    out = []
    for name, parent, start, end in rows:
        s = spans.Span(name, "p", parent, start)
        s.end = end
        out.append(s)
    return out


def test_self_time_of_nested_spans():
    tree = _spans(
        ("cli.run", None, 0.0, 10.0),
        ("expansion.expand", 0, 1.0, 9.0),
        ("solver", 1, 2.0, 6.0),
        ("solver.roots", 2, 3.0, 4.5),
        ("recenter", 1, 7.0, 8.0),
    )
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 2.5, 1.5, 1.0])


def test_layer_self_time_and_share():
    rec = spans.Recorder()
    rec.spans = _spans(
        ("cli.run", None, 0.0, 10.0),
        ("expansion.expand", 0, 1.0, 9.0),
        ("solver", 1, 2.0, 6.0),
        ("solver.roots", 2, 3.0, 4.5),
        ("problem.parse", 0, 0.5, 1.0),
        ("cli.check", None, 10.0, 12.0),
        ("problem.parse", 5, 10.5, 11.0),
        ("problem.coords", 5, 11.0, 11.25),
        ("trace.count", 5, 11.5, 12.0),
    )
    m, bases = spans.layer_metrics(rec, passes=2, doc_bytes=100)
    assert m["solver.self_s"] == pytest.approx(4.0 / 2)  # roots count in their layer
    assert m["solver.roots.self_s"] == pytest.approx(1.5 / 2)
    assert m["expansion.self_s"] == pytest.approx(4.0 / 2)
    assert m["problem.parse_s"] == pytest.approx(0.5 / 2)
    assert m["problem.check_parse_s"] == pytest.approx(0.75 / 2)
    assert m["cli.self_s"] == pytest.approx((1.5 + 0.75) / 2)  # counters count nowhere
    assert m["solver.share"] == pytest.approx(4.0 / 11.5)
    assert sum(m[k] for k in m if k.endswith(".share")) == pytest.approx(1.0)
    assert m["solver.calls"] == 0.5 and m["problem.doc_bytes"] == 50
    assert set(m) == set(spans.LAYER_METRICS) and "solver.share" in bases


def _originals():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _, _ in spans.HOOKS}


def test_instrument_restores_attributes_after_an_error():
    before = _originals()
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.instrument(rec):
            assert all(getattr(importlib.import_module(mod), attr) is not fn
                       for (mod, attr), fn in before.items())
            raise RuntimeError("stop")
    assert _originals() == before and rec.stack == []


def test_traced_run_leaks_no_patched_attribute(capsys):
    before = _originals()
    assert run.main(["--workload", "certify", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    assert _originals() == before
    out = capsys.readouterr().out.splitlines()
    assert '"correct": true' in out[-1]
    calls = [line.split() for line in out if line.split()[:1] == ["residual.calls"]]
    assert len(calls) == 1 and float(calls[0][1]) > 0


def test_missing_program_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"]) == 2
    assert "{" not in capsys.readouterr().out


def test_percentile_is_nearest_rank():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile(list(range(1, 11)), 90) == 9
    assert run.percentile([7], 90) == 7
