"""Star-graph construction, scattering amplitudes, and file round-trips."""

import json

import pytest

from oracles import s_amplitude
from star_spectra import StarGraph, build_graph, load_graph, save_graph


@pytest.mark.parametrize("v", [1, 2, 5, 20, 100])
def test_lengths_stay_inside_unit_window(v):
    graph = build_graph(v, seed=123)
    lo, hi = 1.0 - 1.0 / (2 * v), 1.0 + 1.0 / (2 * v)
    assert len(graph.lengths) == v
    assert all(lo <= length <= hi for length in graph.lengths)


def test_total_length_is_twice_the_edge_sum():
    graph = build_graph(7, seed=5)
    assert graph.total_length == 2.0 * sum(graph.lengths)
    # each length concentrates near 1, so L concentrates near 2v
    assert abs(graph.total_length - 14.0) < 2.0


def test_same_seed_reproduces_same_graph():
    assert build_graph(9, seed=42) == build_graph(9, seed=42)
    assert build_graph(9, seed=42).lengths != build_graph(9, seed=43).lengths


def test_lengths_vary_across_edges():
    graph = build_graph(12, seed=0)
    assert len(set(graph.lengths)) == 12


def test_zero_edges_rejected():
    with pytest.raises(ValueError):
        build_graph(0, seed=1)


def test_counts_are_never_coerced():
    for v, seed, name in ((2.5, 1, "v"), (True, 1, "v"), (3, True, "seed"), (3, 1.0, "seed"), (3, "7", "seed")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            build_graph(v, seed)


def test_amplitude_values_and_exact_offset():
    for v in range(1, 40):
        back = s_amplitude("backscatter", v)
        trans = s_amplitude("transmit", v)
        assert s_amplitude("trivial", v) == 1.0
        assert back == -1.0 + 2.0 / v
        assert trans == 2.0 / v
        assert back == trans - 1.0  # exact in floating point, not approximate


def test_amplitudes_approach_their_limits_monotonically():
    backs = [s_amplitude("backscatter", v) for v in range(2, 60)]
    trans = [s_amplitude("transmit", v) for v in range(2, 60)]
    assert all(b2 < b1 for b1, b2 in zip(backs, backs[1:]))
    assert all(t2 < t1 for t1, t2 in zip(trans, trans[1:]))
    assert backs[-1] > -1.0
    assert trans[-1] > 0.0


def test_unknown_amplitude_kind_rejected():
    with pytest.raises(ValueError):
        s_amplitude("refract", 3)
    with pytest.raises(ValueError):
        s_amplitude("transmit", 0)


def test_graph_file_roundtrip(tmp_path):
    graph = build_graph(6, seed=77)
    path = tmp_path / "graph.json"
    save_graph(graph, path)
    assert load_graph(path) == graph
    payload = json.loads(path.read_text())
    assert set(payload) == {"v", "seed", "lengths"}


def test_inconsistent_graph_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 3, "seed": 0, "lengths": [1.0, 1.0]}))
    with pytest.raises(ValueError):
        load_graph(path)
    # v and seed are read as saved, never coerced
    one_edge = {"v": 1, "seed": 0, "lengths": [1.0]}
    for field, bad in (("seed", 1.5), ("v", True), ("v", "1"), ("seed", "7")):
        path.write_text(json.dumps({**one_edge, field: bad}))
        with pytest.raises(ValueError, match=field):
            load_graph(path)
    # and refused where `build_graph` refuses them
    for payload, message in (
        ({"v": 0, "seed": 0, "lengths": []}, "need at least one edge"),
        ({**one_edge, "seed": -1}, "seed must be nonnegative"),
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_graph(path)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        build_graph(3, seed=-1)


@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
def test_graph_file_with_a_bad_length_rejected(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 3, "seed": 0, "lengths": [1.0, bad, 1.0]}))
    with pytest.raises(ValueError, match="edge 1"):
        load_graph(path)


def test_graph_is_immutable():
    graph = StarGraph(v=1, lengths=(1.0,), seed=0)
    with pytest.raises(AttributeError):
        graph.v = 2
