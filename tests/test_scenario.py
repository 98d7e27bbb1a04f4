"""Scenario generation and serialization round trips."""

import json

import numpy as np
import pytest

import oracles
from wsngain import (
    CentralizedScenario,
    DecentralizedScenario,
    InvalidConfig,
    NoiseConfig,
    build_topology,
    from_json_dict,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    load_scenario,
    random_connected_topology,
    save_scenario,
    to_json_dict,
)

TOY_TREE = build_topology(6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])


def test_channel_coefficient_modulus():
    rng = np.random.default_rng(0)
    assert abs(oracles.gen_channel_coefficient(rng, 2.0, 1.0)) == pytest.approx(0.5)
    assert abs(oracles.gen_channel_coefficient(rng, 1.0, 1.0)) == pytest.approx(1.0)
    assert abs(oracles.gen_channel_coefficient(rng, 4.0, 2.0)) == pytest.approx(1.0 / 16.0)


def test_channel_phases_cover_circle():
    rng = np.random.default_rng(1)
    phases = np.array([np.angle(oracles.gen_channel_coefficient(rng, 1.0, 1.0)) for _ in range(4000)])
    # crude uniformity check: all four quadrants roughly equally populated
    counts, _ = np.histogram(phases, bins=4, range=(-np.pi, np.pi))
    assert counts.min() > 800


def test_centralized_shapes_and_defaults():
    scen = gen_centralized_scenario(35, 4, NoiseConfig(), seed=11)
    assert scen.channel.shape == (4, 35)
    assert np.all(scen.sensor_noise_var >= 0.5) and np.all(scen.sensor_noise_var <= 1.5)
    assert scen.fc_noise_var == 1.0
    # shared distance per sensor: every antenna sees the same modulus
    mags = np.abs(scen.channel)
    assert np.allclose(mags, mags[0][None, :])
    assert np.all(mags[0] >= 0.1) and np.all(mags[0] <= 1.0)


def test_centralized_determinism():
    a = gen_centralized_scenario(9, 4, NoiseConfig(), seed=5)
    b = gen_centralized_scenario(9, 4, NoiseConfig(), seed=5)
    assert np.array_equal(a.channel, b.channel)
    assert np.array_equal(a.sensor_noise_var, b.sensor_noise_var)
    c = gen_centralized_scenario(9, 4, NoiseConfig(), seed=6)
    assert not np.array_equal(a.channel, c.channel)


def test_decentralized_link_count():
    two = gen_decentralized_scenario(build_topology(2, [(1, 2)]), NoiseConfig(), 1 + 0j, seed=0)
    assert len(two.link_gain) == 2
    tree = gen_decentralized_scenario(TOY_TREE, NoiseConfig(), 1 + 0j, seed=0)
    assert len(tree.link_gain) == 10
    # both directions present, independent draws
    assert (1, 3) in tree.link_gain and (3, 1) in tree.link_gain
    assert tree.link_gain[(1, 3)] != tree.link_gain[(3, 1)]


def test_decentralized_links_must_match_edges():
    path = build_topology(3, [(1, 2), (2, 3)])
    gains = {(1, 2): 1j, (2, 1): 2j, (2, 3): 3j, (3, 2): 4j}

    def scenario(link_gain):
        return DecentralizedScenario(path, link_gain, np.ones(3), 1.0, 1 + 0j)

    # the array follows directed_links(): (1,2), (2,1), (2,3), (3,2)
    assert scenario(gains).gain_by_link.tolist() == [1j, 2j, 3j, 4j]
    missing = {link: g for link, g in gains.items() if link != (3, 2)}
    with pytest.raises(InvalidConfig):
        scenario(missing)
    with pytest.raises(InvalidConfig):
        scenario({**gains, (1, 3): 5j})


@pytest.mark.parametrize("kind,count", [("centralized", 1), ("centralized", 3),
                                        ("decentralized", 4), ("decentralized", 7)])
def test_noise_vector_length_must_match_sensors(kind, count):
    if kind == "centralized":
        scen = gen_centralized_scenario(5, 2, NoiseConfig(), seed=0)
    else:
        scen = gen_decentralized_scenario(random_connected_topology(6, 0.5, seed=1), seed=1)
    doc = to_json_dict(scen)
    doc["sensor_noise_var"] = (doc["sensor_noise_var"] * 2)[:count]
    with pytest.raises(InvalidConfig, match="sensor_noise_var"):
        from_json_dict(doc)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.7, 3.5])
def test_decentralized_links_match_literal_draw(alpha):
    # one vectorized draw must give the per-link loop's gains bit for bit,
    # in the same dict order, and leave the RNG where the loop leaves it
    for k in range(8):
        topo = random_connected_topology(4 + 5 * k, 0.3, seed=k)
        noise = NoiseConfig(d_range=(0.5 + k % 3, 10.0 + k), path_loss_exp=alpha)
        scen = gen_decentralized_scenario(topo, noise, seed=40 + k)
        gains, v = oracles.decentralized_link_gains(topo, noise, 40 + k)
        assert list(scen.link_gain) == list(gains)
        assert all(scen.link_gain[link] == gain and type(scen.link_gain[link]) is complex
                   for link, gain in gains.items())
        assert np.array_equal(scen.sensor_noise_var, v)


def test_decentralized_determinism():
    topo = random_connected_topology(16, 0.3, seed=7)
    a = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=3)
    b = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=3)
    assert a.link_gain == b.link_gain


def test_invalid_noise_config():
    with pytest.raises(InvalidConfig):
        NoiseConfig(d_range=(5, 1))
    with pytest.raises(InvalidConfig):
        NoiseConfig(v_range=(0.0, 1.0))
    with pytest.raises(InvalidConfig):
        NoiseConfig(channel_noise_var=0.0)
    for bad in (dict(d_range=(1.0, np.inf)), dict(v_range=(np.nan, 1.0)),
                dict(path_loss_exp=np.nan), dict(path_loss_exp=np.inf)):
        with pytest.raises(InvalidConfig):
            NoiseConfig(**bad)


def test_centralized_roundtrip_bit_exact(tmp_path):
    scen = gen_centralized_scenario(7, 4, NoiseConfig(), theta=2 - 1j, seed=9)
    path = tmp_path / "scen.json"
    save_scenario(scen, path)
    back = load_scenario(path)
    assert isinstance(back, CentralizedScenario)
    assert np.array_equal(back.channel, scen.channel)
    assert np.array_equal(back.sensor_noise_var, scen.sensor_noise_var)
    assert back.fc_noise_var == scen.fc_noise_var
    assert back.theta == scen.theta


def test_decentralized_roundtrip_bit_exact(tmp_path):
    scen = gen_decentralized_scenario(TOY_TREE, NoiseConfig(), 10 + 0j, seed=4)
    path = tmp_path / "scen.json"
    save_scenario(scen, path)
    back = load_scenario(path)
    assert isinstance(back, DecentralizedScenario)
    assert back.topology.edges == scen.topology.edges
    assert back.link_gain == scen.link_gain
    assert np.array_equal(back.sensor_noise_var, scen.sensor_noise_var)
    assert back.comm_noise_var == scen.comm_noise_var
    assert back.theta == scen.theta


def test_json_schema_fields():
    doc = to_json_dict(gen_centralized_scenario(3, 2, NoiseConfig(), seed=0))
    assert doc["kind"] == "centralized"
    assert doc["N"] == 3 and doc["M"] == 2
    assert len(doc["H"]) == 2 and len(doc["H"][0]) == 3
    assert doc["theta"] == [1.0, 0.0]
    assert "fc_noise_var" in doc

    ddoc = to_json_dict(gen_decentralized_scenario(TOY_TREE, NoiseConfig(), 1 + 0j, seed=0))
    assert ddoc["kind"] == "decentralized"
    assert {"rx", "tx", "gain"} <= set(ddoc["links"][0])
    assert sorted(map(tuple, ddoc["edges"])) == sorted(TOY_TREE.edges)
    assert "comm_noise_var" in ddoc
    # must be plain JSON
    json.dumps(ddoc)


def test_from_json_rejects_unknown_kind():
    with pytest.raises(InvalidConfig):
        from_json_dict({"kind": "hub-and-spoke"})


def test_channel_zero_column_rejected():
    with pytest.raises(InvalidConfig):
        CentralizedScenario(
            num_sensors=2,
            num_antennas=1,
            channel=np.array([[1.0 + 0j, 0.0]]),
            sensor_noise_var=np.array([1.0, 1.0]),
            fc_noise_var=1.0,
            theta=1 + 0j,
        )
