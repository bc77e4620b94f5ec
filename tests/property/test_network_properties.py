"""Property-based tests for the simulated network."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Message, Network, RngRegistry, Simulation


def make_network(jitter=0.0):
    sim = Simulation()
    network = Network(sim, RngRegistry(seed=3), default_latency=0.001,
                      default_bandwidth=1_000_000, latency_jitter=jitter)
    for name in ("a", "b", "c"):
        network.add_node(name)
    return sim, network


@given(st.lists(st.tuples(st.sampled_from(["b", "c"]),
                          st.integers(min_value=1, max_value=100_000)),
                min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_messages_conserved_and_fifo_per_destination(sends):
    sim, network = make_network()
    received = {"b": [], "c": []}

    def receiver(sim, network, name, expected):
        for _ in range(expected):
            message = yield network.receive(name)
            received[name].append(message.payload)

    expected = {"b": 0, "c": 0}
    for destination, _size in sends:
        expected[destination] += 1
    for name in ("b", "c"):
        sim.process(receiver(sim, network, name, expected[name]))
    for index, (destination, size) in enumerate(sends):
        network.send(Message("a", destination, "m", payload=index,
                             size=size))
    sim.run()
    # Conservation: everything sent arrives exactly once.
    assert len(received["b"]) + len(received["c"]) == len(sends)
    # FIFO per (source, destination) stream under zero jitter.
    for name in ("b", "c"):
        assert received[name] == sorted(received[name])


@given(st.lists(st.integers(min_value=1, max_value=1_000_000), min_size=1,
                max_size=20))
@settings(max_examples=100, deadline=None)
def test_nic_serialization_lower_bounds_completion_time(sizes):
    sim, network = make_network()
    done = []

    def receiver(sim, network, expected):
        for _ in range(expected):
            yield network.receive("b")
        done.append(sim.now)

    sim.process(receiver(sim, network, len(sizes)))
    for size in sizes:
        network.send(Message("a", "b", "m", payload=None, size=size))
    sim.run()
    # The sender's NIC is a single 1 MB/s port: total time is at least the
    # serialization of every byte sent.
    assert done[0] >= sum(sizes) / 1_000_000


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_delivery_is_deterministic_per_seed(seed):
    def run_once():
        sim = Simulation()
        network = Network(sim, RngRegistry(seed=seed),
                          default_latency=0.001,
                          default_bandwidth=1_000_000, latency_jitter=0.5)
        network.add_node("a")
        network.add_node("b")
        times = []

        def receiver(sim, network):
            for _ in range(5):
                yield network.receive("b")
                times.append(sim.now)

        sim.process(receiver(sim, network))
        for index in range(5):
            network.send(Message("a", "b", "m", payload=index, size=100))
        sim.run()
        return times

    assert run_once() == run_once()
