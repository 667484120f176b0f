"""Unit tests for named deterministic random streams."""

from repro.runtime.rng import SimRandom


def test_same_seed_same_stream_sequence():
    a = SimRandom(42).stream("failures")
    b = SimRandom(42).stream("failures")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_give_independent_streams():
    rng = SimRandom(42)
    a = [rng.stream("a").random() for _ in range(3)]
    b = [rng.stream("b").random() for _ in range(3)]
    assert a != b


def test_stream_is_cached():
    rng = SimRandom(1)
    assert rng.stream("x") is rng.stream("x")


def test_different_seeds_differ():
    a = SimRandom(1).stream("s").random()
    b = SimRandom(2).stream("s").random()
    assert a != b


def test_draw_order_between_streams_does_not_interfere():
    rng1 = SimRandom(7)
    first = rng1.stream("a").random()
    rng1.stream("b").random()  # interleaved draw on another stream
    second = rng1.stream("a").random()

    rng2 = SimRandom(7)
    expected_first = rng2.stream("a").random()
    expected_second = rng2.stream("a").random()
    assert (first, second) == (expected_first, expected_second)


def test_spawn_derives_independent_space():
    parent = SimRandom(5)
    child = parent.spawn("child")
    assert child.seed != parent.seed
    assert child.stream("s").random() == SimRandom(5).spawn("child").stream("s").random()
