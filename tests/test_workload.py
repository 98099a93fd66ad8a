import itertools
import math
import random
from array import array

import pytest

from segstore.restore import Policy
from segstore.workload import WorkerStream, WorkloadConfig, ZipfianGenerator, _zipf_cdf


def test_uniform_two_pages():
    zipf = ZipfianGenerator(2, theta=0.0, scramble=False)
    rng = random.Random(1)
    n = 100_000
    ones = sum(zipf.draw(rng) for _ in range(n))
    assert abs(ones / n - 0.5) < 0.02


@pytest.mark.parametrize("n,theta", [(4096, 0.8), (32768, 0.8), (1000, 0.0), (77, 1.3)])
def test_zipf_cdf_is_packed_and_bit_identical(n, theta):
    """The CDF is one array('d'), built without a list of weights, and
    equal bit for bit to the list-then-tuple construction."""
    weights = [1.0 / (i + 1) ** theta for i in range(n)]
    total = math.fsum(weights)
    reference = list(itertools.accumulate(w / total for w in weights))
    reference[-1] = 1.0
    cdf = _zipf_cdf(n, theta)
    assert isinstance(cdf, array) and cdf.typecode == "d"
    assert [x.hex() for x in cdf] == [x.hex() for x in reference]


def test_deterministic_given_seed():
    zipf = ZipfianGenerator(1000, theta=0.9)
    rng1, rng2 = random.Random(123), random.Random(123)
    s1 = [zipf.draw(rng1) for _ in range(5000)]
    s2 = [zipf.draw(rng2) for _ in range(5000)]
    assert s1 == s2


def test_skew_one_matches_analytic_mass():
    n = 10_000
    zipf = ZipfianGenerator(n, theta=1.0, scramble=False)
    rng = random.Random(3)
    draws = 1_000_000
    top = max(1, n // 100)
    hits = sum(1 for _ in range(draws) if zipf.rank(rng) < top)
    share = hits / draws
    assert share > 0.20  # top 1% of pages soak up over a fifth of accesses
    # and the empirical share tracks the analytic CDF mass
    assert abs(share - zipf.mass_of_top(0.01)) < 0.01


def test_scramble_is_a_permutation():
    zipf = ZipfianGenerator(100, theta=0.5, domain=257)
    mapped = {(r * zipf._mult) % zipf.domain for r in range(100)}
    assert len(mapped) == 100


def test_higher_skew_concentrates():
    flat = ZipfianGenerator(1000, 0.2, scramble=False)
    steep = ZipfianGenerator(1000, 1.2, scramble=False)
    assert steep.mass_of_top(0.01) > flat.mass_of_top(0.01)


def test_config_validation():
    WorkloadConfig(page_count=64, pool_pages=8, worker_threads=2,
                   duration_s=10, failure_time_s=5).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(duration_s=10, failure_time_s=10).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(duration_s=10, failure_time_s=20).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(page_count=0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(skew=-1).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(page_count=64, working_set_pages=100).validate()
    # no-failure configs are fine (overhead runs)
    WorkloadConfig(failure_time_s=None).validate()


def test_worker_streams_stripe_keys():
    config = WorkloadConfig(page_count=256, worker_threads=4, seed=9,
                            policy=Policy.PREEMPTIVE)
    for wid in range(4):
        stream = WorkerStream(config, wid)
        for _ in range(50):
            for page_id, op, key, value in stream.next_txn():
                assert key % 4 == wid
                assert 0 <= page_id < 256


def test_worker_stream_deterministic():
    config = WorkloadConfig(page_count=128, worker_threads=2, seed=5)
    a = WorkerStream(config, 0)
    b = WorkerStream(config, 0)
    assert [a.next_txn() for _ in range(20)] == [b.next_txn() for _ in range(20)]
