"""Property-based ordered-reduction invariance across executors.

PR 4's determinism suite pinned fixed cases (one device, fixed corner
counts, two worker counts).  These properties generalize it: for
*random* item counts, chunkings and worker counts, an ordered map over
any registered executor — serial, thread, process, and remote loopback
workers — must reproduce the serial result list exactly.  The work
items here are cheap pure arithmetic, so the properties isolate the
*scheduling* contract (pre-assignment, work stealing, chunked pool
dispatch, socket framing) from solver numerics, which the integration
suites cover.

Executors and loopback worker servers are built once per module and
reused across hypothesis examples; ``derandomize=True`` keeps CI runs
reproducible.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.autodiff import Tensor
from repro.core.executors import (
    SerialExecutor,
    make_executor,
    resolve_worker_count,
)
from repro.core.objective import aggregate_losses
from repro.core.remote import start_worker_subprocess
from repro.core.sampling import scenario_family
from repro.fab.corners import VariationCorner

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Finite floats survive pickling and equality checks exactly.
ITEMS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    min_size=0,
    max_size=32,
)


def _affine(x):
    return 3.0 * x - 1.25


_EXECUTORS: dict = {}
_WORKERS: list = []


@pytest.fixture(scope="module")
def fleet():
    """One shared fleet for every example: pools fork once, remote
    workers serve the whole module.  Explicitly requested (not autouse)
    so a `-m "not remote"` selection — which still runs the pure-logic
    properties below — never forks servers or pools."""
    for _ in range(2):
        _WORKERS.append(start_worker_subprocess())
    addresses = [address for _proc, address in _WORKERS]
    _EXECUTORS["serial"] = SerialExecutor()
    for spec in ("thread:1", "thread:2", "thread:3", "process:2", "process:3"):
        _EXECUTORS[spec] = make_executor(spec)
    _EXECUTORS["remote:1worker"] = make_executor(
        f"remote:{addresses[0][0]}:{addresses[0][1]}", remote_timeout=15.0
    )
    _EXECUTORS["remote:2workers"] = make_executor(
        "remote:" + ",".join(f"{h}:{p}" for h, p in addresses),
        remote_timeout=15.0,
    )
    yield
    for ex in _EXECUTORS.values():
        ex.shutdown()
    _EXECUTORS.clear()
    for proc, _address in _WORKERS:
        proc.terminate()
    _WORKERS.clear()


@pytest.mark.remote
@settings(**SETTINGS)
@given(items=ITEMS)
def test_ordered_reduction_invariant_across_executors(fleet, items):
    """Same items, any executor/worker count -> the serial result list."""
    expected = [_affine(x) for x in items]
    for name, executor in _EXECUTORS.items():
        assert executor.map_ordered(_affine, items) == expected, name


@pytest.mark.remote
@settings(**SETTINGS)
@given(items=ITEMS, chunk=st.integers(min_value=1, max_value=9))
def test_chunked_maps_concatenate_to_serial(fleet, items, chunk):
    """Splitting one fan-out into arbitrary chunked map calls (e.g. a
    caller batching its samples) never changes the reduction."""
    expected = [_affine(x) for x in items]
    for name, executor in _EXECUTORS.items():
        out = []
        for start in range(0, len(items), chunk):
            out.extend(
                executor.map_ordered(_affine, items[start : start + chunk])
            )
        assert out == expected, name


@settings(**SETTINGS)
@given(
    requested=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    n_items=st.integers(min_value=0, max_value=64),
    available=st.integers(min_value=1, max_value=64),
)
def test_resolve_worker_count_properties(requested, n_items, available):
    resolved = resolve_worker_count(requested, n_items, available)
    if requested is not None:
        assert resolved == requested
    else:
        assert resolved == max(1, min(n_items, available))
        assert 1 <= resolved <= max(1, available)


# --------------------------------------------------------------------- #
# Scenario-family aggregation invariance (PR 8)                         #
# --------------------------------------------------------------------- #
#: Aggregation modes under test: (mode, alpha) pairs.
AGG_MODES = st.sampled_from(
    [("mean", None), ("worst", None), ("cvar", 0.25), ("cvar", 0.5),
     ("cvar", 1.0)]
)


@st.composite
def _families(draw):
    """Random scenario families: fab corners crossed with optional
    wavelength / temperature axes."""
    n = draw(st.integers(min_value=1, max_value=6))
    corners = [
        VariationCorner(
            f"c{i}",
            temperature_k=draw(st.floats(min_value=250.0, max_value=400.0)),
            weight=draw(st.floats(min_value=0.1, max_value=3.0)),
        )
        for i in range(n)
    ]
    lams = draw(st.lists(
        st.floats(min_value=1.2, max_value=1.9),
        min_size=0, max_size=3, unique=True,
    ))
    temps = draw(st.lists(
        st.floats(min_value=260.0, max_value=360.0),
        min_size=0, max_size=2, unique=True,
    ))
    return scenario_family(corners, lams or None, temps or None)


def _pseudo_loss(corner):
    """Cheap deterministic stand-in for a per-scenario solve: a pure
    function of the scenario's pinned condition, so it travels with the
    corner under any permutation or chunking."""
    lam = corner.wavelength_um if corner.wavelength_um is not None else 1.55
    return 0.5 * lam + 0.01 * corner.temperature_k * corner.weight


@pytest.mark.scenario
@settings(**SETTINGS)
@given(family=_families(), mode_alpha=AGG_MODES, seed=st.integers(0, 2**16))
def test_aggregation_invariant_under_family_permutation(
    family, mode_alpha, seed
):
    """mean/worst/CVaR see a *set* of scenarios: shuffling the family
    (losses and weights together) never changes the reduction."""
    mode, alpha = mode_alpha
    losses = [Tensor(np.asarray(_pseudo_loss(c))) for c in family]
    weights = [c.weight for c in family]
    base = aggregate_losses(losses, weights, mode, alpha).item()
    order = np.random.default_rng(seed).permutation(len(family))
    shuffled = aggregate_losses(
        [losses[i] for i in order],
        [weights[i] for i in order],
        mode,
        alpha,
    ).item()
    assert shuffled == pytest.approx(base, rel=1e-9, abs=1e-12)


@pytest.mark.scenario
@settings(**SETTINGS)
@given(family=_families(), chunk=st.integers(1, 5), mode_alpha=AGG_MODES)
def test_aggregation_invariant_under_executor_chunking(
    family, chunk, mode_alpha
):
    """Fanning the family out in arbitrary chunked map calls and
    aggregating the reassembled list is bitwise the direct serial
    reduction."""
    mode, alpha = mode_alpha
    weights = [c.weight for c in family]
    direct = aggregate_losses(
        [Tensor(np.asarray(_pseudo_loss(c))) for c in family],
        weights, mode, alpha,
    ).item()
    executor = SerialExecutor()
    values = []
    for start in range(0, len(family), chunk):
        values.extend(
            executor.map_ordered(_pseudo_loss, family[start : start + chunk])
        )
    chunked = aggregate_losses(
        [Tensor(np.asarray(v)) for v in values], weights, mode, alpha
    ).item()
    assert chunked == direct


@pytest.mark.remote
@settings(**SETTINGS)
@given(items=st.lists(st.integers(0, 1000), min_size=2, max_size=24))
def test_remote_scheduling_never_reorders(fleet, items):
    """Work stealing moves items between workers, never within the
    result list: index identity survives any schedule."""
    executor = _EXECUTORS["remote:2workers"]
    assert executor.map_ordered(_tag_with_value, items) == [
        (x, x * x) for x in items
    ]


def _tag_with_value(x):
    return (x, x * x)
