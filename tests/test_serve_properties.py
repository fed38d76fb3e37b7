"""Property tests for the micro-batch coalescing identity.

The serving layer's contract is *bitwise*: a request's logits do not
depend on which micro-batch it rides in, how the batch axis is split,
how many pool workers shard it, or whether the tenant runs the float
or the int8 path.  Hypothesis drives the engine-level statement over
generated batches and split plans (ideal and GENIEx backends); the
model-level statement runs over generated arrival patterns against a
live server.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import predict_logits
from repro.parallel.backend import parallel_backend
from repro.serve import AnalogServer, ModelRegistry, ServeConfig, TenantSpec, run_load
from repro.xbar.simulator import CrossbarEngine, IdealPredictor
from tests.conftest import make_tiny_crossbar_config

pytestmark = [pytest.mark.fast, pytest.mark.serve]

IN_FEATURES = 8
WEIGHT = (
    np.random.default_rng(11)
    .normal(size=(5, IN_FEATURES))
    .astype(np.float32)
)


def batches():
    """Generated request batches: quantizer-grid values, zeros included."""
    row = st.lists(
        st.integers(min_value=-15, max_value=15), min_size=IN_FEATURES,
        max_size=IN_FEATURES,
    )
    return st.lists(row, min_size=2, max_size=6).map(
        lambda rows: np.asarray(rows, dtype=np.float64) / 15.0
    )


def split_plan(data, n: int) -> list[slice]:
    cuts = data.draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), max_size=3, unique=True)
    )
    edges = [0, *sorted(cuts), n]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def assert_split_identity(engine, x: np.ndarray, plan: list[slice]) -> None:
    dense = engine.matvec(x)
    split = np.vstack([engine.matvec(x[part]) for part in plan])
    np.testing.assert_array_equal(split, dense)
    for i in range(len(x)):
        np.testing.assert_array_equal(
            engine.matvec(x[i : i + 1]), dense[i : i + 1], err_msg=f"row {i} alone"
        )


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_pinned_float_engine_is_batch_split_invariant(data, tiny_geniex) -> None:
    x = data.draw(batches())
    plan = split_plan(data, len(x))
    predictor = data.draw(st.sampled_from([IdealPredictor(), tiny_geniex]))
    engine = CrossbarEngine(WEIGHT, make_tiny_crossbar_config(), predictor)
    engine.set_dac_range(1.0)
    assert_split_identity(engine, x, plan)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_pinned_int8_engine_is_batch_split_invariant(data, tiny_geniex) -> None:
    from repro.xbar.quant import QuantConfig, compute_scale, with_quant

    x = data.draw(batches())
    plan = split_plan(data, len(x))
    predictor = data.draw(st.sampled_from([IdealPredictor(), tiny_geniex]))
    config = with_quant(
        make_tiny_crossbar_config(adc_bits=6), QuantConfig(mode="int8")
    )
    engine = CrossbarEngine(WEIGHT, config, predictor)
    engine.set_input_scale(compute_scale(1.0, config.quant.half_level))
    engine.set_dac_range(1.0)
    assert engine.quant_active
    assert_split_identity(engine, x, plan)


# ----------------------------------------------------------------------
# Model level: arrival patterns against a live server
# ----------------------------------------------------------------------

MODELS = ("fp", "q")


@pytest.fixture(scope="module")
def serving(tiny_serve_lab):
    """A loaded two-tenant registry plus serial reference logits."""
    registry = ModelRegistry(tiny_serve_lab)
    registry.register(TenantSpec(name="fp", task="tiny", preset="32x32_100k"))
    registry.register(
        TenantSpec(name="q", task="tiny", preset="32x32_100k", quant=True)
    )
    registry.load_all()
    images = tiny_serve_lab.eval_images(8)
    reference = {
        model: predict_logits(registry.model(model).model, images)
        for model in MODELS
    }
    return registry, images, reference


async def _drive(registry, images, pattern, config) -> list:
    async with AnalogServer(registry, config) as server:
        tasks = []
        for model_index, image_index, delay_ticks in pattern:
            if delay_ticks:
                await asyncio.sleep(delay_ticks * 0.002)
            tasks.append(
                asyncio.create_task(
                    server.submit(MODELS[model_index], images[image_index])
                )
            )
        return await asyncio.gather(*tasks)


@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_any_arrival_pattern_matches_serial_inference(data, serving) -> None:
    registry, images, reference = serving
    pattern = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # tenant
                st.integers(0, len(images) - 1),  # image
                st.integers(0, 2),  # inter-arrival delay ticks
            ),
            min_size=1,
            max_size=10,
        )
    )
    config = ServeConfig(
        max_batch=data.draw(st.sampled_from([1, 2, 3, 5])),
        max_wait_us=data.draw(st.sampled_from([0.0, 300.0, 3000.0])),
        queue_limit=64,
    )
    results = asyncio.run(_drive(registry, images, pattern, config))
    for (model_index, image_index, _delay), result in zip(pattern, results):
        np.testing.assert_array_equal(
            result.logits,
            reference[MODELS[model_index]][image_index],
            err_msg=f"tenant {MODELS[model_index]} image {image_index} "
            f"in a batch of {result.batch_size}",
        )


@given(order=st.permutations(list(range(6))))
@settings(max_examples=10, deadline=None)
def test_response_ordering_is_deterministic(order, serving) -> None:
    """Out-of-order submission never cross-wires responses.

    Whatever order requests are issued in, each caller gets back its
    own image's logits and request ids follow admission order.
    """
    registry, images, reference = serving

    async def scenario():
        config = ServeConfig(max_batch=3, max_wait_us=2_000.0, queue_limit=64)
        async with AnalogServer(registry, config) as server:
            tasks = {
                image_index: asyncio.create_task(
                    server.submit("fp", images[image_index])
                )
                for image_index in order
            }
            await asyncio.gather(*tasks.values())
            return {k: t.result() for k, t in tasks.items()}

    results = asyncio.run(scenario())
    ids = [results[image_index].request_id for image_index in order]
    assert ids == sorted(ids), "request ids do not follow admission order"
    for image_index, result in results.items():
        np.testing.assert_array_equal(
            result.logits, reference["fp"][image_index]
        )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sharded_serving_is_bit_identical(workers, serving) -> None:
    """Workers 1/2/3 serve identical bits, float and int8 tenants alike.

    With the batch axis sharded across the process pool the pinned
    engines' batch-composition independence is what keeps shard plans
    invisible; this is the serving face of PR 5's ``--workers N``
    bit-identity guarantee.
    """
    registry, images, reference = serving

    async def scenario():
        config = ServeConfig(max_batch=4, max_wait_us=2_000.0, queue_limit=64)
        async with AnalogServer(registry, config) as server:
            tasks = [
                asyncio.create_task(
                    server.submit(MODELS[i % 2], images[i % len(images)])
                )
                for i in range(8)
            ]
            return await asyncio.gather(*tasks)

    with parallel_backend(workers):
        results = asyncio.run(scenario())
    for i, result in enumerate(results):
        np.testing.assert_array_equal(
            result.logits,
            reference[MODELS[i % 2]][i % len(images)],
            err_msg=f"workers={workers} request {i}",
        )


@pytest.mark.parametrize("workers", [1, 4])
def test_closed_loop_load_completes_coalesced_and_bit_identical(
    workers, serving
) -> None:
    """Closed-loop clients interleaving both tenants: every request
    completes, the micro-batcher coalesces (efficiency > 1), and every
    response equals serial inference, with and without pool sharding."""
    registry, images, reference = serving

    async def scenario():
        config = ServeConfig(max_batch=8, max_wait_us=2_000.0, queue_limit=64)
        async with AnalogServer(registry, config) as server:
            return await run_load(
                server, list(MODELS), images, clients=4, requests_per_client=8
            )

    with parallel_backend(workers):
        report = asyncio.run(scenario())
    assert report.completed == report.requests == 32
    assert report.batching_efficiency > 1.0
    for model, image_index, result in report.responses:
        np.testing.assert_array_equal(
            result.logits, reference[model][image_index],
            err_msg=f"workers={workers} {model} image {image_index}",
        )
