"""Pinned outputs of the scalar reference engine.

Every digest below is the sha256 of the canonical JSON of
``repro.obs.report.run_stats_dict`` for one run pinned to the scalar
engine (``engine="reference"``), next to the engine's own work gauges
``engine.dispatch_passes`` and ``engine.events_processed``.  The pins
were generated before the engine's bookkeeping was made incremental
(active-kernel list, ordered SM placement, candidate-only command
pump), so they hold the optimized engine to the old one's results,
event order and dispatch count, bit for bit.

Covered: every fine-grain roster cell (producer, consumer2-4) of the
12 registry workloads, the coarse baseline/prelaunch cells of four of
them, a multi-stream app, a cross-stream dependency app, Wireframe's
``ready_capacity`` cap, the flight-recorder journal of nw/consumer3, and
the critpath what-if replays (including the ``infinite_sms`` replay on
:class:`~repro.sim.device.UnboundedDevice`).

Regenerate (only after an intended change of simulated behavior) with::

    PYTHONPATH=src python tests/integration/test_reference_engine_pins.py
"""

import hashlib
import json

import pytest

from repro.core.policy import SchedulingPolicy
from repro.experiments.common import (
    STANDARD_MODELS,
    ExperimentContext,
    _make_model,
)
from repro.models import BlockMaestroModel, SerializedBaseline, WireframeModel
from repro.obs import MetricsRegistry
from repro.obs.critpath import what_if_bounds
from repro.obs.journal import JournalRecorder
from repro.obs.report import run_stats_dict
from repro.workloads import all_workloads
from repro.workloads.base import AppBuilder
from repro.workloads.streams import build_pipelines

from tests.conftest import PRODUCE_SRC

FINE_GRAIN = ("producer", "consumer2", "consumer3", "consumer4")
COARSE = ("baseline", "prelaunch")
COARSE_WORKLOADS = ("path", "hs", "lud", "fft")
PLAN_PARAMS = {name: (r, w) for name, _f, r, w in STANDARD_MODELS}


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cross_stream_app():
    """Two streams; stream 2's kernels consume stream 1's outputs, so
    each carries a coarse cross-stream completion barrier."""
    b = AppBuilder("xstream-pins")
    size = 16 * 128 * 4
    a = b.alloc("A", size)
    b.h2d(a, stream=1)
    mids = []
    current = a
    for stage in range(3):
        mid = b.alloc("MID{}".format(stage), size)
        b.launch(
            PRODUCE_SRC, grid=16, block=128,
            args={"IN0": current, "OUT": mid}, stream=1,
        )
        mids.append(mid)
        current = mid
    consume = PRODUCE_SRC.replace("produce", "consume")
    for stage, mid in enumerate(mids):
        out = b.alloc("OUT{}".format(stage), size)
        b.launch(
            consume, grid=16, block=128,
            args={"IN0": mid, "OUT": out}, stream=2,
        )
        b.d2h(out, stream=2)
    return b.build()


def _extra_apps():
    return {
        "pipelines": build_pipelines(pipelines=3, stages=4, use_streams=True),
        "xstream": cross_stream_app(),
    }


def _extra_models(config):
    return {
        "baseline": (SerializedBaseline(config), False, 1),
        "producer": (
            BlockMaestroModel(
                config, window=2,
                policy=SchedulingPolicy.PRODUCER_PRIORITY,
            ),
            True, 2,
        ),
        "consumer3": (
            BlockMaestroModel(
                config, window=3,
                policy=SchedulingPolicy.CONSUMER_PRIORITY,
            ),
            True, 3,
        ),
        "wireframe": (WireframeModel(config), True, 3),
    }


def cell_keys():
    keys = []
    for spec in all_workloads():
        models = FINE_GRAIN
        if spec.name in COARSE_WORKLOADS:
            models = COARSE + FINE_GRAIN
        keys.extend("run/{}/{}".format(spec.name, m) for m in models)
    for app in ("pipelines", "xstream"):
        keys.extend(
            "run/{}/{}".format(app, m)
            for m in ("baseline", "producer", "consumer3")
        )
    keys.append("run/lud/wireframe")
    keys.append("journal/nw/consumer3")
    keys.append("whatif/hs/consumer3")
    return keys


class PinRunner:
    """Memoizes apps and plans across cells (one context per module)."""

    def __init__(self):
        self.context = ExperimentContext()
        self.extra_apps = None

    def _app(self, name):
        if name in ("pipelines", "xstream"):
            if self.extra_apps is None:
                self.extra_apps = _extra_apps()
            return self.extra_apps[name]
        return self.context.app(name)

    def _model(self, app_name, model_name):
        config = self.context.gpu_config
        if app_name in ("pipelines", "xstream") or model_name == "wireframe":
            return _extra_models(config)[model_name]
        reorder, window = PLAN_PARAMS[model_name]
        return _make_model(model_name, config), reorder, window

    def measure(self, key):
        kind, app_name, model_name = key.split("/")
        app = self._app(app_name)
        model, reorder, window = self._model(app_name, model_name)
        plan = self.context.plan_for(app, reorder, window)
        if kind == "whatif":
            stats = model.run(plan, engine="reference")
            bounds = what_if_bounds(
                plan, model.gpu_config, model.options(), stats.makespan_ns
            )
            return (_digest(bounds),)
        metrics = MetricsRegistry()
        journal = JournalRecorder() if kind == "journal" else None
        stats = model.run(
            plan, metrics=metrics, journal=journal, engine="reference"
        )
        gauges = metrics.snapshot()["gauges"]
        digest = (
            journal.digest() if journal is not None
            else _digest(run_stats_dict(stats))
        )
        return (
            digest,
            int(gauges["engine.dispatch_passes"]),
            int(gauges["engine.events_processed"]),
        )


#: cell -> (sha256, dispatch passes, events processed); what-if cells
#: pin the digest of their bounds only
PINS = {
    "run/3mm/producer": (
        "75fbc4c8be0228947bb5a1be0b4b9d432f51ef253d400c1cc8c05f390f5dd4b1",
        228, 223,
    ),
    "run/3mm/consumer2": (
        "1aa6d4b5b99ce0bd143c03748269a316ac369e584dcb53ba42fee4267817db07",
        228, 223,
    ),
    "run/3mm/consumer3": (
        "b34aceef5cbe89f5813741207e1961f7d0f8d9e2edcdd1819671c59d13402aeb",
        228, 223,
    ),
    "run/3mm/consumer4": (
        "faf7229ed4102160bba099be92d1be2e7434f1a3fa7fdaaae187ccc24780eac7",
        228, 223,
    ),
    "run/alexnet/producer": (
        "218822332e7166502577d2cf29ca82cc25698e3e4d2caf1df5f8b455e5c4ab72",
        3524, 3481,
    ),
    "run/alexnet/consumer2": (
        "0c0cb202ef19a8a33850e3bb6f4f7f5cc7c5d69b3044604330158274e4686b80",
        3524, 3481,
    ),
    "run/alexnet/consumer3": (
        "77dd962f498d3b36922d7692a8f87a66e393035b222734c6df5463a2564e63a5",
        3524, 3481,
    ),
    "run/alexnet/consumer4": (
        "bfe59a7182474d59a622b6f572ca2d61919d31388947d2f3451b81a96c50f1a3",
        3524, 3481,
    ),
    "run/bicg/producer": (
        "b8890e86dd9678fe71a2871cc23ce2226d4bfc65946fc442548dcb138a2f1cd9",
        60, 57,
    ),
    "run/bicg/consumer2": (
        "daae72e53f61bdc319e06e0aed5c12394d1233b67700342038267378f2e5a16c",
        60, 57,
    ),
    "run/bicg/consumer3": (
        "ce64af241b5d2b24842c019a5ab7d0cbafaed54e78efa676d5a7b4e51da0b621",
        60, 57,
    ),
    "run/bicg/consumer4": (
        "27b5fdf2b384096af7879d1e6fba175a45b444ef1e203e82864fab42fced5eda",
        60, 57,
    ),
    "run/fdtd-2d/producer": (
        "f22dccf953bc38c69d1204728816782205e494e527ba8e4aab3d76f85f2a02df",
        1646, 1599,
    ),
    "run/fdtd-2d/consumer2": (
        "40a87e808ddd4cc05ed868f0226e71883d70b517809f7a041923adc35cfb616b",
        1646, 1599,
    ),
    "run/fdtd-2d/consumer3": (
        "8ed745f12438c014498381c1752b06516ff589231fab0dd8948b5ca8f887bfdc",
        1646, 1599,
    ),
    "run/fdtd-2d/consumer4": (
        "32ad1a61ac6cf43b01db32a3674bad76f02c619d15e29ed34c7830fb24dbd6fe",
        1646, 1599,
    ),
    "run/fft/baseline": (
        "ae72c0abc8cd70b8126d260725c2794475f6c49fb23a3394347f9badfa4b171f",
        4103, 3984,
    ),
    "run/fft/prelaunch": (
        "1fdb40f3042a91ae0965d8caf747bc5d903d54107238f2b1e0c41557972eb74f",
        4103, 3984,
    ),
    "run/fft/producer": (
        "ca36068cc8df2eb402593f466dc4f95b44dca51468c626374c0bd75a662309e1",
        4103, 3984,
    ),
    "run/fft/consumer2": (
        "7e921fc80bcb33415a7db0a74a58cd43adac1c56a4315132dc041da7f1aa9947",
        4103, 3984,
    ),
    "run/fft/consumer3": (
        "71626c493d7f8d406aa80ea1250c1a2b5aa1e713b34ace567d9c6ea1c3be2ff7",
        4103, 3984,
    ),
    "run/fft/consumer4": (
        "fbd2b7a52f4125a62ddc8fe30208f0539fad2d0b8c3032a4ec5105f45e6bacaf",
        4103, 3984,
    ),
    "run/gaussian/producer": (
        "419905d15cb94377000ab9f32a3459b509da8b42e00c1d9cddb627bc294a4abf",
        34943, 33924,
    ),
    "run/gaussian/consumer2": (
        "9037d074d1a0a016ddfc35c279367fdce1e2e0c5c7935a126037b904e468e374",
        34943, 33924,
    ),
    "run/gaussian/consumer3": (
        "6942849ef1c95ee58cc5746414ff4c61d24ba688fd79f28934681ff8537bba2d",
        34943, 33924,
    ),
    "run/gaussian/consumer4": (
        "2ec920c338926893dab2ba77a026094853848c8719647ca2b405950015a1c584",
        34943, 33924,
    ),
    "run/gramschm/producer": (
        "977b8fadc878a01cb91cc7708a9dc9b6f80c9a634ba58bb83cb1c7b1bd151c5f",
        1258, 875,
    ),
    "run/gramschm/consumer2": (
        "a65664d7b651f7b5b41cc87398bbe34a581bfcb7431abe6b948753105e908191",
        1258, 875,
    ),
    "run/gramschm/consumer3": (
        "a21b7eaffbc0e65ab38e96f4d7760b587a781b748f4ef8bc9953948173413d39",
        1258, 875,
    ),
    "run/gramschm/consumer4": (
        "18c68b3860c858b0001011c56a6d99446eaedf231737b4380b5fdccfed772a1b",
        1258, 875,
    ),
    "run/hs/baseline": (
        "0653c8dfff465f3e81a02385be9e4d11cccbcb82b5f01078152c5783e18618d4",
        2612, 2593,
    ),
    "run/hs/prelaunch": (
        "4f7c0df0acfe61d0931b6dee37258309ba120c302695649cee098c6a6f8c11f0",
        2612, 2593,
    ),
    "run/hs/producer": (
        "0668c1e6a5e49c80074c0bf2d7f73111eab82eec547cbe29064894610eb4d310",
        2612, 2593,
    ),
    "run/hs/consumer2": (
        "dd102b15d9994b8abb0ba441b33fcb7319a5facf8cc4d267d81c5b8da8b70573",
        2612, 2593,
    ),
    "run/hs/consumer3": (
        "cb58bd5e88771498c03cee4cece653e6a9e49ffe0a56bd198ca4573b58141d2c",
        2612, 2593,
    ),
    "run/hs/consumer4": (
        "e98b20e81ab45811fe69a97f329f61d8bff6433eb592db1b6a5c922962b6e694",
        2612, 2593,
    ),
    "run/lud/baseline": (
        "4db94f9ad87bccb6a418e89a22cacbce4729b1a899e292301865519bd8407684",
        1566, 1475,
    ),
    "run/lud/prelaunch": (
        "df38db2512be24e86bb312b5893e2f5859d8c9744295cf5f7a6187e68a2ce64a",
        1566, 1475,
    ),
    "run/lud/producer": (
        "343fb18185e0c0fc8925e1bf190d556ebb9d907a9474f7e6b15df365e38c4dbe",
        1566, 1475,
    ),
    "run/lud/consumer2": (
        "bfe8829e0b5c4bf19cd082e0099048e44ee0de0933198cb47515143a8621e9fd",
        1566, 1475,
    ),
    "run/lud/consumer3": (
        "1ab34e5937446d0b7d369b796c3d4c5f27359302f2a3371d830ebd98c10da3fa",
        1566, 1475,
    ),
    "run/lud/consumer4": (
        "263db1958cbe173ee51a79b6a867b9d4428f8035f24e2bc14a2be97d1c47d00b",
        1566, 1475,
    ),
    "run/mvt/producer": (
        "f7e64a385dca51f915754a96ce2fd201f0815fc4dc33c0a65615a1a73efc2e90",
        60, 57,
    ),
    "run/mvt/consumer2": (
        "3f33a3dd741bfdffd229a5639d36c4d1ec1969069328f71b36175443c8d4a171",
        60, 57,
    ),
    "run/mvt/consumer3": (
        "21448b7952b5ab42e15731bccc39cfa93d79c46886662044a475c6495891350c",
        60, 57,
    ),
    "run/mvt/consumer4": (
        "a00bca19a2657eba8b8ec37792fd7e0df97e51d026233dd0d88d4c582b75b7bd",
        60, 57,
    ),
    "run/nw/producer": (
        "5975a7119713a1d31c6170293a1d284e0a9a04faa1745fb0f45861422f5976a2",
        17418, 16909,
    ),
    "run/nw/consumer2": (
        "b9e2b8583ee1d2934e6c384ba7ea3a70343f34c4e8d41d039fd301143d4b91ea",
        17418, 16909,
    ),
    "run/nw/consumer3": (
        "7ff83960c50e64d7e885b91bcb21d0361d3591ebc0190db6f6ce0e8f107dbeed",
        17418, 16909,
    ),
    "run/nw/consumer4": (
        "83451e840fa1e658141b755bd379e6c35b950c55300f4e67da4c9c75d25afa77",
        17418, 16909,
    ),
    "run/path/baseline": (
        "30334cbd7315054042bdff0a4087676b0aeb4f9120e9b2363c7180171ff42720",
        1312, 1303,
    ),
    "run/path/prelaunch": (
        "ccede186cd8b7f0514f086197d57fb7e4c00db143fdf6f715a87d8e45450964a",
        1312, 1303,
    ),
    "run/path/producer": (
        "5904b6b18ffce693c1d4a4793a488be9e2c2d6c5d86a258fbdb565b71eec5759",
        1312, 1303,
    ),
    "run/path/consumer2": (
        "aac07f1f8e99dd565cf371dc81c47dd6b68d63bcfafe9d47d1360467f89b51ff",
        1312, 1303,
    ),
    "run/path/consumer3": (
        "e7c5085e1d3e3278d8cfb1a438b3cae27ef8db8d6b332680849088322fe4cb0c",
        1312, 1303,
    ),
    "run/path/consumer4": (
        "cce1807c64a96e2c955efe4f565462ab5a2b53981e76bc0a8b1dce7db4d59290",
        1312, 1303,
    ),
    "run/pipelines/baseline": (
        "3026d9a4e6a3413724a7236b6713db462ea5951247230da1d1d75b97ae45af82",
        858, 835,
    ),
    "run/pipelines/producer": (
        "b0d56218aab1f43c75f16482676cb7c4a4d2f75267e3f5f8698b61d7e858e260",
        858, 835,
    ),
    "run/pipelines/consumer3": (
        "eda20fafc094d26596d359777cf0fb2606b093234275bc3bb2dbb8132859fece",
        858, 835,
    ),
    "run/xstream/baseline": (
        "f79d52c22e0d3894a69e0e6fc28f2f9a2c3e8688ce3aba3dac4b28f4ba9e023b",
        142, 131,
    ),
    "run/xstream/producer": (
        "b7d13ba93b44014b94c2c83ffb7e05cdc3ed0b399d2d2908c54cd4eaa9cfab81",
        142, 131,
    ),
    "run/xstream/consumer3": (
        "fa15d7a8f6f717d87c10e05db5afc9d605a78b53b65d3808ea591358df5a445b",
        142, 131,
    ),
    "run/lud/wireframe": (
        "2672b2c6eb6169a4a3371a41fe8a315b0594a4cb360a2e6fa7f627c5ac9b250d",
        1566, 1475,
    ),
    "journal/nw/consumer3": (
        "sha256:44cda8dbef3358c47a4578921c8a1ea8f9d0de32eae62f7191d5081ec58f734e",
        17418, 16909,
    ),
    "whatif/hs/consumer3": (
        "6250226ad7c4e9051a8c4a7fd9d3bbbd30b78b499f3cb4cbeec7e3648ac7bd0c",
    ),
}


@pytest.fixture(scope="module")
def runner():
    return PinRunner()


@pytest.mark.parametrize("key", cell_keys())
def test_reference_engine_pin(runner, key):
    assert runner.measure(key) == PINS[key]


def test_pins_cover_every_cell():
    assert sorted(PINS) == sorted(cell_keys())


if __name__ == "__main__":
    pin_runner = PinRunner()
    print("PINS = {")
    for cell in cell_keys():
        print("    {!r}: {!r},".format(cell, pin_runner.measure(cell)))
    print("}")
