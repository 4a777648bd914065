"""Pinned outputs of the three engine observers.

For every registry workload under ``baseline``, ``producer`` and
``consumer3``, plus a multi-stream app and a cross-stream dependency
app, each cell pins three sha256 digests of one observed run:

* the journal's event stream (:meth:`JournalRecorder.digest`);
* the canonical JSON of the critpath report, what-if bounds included;
* the canonical JSON of the telemetry report.

The pins were generated while the engine still fed each observer
through its own hooks, so they hold the single event stream that now
serves all three to the old outputs, byte for byte.  ``gaussian`` and
``nw`` run at their registry ``build_small`` size: at full size they
alone take longer than every other cell together.

Regenerate (only after an intended change of observed output) with::

    PYTHONPATH=src:. python tests/integration/test_observer_pins.py
"""

import hashlib
import json

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import STANDARD_MODELS, _make_model
from repro.obs import critpath as cp
from repro.obs import telemetry as tm
from repro.obs.journal import JournalRecorder
from repro.workloads import all_workloads, get_workload
from repro.workloads.streams import build_pipelines

from tests.integration.test_reference_engine_pins import cross_stream_app

MODELS = ("baseline", "producer", "consumer3")
SMALL = ("gaussian", "nw")
PLAN_PARAMS = {name: (r, w) for name, _f, r, w in STANDARD_MODELS}


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_keys():
    apps = [spec.name for spec in all_workloads()] + ["pipelines", "xstream"]
    return ["{}/{}".format(app, model) for app in apps for model in MODELS]


class PinRunner:
    """Memoizes apps and plans across cells (one runner per module)."""

    def __init__(self):
        self.runtime = BlockMaestroRuntime()
        self.apps = {}
        self.plans = {}

    def _app(self, name):
        if name not in self.apps:
            if name == "pipelines":
                app = build_pipelines(pipelines=3, stages=4, use_streams=True)
            elif name == "xstream":
                app = cross_stream_app()
            elif name in SMALL:
                app = get_workload(name).build_small()
            else:
                app = get_workload(name).build()
            self.apps[name] = app
        return self.apps[name]

    def measure(self, key):
        app_name, model_name = key.split("/")
        reorder, window = PLAN_PARAMS[model_name]
        if (app_name, reorder, window) not in self.plans:
            self.plans[(app_name, reorder, window)] = self.runtime.plan(
                self._app(app_name), reorder=reorder, window=window
            )
        plan = self.plans[(app_name, reorder, window)]
        model = _make_model(model_name, self.runtime.config)
        prov = cp.ProvenanceRecorder()
        journal = JournalRecorder()
        sampler = tm.TelemetrySampler()
        stats = model.run(
            plan, provenance=prov, journal=journal, telemetry=sampler
        )
        critpath = cp.build_report(
            stats, plan, prov, model.gpu_config,
            options=model.options(), whatif=True,
        )
        return (
            journal.digest()[len("sha256:"):],
            _digest(critpath),
            _digest(tm.build_report(stats, sampler)),
        )


#: cell -> (journal events, critpath report, telemetry report) sha256
PINS = {
    "3mm/baseline": (
        "c5556bbeebcdd09d19d51db2445172516ffc802b5d0044005da78d020ea3b95a",
        "f802fdf10887e1370b46ca637cc39e5d0f55200d4f5644bac5090e50b810d916",
        "976e6a7ed44e3dd2f839463d471c3622c59235536420224ea5c3719028fcd223",
    ),
    "3mm/producer": (
        "8e4e46e3898376813173996b0cff528487734e95a239bdb9e2ee706069dee6cf",
        "6af93cd2e22360ab0d8c505fc6c2b49f7d3a0fa59c868cce44d503f2ab0d1683",
        "cd14b712f26d284e9b04b04f45d55b2dd23fa60575b3178f4e24c8fb0708a778",
    ),
    "3mm/consumer3": (
        "d98baddf7e68cb4c58abea9b2f9cdd76c673eb936aecfe74cdb2735b0e6c2925",
        "3a0d6a5ef7e09977e3c49ce6d78bcd225678ee8751f04d7919313c06693d9183",
        "f92e16719ef38f9ceb62bd517f3f286e996258a35ddc499d290f0eea22f64014",
    ),
    "alexnet/baseline": (
        "acdddd8193b437f67593b20b662f64ff17819bbc9de1e83c5ff96ef8d686ad51",
        "5ca68ccfbdfe36608bead1e9ba60f327542b96ff8fcccb302ad8492d9d1e2572",
        "79acc898f85ba336306445e37d18396b81a6d311bbda1ce4deebb6327c2d76c2",
    ),
    "alexnet/producer": (
        "7914760d250022f2090dd34ad3d2cf09efca92188743a102626c44e7ffb6670d",
        "61e66485bfc0341560f13f83b50701dd6dd35eae72adbe4392598b66ee924dd2",
        "7dd156ebae603d390a1810080dc1fdc72f312a8ab0b1097c1768b42c2bd40cc4",
    ),
    "alexnet/consumer3": (
        "5f59786344a8f12653b8fbb0625faf8fd80a7a2f4b7353b887753dcd7907815b",
        "9f5fed98679a15341df593693f85fc5f513c5f7be2700bdf14669dd628b90625",
        "43d696cec93ddd484392408fb2c8b3a89c91cddeed0354d803a42a56d07fc67e",
    ),
    "bicg/baseline": (
        "f08fa7e783b47cac966efdaec935f4dc46098f5a7798c814928ef885bca7c9e0",
        "76fcac10a18d612d1a137a88e348bfbabfb49a33f34b1051a2fee5de0f61abce",
        "163756ed53db0e1ad41cf4a03486d3e213ea4583be0762ba1f7a764406d53926",
    ),
    "bicg/producer": (
        "69d1b612570c46aacadb0fbc8223783a40451182b0f813ff7c1f202ca7e5a7de",
        "3fe04e68d6c566b9e06e9d66b703a1e50e5564d1dddd05bd9e2bc596a3f6db49",
        "bda7d083554b626d394b044c0a499f3a58f4a91dd9aad9ce53d85c5a1952525f",
    ),
    "bicg/consumer3": (
        "69d1b612570c46aacadb0fbc8223783a40451182b0f813ff7c1f202ca7e5a7de",
        "e4be8729b358f8ef61e6bcef4d0ca43ae103ca1f1bd1e3cee627de43785736c0",
        "2b1010f3116df8c105aa7039775310cbd05e80480d6ad508bd246931ece9a48a",
    ),
    "fdtd-2d/baseline": (
        "28e8a282e98fe7de264955c753d278db5772db661e75058bde7d2b24372b98ae",
        "71cb90d3fb034d38b0833bdac5385f458deac8cfe80f3c12bd328958b247419b",
        "88f2cabbaddf1687b49dcd4090fe66b592e9851776202252688c440919efe3a5",
    ),
    "fdtd-2d/producer": (
        "0172a77dc9610319e66c1c60e12fde76edc31b5d355a4672b657e0cce54ec31e",
        "7795dfdbaed34a9fd9740bec5a5f9c2263513636c94559148e1085b783baef2a",
        "55cde6cf0624e52459fa4dc11eb087c7a191d69a0544293887768d024383bf13",
    ),
    "fdtd-2d/consumer3": (
        "8bd817fbfca44fb3a9f591fe749a55cc26801012ab2074c718d01cea4b13a2f0",
        "1f59cc0d6aa6bbc75288905ddd9d218141fc5cd24159d9f4f904056022f38566",
        "4f0047818cf35b14bb2c83464eb2533424480479e0507e2d62b3c59bce732788",
    ),
    "fft/baseline": (
        "573f660ea7dbd3e172e9e031fb918ffcb10a2a5a449d9b129334559357f9c543",
        "fd032b62bd21cdf1934b31abe668e0376a55fb33e591566ebfec75ed5657eb4f",
        "67139189576dfb7e03cf9e927cf06511577900898cab1f9a328de6516ceca7cb",
    ),
    "fft/producer": (
        "e99b3f6dbb68a013777ad5d8a35d13ee35f0e427f4108044cc5ef2817096c0d4",
        "c51840a0b4b0dc06fa826aeaa8c5641d38218908f5bbb853aa92d5ebb428084a",
        "dd98f3d3485749a5a4554719c566502718fb05e9929cc33c5456fb6ab4dd3f44",
    ),
    "fft/consumer3": (
        "88a5029bef40b2f86796c169eb87102f28a9bf12241353b46151a2e51437ac39",
        "354036ed96469a8981fad5f5dcb4dd3a6ca766c2d7f38778c6962cbb974921cd",
        "a6e885578d168863e7aa61f3e092c56f912538d46babd532b36598ce7ec4fda2",
    ),
    "gaussian/baseline": (
        "b08a65abb94e5cea3596c56a580b7ad358151cc1d6f319905deec2c6a569d7f5",
        "e76a9219ceb4bbe4ce4367a0cb3ff85ed225fe583ae5bd313c02900823434d0f",
        "436bd9bcd6e50148f261ca8c07dae9c49882caa004617a2714dcd61fb35e3ae5",
    ),
    "gaussian/producer": (
        "b5ef8e19b51d48106531f59a2d8949c3cfc3eda26d2bb252b240d99bfca42b1c",
        "6dbb6bea13a1ed61fcb91fe7971b4b2021faed43c91796163b84994d25392924",
        "c4bc3ea580d77212d23a8788fb526b9416666b5636108bf3364481da4717d4f6",
    ),
    "gaussian/consumer3": (
        "27c1b63ef606b735471e3f02a097f340f5fc4a643e1ffb7d8a112abdfad66d4a",
        "0c85f06abccc5a1c6eb1da988e65924c9437aca3ce1284793191852cc410d38d",
        "1675f8102dcf904259ffa12f3e2f832fb459d0f230010f01ed57e8dee3d561fe",
    ),
    "gramschm/baseline": (
        "416034dbf12b7db722f221d9e21bf91a611b8c7086f90b00e3e4b8315d66b4d2",
        "171ad1d4b3981ef004e6927f44ec5b3b916fe3c207e46ca1d783ff1634a1ba36",
        "23e9710e7d616f75798b793e3f8fc0e045e5c11ea8ac7f38e0f7d1ce3f752b05",
    ),
    "gramschm/producer": (
        "1a58c6a69c9bdde4043a579c900793f67702d50a713d742b48068bf1e761cbfa",
        "0b6e56db16afa09350f624b5a5cc0d2633c4cb1a9c9e88b2c18f18a014dcf5da",
        "80f136ae571560dc8680c273a3268b86ec89b6ea2310a377fa12be7a323b19f6",
    ),
    "gramschm/consumer3": (
        "0854d0554f696200c902f13957777897257f5a317df4bd37fadee6c62192973d",
        "2b911f11411b234bf43a2f1b01e71834596e3cb92a303dfc85423b3a3f8e777e",
        "e18de56a24385fde004ecd0f76036a86d5a998cd8e934d56287868409b388844",
    ),
    "hs/baseline": (
        "70ed26ab2b18c0ffb8e76e7e11670d0651ebf4968e65e14cdd0ffcfcd4acc713",
        "87e364da9ea1db13127ad42774671a30d9c955df60a084b52b2bfb324bd23ade",
        "182c1b2ba70072e092aa88ae08120cd2c638ff5b33863d0b4956fab0eea95d83",
    ),
    "hs/producer": (
        "23c303c932781d45e1cb4882a5ae9d1f8bb4458bda34f67863d2b63af389b5ba",
        "215456687cebc38f69c2b6cadb07a243c591142a540fc815e125de1de70a5fe7",
        "b387c247d2024f1126e128fd07a8ae1823ec2bc0ea8898251c6b960335a15392",
    ),
    "hs/consumer3": (
        "bf3403cdb7e7825965492b3dbc95a9f645c01c22b30add62ccbef84414926476",
        "aae20e81658f018c44a8bd85c707e9c84dbf5b4b6eb26deea1cd8ca571e4b0d5",
        "822ad11a1f6352f4279ccd93e61e2e95d8be5c8fc2e94f43068276801cd08225",
    ),
    "lud/baseline": (
        "0e92ed16991b408e4eea5b06003b0bb5b8575965e183fa8c79711b39c72c202c",
        "65278ed5a26a6adf51dcaa50598fc65cda4bdaa5bc81f4ea66d13f7d1380bf1e",
        "25b0acafabcc79cc40e65a095049368b506bcf3caec9af83638b29b1aa1f23d6",
    ),
    "lud/producer": (
        "b6ddfa8f1ccda5f4ff0843cf2afc2a5930deb0bcc91c1d29917e31193d3e0ee6",
        "0917420955fbc7c30043c7362551c7e373034ec6fc8ed6e1e7afbc4936b08384",
        "3d2f6ceac97263ac6434bc0cbc82bf22719c6c97ba71f2a858dac5c2b85907c9",
    ),
    "lud/consumer3": (
        "308e0e57b90668283fc281642d1c419b38f6590d9ab9cb49dce886b160e75455",
        "87913307be863f5869760f1ce904d4ed0d68a65ea30a36df38c38ba62167efa1",
        "b3ec8221f9f5de75fe35da3197253136f829affad1d98db8a866aa301c6b20b4",
    ),
    "mvt/baseline": (
        "d00c5b1b1ee2287bc1389c68a8ef718878d4293aaa0415371f8ad3effbbbaaac",
        "5373a6f46b2f657859258d17d4af807789c805e5945138c2257e847584af2dd5",
        "67ceb6de0aeae14d8999ab5f76cc93f7be7b3cb7cb502f2b3288224ad13ed4c5",
    ),
    "mvt/producer": (
        "7b15b773c9ce9736650e3577601540c985574b298137df219d4ebc764e501419",
        "f1b15295e60f15abf15419a222e834f0a40efd59a596abe913e3831fd319ae20",
        "88ca577ccf8b51d6dcd646ef30f662efe60f56dc459d6c2578283fbac899afd3",
    ),
    "mvt/consumer3": (
        "7b15b773c9ce9736650e3577601540c985574b298137df219d4ebc764e501419",
        "768dcc0c3dac11188197f3b191c2e131c126d14d89de15d61f48f6ffae7bafa5",
        "f3d2b790b2ba785275b950611d3b4155d0c0faa4bb9c9df21d70337dbd103425",
    ),
    "nw/baseline": (
        "2f451af7138fbea3e2aa03e8401eb7f14398a586ec22162bc63026cfa4b8f6be",
        "f55192a779d9f9406fdd02dbf3c5e53cf30fe03ac5774ccbf231636b8b2e26fb",
        "6adeb6aa1c3a7ab46997c07cc2d38bb3c80a93be15c25ebdb4b8e1fb7d638ace",
    ),
    "nw/producer": (
        "0f5a379beb6d53a1287792c3a590f155bf1d544fe7cce9821398586ddbcc6fb1",
        "f26ae280a5164383e86606ec6dfaf1bf747b9744e77c40ff6c52aad0bb1319ed",
        "863beebc74480e5312304906f30c4ab9b2c00610df002719e437e348d10a88ac",
    ),
    "nw/consumer3": (
        "0e3221bf11fe5a2b7e6151a2864a416a92828765b38d265d495a1df93d09b65c",
        "6d0d5c8f753c148edba8b947cd3c7ab7c8000dfa8c6cb7abd3c82150dbf364e2",
        "ecfa4c4b50963a2f01e61ba2eeea8f849c88174ea2e99eea8b75f61d49164401",
    ),
    "path/baseline": (
        "28b323aee27d4c677a365cacab0b4eaaa958596fa2d1c026425da04341b3af2b",
        "316d95f7e033120bbc4c8846213a410019df3d62dbb1a16fd3afba56ada52eb9",
        "6cee615d3b7e4b9c32e5dd51ebac2a9f60cb375e39331105376dd7de025f3759",
    ),
    "path/producer": (
        "6f56f82ebae010a9773942ff5e6a44d8639ef5b8be0c41d102f33c11418893b4",
        "e5c6dd01f08c702de89c8cf97265bf4cea53b3d038b2bf1cf967478031e25ccd",
        "f729d1e8180bb355dd697c57cfabb69f4ade5733587f05412bd5487666e79af2",
    ),
    "path/consumer3": (
        "0f17cc62753b130f69a5f3778f2c807ac4f4e2a750acb01aacdfb1316ca41bd0",
        "e09fea9577067428f3f7726a445faf59ce75514bf31ea84f3cca42ea41cfbd3d",
        "50d6c56ee4885e0126031b2f9b1a4fb63690729a9823b71886486d3dc38f1095",
    ),
    "pipelines/baseline": (
        "cd74ec461a5b8c3ca6d1c3ef8862d30d984f4a7dcf5b2b5ff4fdd4edf3f6c02c",
        "b0b252ced6a788df40616f43495284b847a67074912ed13bf280d8ba2f13c272",
        "65b277c6a673328c3e8864124a5c92c3f2325cb6d66a93285096cf5c353d1390",
    ),
    "pipelines/producer": (
        "893da9035754620cf5a9e89c0a8738c301ae54d0db12144bb3bf937bf7b05bc0",
        "31969b46e1d12a47caa96205caedb9674cc1e95a76ef57b34f70f2264e3ab288",
        "537aca64a7c6b924df8b1aca9517f45ce01b4008f1b8624ab0275c1e774c8d3c",
    ),
    "pipelines/consumer3": (
        "8eb0cb787d1493393c4433b0e965ddfd4b87f49945a13490d1d26cecd5e948c0",
        "5147f3091e07bb8e9319512d188366747b17400a2dda2a67897f076991090dd0",
        "b2fbc72597b37117b22dcb74ab37909432986f7c475c5876e1c4f13497071737",
    ),
    "xstream/baseline": (
        "218aa80aeca7d00d050a9581e61695a4e04dc6e118529607a807bdb80a7e658a",
        "4d9118ab378eb090af4f4a694ee3567a643cdb676f3586dafc08e2163a821cc8",
        "66d58263f3c3fd239b98a194afc92914ba87519488c5ef30bb65f97dfaa30acc",
    ),
    "xstream/producer": (
        "72b8d0b2e0ff3024d33bc6748aa22fbd2cc6709c597b8088fd0fb198fe4a8759",
        "e2f16326a4c3d9e10b64f931254edd10bcff9938b062dee1d20e08f5679cb151",
        "8b331af2ea094e548e7b890716fa799cba3792b3e6d619d84d3bef156cfd7949",
    ),
    "xstream/consumer3": (
        "238047b86d41400ce967cd84cda7f4eb6b94298c1d12fc1dfb6d01d87872bd3d",
        "da0f9c2dd514968bfd0bcfaf777f7df6dfbbe8277db7be9f6bb1bebe686228df",
        "8fac704d74fc36486224a650c280fc2762dbe8e7cd3a934422e8aff4ec844504",
    ),
}


@pytest.fixture(scope="module")
def runner():
    return PinRunner()


@pytest.mark.parametrize("key", cell_keys())
def test_observer_pin(runner, key):
    assert runner.measure(key) == PINS[key]


def test_pins_cover_every_cell():
    assert sorted(PINS) == sorted(cell_keys())


if __name__ == "__main__":
    pin_runner = PinRunner()
    print("PINS = {")
    for cell in cell_keys():
        print("    {!r}: (".format(cell))
        for digest in pin_runner.measure(cell):
            print("        {!r},".format(digest))
        print("    ),")
    print("}")
