"""The ``repro loadtest`` reports, pinned byte for byte.

CI reruns each load-test smoke and ``cmp``s it against itself, which a
drifted ``report()`` or ``to_dict()`` passes.  These digests pin the
printed report and every run's ``to_dict()`` (serialized with sorted
keys, as the ``benchmarks/results`` sidecars are): the six CI smokes,
a device-level sweep and an open-loop overload with rejections.  A
digest that moves is a changed published number or text.
"""

import hashlib
import json

import pytest

import repro.hostq
import repro.hostq.loadtest
from repro.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _device_smoke(backend):
    return ["loadtest", "--backend", backend, "--clients", "4", "--queue-depth", "4",
            "--requests", "200", "--pages", "128", "--profile", "tpcb", "--seed", "7"]


def _txn_smoke(backend):
    return ["loadtest", "--level", "txn", "--backend", backend, "--clients", "4",
            "--queue-depth", "4", "--txns", "60", "--pages", "128", "--profile", "tpcb",
            "--scheme", "2x4", "--seed", "7"]


CASES = [
    pytest.param(
        _device_smoke("noftl"),
        "d7bd0211be6f4943136a51f600f30926c74b27a40e69d00326e4cf6d4f266bcd",
        ["1190308f4ccce1fc5d1b916f97eb74ae211ea38528e72198cd2f82b914cf507a"],
        id="device-noftl",
    ),
    pytest.param(
        _device_smoke("blockssd"),
        "49d9e9d021cc26293cda86f08408bfe4e559fbb4c0b9df33f6a0f47bec0d7d85",
        ["486a23a976dcc5dd7b4bfb90848788e614d5caa148c926ab0dd9bb38d65963c9"],
        id="device-blockssd",
    ),
    pytest.param(
        _device_smoke("sharded"),
        "39dfeb94524071920cf16c2f8568a35ad2824050d5f337e1630ed4730e9927a2",
        ["5e5d4447ff700d747c99d42fca701e87e595ced306713cb2a13697dbebc3b2c4"],
        id="device-sharded",
    ),
    pytest.param(
        _txn_smoke("noftl"),
        "67934b1ab6ff1882bba6deea1f886e09c97a02cd3d6998f7e789a69f475997f6",
        ["d259110787ca10e4e1c1884dd8632d8c14adb973b9eb6d890e315e33858cf50f"],
        id="txn-noftl",
    ),
    pytest.param(
        _txn_smoke("blockssd"),
        "cb2d77913b25a45a9e44d49b4508a7e409224fbe3bc8490c675c8ca2a48dae2b",
        ["ca7418c5c3069d9c6f130831d3e2e9c1a14c24792960b00d9e228566a0eef943"],
        id="txn-blockssd",
    ),
    pytest.param(
        _txn_smoke("sharded"),
        "c47d8b4816414357b1112a31bbec6c4f7b5ac72f162ed713a9d220dd2fb03ee9",
        ["87b6f7f49be2fbdcd74ac638a1924a0a050588792f2d9ddef0fba74f504d6c67"],
        id="txn-sharded",
    ),
    pytest.param(
        ["loadtest", "--backend", "sharded", "--clients", "8", "--sweep", "1,2,4",
         "--requests", "120", "--pages", "96"],
        "3f728108255c88daa7acf0947f8133c6c9278e9f3e462de86c9c899bf97d40cf",
        ["a540dcf0ebfe24bc6279e8ea34df88aa26f37fed5e63523587ba81a6928048ce",
         "cdf1f68f51c601350cfe1ae6e3780d4b220a78a25f830c275f16bfc0d3461aff",
         "c4fb9f276526dd3660e0e2699afef2415c580613612eb23c055b77c5757e974e"],
        id="device-sweep",
    ),
    pytest.param(
        ["loadtest", "--arrival", "open", "--admission", "reject", "--rate", "80000",
         "--queue-depth", "2"],
        "3777e6acce90fc58dc6d489c7960d0362aed5a7fcbe97cb7f4bd0107de8d34f7",
        ["edda2cfbf62c30a0c8cd9180b58276f4466e9de7d09f74e0da23908f520d5ce6"],
        id="device-open-reject",
    ),
]


@pytest.mark.parametrize("argv,stdout_digest,dict_digests", CASES)
def test_report_and_to_dict_bytes_are_pinned(
    argv, stdout_digest, dict_digests, capsys, monkeypatch
):
    digests = []
    run = repro.hostq.loadtest.run_loadtest

    def run_and_digest(config):
        result = run(config)
        digests.append(_sha(json.dumps(result.to_dict(), sort_keys=True)))
        return result

    monkeypatch.setattr(repro.hostq, "run_loadtest", run_and_digest)
    monkeypatch.setattr(repro.hostq.loadtest, "run_loadtest", run_and_digest)
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out) == stdout_digest
    assert digests == dict_digests
