"""Bit identity against stored digests, one short training run per mode.

Each mode trains a few rounds at tiny sizes and digests, with SHA-256,
its final parameters, its per-round training losses, and the bytes of
the ``metrics.csv``, ``result.json`` and ``checkpoint.bin`` that
``experiment.run_training`` writes. ``digests.json`` holds the digests
and the numpy and BLAS build they were made with, and the kernel family
OpenBLAS picked for the CPU at run time; on another build or kernel the
test fails before any digest and names both, because float results
there may differ in the last bit without anything being wrong.

A change that moves bits on purpose regenerates the file and lists every
digest that moved:

    PYTHONPATH=src python tests/test_digests.py
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fronthaul import config as config_mod, experiment, protocol

DIGESTS = Path(__file__).with_name("digests.json")
DEFAULT_CONFIG = Path(__file__).parents[1] / "configs" / "default.txt"

_BASE = {
    "classes": 3, "grid": 8, "window": 6,
    "train_samples": 64, "val_samples": 24, "test_samples": 24,
    "message_dim": 8, "branches": 2, "latent_dim": 6, "cloud_hidden": 10,
    "encoder_hidden": "12", "n_train": 3, "rounds": 6, "batch_size": 8,
    "eta": 0.05, "val_cadence": 3, "eval_snr_grid": "0,20", "master_seed": 77,
}


def _matrix() -> dict[str, dict]:
    """Mode name -> config overrides of the tiny base config."""
    modes = {}
    for sharing in ("dedicated", "shared"):
        for optimizer in ("sgd", "adam"):
            for coordination in ("sync", "async"):
                modes[f"{sharing}-{optimizer}-{coordination}"] = {
                    "encoder_sharing": str(sharing == "shared").lower(),
                    "optimizer": optimizer,
                    "async": str(coordination == "async").lower(),
                    # a norm on every round in one mode, as val_cadence = 0 prints
                    "val_cadence": 0 if optimizer == "adam" and coordination == "async" else 3}
    modes.update({
        "cqie": {"cqie": "true"},
        "pathloss": {"pathloss": "true"},
        "downlink-exact": {"downlink": "exact"},
        "noiseless-downlink": {"downlink": "noiseless"},
        "power-sum": {"power_mode": "sum"},
        "mhnet": {"architecture": "mhnet"},
        # mhnet with the head mask: inactive pairs drop out of the head sum
        "mhnet-async": {"architecture": "mhnet", "async": "true"},
        "catnet": {"architecture": "catnet"},
        "sum_agg": {"architecture": "sum_agg", "classes": 4, "message_dim": 4},
        # one-row batches: the cloud's folded first layer runs as a
        # matrix-vector product, whose kernel may split the sum
        "batch-one": {"batch_size": 1},
    })
    return modes


MODES = _matrix()
# modes on configs/default.txt, shortened, with these overrides; "wide"
# has train-wide's shapes, where BLAS runs its large kernels
DEFAULT_MODES = {
    "default-config": {"rounds": 20},
    "wide": {"n_train": 16, "batch_size": 256, "branches": 12, "async": False,
             "encoder_sharing": False, "val_cadence": 0, "rounds": 3},
}
ALL_MODES = [*MODES, *DEFAULT_MODES]


def mode_config(mode: str) -> dict:
    if mode in DEFAULT_MODES:
        return {**config_mod.load_config(DEFAULT_CONFIG), **DEFAULT_MODES[mode]}
    text = "".join(f"{k} = {v}\n" for k, v in {**_BASE, **MODES[mode]}.items())
    return config_mod.parse_config_text(text)


def openblas_core() -> str:
    """The kernel family (``SkylakeX``, ``Haswell``, ...) that numpy's bundled
    64-bit-integer OpenBLAS picked for this CPU, or that ``OPENBLAS_CORETYPE``
    forced; "unknown" without that library."""
    lib = next(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*"), None)
    if lib is None:
        return "unknown"
    corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def environment() -> dict[str, str]:
    """The numpy build, the BLAS it links and the BLAS kernel, which fix the float bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_core": openblas_core()}


def check_environment(stored: dict) -> None:
    """Fail, naming both, unless this is the build and kernel the digests were made with."""
    here = environment()
    if stored["environment"] != here:
        pytest.fail(f"tests/digests.json was made with {stored['environment']}, this is "
                    f"{here}; float bits can differ between builds and BLAS kernels, so "
                    "regenerate the digests here from a trusted commit before comparing")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mode_digests(mode: str, out_dir: Path) -> dict[str, str]:
    """Train the mode twice, once through ``protocol.train`` for the
    parameters and the per-round losses and once through
    ``experiment.run_training`` for the files."""
    cfg = mode_config(mode)
    dataset = experiment.build_dataset(cfg)
    tc = config_mod.to_training_config(cfg, dataset.obs_dim, dataset.n_classes)
    state, records = protocol.train(tc, dataset)
    params = hashlib.sha256()
    for name, p in sorted(protocol.state_parameters(state).items()):
        params.update(f"{name}{p.dtype.str}{p.shape}".encode())
        params.update(np.ascontiguousarray(p).tobytes())
    digests = {"params": params.hexdigest(),
               "losses": _sha(np.array([r.train_loss for r in records]).tobytes())}
    experiment.run_training(cfg, out_dir)
    for name in ("metrics.csv", "result.json", "checkpoint.bin"):
        digests[name] = _sha((out_dir / name).read_bytes())
    return digests


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text())


def test_matrix_matches_stored_modes(stored):
    assert list(stored["modes"]) == ALL_MODES, \
        "the mode matrix changed; regenerate tests/digests.json"


def test_kernel_change_fails_naming_both_kernels(stored, monkeypatch):
    """Only the kernel differs: the check names the stamped kernel and this one."""
    assert stored["environment"]["blas_core"] == openblas_core() != "unknown"
    monkeypatch.setattr(sys.modules[__name__], "openblas_core", lambda: "OtherCore")
    with pytest.raises(pytest.fail.Exception) as failed:
        check_environment(stored)
    message = str(failed.value)
    assert f"'blas_core': '{stored['environment']['blas_core']}'" in message
    assert "'blas_core': 'OtherCore'" in message


@pytest.mark.parametrize("mode", ALL_MODES)
def test_mode_is_bit_identical(mode, stored, tmp_path):
    check_environment(stored)
    got = mode_digests(mode, tmp_path)
    want = stored["modes"][mode]
    moved = [key for key in want if got.get(key) != want[key]]
    assert not moved, f"{mode}: {', '.join(moved)} moved"


def test_wide_holds_at_one_blas_thread(stored, tmp_path):
    """``wide`` gives its stored digests in a child process whose BLAS runs
    one thread (``OPENBLAS_NUM_THREADS=1`` in the child's environment
    only, the count the benchmark pins), while this process runs at the
    default count: its buffers are long enough for OpenBLAS to split a
    sum across threads. On a one-core host the default is one thread, so
    there this checks nothing new."""
    check_environment(stored)
    paths = [str(Path(protocol.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = ("import json, sys; from pathlib import Path; from test_digests import mode_digests; "
            "print(json.dumps(mode_digests('wide', Path(sys.argv[1]))))")
    child = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout.splitlines()[-1])
    moved = [key for key, want in stored["modes"]["wide"].items() if got.get(key) != want]
    assert not moved, f"wide at one BLAS thread: {', '.join(moved)} moved"


def regenerate() -> None:
    """Write digests.json for the code as it is, and report what moved."""
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"modes": {}}
    modes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ALL_MODES:
            modes[mode] = mode_digests(mode, Path(tmp) / mode)
            moved = [k for k, v in modes[mode].items() if old["modes"].get(mode, {}).get(k) != v]
            print(f"{mode}: {', '.join(moved) if moved else 'unchanged'}")
    DIGESTS.write_text(json.dumps({"environment": environment(), "modes": modes},
                                  indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
