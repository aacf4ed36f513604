"""Byte-level regression gate on episode traces.

The digests are sha256 hashes of ``export_trace_csv`` output for every preset,
both feedback modes and every controller token, at 300 steps and seed 0, and
of two ``montecarlo`` summary CSVs, whose multi-row batches the episodes do
not step, and of one episode of nine hypotheses.  The CSVs carry each float
to 17 significant digits, so any change to the arithmetic of the episode
loop, including its order, changes a digest.  Regenerate them only in a
change that is meant to alter the traces, and say so in its notes.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from aldcontrol import PRESETS, AldParams, export_trace_csv, preset_config, run_episode
from aldcontrol.cli import main

TRACE_SHA256 = {
    ('base', 'output', 'ensemble'): "a901441d5ff98f5b2d889f6d9891b72055293573063166e2cc0ec077b5375647",
    ('base', 'output', 'rls'): "6ea369b26df98110f70dcb29fb1d72527f990087717759a6503331f509ef2a4c",
    ('base', 'output', 'oracle'): "d602de5ee29b6a1b6ce965f65f710ac25df2ac70951b504a409102de8dc3e687",
    ('base', 'output', 'single-ald:0'): "d3c0ff0d0a0dc22038767f88e02c3fafa860ab5f1cf5972574559944e790031c",
    ('base', 'output', 'single-ald:1'): "dd08df2c4f0d8ded34cd0d3c616e04856d62e89d913ca28c984ef98d6a8d25b8",
    ('base', 'measurement', 'ensemble'): "aa0228fdad46ac79771e3f562aeada69576dd2141062556a92dd14ac154cdf72",
    ('base', 'measurement', 'rls'): "70262dbc528373b7c561f14162cbc05ef9acf89323629ae3fd20e0184b60309e",
    ('base', 'measurement', 'oracle'): "bc4ee5b172d810dd868aec97e5f5ccb7c4e631bc8adb22a6a84c14ab18c87a34",
    ('base', 'measurement', 'single-ald:0'): "01f54123649826c3e27e52b6842d2703fcbe9b51b00091e637773719e1bd1ff0",
    ('base', 'measurement', 'single-ald:1'): "92d1154ed10796f5e8d5bd82369ca02bd156008265fef4f30d828200be9982e3",
    ('noise1', 'output', 'ensemble'): "327c5874b401a410e27f4b00690d57867615e177161c6a0b75b094a1d8761876",
    ('noise1', 'output', 'rls'): "dfe8413e74da3e7554287ad0861accf67fa5763a34b5c20ecfb2b83314b84fa9",
    ('noise1', 'output', 'oracle'): "a9cbaecfb6ec9b6c216707737b738bb204c91e4cf6107850efb5dfaf16ccccc3",
    ('noise1', 'output', 'single-ald:0'): "43ed5c71586f5e88cf15a8135edb80744109789a7b54015e904bc9a8ee5039ab",
    ('noise1', 'output', 'single-ald:1'): "a2cdc0ef950da2434d12a0a092fe4ad942485b9b88a437fea5ea5ad0033e37de",
    ('noise1', 'output', 'single-ald:2'): "59e4175bfed0844b6912d97fb5cc5c32caa07b86d347b8fbc52d0193d000414e",
    ('noise1', 'measurement', 'ensemble'): "57be3b8a6ba999175dd5be294efb826fbccc814b2c51d2cbb6991c375017b40c",
    ('noise1', 'measurement', 'rls'): "e4f35bbc79956117640d24b47c0595ef4d2dac01b5a35b1730cf60b2a6267724",
    ('noise1', 'measurement', 'oracle'): "0b9b2c7402b19eb93ac9dcd9e8c8e1f1c31ec8f106998e459368d902b3e275d5",
    ('noise1', 'measurement', 'single-ald:0'): "98e24469eae09cbb616216e0efb2f4f1fc0f6ceb565b0f35438cedbaba61b89f",
    ('noise1', 'measurement', 'single-ald:1'): "dfbeb345c1f4eae2557c2a7ddbc0ce40eab15d5550e61ceb490ee00550ee89b6",
    ('noise1', 'measurement', 'single-ald:2'): "2597090be461e3d9e2b0500595759b0d23b50a40bd2914835001d16ee9513fa3",
    ('noise2', 'output', 'ensemble'): "a248c39aece1128f5481a4d0a793deecaa792c63ba6ba459f857232cc53fac79",
    ('noise2', 'output', 'rls'): "aa5f7487d52d20ca55a8058c6062b9271a3252bf549190f13acd9262e3b1609c",
    ('noise2', 'output', 'oracle'): "116aede8d7d7f124f6c62e2f203a3f52b65d61efe204e8c05c37e3e234e8ecdd",
    ('noise2', 'output', 'single-ald:0'): "14e7fdeb9cf67c73aa5680184ae118f4c0772fa087185814cdcad7329c0d3f99",
    ('noise2', 'output', 'single-ald:1'): "6449bb1025962b6b1371ba2224778d4123046ecc17b54fdfd8a1687cfb7fec79",
    ('noise2', 'measurement', 'ensemble'): "9d0b77f89bbc670b7ed4d73d47c14e7dbb0579205a78a4f3224365d271b1030a",
    ('noise2', 'measurement', 'rls'): "d6f082b08c4e6918c9ec40ddf4017a02cfbf7cc5c4de9da0c25179991d8fc2f1",
    ('noise2', 'measurement', 'oracle'): "66075f7dcd6154d93e93280e33ae3c44a832df9904c4e753291ad2bc1ba89a3a",
    ('noise2', 'measurement', 'single-ald:0'): "573fbc56199e74457acbe918d8b2da5124d9af3fdd3689e2ef3861b5905cd931",
    ('noise2', 'measurement', 'single-ald:1'): "a4a7ed6a82e45f929c0d7826c9f081444ac33e0427538ceb3ff90755b92b6611",
    ('noise3', 'output', 'ensemble'): "ee5099b73d6a5f30fc49e11adebacdb3109b78facdd6c5201ce084411372586e",
    ('noise3', 'output', 'rls'): "b28c6e0afcac72a3f5b550dd9817523195c7da8d74ef3925ddfb70d11bf6eb3a",
    ('noise3', 'output', 'oracle'): "252ae252fe01ba443dfa192c06a5f3d5dbd4bfbc92ccf94b7a26586ad72cba9c",
    ('noise3', 'output', 'single-ald:0'): "00a04f50576c6a19b087e147bdf616594dfb2b8868145065423e8db9631a17e6",
    ('noise3', 'output', 'single-ald:1'): "a36541378c68c1fd62286cc7a559ba14d4d94402d2748f275a655c8e8a7444dd",
    ('noise3', 'output', 'single-ald:2'): "7f78cc15d07fc7c382de0885367b1e37ba0aa369e41e0f9ee74e3eb9f4d097fe",
    ('noise3', 'measurement', 'ensemble'): "43e6c61fd1422c96b8f72f625af3dca0e3691b4291dd2b1f2242f641943bd081",
    ('noise3', 'measurement', 'rls'): "76cb9c2ee19b077e1dc9c426e13045dbbd90ae59cc424bc9742ce2f6d95c5410",
    ('noise3', 'measurement', 'oracle'): "e5e0d2e4db9fd9d84cf38af25124b6c1089aca972517b22a466a253f2751b3cc",
    ('noise3', 'measurement', 'single-ald:0'): "5cf04715f5db89f1313fd4e6f610c472b661713cd03e1032e17c430b7b70e4bb",
    ('noise3', 'measurement', 'single-ald:1'): "be667b58c6761b5fdc27e337ce9db04000ee46c8523ed48548d045ef80625a4a",
    ('noise3', 'measurement', 'single-ald:2'): "71bc5a6a8df4f45fcb77dbfbf3d8cf216431c8c19c5799343f43cddaf7a30e0f",
    ('noise4', 'output', 'ensemble'): "69773e52dbc967809d9e7eeb229ec23b72d1b05395913aa17c059988b55d9732",
    ('noise4', 'output', 'rls'): "a1fab120591adb6329bbc6331325a0a5d95f878328e122de448c63f2ccf8fcab",
    ('noise4', 'output', 'oracle'): "a7d7cd30b68cf01f269da222fb721406d7352a7801834fa16dc15f51bb436e8b",
    ('noise4', 'output', 'single-ald:0'): "bb25cf0a43f589d7a339d38af1ff5d386cb9cea83c68e53f89cd83390c6bfc2b",
    ('noise4', 'output', 'single-ald:1'): "a10a0bd134b759ed8169ff60e32112f46f6e530de85e83f6ecbded9f2ccaa576",
    ('noise4', 'measurement', 'ensemble'): "9b2602cf9e4903db85d27c0b67bd05f42d4ab683aed2680da18bb356e5e3afb1",
    ('noise4', 'measurement', 'rls'): "ddfa9689139a3073e5d5fdfe27ea4b694107a1960ca2805fb44dc4d1e588b761",
    ('noise4', 'measurement', 'oracle'): "cc1b0f71ebadb137cda0cf7ce8e4b56482c958389b647c2817b70ed0abb73edf",
    ('noise4', 'measurement', 'single-ald:0'): "f9d335c69c272dd1dd321496c1a888d51d7c69ab96669ee7727dbc38dfdcb10a",
    ('noise4', 'measurement', 'single-ald:1'): "d6b32753b9c202a3da016fec4b5327da5a299c352c7f2164829e9c19be3feb5f",
}


@pytest.mark.parametrize("preset,feedback,token", sorted(TRACE_SHA256))
def test_trace_bytes_are_pinned(preset, feedback, token, tmp_path):
    cfg = replace(preset_config(preset), steps=300, seed=0, feedback=feedback, controller=token)
    path = tmp_path / "trace.csv"
    export_trace_csv(run_episode(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[(preset, feedback, token)]


def test_every_preset_feedback_and_token_is_pinned():
    expected = set()
    for preset in PRESETS:
        n_hyp = len(preset_config(preset).hypotheses)
        tokens = ["ensemble", "rls", "oracle"] + [f"single-ald:{i}" for i in range(n_hyp)]
        expected |= {(preset, fb, t) for fb in ("output", "measurement") for t in tokens}
    assert set(TRACE_SHA256) == expected


def test_nine_hypothesis_ensemble_trace_is_pinned(tmp_path):
    # S = 9 > 7, where np.add.reduce would sum pairwise: the one-row step and the array steps fold left
    taus, sigmas = np.linspace(0.1, 0.9, 9), np.geomspace(0.01, 2.0, 9)
    hypotheses = tuple(AldParams(float(t), 0.0, float(s)) for t, s in zip(taus, sigmas))
    cfg = replace(preset_config("noise1"), steps=300, seed=0, controller="ensemble", hypotheses=hypotheses)
    path = tmp_path / "trace.csv"
    export_trace_csv(run_episode(cfg), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "62951608ffcbdf1b16c3dab61cc79e7adfdfe6961cba02e257fb129feb4d465c"


def test_divergent_rls_episode_fails_at_pinned_step():
    cfg = replace(preset_config("base"), steps=1400, controller="rls", u_max=1e-12)
    tr = run_episode(cfg)
    assert (tr.failed, tr.fail_step) == (True, 1160)


@pytest.mark.parametrize(
    "args,digest",
    [
        (["--runs", "300"], "f9b91e6b8be8c8e89f5c4532956a96dbfa799575be142f64eb78080f1766fd1d"),
        # every bank has one subsystem, so no row is scored
        (
            ["--controllers", "rls,oracle,single-ald:0", "--runs", "100"],
            "76db00a0a305b21bece5147a6400cf34b95fda7c00206d35d348c3ee2f72f17d",
        ),
    ],
    ids=["noise1", "noise1-one-subsystem"],
)
def test_monte_carlo_summary_bytes_are_pinned(args, digest, tmp_path):
    path = tmp_path / "summary.csv"
    assert main(["montecarlo", "--preset", "noise1", *args, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
