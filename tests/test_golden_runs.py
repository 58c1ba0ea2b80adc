"""Golden digests of whole runs on the benchmark's version pairs.

Each perfbench workload's pair is generated at seeds 11 and 37 and run
through pipeline.run with the client the benchmark gives it: none for the
baseline, the scripted stub for M5 and the debate, and the fake endpoint,
with its latency and the backoff sleeps set to no-ops, for endpoint-m5.
Every artifact but the manifest, which holds the run's wall time, and
every prompt sent are compared with a committed sha256 digest. A change that alters an output on
purpose updates the digest here and says why. The order of a snapshot's
rows must not matter either: with the rows of both CSVs shuffled, the rows
of records.csv and predictions.csv are the same.
"""

import csv
import hashlib
import importlib
import json
import random
from pathlib import Path

import pytest

from driftlens import pipeline
from driftlens.llm import HttpChatClient, ScriptedChatClient

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def request_digest(req) -> str:
    """sha256 of the canonical JSON of what a request asks the model."""
    canonical = json.dumps(
        {"model": req.model, "system": req.system,
         "user_turns": [list(turn) for turn in req.user_turns],
         "temperature": req.temperature},
        sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_client(monkeypatch, workload, truth):
    fakes = importlib.import_module("fakes")
    subsets = importlib.import_module("workloads").TRANSITION_SUBSETS
    plan = fakes.ReplyPlan(row["new_path"] for row in truth if row["subset"] in subsets)
    if workload.client == "stub":
        config = workload.config
        return ScriptedChatClient(plan.stub_script("debate" if config.get("debate")
                                                   else config["method"]))
    monkeypatch.setattr(fakes, "BASE_LATENCY_S", 0.0)
    monkeypatch.setattr(fakes, "LATENCY_PER_CHAR_S", 0.0)
    return HttpChatClient(base_url="http://fake-endpoint.invalid/v1", api_key="golden",
                          max_in_flight=2, transport=fakes.FakeEndpoint(plan),
                          sleep=lambda s: None)


def run_digests(tmp_path, monkeypatch, name: str, seed: int) -> dict[str, str]:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synth = importlib.import_module("synth")
    workload = importlib.import_module("workloads").WORKLOADS[name]
    paths = synth.write_pair(workload.corpus, seed, tmp_path / "pair")
    truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
    out_dir = tmp_path / "out"
    config = pipeline.RunConfig(dataset="synth", old_csv=str(paths["old"]),
                                new_csv=str(paths["new"]), out_dir=str(out_dir),
                                max_in_flight=2, **workload.config)
    requests = []
    client = None
    if workload.client != "none":
        client = make_client(monkeypatch, workload, truth)
        inner = client.complete

        def complete(req):
            requests.append((req.tag, req.record_id, request_digest(req)))
            return inner(req)

        client.complete = complete
    pipeline.run(config, client=client)

    transcripts = hashlib.sha256()
    for path in sorted((out_dir / "transcripts").glob("*")):
        transcripts.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return {
        "records": sha((out_dir / "records.csv").read_bytes()),
        "predictions": sha((out_dir / "predictions.csv").read_bytes()),
        "transcripts": transcripts.hexdigest(),
        "report_txt": sha((out_dir / "report.txt").read_bytes()),
        "report_csv": sha((out_dir / "report.csv").read_bytes()),
        "requests": sha(json.dumps(sorted(requests)).encode("utf-8")),
    }


GOLDEN = {
    ("churn-m5", 11): {
        "records": "3a2fd9b6b9149ecd2581d9ea32ee29fefc3c61bd9c66db6cf2255ba194998ebc",
        "predictions": "d11489745fa12b7778f85fb7f45a9cf7e4bb197168f12f4dcbc5a4b7d99100e2",
        "transcripts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report_txt": "ba4bc86fead371e5bfcab7b80091fb347743543fa816ba3c6b921f6fe509afe0",
        "report_csv": "3d3ce45562e99e8260db14ffa98f0aaa0478289e70075c0b0bac0a5af0962953",
        "requests": "eaaf84c0ab30a5cd62fbe1e02bd8789430c1992c66f45dcac8c15652e7edb68c",
    },
    ("churn-m5", 37): {
        "records": "d7eeb68aa26f5325e6e4fc8c3afc719171ec1cb84c1d89d3c31a445934b21a9c",
        "predictions": "8241e0a744adc8a31f634a1a898f196000a50867a86578775886403e34c096f8",
        "transcripts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report_txt": "a3e2dd1df2dcec20d796e46c60263b34381077101ebdabd6ab2358031c04bf5d",
        "report_csv": "f1f2ec8a8467529972ec9547f418acf488d915dbc6179049976a0c775a9dd24f",
        "requests": "f8db33a14c6c19386543bb6cc7e8119fc52586cac446041590ce53f95fa466e9",
    },
    ("context-debate", 11): {
        "records": "5af67e842cced7015d7d6afef6d00fc7dd8074c10b6c5905e12f76abe86f04ae",
        "predictions": "fea4db3b4ee5a9d84a1c0ea1580ad576a89af577bc424a714afb5f997ca1bcaf",
        "transcripts": "c722317b93a02f9ff7f9472ffb7ccd85f52eb362a95a95ed1db7592dcb582e91",
        "report_txt": "1441cbd14094faaa25c316aab5222882d30bfacc254608adf87f68bcaa7c87eb",
        "report_csv": "a435bfc0ecab989f5bfe3fdcf3bd895a06210aa3fe68f8b8394267db7244cf00",
        "requests": "fe2bf4a87fdd7a55d238204767fc958196bf81e5db4eaf30fddc5b573ee4721f",
    },
    ("context-debate", 37): {
        "records": "6c57b8beefa89f8dc287dd085170ac499092b5e0bb1f31b138a7f32bfb423a33",
        "predictions": "512c45fab1e7fc466088421c5d958683d05cddca77da29acb494274757e146f3",
        "transcripts": "8a184c07af66cb64413cc7922ea1569386813dd7700cb687f5ca9e0c9548469c",
        "report_txt": "1441cbd14094faaa25c316aab5222882d30bfacc254608adf87f68bcaa7c87eb",
        "report_csv": "a435bfc0ecab989f5bfe3fdcf3bd895a06210aa3fe68f8b8394267db7244cf00",
        "requests": "8a6fbf7ecb2d563c3886b770f7e43bf96101ac684cd216cff1771d811d15eca4",
    },
    ("endpoint-m5", 11): {
        "records": "9cd68df0a4a1f0452d9990d3212843b85bb58dc3111bd23c50e45694ba61cc40",
        "predictions": "c8fcf855138e05bfc6bd91cab6f27770236f63a5441a85ef531418d334020275",
        "transcripts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report_txt": "c8c014b7ccb311ff5a6ec7c06196e6b1e825cf252d8fb510e83bc5749cd45e0f",
        "report_csv": "0f25da2374e360f23bdc8b26e2642587480b7692af58330c80732c07b9e59508",
        "requests": "9da9c7ca756d58dfba5d4a9c56b37987e94dc4c42cbc84cad25891fc82561950",
    },
    ("endpoint-m5", 37): {
        "records": "38ae17fc99554d60f840bfd2faf4cc11796b9b15953a0db3bfc0ff07483d4ee1",
        "predictions": "5b5ac97a26a869a6a0ccc708463d43ba16582040922883dd006624235a82f84b",
        "transcripts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report_txt": "96b2425de9cf4e7c6a5929a58067f80c26108ea93cb6aea086a16987537f4edc",
        "report_csv": "52523de9f8ed9777c9127576b16b385d8f5b707113b5574a6c497f9428c53b9f",
        "requests": "65de99f0605daeb9814b22fc6c79e3592cdeb4a93e1d0ab52a33f85a155e2e45",
    },
    ("rename-baseline", 11): {
        "records": "a9f69fa46a4e37a0ae0b22ac580dd3c7c2a9bbe1f6e4cc495185f2f62c38016a",
        "predictions": "9d888abd4b3668787ab16f02f98091e77a8309c79a1e6324914eda11e5e5db65",
        "transcripts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report_txt": "eafdaa070db8733f0e090492be58455aab4a2dda7ea1ea62adbf172a3a95d5d7",
        "report_csv": "3180d43bbf887a0078cc786face7f7a5be90e6e9fdac13dc5ac35212d86041e0",
        "requests": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    ("rename-baseline", 37): {
        "records": "4a7b2677636f4225ddf86312792f173f2d4768df7786c83c848380914ffb653b",
        "predictions": "89b0a4beb5f696f4a56056c3e6065810375aeb3b4d66794f72469743d8b279d5",
        "transcripts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report_txt": "03c4a67ec57e72ecace402f5a61eb46284944048894fb75a22047e0e7d448b27",
        "report_csv": "81b8ab34bee61db3e74cf4d427ee0b1f911be67eedf6a828b13d0c2091e802b0",
        "requests": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_run_artifacts_and_prompts_are_unchanged(tmp_path, monkeypatch, name, seed):
    assert run_digests(tmp_path, monkeypatch, name, seed) == GOLDEN[name, seed]


def shuffled_copy(src: Path, dst: Path, rng: random.Random) -> Path:
    """A copy of a snapshot CSV with its data rows in another order."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rng.shuffle(rows)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return dst


def sorted_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, sorted(rows)


@pytest.mark.parametrize("seed", [11, 37])
def test_rename_baseline_rows_are_unchanged_by_shuffled_snapshots(tmp_path, monkeypatch, seed):
    """The order of the snapshot rows changes no output row.

    This checks only that row order is not read. It does not pin the
    path-order tie-break: no query here ties all of its candidates at or
    above T, the one tie the gap test accepts. TestMatchFiles in
    test_matching.py pins that tie.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synth = importlib.import_module("synth")
    workload = importlib.import_module("workloads").WORKLOADS["rename-baseline"]
    paths = synth.write_pair(workload.corpus, seed, tmp_path / "pair")

    def rows(old_csv: Path, new_csv: Path, out_dir: Path):
        pipeline.run(pipeline.RunConfig(dataset="synth", old_csv=str(old_csv),
                                        new_csv=str(new_csv), out_dir=str(out_dir),
                                        **workload.config))
        return [sorted_rows(out_dir / name) for name in ("records.csv", "predictions.csv")]

    expected = rows(paths["old"], paths["new"], tmp_path / "out")
    rng = random.Random(seed)
    for k in range(3):
        old_csv = shuffled_copy(paths["old"], tmp_path / f"old{k}.csv", rng)
        new_csv = shuffled_copy(paths["new"], tmp_path / f"new{k}.csv", rng)
        assert rows(old_csv, new_csv, tmp_path / f"out{k}") == expected
