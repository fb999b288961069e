import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import infranet
from infranet import agent, baselines, cli, embed, harness, netgen, serial, transfer
from infranet.cascade import RewardWeights
from infranet.cli import build_parser, main
from infranet.graph import JUNCTION, NORMAL, STATION, CoupledGraph

from conftest import make_toy_chain


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small graph plus trained embedding and value net, built via the CLI."""
    d = tmp_path_factory.mktemp("cli")
    graph = d / "g.json"
    emb = d / "emb.bin"
    qnet = d / "q.bin"
    assert main(["generate", "--seed", "5", "--road-nodes", "25",
                 "--coupling-fraction", "0.6", "--out", str(graph)]) == 0
    assert main(["embed", "--graph", str(graph), "--d", "6", "--epochs", "5",
                 "--out", str(emb)]) == 0
    assert main(["train", "--graph", str(graph), "--emb", str(emb),
                 "--budget", "3", "--episodes", "3", "--batch-size", "4",
                 "--buffer-size", "32", "--out", str(qnet)]) == 0
    return d


def test_generate_writes_valid_graph(tmp_path):
    out = tmp_path / "g.json"
    main(["generate", "--seed", "1", "--road-nodes", "16", "--out", str(out)])
    g = CoupledGraph.from_file(out)
    assert g.n > 16
    assert json.loads(out.read_text())["version"] == 2


def test_generate_preset_and_overrides(tmp_path):
    out = tmp_path / "g.json"
    main(["generate", "--preset", "desk", "--seed", "0", "--road-nodes", "64",
          "--out", str(out)])
    g = CoupledGraph.from_file(out)
    assert len(g.junction_ids()) == 64


def test_generate_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--seed", "9", "--road-nodes", "20"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_attack_csv(tmp_path, workdir):
    out = tmp_path / "rep.csv"
    main(["attack", "--graph", str(workdir / "g.json"), "--nodes", "0,1",
          "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "step,node,power,sigma,gcc,anc,reward,cum_reward"
    assert len(lines) == 4


def test_attack_explicit_weights(tmp_path, workdir):
    out = tmp_path / "rep.csv"
    main(["attack", "--graph", str(workdir / "g.json"), "--nodes", "0",
          "--weights", "ae=1.0,ar=0.0", "--out", str(out)])
    assert out.exists()


def test_baseline_kinds(tmp_path, workdir):
    graph = str(workdir / "g.json")
    for kind in ("de", "ci", "random"):
        out = tmp_path / f"{kind}.csv"
        main(["baseline", "--kind", kind, "--graph", graph, "--budget", "3",
              "--out", str(out)])
        assert len(out.read_text().splitlines()) == 5
    out = tmp_path / "gdm.csv"
    main(["baseline", "--kind", "gdm", "--graph", graph, "--budget", "3",
          "--emb", str(workdir / "emb.bin"), "--out", str(out)])
    assert out.exists()


def cli_error(capsys, argv):
    """The stderr of a command that must fail with status 2 and one error line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("infranet: error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("text", ["ae=1", "ae=x,ar=1", "junk", "ae=1,ar=2,ae=3",
                                  "ar=1,ae=2,ar=3"])
def test_malformed_weights_exit(tmp_path, workdir, capsys, text):
    err = cli_error(capsys, ["attack", "--graph", str(workdir / "g.json"), "--nodes", "0",
                             "--weights", text, "--out", str(tmp_path / "rep.csv")])
    assert f"--weights {text!r}: expected 'normalized' or 'ae=<float>,ar=<float>'" in err


@pytest.mark.parametrize("argv", [
    ["attack", "--nodes", "0"],
    ["train", "--emb", "missing.bin"],
    ["baseline", "--kind", "gdm", "--emb", "missing.bin"],
    ["transfer", "--emb", "missing.bin", "--qnet", "missing.bin"],
], ids=lambda argv: argv[0])
def test_weights_are_checked_before_any_file_is_read(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a.startswith("missing") else a for a in argv]
    err = cli_error(capsys, argv + ["--graph", str(tmp_path / "missing.json"),
                                    "--weights", "junk", "--out", str(tmp_path / "out")])
    assert err.startswith("infranet: error: --weights 'junk': expected"), err


def test_baseline_kinds_are_harness_baselines():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in sub.choices["baseline"]._actions if a.dest == "kind")
    baselines = {m for m, spec in harness.METHODS.items() if spec.baseline}
    assert set(kind.choices) == baselines == {"de", "ci", "gdm", "random"}


def test_baseline_matches_report_cell(tmp_path, workdir, monkeypatch):
    graph, emb = str(workdir / "g.json"), str(workdir / "emb.bin")
    kinds = ["de", "ci", "random", "gdm"]
    # report trains its own embedding; give it the one the baseline reads
    loaded = embed.load_embedding(emb)
    monkeypatch.setattr(embed, "train_coupled", lambda g, cfg: (loaded, None, None))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"graph": {"file": graph}, "methods": kinds,
                                "budget": 3, "seeds": [1], "ci_radius": 2}))
    main(["report", "--plan", str(plan), "--out", str(tmp_path / "report"),
          "--no-svg"])
    for kind in kinds:
        out = tmp_path / f"{kind}.csv"
        main(["baseline", "--kind", kind, "--graph", graph, "--emb", emb,
              "--budget", "3", "--seed", "1", "--radius", "2", "--out", str(out)])
        cell = tmp_path / "report" / f"{kind}_seed1.csv"
        assert out.read_bytes() == cell.read_bytes(), kind


def test_embedding_without_rows_exits_with_one_error_line(tmp_path, workdir, capsys):
    # a well-formed tensor file may hold a (0, n) array; init bounds are 1/sqrt(d)
    graph = str(workdir / "g.json")
    emb = tmp_path / "emb_d0.bin"
    n = CoupledGraph.from_file(graph).n
    serial.write_tensors(emb, [np.zeros((0, n))], d=0, n_nodes=n, depth=0)
    for argv in (["train", "--episodes", "1"], ["baseline", "--kind", "gdm"]):
        err = cli_error(capsys, argv + ["--graph", graph, "--emb", str(emb), "--budget", "2",
                                        "--out", str(tmp_path / "out")])
        assert "embedding matrix has no rows" in err, (argv, err)
    assert not (tmp_path / "out").exists()


def test_baseline_gdm_requires_emb(tmp_path, workdir):
    with pytest.raises(SystemExit):
        main(["baseline", "--kind", "gdm", "--graph", str(workdir / "g.json"),
              "--budget", "2", "--out", str(tmp_path / "x.csv")])


def test_train_writes_qnet_and_log(tmp_path, workdir):
    out = tmp_path / "q.bin"
    log = tmp_path / "log.csv"
    main(["train", "--graph", str(workdir / "g.json"),
          "--emb", str(workdir / "emb.bin"), "--budget", "2",
          "--episodes", "2", "--batch-size", "4", "--buffer-size", "16",
          "--out", str(out), "--log", str(log)])
    assert out.read_bytes()[:4] == b"NVDT"
    lines = log.read_text().splitlines()
    assert lines[0].startswith("episode")
    assert len(lines) == 3


def test_train_sizes_its_buffer_to_the_run(tmp_path, workdir):
    # 10**12 slots would need terabytes; the run pushes 2 transitions
    assert main(["train", "--graph", str(workdir / "g.json"), "--emb", str(workdir / "emb.bin"),
                 "--episodes", "1", "--budget", "2", "--buffer-size", "1000000000000",
                 "--out", str(tmp_path / "q.bin")]) == 0


def test_cli_pipeline_computes_what_the_library_computes(tmp_path):
    # every tensor file a command reads holds the float64 arrays the previous
    # command computed, so the CLI pipeline and the in-process one agree bit for bit
    files = {name: str(tmp_path / name) for name in
             ("g.json", "emb.bin", "q.bin", "log.csv", "transfer.csv", "gdm.csv")}
    assert main(["generate", "--seed", "3", "--road-nodes", "30", "--out", files["g.json"]]) == 0
    assert main(["embed", "--graph", files["g.json"], "--d", "6", "--epochs", "5",
                 "--out", files["emb.bin"]]) == 0
    assert main(["train", "--graph", files["g.json"], "--emb", files["emb.bin"],
                 "--budget", "3", "--episodes", "6", "--batch-size", "4",
                 "--buffer-size", "32", "--out", files["q.bin"], "--log", files["log.csv"]]) == 0
    assert main(["transfer", "--graph", files["g.json"], "--emb", files["emb.bin"],
                 "--qnet", files["q.bin"], "--budget", "3", "--retrain-epochs", "3",
                 "--out", files["transfer.csv"]]) == 0
    assert main(["baseline", "--kind", "gdm", "--graph", files["g.json"],
                 "--emb", files["emb.bin"], "--budget", "3", "--out", files["gdm.csv"]]) == 0

    g = CoupledGraph.from_file(files["g.json"])
    emb, _, _ = embed.train_coupled(g, embed.EmbedConfig(d=6, epochs=5))
    params, log = agent.train(g, emb, agent.AgentConfig(budget=3, episodes=6, batch_size=4,
                                                        buffer_size=32))
    assert embed.load_embedding(files["emb.bin"]).Z.tobytes() == emb.Z.tobytes()
    loaded = agent.load_qnet(files["q.bin"])
    assert loaded.theta1.tobytes() == params.theta1.tobytes()
    assert loaded.theta2.tobytes() == params.theta2.tobytes()
    g_mask = transfer.mask_graph(g, transfer.MaskSpec())
    new_emb, _ = transfer.retrain(g_mask, emb, transfer.RetrainConfig(epochs=3))
    log.save_csv(tmp_path / "lib_log.csv")
    transfer.transfer_attack(g_mask, new_emb, params, 3).save_csv(tmp_path / "lib_transfer.csv")
    baselines.gdm_attack(g, emb, 3).save_csv(tmp_path / "lib_gdm.csv")
    for name in ("log.csv", "transfer.csv", "gdm.csv"):
        assert Path(files[name]).read_bytes() == (tmp_path / f"lib_{name}").read_bytes(), name


def test_transfer_runs(tmp_path, workdir):
    out = tmp_path / "transfer.csv"
    main(["transfer", "--graph", str(workdir / "g.json"),
          "--emb", str(workdir / "emb.bin"), "--qnet", str(workdir / "q.bin"),
          "--budget", "2", "--retrain-epochs", "5", "--out", str(out)])
    assert len(out.read_text().splitlines()) == 4


def test_transfer_weights_normalized_on_mask_graph(tmp_path, workdir):
    # unequal fractions: the masked graph's intact power and sigma differ
    out = tmp_path / "transfer.csv"
    main(["transfer", "--graph", str(workdir / "g.json"),
          "--emb", str(workdir / "emb.bin"), "--qnet", str(workdir / "q.bin"),
          "--budget", "2", "--retrain-epochs", "5", "--mask-delete", "0.3",
          "--mask-add", "0", "--seed", "2", "--out", str(out)])
    g = CoupledGraph.from_file(workdir / "g.json")
    g_mask = transfer.mask_graph(g, transfer.MaskSpec(delete_fraction=0.3,
                                                      add_fraction=0.0, seed=2))
    weights = RewardWeights.normalized(g_mask)
    assert weights != RewardWeights.normalized(g)
    new_emb, _ = transfer.retrain(g_mask, embed.load_embedding(workdir / "emb.bin"),
                                  transfer.RetrainConfig(epochs=5, seed=2))
    rep = transfer.transfer_attack(g_mask, new_emb, agent.load_qnet(workdir / "q.bin"),
                                   2, weights)
    rep.save_csv(tmp_path / "library.csv")
    assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_transfer_mask_out_feeds_ci_baseline(tmp_path, workdir):
    mask = tmp_path / "mask.json"
    main(["transfer", "--graph", str(workdir / "g.json"),
          "--emb", str(workdir / "emb.bin"), "--qnet", str(workdir / "q.bin"),
          "--budget", "3", "--retrain-epochs", "2", "--seed", "4",
          "--out", str(tmp_path / "transfer.csv"), "--mask-out", str(mask)])
    g_mask = transfer.mask_graph(CoupledGraph.from_file(workdir / "g.json"),
                                 transfer.MaskSpec(seed=4))
    assert mask.read_text() == g_mask.to_json()
    out = tmp_path / "ci.csv"
    main(["baseline", "--kind", "ci", "--graph", str(mask), "--budget", "3",
          "--out", str(out)])
    baselines.ci_attack(g_mask, 3, weights=RewardWeights.normalized(g_mask)).save_csv(
        tmp_path / "library.csv")
    assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_transfer_rejects_nonpositive_retrain_lr(tmp_path, workdir, capsys):
    err = cli_error(capsys, ["transfer", "--graph", str(workdir / "g.json"),
                             "--emb", str(workdir / "emb.bin"), "--qnet", str(workdir / "q.bin"),
                             "--retrain-lr", "-1", "--out", str(tmp_path / "transfer.csv")])
    assert err == "infranet: error: lr must be > 0, got -1.0\n"
    with pytest.raises(transfer.TransferError, match="lr must be > 0, got -1.0"):
        transfer.RetrainConfig(lr=-1.0)


def test_transfer_checks_budget_before_retraining(tmp_path, workdir, capsys, monkeypatch):
    def no_retrain(*args, **kwargs):
        raise AssertionError("transfer.retrain ran before the budget check")

    monkeypatch.setattr(transfer, "retrain", no_retrain)
    g_mask = transfer.mask_graph(CoupledGraph.from_file(workdir / "g.json"),
                                 transfer.MaskSpec(seed=0))
    normal = int(np.count_nonzero(g_mask.state == NORMAL))
    mask = tmp_path / "mask.json"
    for budget, message in [(-2, "budget must be >= 1, got -2"),
                            (normal + 1, f"budget {normal + 1} exceeds the {normal} Normal nodes")]:
        err = cli_error(capsys, ["transfer", "--graph", str(workdir / "g.json"),
                                 "--emb", str(workdir / "emb.bin"), "--qnet", str(workdir / "q.bin"),
                                 "--budget", str(budget), "--mask-out", str(mask),
                                 "--out", str(tmp_path / "transfer.csv")])
        assert message in err, err
    assert not mask.exists() and not (tmp_path / "transfer.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--emb", "emb.bin", "--lr", "inf"], "lr must be finite, got inf"),
    (["embed", "--margin", "inf"], "margin must be finite, got inf"),
    (["embed", "--l2", "inf"], "l2 must be finite, got inf"),
    (["transfer", "--emb", "emb.bin", "--qnet", "q.bin", "--retrain-lr", "inf"],
     "lr must be finite, got inf"),
    (["transfer", "--emb", "emb.bin", "--qnet", "q.bin", "--distance-weight", "inf"],
     "distance_weight must be finite, got inf"),
    (["transfer", "--emb", "emb.bin", "--qnet", "q.bin", "--weights", "junk"],
     "--weights 'junk': expected"),
], ids=["train-lr", "embed-margin", "embed-l2", "transfer-retrain-lr", "transfer-distance-weight",
        "transfer-weights"])
def test_bad_flag_fails_before_any_training_or_output(tmp_path, workdir, capsys, monkeypatch,
                                                      argv, message):
    def no_training(*args, **kwargs):
        raise AssertionError("training started before the flags were checked")

    for module, name in ((embed, "train_coupled"), (agent, "train"), (transfer, "retrain")):
        monkeypatch.setattr(module, name, no_training)
    out, mask = tmp_path / "out", tmp_path / "mask.json"
    argv = [str(workdir / a) if a.endswith(".bin") else a for a in argv]
    if argv[0] == "transfer":
        argv += ["--mask-out", str(mask)]
    err = cli_error(capsys, argv + ["--graph", str(workdir / "g.json"), "--out", str(out)])
    assert err.startswith(f"infranet: error: {message}"), err
    assert not out.exists() and not mask.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--lr", "1e300", "--episodes", "20"], "TD loss diverged at episode"),
    (["embed", "--lr", "1e300", "--epochs", "5"], "training diverged at epoch"),
    (["transfer", "--qnet", "q.bin", "--retrain-lr", "1e300", "--retrain-epochs", "5"],
     "training diverged at epoch"),
    (["report", "gdm"], "GDM training diverged at epoch"),
], ids=["train", "embed", "transfer", "report"])
def test_diverging_training_prints_one_error_line(tmp_path, workdir, capsys, argv, message):
    # no warning may escape on the way: the suite turns warnings into errors
    out = str(tmp_path / "out")
    if argv[0] == "report":
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"graph": {"file": str(workdir / "g.json")},
                                    "methods": ["gdm"], "budget": 3,
                                    "embed": {"d": 4, "epochs": 3}, "gdm": {"lr": 1e300}}))
        argv = ["report", "--plan", str(plan), "--out", out]
    else:
        argv = [str(workdir / a) if a.endswith(".bin") else a for a in argv]
        argv += ["--graph", str(workdir / "g.json"), "--out", out]
        if argv[0] != "embed":
            argv += ["--emb", str(workdir / "emb.bin")]
    assert message in cli_error(capsys, argv)


# the configs each subcommand builds from its flags
COMMAND_CONFIGS = {
    "generate": (netgen.GenConfig,),
    "embed": (embed.EmbedConfig,),
    "train": (agent.AgentConfig,),
    "transfer": (transfer.MaskSpec, transfer.RetrainConfig),
    "baseline": (harness.ExperimentPlan,),
}


def test_config_flags_state_no_default():
    # a flag left out takes its config's default; --seed keeps the configs' own
    # default 0 (the seed also reaches functions that take no config), and
    # --weights is parsed into RewardWeights before it reaches a config
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    checked = 0
    for command, classes in COMMAND_CONFIGS.items():
        names = {f.name for cls in classes for f in dataclasses.fields(cls)}
        for action in commands[command]._actions:
            if action.dest == "seed":
                assert action.default == 0, command
            elif action.dest in names and action.dest != "weights":
                assert action.default is None, (command, action.dest)
                checked += 1
    assert checked == 7 + 8 + 8 + 5 + 2


class Captured(Exception):
    """Stops a command once the stubbed stage has seen its config."""


def test_required_flags_alone_build_default_configs(tmp_path, workdir, monkeypatch):
    seen = []

    def capture(*args):     # each stage takes its config last
        seen.append(args[-1])
        raise Captured

    def capture_mask(g, spec):
        seen.append(spec)
        return g

    monkeypatch.setattr(cli, "generate", capture)
    monkeypatch.setattr(embed, "train_coupled", capture)
    monkeypatch.setattr(agent, "train", capture)
    monkeypatch.setattr(transfer, "mask_graph", capture_mask)
    monkeypatch.setattr(transfer, "retrain", capture)
    monkeypatch.setattr(harness.ExperimentPlan, "load_graph", capture)
    graph, emb, out = str(workdir / "g.json"), str(workdir / "emb.bin"), str(tmp_path / "out")
    for argv in (["generate"], ["embed", "--graph", graph],
                 ["train", "--graph", graph, "--emb", emb],
                 ["transfer", "--graph", graph, "--emb", emb, "--qnet", str(workdir / "q.bin")],
                 ["baseline", "--kind", "de", "--graph", graph]):
        with pytest.raises(Captured):
            main(argv + ["--out", out])
    assert seen == [netgen.GenConfig(), embed.EmbedConfig(), agent.AgentConfig(),
                    transfer.MaskSpec(), transfer.RetrainConfig(),
                    harness.ExperimentPlan(graph_file=graph, methods=("de",), seeds=(0,))]
    assert not (tmp_path / "out").exists()


def test_report_runs_plan(tmp_path, workdir):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "graph": {"file": str(workdir / "g.json")},
        "methods": ["de", "random"],
        "budget": 3,
        "seeds": [0, 1],
    }))
    outdir = tmp_path / "out"
    main(["report", "--plan", str(plan), "--out", str(outdir)])
    names = {p.name for p in outdir.iterdir()}
    assert {"summary.csv", "curves.csv", "de_seed0.csv",
            "random_seed1.csv"} <= names
    assert "power.svg" in names


def test_cli_byte_determinism(tmp_path, workdir):
    # identical flags give byte-identical outputs across invocations
    graph = str(workdir / "g.json")
    for name, args in {
        "bl": ["baseline", "--kind", "random", "--graph", graph,
               "--budget", "3", "--seed", "2"],
        "at": ["attack", "--graph", graph, "--nodes", "0,3,5"],
    }.items():
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_embed_exits_with_embed_error_on_a_complete_coupled_graph(tmp_path, capsys):
    # one 10kV station supplying one junction: the coupled graph's one pair
    # is an edge, so no negative is left to sample
    graph = tmp_path / "pair.json"
    CoupledGraph(kind=[STATION, JUNCTION], level=[10, 0], load=[5.0, 0.0], elec_edges=[],
                 road_edges=[], dep_edges=[(0, 1)]).save(graph)
    argv = ["embed", "--graph", str(graph), "--d", "4", "--epochs", "2",
            "--out", str(tmp_path / "emb.bin")]
    message = ("nothing to train on: 1 edge(s) among 2 node(s); "
               "training needs an edge and a non-edge pair")
    assert cli_error(capsys, argv) == f"infranet: error: {message}\n"
    assert not (tmp_path / "emb.bin").exists()
    with pytest.raises(embed.EmbedError) as exc:
        embed.train_coupled(CoupledGraph.from_file(graph), embed.EmbedConfig(d=4, epochs=2))
    assert str(exc.value) == message


@pytest.mark.parametrize("gen", [
    netgen.GenConfig(seed=3, road_nodes=2),
    netgen.GenConfig(n_220=1, fanout_110=(1, 1), fanout_10=(0, 0), coupling_fraction=0.0),
], ids=["road-edge", "elec-pair"])
def test_embed_succeeds_on_a_graph_with_a_complete_layer(tmp_path, gen):
    # a layer whose nodes are all joined gets random columns, as an empty
    # layer does, and the coupled graph still trains
    graph, out = tmp_path / "g.json", tmp_path / "emb.bin"
    g = netgen.generate(gen)
    g.save(graph)
    assert main(["embed", "--graph", str(graph), "--d", "4", "--epochs", "2",
                 "--out", str(out)]) == 0
    want, _, _ = embed.train_coupled(g, embed.EmbedConfig(d=4, epochs=2))
    assert embed.load_embedding(out).Z.tobytes() == want.Z.tobytes()


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_import_loads_no_scipy():
    # importing scipy costs a fresh process about 0.2 s and 20 MB; the package
    # and its command line must not pull it in
    code = ("import infranet, infranet.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(infranet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_bad_input_exits_with_one_error_line(tmp_path, workdir, capsys, monkeypatch):
    graph, out = str(workdir / "g.json"), str(tmp_path / "out.csv")
    truncated = tmp_path / "truncated.json"
    truncated.write_bytes((workdir / "g.json").read_bytes()[:100])
    emb, qnet = str(workdir / "emb.bin"), str(workdir / "q.bin")
    g = CoupledGraph.from_file(graph)
    emb_d4, emb_other = str(tmp_path / "emb_d4.bin"), str(tmp_path / "emb_other.bin")
    embed.save_embedding(emb_d4, embed.random_embeddings(g, 4, 0))
    embed.save_embedding(emb_other, embed.random_embeddings(make_toy_chain(), 6, 0))
    for argv, message in [
        (["baseline", "--kind", "de", "--budget", "-2"], "budget must be >= 1, got -2"),
        (["baseline", "--kind", "ci", "--budget", "0"], "budget must be >= 1, got 0"),
        (["baseline", "--kind", "random", "--budget", "-2"], "budget must be >= 1, got -2"),
        (["baseline", "--kind", "gdm", "--emb", emb, "--budget", "-2"],
         "budget must be >= 1, got -2"),
        (["baseline", "--kind", "gdm"], "--kind gdm needs --emb"),
        (["baseline", "--kind", "ci", "--radius", "0"], "CI radius must be >= 1"),
        (["transfer", "--emb", emb, "--qnet", qnet, "--budget", "-2", "--retrain-epochs", "1"],
         "budget must be >= 1, got -2"),
        (["attack", "--nodes", "99999"], "step 0: node id 99999 out of range"),
        (["attack", "--nodes", "0,-1"], "step 1: node id -1 out of range"),
        (["attack", "--nodes", "1,x"], "--nodes '1,x': expected comma-separated integer node ids"),
        (["attack", "--nodes", "0", "--weights", "ae=nan,ar=1"], "weights must be nonnegative and finite"),
        (["transfer", "--emb", emb_d4, "--qnet", qnet, "--retrain-epochs", "1"],
         "--qnet was trained at d=6, but --emb has d=4"),
        (["baseline", "--kind", "gdm", "--emb", emb_other],
         "embedding column count does not match the graph"),
    ]:
        err = cli_error(capsys, argv + ["--graph", graph, "--out", out])
        assert message in err, (argv, err)
    for flag, bounds, name in [("--fanout-10", ["3", "99999999999999999999"], "fanout_10"),
                               ("--fanout-110", ["1", str(2**63 - 1)], "fanout_110"),
                               ("--load-range", ["0", str(2**63)], "load_range")]:
        err = cli_error(capsys, ["generate", flag, *bounds, "--out", out])
        assert f"{name} must satisfy 0 <= low <= high <= {2**63 - 2}" in err, err
    for path, message in [(truncated, "graph document is not valid JSON"),
                          (tmp_path / "nope.json", "No such file or directory")]:
        err = cli_error(capsys, ["attack", "--graph", str(path), "--nodes", "0", "--out", out])
        assert message in err, err
    plan = tmp_path / "plan.json"
    for doc, message in [
        ({"graph": {"file": graph}, "methods": ["random"], "seeds": [-1]},
         "plan key 'seeds' must be a list of integers >= 0, got [-1]"),
        ({"graph": {"preset": "desk", "seed": -1}}, "graph seed must be >= 0, got -1"),
        ({"graph": {"file": graph}, "embed": {"seed": -1}},
         "plan block 'embed': seed must be >= 0, got -1"),
        ({"graph": {"preset": "desk"}, "methods": ["de", "de"], "seeds": [0, 0], "budget": 3},
         "plan key 'methods' repeats 'de'; list each once"),
        ({"graph": {"file": graph}, "methods": ["random"], "seeds": [2, 2]},
         "plan key 'seeds' repeats 2; list each once"),
    ]:
        plan.write_text(json.dumps(doc))
        err = cli_error(capsys, ["report", "--plan", str(plan), "--out", str(tmp_path / "rep")])
        assert message in err, (doc, err)
    plan.write_text(json.dumps({"graph": {"file": graph}, "methods": ["de"]}))
    for threads in ("abc", "0", "-3", " ", "1.5"):
        monkeypatch.setenv("INFRA_THREADS", threads)
        err = cli_error(capsys, ["report", "--plan", str(plan), "--out", str(tmp_path / "rep")])
        assert f"INFRA_THREADS must be an integer >= 1, got {threads!r}" in err, err
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "g.json"],
    ["embed", "--graph", "g.json", "--out", "emb.bin"],
    ["train", "--graph", "g.json", "--emb", "emb.bin", "--out", "q.bin"],
    ["baseline", "--kind", "random", "--graph", "g.json", "--out", "r.csv"],
    ["transfer", "--graph", "g.json", "--emb", "emb.bin", "--qnet", "q.bin", "--out", "t.csv"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-3"])
    assert exc.value.code == 2
    assert "argument --seed: expected an integer >= 0, got '-3'" in capsys.readouterr().err


def test_program_faults_keep_their_traceback(tmp_path, workdir, monkeypatch):
    # a ValueError from outside the package is a fault, not bad input
    def broken(*args, **kwargs):
        raise ValueError("broken")
    monkeypatch.setattr(baselines, "de_ranking", broken)
    with pytest.raises(ValueError, match="broken"):
        main(["baseline", "--kind", "de", "--graph", str(workdir / "g.json"),
              "--out", str(tmp_path / "de.csv")])


FLAG_TEXT = st.one_of(st.integers(-3, 70).map(str), st.sampled_from(
    ["-99999", "99999", "10" * 12, "0", "1.5", "x", "", "nan"]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["de", "ci", "random"]), budget=FLAG_TEXT, radius=FLAG_TEXT,
       seed=FLAG_TEXT, nodes=st.lists(FLAG_TEXT, min_size=1, max_size=3).map(",".join),
       weights=st.sampled_from(["normalized", "ae=1,ar=0", "ae=0,ar=0", "ae=-1,ar=2",
                                "ae=inf,ar=1", "ae=1", "ar=1,ae=2.5", "junk"]),
       graph=st.sampled_from(["tiny", "missing", "garbage", "version3"]))
def test_flag_values_succeed_or_exit_2(tmp_path, capsys, kind, budget, radius, seed, nodes,
                                       weights, graph):
    # on a 6-node graph every flag value either runs or exits with status 2
    files = tmp_path / "flags"
    files.mkdir(exist_ok=True)
    path = files / f"{graph}.json"
    path.write_text({"tiny": make_toy_chain().to_json(), "missing": "",
                     "garbage": '{"version": 2, "kind": ["station"',
                     "version3": '{"version": 3}'}[graph])
    if graph == "missing":
        path.unlink()
    out = str(files / "out.csv")
    for argv in (["baseline", "--kind", kind, "--budget", budget, "--radius", radius,
                  "--seed", seed],
                 ["attack", "--nodes", nodes]):
        try:
            main(argv + ["--weights", weights, "--graph", str(path), "--out", out])
        except SystemExit as e:
            assert e.code == 2
    capsys.readouterr()


# half the draws take a value every float flag accepts, so runs also succeed
FLOAT_TEXT = st.one_of(st.just("0.1"), st.sampled_from(
    ["inf", "-inf", "nan", "1e300", "-0.0", "0", "0.5", "2", "-1"]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["train", "embed", "transfer"]),
       values=st.lists(FLOAT_TEXT, min_size=4, max_size=4))
@example(command="embed", values=["2", "1e300", "2", "0.1"])   # finite, huge embeddings
def test_float_flags_succeed_or_exit_2(tmp_path, workdir, capsys, command, values):
    # every float flag of the training commands either runs or fails with one
    # error line; no warning may escape (the suite turns warnings into errors)
    files = {name: str(workdir / f) for name, f in
             (("graph", "g.json"), ("emb", "emb.bin"), ("qnet", "q.bin"))}
    argv = {
        "train": ["--emb", files["emb"], "--budget", "2", "--episodes", "2", "--batch-size", "2",
                  "--buffer-size", "8"],
        "embed": ["--d", "4", "--epochs", "2"],
        "transfer": ["--emb", files["emb"], "--qnet", files["qnet"], "--budget", "2",
                     "--retrain-epochs", "2"],
    }[command]
    flags = {"train": ["--lr", "--gamma", "--eps-end"],
             "embed": ["--lr", "--margin", "--l2"],
             "transfer": ["--mask-delete", "--mask-add", "--distance-weight",
                          "--retrain-lr"]}[command]
    argv += [f"{flag}={value}" for flag, value in zip(flags, values)]
    try:
        assert main([command, "--graph", files["graph"], "--out", str(tmp_path / "out"),
                     *argv]) == 0
    except SystemExit as e:
        err = capsys.readouterr().err
        assert e.code == 2 and err.startswith("infranet: error: ") and err.count("\n") == 1, err
    capsys.readouterr()
