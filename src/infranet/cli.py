"""Command-line interface.

Subcommands: generate, embed, attack, train, baseline, transfer, report.
Every invocation is deterministic given its flags and seeds. A config flag
left out takes its config's default, which only the config states. A bad input
file or flag value exits with status 2 and one `infranet: error: ...` line;
a flag that argparse rejects (`--seed -1`, `--budget x`) prints its usage too.
`--weights` is checked before any file is read.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import agent as agent_mod
from . import cascade, embed as embed_mod, harness, transfer as transfer_mod
from .cascade import RewardWeights
from .graph import CoupledGraph
from .netgen import GenConfig, PRESETS, ROAD_MODELS, generate, preset_config


_WEIGHTS_FORM = "'normalized' or 'ae=<float>,ar=<float>'"


class UsageError(ValueError):
    """A flag value the parser cannot check on its own."""


def _parse_nodes(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--nodes {text!r}: expected comma-separated integer node ids") from None


def _parse_weights(text: str) -> RewardWeights:
    """None for 'normalized': the attack then scales by the graph's intact totals."""
    if text == "normalized":
        return None
    pairs = sorted(kv.partition("=")[::2] for kv in text.split(","))
    try:
        if [k for k, _ in pairs] != ["ae", "ar"]:
            raise ValueError(text)
        a_e, a_r = (float(v) for _, v in pairs)
    except ValueError:
        raise UsageError(f"--weights {text!r}: expected {_WEIGHTS_FORM}") from None
    return RewardWeights(a_e=a_e, a_r=a_r)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _given(args, cls) -> dict:
    """The flags the user gave that name fields of config `cls`, as tuples
    where argparse made lists; the config supplies every other value."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {k: tuple(v) if isinstance(v, list) else v for k, v in given.items() if v is not None}


def _add_weights_flag(p):
    p.add_argument("--weights", default="normalized", help=_WEIGHTS_FORM)


def cmd_generate(args):
    given = _given(args, GenConfig)
    g = generate(preset_config(args.preset, **given) if args.preset else GenConfig(**given))
    g.save(args.out)
    print(f"wrote {args.out}: {g.n} nodes, "
          f"{len(g.elec_edges)} elec / {len(g.road_edges)} road / "
          f"{len(g.dep_edges)} dep edges")


def cmd_embed(args):
    g = CoupledGraph.from_file(args.graph)
    cfg = embed_mod.EmbedConfig(**_given(args, embed_mod.EmbedConfig))
    emb, params, losses = embed_mod.train_coupled(g, cfg)
    embed_mod.save_embedding(args.out, emb, cfg)
    print(f"wrote {args.out}: d={emb.d}, n={emb.n}, "
          f"final loss {losses[-1]:.6f}" if losses else f"wrote {args.out}")


def cmd_attack(args):
    weights = _parse_weights(args.weights)
    g = CoupledGraph.from_file(args.graph)
    nodes = _parse_nodes(args.nodes)
    rep = cascade.replay_attack(g, nodes, weights, method="attack")
    rep.save_csv(args.out)
    print(f"wrote {args.out}: cum_reward {rep.final_cum_reward!r}")


def cmd_train(args):
    weights = _parse_weights(args.weights)
    g = CoupledGraph.from_file(args.graph)
    emb = embed_mod.load_embedding(args.emb)
    cfg = agent_mod.AgentConfig(**_given(args, agent_mod.AgentConfig) | {"weights": weights})
    params, log = agent_mod.train(g, emb, cfg)
    agent_mod.save_qnet(args.out, params, cfg)
    if args.log:
        log.save_csv(args.log)
    ran = f"last episode cum_reward {log.cum_reward[-1]!r}" if log.cum_reward else "no episode ran"
    print(f"wrote {args.out}; {ran}")


def cmd_baseline(args):
    given = _given(args, harness.ExperimentPlan) | {"weights": _parse_weights(args.weights)}
    plan = harness.ExperimentPlan(graph_file=args.graph, methods=(args.kind,),
                                  seeds=(args.seed,), **given)
    g = plan.load_graph()
    method = harness.METHODS[args.kind]
    emb = None
    if method.needs_embedding:
        if not args.emb:
            raise UsageError(f"--kind {args.kind} needs --emb")
        emb = embed_mod.load_embedding(args.emb)
    rep = method.run(g, emb, plan, args.seed)
    rep.save_csv(args.out)
    print(f"wrote {args.out}: cum_reward {rep.final_cum_reward!r}")


def cmd_transfer(args):
    weights = _parse_weights(args.weights)
    g = CoupledGraph.from_file(args.graph)
    emb = embed_mod.load_embedding(args.emb)
    params = agent_mod.load_qnet(args.qnet)
    if params.theta2.shape[0] != emb.d:
        raise agent_mod.AgentError(f"--qnet was trained at d={params.theta2.shape[0]}, "
                                   f"but --emb has d={emb.d}")
    spec = transfer_mod.MaskSpec(**_given(args, transfer_mod.MaskSpec))
    rcfg = transfer_mod.RetrainConfig(**_given(args, transfer_mod.RetrainConfig))
    g_mask = transfer_mod.mask_graph(g, spec)
    cascade.check_budget(g_mask, args.budget, agent_mod.AgentError)
    if args.mask_out:
        g_mask.save(args.mask_out)
    new_emb, _ = transfer_mod.retrain(g_mask, emb, rcfg)
    rep = transfer_mod.transfer_attack(g_mask, new_emb, params, args.budget, weights)
    rep.save_csv(args.out)
    print(f"wrote {args.out}: cum_reward {rep.final_cum_reward!r}")


def cmd_report(args):
    with open(args.plan, "rb") as f:
        plan = harness.ExperimentPlan.from_json(f.read())
    reports = harness.run_plan(plan, args.out)
    harness.emit_curves(reports.values(), args.out, svg=not args.no_svg)
    print(f"wrote {len(reports)} reports plus summary.csv and curves.csv to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="infranet",
                                description="interdependent-network vulnerability toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic coupled graph")
    g.add_argument("--preset", choices=sorted(PRESETS))
    g.add_argument("--seed", type=non_negative_int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--n-220", dest="n_220", type=int)
    g.add_argument("--fanout-110", dest="fanout_110", nargs=2, type=int,
                   metavar=("LO", "HI"))
    g.add_argument("--fanout-10", dest="fanout_10", nargs=2, type=int,
                   metavar=("LO", "HI"))
    g.add_argument("--road-nodes", dest="road_nodes", type=int)
    g.add_argument("--road-model", dest="road_model", choices=ROAD_MODELS)
    g.add_argument("--coupling-fraction", dest="coupling_fraction", type=float)
    g.add_argument("--load-range", dest="load_range", nargs=2, type=int,
                   metavar=("LO", "HI"))
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("embed", help="train GNN node embeddings")
    e.add_argument("--graph", required=True)
    e.add_argument("--d", type=int)
    e.add_argument("--depth", type=int)
    e.add_argument("--epochs", type=int)
    e.add_argument("--margin", type=float)
    e.add_argument("--l2", type=float)
    e.add_argument("--lr", type=float)
    e.add_argument("--neg-ratio", dest="neg_ratio", type=int)
    e.add_argument("--aggregator", choices=embed_mod.AGGREGATORS)
    e.add_argument("--seed", type=non_negative_int, default=0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_embed)

    a = sub.add_parser("attack", help="damage a fixed node sequence")
    a.add_argument("--graph", required=True)
    a.add_argument("--nodes", required=True, help="comma-separated node ids")
    _add_weights_flag(a)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_attack)

    t = sub.add_parser("train", help="train the DQN detector")
    t.add_argument("--graph", required=True)
    t.add_argument("--emb", required=True)
    t.add_argument("--budget", type=int)
    t.add_argument("--episodes", type=int)
    t.add_argument("--gamma", type=float)
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--target-sync", dest="target_sync", type=int)
    t.add_argument("--buffer-size", dest="buffer_size", type=int)
    t.add_argument("--eps-end", dest="eps_end", type=float)
    t.add_argument("--seed", type=non_negative_int, default=0)
    _add_weights_flag(t)
    t.add_argument("--out", required=True)
    t.add_argument("--log")
    t.set_defaults(func=cmd_train)

    b = sub.add_parser("baseline", help="run a baseline attack")
    b.add_argument("--kind", required=True,
                   choices=[m for m, spec in harness.METHODS.items() if spec.baseline])
    b.add_argument("--graph", required=True)
    b.add_argument("--emb")
    b.add_argument("--budget", type=int)
    b.add_argument("--radius", dest="ci_radius", type=int, metavar="RADIUS")
    b.add_argument("--seed", type=non_negative_int, default=0)
    _add_weights_flag(b)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_baseline)

    tr = sub.add_parser("transfer", help="mask graph, retrain embeddings, attack")
    tr.add_argument("--graph", required=True)
    tr.add_argument("--mask-delete", dest="delete_fraction", type=float, metavar="MASK_DELETE")
    tr.add_argument("--mask-add", dest="add_fraction", type=float, metavar="MASK_ADD")
    tr.add_argument("--emb", required=True)
    tr.add_argument("--qnet", required=True)
    tr.add_argument("--budget", type=int, default=10)
    tr.add_argument("--retrain-epochs", dest="epochs", type=int, metavar="RETRAIN_EPOCHS")
    tr.add_argument("--distance-weight", dest="distance_weight", type=float)
    tr.add_argument("--retrain-lr", dest="lr", type=float, metavar="RETRAIN_LR")
    tr.add_argument("--seed", type=non_negative_int, default=0)
    _add_weights_flag(tr)
    tr.add_argument("--out", required=True)
    tr.add_argument("--mask-out", dest="mask_out",
                    help="also write the mask graph it attacks, as graph JSON")
    tr.set_defaults(func=cmd_transfer)

    r = sub.add_parser("report", help="run an experiment plan")
    r.add_argument("--plan", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--no-svg", action="store_true")
    r.set_defaults(func=cmd_report)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (OSError, ValueError) as e:
        # file errors and the package's own errors report bad input; any
        # other ValueError is a fault in the program and keeps its traceback.
        # UsageError is named because `python -m` runs this module as __main__.
        if not (isinstance(e, (OSError, UsageError))
                or type(e).__module__.startswith(f"{__package__}.")):
            raise
        parser.exit(2, f"{parser.prog}: error: {e}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
