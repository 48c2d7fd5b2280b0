"""Command-line front end: seeded experiments, exact analysis, figure data.

Subcommands: ``simulate`` (trajectory CSVs + summary), ``verify`` (stochastic-stability
report as JSON), ``sweep`` (stationary-mass table across epsilons),
``replicator`` (continuum trajectory CSV) and ``presets``. Configuration
comes from built-in presets, an optional JSON config file, and flat flag
overrides, in increasing order of precedence. Each flag's ``dest`` is the
``RunConfig`` field it sets, except ``--p``, which sets the probability of the
chosen dynamic; a config value must have its field's type. ``main`` runs every
command but ``presets`` the same way: resolve the config, create the output
directory, call ``cmd_<command>``, then write metadata.json (the resolved
configuration, seeds, PRNG identity and package version) once it returns.

Exit codes: 0 success (verification passed or not applicable), 1 usage
error, 2 verification failure, 3 enumeration cap exceeded: more than 8,192
languages, a space to enumerate above ``chain.MAX_STATES`` states (K^N labelled,
or C(K+N-1, N) multisets), or a dense kernel too large for physical memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .chain import make_chain, sweep_stationary, verify_stability
from .dynamics import ImitationParams, LocalParams, random_profile_ids, run
from .errors import CapExceededError
from .languages import get_table, language_count
from .replicator import SUBOPTIMAL_REST_X0, integrate, payoff_matrix

PRESETS: dict[str, dict] = {
    "fig2": {
        "dynamic": "imitation",
        "m": 3,
        "n": 3,
        "N": 20,
        "revision_prob": 0.3,
        "epsilon": 0.01,
        "d": 3,
        "horizon": 300,
        "record_every": 1,
    },
    "fig3": {
        "dynamic": "localized",
        "m": 3,
        "n": 3,
        "N": 20,
        "epsilon": 0.01,
        "neighbor_prob": "uniform_random",
        "horizon": 1000,
        "record_every": 1,
    },
    "fig4": {
        "dynamic": "imitation",
        "m": 3,
        "n": 3,
        "N": 10,
        "revision_prob": 0.3,
        "epsilon": 0.2,
        "d": 3,
        "horizon": 50000,
        "record_every": 1,
    },
}


@dataclasses.dataclass
class RunConfig:
    """Resolved configuration for one CLI invocation."""

    command: str
    m: int = 2
    n: int = 2
    N: int = 3
    dynamic: str = "imitation"
    epsilon: float = 0.01
    d: int = 2
    revision_prob: float | list = 0.3
    neighbor_prob: float | str | list = 0.5
    horizon: int = 300
    record_every: int = 1
    seeds: list[int] = dataclasses.field(default_factory=lambda: [0])
    out: str = "signalgame_runs"
    snapshots: bool = False
    epsilons: list[float] = dataclasses.field(default_factory=lambda: [0.1, 0.03, 0.01, 0.003])
    sweep: bool = False
    dt: float = 0.01
    steps: int = 10000
    x0: str = "uniform"
    preset: str | None = None


# the value types each scalar field annotation admits; a float field takes an int too
_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}
# parser dests that name no RunConfig field
_NOT_FIELDS = ("config", "preset", "p", "command")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the interface contract."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _comma_list(kind: type) -> Callable[[str], list]:
    """An argparse type: a comma list of ``kind`` values, blank entries skipped."""
    def parse(text: str) -> list:
        return [kind(part) for part in text.split(",") if part.strip()]
    parse.__name__ = f"{kind.__name__} list"  # argparse names the type in its errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signalgame", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"signalgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", dest="seeds", action="extend", type=_comma_list(int),
                       default=None, help="seed (repeatable, comma lists allowed)")
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--eps", dest="epsilon", type=float, default=None,
                       help="mutation probability")
        p.add_argument("--p", type=float, default=None,
                       help="revision probability (imitation) / neighbour probability (localized)")
        p.add_argument("--dynamic", choices=["imitation", "localized"], default=None)

    sim = sub.add_parser("simulate", help="seeded trajectory runs")
    add_common(sim)
    sim.add_argument("--horizon", type=int, default=None)
    sim.add_argument("--record-every", type=int, default=None)
    sim.add_argument("--snapshots", action="store_true", default=None,
                     help="also write per-record profile snapshots as JSON lines")

    ver = sub.add_parser("verify", help="stochastic-stability verification report")
    add_common(ver)
    ver.add_argument("--sweep", action="store_true", default=None,
                     help="add the epsilon-sweep corroboration to the report")
    ver.add_argument("--eps-list", dest="epsilons", type=_comma_list(float), default=None,
                     help="comma list of sweep epsilons")

    sw = sub.add_parser("sweep", help="exact stationary masses across epsilons")
    add_common(sw)
    sw.add_argument("--eps-list", dest="epsilons", type=_comma_list(float), default=None,
                    help="comma list of epsilons")

    rep = sub.add_parser("replicator", help="continuum replicator trajectory")
    add_common(rep)
    rep.add_argument("--dt", type=float, default=None)
    rep.add_argument("--steps", type=int, default=None)
    rep.add_argument("--record-every", type=int, default=None)
    rep.add_argument("--x0", type=str, default=None,
                     help="uniform | vertex:<id> | fixture | path to a JSON vector")

    sub.add_parser("presets", help="print the preset definitions")
    return parser


def _holds(value, kind: str) -> bool:
    """Whether ``value`` has the type a field annotated ``kind`` needs.
    Union fields (the probabilities) are checked where they are used."""
    if kind.startswith("list["):
        return type(value) is list and all(_holds(v, kind[5:-1]) for v in value)
    return kind not in _TYPES or type(value) in _TYPES[kind]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge preset, config file and flags (flags win) into a RunConfig."""
    cfg = RunConfig(command=args.command)
    updates: dict = {}
    if args.preset:
        updates.update(PRESETS[args.preset])
        cfg.preset = args.preset
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        updates.update(file_cfg)
    updates.update((key, value) for key, value in vars(args).items()
                   if value is not None and key not in _NOT_FIELDS)
    if args.p is not None:
        key = "neighbor_prob" if updates.get("dynamic", cfg.dynamic) == "localized" else "revision_prob"
        updates[key] = args.p

    # the command and the preset come from argv and --preset only
    kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)
             if f.name not in ("command", "preset")}
    for key, value in updates.items():
        if key not in kinds:
            raise ValueError(f"unknown configuration field {key!r}")
        if not _holds(value, kinds[key]):
            raise ValueError(f"configuration field {key!r} must be {kinds[key]}, got {value!r}")
        setattr(cfg, key, value)
    if not cfg.seeds:
        raise ValueError("at least one seed is required")
    if not cfg.epsilons:
        raise ValueError("at least one epsilon is required")
    return cfg


def _make_params(cfg: RunConfig, rng: np.random.Generator | None = None):
    """Build the dynamics parameter object; draws random p_ij when asked to.
    A scalar probability stands for every agent (imitation) or every pair
    (localized); a per-agent list needs N entries, a neighbour matrix N rows of N."""
    imitation = cfg.dynamic == "imitation"
    probs = cfg.revision_prob if imitation else cfg.neighbor_prob
    if probs == "uniform_random" and not imitation:
        if rng is None:
            raise ValueError("uniform_random neighbour probabilities need a seeded run")
        matrix = rng.random((cfg.N, cfg.N))
        while (matrix == 0.0).any():  # open interval (0, 1)
            redraw = matrix == 0.0
            matrix[redraw] = rng.random(int(redraw.sum()))
        probs = matrix.tolist()
    elif isinstance(probs, (int, float)):
        probs = [probs] * cfg.N if imitation else [[probs] * cfg.N] * cfg.N
    if isinstance(probs, list) and len(probs) != cfg.N:
        raise ValueError(f"per-agent probabilities must list N={cfg.N} entries, got {len(probs)}")
    if imitation:
        return ImitationParams(cfg.epsilon, cfg.d, tuple(float(p) for p in probs))
    if cfg.dynamic == "localized":
        return LocalParams(cfg.epsilon, tuple(tuple(float(p) for p in row) for row in probs))
    raise ValueError(f"unknown dynamic {cfg.dynamic!r}")


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    table = get_table(cfg.m, cfg.n)
    tail_start = cfg.horizon // 2
    per_seed = []
    for seed in cfg.seeds:
        rng = np.random.default_rng(seed)
        params = _make_params(cfg, rng)  # fig3 draws its p_ij matrix here
        initial = random_profile_ids(table, cfg.N, rng)
        traj = run(initial, cfg.dynamic, params, cfg.horizon, cfg.record_every,
                   rng=rng, table=table)
        (out_dir / f"traj_seed{seed}.csv").write_text(traj.to_csv())
        if cfg.snapshots:
            lines = [json.dumps({"t": rec.t, "ids": list(rec.ids)}) for rec in traj.records]
            (out_dir / f"profiles_seed{seed}.jsonl").write_text("\n".join(lines) + "\n")
        tail = [rec.n_aligned / traj.n_agents for rec in traj.records if rec.t >= tail_start]
        per_seed.append(
            {
                "seed": seed,
                "tail_mean_frac_aligned": sum(tail) / len(tail),
                "terminal_majority_lang_id": traj.records[-1].majority_id,
                "terminal_frac_aligned": traj.records[-1].n_aligned / traj.n_agents,
            }
        )
    summary = {
        "tail_window_start": tail_start,
        "seeds": per_seed,
        "mean_tail_frac_aligned": sum(s["tail_mean_frac_aligned"] for s in per_seed)
        / len(per_seed),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    model = make_chain(get_table(cfg.m, cfg.n), _make_params(cfg))
    report = verify_stability(model, cfg.epsilons if cfg.sweep else ())
    text = report.to_json()
    (out_dir / "verify_report.json").write_text(text)
    print(text)
    return 0 if report.verdict in ("pass", "degenerate") else 2


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    model = make_chain(get_table(cfg.m, cfg.n), _make_params(cfg))
    rows = sweep_stationary(model, cfg.epsilons)
    lines = ["eps,optimal_mass,top_state_id,top_state_mass"]
    for row in rows:
        lines.append(
            f"{row['eps']!r},{row['optimal_mass']!r},{row['top_state_id']},"
            f"{row['top_state_mass']!r}"
        )
    csv_text = "\n".join(lines) + "\n"
    (out_dir / "sweep.csv").write_text(csv_text)
    print(csv_text, end="")
    return 0


def _resolve_x0(spec: str, K: int) -> np.ndarray:
    if spec == "uniform":
        return np.full(K, 1.0 / K)
    if spec == "fixture":
        if K != len(SUBOPTIMAL_REST_X0):
            raise ValueError("the suboptimal-rest fixture is defined for m=n=2")
        return np.asarray(SUBOPTIMAL_REST_X0)
    if spec.startswith("vertex:"):
        k = int(spec.split(":", 1)[1])
        if not 0 <= k < K:
            raise ValueError(f"vertex id {k} out of range [0, {K})")
        x0 = np.zeros(K)
        x0[k] = 1.0
        return x0
    data = json.loads(Path(spec).read_text())
    x0 = np.asarray(data, dtype=float)
    if x0.shape != (K,):
        raise ValueError(f"x0 vector must have length {K}")
    return x0


def cmd_replicator(cfg: RunConfig, out_dir: Path) -> int:
    A = payoff_matrix(cfg.m, cfg.n)
    K = language_count(cfg.m, cfg.n)
    x0 = _resolve_x0(cfg.x0, K)
    traj = integrate(x0, A, dt=cfg.dt, steps=cfg.steps, record_every=cfg.record_every)
    header = "t,W," + ",".join(f"x_{k}" for k in range(K))
    lines = [header]
    w_path = traj.mean_fitness_path.tolist()
    last = len(w_path) - 1
    for idx, (t, state) in enumerate(zip(traj.times.tolist(), traj.states)):
        w = w_path[min(idx * cfg.record_every, last)]
        lines.append(f"{t!r},{w!r}," + ",".join(map(repr, state.tolist())))
    (out_dir / "replicator.csv").write_text("\n".join(lines) + "\n")
    print(json.dumps({"terminal_W": float(traj.mean_fitness_path[-1]),
                      "terminal_rhs_inf": traj.terminal_rhs_inf,
                      "max_sum_err": traj.max_sum_err}, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "presets":
        print(json.dumps(PRESETS, indent=2, sort_keys=True))
        return 0
    try:
        cfg = resolve_config(args)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # looked up at call time, so a wrapper set on the module attribute runs
        code = globals()[f"cmd_{cfg.command}"](cfg, out_dir)
        metadata = {"config": dataclasses.asdict(cfg), "prng": "numpy.random.default_rng (PCG64)",
                    "numpy_version": np.__version__, "signalgame_version": __version__}
        (out_dir / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True))
        return code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
