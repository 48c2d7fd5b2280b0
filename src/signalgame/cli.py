"""Command-line front end: seeded experiments, exact analysis, figure data.

Subcommands: ``simulate`` (trajectory CSVs + summary), ``verify`` (stochastic-stability
report as JSON), ``sweep`` (stationary-mass table across epsilons),
``replicator`` (continuum trajectory CSV) and ``presets``. Configuration comes
from a built-in preset (``simulate`` only), an optional JSON config file, then flat
flags, flags winning. ``_COMMANDS`` lists each command's flags, one per
``RunConfig`` field it reads (``--p`` sets the probability of the chosen dynamic);
a file value for another field, or of the wrong type, is refused. ``main`` runs
every command but ``presets`` alike: resolve the config, create the output
directory, call ``cmd_<command>``, then write metadata.json (the fields read, PRNG
identity, package version); a failed run removes the directories it made while empty.

Exit codes: 0 success (verification passed or not applicable), 1 usage
error or a failed numeric solve (an epsilon whose kernel underflows float64),
2 verification failure, 3 enumeration cap exceeded: more than 8,192
languages, a space to enumerate above ``chain.MAX_STATES`` states, or a dense
kernel too large for physical memory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import shutil
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .chain import _indented_json, make_chain, space_size, sweep_stationary, verify_stability
from .dynamics import CsvRows, ImitationParams, LocalParams, check_steps, random_profile_ids, run
from .errors import CapExceededError, ConvergenceError
from .languages import get_table
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


# Every flag with its argparse options; its dest names the RunConfig field it sets.
_FLAGS: dict[str, dict] = {
    "--config": dict(help="JSON config file"),
    "--preset": dict(choices=sorted(PRESETS)),
    "--out": dict(help="output directory"),
    "--seed": dict(dest="seeds", action="extend", type=_comma_list(int),
                   help="seed (repeatable, comma lists allowed)"),
    "--m": dict(type=int),
    "--n": dict(type=int),
    "--N": dict(type=int),
    "--dynamic": dict(choices=["imitation", "localized"]),
    "--eps": dict(dest="epsilon", type=float, help="mutation probability"),
    "--d": dict(type=int),
    "--p": dict(type=float, help="revision (imitation) or neighbour (localized) probability"),
    "--horizon": dict(type=int),
    "--record-every": dict(type=int),
    "--snapshots": dict(action="store_true", help="also write profile snapshots as JSON lines"),
    "--sweep": dict(action="store_true", help="add the epsilon-sweep corroboration to the report"),
    "--eps-list": dict(dest="epsilons", type=_comma_list(float), help="comma list of epsilons"),
    "--dt": dict(type=float),
    "--steps": dict(type=int),
    "--x0": dict(help="uniform | vertex:<id> | fixture | path to a JSON vector"),
}
_CHAIN = "--config --out --m --n --N --dynamic --d --p"  # the flags verify and sweep share
# Each command takes the flags of the fields it reads, and nothing else.
_COMMANDS = {
    "simulate": ("seeded trajectory runs", "--config --preset --out --seed --m --n --N --dynamic "
                 "--eps --d --p --horizon --record-every --snapshots"),
    "verify": ("stochastic-stability verification report", f"{_CHAIN} --sweep --eps-list"),
    "sweep": ("exact stationary masses across epsilons", f"{_CHAIN} --eps-list"),
    "replicator": ("continuum replicator trajectory",
                   "--config --out --m --n --dt --steps --record-every --x0"),
}


def build_parser() -> argparse.ArgumentParser:
    # argparse's formatter reads the terminal width each time one is made, once per flag
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser("signalgame", description=__doc__.split("\n\n")[0], formatter_class=formatter)
    parser.add_argument("--version", action="version", version=f"signalgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, flags) in _COMMANDS.items():
        # no abbreviations: verify would otherwise read --eps as --eps-list
        command = sub.add_parser(name, help=summary, allow_abbrev=False, formatter_class=formatter)
        for flag in flags.split():
            command.add_argument(flag, default=None, **_FLAGS[flag])
    sub.add_parser("presets", help="print the preset definitions", formatter_class=formatter)
    return parser


def _read_fields(args: argparse.Namespace) -> set[str]:
    """The RunConfig fields the parsed command reads: its dests, --p for both probabilities."""
    dests = set(vars(args)) - {"config", "p"}
    return dests | {"revision_prob", "neighbor_prob"} if "p" in vars(args) else dests


def _holds(value, kind: str) -> bool:
    """Whether ``value`` has the type a field annotated ``kind`` needs.
    Union fields (the probabilities) are checked where they are used."""
    if kind.startswith("list["):
        return type(value) is list and all(_holds(v, kind[5:-1]) for v in value)
    return kind not in _TYPES or type(value) in _TYPES[kind]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge preset, config file and flags (flags win) into the command's RunConfig fields."""
    cfg = RunConfig(command=args.command)
    updates: dict = {}
    if getattr(args, "preset", None):
        updates.update(PRESETS[args.preset])
        cfg.preset = args.preset
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        updates.update(file_cfg)
    fields = _read_fields(args) - {"command", "preset"}
    updates.update((key, value) for key, value in vars(args).items()
                   if value is not None and key in fields)
    if getattr(args, "p", None) is not None:
        key = "neighbor_prob" if updates.get("dynamic", cfg.dynamic) == "localized" else "revision_prob"
        updates[key] = args.p

    kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for key, value in updates.items():
        if key not in fields:
            raise ValueError(f"unknown configuration field {key!r} for {cfg.command}")
        if not _holds(value, kinds[key]):
            raise ValueError(f"configuration field {key!r} must be {kinds[key]}, got {value!r}")
        setattr(cfg, key, value)
    if "sweep" in fields and "epsilons" in updates and not cfg.sweep:
        raise ValueError(f"{cfg.command} reads epsilons only with sweep")
    for key in ("seeds", "epsilons"):
        values = getattr(cfg, key)
        if not values:
            raise ValueError(f"at least one {key[:-1]} is required")
        if len(set(values)) < len(values):
            raise ValueError(f"{key} must not repeat a value, got {values!r}")
    if min(cfg.seeds) < 0:  # default_rng refuses them, but only when that seed's turn comes
        raise ValueError(f"seeds must be non-negative, got {cfg.seeds!r}")
    return cfg


def _make_params(cfg: RunConfig, rng: np.random.Generator | None = None):
    """Build the dynamics parameter object; draws random p_ij when asked to.
    A scalar probability stands for every agent (imitation) or every pair
    (localized); a per-agent list needs N entries, a neighbour matrix N rows of N,
    and every probability is an int or a float (not a bool, not a string)."""
    imitation = cfg.dynamic == "imitation"
    field = "revision_prob" if imitation else "neighbor_prob"
    probs = getattr(cfg, field)
    if probs == "uniform_random" and not imitation:
        if rng is None:
            raise ValueError("uniform_random neighbour probabilities need a seeded run")
        matrix = rng.random((cfg.N, cfg.N))
        while (matrix == 0.0).any():  # open interval (0, 1)
            redraw = matrix == 0.0
            matrix[redraw] = rng.random(int(redraw.sum()))
        probs = matrix.tolist()
    elif isinstance(probs, str):
        raise ValueError(f'{field} must be a number, a list or "uniform_random" (localized only), '
                         f'got {probs!r}')
    elif type(probs) in (int, float):
        probs = [probs] * cfg.N if imitation else [[probs] * cfg.N] * cfg.N
    if type(probs) is not list or len(probs) != cfg.N:
        raise ValueError(f"{field} must list N={cfg.N} entries, got {probs!r}")
    for row in [probs] if imitation else probs:
        if type(row) is not list or len(row) != cfg.N:
            raise ValueError(f"{field} must be a square matrix, N={cfg.N} rows of {cfg.N}, "
                             f"got the row {row!r}")
        if any(type(p) not in (int, float) for p in row):
            raise ValueError(f"{field} entries must be numbers, got {row!r}")
    if imitation:
        return ImitationParams(cfg.epsilon, cfg.d, tuple(float(p) for p in probs))
    if cfg.dynamic == "localized":
        return LocalParams(cfg.epsilon, tuple(tuple(float(p) for p in row) for row in probs))
    raise ValueError(f"unknown dynamic {cfg.dynamic!r}")


class _SeedStream(CsvRows):
    """One seed's sink: rows and --snapshots lines to disk, summary sums left to right."""

    def __init__(self, csv, snapshots, cfg: RunConfig, aligned_ids):
        super().__init__(csv.write, cfg.N, aligned_ids)
        self.snapshots, self.tail_start = snapshots, cfg.horizon // 2
        self.tail_sum, self.tail_n, self.ids = 0.0, 0, None

    def append(self, rec) -> None:
        super().append(rec)
        if self.snapshots:  # json.dumps({"t": t, "ids": [...]}) bytes, formatted directly
            if rec.ids is not self.ids:  # the records of one profile share its ids tuple
                self.ids, self.ids_text = rec.ids, f'"ids": [{", ".join(map(str, rec.ids))}]}}\n'
            self.snapshots.write(f'{{"t": {rec.t}, {self.ids_text}')
        if rec.t >= self.tail_start:
            self.tail_sum += rec.n_aligned / self.N
            self.tail_n += 1
        self.terminal = rec


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    check_steps(cfg.horizon, cfg.record_every)  # refused before any output file is opened
    table = get_table(cfg.m, cfg.n)
    per_seed, total = [], 0.0
    for seed in cfg.seeds:
        rng = np.random.default_rng(seed)
        params = _make_params(cfg, rng)  # fig3 draws its p_ij matrix here
        initial = random_profile_ids(table, cfg.N, rng)
        with (open(out_dir / f"traj_seed{seed}.csv", "w") as csv,
              open(out_dir / f"profiles_seed{seed}.jsonl", "w") if cfg.snapshots
              else contextlib.nullcontext() as snapshots):
            sink = _SeedStream(csv, snapshots, cfg, table.aligned_ids)
            run(initial, cfg.dynamic, params, cfg.horizon, cfg.record_every,
                rng=rng, table=table, sink=sink)
        tail_mean = sink.tail_sum / sink.tail_n
        total += tail_mean
        per_seed.append({"seed": seed, "tail_mean_frac_aligned": tail_mean,
                         "terminal_majority_lang_id": sink.terminal.majority_id,
                         "terminal_frac_aligned": sink.terminal.n_aligned / cfg.N})
    summary = {"tail_window_start": cfg.horizon // 2, "seeds": per_seed,
               "mean_tail_frac_aligned": total / len(per_seed)}
    (out_dir / "summary.json").write_text(text := _indented_json(summary))
    print(text)
    return 0


def _chain(cfg: RunConfig):
    """The chain of a verify or sweep run. Its multisets, the smallest space either command
    enumerates, are checked against the cap first: the per-agent probabilities of a large N
    would take minutes to build. A labelled space is refused where the chain builds it."""
    table = get_table(cfg.m, cfg.n)
    space_size(table.size, max(cfg.N, 0), multisets=True)  # the parameters refuse N < 2
    return make_chain(table, _make_params(cfg))


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    model = _chain(cfg)
    report = verify_stability(model, cfg.epsilons if cfg.sweep else ())
    (out_dir / "verify_report.json").write_text(text := report.to_json())
    print(text)
    return 0 if report.verdict in ("pass", "degenerate") else 2


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    model = _chain(cfg)
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
    K = len(A)
    x0 = _resolve_x0(cfg.x0, K)
    traj = integrate(x0, A, dt=cfg.dt, steps=cfg.steps, record_every=cfg.record_every)
    w_path = traj.mean_fitness_path.tolist()
    last = len(w_path) - 1
    with open(out_dir / "replicator.csv", "w") as csv:
        csv.write("t,W," + ",".join(f"x_{k}" for k in range(K)) + "\n")
        for idx, (t, state) in enumerate(zip(traj.times.tolist(), traj.states.tolist())):
            w = w_path[min(idx * cfg.record_every, last)]
            csv.write(f"{t!r},{w!r}," + ",".join(map(repr, state)) + "\n")
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
        print(_indented_json(PRESETS))
        return 0
    made = []
    try:
        cfg = resolve_config(args)
        out_dir = Path(cfg.out)
        # the levels mkdir creates, leaf first, up to the first missing ancestor
        made = list(itertools.takewhile(lambda level: not level.exists(),
                                        [out_dir, *out_dir.parents]))
        out_dir.mkdir(parents=True, exist_ok=True)
        # looked up at call time, so a wrapper set on the module attribute runs
        code = globals()[f"cmd_{cfg.command}"](cfg, out_dir)
        config = {key: getattr(cfg, key) for key in _read_fields(args)}
        metadata = {"config": config, "prng": "numpy.random.default_rng (PCG64)",
                    "numpy_version": np.__version__, "signalgame_version": __version__}
        (out_dir / "metadata.json").write_text(_indented_json(metadata))
        return code
    except (CapExceededError, ConvergenceError, ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):  # what this run made goes, leaf first, while empty
            for level in made:
                level.rmdir()
        return 3 if isinstance(exc, CapExceededError) else 1


if __name__ == "__main__":
    sys.exit(main())
