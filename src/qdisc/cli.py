"""Batch command-line front end.

Subcommands:
    verify    run the identity-check registry, emit a JSON report
    tabulate  fundamental-solution table (n, y, g1, g2), optionally density
    transform spectral table (rho, density, fhat) of an input element
    greens    kernel coefficient table and Green solutions of an input
    limit     classical-limit error sweep over (q, t)

Shared flags: --q, --config <json>, --out <path>, --format csv|json.
The config file mirrors the run configuration; explicit flags win.
Exit codes: 0 pass, 1 check failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields

from . import green as G
from . import spherical as S
from .context import Q_MAX, Q_MIN, QContext
from .discalg import (
    DiscElement,
    delta_fn,
    element_from_json_dict,
    load_element,
    save_element,
)
from .errors import DomainError, QDiscError
from .verify import run_registry

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    command: str
    q: float = 0.5
    series_tol: float = 1e-14
    grid_horizon: int = 64
    out: str | None = None
    format: str = "csv"
    nmax: int = 40
    node_count: int = 1024
    checks: list[str] = field(default_factory=list)
    q_list: list[float] = field(default_factory=lambda: [0.9, 0.99, 0.999])
    t_list: list[float] = field(default_factory=lambda: [0.25, 0.5, 0.75])
    input: dict | str | None = None
    with_density: bool = False
    coef_terms: int = 30

    def validate(self) -> None:
        hints = typing.get_type_hints(RunConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, hints[f.name]):
                raise DomainError(f"config value {f.name}={value!r} is not of type {f.type}")
        # limit builds no context from q: its --q only sets q_list
        if self.command != "limit" and not (Q_MIN <= self.q <= Q_MAX):
            raise DomainError(f"q must lie in [{Q_MIN}, {Q_MAX}]")
        if self.series_tol <= 0:
            raise DomainError("series_tol must be positive")
        if self.format not in ("csv", "json"):
            raise DomainError("format must be csv or json")
        if self.grid_horizon < 1:
            raise DomainError("grid_horizon must be positive")
        if self.nmax < 0:
            raise DomainError("nmax must be nonnegative")
        if self.node_count < 1:
            raise DomainError("node_count must be positive")
        if self.coef_terms < 1:
            raise DomainError("coef_terms must be positive")
        for name in ("q_list", "t_list"):
            if not getattr(self, name):
                raise DomainError(f"{name} must be nonempty")

    def context(self) -> QContext:
        return QContext(self.q, series_tol=self.series_tol, grid_horizon=self.grid_horizon)


def _fits(value, hint) -> bool:
    """Whether a config value has its field's type; a bool is no number."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_patterns(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


_SHARED = [("--q", {"type": float}), ("--config", {}), ("--out", {}), ("--format", {"choices": ("csv", "json")})]
_INPUT = ("--input", {"help": "path to a serialized element (default: centre delta)"})
# each subcommand's own flags, after the shared ones.  Every dest but
# config's is a RunConfig field, and a flag left out sets nothing
# (argparse.SUPPRESS), so the config's value or the default stands.
_FLAGS = {
    "verify": [
        ("--checks", {
            "type": _check_patterns,
            "help": "comma-separated name substrings to select checks; each must match one",
        }),
    ],
    "tabulate": [("--nmax", {"type": int}), ("--with-density", {"action": "store_true"})],
    "transform": [_INPUT, ("--nodes", {"type": int, "dest": "node_count", "metavar": "NODES"})],
    "greens": [_INPUT],
    "limit": [],
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qdisc", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, own in _FLAGS.items():
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag, options in _SHARED + own:
            sp.add_argument(flag, **options)
    return p


def _load_config(args) -> RunConfig:
    flags = dict(vars(args))
    cfg = RunConfig(command=flags.pop("command"))
    path = flags.pop("config", None)
    if path:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise IOError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DomainError("config must be a JSON object")
        keys = {f.name for f in fields(cfg)}
        for key, val in doc.items():
            if key not in keys:
                raise DomainError(f"unknown config key {key!r}")
            if key == "command" and val != cfg.command:
                raise DomainError(f"config command {val!r} is not the subcommand {cfg.command!r}")
            setattr(cfg, key, val)
        # a malformed config is an error even where a flag replaces the value
        cfg.validate()
    if "q" in flags:
        # limit reads no context: its --q is its q list
        flags["q_list"] = [flags["q"]]
    for name, value in flags.items():
        setattr(cfg, name, value)
    cfg.validate()
    return cfg


def _emit_table(rows: list[dict], fmt: str, out: str | None) -> None:
    """rows as JSON, or as CSV under a header of their keys (str of a float
    is its repr)."""
    if fmt == "json":
        text = json.dumps(rows, indent=1)
    else:
        lines = [",".join(rows[0]), *(",".join(map(str, row.values())) for row in rows)]
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write output: {exc}") from exc


def _input_element(cfg: RunConfig, ctx: QContext) -> DiscElement:
    if cfg.input is None:
        return delta_fn(0, ctx)
    if isinstance(cfg.input, dict):
        return element_from_json_dict(cfg.input, ctx)
    try:
        return load_element(cfg.input, ctx)
    except OSError as exc:
        raise IOError(f"cannot read input element: {exc}") from exc


def cmd_verify(cfg: RunConfig) -> int:
    ctx = cfg.context()
    results = run_registry(ctx, cfg.checks or None)
    report = {
        "q": cfg.q,
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
    _write(json.dumps(report, indent=1) + "\n", cfg.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_tabulate(cfg: RunConfig) -> int:
    ctx = cfg.context()
    npts = min(cfg.nmax + 1, ctx.npoints)
    g1 = G.g_radial_grid(1, ctx, npts)
    g2 = G.g_radial_grid(2, ctx, npts)
    yg = ctx.ygrid(npts)
    rows = [
        {
            "n": n,
            "y": float(yg[n]),
            "g1": float(g1.values[n].real),
            "g2": float(g2.values[n].real),
        }
        for n in range(npts)
    ]
    _emit_table(rows, cfg.format, cfg.out)
    if cfg.with_density:
        rhos = S._nodes(cfg.node_count, ctx)
        pairs = zip(rhos, S.sigma_density(rhos, ctx))
        dens = [{"rho": float(r), "density": float(d)} for r, d in pairs]
        _emit_table(dens, cfg.format, (cfg.out + ".density") if cfg.out else None)
    return EXIT_OK


def cmd_transform(cfg: RunConfig) -> int:
    ctx = cfg.context()
    el = _input_element(cfg, ctx)
    radial = el.sector(0)
    F = S.transform_forward(radial, ctx, cfg.node_count)
    rows = [
        {
            "rho": float(rho),
            "density": float(d),
            "fhat_re": float(val.real),
            "fhat_im": float(val.imag),
        }
        for rho, d, val in zip(F.nodes, S.sigma_density(F.nodes, ctx), F.values)
    ]
    _emit_table(rows, cfg.format, cfg.out)
    return EXIT_OK


def cmd_greens(cfg: RunConfig) -> int:
    ctx = cfg.context()
    el = _input_element(cfg, ctx)
    # both orders are solved before anything is written, so a failed solve
    # leaves no file
    sols = {order: G.green_solve(el, order, ctx) for order in (1, 2)}
    rows = []
    for m in range(1, cfg.coef_terms + 1):
        rows.append(
            {
                "m": m,
                "coef_order1": G.coef_order1(m, ctx.q),
                "coef_order2_direct": G.coef_order2(m, ctx.q),
                "coef_order2_log": (1.0 - ctx.q2) / ctx.h * G.coef_order1(m, ctx.q),
            }
        )
    _emit_table(rows, cfg.format, cfg.out)
    if cfg.out:
        for order, sol in sols.items():
            save_element(sol, f"{cfg.out}.solution{order}.json")
    return EXIT_OK


def cmd_limit(cfg: RunConfig) -> int:
    rows = [asdict(r) for r in G.classical_limit_report(cfg.t_list, cfg.q_list)]
    _emit_table(rows, cfg.format, cfg.out)
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "tabulate": cmd_tabulate,
    "transform": cmd_transform,
    "greens": cmd_greens,
    "limit": cmd_limit,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args)
    except (DomainError, ValueError) as exc:
        sys.stderr.write(f"qdisc: usage error: {exc}\n")
        return EXIT_USAGE
    except IOError as exc:
        sys.stderr.write(f"qdisc: {exc}\n")
        return EXIT_IO
    try:
        return _COMMANDS[cfg.command](cfg)
    except IOError as exc:
        sys.stderr.write(f"qdisc: {exc}\n")
        return EXIT_IO
    except QDiscError as exc:
        sys.stderr.write(f"qdisc: usage error: {exc}\n")
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
