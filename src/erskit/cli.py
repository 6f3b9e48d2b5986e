"""Batch front-end: config ingestion, suite orchestration, report emission.

Every subcommand reads zero or more JSON config files, runs one tool over
each, and emits a single report with a fixed top-level schema
{tool_version, manifest, results[]}.  Reports are byte-deterministic for a
fixed manifest.

Exit codes: 0 all pass, 1 verification failure or failed internal check,
2 configuration error, 3 resource error.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .ambient import CheckError, ConfigError, DomainError
from .base_system import QebsConfig, config_from_dict, simple_config, validate_qebs
from .roots import RootWindow, generate, check_ebs
from .classify import classify_rank1, classify_rank2, classify_window, ears_data, rank2_pairs
from .presentation import emit_sr, emit_sr_sharp, emit_tsr
from .unfold import ResourceError, build_handy, verify_pi
from .quantum_torus import verify_q, structure_suite

_OK, _FAIL, _CONFIG, _RESOURCE = 0, 1, 2, 3


def _load_config(path: str) -> QebsConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = config_from_dict(data)
    rep = validate_qebs(cfg)
    if not rep.passed:
        bad = "; ".join(f"{e.axiom}: {e.witness}" for e in rep.failures())
        raise ConfigError(f"{path}: {bad}")
    return cfg


def _parse_window(text: str) -> RootWindow:
    try:
        m, n = (int(x) for x in text.split(","))
    except ValueError:
        raise click.BadParameter(f"window {text!r} is not M,N")
    try:
        return RootWindow(m, n)
    except ConfigError as e:
        raise click.BadParameter(str(e))


def _out_dir(ctx, param, value):
    """The --out callback: make the directory up front, so a path that
    cannot be one is a usage error instead of a traceback."""
    if value is not None:
        try:
            Path(value).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise click.BadParameter(
                f"cannot make the directory {value!r}: {e.strerror}")
    return value


def _manifest(configs, command, **params) -> dict:
    return {
        "configs": list(configs),
        "command": command,
        **{k: v for k, v in sorted(params.items())},
    }


def _flatten(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    rows = []
    for res in report["results"]:
        if isinstance(res, dict):
            rows.append({k: _flatten(v) for k, v in res.items()})
        else:
            rows.append({"value": _flatten(res)})
    cols = sorted({c for r in rows for c in r})
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({c: r.get(c, "") for c in cols})
        return buf.getvalue()
    # latex
    out = ["\\begin{tabular}{" + "l" * len(cols) + "}"]
    esc = lambda s: s.replace("\\", "\\textbackslash{}").replace("_", "\\_")
    out.append(" & ".join(esc(c) for c in cols) + " \\\\")
    out.append("\\hline")
    for r in rows:
        out.append(" & ".join(esc(r.get(c, "")) for c in cols) + " \\\\")
    out.append("\\end{tabular}")
    return "\n".join(out) + "\n"


def _emit(manifest, verdicts, fmt, out, name) -> None:
    """Write the {tool_version, manifest, results} report of (entry, code)
    verdicts and exit with the highest code."""
    report = {"tool_version": __version__, "manifest": manifest,
              "results": [entry for entry, _ in verdicts]}
    text = _render(report, fmt)
    if out:
        ext = {"json": "json", "csv": "csv", "latex": "tex"}[fmt]
        path = Path(out) / f"{name}.{ext}"
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as e:
            click.echo(f"write failed for {path}: {e}", err=True)
            sys.exit(_CONFIG)
    else:
        sys.stdout.write(text)
    sys.exit(max((code for _, code in verdicts), default=_OK))


def _verdict(rep, **head):
    """The result entry and exit code of one check report."""
    return ({**head, "status": "ok" if rep.passed else "fail", **rep.to_dict()},
            _OK if rep.passed else _FAIL)


def _attempt(head, run) -> list:
    """The (entry, code) verdicts `run()` returns; a typed error instead
    becomes the one verdict ({**head, status, error}, its exit code)."""
    try:
        return run()
    except ResourceError as e:
        return [({**head, "status": "resource-error", "error": str(e),
                  "completed_height": e.completed_height}, _RESOURCE)]
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as e:
        return [({**head, "status": "config-error", "error": str(e)}, _CONFIG)]
    except CheckError as e:
        return [({**head, "status": "check-failed", "error": str(e)}, _FAIL)]


def _run_batch(paths, manifest, fmt, out, name, worker):
    """Run `worker(path, config)` per config; per-config errors become result
    entries instead of aborting the batch."""
    verdicts = [v for path in paths for v in _attempt(
        {"config": path}, lambda path=path: [worker(path, _load_config(path))])]
    _emit(manifest, verdicts, fmt, out, name)


# the JSON data of each preset, fn(config, window); export writes any of
# them, and the roots, relations, unfold and ears reports embed them
_PAYLOADS = {
    "roots": lambda cfg, win: generate(cfg, win).to_json_entries(),
    "sr": lambda cfg, win: json.loads(emit_sr(cfg).to_json()),
    "sr-sharp": lambda cfg, win: json.loads(emit_sr_sharp(cfg).to_json()),
    "tsr": lambda cfg, win: json.loads(emit_tsr(cfg).to_json()),
    "handy": lambda cfg, win: build_handy(cfg).to_dict(),
    "ears": lambda cfg, win: ears_data(cfg, win),
}


def _payload_worker(preset, win=None, key=None):
    """A worker whose ok entry holds the preset's payload under `key`, or
    merges it in when `key` is None."""
    def worker(path, cfg):
        data = _PAYLOADS[preset](cfg, win)
        return {"config": path, "status": "ok",
                **(data if key is None else {key: data})}, _OK
    return worker


def _output(f):
    f = click.option("--format", "fmt", default="json",
                     type=click.Choice(["json", "csv", "latex"]))(f)
    f = click.option("--out", default=None, type=click.Path(), callback=_out_dir,
                     help="directory for report files; stdout when absent")(f)
    return f


def _common(f):
    f = click.option("--config", "configs", multiple=True, required=False,
                     type=click.Path(), help="QEBS config file (JSON)")(f)
    return _output(f)


@click.group()
@click.version_option(__version__)
def main():
    """Elliptic root system toolkit."""


@main.command()
@_common
def classify(configs, fmt, out):
    """Tabulate the rank-1 case per node and the rank-2 case per adjacent
    ordered pair."""
    manifest = _manifest(configs, "classify", format=fmt, out=out)

    def worker(path, cfg):
        rs = generate(cfg, classify_window(cfg))
        rank1 = [classify_rank1(cfg, i, rs) for i in cfg.nodes]
        rank2 = [classify_rank2(cfg, i, j, rs) for i, j in rank2_pairs(cfg)]
        entry = {
            "config": path,
            "status": "ok",
            "rank1": [{"case": r.case, "X": r.name, **r.data} for r in rank1],
            "rank2": [{"case": r.case, "Y": r.name, **r.data} for r in rank2],
        }
        return entry, _OK

    _run_batch(configs, manifest, fmt, out, "classify", worker)


@main.command()
@_common
@click.option("--window", default="6,6", help="inner window M,N")
def roots(configs, fmt, out, window):
    """Enumerate the window slice of R(k,g), sorted lexicographically."""
    win = _parse_window(window)
    manifest = _manifest(configs, "roots", window=[win.M, win.N],
                         format=fmt, out=out)
    _run_batch(configs, manifest, fmt, out, "roots",
               _payload_worker("roots", win, "roots"))


@main.command(name="verify-ebs")
@_common
@click.option("--window", default="6,6", help="inner window M,N")
def verify_ebs(configs, fmt, out, window):
    """Check the elliptic axioms (reflection closure and form properties)
    on a window slice."""
    win = _parse_window(window)
    manifest = _manifest(configs, "verify-ebs", window=[win.M, win.N],
                         format=fmt, out=out)

    def worker(path, cfg):
        return _verdict(check_ebs(generate(cfg, win)), config=path)

    _run_batch(configs, manifest, fmt, out, "verify-ebs", worker)


@main.command()
@_common
def unfold(configs, fmt, out):
    """Print the unfolded datum (index set, Cartan matrix, odd part,
    symmetrizers) for each config."""
    manifest = _manifest(configs, "unfold", format=fmt, out=out)
    _run_batch(configs, manifest, fmt, out, "unfold", _payload_worker("handy"))


@main.command(name="verify-pi")
@_common
def verify_pi_cmd(configs, fmt, out):
    """Substitute the loop-algebra images into every defining relation and
    report per-relation status plus the extracted form constant."""
    manifest = _manifest(configs, "verify-pi", format=fmt, out=out)

    def worker(path, cfg):
        return _verdict(verify_pi(cfg)[0], config=path)

    _run_batch(configs, manifest, fmt, out, "verify-pi", worker)


@main.command(name="qtorus-verify")
@click.option("--rank", "rank", default=2, type=int, help="finite rank l")
@click.option("--q-numeric", default=None,
              help="rational value p/r for q; formal q when absent")
@_output
def qtorus_verify(rank, q_numeric, fmt, out):
    """Verify the quantum-torus realization for the untwisted A-type config
    of the given rank, plus the bracket structure suite."""
    manifest = _manifest([], "qtorus-verify", rank=rank,
                         q_numeric=q_numeric, format=fmt, out=out)
    qv = None
    if q_numeric is not None:
        try:
            qv = Fraction(q_numeric)
        except (ValueError, ZeroDivisionError):
            raise click.BadParameter(f"{q_numeric!r} is not a rational p/r",
                                     param_hint="--q-numeric")

    def suites():
        cfg = simple_config(f"A{rank}(1)")
        reps = (("relations", verify_q(cfg, q_numeric=qv)),
                ("structure", structure_suite()))
        return [_verdict(rep, suite=tag) for tag, rep in reps]

    _emit(manifest, _attempt({"suite": "relations"}, suites), fmt, out,
          "qtorus-verify")


@main.command()
@_common
@click.option("--preset", default="sr",
              type=click.Choice(["sr", "sr-sharp", "tsr"]))
def relations(configs, fmt, out, preset):
    """Emit a defining relation set (full, sharp-restricted, or the finite
    elliptic-basis form)."""
    manifest = _manifest(configs, "relations", preset=preset, format=fmt,
                         out=out)
    _run_batch(configs, manifest, fmt, out, "relations",
               _payload_worker(preset, key="relations"))


@main.command()
@_common
@click.option("--window", default="6,6", help="inner window M,N")
def ears(configs, fmt, out, window):
    """Emit the quadruple (X, S, L, E) describing the marked root system."""
    win = _parse_window(window)
    manifest = _manifest(configs, "ears", window=[win.M, win.N],
                         format=fmt, out=out)
    _run_batch(configs, manifest, fmt, out, "ears",
               _payload_worker("ears", win))


@main.command()
@click.option("--config", "configs", multiple=True, required=True,
              type=click.Path())
@click.option("--preset", default="roots", type=click.Choice(list(_PAYLOADS)))
@click.option("--window", default="6,6", help="inner window M,N")
@click.option("--out", required=True, type=click.Path(), callback=_out_dir)
def export(configs, preset, window, out):
    """Write one artifact file per config; bytes are deterministic for a
    fixed manifest."""
    win = _parse_window(window)
    manifest = _manifest(configs, "export", preset=preset,
                         window=[win.M, win.N], out=out)
    outdir = Path(out)

    def artifact(path):
        data = _PAYLOADS[preset](_load_config(path), win)
        return [({"tool_version": __version__, "manifest": manifest,
                  "config": path, "data": data}, _OK)]

    code = _OK
    for idx, path in enumerate(configs):
        name = f"{preset}-{idx}-{Path(path).stem}.json"
        # a failing config's artifact is its batch result entry
        [(doc, doc_code)] = _attempt({"config": path}, lambda: artifact(path))
        try:
            (outdir / name).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        except OSError as e:
            click.echo(f"write failed for {name}: {e}", err=True)
            doc_code = _CONFIG
        code = max(code, doc_code)
    sys.exit(code)


if __name__ == "__main__":
    main()
