"""Regenerate the reference outputs in perfbench/reference from ./src.

    python3 perfbench/make_reference.py

Runs the CLI in this process on every input the benchmark can send whose
output is compared with a stored reference: the full desk-search record
streams of both circuit kinds, every map window, and the simulate spectrum
for every xi3 of the calibrate-cli set.  Takes a few minutes (the searches
dominate).  Only regenerate on purpose: the stored files define what the
benchmark counts as a correct output.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys

import run
import workloads


def main() -> int:
    cli = run.load_cli()
    out_dir = workloads.REFERENCE_DIR
    out_dir.mkdir(exist_ok=True)

    def cli_output(argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)}: exit code {rc}: {err.getvalue()}")
        return out.getvalue()

    for kind in workloads.SEARCH_KINDS:
        text = cli_output(["search", "--set", f"kind={kind}"])
        (out_dir / f"search-{kind}.csv").write_text(text)
        print(f"search {kind}: {len(text.splitlines()) - 1} records", file=sys.stderr)

    windows = {workloads.map_key(fp, idc): cli_output(workloads.map_argv(fp, idc))
               for fp, idc in workloads.MAP_WINDOWS}
    spectra = {str(xi3): cli_output(workloads.simulate_argv(xi3))
               for xi3 in workloads.SIM_XI3_MHZ}
    for name, payload in (("map-windows.json.gz", windows), ("simulate.json.gz", spectra)):
        data = json.dumps(payload, sort_keys=True, indent=0).encode()
        (out_dir / name).write_bytes(gzip.compress(data, mtime=0))
        print(f"{name}: {len(payload)} outputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
