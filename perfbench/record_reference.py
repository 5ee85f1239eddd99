"""Pin verify-bounded's evidence summary at the reference seed.

    python3 perfbench/record_reference.py

Runs the full-size verify-bounded request once at workloads.REFERENCE_SEED
and writes the report's ``evidence`` block to workloads.REFERENCE_FILE, which
run.py then requires every later commit to reproduce to within
workloads.REFERENCE_RTOL.  Re-record only when the ensemble is meant to change.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
import workloads  # noqa: E402
import affinesde.cli as cli  # noqa: E402


def main() -> int:
    tmp = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        (req,) = workloads.build("verify-bounded", workloads.REFERENCE_SEED, tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([req.command, str(req.scenario), "--out", str(tmp)])
        if rc != req.exit_code:
            print(f"verify exited with {rc}", file=sys.stderr)
            return 1
        report = yaml.safe_load((tmp / f"{req.name}.verify.yaml").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    req.reference.parent.mkdir(exist_ok=True)
    req.reference.write_text(json.dumps(report["evidence"], indent=1) + "\n")
    print(f"wrote {req.reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
