#!/usr/bin/env python
"""Service smoke: boot a real `repro serve`, round-trip one study.

Boots the server as a subprocess on a free port, POSTs a tiny study,
follows the SSE stream to `done`, downloads the CSV and diffs it
byte-for-byte against a direct `repro study` run of the same config,
checks the manifest, submits a second fresh study at another seed (it
reuses the clip catalogue the simulation workers inherited at boot)
and diffs that against `run_study` in this process, then SIGTERMs the
server and asserts a clean (code 0) drain that leaves no simulation
worker behind.  Usage::

    python scripts/serve_smoke.py WORKDIR [DIRECT_CSV]

``DIRECT_CSV`` reuses an existing direct-run CSV (smoke.sh passes the
one its parallel-study stage already produced); without it the script
runs `repro study` itself.
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.core.study import StudyConfig
from repro.runtime import RuntimeConfig, run_study

CONFIG = {"seed": 2001, "scale": 0.02}
#: The second fresh study: another seed, same (default) playlist.
SECOND_CONFIG = {"seed": 2002, "scale": 0.01, "max_users": 6}
TIMEOUT_S = 300


def sse_frames(raw: str):
    """Yield (event, data) from a raw SSE stream, skipping comments."""
    for frame in raw.split("\n\n"):
        fields = {}
        for line in frame.splitlines():
            if ":" in line and not line.startswith(":"):
                key, _, value = line.partition(":")
                fields[key.strip()] = value.strip()
        if "event" in fields:
            yield fields["event"], json.loads(fields["data"])


def get(base: str, path: str) -> bytes:
    with urllib.request.urlopen(base + path, timeout=TIMEOUT_S) as resp:
        return resp.read()


def child_pids(pid: int) -> list[int]:
    """Live (non-zombie) children of ``pid``, read from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.append(int(entry.name))
    return sorted(found)


def run_to_done(base: str, config: dict) -> tuple[str, list, bytes]:
    """POST a never-seen study, follow its SSE stream to `done`, and
    return (job id, events, served CSV)."""
    body = json.dumps(config).encode()
    with urllib.request.urlopen(urllib.request.Request(
        base + "/v1/studies", data=body, method="POST",
        headers={"content-type": "application/json"},
    ), timeout=TIMEOUT_S) as resp:
        assert resp.status == 201, resp.status
        job_id = json.loads(resp.read())["job_id"]
    print(f"submitted {job_id} to {base}")

    # the SSE stream runs from first state event to settle
    events = list(sse_frames(
        get(base, f"/v1/jobs/{job_id}/events").decode()
    ))
    kinds = [kind for kind, _ in events]
    assert kinds[0] == "state" and kinds[-1] == "done", kinds
    final = events[-1][1]
    assert final["state"] == "done", final
    print(f"SSE: {len(events)} events, {final['records']} records")
    return job_id, events, get(base, f"/v1/jobs/{job_id}/study.csv")


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    out.mkdir(parents=True, exist_ok=True)

    direct_csv = Path(sys.argv[2]) if len(sys.argv) > 2 else None
    if direct_csv is None or not direct_csv.exists():
        direct_csv = out / "direct.csv"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "study",
             "--seed", str(CONFIG["seed"]), "--scale", str(CONFIG["scale"]),
             "--workers", "2", "--out", str(direct_csv),
             "--checkpoint-dir", str(out / "direct.ckpt"), "--quiet"],
            check=True, timeout=TIMEOUT_S,
        )

    server = subprocess.Popen(
        # -u: the listen announcement must not sit in a block buffer
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(out / "serve-cache")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        assert server.stdout is not None
        line = server.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no listen announcement in {line!r}"
        base = f"http://{match.group(1)}:{match.group(2)}"
        # one simulation process per slot, there before the address is
        workers = child_pids(server.pid)
        assert len(workers) == 2, f"expected 2 worker processes: {workers}"

        job_id, events, served = run_to_done(base, CONFIG)
        assert any(kind == "telemetry" for kind, _ in events), events
        assert served == direct_csv.read_bytes(), (
            "served CSV differs from the direct `repro study` run"
        )
        status = json.loads(get(base, f"/v1/jobs/{job_id}"))
        manifest = json.loads(get(base, f"/v1/jobs/{job_id}/manifest"))
        assert manifest["config_hash"] == status["study"]["config_hash"]
        assert manifest["failed_shards"] == [], manifest["failed_shards"]
        stats = json.loads(get(base, "/v1/stats"))
        assert stats["simulated"] == 1 and stats["cache"]["stores"] == 1
        print(f"CSV byte-identical ({len(served)} bytes), manifest honest")

        _job, _events, second = run_to_done(base, SECOND_CONFIG)
        local = run_study(
            StudyConfig.from_dict(SECOND_CONFIG), RuntimeConfig(workers=1)
        ).dataset.to_csv_string()
        assert second.decode("utf-8") == local, (
            "second study's served CSV differs from an in-process run_study"
        )
        stats = json.loads(get(base, "/v1/stats"))
        assert stats["simulated"] == 2, stats["simulated"]
        assert stats["worker_restarts"] == 0, stats["worker_restarts"]
        assert child_pids(server.pid) == workers, "a worker was replaced"
        print(f"second fresh study byte-identical ({len(second)} bytes)")

        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=TIMEOUT_S)
        assert code == 0, f"drain exited {code}"
        left = [pid for pid in workers if Path(f"/proc/{pid}").exists()]
        assert not left, f"workers {left} outlived the drained server"
        print("serve smoke ok: SIGTERM drained, exit 0, no worker left")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
