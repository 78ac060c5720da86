#!/usr/bin/env python3
"""Kill -9 recovery soak for the koika session server.

Drives the same deterministic 200-session load twice against
`koika_sim --serve ... --state-dir`:

  * the *golden* run is never interrupted;
  * the *kill* run is SIGKILLed mid-load (after session 120's op group,
    with sessions live, injected, and evicted in every combination), then
    restarted from the same state directory, after which the client
    finishes the remaining script.

Because the client is synchronous (every op is acknowledged before the
next is sent) and every acknowledged op is journaled before it executes,
the recovered run must end in exactly the golden state: the final
`query-regs` of all 200 sessions is diffed field by field.

Every mutating op carries a `req_id`. One session in five is created
with a `max_cycles` budget that trips in its second step, then restores
the snapshot taken after its first step. Right after the restart the
client re-submits every `req_id` issued to a pre-kill session since its
last `evict` (the window reaches back to the last checkpoint) and diffs
each reply byte for byte against the golden run's reply to the same
request: recovery must rebuild the idempotency window with the replies
the live ops gave, watchdog trips included.

Usage: kill9_soak.py [path-to-koika_sim]
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile

BIN = sys.argv[1] if len(sys.argv) > 1 else "./target/release/koika_sim"
SESSIONS = 200
KILL_AT = 120  # SIGKILL lands after this many sessions' op groups
# The rv32i slot alternates between two workloads. memwalk keeps its state
# in data memory, so its snapshots, restores and recovered spools carry a
# memory image that changes.
DESIGNS = ("collatz", "fir", ("rv32i+primes:8", "rv32i+memwalk:4"))


def start(state_dir, started):
    """Spawns a durable server and appends it to `started` (so the caller
    can stop it whatever happens); returns (proc, (host, port), recovered)."""
    proc = subprocess.Popen(
        [BIN, "--serve", "127.0.0.1:0", "--jobs", "2", "--state-dir", state_dir],
        stdout=subprocess.PIPE,
        text=True,
    )
    started.append(proc)
    recovered = None
    addr = None
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before printing its address")
        if line.startswith("recovered "):
            recovered = int(line.split()[1])
        if line.startswith("serving on "):
            addr = line.split()[-1].strip()
            break
    host, port = addr.rsplit(":", 1)
    return proc, (host, int(port)), recovered


class Client:
    def __init__(self, addr):
        self.sock = socket.create_connection(addr)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.sock.makefile("rw")

    def raw(self, obj):
        self.f.write(json.dumps(obj) + "\n")
        self.f.flush()
        return self.f.readline().rstrip("\n")

    def rpc(self, obj):
        return json.loads(self.raw(obj))


def drive_one(c, i):
    """Session i's deterministic op group.

    Returns its session id and the `(request, raw reply)` pairs of the
    `req_id`-tagged ops issued since its last `evict`.
    """
    budgeted = i % 5 == 2
    first = 10 + i % 5
    rid = iter(range(i * 10, i * 10 + 10))
    sent = []

    def tagged(req):
        req["req_id"] = next(rid)
        reply = c.raw(req)
        sent.append((req, reply))
        return json.loads(reply)

    design = DESIGNS[i % 3]
    if i % 3 == 2:
        # Switching every 12 sessions gives each workload budgeted
        # (i % 5) and evicted (i % 4) sessions.
        design = design[(i // 12) % 2]
    if design.endswith("memwalk:4"):
        # memwalk's first store lands at cycle 52 and pass 1 starts near
        # cycle 436: step past the first, so its snapshots, restores and
        # spools hold a memory that changed.
        first += 50
    create = {"op": "create", "design": design, "tenant": f"t{i % 4}"}
    if budgeted:
        # Trips in the second step, five cycles past the first one.
        create["watchdog"] = {"max_cycles": first + 5}
    r = tagged(create)
    assert r["ok"], r
    sid = r["session"]
    assert tagged({"op": "step", "session": sid, "n": first})["ok"]
    if budgeted:
        r = c.rpc({"op": "snapshot", "session": sid})
        assert r["ok"], r
        ksnap = r["ksnap"]
    if i % 3 == 1:
        # Register by flat index — valid for any design in the mix.
        r = tagged(
            {"op": "inject", "session": sid, "cycle": 20 + i % 7, "reg": "0", "bit": i % 2}
        )
        assert r["ok"], r
    r = tagged({"op": "step", "session": sid, "n": 15}) if i % 3 == 1 or budgeted else None
    if budgeted:
        assert r["error"] == "watchdog" and r["kind"] == "cycle-budget", r
        assert r["cycle"] == first + 5, r
        r = tagged({"op": "restore", "session": sid, "ksnap": ksnap})
        assert r["ok"] and r["cycles"] == first, r
    elif r is not None:
        assert r["ok"], r
    if i % 4 == 0:
        assert c.rpc({"op": "evict", "session": sid})["ok"]
        sent = []
    if design.endswith("memwalk:4") and not budgeted:
        # Into pass 1, which reloads pass 0's stores: a rehydration or a
        # recovery that lost the memory shows in the final registers.
        assert tagged({"op": "step", "session": sid, "n": 400})["ok"]
    return sid, sent


def collect(c, sids):
    out = {}
    for sid in sids:
        r = c.rpc({"op": "query-regs", "session": sid})
        assert r["ok"], r
        out[str(sid)] = {"cycles": r["cycles"], "regs": r["regs"]}
    return out


def main():
    root = tempfile.mkdtemp(prefix="koika-kill9-")
    started = []
    try:
        # Golden: uninterrupted.
        gold_dir = os.path.join(root, "gold")
        proc, addr, _ = start(gold_dir, started)
        c = Client(addr)
        groups = [drive_one(c, i) for i in range(SESSIONS)]
        sids = [sid for sid, _ in groups]
        gold = collect(c, sids)
        c.rpc({"op": "shutdown"})
        proc.wait(timeout=60)

        # Kill run: SIGKILL mid-load, restart from the state dir, finish.
        kill_dir = os.path.join(root, "kill")
        proc, addr, _ = start(kill_dir, started)
        c = Client(addr)
        kgroups = [drive_one(c, i) for i in range(KILL_AT)]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

        proc, addr, recovered = start(kill_dir, started)
        assert recovered == KILL_AT, f"recovered {recovered}, expected {KILL_AT}"
        c = Client(addr)
        # Re-submit every req_id still inside a recovered window: each must
        # answer the golden run's reply, not re-execute.
        resubmitted = 0
        mismatched = []
        for (_, sent), (_, gold_sent) in zip(kgroups, groups):
            assert [req for req, _ in sent] == [req for req, _ in gold_sent]
            for (req, _), (_, want) in zip(sent, gold_sent):
                got = c.raw(req)
                resubmitted += 1
                if got != want:
                    mismatched.append((req, want, got))
        kgroups += [drive_one(c, i) for i in range(KILL_AT, SESSIONS)]
        ksids = [sid for sid, _ in kgroups]
        rec = collect(c, ksids)
        c.rpc({"op": "shutdown"})
        proc.wait(timeout=60)

        assert ksids == sids, "session id sequence diverged across the kill"
        if mismatched:
            for req, want, got in mismatched[:5]:
                print(f"re-submitted {json.dumps(req)}:\n  gold {want}\n  rec  {got}")
            print(f"FAIL: {len(mismatched)} of {resubmitted} re-submitted replies differ")
            return 1
        diverged = [s for s in gold if gold[s] != rec.get(s)]
        if diverged:
            for s in diverged[:5]:
                print(f"session {s}:\n  gold {gold[s]}\n  rec  {rec.get(s)}")
            print(f"FAIL: {len(diverged)} of {SESSIONS} sessions diverged after kill -9")
            return 1
        print(
            f"ok: {SESSIONS} sessions ({recovered} recovered after kill -9) "
            f"byte-identical to the uninterrupted run; {resubmitted} re-submitted "
            f"req_ids answered with the golden replies"
        )
        return 0
    finally:
        # A failing step leaves its server running: stop every one.
        for proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
