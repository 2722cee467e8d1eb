#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run it from the root of a source tree.  It builds the programs with
dune, checks the pinned input snapshots, runs one workload (see
BENCHMARK.json for what each one is and why), checks every output
against a reference computed outside the timed phase, and prints as its
last line one JSON object: correct / attempted / failed / metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, from a separate traced run that times each
layer call from the benchmark's own code and writes the spans to
perfbench/_work/ as JSON lines.

Each workload does a fixed amount of work per run, sized from --seconds
by the nominal unit times below, so a faster program finishes sooner
instead of doing more.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SNAPSHOTS = os.path.join(HERE, "snapshots")
PINS = os.path.join(HERE, "pins.json")
BUILD = os.path.join(ROOT, "_build", "default")
ADI_ATPG = os.path.join(BUILD, "bin", "main.exe")
ADI_SERVER = os.path.join(BUILD, "bin", "adi_server.exe")
PROBE = os.path.join(BUILD, "perfbench", "probe.exe")

DEFAULT_SEED = 1
NPROC = len(os.sched_getaffinity(0))

SMALL_SUITE = ["syn208", "syn298", "syn344", "syn382", "syn400", "syn420",
               "syn510", "syn526", "syn641", "syn820", "syn953", "syn1196"]
# Mid-size circuits whose cold build takes 0.5-5.5 s each; syn641,
# syn820, syn953 and syn1196 (8 s to 2 min each) are left out for run
# length.
COLD_CIRCUITS = ["syn344", "syn382", "syn400", "syn420", "syn510", "syn526"]
LARGE_CIRCUIT = "syn5378"
# The read working set of service_mix: four circuits, half the server's
# default capacity of eight setups.
SERVICE_CIRCUITS = ["syn208", "syn298", "syn344", "syn382"]

# Nominal time of one unit of work (a cold cycle, a sweep, a large
# ordering) on a 2-core x86 VM, where it varied up to 2x with the host's
# load; a run does max(1, round(seconds / nominal)) units.
NOMINAL_S = {"cold_atpg": 15.0, "paper_orders": 15.0, "order_large": 25.0}
NOMINAL_REQUESTS_PER_S = 65.0
# Requests per service_mix deck: four reads on each circuit, one batch
# and two writes.
SERVICE_DECK = 19

WORKLOADS = ["cold_atpg", "paper_orders", "order_large", "service_mix"]
ORDERS = ["orig", "incr0", "decr", "0decr", "dynm", "0dynm"]
SERVICE_OPS = ["load", "atpg", "order", "adi", "diagnose", "batch_atpg"]

E2E = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
       ("ok_frac", "frac"), ("peak_rss_mb", "MB")]

# Span name -> per-layer time metric (self time, summed).
SPAN_METRICS = {
    "circuits.build": "circuits.build_s",
    "netlist.parse": "netlist.parse_s",
    "faults.collapse": "faults.collapse_s",
    "sim.select_u": "sim.select_u_s",
    "sim.detection_sets": "sim.detection_sets_s",
    "atpg.engine": "atpg.engine_s",
    "diagnosis.dict_build": "diagnosis.dict_build_s",
}
for _k in ORDERS:
    SPAN_METRICS["adi.order." + _k] = "adi.order_s." + _k

PER_LAYER = (
    [("circuits.build_s", "s"), ("circuits.gates", "count"), ("netlist.parse_s", "s"),
     ("faults.collapse_s", "s"), ("faults.classes", "count"),
     ("sim.select_u_s", "s"), ("sim.detection_sets_s", "s"), ("sim.u_size", "count")]
    + [("adi.order_s." + k, "s") for k in ORDERS]
    + [("atpg.engine_s", "s"), ("atpg.decisions", "count"), ("atpg.backtracks", "count"),
       ("atpg.aborted", "count"), ("atpg.untestable", "count"),
       ("atpg.retry_recovered", "count"), ("atpg.spec_useful_frac", "frac"),
       ("diagnosis.dict_build_s", "s"), ("diagnosis.rank_ms", "ms")]
    + [("service.rtt_ms." + op, "ms") for op in SERVICE_OPS]
    + [("service.overhead_ms." + op, "ms") for op in SERVICE_OPS]
    + [("service." + k, "count") for k in
       ["hits", "misses", "evictions", "dict_hits", "dict_misses", "shed", "retries"]]
    + [("unattributed_s", "s"), ("trace.overhead_frac", "frac")])


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def snapshot(name):
    return os.path.join(SNAPSHOTS, name + ".bench")


def rel(path):
    return os.path.relpath(path, ROOT)


# ---------- preparation ----------

def check_tree():
    for need in ["dune-project", "lib", "bin"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no source tree here (missing %s); run from a checkout" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")


def build():
    # No shared dune cache: the build writes only inside the tree.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", rel(ADI_ATPG), rel(ADI_SERVER),
           rel(PROBE)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=850)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout.decode(errors="replace"))


def check_snapshots():
    """Refuse to run on snapshots that differ from the pinned ones."""
    with open(os.path.join(SNAPSHOTS, "MD5SUMS")) as f:
        pinned = dict(reversed(line.split()) for line in f if line.strip())
    for name in SMALL_SUITE + [LARGE_CIRCUIT]:
        path = snapshot(name)
        with open(path, "rb") as f:
            got = hashlib.md5(f.read()).hexdigest()
        if pinned.get(name + ".bench") != got:
            raise BenchError("snapshot %s does not match its pinned MD5" % rel(path))


def load_pins(seed):
    if seed != DEFAULT_SEED:
        return {}
    with open(PINS) as f:
        return json.load(f)


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        return p.stdout.decode().strip() or None if p.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """MD5 over the program sources, for checkouts that are not git trees."""
    h = hashlib.md5()
    for top in ["lib", "bin"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith((".ml", ".mli")) or fn == "dune":
                    path = os.path.join(dirpath, fn)
                    h.update(rel(path).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def ocaml_version():
    try:
        p = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        if p.returncode != 0:
            p = subprocess.run(["ocamlopt", "-version"], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=10)
        return p.stdout.decode().strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# ---------- processes ----------

def run_probe(args, timeout=170):
    """Run the probe in its own process group, so a timeout also stops
    the server it may have started."""
    proc = subprocess.Popen([PROBE] + [str(a) for a in args], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("probe %s timed out" % args[0])
    if proc.returncode != 0:
        raise BenchError("probe %s failed:\n%s" % (args[0], err.decode(errors="replace")))
    return json.loads(out.decode().strip().splitlines()[-1])


def timed_process(argv, cwd):
    """Run argv to completion; (wall seconds, exit status, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def fresh_dir(*parts):
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def md5_file(path):
    try:
        with open(path, "rb") as f:
            return hashlib.md5(f.read()).hexdigest()
    except OSError:
        return None


def units_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_S[workload]))


# ---------- workloads ----------
# Each returns a dict: setup_s (samples), wall_s, ops [[label, s, ok]],
# peak_rss_mb, pins_ok, digests, quality (or None), context, and for
# traced runs "trace": the spans and the per-layer figures spans alone
# do not give.

def cold_atpg(seed, seconds, traced):
    # Set-up computes the expected outputs: the in-process pipeline on
    # the parsed .bench snapshots at this seed, three times.
    snaps = [snapshot(c) for c in COLD_CIRCUITS]
    setup = []
    for _ in range(3):
        t0 = time.perf_counter()
        ref = run_probe(["reference", "--seed", seed, "--jobs", NPROC] + [rel(s) for s in snaps])
        setup.append(time.perf_counter() - t0)
    want = {e["circuit"]: e["tests_md5"] for e in ref["circuits"]}
    units = 1 if traced else units_for("cold_atpg", seconds)
    # Each cycle visits the circuits in its own seeded order, so a slow
    # spell of the host does not fall on the same circuit every cycle.
    rng = random.Random(seed)
    cycles = [rng.sample(COLD_CIRCUITS, len(COLD_CIRCUITS)) for _ in range(units)]
    base = os.path.join(WORK, "cold-%d" % os.getpid())
    samples = {"plain": [], "traced": []}
    span_files = []

    def cold(circuit, tag):
        d = fresh_dir(base, str(sum(len(v) for v in samples.values())))
        if tag == "plain":
            argv = [ADI_ATPG, "atpg", circuit, "--order", "0dynm", "--seed", str(seed),
                    "-o", "tests.vec"]
        else:
            span_files.append(os.path.join(d, "spans.jsonl"))
            argv = [PROBE, "cold-op", circuit, "--seed", str(seed), "--jobs", str(NPROC),
                    "--out", "tests.vec", "--spans", "spans.jsonl"]
        wall, code, peak = timed_process(argv, d)
        samples[tag].append((circuit, wall, code, peak, md5_file(os.path.join(d, "tests.vec"))))

    t_start = time.perf_counter()
    for order in cycles:
        for k, circuit in enumerate(order):
            # In a traced run each circuit runs both ways, alternating
            # which goes first.
            tags = ["plain", "traced"] if traced else ["plain"]
            for tag in (reversed(tags) if k % 2 else tags):
                cold(circuit, tag)
    wall_s = time.perf_counter() - t_start
    ok = lambda c, code, digest: code == 0 and digest == want[c]
    ops = [[c, w, ok(c, code, d)] for c, w, code, _, d in samples["plain"]]
    traced_ok = all(ok(c, code, d) for c, _, code, _, d in samples["traced"])
    rss = max(peak for _, _, _, peak, _ in samples["plain"])
    pins = load_pins(seed).get("cold_atpg", {})
    quality = {
        "tests": sum(e["tests"] for e in ref["circuits"]),
        "ave": statistics.fmean(e["ave"] for e in ref["circuits"]),
        "fault_coverage": statistics.fmean(e["fault_coverage"] for e in ref["circuits"]),
    }
    result = {
        "setup_s": setup, "wall_s": wall_s, "ops": ops, "peak_rss_mb": rss,
        "pins_ok": all(want.get(k) == v for k, v in pins.items()) and traced_ok,
        "digests": want, "quality": quality, "context": {"jobs": NPROC, "units": units},
    }
    if traced:
        # One file for the run; ids are renumbered so they stay unique
        # across the per-op processes.
        spans = []
        with open(os.path.join(WORK, "spans-cold-atpg-%d.jsonl" % os.getpid()), "w") as out:
            for path in span_files:
                offset = len(spans)
                with open(path) as f:
                    for line in f:
                        sp = json.loads(line)
                        sp["id"] += offset
                        sp["parent"] += offset if sp["parent"] else 0
                        spans.append(sp)
                        out.write(json.dumps(sp) + "\n")
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
        wall = {tag: sum(x[1] for x in v) for tag, v in samples.items()}
        result["trace"] = {
            "spans": spans,
            "gates": sum(s["attrs"]["gates"] for s in spans if s["name"] == "circuits.build"),
            "unattributed_s": wall["traced"] - top,
            "overhead_frac": wall["traced"] / wall["plain"] - 1.0,
        }
    shutil.rmtree(base, ignore_errors=True)
    return result


def parse_setup(snaps):
    """Set-up of the in-process workloads: parse the snapshots, each
    sample in a fresh process."""
    return [run_probe(["parse"] + [rel(s) for s in snaps])["parse_s"] for _ in range(7)]


def probe_workload(sub, args, seed, traced, setup_s=None):
    spans_path = os.path.join(WORK, "spans-%s-%d.jsonl" % (sub, os.getpid()))
    extra = ["--spans", rel(spans_path)] if traced else []
    out = run_probe([sub, "--seed", seed] + args + extra)
    result = {
        "setup_s": setup_s or out["setup_s"], "wall_s": out["wall_s"],
        "ops": [[o["label"], o["s"], o["ok"]] for o in out["ops"]],
        "peak_rss_mb": out["peak_rss_mb"], "digests": out.get("digests", {}),
        "quality": out.get("quality"), "raw": out,
    }
    if traced:
        with open(spans_path) as f:
            result["trace"] = {"spans": [json.loads(line) for line in f], "gates": out["gates"]}
    return result


def paired_trace_fields(result, raw):
    """unattributed_s and tracing overhead for the in-process workloads,
    whose traced steps ran paired with untraced ones (see probe.ml)."""
    spans = result["trace"]["spans"]
    traced_wall = raw["traced_wall_s"]
    timed = [s for s in spans if s["parent"] == 0 and s["name"] != "netlist.parse"]
    top = sum(s["end"] - s["start"] for s in timed)
    result["trace"]["unattributed_s"] = traced_wall - top
    result["trace"]["overhead_frac"] = traced_wall / raw["untraced_wall_s"] - 1.0


def paper_orders(seed, seconds, traced):
    snaps = [snapshot(c) for c in SMALL_SUITE]
    setup = parse_setup(snaps)
    args = ["--jobs", NPROC, "--units", units_for("paper_orders", seconds)]
    r = probe_workload("paper-orders", args + [rel(s) for s in snaps], seed, traced, setup)
    pins = load_pins(seed).get("paper_orders", {})
    r["pins_ok"] = all(r["digests"].get(k) == v for k, v in pins.items())
    r["context"] = {"jobs": NPROC, "units": int(args[3])}
    if traced:
        paired_trace_fields(r, r["raw"])
    return r


def order_large(seed, seconds, traced):
    setup = parse_setup([snapshot(LARGE_CIRCUIT)])
    args = ["--jobs", NPROC, "--units", units_for("order_large", seconds),
            rel(snapshot(LARGE_CIRCUIT))]
    r = probe_workload("order-large", args, seed, traced, setup)
    pins = load_pins(seed).get("order_large", {})
    r["pins_ok"] = all(r["digests"].get(k) == v for k, v in pins.items())
    r["context"] = {"jobs": NPROC, "units": int(args[3]), "faults": r["raw"]["faults"],
                    "u_size": r["raw"]["u_size"]}
    if traced:
        paired_trace_fields(r, r["raw"])
    return r


def service_mix(seed, seconds, traced):
    decks = max(1, round(seconds * NOMINAL_REQUESTS_PER_S / SERVICE_DECK))
    args = ["--decks", decks, "--connections", NPROC,
            "--server", rel(ADI_SERVER), "--work", rel(WORK)]
    r = probe_workload("service-mix", args + [rel(snapshot(c)) for c in SERVICE_CIRCUITS],
                       seed, traced)
    raw = r["raw"]
    pins = load_pins(seed).get("service_mix", {})
    r["pins_ok"] = all(raw["digests"].get(k, v) == v for k, v in pins.items())
    r["digests"] = raw["digests"]
    r["context"] = {"jobs": 1, "workers": raw["workers"], "connections": NPROC,
                    "requests": decks * SERVICE_DECK}
    if traced:
        rtt, sides = {}, {True: [], False: []}
        for x in raw["rtt"]:
            rtt.setdefault(x["label"], []).append(x["s"] * 1000.0)
            sides[x["traced"]].append(x["s"])
        t = r["trace"]
        t["rtt_ms"] = {op: statistics.median(v) for op, v in rtt.items()}
        t["overhead_ms"] = {op: t["rtt_ms"][op] - 1000.0 * statistics.median(v)
                            for op, v in raw["local"].items() if op in t["rtt_ms"]}
        t["service"] = raw["service"]
        t["unattributed_s"] = (raw["wall_s"] * NPROC - raw["busy_s"]) / NPROC
        t["overhead_frac"] = statistics.fmean(sides[True]) / statistics.fmean(sides[False]) - 1.0
    return r


RUNNERS = {"cold_atpg": cold_atpg, "paper_orders": paper_orders,
           "order_large": order_large, "service_mix": service_mix}


# ---------- metrics ----------

def tail(latencies_ms):
    """The highest of a fixed ladder of percentiles with at least ten
    samples beyond it: (percentile, value) or None."""
    xs = sorted(latencies_ms)
    n = len(xs)
    for p in [99.9, 99.0, 98.0, 95.0, 90.0, 75.0]:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, xs[min(n - 1, int(p / 100.0 * n))]
    return None


def end_to_end(r):
    lat = [op[1] * 1000.0 for op in r["ops"]]
    ok = sum(1 for op in r["ops"] if op[2])
    return {
        "setup_s": statistics.median(r["setup_s"]),
        "wall_s": r["wall_s"],
        "ops_per_s": len(r["ops"]) / r["wall_s"],
        "op_p50_ms": statistics.median(lat),
        "ok_frac": ok / len(r["ops"]),
        "peak_rss_mb": r["peak_rss_mb"],
    }


def per_layer(r):
    t = r["trace"]
    spans = t["spans"]
    children = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + (s["end"] - s["start"])
    m = {name: 0.0 for name, _ in PER_LAYER}
    ranks, dispatched, committed = [], 0, 0
    for s in spans:
        self_s = (s["end"] - s["start"]) - children.get(s["id"], 0.0)
        if s["name"] in SPAN_METRICS:
            m[SPAN_METRICS[s["name"]]] += self_s
        elif s["name"] == "diagnosis.rank":
            ranks.append((s["end"] - s["start"]) * 1000.0)
        a = s["attrs"]
        if s["name"] == "faults.collapse":
            m["faults.classes"] += a["classes"]
        if s["name"] == "sim.select_u":
            m["sim.u_size"] += a["u_size"]
        if s["name"] == "atpg.engine":
            for k in ["decisions", "backtracks", "aborted", "untestable", "retry_recovered"]:
                m["atpg." + k] += a[k]
            dispatched += a["spec_dispatched"]
            committed += a["spec_committed"]
    m["atpg.spec_useful_frac"] = committed / dispatched if dispatched else 0.0
    m["diagnosis.rank_ms"] = statistics.median(ranks) if ranks else 0.0
    m["circuits.gates"] = t["gates"]
    for op, v in t.get("rtt_ms", {}).items():
        m["service.rtt_ms." + op] = v
    for op, v in t.get("overhead_ms", {}).items():
        m["service.overhead_ms." + op] = v
    for k, v in t.get("service", {}).items():
        m["service." + k] = v
    m["unattributed_s"] = t["unattributed_s"]
    m["trace.overhead_frac"] = t["overhead_frac"]
    return m


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_workload(name, seed, seconds, traced):
    os.makedirs(WORK, exist_ok=True)
    steal0, total0 = cpu_ticks()
    r = RUNNERS[name](seed, seconds, traced)
    steal1, total1 = cpu_ticks()
    units = dict(E2E + PER_LAYER)
    values = per_layer(r) if traced else end_to_end(r)
    failed = sum(1 for op in r["ops"] if not op[2])
    lat = [op[1] * 1000.0 for op in r["ops"]]
    t = tail(lat)
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "nproc": NPROC, "ocaml": ocaml_version(), "commit": git_commit(),
        "source_md5": source_digest(), **r["context"],
        "op_tail": None if t is None else {"percentile": t[0], "ms": t[1], "samples": len(lat)},
        "quality": r["quality"], "pins_checked": seed == DEFAULT_SEED, "pins_ok": r["pins_ok"],
        # CPU time the hypervisor gave to other guests while this ran.
        "cpu_steal_frac": (steal1 - steal0) / max(1, total1 - total0),
    }
    result = {
        "correct": failed == 0 and r["pins_ok"],
        "attempted": len(r["ops"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return context, result, r


def print_table(context, result):
    print("# %s seed=%s trace=%s nproc=%s jobs=%s" % (
        context["workload"], context["seed"], context["trace"], context["nproc"],
        context.get("jobs")))
    for k, v in result["metrics"].items():
        print("  %-28s %14.6g %s" % (k, v["value"], v["unit"]))
    if context["op_tail"] and not context["trace"]:
        t = context["op_tail"]
        print("  %-28s %14.6g ms (p%g of %d ops)" % ("op_tail_ms", t["ms"], t["percentile"],
                                                    t["samples"]))
    if context["quality"] and not context["trace"]:
        for k, v in context["quality"].items():
            print("  %-28s %14.6g" % (k, v))


def write_pins(name, seed, r):
    if seed != DEFAULT_SEED or not all(op[2] for op in r["ops"]):
        raise BenchError("pins are written from a correct run at the default seed")
    with open(PINS) as f:
        pins = json.load(f)
    pins[name] = r["digests"]
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="record the default seed's output digests in perfbench/pins.json")
    args = ap.parse_args()
    try:
        check_tree()
        check_snapshots()
        build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            context, result, r = run_workload(name, args.seed, args.seconds, args.trace == 1)
            print(json.dumps({"context": context}))
            print_table(context, result)
            results.append((name, result))
            if args.write_pins:
                write_pins(name, args.seed, r)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (n, k): v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
