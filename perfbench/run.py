"""Benchmark of convexcover: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory. The run generates its inputs from the seed (set-up), then
repeats rounds of the workload's operations, one per instance, until
another round would end after --seconds; at least one round always runs.
Every output is checked by checker.py, which does not use the program.

--trace 0 reports the end-to-end metrics with nothing wrapped. --trace 1
alternates plain and traced rounds (at least one of each), reports the
per-layer metrics of the traced rounds and the tracing overhead, and
writes the spans to perfbench/out/. The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import time

_CPU_BEFORE_SCRIPT = time.process_time()     # interpreter start-up, nearly all CPU
_WALL_SCRIPT_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checker
import gen
from spans import Counted, Patches, Tracer

WORKLOAD_NAMES = tuple(gen.WORKLOADS)
SAMPLES_PER_INSTANCE = 100


class OpFailed(Exception):
    """The program reported failure (non-zero exit code)."""


def import_program() -> None:
    """Import convexcover from ROOT/src, and nowhere else."""
    src = ROOT / "src"
    if not (src / "convexcover" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'convexcover'}")
    sys.path.insert(0, str(src))
    import convexcover
    if Path(convexcover.__file__).resolve().parent != (src / "convexcover").resolve():
        raise SystemExit(f"perfbench: imported convexcover from {convexcover.__file__}")
    import convexcover.cli  # noqa: F401  (the CLI is not imported by the package)


def program(module: str) -> Any:
    """A convexcover module, looked up at call time so that the traced
    rounds' wrappers are the ones called."""
    return sys.modules["convexcover." + module]


# ------------------------------------------------------------------ workloads

@dataclass
class Output:
    """What the checker needs from one operation's result."""
    key: Any                                  # equal keys, equal outputs
    algorithm: str
    pieces: List[checker.Ring]
    meta: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """The generated instances of one run and the operation applied to each."""

    def __init__(self, name: str, seed: int, instances: List[gen.Instance],
                 regions: Dict[str, checker.Region]):
        self.name, self.seed, self.instances, self.regions = name, seed, instances, regions
        self.dir = OUT / f"{name}-s{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.checked: Dict[str, Any] = {}     # instance -> key of its accepted output

    def path(self, inst: gen.Instance, kind: str) -> str:
        return str(self.dir / f"{inst.name}.{kind}.json")

    def write_inputs(self) -> None:
        for inst in self.instances:
            Path(self.path(inst, "in")).write_text(json.dumps(gen.instance_json(inst)))

    def op(self, inst: gen.Instance) -> Any:
        raise NotImplementedError

    def output(self, inst: gen.Instance, result: Any) -> Output:
        """The solution file the CLI wrote."""
        data = Path(self.path(inst, "sol")).read_bytes()
        sol = json.loads(data)
        return Output(data, sol["algorithm"], [gen.ring_from_json(r) for r in sol["polygons"]],
                      sol["metadata"])

    def problems(self, inst: gen.Instance, out: Output) -> List[str]:
        region = self.regions[inst.name]
        samples = region.sample(random.Random(f"{self.seed}:{inst.name}"), SAMPLES_PER_INSTANCE)
        problems = checker.check_cover(region, out.pieces, out.algorithm,
                                       out.meta.get("gains", []), inst.faces, samples)
        if out.meta.get("faces") != inst.faces:
            problems.append(f"reported U = {out.meta.get('faces')}, counted {inst.faces}")
        return problems

    def check(self, inst: gen.Instance, out: Output) -> List[str]:
        """Checks each distinct output once; a repeat of an accepted
        output is accepted."""
        if self.checked.get(inst.name) == out.key:
            return []
        problems = self.problems(inst, out)
        if not problems:
            self.checked[inst.name] = out.key
        return problems

    def good_area(self, inst: gen.Instance, out: Output) -> Fraction:
        """Every point of P is good in a cover, so an accepted cover's
        good area is area(P)."""
        return self.regions[inst.name].area


class CorpusCli(Workload):
    """`convexcover cover IN -o OUT`, in process."""

    def op(self, inst):
        rc = program("cli").main(["cover", self.path(inst, "in"), "-o", self.path(inst, "sol")])
        if rc != 0:
            raise OpFailed(f"cover exited {rc}")


class LadderCover(Workload):
    """Library greedy_cover on PolygonWithHoles built during set-up."""

    def __init__(self, *args):
        super().__init__(*args)
        exact_geom = program("exact_geom")
        self.polys = {i.name: exact_geom.PolygonWithHoles(
            [exact_geom.Point(*p) for p in i.outer],
            [[exact_geom.Point(*p) for p in h] for h in i.holes]) for i in self.instances}

    def write_inputs(self) -> None:
        pass

    def op(self, inst):
        return program("cover").greedy_cover(self.polys[inst.name])

    def output(self, inst, sol):
        pieces = [tuple(p.ring) for p in sol.pieces]
        meta = {"gains": list(sol.gains), "faces": sol.face_count}
        return Output((sol.algorithm, tuple(pieces), tuple(sol.gains), sol.face_count),
                      sol.algorithm, pieces, meta)


class PeelRotten(Workload):
    """`convexcover peel IN ROT -o OUT` then `convexcover verify IN OUT`."""

    def write_inputs(self) -> None:
        super().write_inputs()
        for inst in self.instances:
            Path(self.path(inst, "rot")).write_text(json.dumps(gen.regions_json(inst)))

    def op(self, inst):
        cli = program("cli")
        rc = cli.main(["peel", self.path(inst, "in"), self.path(inst, "rot"),
                       "-o", self.path(inst, "sol")])
        if rc != 0:
            raise OpFailed(f"peel exited {rc}")
        rc = cli.main(["verify", self.path(inst, "in"), self.path(inst, "sol")])
        if rc != 0:
            raise OpFailed(f"verify exited {rc}")

    def problems(self, inst, out):
        try:
            value = gen.decode(out.meta.get("value"))
        except ValueError as exc:
            return [f"bad value: {exc}"]
        return checker.check_peel(self.regions[inst.name], inst.regions, out.pieces,
                                  value, inst.known_convex)

    def good_area(self, inst, out):
        return gen.decode(out.meta["value"])


KINDS = {"corpus-cli": CorpusCli, "ladder-cover": LadderCover, "peel-rotten": PeelRotten}


def set_up(name: str, seed: int) -> Tuple[Workload, float]:
    """The workload with its input files written, and the seconds of that
    spent in the benchmark's own preparation: drawing the inputs, a
    rejection loop whose length depends on the seed, and the checker's
    view of them. setup_s leaves the preparation out."""
    t0 = time.perf_counter()
    instances = gen.make_inputs(name, seed)
    regions = {i.name: checker.Region(i.outer, i.holes) for i in instances}
    prep_s = time.perf_counter() - t0
    wl = KINDS[name](name, seed, instances, regions)
    wl.write_inputs()
    return wl, prep_s


# ------------------------------------------------------------------ tracing

def _on_arrangement(tr: Tracer, args: tuple, arr: Any) -> None:
    poly = args[0]
    e, v, u, h = len(arr.edges), len(arr.vertices), arr.face_count(), poly.hole_count()
    if u != e - v + 1 - h:
        tr.problems.append(f"arrangement breaks Euler: U={u}, E={e}, V={v}, h={h}")
    if poly not in tr.arrangements:
        tr.arrangements[poly] = arr
        tr.counts["arrangement.D"] += len(arr.extensions)
        tr.counts["arrangement.V_D"] += v
        tr.counts["arrangement.U"] += u


def _on_dag(tr: Tracer, args: tuple, dag: Any) -> None:
    tr.counts["peel_dag.nodes"] += len(dag.nodes)
    tr.counts["peel_dag.edges"] += sum(len(s) for s in dag.succ)


def _on_partition(tr: Tracer, args: tuple, part: Any) -> None:
    tr.counts["peel_dag.cells"] += len(part.cells)


def _on_cover(tr: Tracer, args: tuple, sol: Any) -> None:
    tr.counts["cover.rounds"] += sol.iterations


# (module:function, span name, hook); several functions may share a name
TARGETS = [
    ("convexcover.arrangement:diagonal_extensions", "arrangement.extensions", None),
    ("convexcover.arrangement:build_arrangement", "arrangement.build", _on_arrangement),
    ("convexcover.arrangement:mark_covered", "arrangement.mark_covered", None),
    ("convexcover.visibility:visibility_polygon", "visibility.polygon", None),
    ("convexcover.peel_dag:build_anchor_dags", "peel_dag.anchor_dags", None),
    ("convexcover.peel_dag:build_dag", "peel_dag.build_dag", _on_dag),
    ("convexcover.peel_dag:clip_and_orient", "peel_dag.clip", None),
    ("convexcover.peel_dag:cell_partition", "peel_dag.partition", _on_partition),
    ("convexcover.peel_dag:sst_weights", "peel_dag.sst", None),
    ("convexcover.peel_dag:heaviest_maximal_path", "peel_dag.dp", None),
    ("convexcover.peel_dag:best_restricted", "peel_dag.best_restricted", None),
    ("convexcover.peel_dag:path_polygon", "peel_dag.path_polygon", None),
    ("convexcover.cover:greedy_cover", "cover.greedy", _on_cover),
    ("convexcover.cover:verify_cover", "cover.verify", None),
    ("convexcover.cover:triangulate", "cover.triangulate", None),
    ("convexcover.rotten:rotten_potato_peel", "rotten.peel", None),
    ("convexcover.rotten:RottenSet.build", "rotten.build", None),
    ("convexcover.rotten:RottenSet.good_area_of", "rotten.good_area", None),
    ("convexcover.fileio:load_instance", "fileio.load", None),
    ("convexcover.fileio:load_regions", "fileio.load", None),
    ("convexcover.fileio:load_solution", "fileio.load", None),
    ("convexcover.fileio:dump_json", "fileio.dump", None),
    ("convexcover.cli:main", "cli.main", None),
]

# per-layer metric -> span whose self time it is
SELF_TIMES = {
    "arrangement.extensions_s": "arrangement.extensions",
    "arrangement.build_s": "arrangement.build",
    "arrangement.mark_covered_s": "arrangement.mark_covered",
    "visibility.polygon_s": "visibility.polygon",
    "peel_dag.anchor_dags_s": "peel_dag.anchor_dags",
    "peel_dag.clip_s": "peel_dag.clip",
    "peel_dag.build_dag_s": "peel_dag.build_dag",
    "peel_dag.partition_s": "peel_dag.partition",
    "peel_dag.sst_s": "peel_dag.sst",
    "peel_dag.dp_s": "peel_dag.dp",
    "peel_dag.best_restricted_s": "peel_dag.best_restricted",
    "peel_dag.path_polygon_s": "peel_dag.path_polygon",
    "cover.greedy_s": "cover.greedy",
    "cover.verify_s": "cover.verify",
    "cover.triangulate_s": "cover.triangulate",
    "rotten.peel_s": "rotten.peel",
    "rotten.build_s": "rotten.build",
    "rotten.good_area_s": "rotten.good_area",
    "fileio.load_s": "fileio.load",
    "fileio.dump_s": "fileio.dump",
    "cli.self_s": "cli.main",
}
# per-layer metric -> span whose calls it counts
CALLS = {
    "arrangement.builds": "arrangement.build",
    "visibility.calls": "visibility.polygon",
    "peel_dag.dags": "peel_dag.build_dag",
    "rotten.good_area_calls": "rotten.good_area",
}
COUNTS = ("arrangement.D", "arrangement.V_D", "arrangement.U", "peel_dag.nodes",
          "peel_dag.edges", "peel_dag.cells", "cover.rounds", "rotten.clip_calls")


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    own = tr.self_seconds()
    m: Dict[str, float] = {k: own.get(span, 0.0) for k, span in SELF_TIMES.items()}
    m.update({k: tr.calls(span) for k, span in CALLS.items()})
    m.update({k: tr.counts[k] for k in COUNTS})
    calls = tr.counts["rotten.clip_calls"]
    m["rotten.clip_hit_ratio"] = tr.counts["rotten.clip_hits"] / calls if calls else 0.0
    return m


def microbench(arrangements: List[Any], seed: int) -> Dict[str, float]:
    """ns per call of the two hottest predicates, on this run's own
    arrangement vertices (orientation) and extension segments
    (segment_intersection); the least of five passes."""
    eg = program("exact_geom")
    rng = random.Random(f"micro:{seed}")
    pts = [p for a in arrangements for p in a.vertices]
    segs = [e.segment for a in arrangements for e in a.extensions]
    triples = [(rng.choice(pts), rng.choice(pts), rng.choice(pts)) for _ in range(10000)]
    pairs = [(rng.choice(segs), rng.choice(segs)) for _ in range(2000)]

    def ns_per_call(fn, args_list) -> float:
        passes = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for args in args_list:
                fn(*args)
            passes.append((time.perf_counter_ns() - t0) / len(args_list))
        return min(passes)
    return {"exact_geom.orientation_ns": ns_per_call(eg.orientation, triples),
            "exact_geom.segment_intersection_ns": ns_per_call(eg.segment_intersection, pairs)}


# ------------------------------------------------------------------ measuring

@dataclass
class Round:
    tracer: Optional[Tracer] = None                                   # None: a plain round
    times: List[float] = field(default_factory=list)
    failed: int = 0
    rejected: int = 0
    pieces: int = 0
    good_area: Fraction = Fraction(0)
    outputs: List[Optional[Output]] = field(default_factory=list)     # None: failed

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def total(self) -> float:
        return sum(self.times)


def run_round(wl: Workload, tracer: Optional[Tracer]) -> Round:
    rnd = Round(tracer)
    for inst in wl.instances:
        sink = io.StringIO()
        problems: List[str] = []
        result, failure = None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                result = wl.op(inst)
            except Exception as exc:           # any program failure fails this operation only
                failure = f"{type(exc).__name__}: {exc}"
            rnd.times.append(time.perf_counter() - t0)
        if tracer is not None:                 # broken invariants seen during this operation
            problems, tracer.problems = tracer.problems, []
        if failure is None:
            try:
                out = wl.output(inst, result)
                problems += wl.check(inst, out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        rnd.outputs.append(None if failure or problems else out)
        if failure or problems:
            rnd.failed += 1
            rnd.rejected += bool(problems)
            print(f"perfbench: {wl.name} {inst.name}: {failure or '; '.join(problems)}",
                  file=sys.stderr)
        else:
            rnd.pieces += len(out.pieces)
            rnd.good_area += wl.good_area(inst, out)
    return rnd


def measure(wl: Workload, seconds: float, trace: bool) -> List[Round]:
    """Rounds until the next one would end after `seconds`; with trace,
    plain and traced rounds alternate and there is at least one of each."""
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer = Tracer()
            with Patches(tracer, TARGETS), Counted(tracer, "convexcover.rotten", "clip_convex",
                                                   inside="rotten.good_area", key="rotten.clip"):
                rounds.append(run_round(wl, tracer))
        else:
            rounds.append(run_round(wl, None))
        if trace and not any(r.traced for r in rounds):
            continue
        guess = statistics.median(r.total for r in rounds)
        if time.perf_counter() - start + guess > seconds:
            return rounds


def best_times(rounds: List[Round]) -> List[float]:
    """Each operation's least time over the rounds. The same operation
    run again in one process varies by up to 2x on a shared host, in
    slow phases that last seconds; the least of a few spread-out repeats
    is the steadiest estimate of its own cost."""
    return [min(ts) for ts in zip(*(r.times for r in rounds))]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(rounds: List[Round], setup_s: float) -> Dict[str, Any]:
    first = rounds[0]
    best = best_times(rounds)
    return {
        "setup_s": metric(setup_s, "s"),
        "total_s": metric(sum(best), "s"),
        "op_p50_s": metric(statistics.median(best), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pieces": metric(first.pieces, "count"),
        "good_area": metric(float(first.good_area), "area"),
    }


LAYER_UNITS = {"_s": "s", "_ns": "ns", "_ratio": "ratio", "_pct": "%"}


def per_layer(rounds: List[Round], wl: Workload) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [layer_metrics(r.tracer) for r in traced]
    # times: least over the traced rounds, as for the end-to-end times;
    # counts are the same in every round
    values = {k: min(m[k] for m in per_round) if k.endswith("_s") else per_round[0][k]
              for k in per_round[0]}
    values.update(microbench(list(traced[0].tracer.arrangements.values()), wl.seed))
    base = sum(best_times(plain))
    values["trace.overhead_s"] = sum(best_times(traced)) - base
    values["trace.overhead_pct"] = 100 * values["trace.overhead_s"] / base
    out = {}
    for k, v in values.items():
        unit = next((u for suffix, u in LAYER_UNITS.items() if k.endswith(suffix)), "count")
        out[k] = metric(v, unit)
    spans = {"workload": wl.name, "seed": wl.seed,
             "rounds": [{"names": r.tracer.names, "spans": r.tracer.spans,
                         "counts": dict(r.tracer.counts)} for r in traced]}
    return out, spans


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    import_program()
    wl, prep_s = set_up(args.workload, args.seed)
    setup_s = _CPU_BEFORE_SCRIPT + time.perf_counter() - _WALL_SCRIPT_START - prep_s

    rounds = measure(wl, args.seconds, bool(args.trace))
    attempted = sum(len(r.times) for r in rounds)
    result: Dict[str, Any] = {
        "correct": not any(r.rejected for r in rounds),
        "attempted": attempted,
        "failed": sum(r.failed for r in rounds),
    }
    if args.trace:
        result["metrics"], spans = per_layer(rounds, wl)
        (OUT / f"trace-{wl.name}-s{wl.seed}.json").write_text(json.dumps(spans))
    else:
        result["metrics"] = end_to_end(rounds, setup_s)
    detail = dict(result, rounds=[{"traced": r.traced, "total_s": r.total, "failed": r.failed,
                                   "op_s": dict(zip((i.name for i in wl.instances), r.times))}
                                  for r in rounds],
                  faces={i.name: i.faces for i in wl.instances})
    (OUT / f"result-{wl.name}-s{wl.seed}-t{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
