"""padfa benchmark: answers a seeded set of questions per workload in a closed
loop (one client; the next question starts when the previous answer is back)
and prints every metric by name and unit, then one JSON line.

    python3 perfbench/run.py --workload subset-search --seed 1 --seconds 20 --trace 0

Run it from anywhere; it uses the padfa sources in ``src/`` next to this
directory and exits with code 2, printing no result, if they are missing.
With ``--trace 0`` it reports the end-to-end metrics, their timings scaled
to a reference host speed (hostspeed.py); with ``--trace 1`` it answers the
questions once untraced and once traced and reports the per-layer metrics
and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import MIN_SAMPLES, HostClock
from tracing import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SETUP_REPEATS = 5
# Questions answered once after building the inputs, so that lazy imports,
# bytecode caches and the file cache are warm before timing.
WARMUP_QUESTIONS = 1
CORE_SAMPLE = 200
CORE_REPEATS = 5


def _fresh_import():
    """Import padfa and the workloads from scratch (modules already loaded
    are dropped first, so every set-up pays the import)."""
    for name in list(sys.modules):
        if name == "padfa" or name.startswith("padfa.") or name == "workloads":
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    padfa_file = Path(sys.modules["padfa"].__file__).resolve()
    if SRC.resolve() not in padfa_file.parents:
        raise ImportError(f"padfa imported from {padfa_file}, not from {SRC}")
    return workloads


def set_up(name: str, seed: int, workdir: Path, clock: HostClock):
    """Import, build the inputs and warm up, SETUP_REPEATS times, calibrating
    before and after each; returns the raw and the scaled set-up times and
    the last set-up's workloads module, workload, questions and automata."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        clock.calibrate(MIN_SAMPLES)
        start = time.perf_counter()
        workloads = _fresh_import()
        workload = workloads.WORKLOADS[name]
        questions, automata = workload.build(seed, False, workdir)
        for question in questions[:WARMUP_QUESTIONS]:
            question.ask()
        end = time.perf_counter()
        clock.calibrate(MIN_SAMPLES)
        raw.append(end - start)
        scaled.append((end - start) * clock.scale(start, end))
    return (raw, scaled), workloads, workload, questions, automata


def answer_all(questions, seconds: float, clock: HostClock | None = None):
    """Whole passes over the questions until ``seconds`` have elapsed,
    calibrating between questions when a ``clock`` is given.  Returns
    (latencies, their start times, answers as (question index, answer,
    error), elapsed)."""
    latencies: list[float] = []
    starts: list[float] = []
    answers: list[tuple[int, object, str | None]] = []
    start = time.perf_counter()
    while True:
        for index, question in enumerate(questions):
            if clock is not None:
                clock.tick()
            asked = time.perf_counter()
            try:
                answer, error = question.ask(), None
            except Exception as exc:  # counted as a failed question
                answer, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - asked)
            starts.append(asked)
            answers.append((index, answer, error))
        if time.perf_counter() - start >= seconds:
            return latencies, starts, answers, time.perf_counter() - start


def check_all(questions, answers) -> list[str]:
    """Independent checks, outside the timed region; also require every pass
    to give the same answer to the same question."""
    problems = []
    first: dict[int, object] = {}
    for index, answer, error in answers:
        label = questions[index].label
        if error is not None:
            problems.append(f"{label}: {error}")
            continue
        if index in first:
            if answer != first[index]:
                problems.append(f"{label}: answer changed between passes")
            continue
        first[index] = answer
        problem = questions[index].check(answer)
        if problem is not None:
            problems.append(f"{label}: {problem}")
    return problems


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def percentile(values: list[float], pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def timed_run(args, workload, questions, setup_times, clock: HostClock):
    """The end-to-end metrics; every timing is scaled to the reference host
    speed (see hostspeed.py), and the raw figures are printed as notes."""
    calibrated = clock.spent()
    latencies, starts, answers, elapsed = answer_all(questions, args.seconds, clock)
    calibrated = clock.spent() - calibrated
    clock.calibrate(MIN_SAMPLES)
    problems = check_all(questions, answers)
    count = len(latencies)
    scaled = [x * clock.scale(s, s + x) for x, s in zip(latencies, starts)]
    tail = percentile(scaled, workload.tail_pct)
    raw_setup, scaled_setup = setup_times
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "questions_per_s": (count / sum(scaled), "1/s"),
        "latency_ms_p50": (statistics.median(scaled) * 1000, "ms"),
        "latency_ms_tail": (tail * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload.child_rss), "MB"),
    }
    notes = [
        f"{count // len(questions)} passes of {len(questions)} questions in {elapsed:.2f} s"
        f" ({calibrated:.2f} s of it calibrating)",
        f"latency_ms_tail is p{workload.tail_pct} of {count} answers "
        f"({sum(1 for x in scaled if x > tail)} beyond it)",
        f"failed_frac {len(problems) / count:.6g} ({len(problems)}/{count}) [ratio]",
        f"host speed: reference/measured {sum(scaled) / sum(latencies):.4f} over the loop;"
        f" raw setup_s {statistics.median(raw_setup):.6g}, questions_per_s"
        f" {count / (elapsed - calibrated):.6g}, latency_ms_p50"
        f" {statistics.median(latencies) * 1000:.6g}, latency_ms_tail"
        f" {percentile(latencies, workload.tail_pct) * 1000:.6g}",
    ]
    return count, len(problems), problems, metrics, notes


def core_probe(tracer, automata, seed: int) -> None:
    """Per-call cost of one subset-image step and of a word image, on a fixed
    seeded sample of (automaton, mask, letter) from the workload's inputs."""
    rng = random.Random(seed)
    sample = []
    for _ in range(CORE_SAMPLE):
        dfa = rng.choice(automata)
        mask = rng.getrandbits(dfa.state_count) or 1
        word = tuple(rng.randrange(dfa.letter_count) for _ in range(16))
        sample.append((dfa, mask, word))
    tracer.question = -1
    for _ in range(CORE_REPEATS):
        with tracer.span("core.step_mask") as span:
            for dfa, mask, word in sample:
                dfa.step_mask(mask, word[0])
        span.counts["calls"] = len(sample)
        with tracer.span("core.image_mask") as span:
            for dfa, mask, word in sample:
                dfa.image_mask(mask, word)
        span.counts["letters"] = len(sample) * 16


def trace_questions(tracer, questions) -> tuple[int, list[str]]:
    answers = []
    for index, question in enumerate(questions):
        tracer.question = index
        try:
            answers.append((index, question.trace(tracer), None))
        except Exception as exc:  # counted as a failed question
            answers.append((index, None, f"{type(exc).__name__}: {exc}"))
    return len(answers), check_all(questions, answers)


def traced_run(args, workloads, workload, questions, automata, workdir):
    untraced = answer_all(questions, 0)[0]
    tracer = Tracer()
    count, problems = trace_questions(tracer, questions)
    overhead = tracer.question_seconds() - sum(untraced)
    core_probe(tracer, automata, args.seed)
    metrics = layer_metrics(tracer.spans)
    notes = []
    # Layers this workload never calls are measured on the small ("light")
    # question lists of the workloads that do call them.
    covered_by = {}
    for other in workloads.WORKLOADS.values():
        missing = [m for m in LAYER_METRICS if m not in metrics]
        if not missing or other is workload:
            continue
        extra = Tracer()
        light, _ = other.build(args.seed, True, workdir)
        extra_count, extra_problems = trace_questions(extra, light)
        count += extra_count
        problems += extra_problems
        for metric, value in layer_metrics(extra.spans).items():
            if metric in missing:
                metrics[metric] = value
                covered_by[metric] = other.name
    if covered_by:
        notes.append(
            "from light lists of other workloads: "
            + ", ".join(f"{m} ({w})" for m, w in sorted(covered_by.items()))
        )
    metrics = {m: metrics[m] for m in LAYER_METRICS}
    metrics["trace.overhead_s"] = (overhead, "s")
    notes.append(
        f"tracing overhead {overhead:.6f} s = traced {tracer.question_seconds():.6f} s"
        f" - untraced {sum(untraced):.6f} s over {len(questions)} questions"
    )
    SCRATCH.mkdir(exist_ok=True)
    spans_file = SCRATCH / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.dump(spans_file)
    notes.append(f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    return count, len(problems), problems, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "padfa" / "__init__.py").is_file():
        print(f"error: padfa sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"work-{os.getpid()}"
    workdir.mkdir()
    clock = HostClock()
    try:
        setup_times, workloads, workload, questions, automata = set_up(
            args.workload, args.seed, workdir, clock
        )
        if args.trace:
            result = traced_run(args, workloads, workload, questions, automata, workdir)
        else:
            result = timed_run(args, workload, questions, setup_times, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems, metrics, notes = result

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
