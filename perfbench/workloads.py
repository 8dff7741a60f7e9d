"""The three workloads: generated inputs, one closed-loop caller, output checks.

Every workload is driven from this process with at most one work process at
a time.  ``cli_session`` and ``verify_suite`` run the command line as
subprocesses (``python -m diracvortex.cli`` with ``src`` on the path), so
interpreter start-up and import are part of each operation; ``state_sweep``
calls the public functions in this process and times no import or CLI work.
"""

from dataclasses import dataclass
import json
import math
import os
from pathlib import Path
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference_digests.json"

#: a child that has not finished by then is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
#: marker of the trace summary line a traced child writes to stderr
TRACE_MARKER = "PERFBENCH_TRACE "

#: one block of the CLI session; the reference slot replays a recorded command
CLI_BLOCK = ("profile", "table", "figure", "spectrum",
             "profile", "table", "figure", "reference")
#: --samples strata (log-uniform inside each), cycled over profile and figure
SAMPLE_BINS = ((200, 600), (600, 1800), (1800, 6000))

#: command lines whose stdout must keep the digest recorded with this benchmark
REFERENCE_COMMANDS = (
    ("profile", "--l", "2", "--p", "3"),
    ("profile", "--l", "-3", "--p", "2", "--spin", "down", "--B", "2.5",
     "--samples", "300", "--format", "json", "--normalized"),
    ("profile", "--l", "1", "--p", "1", "--physical-dr", "--samples", "1000"),
    ("figure",),
    ("figure", "--B", "0.5", "--samples", "256", "--format", "json", "--normalized"),
    ("spectrum", "--max-levels", "4"),
    ("spectrum", "--B", "3", "--max-levels", "6", "--format", "json"),
    ("table", "--l", "2", "--p", "3", "--check"),
    ("table", "--l", "-1", "--p", "2", "--spin", "down", "--B", "0.7", "--check",
     "--format", "json"),
)

FAMILIES = ((1, 1), (-1, 1), (1, -1), (-1, -1))
#: state-sweep block: every p in 0..P_MAX once, each with its own l stratum;
#: an odd block puts the median inside one stratum instead of between two
P_MAX = 24
L_MAX = 31
#: (beB, k) pairs drawn per seed and shared by the states
BEAM_PAIRS = 4
PROFILE_POINTS = 256
TEXTURE_POINTS = 8

#: traced runs execute a fixed prefix of the seeded inputs, so counts repeat
TRACE_CLI_COMMANDS = 16
TRACE_VERIFY_RUNS = 1
TRACE_STATES = 50


# ---------------------------------------------------------------- children

@dataclass
class ChildRun:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, env):
    """Run argv to completion; wall time, output and the child's own peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildRun(wall, proc.returncode, out, err[0] if err else b"", usage.ru_maxrss)


def cli_argv(args):
    return [sys.executable, "-m", "diracvortex.cli", *args]


def traced_cli_argv(args):
    return [sys.executable, str(HERE / "traced_cli.py"), *args]


def trace_summary(run: ChildRun):
    """The span summary a traced child wrote as its last marked stderr line."""
    for line in reversed(run.stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(TRACE_MARKER):
            return json.loads(line[len(TRACE_MARKER):])
    return None


_SETUP_CODE = ("import time; t = time.perf_counter(); import diracvortex.cli; "
               "print(repr(time.perf_counter() - t))")


def time_imports(env, repeats):
    """Import times (s) of diracvortex.cli, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        run = run_child([sys.executable, "-c", _SETUP_CODE], env)
        if run.returncode != 0:
            raise RuntimeError("importing diracvortex.cli failed:\n"
                               + run.stderr.decode("utf-8", "replace"))
        times.append(float(run.stdout))
    return times


def parse_importtime(stderr: str):
    """Seconds spent importing scipy, numpy and diracvortex's own modules.

    ``-X importtime`` prints one line per module, children before their
    parent, indented two spaces per level.  scipy counts the cumulative time
    of its outermost modules, which includes what it pulls in (numpy.f2py,
    numpy.ma, stdlib); numpy counts its outermost modules not imported from
    scipy; diracvortex counts the self time of its own modules.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip().split(".")[0], int(self_us), int(cum_us)))
    sums = {"scipy": 0, "numpy": 0, "diracvortex": 0}
    ancestors = []
    for depth, top, self_us, cum_us in reversed(entries):
        del ancestors[depth:]
        if top == "diracvortex":
            sums[top] += self_us
        elif top == "scipy" and "scipy" not in ancestors:
            sums[top] += cum_us
        elif top == "numpy" and not {"numpy", "scipy"} & set(ancestors):
            sums[top] += cum_us
        ancestors.append(top)
    return {k: v / 1e6 for k, v in sums.items()}


def import_breakdown(env, repeats):
    """Median of ``parse_importtime`` over fresh interpreters."""
    per_run = []
    for _ in range(repeats):
        run = run_child([sys.executable, "-X", "importtime", "-c",
                         "import diracvortex.cli"], env)
        per_run.append(parse_importtime(run.stderr.decode("utf-8", "replace")))
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}


# ---------------------------------------------------------------- loop

def closed_loop(ops, seconds, run_op):
    """One caller: run ops in turn until the next would likely end past ``seconds``.

    ``run_op`` returns (wall seconds, failure reason or None).  The next
    operation starts only if the elapsed time plus the median so far fits.
    """
    walls, failures = [], []
    start = time.perf_counter()
    for op in ops:
        if walls and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        wall, reason = run_op(op)
        walls.append(wall)
        if reason:
            failures.append(reason)
    return walls, failures


# ---------------------------------------------------------------- cli_session

def _option(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def make_command(args, digest=None):
    """A CLI command with the row count its output must have."""
    kind = args[0]
    if kind in ("profile", "figure"):
        rows = int(_option(args, "--samples", 512))
    elif kind == "spectrum":
        rows = checks.expected_levels(int(_option(args, "--max-levels", 4)))
    else:
        rows = 1
    return {"kind": kind, "argv": list(args), "format": _option(args, "--format", "csv"),
            "rows": rows, "digest": digest}


def load_references():
    digests = json.loads(REFERENCE_FILE.read_text())
    return [make_command(args, digests[" ".join(args)]) for args in REFERENCE_COMMANDS]


def _log_uniform_int(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _field(rng):
    return ["--B", repr(round(10 ** rng.uniform(-1.0, 1.0), 4))]


def _state(rng):
    return ["--l", str(rng.randint(-12, 12)), "--p", str(rng.randint(0, 10)),
            "--spin", rng.choice(("up", "down"))]


def _format(rng):
    return ["--format", rng.choice(("csv", "json"))]


def cli_commands(seed, references):
    """Endless seeded command stream, one ``CLI_BLOCK`` at a time."""
    rng = random.Random(seed)
    ref_index = rng.randrange(len(references))
    sample_slot = 0
    while True:
        for kind in CLI_BLOCK:
            if kind == "reference":
                yield references[ref_index % len(references)]
                ref_index += 1
                continue
            args = [kind]
            if kind in ("profile", "table"):
                args += _state(rng) + ["--k-over-m", repr(round(rng.uniform(0.3, 3.0), 3))]
            if kind in ("profile", "figure"):
                lo, hi = SAMPLE_BINS[sample_slot % len(SAMPLE_BINS)]
                sample_slot += 1
                args += ["--samples", str(_log_uniform_int(rng, lo, hi))]
                if rng.random() < 0.5:
                    args.append("--normalized")
            if kind == "profile" and rng.random() < 0.5:
                args.append("--physical-dr")
            if kind == "spectrum":
                args += ["--max-levels", str(rng.randint(1, 8))]
            if kind == "table":
                args.append("--check")
            yield make_command(args + _field(rng) + _format(rng))


class CliWorkload:
    """A closed loop of CLI subprocesses; subclasses generate and check the ops."""

    def __init__(self, env):
        self.env = env
        self.done, self.margins, self.maxrss_kb = [], [], 0

    def _run(self, op, argv):
        run = run_child(argv, self.env)
        self.maxrss_kb = max(self.maxrss_kb, run.maxrss_kb)
        reason = self.check(op, run)
        return run, (f"{' '.join(self.args(op))}: {reason}" if reason else None)

    def run_op(self, op):
        self.done.append(op)
        run, reason = self._run(op, cli_argv(self.args(op)))
        return run.wall_s, reason

    def measure(self, seconds):
        return closed_loop(self.stream, seconds, self.run_op)

    def traced(self):
        """Each of the first ``trace_ops`` operations untraced and traced.

        The two runs of an operation alternate in order, so warm-up and
        drift fall on both sides of ``trace.overhead_frac``.
        """
        import spans
        summary, walls, failures, bytes_out = {}, {False: 0.0, True: 0.0}, [], []
        for i in range(self.trace_ops):
            op = next(self.stream)
            self.done.append(op)
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                argv = (traced_cli_argv if is_traced else cli_argv)(self.args(op))
                run, reason = self._run(op, argv)
                walls[is_traced] += run.wall_s
                failures += [reason] if reason else []
                if not is_traced:
                    continue
                bytes_out.append(len(run.stdout))
                part = trace_summary(run)
                if part is None:
                    failures.append(f"{' '.join(self.args(op))}: no trace summary")
                else:
                    summary = spans.merge(summary, part)
        extra = {"cli.bytes_out": (statistics.mean(bytes_out), "bytes")}
        return summary, extra, walls[False], walls[True], 2 * self.trace_ops, failures


class CliSession(CliWorkload):
    name = "cli_session"
    trace_ops = TRACE_CLI_COMMANDS

    def __init__(self, seed, env, references=None):
        super().__init__(env)
        self.stream = cli_commands(seed, references or load_references())

    def args(self, cmd):
        return cmd["argv"]

    def check(self, cmd, run):
        return checks.check_cli(cmd, run.returncode, run.stdout, self.margins)

    def inputs(self):
        cmds = self.done
        samples = [c["rows"] for c in cmds if c["kind"] in ("profile", "figure")]
        ls = [int(_option(c["argv"], "--l", 0)) for c in cmds if "--l" in c["argv"]]
        ps = [int(_option(c["argv"], "--p", 0)) for c in cmds if "--p" in c["argv"]]
        return {
            "commands": len(cmds),
            "by_kind": {k: sum(1 for c in cmds if c["kind"] == k and not c["digest"])
                        for k in ("profile", "figure", "spectrum", "table")},
            "reference_commands": sum(1 for c in cmds if c["digest"]),
            "json_share": sum(c["format"] == "json" for c in cmds) / max(1, len(cmds)),
            "l_range": [min(ls), max(ls)] if ls else None,
            "p_range": [min(ps), max(ps)] if ps else None,
            "samples": ({"min": min(samples), "median": statistics.median(samples),
                         "max": max(samples)} if samples else None),
        }


class VerifySuite(CliWorkload):
    name = "verify_suite"
    trace_ops = TRACE_VERIFY_RUNS

    def __init__(self, seed, env):
        super().__init__(env)
        rng = random.Random(seed)
        self.stream = iter(lambda: ("verify", "--format", rng.choice(("json", "csv"))), None)

    def args(self, op):
        return op

    def check(self, op, run):
        return checks.check_verify(_option(op, "--format", "json"), run.returncode,
                                   run.stdout, self.margins)

    def inputs(self):
        formats = [_option(op, "--format", "json") for op in self.done]
        return {"runs": len(formats), "formats": {f: formats.count(f) for f in set(formats)}}


# ---------------------------------------------------------------- state_sweep

def state_specs(seed):
    """Endless seeded stream of distinct states, in blocks of P_MAX + 1.

    Cost grows steeply with p and with l.  Each block holds every p once,
    paired with a fixed l stratum (width (L_MAX + 1) / (P_MAX + 1)); the
    seed draws l inside the stratum, the family, the beam and the order.
    Every seed then sees nearly the same cost distribution, so medians and
    tails compare across seeds.
    """
    rng = random.Random(seed)
    beams = [(10 ** rng.uniform(-3.0, 0.3), rng.uniform(0.2, 3.0))
             for _ in range(BEAM_PAIRS)]
    n = P_MAX + 1
    seen = set()
    while True:
        block = list(range(n))
        rng.shuffle(block)
        for p in block:
            stratum = (7 * p) % n
            l = int((stratum + rng.random()) * (L_MAX + 1) / n)
            while True:
                free = [(fam, beam) for fam in FAMILIES for beam in range(BEAM_PAIRS)
                        if (l or fam[0] == fam[1]) and (fam, l, p, beam) not in seen]
                if free:
                    break
                l = (l + 1) % (L_MAX + 1)
            fam, beam = rng.choice(free)
            seen.add((fam, l, p, beam))
            beb, k = beams[beam]
            yield {"spin": fam[0], "oam": fam[1], "l": l, "p": p, "beB": beb, "k": k}


def expected_sign_changes(spin, oam, p):
    """Zero crossings of jphi per family (see observables.sign_change_radii)."""
    if (spin, oam) == (1, -1):
        return 2 * p + 1
    if (spin, oam) == (-1, -1):
        return 2 * p - 1 if p else 0
    return 2 * p


def import_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    from diracvortex import observables, polyspinor, states
    return np, observables, polyspinor, states


def state_op(spec):
    """All derived quantities of one state: (wall seconds, values to check)."""
    np, obs, ps, st = import_library()
    qn = st.QuantumNumbers(spec["spin"], spec["oam"], spec["l"], spec["p"])
    bp = st.BeamParameters(beB=spec["beB"], m=1.0, k=spec["k"])
    rmax = 2.0 * math.sqrt(2 * qn.p + qn.l + 1) + 3.0
    t0 = time.perf_counter()
    density_quad = obs.integrated_density_quadrature(qn, bp)
    pairs = [
        ("integrated_density", obs.integrated_density(qn, bp), density_quad),
        ("integrated_jz", obs.integrated_jz(qn, bp), obs.integrated_jz_quadrature(qn, bp)),
        ("r2_moment", obs.r2_moment(qn, bp), obs.r2_moment_quadrature(qn, bp)),
        ("gauge_covariant_jz", obs.gauge_covariant_jz(qn, bp),
         obs.gauge_covariant_jz_quadrature(qn, bp)),
        ("magnetic_moment", obs.magnetic_moment(qn, bp),
         obs.magnetic_moment_quadrature(qn, bp)),
    ]
    norm = st.normalization_constant(qn, bp)
    profile = obs.radial_profile(qn, bp, np.linspace(0.0, rmax, PROFILE_POINTS),
                                 normalized=True)
    radii = obs.sign_change_radii(qn)
    rings = obs.counterflow_rings(qn, bp)
    texture = [obs.spin_texture(qn, bp, float(r))
               for r in np.linspace(0.1, rmax, TEXTURE_POINTS)]
    dirac = ps.dirac_residual(qn, bp)
    wall = time.perf_counter() - t0
    sampled = [profile.j0, profile.jz, profile.jphi, profile.s_phi, radii,
               [x for ring in rings for x in ring],
               [v for s in texture for v in (s.s_r, s.s_phi, s.s_z)]]
    values = {
        "pairs": pairs,
        "norm_error": norm * norm * density_quad - 1.0,
        "dirac": dirac,
        "radii_found": len(radii),
        "radii_expected": expected_sign_changes(qn.spin_sign, qn.oam_sign, qn.p),
        "finite": all(bool(np.all(np.isfinite(np.asarray(a, dtype=float))))
                      for a in sampled),
    }
    return wall, values


class StateSweep:
    name = "state_sweep"

    def __init__(self, seed, env):
        self.stream = state_specs(seed)
        self.done, self.margins = [], []
        import_library()

    @property
    def maxrss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run_op(self, spec):
        self.done.append(spec)
        wall, values = state_op(spec)
        reason = checks.check_state(values)
        for _, closed, quad in values["pairs"]:
            m = checks.margin_decades(abs(closed - quad) / max(1.0, abs(closed)),
                                      checks.QUADRATURE_TOL)
            if m is not None:
                self.margins.append(m)
        m = checks.margin_decades(values["dirac"], checks.DIRAC_TOL)
        if m is not None:
            self.margins.append(m)
        label = "state {spin:+d}{oam:+d} l={l} p={p} beB={beB:.3g} k={k:.3g}".format(**spec)
        return wall, (f"{label}: {reason}" if reason else None)

    def measure(self, seconds):
        return closed_loop(self.stream, seconds, self.run_op)

    def traced(self):
        """The first states untraced and traced in this process, alternating."""
        import spans
        recorder = spans.SpanRecorder()
        batch = [next(self.stream) for _ in range(TRACE_STATES)]
        walls, failures = {False: 0.0, True: 0.0}, []
        for i, spec in enumerate(batch):
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                if is_traced:
                    recorder.install()
                try:
                    wall, reason = self.run_op(spec)
                finally:
                    recorder.uninstall()
                walls[is_traced] += wall
                failures += [reason] if reason else []
        self.done = batch
        extra = {"cli.bytes_out": (0.0, "bytes")}
        return (recorder.summary(), extra, walls[False], walls[True], 2 * TRACE_STATES,
                failures)

    def inputs(self):
        specs = self.done
        beams = sorted({(round(s["beB"], 6), round(s["k"], 6)) for s in specs})
        return {
            "states": len(specs),
            "distinct_states": len({tuple(sorted(s.items())) for s in specs}),
            "l_range": [min(s["l"] for s in specs), max(s["l"] for s in specs)],
            "p_range": [min(s["p"] for s in specs), max(s["p"] for s in specs)],
            "beB_k_pairs": [list(b) for b in beams],
        }


WORKLOADS = {cls.name: cls for cls in (CliSession, VerifySuite, StateSweep)}
