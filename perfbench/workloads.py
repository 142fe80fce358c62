"""The workloads: their job mixes, the job bodies, and their oracles.

A job is one entry taken from entry text to its final result, with
``load_entry(text)`` (which validates through ``.data()``) inside the
timed region, so job metrics mean the same thing in every workload.
Jobs call the package through the ``blanchfield`` namespace so that the
tracer's rebinding sees them.

Each workload cycles through a fixed list of slots; the seed only
changes the matrices generated for each slot.  Slot names read
``kind-g<genus>[-b<coefficient bound>]``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import blanchfield as B

import gen

WORKLOADS = {
    # construction-heavy: Gauss-Jordan over Q(t) at genus 4-6.  Slot order
    # only sets the mix; sorted by cost the median lands mid-way through
    # the four genus-4 bound-25 slots rather than between two kinds.
    "pairing-high-genus": [
        "seifert-g4-b3", "seifert-g4-b25", "seifert-g5-b3", "seifert-g4-b25",
        "seifert-g4-b3", "seifert-g6-b3", "seifert-g4-b25", "seifert-g4-b3",
        "seifert-g5-b25", "seifert-g4-b25"],
    # evaluation-heavy: one construction against hundreds of values
    "verify-low-genus": [
        "builtin-unknot", "builtin-trefoil", "builtin-figure-eight",
        "builtin-cinquefoil", "builtin-trefoil-fibred", "builtin-trefoil-dual",
        "seifert-g1-b2", "seifert-g1-b5", "seifert-g2-b2", "seifert-g2-b5",
        "seifert-g3-b2", "fibred-g1", "fibred-g2", "dual-g1-b2", "dual-g2-b2",
        "unknot-g2"],
    # one fresh interpreter per command; compute is negligible.  The four
    # verify commands are the slowest and sit together above the tail
    # percentile's position.
    "cli-cold": [
        "alexander", "alexander-json", "pairing-v", "pairing-file-json",
        "mk-json", "mk-file", "signature-file", "signature-json", "verify",
        "verify-file-json", "alexander-file-json", "pairing-file",
        "verify-json", "verify-file"],
}

# Jobs generated at set-up, as whole cycles; a run that outlasts the pool
# wraps around to its start.
POOL_CYCLES = {"pairing-high-genus": 8, "verify-low-genus": 8}

# Jobs whose outputs go through the sympy oracles, beyond the first cycle.
ORACLE_SAMPLE = {"pairing-high-genus": 0.0, "verify-low-genus": 0.5,
                 "cli-cold": 1.0}

# Signature samples in the verify-low-genus oracle: samples + 1 = 90, so
# the sweep lands exactly on the unit-circle Alexander roots of the
# trefoil (pi/3) and the cinquefoil (pi/5, 3pi/5) and some samples are
# indeterminate
ORACLE_SIGNATURE_SAMPLES = 89

CLI_TEMPLATES = {
    "alexander": ["alexander", "trefoil"],
    "alexander-json": ["alexander", "--json", "figure-eight"],
    "pairing-v": ["pairing", "trefoil", "--v", "1,0", "--w", "1,0"],
    "pairing-file-json": ["pairing", "--json", "{seifert1}"],
    "mk-json": ["mk", "--json", "trefoil"],
    "mk-file": ["mk", "{seifert2}"],
    "signature-file": ["signature", "{seifert2}", "--samples", "32"],
    "signature-json": ["signature", "--json", "cinquefoil", "--samples", "9"],
    "verify": ["verify", "trefoil"],
    "verify-file-json": ["verify", "--json", "{fibred}"],
    "verify-json": ["verify", "--json", "figure-eight"],
    "verify-file": ["verify", "{seifert1}"],
    "alexander-file-json": ["alexander", "--json", "{seifert2}"],
    "pairing-file": ["pairing", "{fibred}"],
}

SEIFERT_CHECKS = {"well-definedness", "sesquilinearity", "hermitian",
                  "nonsingularity", "consistency", "mk-form",
                  "kearton-ill-defined"}
FIBRED_CHECKS = {"well-definedness", "sesquilinearity", "hermitian",
                 "nonsingularity", "fibred-specialization"}


def build_jobs(workload: str, seed: int, workdir: Path | None = None) -> list[gen.Job]:
    """Generate the warm-up job followed by the pool, as entry text."""
    slots = WORKLOADS[workload]
    if workload == "cli-cold":
        return _cli_jobs(seed, workdir)
    count = 1 + len(slots) * POOL_CYCLES[workload]
    jobs = []
    for i in range(count):
        slot = slots[(i - 1) % len(slots)]
        rng = gen.job_rng(seed, workload, i)
        if slot.startswith("builtin-"):
            name = slot[len("builtin-"):]
            entry = B.builtin(name)
            job = gen.Job(slot, entry.kind, len(entry.matrices[0][1]) // 2, 0,
                          name == "unknot", B.render_entry(entry))
            if entry.kind == "seifert":
                job.extra["A"] = [list(r) for r in entry.matrices[0][1]]
        else:
            job = gen.make_job(slot, rng)
        job.extra["seed"] = rng.randrange(1 << 30)
        n = 2 * job.genus
        x = [rng.randint(-2, 2) for _ in range(n)]
        if n and not any(x):
            x[0] = 1
        job.extra["x"] = x
        jobs.append(job)
    return jobs


def _cli_jobs(seed: int, workdir: Path) -> list[gen.Job]:
    rng = gen.job_rng(seed, "cli-cold", 0)
    files = {
        "seifert1": gen.make_job("seifert-g1-b3", rng),
        "seifert2": gen.make_job("seifert-g2-b3", rng),
        "fibred": gen.make_job("fibred-g1", rng),
    }
    paths = {}
    for key, job in files.items():
        path = workdir / f"{key}.entry"
        path.write_text(job.text)
        paths[key] = str(path)
    jobs = []
    for name in ["alexander"] + WORKLOADS["cli-cold"]:  # warm-up first
        argv = tuple(a.format(**paths) for a in CLI_TEMPLATES[name])
        ref = next((k for k in files if "{" + k + "}" in CLI_TEMPLATES[name]), None)
        src = files[ref] if ref else None
        job = gen.Job(name, src.kind if src else "builtin",
                      src.genus if src else 0, src.bound if src else 0, False,
                      src.text if src else "", argv)
        if src is not None and "A" in src.extra:
            job.extra["A"] = src.extra["A"]
        jobs.append(job)
    return jobs


# --- job bodies (timed) ---------------------------------------------------

def run_pairing(job: gen.Job):
    data = B.load_entry(job.text).data()
    pairing = B.from_seifert(data)
    n = pairing.size
    basis = [B.basis_vector(n, i) for i in range(n)]
    values = [[pairing.value(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    return pairing, values, pairing.is_zero_element(job.extra["image"])


def run_verify(job: gen.Job):
    return B.verify_entry(B.load_entry(job.text), seed=job.extra["seed"])


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(job: gen.Job, root: Path, env: dict, launcher: list[str] | None = None):
    cmd = [sys.executable] + (launcher or ["-m", "blanchfield.cli"]) + list(job.argv)
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def prepare(workload: str, jobs: list[gen.Job]) -> None:
    """Untimed per-job inputs that need package types (image vectors)."""
    if workload != "pairing-high-genus":
        return
    for job in jobs:
        a, x = job.extra["A"], job.extra["x"]
        n = len(a)
        # (tA - A^T) x, built here rather than by the package
        job.extra["image"] = tuple(
            B.LaurentPoly(0, (-sum(a[j][i] * x[j] for j in range(n)),
                              sum(a[i][j] * x[j] for j in range(n))))
            for i in range(n))


# --- checks ---------------------------------------------------------------

def quick_check(workload: str, job: gen.Job, out) -> list[str]:
    """Cheap checks run on every job's output, outside the timed region."""
    if workload == "pairing-high-genus":
        pairing, values, zero = out
        n = 2 * job.genus
        if not zero:
            return ["presentation-image vector not zero in the module"]
        if len(values) != n or any(len(r) != n for r in values):
            return ["generator matrix has the wrong shape"]
        return []
    if workload == "verify-low-genus":
        bad = [r.line() for r in out if not r.passed]
        names = {r.name for r in out}
        want = {"seifert": SEIFERT_CHECKS, "fibred": FIBRED_CHECKS,
                "dual-surface": {"sesquilinearity"}}[job.kind]
        if not want <= names:
            bad.append(f"missing checks {sorted(want - names)}")
        if job.delta_one and any("WITNESS FOUND" in r.detail for r in out):
            bad.append("Kearton witness reported for a trivial Alexander module")
        return bad
    code, stdout, _ = out
    if code != 0:
        return [f"exit code {code}"]
    want = job.extra.get("expected")
    if want is not None and stdout != want:
        return ["stdout differs from the in-process run of the same command"]
    return []


def oracle_check(workload: str, job: gen.Job, out) -> list[str]:
    """The sympy / numpy oracles, on the sampled jobs.  ``out`` is the
    job's output for cli-cold only: the timed loop keeps no other output,
    so that peak memory is one job's (keeping the pairing matrices and
    values of one pairing-high-genus cycle added 2.6 MB), and pairing
    outputs are recomputed here."""
    import oracles
    if workload == "pairing-high-genus":
        pairing, values, _ = run_pairing(job)
        pm = pairing.pairing_matrix
        return (oracles.check_pairing_certificate(job.extra["A"], pm)
                or oracles.check_values(values, pm))
    if workload == "verify-low-genus":
        if "A" not in job.extra:
            return []
        a = job.extra["A"]
        data = B.load_entry(job.text).data()
        delta = B.alexander_polynomial(data)
        form = B.mk_matrix(data)
        problems = (oracles.check_alexander(a, delta)
                    + oracles.check_mk(form.mk, delta, form.determinant())
                    + oracles.check_signatures(a, *_signatures(data, form)))
        if job.delta_one and len(oracles.strip_t(oracles.alexander_det(a))) != 1:
            problems.append("generated Delta = 1 entry has a nontrivial Alexander module")
        return problems
    code, stdout, _ = out
    problems = []
    pin = CLI_PINS.get(job.slot)
    if pin is not None and not pin(stdout):
        problems.append(f"pinned output of {job.slot!r} does not match")
    if job.slot == "alexander-file-json":
        delta = B.LaurentPoly.parse(json.loads(stdout)["result"]["alexander"])
        problems += oracles.check_alexander(job.extra["A"], delta)
    if job.slot in SIGNATURE_PARSERS:
        a = job.extra.get("A")
        if a is None:  # a builtin entry, named on the command line
            names = {e.name for e in B.builtin_catalog()}
            entry = B.builtin(next(x for x in job.argv if x in names))
            a = [list(r) for r in entry.matrices[0][1]]
        profile = SIGNATURE_PARSERS[job.slot](stdout)
        problems += oracles.check_signatures(a, profile, {})
    return problems


def _signatures(data, form):
    """Package Levine-Tristram profile and sign(M_K) at its determinate samples."""
    profile = B.signature_profile(data, ORACLE_SIGNATURE_SAMPLES)
    mk_sigs = {}
    for theta, sig in profile:
        if sig is None:
            continue
        try:
            mk_sigs[theta] = B.mk_signature(form, cmath.exp(1j * theta))
        except B.IndeterminateSignatureError:
            mk_sigs[theta] = None
    return profile, mk_sigs


def _human_profile(stdout: str) -> list[tuple[float, int | None]]:
    """Rows ``theta=<6 decimals>  <sig>``; theta is recomputed exactly from
    the row number, as signature_profile samples pi j/(samples + 1)."""
    rows = stdout.splitlines()
    out = []
    for j, row in enumerate(rows, start=1):
        printed, sig = row.split()
        theta = cmath.pi * j / (len(rows) + 1)
        if abs(float(printed.removeprefix("theta=")) - theta) > 1e-6:
            raise ValueError(f"row {j} is not at theta = pi*{j}/{len(rows) + 1}")
        out.append((theta, None if sig == "?" else int(sig)))
    return out


def _json_profile(stdout: str) -> list[tuple[float, int | None]]:
    return [(row["theta"], None if row["signature"] == "?" else row["signature"])
            for row in _json_result(stdout)["profile"]]


def _json_result(stdout: str) -> dict:
    return json.loads(stdout)["result"]


CLI_PINS = {
    "alexander": lambda s: s == "t - 1 + t^-1\n",
    "alexander-json": lambda s: _json_result(s)["alexander"] == "-t + 3 - t^-1",
    "pairing-v": lambda s: s == "(-t)/(t^2 - t + 1)\n",
    "mk-json": lambda s: (_json_result(s)["mk"] == [["-1", "-t"], ["-t^-1", "t - 2 + t^-1"]]
                          and _json_result(s)["det"] == "-t + 1 - t^-1"),
    "signature-json": lambda s: len(_json_result(s)["profile"]) == 9,
    "signature-file": lambda s: len(s.splitlines()) == 32,
    "verify": lambda s: "FAIL" not in s and "kearton-ill-defined: PASS" in s,
    "verify-json": lambda s: _json_result(s)["passed"] is True,
}


# the CLI signature jobs, checked sample by sample against numpy
SIGNATURE_PARSERS = {"signature-file": _human_profile, "signature-json": _json_profile}


def expected_cli_stdout(job: gen.Job) -> str:
    """Stdout of the same command run in-process through ``blanchfield.cli.main``."""
    from blanchfield import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(job.argv))
    return buf.getvalue()


def paper_pins() -> list[str]:
    """The paper's trefoil and figure-eight values, through the library."""
    problems = []
    trefoil = B.builtin("trefoil").data()
    fig8 = B.builtin("figure-eight").data()
    if str(B.alexander_polynomial(trefoil)) != "t - 1 + t^-1":
        problems.append("trefoil Delta")
    e1 = B.basis_vector(2, 0)
    if str(B.from_seifert(trefoil).value(e1, e1)) != "(-t)/(t^2 - t + 1)":
        problems.append("trefoil Bl(e1, e1)")
    if str(B.alexander_polynomial(fig8)) != "-t + 3 - t^-1":
        problems.append("figure-eight Delta")
    if B.levine_tristram_signature(fig8, -1) != 0:
        problems.append("figure-eight sigma(-1)")
    if B.levine_tristram_signature(trefoil, -1) != -2:
        problems.append("trefoil sigma(-1)")
    return problems
