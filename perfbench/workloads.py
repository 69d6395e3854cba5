"""Seeded inputs, closed-loop jobs and output checks for the four workloads.

Every input is drawn here from the workload seed; the library receives
only these generated values.  A job's ``run`` is the timed program part
and its ``check`` compares the output with references computed here,
independently of the library where a closed form exists.  ``check``
raises :class:`CheckFailed` for a wrong output.

Each block of jobs holds every size class a fixed number of times in a
seeded order, so the size mix of a run is exact whatever the number of
blocks, and each latency percentile falls inside one size class.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from calibration import DENSE, SMALL

# output tolerances, as in the acceptance suite (criteria 2, 4, 8)
ENTROPY_TOL = 1e-8
DET_TOL = 1e-8
VQ_TOL = 1e-8
SPECTRUM_TOL = 1e-6
POOL = 4  # distinct inputs per size class
CHILD_TIMEOUT = 60.0


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


# ---- references computed without the library -------------------------------

def _close(actual, expected, tol):
    try:
        actual = np.asarray(actual, dtype=float)
    except (TypeError, ValueError):
        return False
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    scale = 1.0 + float(np.max(np.abs(expected), initial=0.0))
    return float(np.max(np.abs(actual - expected), initial=0.0)) <= tol * scale


def purity_gap(sigma):
    """Purity-identity residual over its tolerance; at most 1 for a pure state."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    residual = np.max(np.abs(-omega @ sigma @ omega @ sigma - np.eye(2 * n)))
    return float(residual / (1e-9 * (1.0 + np.max(np.abs(sigma)) ** 2)))


def bosonic_entropy(nu):
    if nu - 1.0 < 1e-12:
        return 0.0
    up, down = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return up * math.log2(up) - down * math.log2(down)


def mode_entropies(sigma):
    """One-vs-rest entropy of every mode of a pure state, from its 2x2 blocks."""
    sigma = np.asarray(sigma, dtype=float)
    dets = (sigma[0::2, 0::2].diagonal() * sigma[1::2, 1::2].diagonal()
            - sigma[0::2, 1::2].diagonal() ** 2)
    return [bosonic_entropy(math.sqrt(max(d, 1.0))) for d in dets]


def ring_potential(n, coupling):
    """Nearest-neighbour spring ring: (1 + 2c) on the diagonal, -c to each neighbour."""
    shift = np.roll(np.eye(n), 1, axis=1)
    return (1.0 + 2.0 * coupling) * np.eye(n) - coupling * (shift + shift.T)


def recipe_doc(n, rng, s_max=4.0):
    """Recipe document drawn like ``random_recipe``: log-uniform squeezings, t in [0.05, 0.95]."""
    bound = math.log(s_max)
    squeezings = np.exp(rng.uniform(-bound, bound, size=n - 1))
    pairs = [(j, i) for i in range(3, n + 1) for j in range(2, i)]
    transmittivities = rng.uniform(0.05, 0.95, size=len(pairs))
    return {
        "n_modes": n,
        "s": float(squeezings[0]),
        "r": {str(i): float(v) for i, v in zip(range(3, n + 1), squeezings[1:])},
        "b": [{"j": j, "i": i, "t": float(t)} for (j, i), t in zip(pairs, transmittivities)],
    }


def local_frame(n, rng):
    """Random rotation-squeeze-rotation on every mode, as a 2N x 2N matrix."""
    s = np.eye(2 * n)
    for k in range(n):
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        d = np.exp(rng.uniform(-0.8, 0.8))
        r1 = np.array([[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]])
        r2 = np.array([[np.cos(t2), -np.sin(t2)], [np.sin(t2), np.cos(t2)]])
        s[2 * k:2 * k + 2, 2 * k:2 * k + 2] = r1 @ np.diag([d, 1.0 / d]) @ r2
    return s


# ---- output checks ---------------------------------------------------------

def check_forge(n, cm, sf, params, rebuilt):
    sigma = np.asarray(cm.data)
    require(purity_gap(sigma) <= 1.0, "engineered state is not pure")
    expected = n * (n - 1) // 2
    require(len(params) == expected, f"{len(params)} parameters for {n} modes, expected {expected}")
    require(_close(sf.vq, sigma[0::2, 0::2], VQ_TOL),
            "standard form differs from the engineered position block")
    require(_close(rebuilt.vq, sf.vq, VQ_TOL), "reconstructed vq differs from the standard form")


def check_analyze(cm, spectrum, purity, report, pairwise, residuals):
    sigma = np.asarray(cm.data)
    n = sigma.shape[0] // 2
    require(spectrum.rank == 0 and _close(spectrum.values, np.ones(n), SPECTRUM_TOL),
            "Williamson spectrum of a pure state is not all ones")
    require(bool(purity), "pure state reported as mixed")
    require(_close(report.per_mode_entropy, mode_entropies(sigma), ENTROPY_TOL),
            "full_report entropies differ from the mode-block determinants")
    require(_close(pairwise, report.per_mode_entropy, ENTROPY_TOL),
            "pairwise entropies differ from full_report")
    require(_close(residuals, np.zeros(n), DET_TOL), "det identity residual exceeds 1e-8")
    logneg = np.asarray(report.pairwise_logneg)
    require(logneg.shape == (n, n) and np.all(np.isfinite(logneg)) and np.all(logneg >= 0.0)
            and np.array_equal(logneg, logneg.T), "pairwise log-negativities malformed")


def check_lattice(potential, cm, direct, sf, pairwise, rebuilt, logneg):
    sigma = np.asarray(cm.data)
    n = potential.shape[0]
    q = sigma[0::2, 0::2]
    require(_close(q @ q @ potential, np.eye(n), 1e-8), "position block is not V^(-1/2)")
    require(purity_gap(sigma) <= 1.0, "ground state is not pure")
    require(_close(direct, mode_entropies(sigma), ENTROPY_TOL),
            "one-vs-rest entropies differ from the mode-block determinants")
    require(_close(pairwise, direct, ENTROPY_TOL), "pairwise entropies differ from direct ones")
    require(float(np.ptp(direct)) <= ENTROPY_TOL, "ring entropies are not translation invariant")
    require(_close(rebuilt.vq, sf.vq, VQ_TOL), "reconstructed vq differs from the standard form")
    require(math.isfinite(logneg) and logneg >= 0.0, "nearest-neighbour log-negativity malformed")


# ---- workloads -------------------------------------------------------------

class Workload:
    """A closed-loop job stream over ``pools`` of seeded inputs, one per size class."""

    name = ""
    block = {}

    def __init__(self, gf, seed, block=None):
        self.gf = gf
        self.seed = seed
        if block is not None:
            self.block = dict(block)
        self.pools = {}
        self.tracer = None

    def job(self, label, item):
        raise NotImplementedError

    def schedule(self):
        """Endless blocks of (label, pool index), each block in seeded order."""
        rng = np.random.default_rng([self.seed, 1])
        labels = [label for label, count in self.block.items() for _ in range(count)]
        taken = dict.fromkeys(self.block, 0)
        while True:
            block = []
            for index in rng.permutation(len(labels)):
                label = labels[index]
                block.append((label, taken[label] % len(self.pools[label])))
                taken[label] += 1
            yield block

    def blocks(self):
        for block in self.schedule():
            yield [self.job(label, self.pools[label][index]) for label, index in block]

    def warmup(self):
        """One untimed job per size class."""
        return [self.job(label, pool[0]) for label, pool in self.pools.items()]

    def fingerprint(self, n_blocks=3):
        """Digest of the inputs and of the first job order; equal seeds give equal digests."""
        schedule = self.schedule()
        order = [next(schedule) for _ in range(n_blocks)]
        return hashlib.sha256(pickle.dumps((self.pools, order))).hexdigest()

    def newton_cases(self):
        """(off-diagonals, N) inputs of ``reconstruct_diagonal`` typical of this workload."""
        raise NotImplementedError

    def extra_self(self, records, spans):
        """Module -> scaled self seconds spent outside the wrapped functions."""
        return {}

    def close(self):
        pass


class Forge(Workload):
    """Recipe -> engineer_state -> standard form -> parameters -> reconstruction."""

    name = "forge"
    block = {8: 3, 16: 3, 32: 8, 48: 4}
    calibration = DENSE

    def __init__(self, gf, seed, block=None):
        super().__init__(gf, seed, block)
        rng = np.random.default_rng([seed, 0])
        self.pools = {n: [recipe_doc(n, rng) for _ in range(POOL)] for n in self.block}

    def job(self, n, doc):
        gf = self.gf

        def run():
            cm = gf.engineer_state(gf.Recipe.from_dict(doc))
            sf = gf.to_standard_form(cm)
            params = gf.extract_parameters(sf)
            return cm, sf, params, gf.reconstruct_diagonal(params, n)

        return Job(str(n), run, lambda out: check_forge(n, *out))

    def newton_cases(self):
        gf = self.gf
        cases = []
        for pool in self.pools.values():
            sf = gf.to_standard_form(gf.engineer_state(gf.Recipe.from_dict(pool[0])))
            cases.append((gf.extract_parameters(sf), sf.n_modes))
        return cases


LOCAL = "local-frame"


class Analyze(Workload):
    """Spectrum, purity, full report, pairwise entropies and det identities of a given state.

    One job in every block gets its state in a random local frame.
    """

    name = "analyze"
    block = {8: 5, 16: 6, 32: 4, LOCAL: 1}
    calibration = SMALL

    def __init__(self, gf, seed, block=None):
        super().__init__(gf, seed, block)
        rng = np.random.default_rng([seed, 0])
        sizes = [n for n in self.block if n != LOCAL]
        states = {
            n: [gf.engineer_state(gf.Recipe.from_dict(recipe_doc(n, rng))) for _ in range(POOL)]
            for n in sizes
        }
        self.pools = dict(states)
        if LOCAL in self.block:
            self.pools[LOCAL] = []
            for index in range(POOL):
                for n in sizes:
                    s = local_frame(n, rng)
                    data = s.T @ states[n][index].data @ s
                    self.pools[LOCAL].append(gf.CovarianceMatrix(n, (data + data.T) / 2.0))

    def job(self, label, cm):
        gf, n = self.gf, cm.n_modes

        def run():
            spectrum = gf.williamson_spectrum(cm)
            purity = gf.is_pure(cm)
            report = gf.full_report(cm)
            sf = gf.to_standard_form(cm)
            pairwise = [gf.entropy_via_pairwise(sf, k) for k in range(1, n + 1)]
            residuals = [gf.det_identity_residual(cm, k) for k in range(1, n + 1)]
            return spectrum, purity, report, pairwise, residuals

        return Job(str(label), run, lambda out: check_analyze(cm, *out))

    def newton_cases(self):
        gf = self.gf
        cases = []
        for label, pool in self.pools.items():
            if label != LOCAL:
                sf = gf.to_standard_form(pool[0])
                cases.append((gf.extract_parameters(sf), sf.n_modes))
        return cases


class Lattice(Workload):
    """Ring ground state, every one-vs-rest entropy, standard form, reconstruction."""

    name = "lattice"
    block = {31: 7, 64: 6, 101: 6, 160: 1}
    calibration = DENSE
    couplings = (0.1, 0.5, 2.0)

    def __init__(self, gf, seed, block=None):
        super().__init__(gf, seed, block)
        rng = np.random.default_rng([seed, 0])
        # a seeded jitter of +-5% keeps each coupling's conditioning regime
        self.pools = {
            n: [ring_potential(n, c * math.exp(rng.uniform(-0.05, 0.05))) for c in self.couplings]
            for n in self.block
        }

    def job(self, n, potential):
        gf = self.gf

        def run():
            cm = gf.harmonic_ground_state(potential)
            direct = [gf.entropy_one_vs_rest(cm, k) for k in range(1, n + 1)]
            sf = gf.to_standard_form(cm)
            pairwise = [gf.entropy_via_pairwise(sf, k) for k in range(1, n + 1)]
            rebuilt = gf.reconstruct_diagonal(gf.extract_parameters(sf), n)
            return cm, direct, sf, pairwise, rebuilt, gf.log_negativity_pair(cm, 1, 2)

        return Job(str(n), run, lambda out: check_lattice(potential, *out))

    def newton_cases(self):
        gf = self.gf
        cases = []
        for n, pool in self.pools.items():
            for potential in pool:
                sf = gf.to_standard_form(gf.harmonic_ground_state(potential))
                cases.append((gf.extract_parameters(sf), n))
        return cases


class Cli(Workload):
    """One ``python -m gaussforge`` child at a time, on files written during set-up."""

    name = "cli"
    block = {"engineer": 2, "analyze": 2, "standard-form-cm": 1, "standard-form-vq": 1,
             "ring": 2, "gmps": 2}
    calibration = SMALL

    def __init__(self, gf, seed, block=None, root=None, work_dir=None,
                 modes=16, ring_modes=64, gmps_max=10000):
        super().__init__(gf, seed, block)
        self.root, self.work_dir = root, work_dir
        self.modes, self.ring_modes, self.gmps_max = modes, ring_modes, gmps_max
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.launcher = str(root / "perfbench" / "cli_launcher.py")
        self.references = {}
        self.launches = []
        rng = np.random.default_rng([seed, 0])
        self.files, self.expected, self.sfs = {}, {}, []
        pools = {kind: [] for kind in self.block}
        for index in range(3):
            doc = recipe_doc(modes, rng)
            cm = gf.engineer_state(gf.Recipe.from_dict(doc))
            sf = gf.to_standard_form(cm)
            self.sfs.append(sf)
            recipe, cm_file, vq = f"recipe-{index}.json", f"cm-{index}.json", f"vq-{index}.json"
            self.files[recipe] = json.dumps(doc)
            self.files[cm_file] = json.dumps(cm.to_dict())
            self.files[vq] = json.dumps(sf.to_dict())
            self.expected[recipe] = np.asarray(cm.data)
            self.expected[cm_file] = (mode_entropies(cm.data), np.asarray(sf.vq))
            self.expected[vq] = np.asarray(sf.vq)
            pools["engineer"].append(("engineer", "--recipe", recipe))
            pools["analyze"].append(("analyze", "--cm", cm_file))
            pools["standard-form-cm"].append(("standard-form", "--cm", cm_file))
            pools["standard-form-vq"].append(("standard-form", "--vq", vq, "--reconstruct"))
            coupling = (0.1, 0.5, 2.0)[index] * math.exp(rng.uniform(-0.05, 0.05))
            pools["ring"].append(("ring", "--n", str(ring_modes), "--coupling", repr(coupling)))
        pools["gmps"].append(("gmps", "--n-min", "2", "--n-max", str(gmps_max)))
        self.pools = {kind: pools[kind] for kind in self.block}
        if work_dir is not None:
            work_dir.mkdir(parents=True, exist_ok=True)
            for name, text in self.files.items():
                (work_dir / name).write_text(text)

    def job(self, kind, args):
        def run():
            argv = [str(self.work_dir / a) if a in self.files else a for a in args]
            if self.tracer is None:
                return subprocess.run([sys.executable, "-m", "gaussforge", *argv],
                                      capture_output=True, cwd=self.root, env=self.env,
                                      timeout=CHILD_TIMEOUT)
            spans_file = self.work_dir / "spans.json"
            env = dict(self.env, PERFBENCH_SPANS=str(spans_file),
                       PERFBENCH_SPAWN=repr(time.monotonic()))
            proc = subprocess.run([sys.executable, self.launcher, *argv], capture_output=True,
                                  cwd=self.root, env=env, timeout=CHILD_TIMEOUT)
            record = json.loads(spans_file.read_text())
            spans_file.unlink()
            self.tracer.add_foreign(record["spans"], self.tracer.job)
            self.launches.append((self.tracer.job, record["interpreter_ms"], record["import_ms"]))
            return proc

        return Job(kind, run, lambda proc: self.check(kind, args, proc))

    def check(self, kind, args, proc):
        require(proc.returncode == 0,
                f"{kind} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}")
        reference = self.references.setdefault(args, proc.stdout)
        require(proc.stdout == reference, f"repeated {kind} call gave different stdout")
        try:
            doc = json.loads(proc.stdout)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckFailed(f"{kind} stdout is not JSON: {exc}") from None
        try:
            self._check_doc(kind, args, doc, proc.stderr.decode(errors="replace"))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise CheckFailed(f"{kind} stdout lacks an expected field: {exc!r}") from None

    def _check_doc(self, kind, args, doc, stderr):
        n = self.modes
        if kind == "engineer":
            count = n * (n - 1) // 2
            require(f"{count} parameters" in stderr.splitlines(), f"engineer did not report {count} parameters")
            require(doc["n_modes"] == n and _close(doc["data"], self.expected[args[2]], 1e-12),
                    "engineered CM differs from the in-process one")
        elif kind == "analyze":
            entropies, _ = self.expected[args[2]]
            require(doc["pure"] is True and doc["symplectic_rank"] == 0, "state not reported pure")
            require(_close(doc["entanglement"]["per_mode_entropy"], entropies, ENTROPY_TOL),
                    "analyze entropies differ from the mode-block determinants")
        elif kind == "standard-form-cm":
            require(_close(doc["vq"], self.expected[args[2]][1], 1e-10), "standard form vq differs")
        elif kind == "standard-form-vq":
            require(_close(doc["standard_form"]["vq"], self.expected[args[2]], VQ_TOL),
                    "reconstructed vq differs from the input")
            require(doc["cm"]["n_modes"] == n, "reconstructed CM has the wrong size")
        elif kind == "ring":
            sigma = np.asarray(doc["cm"]["data"], dtype=float)
            potential = ring_potential(self.ring_modes, float(args[4]))
            q = sigma[0::2, 0::2]
            require(_close(q @ q @ potential, np.eye(self.ring_modes), 1e-8),
                    "ring position block is not V^(-1/2)")
            require(_close(doc["per_mode_entropy"], mode_entropies(sigma), ENTROPY_TOL),
                    "ring entropies differ from the mode-block determinants")
            require(math.isfinite(doc["nearest_neighbor_logneg"]), "ring log-negativity malformed")
        elif kind == "gmps":
            require([row["n_modes"] for row in doc] == list(range(2, self.gmps_max + 1)),
                    "gmps rows do not cover the range")
            for row in doc:
                m, size = row["min_bonds_general"], row["n_modes"]
                require(2 * m * (2 * m + 1) >= size - 1 and (m == 1 or 2 * (m - 1) * (2 * m - 1) < size - 1),
                        f"min_bonds_general wrong at N={size}")
                require(row["theta"] == size // 2, f"theta wrong at N={size}")

    def extra_self(self, records, spans):
        roots = sum((end - start) * records[job].scale
                    for _, start, end, parent, job, _ in spans if parent < 0)
        return {"cli": sum(r.seconds * r.scale for r in records) - roots}

    def newton_cases(self):
        return [(self.gf.extract_parameters(sf), sf.n_modes) for sf in self.sfs]

    def close(self):
        if self.work_dir is not None:
            for name in list(self.files) + ["spans.json"]:
                (self.work_dir / name).unlink(missing_ok=True)
            self.work_dir.rmdir()
            try:
                self.work_dir.parent.rmdir()
            except OSError:  # another run still uses it
                pass


WORKLOADS = {w.name: w for w in (Forge, Analyze, Lattice, Cli)}
