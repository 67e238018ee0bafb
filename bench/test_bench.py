"""Self-tests of the benchmark's generator, reference and output check.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)
"""
from __future__ import annotations

import contextlib
import io
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
from corpus import NP, PRON, Discourse, Sentence  # noqa: E402
from reference import Run, check_discourse, check_sample, parse_formula  # noqa: E402

SAMPLES = BENCH.parent / "samples"
WORK = BENCH.parent / ".bench_work" / "selftest"

# The words each profile's lexicon knows, canonical forms only.
PROFILE_WORDS = {
    "A": {"john", "loves", "woman", "own", "car", "a", "it", "is", "red", "doesnt"},
    "B": {"john", "own", "car", "a", "it", "is", "red", "doesnt"},
    "C": {"john", "mary", "loves", "own", "woman", "man", "car", "dog", "walks",
          "red", "happy", "a", "it", "is"},
}
CANONICAL = {"owns": "own", "walk": "walks"}


def contsem_run(d: Discourse, *flags: str) -> Run:
    from contsem.cli import main
    path = WORK / f"{d.name}.dsc"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(d.dsc())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), *flags])
    return Run(code, out.getvalue(), err.getvalue())


def parse_words(words: str) -> Sentence:
    """A sentence of the DSL, read with the benchmark's own grammar."""
    toks = words.replace("(", " ( ").replace(")", " ) ").split()

    def np(i):
        if toks[i] == "(":
            return NP("indef", toks[i + 2]), i + 4
        if toks[i] == "it":
            return PRON, i + 1
        return NP("name", toks[i]), i + 1

    subject, i = np(0)
    negated = toks[i] == "doesnt"
    i += negated
    verb = {"own": "owns", "walk": "walks"}.get(toks[i], toks[i])
    if verb == "is":
        return Sentence(subject, "is", adj=toks[i + 1])
    obj = np(i + 1)[0] if i + 1 < len(toks) else None
    return Sentence(subject, verb, obj, negated=negated)


def parse_dsc(name: str, text: str) -> Discourse:
    profile, sentences, expr = "", {}, ""
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("profile"):
            profile = line.split()[1]
        elif line.startswith("sentence"):
            ident, words = line[len("sentence"):].split("=", 1)
            sentences[ident.strip()] = parse_words(words.strip())
        elif line.startswith("discourse"):
            expr = line.split("=", 1)[1].strip()
    order = [t for t in expr.replace("(", " ").replace(")", " ").split()
             if t in sentences]
    return Discourse(name, profile, tuple(sentences[t] for t in order), expr)


def b_discourse(name: str, *sentences: str) -> Discourse:
    ids = [f"s{i}" for i in range(len(sentences))]
    return Discourse(name, "B", tuple(parse_words(s) for s in sentences),
                     " . ".join(ids))


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in corpus.WORKLOADS:
            self.assertEqual(corpus.discourses(workload, 7),
                             corpus.discourses(workload, 7))
            self.assertNotEqual(corpus.discourses(workload, 7),
                                corpus.discourses(workload, 8))

    def test_only_each_profiles_vocabulary(self):
        for workload in corpus.WORKLOADS:
            for seed in range(1, 6):
                for d in corpus.discourses(workload, seed):
                    for s in d.sentences:
                        words = {CANONICAL.get(w, w) for w in s.words()}
                        self.assertLessEqual(words, PROFILE_WORDS[d.profile],
                                             f"{d.name}: {s.text()}")

    def test_no_worker_compiles_a_discourse_twice(self):
        import run
        jobs = run._write_jobs("short-mixed", 7, WORK / "specs")
        specs = run._write_specs(jobs, WORK / "specs")
        self.assertEqual(len(specs), 2)
        self.assertEqual(sorted(i for _, indices in specs for i in indices),
                         list(range(len(jobs))))
        for _, indices in specs:
            items = [id(jobs[i][0].item) for i in indices]
            self.assertEqual(len(items), len(set(items)))

    def test_speed_probe_allocates_no_container(self):
        """So the probe never starts the collector over the program's heap."""
        import gc

        import speed
        speed.probe()
        gc.disable()
        try:
            before = gc.get_count()[0]
            speed.probe()
            self.assertEqual(gc.get_count()[0], before)
        finally:
            gc.enable()
        self.assertAlmostEqual(speed.scale(1.0, speed.REFERENCE_S, speed.REFERENCE_S), 1.0)
        self.assertAlmostEqual(speed.scale(1.0, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S), 0.5)

    def test_profile_b_rejects_mary(self):
        d = Discourse("mary-b", "B", (parse_words("mary owns (a car)"),), "s0")
        run = contsem_run(d)
        self.assertEqual(run.code, 1)
        self.assertTrue(run.err.startswith("contsem: "), run.err)


class ReferenceTests(unittest.TestCase):
    def test_reference_reproduces_golden_sites(self):
        """Every golden passes the check; for A and B that includes the
        reference's candidates against each `sel#` line.  Symbolic goldens
        have no sites and no `simplified:` line."""
        for sample in corpus.load_samples(SAMPLES):
            d = parse_dsc(sample.name, sample.path.read_text())
            golden = Run(0, sample.golden, "")
            self.assertTrue(check_sample(sample, {(): golden}).ok, sample.name)
            if "simplified: " not in sample.golden:
                self.assertNotIn("sel#", sample.golden)
                continue
            verdict = check_discourse(d, {(): golden})
            self.assertEqual(verdict.problems, [], sample.name)

    def test_check_rejects_wrong_candidates(self):
        sample = next(s for s in corpus.load_samples(SAMPLES) if s.name == "owns_car")
        d = parse_dsc(sample.name, sample.path.read_text())
        swapped = sample.golden.replace("env=y::j::nil candidates=[y, j]",
                                        "env=j::y::nil candidates=[j, y]")
        swapped = swapped.replace("red(sel(y::j::nil))", "red(sel(j::y::nil))")
        self.assertNotEqual(swapped, sample.golden)
        verdict = check_discourse(d, {(): Run(0, swapped, "")})
        self.assertFalse(verdict.ok)
        self.assertFalse(verdict.known_defect)

    def test_check_flags_disjunction_defect(self):
        d = b_discourse("or-defect", "john doesnt own (a car)",
                        "john owns (a car)", "it is red")
        verdict = check_discourse(d, {(): contsem_run(d)})
        self.assertIn("text: `|` in the simplified formula", verdict.problems)
        self.assertTrue(verdict.known_defect)

    def test_check_flags_dropped_sentence(self):
        d = b_discourse("dropped", "john owns (a car)", "john owns (a car)",
                        "john doesnt own (a car)")
        run = contsem_run(d)
        self.assertIn("~ Ex y2. top", run.out)
        verdict = check_discourse(d, {(): run})
        self.assertIn("text: own: 2 atoms for 3 uses", verdict.problems)
        self.assertTrue(verdict.known_defect)

    def test_wrong_candidates_before_a_negation_are_not_the_defect(self):
        d = b_discourse("swapped-b", "john owns (a car)", "it is red",
                        "john doesnt own (a car)")
        run = contsem_run(d)
        self.assertIn("~ Ex y1. top", run.out)
        self.assertTrue(check_discourse(d, {(): run}).known_defect)
        swapped = run.out.replace("sel(y::j::nil)", "sel(j::y::nil)").replace(
            "env=y::j::nil candidates=[y, j]", "env=j::y::nil candidates=[j, y]")
        self.assertNotEqual(swapped, run.out)
        verdict = check_discourse(d, {(): Run(0, swapped, "")})
        self.assertIn("text: pronoun 0: expected a bound car referent, got j",
                      verdict.problems)
        self.assertFalse(verdict.known_defect)

    def test_extra_atoms_are_not_the_defect(self):
        d = b_discourse("extra-b", "john owns (a car)", "it is red",
                        "john doesnt own (a car)")
        run = contsem_run(d)
        # `car` is used twice; the lost second use fits the defect, a third
        # atom does not.
        extra = run.out.replace("(car y & own j y)", "(car y & car y & car y & own j y)")
        self.assertNotEqual(extra, run.out)
        verdict = check_discourse(d, {(): Run(0, extra, "")})
        self.assertIn("text: car: 3 atoms for 2 uses", verdict.problems)
        self.assertFalse(verdict.known_defect)

    def test_empty_site_under_recency_is_explained(self):
        d = Discourse("empty-a", "A", (parse_words("it is red"),), "s0")
        runs = {("--resolve", "recency"): contsem_run(d, "--resolve", "recency"),
                ("--format", "json"): contsem_run(d, "--format", "json")}
        self.assertEqual(runs[("--resolve", "recency")].code, 1)
        self.assertEqual(check_discourse(d, runs).problems, [])

    def test_formula_parser_reads_every_golden_formula(self):
        for sample in corpus.load_samples(SAMPLES):
            for line in sample.golden.splitlines():
                if line.startswith(("raw: ", "simplified: ")):
                    parse_formula(line.split(": ", 1)[1])


if __name__ == "__main__":
    unittest.main()
