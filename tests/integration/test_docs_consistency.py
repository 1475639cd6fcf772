"""Documentation-consistency checks.

An open-source reproduction rots when docs and code drift; these tests
pin the load-bearing cross-references:

* every leakage category the code can emit is documented in the threat
  model;
* every benchmark file appears in DESIGN.md's experiment index;
* every example script is listed in the README;
* the protocol message kinds used on the wire are covered by the
  protocol spec;
* every environment variable and CLI subcommand the docs mention exists
  in the source (no stale knob references);
* ``docs/index.md`` maps the whole package and the whole doc set;
* every ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` / ``:data:``
  reference to ``repro.*`` in the source resolves;
* no markdown link in the doc set is broken (``tools/check_doc_links.py``,
  which CI also runs standalone).
"""

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def all_source() -> str:
    return "\n".join(read(p) for p in SRC.rglob("*.py"))


class TestThreatModelCoversLeakage:
    def test_every_emitted_category_documented(self):
        source = all_source()
        # Categories appear as the third positional arg of record() on a
        # LeakageLedger, whatever the local variable is called.
        emitted = set(
            re.findall(
                r'(?:leakage|ledger)\.record\(\s*[^,]+,\s*[^,]+,\s*"([a-z_]+)"',
                source,
            )
        )
        assert emitted, "expected to find leakage.record call sites"
        threat_model = read(REPO / "docs" / "threat-model.md")
        missing = sorted(c for c in emitted if f"`{c}`" not in threat_model)
        assert not missing, f"undocumented leakage categories: {missing}"


class TestDesignIndexCoversBenchmarks:
    def test_every_bench_file_indexed(self):
        design = read(REPO / "DESIGN.md")
        bench_files = sorted(
            p.name for p in (REPO / "benchmarks").glob("bench_*.py")
        )
        missing = [name for name in bench_files if name not in design]
        assert not missing, f"benchmarks absent from DESIGN.md index: {missing}"


class TestReadmeCoversExamples:
    def test_every_example_listed(self):
        readme = read(REPO / "README.md")
        examples = sorted(p.name for p in (REPO / "examples").glob("*.py"))
        missing = [name for name in examples if name not in readme]
        assert not missing, f"examples absent from README: {missing}"


DOC_SET = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    *sorted((REPO / "docs").glob("*.md")),
]


def all_docs() -> str:
    return "\n".join(read(p) for p in DOC_SET)


class TestDocsReferenceRealKnobs:
    """Stale-reference sweep: a knob or subcommand named in the docs must
    exist in the source tree (catches docs outliving a rename)."""

    def test_every_documented_env_var_exists_in_source(self):
        documented = set(re.findall(r"\bREPRO_[A-Z][A-Z_]*[A-Z]\b", all_docs()))
        assert documented, "expected REPRO_* knobs in the docs"
        known = set(re.findall(r"\bREPRO_[A-Z][A-Z_]*[A-Z]\b", all_source()))
        # Bench knobs live under benchmarks/, not src/.
        known |= set(
            re.findall(
                r"\bREPRO_[A-Z][A-Z_]*[A-Z]\b",
                "\n".join(read(p) for p in (REPO / "benchmarks").glob("*.py")),
            )
        )
        stale = sorted(documented - known)
        assert not stale, f"docs reference unknown env vars: {stale}"

    def test_every_documented_cli_subcommand_exists(self):
        documented = set(
            re.findall(r"python -m repro ([a-z][a-z-]+)", all_docs())
        )
        main_source = read(SRC / "__main__.py")
        missing = sorted(c for c in documented if f'"{c}"' not in main_source)
        assert not missing, f"docs reference unknown subcommands: {missing}"

    def test_every_scheduler_knob_documented(self):
        """The reverse sweep for the scheduler: every ``REPRO_SCHED_*``
        knob the source defines must appear in the docs (a tuning knob
        nobody can discover might as well not exist)."""
        sched_source = "\n".join(
            read(p) for p in (SRC / "sched").rglob("*.py")
        )
        defined = set(re.findall(r"\bREPRO_SCHED_[A-Z_]*[A-Z]\b", sched_source))
        assert defined, "expected REPRO_SCHED_* knobs in repro.sched"
        docs = all_docs()
        undocumented = sorted(v for v in defined if v not in docs)
        assert not undocumented, (
            f"REPRO_SCHED_* knobs missing from the docs: {undocumented}"
        )

    def test_every_obs_knob_documented(self):
        """Reverse sweep for observability: every ``REPRO_OBS_*`` knob the
        obs layer reads (leakage budget, HTTP endpoint) must appear in the
        docs."""
        obs_source = "\n".join(read(p) for p in (SRC / "obs").rglob("*.py"))
        defined = set(re.findall(r"\bREPRO_OBS_[A-Z_]*[A-Z]\b", obs_source))
        assert defined, "expected REPRO_OBS_* knobs in repro.obs"
        docs = all_docs()
        undocumented = sorted(v for v in defined if v not in docs)
        assert not undocumented, (
            f"REPRO_OBS_* knobs missing from the docs: {undocumented}"
        )

    def test_knobs_match_config_table(self):
        """The reverse sweep for every package: the ``REPRO_*`` names
        under ``src/`` are exactly the rows of docs/api.md's Configuration
        table (an undocumented knob might as well not exist; a row for a
        deleted one is a lie)."""
        api = read(REPO / "docs" / "api.md")
        section = api.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE))
        source = set(re.findall(r"\bREPRO_[A-Z][A-Z_0-9]*\b", all_source()))
        assert source == table

    def test_every_store_knob_documented(self):
        """Reverse sweep for the durable backend: every ``REPRO_STORE_*``
        knob ``repro.store`` reads (directory, fsync policy) must be
        documented in docs/storage.md's settings table — an undocumented
        durability knob is a silent data-loss footgun."""
        store_source = "\n".join(read(p) for p in (SRC / "store").rglob("*.py"))
        defined = set(re.findall(r"\bREPRO_STORE_[A-Z_]*[A-Z]\b", store_source))
        assert defined, "expected REPRO_STORE_* knobs in repro.store"
        storage_doc = read(REPO / "docs" / "storage.md")
        undocumented = sorted(v for v in defined if v not in storage_doc)
        assert not undocumented, (
            f"REPRO_STORE_* knobs missing from docs/storage.md: {undocumented}"
        )


class TestDocsIndexIsComplete:
    def test_every_subpackage_mapped(self):
        index = read(REPO / "docs" / "index.md")
        subpackages = sorted(
            p.name for p in SRC.iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        )
        missing = [n for n in subpackages if f"repro.{n}" not in index]
        assert not missing, f"subpackages absent from docs/index.md: {missing}"

    def test_every_doc_file_linked(self):
        index = read(REPO / "docs" / "index.md")
        docs = sorted(
            p.name for p in (REPO / "docs").glob("*.md") if p.name != "index.md"
        )
        missing = [n for n in docs if f"({n})" not in index]
        assert not missing, f"docs absent from docs/index.md: {missing}"


class TestNoBrokenLinks:
    def test_doc_set_links_resolve(self):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_doc_links
        finally:
            sys.path.pop(0)
        broken = check_doc_links.main([])
        assert broken == 0, f"{broken} broken markdown links (see stderr)"


class TestDocstringReferencesResolve:
    """Every Sphinx cross-reference to ``repro.*`` in the source names
    something that exists (catches docstrings outliving a deletion)."""

    ROLE = re.compile(r":(?:mod|class|func|meth|data):`~?(repro(?:\.\w+)+)`")

    @staticmethod
    def resolves(dotted: str) -> bool:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            for attr in parts[cut:]:
                if not hasattr(target, attr):
                    return False
                target = getattr(target, attr)
            return True
        return False

    def test_every_reference_resolves(self):
        refs = [
            (path, match.group(1))
            for path in sorted(SRC.rglob("*.py"))
            for match in self.ROLE.finditer(read(path))
        ]
        assert len(refs) > 100, "expected cross-references in the source"
        broken = sorted(
            f"{path.relative_to(SRC)}: {dotted}"
            for path, dotted in refs
            if not self.resolves(dotted)
        )
        assert not broken, f"unresolvable docstring references: {broken}"


class TestProtocolSpecCoversWireKinds:
    def test_every_message_kind_prefix_documented(self):
        source = all_source()
        kinds = set(re.findall(r'kind="([a-z_]+)\.', source))
        assert kinds, "expected protocol message kinds in source"
        spec = read(REPO / "docs" / "protocols.md")
        # audit.* (the remote front door) is a facade, not an SMC protocol;
        # it is documented in docs/api.md instead.
        api = read(REPO / "docs" / "api.md")
        missing = sorted(
            prefix for prefix in kinds
            if f"`{prefix}." not in spec and prefix not in api
        )
        assert not missing, f"undocumented wire protocols: {missing}"
